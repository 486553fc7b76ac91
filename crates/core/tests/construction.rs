//! Integration tests of the ONLL universal construction: fence bounds
//! (Theorem 5.1), concurrency, crash recovery (durable linearizability),
//! detectable execution, local views and checkpointing.

mod common;

use common::{Append, CounterOp, CounterSpec, ListSpec};
use nvm_sim::{FaultPlan, NvmPool, PmemConfig, WritebackPolicy};
use onll::{Durable, Hooks, OnllConfig, OnllError, OpId, Phase, ResolveOutcome};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool() -> NvmPool {
    NvmPool::new(PmemConfig::with_capacity(32 << 20).apply_pending_at_crash(0.0))
}

fn counter(pool: &NvmPool, name: &str) -> Durable<CounterSpec> {
    Durable::create(pool.clone(), OnllConfig::named(name)).unwrap()
}

#[test]
fn sequential_updates_and_reads() {
    let p = pool();
    let c = counter(&p, "ctr");
    let mut h = c.register().unwrap();
    assert_eq!(h.update(CounterOp::Add(1)), 1);
    assert_eq!(h.update(CounterOp::Add(2)), 3);
    assert_eq!(h.read(&()), 3);
    assert_eq!(c.read_latest(&()), 3);
    assert_eq!(c.ordered_index(), 2);
    assert_eq!(c.linearized_index(), 2);
    c.check_invariants().unwrap();
}

#[test]
fn update_costs_exactly_one_persistent_fence_and_read_zero() {
    let p = pool();
    let c = counter(&p, "ctr");
    let mut h = c.register().unwrap();
    for i in 0..100 {
        let w = p.stats().op_window();
        h.update(CounterOp::Add(i));
        let d = w.close();
        assert_eq!(d.persistent_fences, 1, "update #{i}");
        let w = p.stats().op_window();
        h.read(&());
        let d = w.close();
        assert_eq!(d.persistent_fences, 0, "read #{i} must not fence");
        assert_eq!(d.fences, 0, "read #{i} must not even issue a plain fence");
        assert_eq!(d.flushes, 0, "read #{i} must not flush");
        assert_eq!(d.stores, 0, "read #{i} must not store to NVM");
    }
}

/// Drives one handle-level script step by step against a from-scratch
/// `onll::replay` of the linearized history: every update reply and every
/// handle read must equal the replayed reference, and a refused update or
/// group must leave `peek_next_op_id`/`last_op_id` exactly as they were.
/// Script steps are `(kind, handle, size)`.
fn run_replay_script(script: &[(u8, usize, usize)]) {
    const MAX_GROUP: usize = 3;
    let p = pool();
    let mut cfg = OnllConfig::named("script")
        .max_processes(3)
        .log_capacity(6)
        .group_persist(MAX_GROUP)
        .checkpoint_every(4)
        .checkpoint_slot_bytes(4096);
    cfg.reclaim_batch = 2;
    let c = Durable::<ListSpec>::create(p, cfg).unwrap();
    let reference = |history: &[Append]| onll::replay::<ListSpec>(history).items;
    let mut history: Vec<Append> = Vec::new();
    let mut handles = vec![c.register().unwrap()];
    let mut next = 0u32;
    for &(kind, h, size) in script {
        let h = h % handles.len();
        let handle = &mut handles[h];
        let (peek, last) = (handle.peek_next_op_id(), handle.last_op_id());
        match kind {
            0 | 1 => {
                next += 1;
                match handle.try_update(Append(next)) {
                    Ok(value) => {
                        history.push(Append(next));
                        assert_eq!(value, reference(&history), "update reply");
                        assert_eq!(handle.last_op_id(), Some(peek));
                    }
                    Err(e) => {
                        assert!(matches!(e, OnllError::LogFull), "{e:?}");
                        assert_eq!(handle.peek_next_op_id(), peek, "refused update drew an id");
                        assert_eq!(handle.last_op_id(), last, "refused update moved last_op_id");
                    }
                }
            }
            2 => {
                let ops: Vec<Append> = (0..size)
                    .map(|_| {
                        next += 1;
                        Append(next)
                    })
                    .collect();
                match handle.try_update_group(ops.clone()) {
                    Ok(values) => {
                        assert_eq!(values.len(), size);
                        for (op, value) in ops.into_iter().zip(values) {
                            history.push(op);
                            assert_eq!(value, reference(&history), "group reply");
                        }
                        let expected_last = match size {
                            0 => last,
                            n => Some(OpId::new(peek.pid, peek.seq + n as u64 - 1)),
                        };
                        assert_eq!(handle.last_op_id(), expected_last);
                        assert_eq!(handle.peek_next_op_id().seq, peek.seq + size as u64);
                    }
                    Err(e) => {
                        if size > MAX_GROUP {
                            assert!(matches!(e, OnllError::GroupTooLarge { .. }), "{e:?}");
                        } else {
                            assert!(matches!(e, OnllError::LogFull), "{e:?}");
                        }
                        assert_eq!(handle.peek_next_op_id(), peek, "refused group drew ids");
                        assert_eq!(handle.last_op_id(), last, "refused group moved last_op_id");
                    }
                }
            }
            3 => assert_eq!(handle.read(&()), reference(&history), "handle read"),
            4 => {
                handle.maybe_checkpoint().unwrap();
            }
            _ => {
                if handles.len() < 3 {
                    // Late registration: the fresh view seeds from the newest
                    // checkpoint snapshot once the prefix below it is reclaimed.
                    let mut late = c.register().unwrap();
                    assert_eq!(late.read(&()), reference(&history), "late handle read");
                    handles.push(late);
                } else {
                    handles.swap_remove(h);
                }
            }
        }
        assert_eq!(
            c.read_latest(&()),
            reference(&history),
            "Durable::read_latest"
        );
    }
    for handle in &mut handles {
        assert_eq!(handle.read(&()), reference(&history), "final handle read");
    }
    assert_eq!(c.linearized_index(), history.len() as u64);
    c.check_invariants().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handle_reads_and_replies_match_a_replay_of_the_linearized_history(
        script in proptest::collection::vec((0u8..6, 0usize..3, 0usize..6), 1..80),
    ) {
        run_replay_script(&script);
    }
}

/// A persist failure happens *after* ordering: the operation is in the trace
/// (detectable execution must be able to ask about it), so `last_op_id` names
/// it on both commit paths. The poisoned gate then refuses before ordering:
/// no identity is drawn and `last_op_id` stays put, for updates and groups.
#[test]
fn refused_commits_draw_no_identity_on_either_path() {
    for group in [false, true] {
        let plan = FaultPlan::seeded(5);
        let p = NvmPool::new(PmemConfig::with_capacity(32 << 20).fault_plan(plan.clone()));
        let c =
            Durable::<CounterSpec>::create(p, OnllConfig::named("ctr").group_persist(2)).unwrap();
        let mut h = c.register().unwrap();
        let commit = |h: &mut onll::ProcessHandle<CounterSpec>| {
            if group {
                h.try_update_group([CounterOp::Add(1), CounterOp::Add(1)])
                    .map(|_| ())
            } else {
                h.try_update(CounterOp::Add(1)).map(|_| ())
            }
        };
        commit(&mut h).unwrap();

        let first = h.peek_next_op_id();
        plan.fail_next_fsyncs_transient(16);
        assert!(matches!(commit(&mut h), Err(OnllError::Nvm(_))));
        let ordered = if group { 2 } else { 1 };
        let last = OpId::new(first.pid, first.seq + ordered - 1);
        assert_eq!(h.last_op_id(), Some(last), "group={group}");
        assert_eq!(h.peek_next_op_id().seq, first.seq + ordered);

        let peek = h.peek_next_op_id();
        for _ in 0..3 {
            assert!(matches!(commit(&mut h), Err(OnllError::Nvm(_))));
            assert_eq!(h.peek_next_op_id(), peek, "group={group}");
            assert_eq!(h.last_op_id(), Some(last), "group={group}");
        }
        assert!(matches!(
            h.try_update_group([CounterOp::Add(1), CounterOp::Add(1), CounterOp::Add(1)]),
            Err(OnllError::GroupTooLarge { len: 3, max: 2 })
        ));
        assert_eq!(h.peek_next_op_id(), peek);
    }
}

#[test]
fn updates_visible_to_other_handles_only_after_linearization() {
    let p = pool();
    let c = counter(&p, "ctr");
    let mut h0 = c.register().unwrap();
    let mut h1 = c.register().unwrap();
    h0.update(CounterOp::Add(5));
    assert_eq!(h1.read(&()), 5, "reader sees linearized update");
}

#[test]
fn concurrent_updates_sum_correctly() {
    let p = pool();
    let c = Durable::<CounterSpec>::create(
        p.clone(),
        OnllConfig::named("ctr").max_processes(4).log_capacity(1024),
    )
    .unwrap();
    let threads = 4;
    let per_thread = 200;
    let mut join = Vec::new();
    for _ in 0..threads {
        let c = c.clone();
        join.push(std::thread::spawn(move || {
            let mut h = c.register().unwrap();
            for _ in 0..per_thread {
                h.update(CounterOp::Add(1));
            }
        }));
    }
    for j in join {
        j.join().unwrap();
    }
    assert_eq!(c.read_latest(&()), (threads * per_thread) as i64);
    assert_eq!(c.ordered_index(), (threads * per_thread) as u64);
    c.check_invariants().unwrap();
}

#[test]
fn concurrent_total_fences_at_most_one_per_update() {
    let p = pool();
    let c = Durable::<CounterSpec>::create(
        p.clone(),
        OnllConfig::named("ctr").max_processes(4).log_capacity(2048),
    )
    .unwrap();
    let before = p.stats().persistent_fences();
    let threads = 4;
    let per_thread = 150;
    let mut join = Vec::new();
    for _ in 0..threads {
        let c = c.clone();
        join.push(std::thread::spawn(move || {
            let mut h = c.register().unwrap();
            for _ in 0..per_thread {
                h.update(CounterOp::Add(1));
                h.read(&());
            }
        }));
    }
    for j in join {
        j.join().unwrap();
    }
    let total = p.stats().persistent_fences() - before;
    assert!(
        total <= (threads * per_thread) as u64,
        "{total} persistent fences for {} updates",
        threads * per_thread
    );
}

#[test]
fn linearization_order_is_a_single_total_order() {
    // Appends from multiple threads must be observed in the same total order by
    // every reader, and that order must equal the execution-index order.
    let p = pool();
    let c = Durable::<ListSpec>::create(
        p.clone(),
        OnllConfig::named("list")
            .max_processes(4)
            .log_capacity(1024),
    )
    .unwrap();
    let threads = 4;
    let per_thread = 100u32;
    let mut join = Vec::new();
    for t in 0..threads {
        let c = c.clone();
        join.push(std::thread::spawn(move || {
            let mut h = c.register().unwrap();
            for i in 0..per_thread {
                h.update(Append(t * 1000 + i));
            }
        }));
    }
    for j in join {
        j.join().unwrap();
    }
    let items = c.read_latest(&());
    assert_eq!(items.len(), (threads * per_thread) as usize);
    // Per-thread subsequences appear in program order.
    for t in 0..threads {
        let mine: Vec<u32> = items.iter().copied().filter(|v| v / 1000 == t).collect();
        let expected: Vec<u32> = (0..per_thread).map(|i| t * 1000 + i).collect();
        assert_eq!(mine, expected, "thread {t} program order violated");
    }
}

#[test]
fn recovery_restores_all_completed_updates() {
    let p = pool();
    let name = "ctr";
    {
        let c = counter(&p, name);
        let mut h = c.register().unwrap();
        for _ in 0..25 {
            h.update(CounterOp::Add(2));
        }
        assert_eq!(h.read(&()), 50);
    }
    p.crash_and_restart();
    let (c, report) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named(name)).unwrap();
    assert_eq!(report.durable_index, 25);
    assert_eq!(report.replayed_ops(), 25);
    assert_eq!(c.read_latest(&()), 50);
    // The object keeps working after recovery.
    let mut h = c.register().unwrap();
    assert_eq!(h.update(CounterOp::Add(1)), 51);
}

#[test]
fn recovery_of_empty_object() {
    let p = pool();
    {
        let _c = counter(&p, "ctr");
    }
    p.crash_and_restart();
    let (c, report) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("ctr")).unwrap();
    assert_eq!(report.durable_index, 0);
    assert_eq!(c.read_latest(&()), 0);
}

#[test]
fn recovery_without_explicit_crash_is_also_consistent() {
    // Even without a crash (clean shutdown), recovery from NVM alone must
    // reconstruct everything, because all updates were persisted before returning.
    let p = pool();
    {
        let c = counter(&p, "ctr");
        let mut h = c.register().unwrap();
        for _ in 0..10 {
            h.update(CounterOp::Add(3));
        }
    }
    let (c, _) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("ctr")).unwrap();
    assert_eq!(c.read_latest(&()), 30);
}

#[test]
fn crash_during_update_preserves_prefix() {
    // Crash after the trace insert but before the log append: the in-flight update
    // must not be reflected after recovery, while all completed ones must be.
    let p = pool();
    let crashed = Arc::new(AtomicU64::new(0));
    let crashed2 = crashed.clone();
    let p2 = p.clone();
    let hooks = Hooks::new(move |phase, _pid| {
        if phase == Phase::BeforePersist && crashed2.fetch_add(1, Ordering::SeqCst) == 10 {
            let _ = p2.crash();
        }
    });
    let c = Durable::<CounterSpec>::create_with_hooks(p.clone(), OnllConfig::named("ctr"), hooks)
        .unwrap();
    let mut h = c.register().unwrap();
    let mut completed = 0i64;
    for _ in 0..20 {
        if p.is_frozen() {
            break;
        }
        match h.try_update(CounterOp::Add(1)) {
            Ok(_) if !p.is_frozen() => completed += 1,
            _ => break,
        }
    }
    assert!(p.is_frozen(), "the armed hook should have crashed the pool");
    p.crash_and_restart();
    let (c, report) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("ctr")).unwrap();
    // All updates that completed before the crash are present; the one in flight is
    // not (it never reached the log).
    assert_eq!(report.durable_index as i64, completed);
    assert_eq!(c.read_latest(&()), completed);
}

#[test]
fn detectable_execution_reports_linearized_ops() {
    let p = pool();
    let name = "ctr";
    let mut last_op: Option<OpId> = None;
    {
        let c = counter(&p, name);
        let mut h = c.register().unwrap();
        for _ in 0..5 {
            h.update(CounterOp::Add(1));
            last_op = h.last_op_id();
        }
        assert!(c.was_linearized(last_op.unwrap()));
        assert!(!c.was_linearized(OpId::new(7, 99)));
    }
    p.crash_and_restart();
    let (c, _) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named(name)).unwrap();
    assert!(
        c.was_linearized(last_op.unwrap()),
        "completed op must be detected as linearized after recovery"
    );
    assert!(
        !c.was_linearized(OpId::new(0, 6)),
        "never-invoked op not reported"
    );
}

#[test]
fn hook_phases_fire_in_algorithm_order() {
    let p = pool();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let order2 = order.clone();
    let hooks = Hooks::new(move |phase, _| order2.lock().push(phase));
    let c = Durable::<CounterSpec>::create_with_hooks(p, OnllConfig::named("ctr"), hooks).unwrap();
    let mut h = c.register().unwrap();
    h.update(CounterOp::Add(1));
    h.read(&());
    let seen = order.lock().clone();
    assert_eq!(
        seen,
        vec![
            Phase::BeforeOrder,
            Phase::AfterOrder,
            Phase::BeforePersist,
            Phase::AfterPersist,
            Phase::BeforeLinearize,
            Phase::AfterLinearize,
            Phase::BeforeResponse,
            Phase::BeforeReadSnapshot,
            Phase::BeforeReadResponse,
        ]
    );
}

#[test]
fn register_assigns_distinct_pids_and_releases_on_drop() {
    let p = pool();
    let c = Durable::<CounterSpec>::create(p, OnllConfig::named("ctr").max_processes(2)).unwrap();
    let h0 = c.register().unwrap();
    let h1 = c.register().unwrap();
    assert_ne!(h0.pid(), h1.pid());
    assert!(matches!(c.register(), Err(OnllError::NoFreeProcessSlot)));
    drop(h0);
    let h2 = c.register().unwrap();
    assert_eq!(h2.pid(), 0, "released slot is reused");
    assert!(matches!(
        c.handle_for(1),
        Err(OnllError::ProcessSlotUnavailable(1))
    ));
    drop(h1);
    assert!(c.handle_for(1).is_ok());
}

#[test]
fn create_twice_with_same_name_fails() {
    let p = pool();
    let _c = counter(&p, "ctr");
    assert!(matches!(
        Durable::<CounterSpec>::create(p.clone(), OnllConfig::named("ctr")),
        Err(OnllError::MetadataMismatch(_))
    ));
}

#[test]
fn recover_missing_object_fails() {
    let p = pool();
    assert!(matches!(
        Durable::<CounterSpec>::recover(p, OnllConfig::named("nope")),
        Err(OnllError::MetadataMissing(_))
    ));
}

#[test]
fn two_objects_share_a_pool_independently() {
    let p = pool();
    let a = counter(&p, "a");
    let b = counter(&p, "b");
    let mut ha = a.register().unwrap();
    let mut hb = b.register().unwrap();
    ha.update(CounterOp::Add(7));
    hb.update(CounterOp::Add(100));
    assert_eq!(a.read_latest(&()), 7);
    assert_eq!(b.read_latest(&()), 100);
    p.crash_and_restart();
    let (a, _) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("a")).unwrap();
    let (b, _) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("b")).unwrap();
    assert_eq!(a.read_latest(&()), 7);
    assert_eq!(b.read_latest(&()), 100);
}

#[test]
fn log_full_is_reported_and_nothing_is_ordered() {
    let p = pool();
    let c = Durable::<CounterSpec>::create(p, OnllConfig::named("ctr").log_capacity(4)).unwrap();
    let mut h = c.register().unwrap();
    for _ in 0..4 {
        h.update(CounterOp::Add(1));
    }
    let before = c.ordered_index();
    assert!(matches!(
        h.try_update(CounterOp::Add(1)),
        Err(OnllError::LogFull)
    ));
    assert_eq!(
        c.ordered_index(),
        before,
        "rejected update must not be ordered"
    );
    assert_eq!(c.read_latest(&()), 4);
}

#[test]
fn checkpointing_truncates_logs_and_recovery_uses_the_checkpoint() {
    let p = pool();
    let cfg = OnllConfig::named("ctr")
        .log_capacity(64)
        .checkpoint_every(10)
        .checkpoint_slot_bytes(256);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg.clone()).unwrap();
    {
        let mut h = c.register().unwrap();
        for _ in 0..200 {
            h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
        }
        assert!(
            h.log_len() < 64,
            "log must have been truncated by checkpoints (len={})",
            h.log_len()
        );
    }
    p.crash_and_restart();
    let (c, report) =
        Durable::<CounterSpec>::recover_with_checkpoints(p.clone(), cfg.clone()).unwrap();
    assert!(
        report.checkpoint_index > 0,
        "recovery started from a checkpoint"
    );
    assert_eq!(report.durable_index, 200);
    let mut h = c.register().unwrap();
    assert_eq!(h.read(&()), 200);
    assert_eq!(h.update(CounterOp::Add(5)), 205);
}

#[test]
fn plain_recover_refuses_when_checkpoints_exist() {
    let p = pool();
    let cfg = OnllConfig::named("ctr").checkpoint_every(5);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg.clone()).unwrap();
    {
        let mut h = c.register().unwrap();
        for _ in 0..20 {
            h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
        }
    }
    p.crash_and_restart();
    assert!(matches!(
        Durable::<CounterSpec>::recover(p.clone(), cfg.clone()),
        Err(OnllError::MetadataMismatch(_))
    ));
    let (c, _) = Durable::<CounterSpec>::recover_with_checkpoints(p, cfg).unwrap();
    assert_eq!(c.read_latest(&()), 20);
}

#[test]
fn trace_prefix_reclamation_keeps_results_correct() {
    let p = pool();
    let cfg = OnllConfig::named("ctr")
        .checkpoint_every(8)
        .log_capacity(64)
        .checkpoint_slot_bytes(128);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg).unwrap();
    let mut h = c.register().unwrap();
    // reclaim_batch default is 1024; lower the bar by doing enough updates.
    for _ in 0..2000 {
        h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
    }
    assert_eq!(h.read(&()), 2000);
    c.check_invariants().unwrap();
}

#[test]
fn handle_registered_after_reclamation_seeds_from_the_snapshot() {
    // Regression: a handle registered after trace-prefix reclamation used to
    // seed its local view from the base state and silently miss the reclaimed
    // history. Fresh views (and anonymous replays) must seed from the newest
    // published checkpoint instead.
    let p = pool();
    let cfg = OnllConfig::named("ctr")
        .checkpoint_every(8)
        .log_capacity(4096)
        .checkpoint_slot_bytes(128);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg).unwrap();
    {
        let mut h = c.register().unwrap();
        // Well past reclaim_batch (default 1024) so reclamation fires.
        for _ in 0..2000 {
            h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
        }
    }
    let mut late = c.register().unwrap();
    assert_eq!(late.read(&()), 2000);
    assert_eq!(c.read_latest(&()), 2000);
    assert_eq!(late.update(CounterOp::Add(5)), 2005);
    c.check_invariants().unwrap();
}

#[test]
fn works_under_eager_and_random_eviction_policies() {
    for policy in [
        WritebackPolicy::EagerOnFlush,
        WritebackPolicy::RandomEviction {
            probability: 0.3,
            seed: 7,
        },
    ] {
        let p = NvmPool::new(
            PmemConfig::with_capacity(32 << 20)
                .policy(policy)
                .apply_pending_at_crash(1.0),
        );
        let c = Durable::<CounterSpec>::create(p.clone(), OnllConfig::named("ctr")).unwrap();
        {
            let mut h = c.register().unwrap();
            for _ in 0..30 {
                h.update(CounterOp::Add(1));
            }
        }
        drop(c);
        p.crash_and_restart();
        let (c, _) = Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("ctr")).unwrap();
        assert_eq!(c.read_latest(&()), 30, "policy {policy:?}");
    }
}

#[test]
fn repeated_crash_recover_cycles_accumulate_state() {
    let p = pool();
    {
        let c = counter(&p, "ctr");
        let mut h = c.register().unwrap();
        for _ in 0..5 {
            h.update(CounterOp::Add(1));
        }
    }
    let mut expected = 5i64;
    for round in 0..5 {
        p.crash_and_restart();
        let (c, report) =
            Durable::<CounterSpec>::recover(p.clone(), OnllConfig::named("ctr")).unwrap();
        assert_eq!(c.read_latest(&()), expected, "round {round}");
        assert_eq!(report.durable_index, expected as u64);
        let mut h = c.register().unwrap();
        for _ in 0..3 {
            h.update(CounterOp::Add(1));
        }
        expected += 3;
    }
}

#[test]
fn capacity_backstop_checkpoints_before_the_ring_fills() {
    // With checkpointing enabled, the capacity backstop must compact the ring
    // before appends fail with LogFull, however far off the ops-count
    // trigger is.
    let p = pool();
    let cfg = OnllConfig::named("backstop")
        .log_capacity(32)
        // Unreachable ops-count trigger: 200 updates never get there, so
        // only the backstop can fire.
        .checkpoint_every(1 << 30)
        .checkpoint_slot_bytes(256);
    let obj = Durable::<CounterSpec>::create(p.clone(), cfg.clone()).unwrap();
    let mut h = obj.register().unwrap();
    for i in 0..200 {
        h.update_with_checkpoint(CounterOp::Add(1))
            .unwrap_or_else(|e| panic!("update {i} failed before the backstop fired: {e:?}"));
    }
    assert_eq!(obj.read_latest(&()), 200);
    assert!(
        obj.checkpoint_watermark() > 0,
        "the capacity backstop never checkpointed"
    );

    // A log recovered full takes no append to raise the backstop: its owner
    // raises it on finding the log full, and `maybe_checkpoint` compacts.
    while h.try_update(CounterOp::Add(1)).is_ok() {}
    drop((h, obj));
    p.crash_and_restart();
    let (obj, _) = Durable::<CounterSpec>::recover_with_checkpoints(p, cfg).unwrap();
    let mut h = obj.register().unwrap();
    assert_eq!(h.try_update(CounterOp::Add(1)), Err(OnllError::LogFull));
    h.sync();
    assert!(
        h.maybe_checkpoint().unwrap().is_some(),
        "the backstop never fired"
    );
    h.try_update(CounterOp::Add(1)).unwrap();
}

#[test]
fn resolve_distinguishes_truncated_from_unknown() {
    // Regression: resolve used to answer `None` both for "never executed"
    // (safe to re-submit) and "compacted below a checkpoint floor" (re-submit
    // double-applies). The typed outcome must keep the two cases apart.
    let p = pool();
    let cfg = OnllConfig::named("resolve")
        .log_capacity(256)
        .checkpoint_every(10)
        .checkpoint_slot_bytes(256);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg.clone()).unwrap();
    let mut h = c.register().unwrap();
    let early = h.peek_next_op_id();
    h.update(CounterOp::Add(1));
    // Before any checkpoint: an executed identity resolves Executed and a
    // never-invoked one resolves Unknown.
    assert_eq!(c.resolve(early), ResolveOutcome::Executed(1));
    assert_eq!(c.resolve(OpId::new(0, 999)), ResolveOutcome::Unknown);
    for _ in 0..30 {
        h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
    }
    assert!(c.checkpoint_watermark() > 0, "a checkpoint published");
    // The early identity now lies below the published per-process floor: its
    // response is no longer derivable, so the answer is Truncated — never the
    // Unknown that would invite a double-applying re-submit.
    assert_eq!(c.resolve(early), ResolveOutcome::Truncated);
    // Identities above the floor are unaffected on both paths.
    let last = h.last_op_id().unwrap();
    assert_eq!(c.resolve(last), ResolveOutcome::Executed(31));
    assert_eq!(c.resolve(OpId::new(0, 999)), ResolveOutcome::Unknown);
    assert_eq!(c.resolve(OpId::new(7, 1)), ResolveOutcome::Unknown);
    drop(h);

    // The floors are persisted in the checkpoint slot, so the distinction
    // must survive a crash.
    p.crash_and_restart();
    let (c, _) = Durable::<CounterSpec>::recover_with_checkpoints(p.clone(), cfg).unwrap();
    assert_eq!(c.resolve(early), ResolveOutcome::Truncated);
    assert_eq!(c.resolve(last), ResolveOutcome::Executed(31));
    assert_eq!(c.resolve(OpId::new(0, 999)), ResolveOutcome::Unknown);
    // Post-recovery identities never collide with checkpoint-covered ones:
    // the sequence counter is re-seeded from max(floor, recovered log).
    let mut h = c.register().unwrap();
    let next = h.peek_next_op_id();
    assert!(
        next.seq > last.seq,
        "fresh identity {next} must be above the recovered high {last}"
    );
    assert_eq!(h.update(CounterOp::Add(1)), 32);
    assert_eq!(c.resolve(next), ResolveOutcome::Executed(32));
}

#[test]
fn recovered_identity_backlog_is_pruned_by_checkpoints() {
    // A long-running service recovers once, then keeps checkpointing: the
    // recovered-identity set must shrink below the watermark instead of
    // retaining one entry per recovered operation for the process lifetime.
    let p = pool();
    let cfg = OnllConfig::named("backlog")
        .log_capacity(256)
        .checkpoint_every(10)
        .checkpoint_slot_bytes(256);
    let c = Durable::<CounterSpec>::create(p.clone(), cfg.clone()).unwrap();
    let mut ids = Vec::new();
    {
        let mut h = c.register().unwrap();
        // No checkpoint before the crash: everything must be replayed.
        for _ in 0..25 {
            ids.push(h.peek_next_op_id());
            h.update(CounterOp::Add(1));
        }
    }
    p.crash_and_restart();
    let (c, report) = Durable::<CounterSpec>::recover(p.clone(), cfg).unwrap();
    assert_eq!(report.replayed_ops(), 25);
    assert_eq!(c.recovered_backlog(), 25, "one identity per recovered op");
    for id in &ids {
        assert!(c.was_linearized(*id));
    }

    // Keep updating with the small checkpoint interval: the first checkpoint's
    // watermark covers the whole recovered prefix and must prune it.
    let mut h = c.register().unwrap();
    for _ in 0..20 {
        h.update_with_checkpoint(CounterOp::Add(1)).unwrap();
    }
    assert!(c.checkpoint_watermark() >= 25, "a checkpoint published");
    assert_eq!(
        c.recovered_backlog(),
        0,
        "identities at or below the watermark must be pruned"
    );
    // Detectability above the watermark is unaffected, and recovered ops still
    // linked in the trace stay answerable through it.
    assert!(c.was_linearized(h.last_op_id().unwrap()));
    assert_eq!(c.read_latest(&()), 45);
}
