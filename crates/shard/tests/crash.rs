//! Multi-shard crash/recovery tests: a shard killed mid-persist loses only its
//! own in-flight operation, every other shard recovers in full, and group
//! persist is all-or-nothing at its single fence.

use durable_objects::{SetOp, SetRead, SetSpec, SetValue};
use nvm_sim::PmemConfig;
use onll::{Hooks, OnllConfig, Phase};
use onll_shard::{HashRouter, RangeRouter, ShardConfig, ShardedDurable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn shard_config(name: &str, shards: usize) -> ShardConfig {
    ShardConfig::named(name)
        .shards(shards)
        .base(OnllConfig::default().max_processes(2).log_capacity(1024))
        // Deterministic crashes: pending (unfenced) flushes are always lost.
        .pmem(PmemConfig::with_capacity(256 << 20).apply_pending_at_crash(0.0))
}

/// Kill one shard mid-persist (after its operation is ordered, before its log
/// append fence) and verify the other shards' recovery is unaffected: they
/// recover everything, the victim loses exactly the in-flight operation, and
/// detectable execution reports it as not linearized.
#[test]
fn mid_persist_kill_on_one_shard_leaves_other_shards_unaffected() {
    // Range routing keeps the test deterministic: keys 0..100 → shard 0,
    // 100..200 → shard 1, 200..300 → shard 2, 300.. → shard 3.
    let router = Arc::new(RangeRouter::new(vec![100u64, 200, 300]));
    let config = shard_config("victim", 4);

    // Hooks on shard 0 only: once armed, the next persist parks forever —
    // the "kill" happens while the operation is ordered but not yet durable.
    let armed = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    let (armed2, parked2) = (armed.clone(), parked.clone());
    let stall_hooks = Hooks::new(move |phase, _pid| {
        if phase == Phase::BeforePersist && armed2.load(Ordering::Acquire) {
            parked2.store(true, Ordering::Release);
            loop {
                std::thread::park();
            }
        }
    });
    let object =
        ShardedDurable::<SetSpec>::create_with_hooks(config.clone(), router.clone(), |shard| {
            if shard == 0 {
                stall_hooks.clone()
            } else {
                Hooks::none()
            }
        })
        .unwrap();

    // Ten durable updates per shard.
    let mut handle = object.register().unwrap();
    for shard in 0..4u64 {
        for i in 0..10 {
            assert_eq!(
                handle.update(SetOp::Add(shard * 100 + i)),
                SetValue::Bool(true)
            );
        }
    }

    // Arm the stall and launch the doomed update on shard 0 from its own
    // thread. It claims the second process slot, so its identity on shard 0 is
    // (pid 1, seq 1) — checked against detectable execution after recovery.
    armed.store(true, Ordering::Release);
    let object2 = object.clone();
    let _doomed = std::thread::spawn(move || {
        let mut h = object2.register().expect("second slot");
        h.update(SetOp::Add(42)); // key 42 → shard 0; parks mid-persist
    });
    while !parked.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // Full-system crash: every pool loses its caches; the parked thread never
    // reached its fence, so shard 0's in-flight operation is not durable.
    let pools = object.pools().to_vec();
    drop(handle);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }

    // Parallel recovery across all shards.
    let (recovered, report) = ShardedDurable::<SetSpec>::recover(pools, config, router).unwrap();
    assert_eq!(report.shards(), 4);
    assert_eq!(
        report.durable_indices(),
        vec![10, 10, 10, 10],
        "the victim shard lost only its in-flight op; no other shard was affected"
    );
    assert_eq!(report.total_replayed(), 40);

    // State check: all 40 completed adds survive, the doomed add does not.
    assert_eq!(recovered.read_latest(&SetRead::Len), SetValue::Len(40));
    assert_eq!(
        recovered.read_latest(&SetRead::Contains(42)),
        SetValue::Bool(false)
    );
    // Detectable execution on the victim shard: the doomed operation (second
    // process slot, first op) reports as not linearized.
    assert!(!recovered.shard(0).was_linearized(onll::OpId::new(1, 1)));
    for shard in 0..4u64 {
        assert_eq!(
            recovered.read_latest(&SetRead::Contains(shard * 100 + 9)),
            SetValue::Bool(true)
        );
    }
    recovered.check_invariants().unwrap();
}

/// Crash with no in-flight operations: every shard recovers its full history
/// and the merged report accounts for every update.
#[test]
fn quiescent_crash_recovers_every_shard_in_full() {
    let shards = 8;
    let router = Arc::new(HashRouter::new(shards));
    let config = shard_config("full", shards);
    let object = ShardedDurable::<SetSpec>::create(config.clone(), router.clone()).unwrap();
    let mut handle = object.register().unwrap();
    for k in 0..200u64 {
        handle.update(SetOp::Add(k));
    }
    let expected_per_shard: Vec<u64> = (0..shards)
        .map(|s| (0..200u64).filter(|k| object.shard_of(k) == s).count() as u64)
        .collect();

    let pools = object.pools().to_vec();
    drop(handle);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }
    let (recovered, report) = ShardedDurable::<SetSpec>::recover(pools, config, router).unwrap();
    assert_eq!(report.total_replayed(), 200);
    assert_eq!(report.durable_indices(), expected_per_shard);
    assert_eq!(recovered.read_latest(&SetRead::Len), SetValue::Len(200));
    for k in 0..200u64 {
        assert_eq!(
            recovered.read_latest(&SetRead::Contains(k)),
            SetValue::Bool(true),
            "key {k} lost"
        );
    }
}

/// Group persist is all-or-nothing at its single fence: an unflushed buffer is
/// lost entirely by a crash; a flushed group survives entirely.
#[test]
fn group_persist_is_all_or_nothing_across_a_crash() {
    let shards = 2;
    let router = Arc::new(RangeRouter::new(vec![1000u64]));
    let config = ShardConfig::named("groups")
        .shards(shards)
        .base(
            OnllConfig::default()
                .max_processes(1)
                .log_capacity(1024)
                .group_persist(8),
        )
        .pmem(PmemConfig::with_capacity(128 << 20).apply_pending_at_crash(0.0));
    let object = ShardedDurable::<SetSpec>::create(config.clone(), router.clone()).unwrap();
    let mut handle = object.register().unwrap();

    // Flushed group on shard 0: one fence, fully durable.
    let w = object.aggregate_window();
    for k in 0..5u64 {
        assert!(handle.buffer_update(SetOp::Add(k)).unwrap().is_none());
    }
    let flushed = handle.flush().unwrap();
    assert_eq!(flushed.len(), 1);
    assert_eq!(flushed[0].0, 0);
    assert_eq!(flushed[0].1.len(), 5);
    assert_eq!(
        w.close().persistent_fences,
        1,
        "a flushed group costs exactly one fence"
    );

    // Unflushed buffer on shard 1: never persisted, lost by the crash.
    for k in 0..4u64 {
        assert!(handle
            .buffer_update(SetOp::Add(1000 + k))
            .unwrap()
            .is_none());
    }
    assert_eq!(handle.pending(), 4);

    let pools = object.pools().to_vec();
    drop(handle);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }
    let (recovered, report) = ShardedDurable::<SetSpec>::recover(pools, config, router).unwrap();
    assert_eq!(report.durable_indices(), vec![5, 0]);
    assert_eq!(recovered.read_latest(&SetRead::Len), SetValue::Len(5));
    assert_eq!(
        recovered.read_latest(&SetRead::Contains(1000)),
        SetValue::Bool(false),
        "unflushed buffered updates must not survive"
    );
}

/// A failed group persist must not lose the buffered operations: the persist
/// validates (log capacity, group size) before ordering anything, so the
/// buffer is restored intact and the flush can be retried.
#[test]
fn failed_flush_keeps_the_buffer_for_retry() {
    let router = Arc::new(HashRouter::new(1));
    let config = ShardConfig::named("retry")
        .shards(1)
        .base(
            OnllConfig::default()
                .max_processes(1)
                .log_capacity(2) // tiny: two individual updates fill it
                .group_persist(3),
        )
        .pmem(PmemConfig::with_capacity(64 << 20));
    let object = ShardedDurable::<SetSpec>::create(config, router).unwrap();
    let mut handle = object.register().unwrap();
    handle.update(SetOp::Add(1));
    handle.update(SetOp::Add(2)); // log now full

    assert!(handle.buffer_update(SetOp::Add(10)).unwrap().is_none());
    assert!(handle.buffer_update(SetOp::Add(11)).unwrap().is_none());
    // Third buffered op reaches the group size; the auto-flush hits LogFull.
    let err = handle.buffer_update(SetOp::Add(12)).unwrap_err();
    assert_eq!(err, onll::OnllError::LogFull);
    assert_eq!(
        handle.pending(),
        3,
        "a failed group persist must keep the buffered operations"
    );
    // Explicit flush fails the same way and still keeps the buffer.
    assert_eq!(handle.flush().unwrap_err(), onll::OnllError::LogFull);
    assert_eq!(handle.pending(), 3);
    // Nothing from the buffer leaked into the object.
    assert_eq!(handle.read(&SetRead::Len), SetValue::Len(2));
}

/// A process performing individual updates concurrently with another process's
/// in-flight *group* must tolerate a fuzzy window larger than `max_processes`
/// (the generalized Proposition 5.2 bound is `max_processes * max_group_ops`).
#[test]
fn individual_update_tolerates_a_concurrent_in_flight_group() {
    use onll::Durable;
    use std::sync::{Condvar, Mutex};

    let pool = nvm_sim::NvmPool::new(PmemConfig::with_capacity(64 << 20));
    let gate = Arc::new((Mutex::new(false), Condvar::new())); // true = release
    let parked = Arc::new(AtomicBool::new(false));
    let (gate2, parked2) = (gate.clone(), parked.clone());
    let hooks = Hooks::new(move |phase, pid| {
        if phase == Phase::BeforePersist && pid == 0 {
            parked2.store(true, Ordering::Release);
            let (lock, cvar) = &*gate2;
            let mut released = lock.lock().unwrap();
            while !*released {
                released = cvar.wait(released).unwrap();
            }
        }
    });
    let object = Durable::<SetSpec>::create_with_hooks(
        pool,
        OnllConfig::named("mixed").max_processes(2).group_persist(4),
        hooks,
    )
    .unwrap();

    // Process 0: a group of 4, stalled between order and persist (4 ordered,
    // unavailable nodes in the trace).
    let object2 = object.clone();
    let grouper = std::thread::spawn(move || {
        let mut h = object2.handle_for(0).unwrap();
        h.update_group((0..4).map(SetOp::Add))
    });
    while !parked.load(Ordering::Acquire) {
        std::thread::yield_now();
    }

    // Process 1: a plain update sees a fuzzy window of 5 > max_processes = 2.
    // It must help-persist the whole window (entries are sized for 8) rather
    // than asserting or erroring.
    let mut h1 = object.handle_for(1).unwrap();
    assert_eq!(h1.update(SetOp::Add(100)), SetValue::Bool(true));

    // Release the group and let it finish.
    {
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let values = grouper.join().unwrap();
    assert_eq!(values, vec![SetValue::Bool(true); 4]);
    assert_eq!(object.read_latest(&SetRead::Len), SetValue::Len(5));
    object.check_invariants().unwrap();
}

/// After recovery, handles must follow the *persisted* group geometry, not the
/// caller's template: auto-flush fires at the recovered group size.
#[test]
fn recovered_handles_use_the_persisted_group_size() {
    let router = Arc::new(HashRouter::new(1));
    let config = ShardConfig::named("geom")
        .shards(1)
        .base(OnllConfig::default().max_processes(1).group_persist(4))
        .pmem(PmemConfig::with_capacity(64 << 20).apply_pending_at_crash(0.0));
    let object = ShardedDurable::<SetSpec>::create(config, router.clone()).unwrap();
    let mut handle = object.register().unwrap();
    handle.update(SetOp::Add(1));
    let pools = object.pools().to_vec();
    drop(handle);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }

    // Recover with a template asking for far larger groups than the persisted
    // log entries can hold; core adopts the persisted geometry (4), and the
    // facade must follow it.
    let template = ShardConfig::named("geom")
        .shards(1)
        .base(OnllConfig::default().max_processes(1).group_persist(32))
        .pmem(PmemConfig::with_capacity(64 << 20).apply_pending_at_crash(0.0));
    let (recovered, _report) = ShardedDurable::<SetSpec>::recover(pools, template, router).unwrap();
    assert_eq!(recovered.shard(0).config().max_group_ops, 4);
    let mut handle = recovered.register().unwrap();
    for k in 10..13u64 {
        assert!(handle.buffer_update(SetOp::Add(k)).unwrap().is_none());
    }
    let values = handle
        .buffer_update(SetOp::Add(13))
        .unwrap()
        .expect("auto-flush must fire at the persisted group size (4), not the template's 32");
    assert_eq!(values.len(), 4);
    assert_eq!(recovered.read_latest(&SetRead::Len), SetValue::Len(5));
}

/// Auto-flush at the configured group size: the buffer returns the group's
/// values and the whole group becomes durable with one fence.
#[test]
fn auto_flush_triggers_at_group_size() {
    let shards = 1;
    let router = Arc::new(HashRouter::new(shards));
    let config = ShardConfig::named("auto")
        .shards(shards)
        .base(OnllConfig::default().max_processes(1).group_persist(3))
        .pmem(PmemConfig::with_capacity(64 << 20));
    let object = ShardedDurable::<SetSpec>::create(config, router).unwrap();
    let mut handle = object.register().unwrap();

    let w = object.aggregate_window();
    assert!(handle.buffer_update(SetOp::Add(1)).unwrap().is_none());
    assert!(handle.buffer_update(SetOp::Add(2)).unwrap().is_none());
    let values = handle
        .buffer_update(SetOp::Add(3))
        .unwrap()
        .expect("third buffered update reaches the group size and auto-flushes");
    assert_eq!(values, vec![SetValue::Bool(true); 3]);
    assert_eq!(w.close().persistent_fences, 1);
    assert_eq!(handle.pending(), 0);
    assert_eq!(handle.read(&SetRead::Len), SetValue::Len(3));
}
