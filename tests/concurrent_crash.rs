//! Crash semantics of the cross-thread combining commit (`onll::DurableService`).
//!
//! Two suites, each on both backends (simulator and file/fsync):
//!
//! * **All-or-nothing batches** — a combined multi-client log entry is covered
//!   by exactly one persistent fence, so a crash anywhere around that fence
//!   must leave either the *whole* entry (every client's operation durable and
//!   resolvable by its pre-assigned `OpId`) or *none* of it (every operation
//!   detectably not linearized). The crash is armed deterministically at three
//!   points: mid-store (torn entry), after the flush but before the fence
//!   (complete but not durable), and after the fence (durable).
//! * **Wing&Gong over concurrent crash histories** — N client threads submit
//!   through the service while a crash is armed at a swept persistence-event
//!   count; the surviving history must be durably linearizable (Definition
//!   5.6) and, when small enough, linearizable outright. Post-crash, every
//!   recovered operation's remembered response (`Durable::resolve`) must match
//!   the value handed to the submitting client before the crash — the
//!   exactly-once reply contract.
//!
//! Tier-1 covers fixed seeds/crash points; the `#[ignore]`d matrix sweeps a
//! randomized grid (run by the nightly CI job).

use remembering_consistently::harness::{
    check_durable_linearizability, check_linearizability, History,
};
use remembering_consistently::nvm::{BackendSpec, CrashTrigger, NvmPool, PmemConfig, ScratchDir};
use remembering_consistently::objects::{CounterOp, CounterRead, CounterSpec};
use remembering_consistently::onll::{Durable, OnllConfig, OpId, ResolveOutcome};

fn backend_for(label: &str, file: bool) -> (BackendSpec, Option<ScratchDir>) {
    if file {
        let dir = ScratchDir::new(label).unwrap();
        (BackendSpec::file(dir.path()), Some(dir))
    } else {
        (BackendSpec::Sim, None)
    }
}

/// How the deterministic all-or-nothing scenario arms its crash.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CrashArm {
    /// Mid-store of the combined entry: recovery sees a torn entry.
    MidStores,
    /// After the entry's flush, before its fence: complete but not durable.
    BeforeFence,
    /// After the entry's fence: the whole batch is durable.
    AfterFence,
}

/// Arms a crash around the single fence of one two-client combined batch and
/// asserts recovery observes the whole entry or none of it.
fn all_or_nothing(file: bool, arm: CrashArm) {
    let label = format!("combined-batch {arm:?} file={file}");
    let (spec, _cleanup) = backend_for("concurrent-all-or-nothing", file);
    let cfg = OnllConfig::named("combined-batch")
        .max_processes(3)
        .log_capacity(64)
        .group_persist(2);
    let pmem = PmemConfig::with_capacity(32 << 20).apply_pending_at_crash(0.0);
    let pool = NvmPool::provision(&spec, pmem, &cfg.name)
        .unwrap_or_else(|e| panic!("{label}: provision failed: {e}"));
    let object = Durable::<CounterSpec>::create(pool.clone(), cfg.clone())
        .unwrap_or_else(|e| panic!("{label}: create failed: {e}"));
    let service = object.service(2).unwrap();
    let mut a = service.client().unwrap();
    let mut b = service.client().unwrap();

    // A durable baseline operation that must survive every scenario.
    let (baseline_value, baseline_id) = a.submit(CounterOp::Add(1)).unwrap();
    assert_eq!(baseline_value, 1);

    // Publish both clients' operations, then combine them on this thread with
    // the crash armed: the batch is one log entry, one flush, one fence.
    let id_a = a.submit_async(CounterOp::Add(10));
    let id_b = b.submit_async(CounterOp::Add(100));
    pool.arm_crash(match arm {
        CrashArm::MidStores => CrashTrigger::AfterStores(1),
        CrashArm::BeforeFence => CrashTrigger::AfterFlushes(1),
        CrashArm::AfterFence => CrashTrigger::AfterFences(1),
    });
    assert_eq!(service.combine_now(), 2, "{label}: both ops in one batch");
    assert!(pool.is_frozen(), "{label}: the armed crash must have fired");
    // The combiner posted replies; their shape depends on where the crash hit.
    // A batch whose fence persisted before the freeze yields values; a batch
    // whose fence found the machine already frozen is *refused* — the combiner
    // never acknowledges operations whose bytes are not durable.
    let reply_a = a
        .try_take_reply()
        .unwrap_or_else(|| panic!("{label}: combiner visited slot a"));
    let reply_b = b
        .try_take_reply()
        .unwrap_or_else(|| panic!("{label}: combiner visited slot b"));

    drop(a);
    drop(b);
    drop(service);
    drop(object);
    pool.crash_and_restart();
    let (recovered, report) = Durable::<CounterSpec>::recover(pool, cfg)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let recovered_ids: Vec<OpId> = report.recovered_ops.iter().map(|(_, id)| *id).collect();
    assert!(
        recovered_ids.contains(&baseline_id),
        "{label}: the pre-batch baseline op must always survive"
    );
    assert_eq!(
        recovered.resolve(baseline_id),
        ResolveOutcome::Executed(baseline_value),
        "{label}"
    );

    match arm {
        CrashArm::AfterFence => {
            // The whole multi-client entry survived: both ops are linearized,
            // and each client's remembered response is exactly the reply the
            // combiner handed it before the crash.
            let reply_a = reply_a.unwrap_or_else(|e| panic!("{label}: slot a refused: {e}"));
            let reply_b = reply_b.unwrap_or_else(|e| panic!("{label}: slot b refused: {e}"));
            assert_eq!(reply_a.1, id_a);
            assert_eq!(reply_b.1, id_b);
            for (value, op_id) in [reply_a, reply_b] {
                assert!(recovered.was_linearized(op_id), "{label}: lost {op_id}");
                assert_eq!(
                    recovered.resolve(op_id),
                    ResolveOutcome::Executed(value),
                    "{label}: {op_id}"
                );
            }
            assert_eq!(report.durable_index, 3, "{label}");
            assert_eq!(recovered.read_latest(&CounterRead::Get), 111, "{label}");
        }
        CrashArm::MidStores | CrashArm::BeforeFence => {
            // The batch's publish fence found the machine frozen, so the
            // combiner refused both operations instead of handing out replies
            // for non-durable state.
            assert!(
                reply_a.is_err() && reply_b.is_err(),
                "{label}: an unfenced batch must not be acknowledged"
            );
            // And none of the entry survived: both ops are detectably
            // not-linearized and the state shows only the baseline.
            for op_id in [id_a, id_b] {
                assert!(
                    !recovered.was_linearized(op_id),
                    "{label}: {op_id} resurrected from an unfenced entry"
                );
                assert_eq!(
                    recovered.resolve(op_id),
                    ResolveOutcome::Unknown,
                    "{label}: {op_id}"
                );
            }
            assert_eq!(report.durable_index, 1, "{label}");
            assert_eq!(recovered.read_latest(&CounterRead::Get), 1, "{label}");
        }
    }
}

#[test]
fn combined_batch_torn_entry_sim() {
    all_or_nothing(false, CrashArm::MidStores);
}

#[test]
fn combined_batch_lost_before_fence_sim() {
    all_or_nothing(false, CrashArm::BeforeFence);
}

#[test]
fn combined_batch_durable_after_fence_sim() {
    all_or_nothing(false, CrashArm::AfterFence);
}

#[test]
fn combined_batch_torn_entry_file() {
    all_or_nothing(true, CrashArm::MidStores);
}

#[test]
fn combined_batch_lost_before_fence_file() {
    all_or_nothing(true, CrashArm::BeforeFence);
}

#[test]
fn combined_batch_durable_after_fence_file() {
    all_or_nothing(true, CrashArm::AfterFence);
}

/// xorshift-ish per-(seed, thread, op) deterministic value.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15);
    z ^= b.wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

/// N client threads submit through one combining service while a crash is
/// armed `crash_after_events` persistence events in; recovery must satisfy
/// durable linearizability over the surviving history, Wing&Gong over small
/// histories, and the exactly-once reply contract for every completed op.
fn service_crash_run(file: bool, threads: usize, ops: usize, crash_after_events: u64, seed: u64) {
    let label = format!(
        "service-crash file={file} threads={threads} events={crash_after_events} seed={seed}"
    );
    let (spec, _cleanup) = backend_for("concurrent-service-crash", file);
    let cfg = OnllConfig::named("service-crash")
        .max_processes(threads + 1)
        .log_capacity(threads * ops + 16)
        .group_persist(threads.max(2));
    let pmem = PmemConfig::with_capacity(64 << 20)
        .apply_pending_at_crash(0.0)
        .crash_seed(seed ^ 0xBADC0FFE);
    let pool = NvmPool::provision(&spec, pmem, &cfg.name)
        .unwrap_or_else(|e| panic!("{label}: provision failed: {e}"));
    let object = Durable::<CounterSpec>::create(pool.clone(), cfg.clone())
        .unwrap_or_else(|e| panic!("{label}: create failed: {e}"));
    let service = object.service(threads).unwrap();
    let history: History<CounterOp, CounterRead, i64> = History::new();

    pool.arm_crash(CrashTrigger::AfterEvents(crash_after_events));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = service.clone();
            let history = history.clone();
            let pool = pool.clone();
            let label = &label;
            scope.spawn(move || {
                let mut client = service.client().expect("a client slot per thread");
                for k in 0..ops {
                    if pool.is_frozen() {
                        break;
                    }
                    let op = CounterOp::Add((mix(seed, t as u64, k as u64) % 9) as i64 + 1);
                    let op_id = client.peek_next_op_id();
                    let pending = history.invoke_update(op_id.pid, Some(op_id), op);
                    let reply = client.submit(op);
                    // A response observed after the system froze never
                    // happened from the object's point of view.
                    if pool.is_frozen() {
                        break;
                    }
                    let (value, served_id) = reply.expect("pre-crash submit succeeds");
                    assert_eq!(served_id, op_id, "{label}: identity drifted");
                    history.respond(pending, value);
                }
            });
        }
    });

    let crashed = pool.is_frozen();
    let token = pool.crash();
    pool.disarm_crash();
    pool.restart(token);
    drop(service);
    drop(object);

    let (recovered, report) = Durable::<CounterSpec>::recover(pool, cfg)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let recovered_ids: Vec<OpId> = report.recovered_ops.iter().map(|(_, id)| *id).collect();
    let pre_crash = history.snapshot();
    check_durable_linearizability::<CounterSpec>(&pre_crash, &recovered_ids)
        .unwrap_or_else(|v| panic!("{label}: durability violation: {v:?}"));
    if pre_crash.len() <= 12 {
        check_linearizability::<CounterSpec>(&pre_crash)
            .unwrap_or_else(|e| panic!("{label}: Wing&Gong rejected the history: {e}"));
    }
    // Exactly-once replies: every completed op's remembered response matches
    // the value its client observed before the crash.
    for record in pre_crash.iter().filter(|r| r.is_complete()) {
        let op_id = record.op_id.expect("completed updates carry an op id");
        let remembered = recovered.resolve(op_id);
        if let remembering_consistently::harness::EventKind::Update {
            value: Some(value), ..
        } = &record.kind
        {
            assert_eq!(
                remembered,
                ResolveOutcome::Executed(*value),
                "{label}: {op_id} reply not remembered"
            );
        }
    }
    if !crashed {
        assert_eq!(
            recovered_ids.len(),
            threads * ops,
            "{label}: nothing crashed, everything must survive"
        );
    }
}

#[test]
fn service_crash_sweep_sim() {
    for events in [25, 60, 111, 190] {
        service_crash_run(false, 3, 6, events, 0xC0C0A);
    }
}

#[test]
fn service_crash_sweep_file() {
    for events in [30, 85, 150] {
        service_crash_run(true, 2, 5, events, 0xC0C0B);
    }
}

#[test]
fn service_crash_after_workload_recovers_everything() {
    service_crash_run(false, 3, 5, 1_000_000, 0xC0C0C);
}

/// Randomized matrix over seeds × crash points × thread counts, both
/// backends. Tier-2: run explicitly (`--ignored`) or by the nightly CI job.
#[test]
#[ignore = "randomized matrix; run with --ignored (nightly CI)"]
fn service_crash_randomized_matrix() {
    for file in [false, true] {
        for seed in 0..6u64 {
            for point in 0..5u64 {
                let threads = 2 + (seed % 3) as usize;
                let events = 20 + mix(seed, point, 17) % 400;
                service_crash_run(file, threads, 8, events, 0x5EED ^ (seed << 8) ^ point);
            }
        }
    }
}
