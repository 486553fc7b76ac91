//! Fault absorption in the persist path: transient backend faults are retried
//! inside `ProcessHandle::commit` (the failed log publish leaves slot and
//! sequence number unconsumed, so the retry overwrites exactly the same
//! entry), while an exhausted retry budget poisons the commit path so the
//! orphaned — ordered but never linearized — window can never be linearized
//! past (the double-apply hazard described on the commit path's
//! `PERSIST_RETRIES` constant in `crates/core/src/handle.rs`).

mod common;

use common::{CounterOp, CounterSpec};
use nvm_sim::{FaultPlan, NvmPool, PmemConfig};
use onll::{Durable, OnllConfig, OnllError, ResolveOutcome};

fn pool_with(plan: &FaultPlan) -> NvmPool {
    NvmPool::new(PmemConfig::with_capacity(32 << 20).fault_plan(plan.clone()))
}

#[test]
fn transient_fsync_faults_are_absorbed_by_persist_retry() {
    let plan = FaultPlan::seeded(7);
    let p = pool_with(&plan);
    let c = Durable::<CounterSpec>::create(p, OnllConfig::named("ctr")).unwrap();
    let mut h = c.register().unwrap();
    assert_eq!(h.update(CounterOp::Add(1)), 1);

    // Two consecutive injected fsync EIOs: attempts 1 and 2 fail, attempt 3
    // succeeds (`PERSIST_RETRIES` = 3 allows up to 4 attempts).
    plan.fail_next_fsyncs_transient(2);
    assert_eq!(h.update(CounterOp::Add(10)), 11, "retry must absorb faults");
    assert!(plan.injected() >= 2, "both faults actually fired");

    // Exactly-once: the operation was applied a single time and is durable.
    let op_id = h.last_op_id().unwrap();
    assert_eq!(h.read(&()), 11);
    assert_eq!(c.resolve(op_id), ResolveOutcome::Executed(11));
    c.check_invariants().unwrap();
}

#[test]
fn transient_pwrite_faults_are_absorbed_too() {
    let plan = FaultPlan::seeded(3);
    let p = pool_with(&plan);
    let c = Durable::<CounterSpec>::create(p, OnllConfig::named("ctr")).unwrap();
    let mut h = c.register().unwrap();
    plan.fail_next_pwrites_transient(1);
    assert_eq!(h.update(CounterOp::Add(5)), 5);
    assert_eq!(plan.injected(), 1);
    c.check_invariants().unwrap();
}

#[test]
fn combiner_batches_retry_transient_faults() {
    let plan = FaultPlan::seeded(11);
    let p = pool_with(&plan);
    let cfg = OnllConfig::named("svc-ctr")
        .max_processes(4)
        .group_persist(2);
    let c = Durable::<CounterSpec>::create(p, cfg).unwrap();
    let service = c.service(2).unwrap();
    let mut client = service.client().unwrap();
    plan.fail_next_fsyncs_transient(2);
    let (value, op_id) = client.submit(CounterOp::Add(3)).unwrap();
    assert_eq!(value, 3);
    assert_eq!(c.resolve(op_id), ResolveOutcome::Executed(3));
    c.check_invariants().unwrap();
}

#[test]
fn exhausted_retries_poison_the_commit_path_but_not_reads() {
    let plan = FaultPlan::seeded(5);
    let p = pool_with(&plan);
    let c = Durable::<CounterSpec>::create(p, OnllConfig::named("ctr")).unwrap();
    let mut h = c.register().unwrap();
    assert_eq!(h.update(CounterOp::Add(1)), 1);

    // More consecutive faults than the retry budget (4 attempts) can absorb.
    plan.fail_next_fsyncs_transient(16);
    let failed_id = h.peek_next_op_id();
    let err = h.try_update(CounterOp::Add(100)).unwrap_err();
    assert!(matches!(err, OnllError::Nvm(_)), "persist error: {err:?}");

    // The commit path is poisoned: later updates are rejected *before*
    // ordering anything, even though the fault window has long recovered —
    // a success here could linearize past the orphaned window.
    let err = h.try_update(CounterOp::Add(200)).unwrap_err();
    let OnllError::Nvm(msg) = &err else {
        panic!("expected poisoned-path error, got {err:?}");
    };
    assert!(msg.contains("poisoned"), "unexpected message: {msg}");

    // Reads and resolve still serve the linearized prefix; the failed
    // operation is detectably not-executed (safe to replay after restart).
    assert_eq!(h.read(&()), 1);
    assert_eq!(c.read_latest(&()), 1);
    assert_eq!(c.resolve(failed_id), ResolveOutcome::Unknown);
}
