//! Multi-threaded drivers and fence audits for cross-thread combining
//! front-ends.
//!
//! The sharded driver ([`crate::run_sharded_kv_workload`]) measures *aggregate*
//! throughput of one facade; this module drives N client threads against any
//! [`DurableObject`] implementation — the ONLL combining service
//! ([`onll::DurableService`] via [`crate::adapter::ServiceClientAdapter`]), the
//! `baselines` flat combiner, or plain per-thread handles — under identical
//! seeded workloads, so a caller can compare them
//! apples-to-apples. It also audits the amortized per-operation fence bounds
//! ([`FenceAudit::satisfies_amortized_bounds`]): at most one inherent fence in
//! any operation's own window, and no fewer than one fence per `max_batch`
//! operations in aggregate — the inherent cost is amortized, never evaded.

use crate::fence_audit::{audit_fence_bounds, FenceAudit};
use crate::sharded::{RunReport, SubmitMode};
use crate::workload::{Workload, WorkloadMix, WorkloadOp};
use baselines::DurableObject;
use nvm_sim::NvmPool;
use onll::SequentialSpec;
use std::time::Instant;

/// Derives thread `t`'s workload seed from the run seed (same scheme as the
/// sharded driver, so runs are reproducible from the reported seed alone).
pub fn thread_seed(seed: u64, thread: u64) -> u64 {
    seed.wrapping_add(thread).wrapping_mul(2654435761)
}

/// Drives `threads` client threads, each executing `ops_per_thread` seeded
/// operations through its own handle (built by `make_handle`, once per thread,
/// inside that thread), and reports aggregate throughput and fence counts
/// summed over `pools`.
///
/// `next_op` draws one operation from a thread's seeded [`Workload`] stream —
/// pass `Workload::next_counter_op` / `Workload::next_kv_op` or a custom
/// generator. `mode` is recorded in the report verbatim (the handle decides
/// how updates are actually submitted).
#[allow(clippy::too_many_arguments)]
pub fn run_concurrent_workload<S, H>(
    make_handle: impl Fn(usize) -> H + Sync,
    pools: &[NvmPool],
    threads: usize,
    ops_per_thread: usize,
    mix: WorkloadMix,
    seed: u64,
    mode: SubmitMode,
    next_op: impl Fn(&mut Workload) -> WorkloadOp<S::UpdateOp, S::ReadOp> + Sync,
) -> RunReport
where
    S: SequentialSpec,
    H: DurableObject<S>,
{
    let before = onll_shard::merged_global_stats(pools);
    let start = Instant::now();
    let make_handle = &make_handle;
    let next_op = &next_op;
    let (updates, reads) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut handle = make_handle(t);
                    let mut workload = Workload::new(mix, thread_seed(seed, t as u64));
                    let mut updates = 0u64;
                    let mut reads = 0u64;
                    for _ in 0..ops_per_thread {
                        match next_op(&mut workload) {
                            WorkloadOp::Update(u) => {
                                updates += 1;
                                handle.update(u);
                            }
                            WorkloadOp::Read(r) => {
                                reads += 1;
                                handle.read(&r);
                            }
                        }
                    }
                    (updates, reads)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .fold((0, 0), |(u, r), (wu, wr)| (u + wu, r + wr))
    });
    let elapsed = start.elapsed();
    // The full stats delta rides along (satellite fix: drivers used to keep
    // only the fence count and drop the rest of the backend totals).
    let delta = onll_shard::merged_global_stats(pools).delta(&before);
    RunReport {
        threads,
        seed,
        mode,
        backend: pools.first().map_or("none", |p| p.backend_name()),
        total_ops: updates + reads,
        updates,
        reads,
        elapsed,
        persistent_fences: delta.persistent_fences,
        fence_totals: delta,
        telemetry: onll_shard::merged_telemetry(pools),
    }
}

/// Like [`run_concurrent_workload`], but additionally audits every operation's
/// own persistence window on its executing thread (persistence counters are
/// per thread) and returns the per-thread audits absorbed into one aggregate
/// [`FenceAudit`]. Single-pool objects only (windows are per pool).
pub fn audit_concurrent_workload<S, H>(
    make_handle: impl Fn(usize) -> H + Sync,
    pool: &NvmPool,
    threads: usize,
    ops_per_thread: usize,
    mix: WorkloadMix,
    seed: u64,
    next_op: impl Fn(&mut Workload) -> WorkloadOp<S::UpdateOp, S::ReadOp> + Sync,
) -> FenceAudit
where
    S: SequentialSpec,
    H: DurableObject<S>,
{
    let make_handle = &make_handle;
    let next_op = &next_op;
    let audits: Vec<FenceAudit> = std::thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut handle = make_handle(t);
                    let mut workload = Workload::new(mix, thread_seed(seed, t as u64));
                    let ops: Vec<_> = (0..ops_per_thread)
                        .map(|_| next_op(&mut workload))
                        .collect();
                    audit_fence_bounds::<S, _>(&mut handle, pool.stats(), ops)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|w| w.join().expect("audit thread panicked"))
            .collect()
    });
    let mut merged = FenceAudit::default();
    for audit in &audits {
        merged.absorb(audit);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ServiceClientAdapter;
    use durable_objects::CounterSpec;
    use nvm_sim::PmemConfig;
    use onll::{Durable, DurableService, OnllConfig};

    fn counter_service(pool: &NvmPool, threads: usize) -> DurableService<CounterSpec> {
        Durable::<CounterSpec>::create(
            pool.clone(),
            OnllConfig::named("conc")
                .max_processes(threads + 1)
                .log_capacity(1 << 13)
                .group_persist(threads),
        )
        .unwrap()
        .service(threads)
        .unwrap()
    }

    #[test]
    fn driver_counts_every_operation_and_carries_the_seed() {
        let pool = NvmPool::new(PmemConfig::with_capacity(128 << 20));
        let service = counter_service(&pool, 3);
        let report = run_concurrent_workload::<CounterSpec, _>(
            |_| ServiceClientAdapter::new(service.client().expect("client slot")),
            std::slice::from_ref(&pool),
            3,
            100,
            WorkloadMix::with_update_percent(50),
            41,
            SubmitMode::Combined,
            Workload::next_counter_op,
        );
        assert_eq!(report.seed, 41);
        assert_eq!(report.mode, SubmitMode::Combined);
        assert_eq!(report.backend, "sim");
        assert_eq!(report.total_ops, 300);
        assert_eq!(report.updates + report.reads, 300);
        // Combining can only reduce fences below one per update, never add.
        assert!(report.persistent_fences <= report.updates);
        // Full backend totals ride along; telemetry is None when disabled.
        assert_eq!(
            report.fence_totals.persistent_fences,
            report.persistent_fences
        );
        assert!(report.fence_totals.stores > 0);
        assert!(report.telemetry.is_none());
        service.durable().check_invariants().unwrap();
    }

    #[test]
    fn concurrent_audit_respects_the_amortized_bounds() {
        let threads = 4;
        let pool = NvmPool::new(PmemConfig::with_capacity(128 << 20));
        let service = counter_service(&pool, threads);
        let audit = audit_concurrent_workload::<CounterSpec, _>(
            |_| ServiceClientAdapter::new(service.client().expect("client slot")),
            &pool,
            threads,
            150,
            WorkloadMix::with_update_percent(80),
            7,
            Workload::next_counter_op,
        );
        assert_eq!(audit.updates + audit.reads, (threads * 150) as u64);
        // Upper bound: every op's own window holds ≤1 inherent fence, reads 0.
        // Lower bound: one fence covers at most `threads` ops.
        assert!(
            audit.satisfies_amortized_bounds(threads as u64),
            "{audit:?}"
        );
        // And the totals agree with the service's own batch accounting.
        let (batches, ops) = service.batch_stats();
        assert_eq!(ops, audit.updates);
        assert_eq!(batches, audit.update_fences);
    }

    #[test]
    fn per_op_bound_holds_when_clients_exceed_the_batch_cap() {
        // 6 live clients but batches of at most 2 (group_persist(2)): the
        // batch cap keeps excluding some submitters from full passes, and a
        // submitter that becomes combiner must still drain its OWN op in the
        // pass it pays for — otherwise its submit window shows several
        // fences, breaking the audited Theorem 5.1 upper bound.
        let threads = 6;
        let pool = NvmPool::new(PmemConfig::with_capacity(128 << 20));
        let service = Durable::<CounterSpec>::create(
            pool.clone(),
            OnllConfig::named("cap")
                .max_processes(threads + 1)
                .log_capacity(1 << 13)
                .group_persist(2),
        )
        .unwrap()
        .service(threads)
        .unwrap();
        let audit = audit_concurrent_workload::<CounterSpec, _>(
            |_| ServiceClientAdapter::new(service.client().expect("client slot")),
            &pool,
            threads,
            100,
            WorkloadMix::update_only(),
            13,
            Workload::next_counter_op,
        );
        assert_eq!(audit.updates, (threads * 100) as u64);
        assert!(audit.satisfies_amortized_bounds(2), "{audit:?}");
        assert_eq!(audit.max_fences_per_update, 1, "{audit:?}");
    }

    #[test]
    fn amortized_bounds_reject_fenceless_runs() {
        let audit = FenceAudit {
            updates: 100,
            update_fences: 3, // 100 updates, batches of at most 8 → ≥13 fences
            ..FenceAudit::default()
        };
        assert!(!audit.satisfies_amortized_bounds(8));
        let audit = FenceAudit {
            updates: 100,
            update_fences: 13,
            ..FenceAudit::default()
        };
        assert!(audit.satisfies_amortized_bounds(8));
    }
}
