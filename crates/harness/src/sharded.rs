//! Sharded workload driving and aggregate fence auditing.
//!
//! The Theorem 5.1 bounds are per *object*; a sharded object must satisfy them
//! in aggregate: every update costs at most one persistent fence across **all**
//! shard pools (exactly one on the owning shard, zero elsewhere), and reads
//! cost zero everywhere. [`audit_sharded_fence_bounds`] asserts this with an
//! [`AggregateWindow`] per operation, and [`run_sharded_kv_workload`] is the
//! multi-threaded throughput driver used by the scaling benchmarks.

use crate::fence_audit::FenceAudit;
use crate::workload::{Workload, WorkloadMix, WorkloadOp};
use durable_objects::KvSpec;
use nvm_sim::{TelemetrySnapshot, ThreadStatsSnapshot};
use onll::KeyedSpec;
use onll_shard::{AggregateWindow, ShardedDurable, ShardedHandle};
use std::time::{Duration, Instant};

/// Executes `ops` against a sharded handle, auditing the calling thread's
/// persistence events per operation across **all** shard pools.
pub fn audit_sharded_fence_bounds<S: KeyedSpec>(
    handle: &mut ShardedHandle<S>,
    pools: &[nvm_sim::NvmPool],
    ops: impl IntoIterator<Item = WorkloadOp<S::UpdateOp, S::ReadOp>>,
) -> FenceAudit {
    let mut audit = FenceAudit::default();
    for op in ops {
        let window = AggregateWindow::open(pools);
        match op {
            WorkloadOp::Update(u) => {
                handle.update(u);
                let d = window.close();
                audit.updates += 1;
                audit.update_fences += d.persistent_fences;
                audit.max_fences_per_update = audit.max_fences_per_update.max(d.persistent_fences);
            }
            WorkloadOp::Read(r) => {
                handle.read(&r);
                let d = window.close();
                audit.reads += 1;
                audit.read_fences += d.persistent_fences;
                audit.max_fences_per_read = audit.max_fences_per_read.max(d.persistent_fences);
                audit.read_flushes += d.flushes;
                audit.read_stores += d.stores;
            }
        }
    }
    audit
}

/// How updates are submitted by the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// One synchronous update per operation (one fence each).
    Individual,
    /// Fence-amortized group persist: buffer updates per shard and flush in
    /// groups of the object's configured `max_group_ops` — one *thread*
    /// batching its own operations.
    Grouped,
    /// Cross-thread combining commit ([`onll::DurableService`] via
    /// `ShardedDurable::service`): concurrent threads submit individual
    /// synchronous operations and per-shard combiners merge all pending ones
    /// into single fences — the amortization comes from concurrency, not from
    /// caller-side buffering, so every submit is durable when it returns.
    Combined,
}

/// Outcome of one multi-threaded workload run.
///
/// Carries everything needed to *reproduce* the run — most importantly the
/// workload seed: a failing randomized run that does not report its seed
/// cannot be re-run, so drivers must thread the seed through to here.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker threads driven.
    pub threads: usize,
    /// The workload seed the run was derived from (per-thread streams are
    /// derived from it deterministically). Re-running the same driver with
    /// this seed reproduces the identical operation streams.
    pub seed: u64,
    /// How updates were submitted.
    pub mode: SubmitMode,
    /// Name of the persistence backend the object's pools ran on.
    pub backend: &'static str,
    /// Total operations executed (updates + reads).
    pub total_ops: u64,
    /// Updates executed.
    pub updates: u64,
    /// Reads executed.
    pub reads: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Persistent fences issued during the run, summed over all shard pools.
    pub persistent_fences: u64,
    /// The full backend `FenceStats` delta of the run (stores, flushes,
    /// fences, write-backs — everything, not just the fence count), merged
    /// over all pools. Randomized-failure reproductions need the complete
    /// totals, and they must be carried uniformly by every driver on both
    /// backends instead of being dropped on the floor.
    pub fence_totals: ThreadStatsSnapshot,
    /// Telemetry rollup of the run's pools, when the pools carry an enabled
    /// sink (`None` otherwise).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl RunReport {
    /// Aggregate operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Persistent fences per update (1.0 for individual submission, ~1/group
    /// for grouped submission).
    pub fn fences_per_update(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.persistent_fences as f64 / self.updates as f64
        }
    }
}

/// Drives `threads` worker threads, each executing `ops_per_thread` seeded
/// key-value operations through its own [`ShardedHandle`], and reports
/// aggregate throughput and fence counts.
///
/// The object's per-shard `max_processes` must be at least `threads`.
pub fn run_sharded_kv_workload(
    object: &ShardedDurable<KvSpec>,
    threads: usize,
    ops_per_thread: usize,
    mix: WorkloadMix,
    seed: u64,
    mode: SubmitMode,
) -> RunReport {
    // Combined mode drives the per-shard combining services instead of plain
    // per-thread handles; the service (and its per-shard combiner process
    // slots) lives for the duration of the run.
    let service =
        (mode == SubmitMode::Combined).then(|| object.service(threads).expect("combining service"));
    let before = onll_shard::merged_global_stats(object.pools());
    let start = Instant::now();
    let service = &service;
    let (updates, reads) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let object = object.clone();
                scope.spawn(move || {
                    let mut handle = None;
                    let mut client = None;
                    match mode {
                        SubmitMode::Combined => {
                            let svc = service.as_ref().expect("service exists in Combined mode");
                            client = Some(svc.client().expect("a free client slot per worker"));
                        }
                        _ => handle = Some(object.register().expect("a free slot per worker")),
                    }
                    let mut workload =
                        Workload::new(mix, seed.wrapping_add(t as u64).wrapping_mul(2654435761));
                    let mut updates = 0u64;
                    let mut reads = 0u64;
                    for op in workload.kv_ops(ops_per_thread) {
                        match op {
                            WorkloadOp::Update(u) => {
                                updates += 1;
                                match mode {
                                    SubmitMode::Individual => {
                                        handle.as_mut().unwrap().update(u);
                                    }
                                    SubmitMode::Grouped => {
                                        handle
                                            .as_mut()
                                            .unwrap()
                                            .buffer_update(u)
                                            .expect("buffered update");
                                    }
                                    SubmitMode::Combined => {
                                        client.as_mut().unwrap().submit(u).expect("submit");
                                    }
                                }
                            }
                            WorkloadOp::Read(r) => {
                                reads += 1;
                                match mode {
                                    SubmitMode::Combined => {
                                        client.as_mut().unwrap().read_snapshot(&r);
                                    }
                                    _ => {
                                        handle.as_mut().unwrap().read(&r);
                                    }
                                }
                            }
                        }
                    }
                    if mode == SubmitMode::Grouped {
                        handle.as_mut().unwrap().flush().expect("final flush");
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
    let after = onll_shard::merged_global_stats(object.pools());
    let delta = after.delta(&before);
    RunReport {
        threads,
        seed,
        mode,
        backend: object.pools().first().map_or("none", |p| p.backend_name()),
        total_ops: updates + reads,
        updates,
        reads,
        elapsed,
        persistent_fences: delta.persistent_fences,
        fence_totals: delta,
        telemetry: onll_shard::merged_telemetry(object.pools()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::PmemConfig;
    use onll::OnllConfig;
    use onll_shard::{HashRouter, ShardConfig};
    use std::sync::Arc;

    fn sharded_kv(shards: usize, processes: usize, group: usize) -> ShardedDurable<KvSpec> {
        let pmem = PmemConfig::with_capacity(256 << 20).apply_pending_at_crash(0.0);
        sharded_kv_on(shards, processes, group, pmem)
    }

    fn sharded_kv_on(
        shards: usize,
        processes: usize,
        group: usize,
        pmem: PmemConfig,
    ) -> ShardedDurable<KvSpec> {
        let config = ShardConfig::named("kv")
            .shards(shards)
            .base(
                OnllConfig::default()
                    .max_processes(processes)
                    .log_capacity(4096)
                    .group_persist(group),
            )
            .pmem(pmem);
        ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(shards)))
            .expect("create sharded kv")
    }

    #[test]
    fn sharded_updates_satisfy_theorem_bounds_in_aggregate() {
        let object = sharded_kv(4, 1, 1);
        let mut handle = object.register().unwrap();
        let mut workload = Workload::new(WorkloadMix::with_update_percent(50), 17);
        let audit =
            audit_sharded_fence_bounds::<KvSpec>(&mut handle, object.pools(), workload.kv_ops(400));
        assert!(audit.satisfies_onll_bounds(), "{audit:?}");
        assert_eq!(audit.max_fences_per_update, 1);
        assert_eq!(audit.fences_per_update(), 1.0);
        assert_eq!(audit.updates + audit.reads, 400);
        object.check_invariants().unwrap();
    }

    #[test]
    fn multi_threaded_driver_counts_every_operation() {
        let object = sharded_kv(2, 3, 1);
        let summary = run_sharded_kv_workload(
            &object,
            3,
            200,
            WorkloadMix::with_update_percent(50),
            7,
            SubmitMode::Individual,
        );
        assert_eq!(summary.threads, 3);
        // The report must reproduce the run: seed, mode and backend are
        // part of the output, not just the input.
        assert_eq!(summary.seed, 7);
        assert_eq!(summary.mode, SubmitMode::Individual);
        assert_eq!(summary.backend, "sim");
        assert_eq!(summary.total_ops, 600);
        assert_eq!(summary.updates + summary.reads, 600);
        // Individual submission: exactly one fence per update.
        assert_eq!(summary.persistent_fences, summary.updates);
        object.check_invariants().unwrap();
    }

    #[test]
    fn report_carries_full_fence_totals_and_telemetry() {
        use nvm_sim::Telemetry;
        let telemetry = Telemetry::enabled();
        let config = ShardConfig::named("kv")
            .shards(2)
            .base(OnllConfig::default().max_processes(2).log_capacity(4096))
            .pmem(
                PmemConfig::with_capacity(64 << 20)
                    .apply_pending_at_crash(0.0)
                    .telemetry(telemetry.clone()),
            );
        let object = ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(2)))
            .expect("create sharded kv");
        let summary = run_sharded_kv_workload(
            &object,
            2,
            100,
            WorkloadMix::with_update_percent(50),
            11,
            SubmitMode::Individual,
        );
        // Satellite fix: the *full* backend totals ride along, not just the
        // fence count.
        assert_eq!(
            summary.fence_totals.persistent_fences,
            summary.persistent_fences
        );
        assert!(summary.fence_totals.stores > 0);
        assert!(summary.fence_totals.flushes > 0);
        // And the telemetry rollup is attached when the sink is enabled.
        let snap = summary.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(
            snap.histogram("phase.update_ns").unwrap().count,
            summary.updates
        );
        // Fence latencies cover at least the run's fences (creation persists
        // its own metadata before the run, so the sink may hold a few more).
        assert!(snap.histogram("sim.fence_ns").unwrap().count >= summary.persistent_fences);
    }

    #[test]
    fn grouped_submission_amortizes_fences() {
        let object = sharded_kv(2, 2, 8);
        let summary = run_sharded_kv_workload(
            &object,
            2,
            400,
            WorkloadMix::update_only(),
            23,
            SubmitMode::Grouped,
        );
        assert_eq!(summary.updates, 800);
        assert!(
            summary.persistent_fences < summary.updates / 2,
            "grouping should amortize fences: {} fences for {} updates",
            summary.persistent_fences,
            summary.updates
        );
        assert!(summary.fences_per_update() < 0.5);
        object.check_invariants().unwrap();
    }

    #[test]
    fn combined_submission_amortizes_fences_across_threads() {
        // 4 worker threads share per-shard combiners: every submit is durable
        // when it returns (unlike Grouped, which buffers caller-side), yet the
        // aggregate fence count falls well below one per update. A 200 us
        // fence makes submits overlap on any scheduler: while one combiner
        // sleeps in its fence, the other threads post their operations, and
        // the next combiner serves them together. With free fences the
        // threads can run one after another and every batch holds one op.
        let threads = 4;
        let pmem = PmemConfig::with_capacity(256 << 20)
            .apply_pending_at_crash(0.0)
            .fence_penalty(Duration::from_micros(200));
        let object = sharded_kv_on(2, threads + 1, threads, pmem);
        let summary = run_sharded_kv_workload(
            &object,
            threads,
            150,
            WorkloadMix::update_only(),
            31,
            SubmitMode::Combined,
        );
        assert_eq!(summary.mode, SubmitMode::Combined);
        assert_eq!(summary.updates, (threads * 150) as u64);
        assert!(
            summary.persistent_fences < summary.updates,
            "combining should amortize fences: {} fences for {} updates",
            summary.persistent_fences,
            summary.updates
        );
        object.check_invariants().unwrap();
    }
}
