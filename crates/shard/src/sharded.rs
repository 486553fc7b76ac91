//! The sharded durable object: N independent ONLL instances behind one facade.

use crate::config::ShardConfig;
use crate::handle::ShardedHandle;
use crate::recovery::ShardRecoveryReport;
use crate::router::ShardRouter;
use crate::stats::{merged_global_stats, AggregateWindow};
use nvm_sim::{NvmPool, ThreadStatsSnapshot};
use onll::{Durable, Hooks, KeyedSpec, OnllConfig, OnllError, RecoveryReport, SnapshotSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// A keyed sequential specification partitioned across N independent
/// [`Durable`] instances.
///
/// The paper's Theorem 6.3 lower bound is *per object*: one persistent fence
/// per update cannot be avoided. Sharding is the scaling axis that bound
/// leaves open — N independent objects each pay their own (unavoidable) fence,
/// but sustain N times the aggregate update throughput, and every per-shard
/// guarantee (durable linearizability, detectable execution, ≤1 fence per
/// update, 0 per read) carries over to the sharded facade because shards share
/// no state: every update touches exactly one shard, chosen by a
/// [`ShardRouter`] over the spec's routing key ([`KeyedSpec`]).
///
/// Cloning is cheap; all clones refer to the same shards.
pub struct ShardedDurable<S: KeyedSpec> {
    inner: Arc<Inner<S>>,
}

struct Inner<S: KeyedSpec> {
    shards: Vec<Durable<S>>,
    pools: Vec<NvmPool>,
    router: Arc<dyn ShardRouter<S::Key>>,
    config: ShardConfig,
}

impl<S: KeyedSpec> Clone for ShardedDurable<S> {
    fn clone(&self) -> Self {
        ShardedDurable {
            inner: self.inner.clone(),
        }
    }
}

impl<S: KeyedSpec> ShardedDurable<S> {
    /// Formats a fresh sharded object: partitions `config.pmem` into one pool
    /// per shard on `config.backend` and creates an ONLL instance in each.
    pub fn create(
        config: ShardConfig,
        router: Arc<dyn ShardRouter<S::Key>>,
    ) -> Result<Self, OnllError> {
        Self::create_with_hooks(config, router, |_| Hooks::none())
    }

    /// Like [`ShardedDurable::create`], installing per-shard execution hooks
    /// (used by the crash harness to stall or kill individual shards).
    pub fn create_with_hooks(
        config: ShardConfig,
        router: Arc<dyn ShardRouter<S::Key>>,
        hooks_for: impl Fn(usize) -> Hooks,
    ) -> Result<Self, OnllError> {
        Self::check_router(&config, router.as_ref())?;
        let pools = config.provision_pools()?;
        let shards = pools
            .iter()
            .enumerate()
            .map(|(i, pool)| {
                Durable::<S>::create_with_hooks(
                    pool.clone(),
                    config.shard_onll_config(i),
                    hooks_for(i),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedDurable {
            inner: Arc::new(Inner {
                shards,
                pools,
                router,
                config,
            }),
        })
    }

    /// Recovers a sharded object from its pools **in parallel**: one recovery
    /// thread per shard, each rebuilding its shard's execution trace from that
    /// shard's persistent logs, merged into a [`ShardRecoveryReport`].
    ///
    /// `pools` holds one pool per shard, in shard order: the crashed object's
    /// [`ShardedDurable::pools`] within one process, or
    /// [`ShardConfig::open_pools`] in a freshly started one.
    ///
    /// Recovery work is proportional to the surviving history, so parallelism
    /// across shards cuts restart latency by up to the shard count — the
    /// recovery-side payoff of partitioning.
    ///
    /// Fails loudly (no silent replay) if any shard exists but was created with
    /// a different geometry than the others — see
    /// [`ShardedDurable::recover_with_checkpoints`] for the checks. Use that
    /// method instead when checkpointing was (or may have been) enabled.
    pub fn recover(
        pools: Vec<NvmPool>,
        config: ShardConfig,
        router: Arc<dyn ShardRouter<S::Key>>,
    ) -> Result<(Self, ShardRecoveryReport), OnllError> {
        Self::recover_inner(pools, config, router, Durable::<S>::recover)
    }

    fn recover_inner(
        pools: Vec<NvmPool>,
        config: ShardConfig,
        router: Arc<dyn ShardRouter<S::Key>>,
        recover_shard: impl Fn(NvmPool, OnllConfig) -> Result<(Durable<S>, RecoveryReport), OnllError>
            + Send
            + Sync,
    ) -> Result<(Self, ShardRecoveryReport), OnllError> {
        Self::check_router(&config, router.as_ref())?;
        Self::check_pools(&config, &pools)?;
        let recover_shard = &recover_shard;
        let results: Vec<Result<(Durable<S>, RecoveryReport), OnllError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = pools
                    .iter()
                    .enumerate()
                    .map(|(i, pool)| {
                        let cfg = config.shard_onll_config(i);
                        let pool = pool.clone();
                        scope.spawn(move || recover_shard(pool, cfg))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery thread panicked"))
                    .collect()
            });
        let mut shards = Vec::with_capacity(results.len());
        let mut per_shard = Vec::with_capacity(results.len());
        for result in results {
            let (durable, report) = result?;
            shards.push(durable);
            per_shard.push(report);
        }
        let report = ShardRecoveryReport { per_shard };
        Self::check_recovered_geometry(&shards, &report)?;
        Ok((
            ShardedDurable {
                inner: Arc::new(Inner {
                    shards,
                    pools,
                    router,
                    config,
                }),
            },
            report,
        ))
    }

    /// Every shard adopts its *persisted* geometry during recovery (the facade's
    /// template is only a hint). If the pools handed to recovery belong to
    /// objects with differing geometry — wrong pool order, pools from another
    /// object, or shards created under different configs — replaying against
    /// the template would silently mis-shape logs and checkpoint areas. Fail
    /// loudly instead, naming the offending shard and field, and reject any
    /// shard whose logs were truncated above its durable tail (watermark
    /// violation: acknowledged state would be missing).
    fn check_recovered_geometry(
        shards: &[Durable<S>],
        report: &ShardRecoveryReport,
    ) -> Result<(), OnllError> {
        if let Some((shard, checkpoint, durable)) = report.watermark_violation() {
            return Err(OnllError::MetadataMismatch(format!(
                "shard {shard}: durable index {durable} is below its checkpoint watermark {checkpoint} — logs were truncated above the durable tail"
            )));
        }
        let Some(first) = shards.first() else {
            return Ok(());
        };
        let reference = first.config();
        for (i, shard) in shards.iter().enumerate().skip(1) {
            let cfg = shard.config();
            for (field, got, want) in [
                ("max_processes", cfg.max_processes, reference.max_processes),
                (
                    "log_capacity_entries",
                    cfg.log_capacity_entries,
                    reference.log_capacity_entries,
                ),
                ("max_group_ops", cfg.max_group_ops, reference.max_group_ops),
                (
                    "checkpoint_slot_bytes",
                    cfg.checkpoint_slot_bytes,
                    reference.checkpoint_slot_bytes,
                ),
            ] {
                if got != want {
                    return Err(OnllError::MetadataMismatch(format!(
                        "shard {i} was created with {field} = {got} but shard 0 has {want}; refusing to recover a geometry-mismatched shard set"
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_router(
        config: &ShardConfig,
        router: &dyn ShardRouter<S::Key>,
    ) -> Result<(), OnllError> {
        if router.shards() != config.shards {
            return Err(OnllError::MetadataMismatch(format!(
                "router distributes over {} shards but the config declares {}",
                router.shards(),
                config.shards
            )));
        }
        Ok(())
    }

    fn check_pools(config: &ShardConfig, pools: &[NvmPool]) -> Result<(), OnllError> {
        if pools.len() != config.shards {
            return Err(OnllError::MetadataMismatch(format!(
                "{} pools provided for {} shards",
                pools.len(),
                config.shards
            )));
        }
        Ok(())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &S::Key) -> usize {
        let s = self.inner.router.route(key);
        debug_assert!(
            s < self.num_shards(),
            "router returned an out-of-range shard"
        );
        s
    }

    /// The ONLL instance of shard `index`.
    pub fn shard(&self, index: usize) -> &Durable<S> {
        &self.inner.shards[index]
    }

    /// All per-shard pools, in shard order.
    pub fn pools(&self) -> &[NvmPool] {
        &self.inner.pools
    }

    /// The configuration this object was created with.
    pub fn config(&self) -> &ShardConfig {
        &self.inner.config
    }

    /// The router partitioning the key space.
    pub fn router(&self) -> &Arc<dyn ShardRouter<S::Key>> {
        &self.inner.router
    }

    /// Registers a process slot on **every** shard and returns the combined
    /// handle. Fails if any shard has no free slot.
    pub fn register(&self) -> Result<ShardedHandle<S>, OnllError> {
        let handles = self
            .inner
            .shards
            .iter()
            .map(|s| s.register())
            .collect::<Result<Vec<_>, _>>()?;
        // Group size comes from the shards' *actual* ONLL configuration, which
        // after a recovery reflects the persisted log geometry rather than the
        // caller's template (core tolerates a template mismatch by adopting
        // the persisted value — the facade must follow it, or auto-flushes
        // would submit groups the log entries cannot hold).
        let group_size = self.inner.shards[0].config().max_group_ops;
        Ok(ShardedHandle::new(
            handles,
            self.inner.router.clone(),
            group_size,
        ))
    }

    /// Reads without a process handle: keyed reads are routed to their shard's
    /// `read_latest`; global reads combine every shard's answer via
    /// [`KeyedSpec::merge_reads`].
    ///
    /// Global reads are **not atomic across shards**: each shard's answer is
    /// individually linearizable, but the combination corresponds to a
    /// per-shard-consistent cut rather than a single point in global time
    /// (the usual contract of sharded stores).
    pub fn read_latest(&self, op: &S::ReadOp) -> S::Value {
        match S::read_key(op) {
            Some(key) => self.shard(self.shard_of(&key)).read_latest(op),
            None => {
                let answers = self
                    .inner
                    .shards
                    .iter()
                    .map(|s| s.read_latest(op))
                    .collect();
                S::merge_reads(op, answers)
            }
        }
    }

    /// Opens an aggregate per-thread statistics window over all shard pools.
    pub fn aggregate_window(&self) -> AggregateWindow<'_> {
        AggregateWindow::open(&self.inner.pools)
    }

    /// Merged global persistence counters across all shard pools.
    pub fn merged_stats(&self) -> ThreadStatsSnapshot {
        merged_global_stats(&self.inner.pools)
    }

    /// Checks every shard's trace invariants (generalized Proposition 5.2).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.inner.shards.iter().enumerate() {
            shard
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

impl<S: KeyedSpec + SnapshotSpec> ShardedDurable<S> {
    /// Like [`ShardedDurable::recover`], but each shard loads its newest valid
    /// checkpoint (checksum + torn-write detection with fallback to the
    /// previous slot or full replay) and replays only the log tail above the
    /// watermark. Shards checkpoint independently, so per-shard watermarks and
    /// epochs differ; the merged report surfaces them
    /// ([`ShardRecoveryReport::checkpoint_epochs`]) and the same loud
    /// geometry/watermark validation as plain recovery applies.
    pub fn recover_with_checkpoints(
        pools: Vec<NvmPool>,
        config: ShardConfig,
        router: Arc<dyn ShardRouter<S::Key>>,
    ) -> Result<(Self, ShardRecoveryReport), OnllError> {
        Self::recover_inner(
            pools,
            config,
            router,
            Durable::<S>::recover_with_checkpoints,
        )
    }

    /// Spawns the background checkpointer, one thread per shard, so shards
    /// compact independently without blocking updates. It is the one
    /// maintenance loop; `OnllServer` runs it too.
    ///
    /// Each thread claims its shard's highest process slot (size
    /// `max_processes` accordingly: workers + 1), then syncs its local view,
    /// checkpoints if a trigger fires (`ProcessHandle::should_checkpoint`)
    /// and parks. The owner of a log that an append leaves a quarter free or
    /// less wakes it at once (the capacity backstop), and an owner whose log
    /// is full waits for its checkpoint; otherwise it wakes after `poll` to
    /// check the ops-count trigger. That trigger stays on the poll:
    /// waking at exactly every interval would checkpoint more often, and so
    /// cost more checkpoint bytes per update. Checkpoint fences land in the
    /// maintenance bucket, never in the paper's per-update budget. Worker
    /// handles truncate their own logs below the published watermark on their
    /// next update (logs are single-writer).
    ///
    /// The daemon stops (and joins its threads) on [`CheckpointDaemon::stop`]
    /// or drop, after a final pass that checkpoints if the view is past the
    /// watermark.
    pub fn spawn_checkpointer(&self, poll: Duration) -> Result<CheckpointDaemon, OnllError> {
        if !self.inner.config.base.checkpointing_enabled() {
            return Err(OnllError::CheckpointingDisabled);
        }
        // Claim every shard's slot *before* spawning any thread: a failure on
        // a later shard must not leave earlier shards' threads running
        // detached with no daemon handle to stop them. The highest slot leaves
        // the lower ones to workers, which claim them by index or in order.
        let handles = self
            .inner
            .shards
            .iter()
            .map(|shard| {
                shard
                    .handle_for(shard.config().max_processes - 1)
                    .map_err(|_| OnllError::NoFreeProcessSlot)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let stop = Arc::new(AtomicBool::new(false));
        let checkpoints: Arc<Vec<AtomicU64>> =
            Arc::new((0..self.num_shards()).map(|_| AtomicU64::new(0)).collect());
        let errors: Arc<Vec<Mutex<Option<OnllError>>>> =
            Arc::new((0..self.num_shards()).map(|_| Mutex::new(None)).collect());
        // Each thread registers as its shard's maintainer before this
        // returns, so no log can fill unseen while a thread is starting.
        let registered = Arc::new(Barrier::new(handles.len() + 1));
        let mut joins = Vec::with_capacity(self.num_shards());
        for (i, mut handle) in handles.into_iter().enumerate() {
            let shard = self.shard(i).clone();
            let stop = stop.clone();
            let checkpoints = checkpoints.clone();
            let errors = errors.clone();
            let registered = registered.clone();
            joins.push(std::thread::spawn(move || {
                handle.park_until_due(Duration::ZERO);
                registered.wait();
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    let view = handle.sync();
                    if handle.should_checkpoint()
                        || (stopping && view > shard.checkpoint_watermark())
                    {
                        match handle.checkpoint() {
                            Ok(_) => {
                                checkpoints[i].fetch_add(1, Ordering::Relaxed);
                            }
                            // A persistent failure (e.g. state outgrew the slot)
                            // stops compaction but not service: report each new
                            // one, and keep the latest for `last_errors`.
                            Err(e) => {
                                let mut last =
                                    errors[i].lock().expect("no panic holds the error slot");
                                if last.as_ref() != Some(&e) {
                                    eprintln!("shard {i} checkpoint failed: {e}");
                                }
                                *last = Some(e);
                            }
                        }
                    }
                    if stopping {
                        break;
                    }
                    handle.park_until_due(poll);
                }
            }));
        }
        registered.wait();
        Ok(CheckpointDaemon {
            stop,
            checkpoints,
            errors,
            joins,
        })
    }
}

/// Handle on the per-shard background checkpoint threads spawned by
/// [`ShardedDurable::spawn_checkpointer`]. Each thread checkpoints when the
/// ops-count trigger is due at a poll, or at once when its shard's capacity
/// backstop wakes it. Dropping the handle stops and joins the threads;
/// [`CheckpointDaemon::stop`] does the same and additionally returns the
/// number of checkpoints each shard's thread wrote.
pub struct CheckpointDaemon {
    stop: Arc<AtomicBool>,
    checkpoints: Arc<Vec<AtomicU64>>,
    errors: Arc<Vec<Mutex<Option<OnllError>>>>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl CheckpointDaemon {
    /// The most recent checkpoint error per shard (`None` = no failure so
    /// far). A persistently failing shard (e.g. its serialized state outgrew
    /// `checkpoint_slot_bytes`) keeps serving updates but stops compacting;
    /// operators should poll this alongside the checkpoint counts.
    pub fn last_errors(&self) -> Vec<Option<OnllError>> {
        self.errors
            .iter()
            .map(|e| e.lock().unwrap().clone())
            .collect()
    }

    /// Checkpoints written so far, per shard (readable while running).
    pub fn checkpoints_per_shard(&self) -> Vec<u64> {
        self.checkpoints
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops the daemon: each thread syncs once more, checkpoints if its view
    /// is past the watermark, then exits. Returns the per-shard checkpoint
    /// counts.
    pub fn stop(mut self) -> Vec<u64> {
        self.shutdown();
        self.checkpoints_per_shard()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for join in &self.joins {
            join.thread().unpark();
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for CheckpointDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for CheckpointDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointDaemon")
            .field("shards", &self.checkpoints.len())
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl<S: KeyedSpec> std::fmt::Debug for ShardedDurable<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDurable")
            .field("name", &self.inner.config.name)
            .field("shards", &self.num_shards())
            .finish()
    }
}
