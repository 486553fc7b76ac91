//! The ONLL universal construction: shared object state, creation and recovery.
//!
//! [`Durable<S>`] turns a deterministic sequential specification `S` into a
//! lock-free, durably linearizable (indeed detectably executable) object:
//!
//! * [`Durable::create`] formats a fresh object inside an [`NvmPool`]: per-process
//!   persistent logs, per-process checkpoint areas and a metadata block registered
//!   under a named root so recovery can find everything again.
//! * [`Durable::register`] / [`Durable::handle_for`] hand out per-process
//!   [`ProcessHandle`](crate::ProcessHandle)s, which perform the actual `update`
//!   and `read` operations (Listings 3 and 4).
//! * [`Durable::recover`] (and [`Durable::recover_with_checkpoints`] for
//!   checkpointable specs) rebuild the transient execution trace from the
//!   persistent logs after a crash (Listing 5) and report which operations were
//!   linearized before the crash (detectable execution).
//!
//! All three end in one private `open`, which builds the shared state: a fresh
//! object is the recovery of its empty logs from INITIALIZE, and a recovered
//! one starts from the checkpoint it chose, if any. That starting state seeds
//! fresh views until a newer checkpoint publishes.

use crate::checkpoint;
use crate::config::OnllConfig;
use crate::error::OnllError;
use crate::hooks::Hooks;
use crate::op_id::{decode_record, record_slot_size, OpId, Record, ResolveOutcome};
use crate::spec::{SequentialSpec, SnapshotSpec};
use exec_trace::{check_fuzzy_invariant, ExecutionTrace};
use nvm_sim::{FenceStats, NvmPool, PAddr, RootId};
use parking_lot::{Mutex, RwLock};
use persist_log::{reconstruct_history_from, LogConfig, PersistentLog};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::Thread;

const META_MAGIC: u64 = 0x4F4E4C_4C4D455441; // "ONLL" "META"

/// Outcome of a recovery: what was found in NVM and reinstated.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Execution index of the checkpoint the recovery started from (0 if none).
    pub checkpoint_index: u64,
    /// Epoch of the checkpoint the recovery started from (0 if none). Epochs are
    /// per checkpoint-area counters; sharded recovery surfaces them per shard so
    /// operators can see how far each shard's compaction had progressed.
    pub checkpoint_epoch: u64,
    /// Execution index of the last operation recovered from the logs (equals
    /// `checkpoint_index` if the logs held nothing newer).
    pub durable_index: u64,
    /// Identities of the operations recovered from the logs, in linearization
    /// order (operations covered by the checkpoint are not listed individually).
    pub recovered_ops: Vec<(u64, OpId)>,
}

impl RecoveryReport {
    /// Number of operations replayed from the logs.
    pub fn replayed_ops(&self) -> usize {
        self.recovered_ops.len()
    }
}

/// Seed for fresh local views and anonymous replays: the newest *published*
/// checkpoint's watermark and a factory decoding its state, or the state the
/// object opened from. Without it, a handle registered after trace-prefix
/// reclamation would start from the base state and silently miss the
/// reclaimed history.
pub(crate) struct SnapshotSeed<S> {
    pub(crate) idx: u64,
    pub(crate) make: Box<dyn Fn() -> S + Send + Sync>,
}

pub(crate) struct Shared<S: SequentialSpec> {
    pub(crate) trace: ExecutionTrace<Option<Record<S::UpdateOp>>>,
    pub(crate) pool: NvmPool,
    pub(crate) config: OnllConfig,
    pub(crate) hooks: Hooks,
    pub(crate) log_cfg: LogConfig,
    pub(crate) log_bases: Vec<PAddr>,
    pub(crate) cp_bases: Vec<PAddr>,
    pub(crate) claimed: Vec<AtomicBool>,
    /// Per-process local-view progress (execution index), used to decide how far
    /// the trace prefix may be reclaimed.
    pub(crate) progress: Vec<AtomicU64>,
    /// Last operation sequence number used per process slot. Kept in the shared
    /// state (not the handle) so operation identities stay unique when a slot is
    /// released and re-claimed, and seeded from the logs on recovery so post-crash
    /// operations never collide with pre-crash ones.
    pub(crate) last_op_seq: Vec<AtomicU64>,
    /// Execution index of the newest *published* checkpoint. Updated by whichever
    /// handle publishes; every log owner truncates its own log prefix below this
    /// watermark opportunistically (single-writer logs — owners never truncate
    /// each other's logs).
    pub(crate) checkpoint_watermark: AtomicU64,
    /// Per-process sequence floors of the newest *published* checkpoint: the
    /// highest operation sequence number per process slot whose effect is
    /// compacted into it. An identity absent from the trace with a sequence
    /// number at or below its slot's floor is [`ResolveOutcome::Truncated`]
    /// (no longer individually answerable), not merely unexecuted. Seeded from
    /// the chosen checkpoint at recovery, advanced (`fetch_max`) at each
    /// publish.
    pub(crate) resolve_floor: Vec<AtomicU64>,
    /// Live-entry count of each process's persistent log, maintained by the log's
    /// owner on append/truncate, so footprint queries need not scan the logs.
    pub(crate) log_live_entries: Vec<AtomicU64>,
    /// The capacity backstop: set by a log's owner that finds its ring full,
    /// or a quarter free or less after an append; cleared by the next
    /// checkpoint.
    pub(crate) checkpoint_due: AtomicBool,
    /// The pid and thread of the handle parked in
    /// `ProcessHandle::park_until_due`, which the owner raising
    /// `checkpoint_due` unparks; cleared when that handle drops.
    pub(crate) maintainer: Mutex<Option<(usize, Thread)>>,
    /// Notified, under `maintainer`, when a checkpoint publishes: the owner
    /// of a full log waits here for the maintainer's checkpoint.
    pub(crate) checkpointed: Condvar,
    /// Seed of fresh views: the state the object opened from (INITIALIZE, or
    /// the checkpoint recovery started from), replaced by each newer published
    /// checkpoint of this incarnation. Reclamation never passes the stored
    /// `idx`, so a seeded view's missing suffix is always still linked.
    pub(crate) snapshot: RwLock<SnapshotSeed<S>>,
    /// Operations found in the logs by the most recent recovery, keyed by
    /// identity with their execution index (for detectable-execution queries).
    /// Pruned below the checkpoint watermark whenever a checkpoint publishes,
    /// so a long-running service does not retain one entry per recovered
    /// operation forever (operations below the watermark are no longer
    /// individually identifiable anyway — the documented checkpoint contract).
    pub(crate) recovered: Mutex<HashMap<OpId, u64>>,
    /// Set when a fuzzy-window persist failed even after
    /// [`crate::handle::PERSIST_RETRIES`] extra attempts. The failed window's
    /// nodes are ordered in the volatile trace but will never be linearized;
    /// letting any *later* commit linearize past them would make them visible
    /// to replay (double-apply on resubmission). Once set, every subsequent
    /// update is rejected *before* ordering anything; reads and `resolve`
    /// still serve the linearized prefix, and a restart recovers cleanly from
    /// the logs (the poisoned window was never durably appended).
    pub(crate) commit_poisoned: AtomicBool,
    /// Pid of the combiner of the open [`crate::DurableService`], or
    /// [`NO_SERVICE`]. While a service is open its combiner is the only
    /// handle whose commits are accepted, so every update is one of its
    /// batches and its published snapshot is never behind an acknowledged
    /// update.
    pub(crate) service_owner: AtomicUsize,
}

/// `Shared::service_owner` when no service is open.
pub(crate) const NO_SERVICE: usize = usize::MAX;

impl<S: SequentialSpec> Shared<S> {
    /// Minimum local-view progress over all currently claimed handles. Returns
    /// `None` if no handle is claimed.
    pub(crate) fn min_progress(&self) -> Option<u64> {
        let mut min = None;
        for (claimed, progress) in self.claimed.iter().zip(self.progress.iter()) {
            if claimed.load(Ordering::Acquire) {
                let p = progress.load(Ordering::Acquire);
                min = Some(min.map_or(p, |m: u64| m.min(p)));
            }
        }
        min
    }

    /// Drops recovered-operation identities at execution indices at or below
    /// `watermark`. Called when a checkpoint publishes: the covered prefix is
    /// compacted out of the logs, and the matching identity entries would
    /// otherwise accumulate for the life of the process.
    pub(crate) fn prune_recovered_below(&self, watermark: u64) {
        self.recovered.lock().retain(|_, idx| *idx > watermark);
    }

    /// Claims the lowest free process slot, returning its identifier. The
    /// caller owns the slot until it stores `false` back into
    /// `claimed[pid]` (after lowering `progress[pid]` to the base floor).
    pub(crate) fn claim_free_slot(&self) -> Option<usize> {
        (0..self.config.max_processes).find(|&pid| self.try_claim(pid))
    }

    /// Claims a slot by CAS. Progress of an unclaimed slot is always at the
    /// conservative `trace.base_idx()` floor (initialized there; lowered again by
    /// the previous owner before it released the claim), so a new owner's
    /// fresh view can never be outrun by trace reclamation between this claim
    /// and the owner publishing its own progress. Only a slot's owner ever
    /// writes its progress.
    pub(crate) fn try_claim(&self, pid: usize) -> bool {
        self.claimed[pid]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Seed for a fresh view or anonymous replay: the newest published snapshot,
    /// or the state the object opened from. Validated against the reclaim
    /// floor and retried, because a concurrent checkpoint may publish a newer
    /// snapshot and reclaim the trace past a just-read older seed.
    pub(crate) fn view_seed(&self) -> (u64, S) {
        loop {
            let (idx, state) = {
                let seed = self.snapshot.read();
                (seed.idx, (seed.make)())
            };
            // Reclamation is clamped at the stored snapshot index, so once the
            // floor is visible the snapshot covering it is too — the retry
            // always converges.
            if self.trace.reclaim_floor() <= idx + 1 {
                return (idx, state);
            }
        }
    }
}

/// A durable, lock-free object produced by the ONLL universal construction.
///
/// Cloning is cheap (the object is an `Arc` internally); all clones refer to the
/// same object. Per-process operation is performed through
/// [`ProcessHandle`](crate::ProcessHandle)s obtained from [`Durable::register`].
pub struct Durable<S: SequentialSpec> {
    pub(crate) shared: Arc<Shared<S>>,
}

impl<S: SequentialSpec> Clone for Durable<S> {
    fn clone(&self) -> Self {
        Durable {
            shared: self.shared.clone(),
        }
    }
}

/// Where an object's logs and checkpoint areas live, as its metadata block
/// records them.
struct Meta {
    log_cfg: LogConfig,
    log_bases: Vec<PAddr>,
    cp_bases: Vec<PAddr>,
}

/// The state an object opens from: INITIALIZE at index 0, or the checkpoint
/// recovery chose, with its epoch and per-process sequence floors.
struct Base<S> {
    seed: SnapshotSeed<S>,
    epoch: u64,
    floors: Vec<u64>,
}

impl<S: SequentialSpec> Base<S> {
    fn initial(max_processes: usize) -> Self {
        Base {
            seed: SnapshotSeed {
                idx: 0,
                make: Box::new(S::initialize),
            },
            epoch: 0,
            floors: vec![0; max_processes],
        }
    }
}

fn meta_root(name: &str) -> RootId {
    RootId::from_name(&format!("onll:{name}:meta"))
}

fn meta_size(max_processes: usize) -> usize {
    32 + 16 * max_processes
}

impl<S: SequentialSpec> Durable<S> {
    /// Formats a fresh object in `pool` under `config.name` and returns it.
    ///
    /// Fails if an object with the same name already exists in the pool (use
    /// [`Durable::recover`] for that) or if the pool is too small.
    pub fn create(pool: NvmPool, config: OnllConfig) -> Result<Self, OnllError> {
        Self::create_with_hooks(pool, config, Hooks::none())
    }

    /// Like [`Durable::create`], with execution hooks installed (used by tests, the
    /// crash harness and the Figure-1 / lower-bound reproductions).
    pub fn create_with_hooks(
        pool: NvmPool,
        mut config: OnllConfig,
        hooks: Hooks,
    ) -> Result<Self, OnllError> {
        let root = meta_root(&config.name);
        if pool.get_root(root).is_some() {
            return Err(OnllError::MetadataMismatch(format!(
                "an object named '{}' already exists in this pool; use recover()",
                config.name
            )));
        }
        // Entries hold the worst-case fuzzy window: every process with a full
        // group in flight (max_processes * max_group_ops operations).
        let log_cfg = LogConfig::for_processes(config.ops_per_entry())
            .op_slot_size(record_slot_size::<S::UpdateOp>())
            .capacity_entries(config.log_capacity_entries);
        let mut log_bases = Vec::with_capacity(config.max_processes);
        let mut cp_bases = Vec::with_capacity(config.max_processes);
        for _ in 0..config.max_processes {
            let log_base = pool.alloc(PersistentLog::region_size(&log_cfg))?;
            // Format the log header now so that recovery finds a consistent header
            // even for processes that never perform an update.
            drop(PersistentLog::create(
                pool.clone(),
                log_cfg.clone(),
                log_base,
            ));
            let cp_base = pool.alloc(checkpoint::area_size(
                config.checkpoint_slot_bytes,
                config.max_processes,
            ))?;
            log_bases.push(log_base);
            cp_bases.push(cp_base);
        }
        // Persist the metadata block and register it under the named root.
        let meta_addr = pool.alloc(meta_size(config.max_processes))?;
        let mut meta = vec![0u8; meta_size(config.max_processes)];
        meta[0..8].copy_from_slice(&META_MAGIC.to_le_bytes());
        meta[8..12].copy_from_slice(&(config.max_processes as u32).to_le_bytes());
        meta[12..16].copy_from_slice(&(config.log_capacity_entries as u32).to_le_bytes());
        meta[16..20].copy_from_slice(&(log_cfg.op_slot_size as u32).to_le_bytes());
        meta[20..24].copy_from_slice(&(config.checkpoint_slot_bytes as u32).to_le_bytes());
        // Log-entry width (operations per entry). Recovery must reconstruct the
        // exact log geometry, which depends on max_group_ops, not just
        // max_processes. Zero (pre-group-persist metadata) means max_processes.
        meta[24..28].copy_from_slice(&(log_cfg.max_ops_per_entry as u32).to_le_bytes());
        for i in 0..config.max_processes {
            let off = 32 + i * 16;
            meta[off..off + 8].copy_from_slice(&log_bases[i].to_le_bytes());
            meta[off + 8..off + 16].copy_from_slice(&cp_bases[i].to_le_bytes());
        }
        pool.persist(meta_addr, &meta)?;
        pool.set_root(root, meta_addr, meta.len() as u64)?;

        // A fresh object is the recovery of its empty logs.
        let meta = Self::read_meta(&pool, &mut config)?;
        let base = Base::initial(config.max_processes);
        Ok(Self::open(pool, config, hooks, meta, base)?.0)
    }

    /// Reads the metadata block of `config.name` and adopts the geometry it
    /// records into `config`.
    fn read_meta(pool: &NvmPool, config: &mut OnllConfig) -> Result<Meta, OnllError> {
        let root = meta_root(&config.name);
        let (meta_addr, meta_len) = pool
            .get_root(root)
            .ok_or_else(|| OnllError::MetadataMissing(config.name.clone()))?;
        let meta = pool.read_vec(meta_addr, meta_len as usize);
        if meta.len() < 32 || u64::from_le_bytes(meta[0..8].try_into().unwrap()) != META_MAGIC {
            return Err(OnllError::MetadataMismatch("bad metadata magic".into()));
        }
        let max_processes = u32::from_le_bytes(meta[8..12].try_into().unwrap()) as usize;
        let log_capacity = u32::from_le_bytes(meta[12..16].try_into().unwrap()) as usize;
        let op_slot_size = u32::from_le_bytes(meta[16..20].try_into().unwrap()) as usize;
        let cp_slot_bytes = u32::from_le_bytes(meta[20..24].try_into().unwrap()) as usize;
        let mut ops_per_entry = u32::from_le_bytes(meta[24..28].try_into().unwrap()) as usize;
        if ops_per_entry == 0 {
            ops_per_entry = max_processes; // metadata written before group persist existed
        }
        if ops_per_entry < max_processes {
            return Err(OnllError::MetadataMismatch(format!(
                "log entries hold {ops_per_entry} operations but {max_processes} processes may help"
            )));
        }
        if op_slot_size != record_slot_size::<S::UpdateOp>() {
            return Err(OnllError::MetadataMismatch(format!(
                "operation slot size mismatch: persisted {} vs expected {} — was the object created with a different spec?",
                op_slot_size,
                record_slot_size::<S::UpdateOp>()
            )));
        }
        if meta.len() < 32 + 16 * max_processes {
            return Err(OnllError::MetadataMismatch(
                "truncated metadata block".into(),
            ));
        }
        let mut log_bases = Vec::with_capacity(max_processes);
        let mut cp_bases = Vec::with_capacity(max_processes);
        for i in 0..max_processes {
            let off = 32 + i * 16;
            log_bases.push(u64::from_le_bytes(meta[off..off + 8].try_into().unwrap()));
            cp_bases.push(u64::from_le_bytes(
                meta[off + 8..off + 16].try_into().unwrap(),
            ));
        }
        config.max_processes = max_processes;
        config.log_capacity_entries = log_capacity;
        config.checkpoint_slot_bytes = cp_slot_bytes;
        config.max_group_ops = (ops_per_entry / max_processes).max(1);
        let log_cfg = LogConfig::for_processes(ops_per_entry)
            .op_slot_size(op_slot_size)
            .capacity_entries(log_capacity);
        Ok(Meta {
            log_cfg,
            log_bases,
            cp_bases,
        })
    }

    /// Recovers an object (Listing 5) that does **not** use checkpoints: the
    /// execution trace is rebuilt from the persistent logs alone.
    ///
    /// Returns the recovered object and a [`RecoveryReport`] describing what was
    /// found (the basis of detectable execution). Fails if a checkpoint exists in
    /// the pool — use [`Durable::recover_with_checkpoints`] in that case.
    pub fn recover(
        pool: NvmPool,
        mut config: OnllConfig,
    ) -> Result<(Self, RecoveryReport), OnllError> {
        let meta = Self::read_meta(&pool, &mut config)?;
        let (cp_slot_bytes, max_processes) = (config.checkpoint_slot_bytes, config.max_processes);
        if checkpoint::read_best(&pool, &meta.cp_bases, cp_slot_bytes, max_processes).is_some() {
            return Err(OnllError::MetadataMismatch(
                "a checkpoint exists; recover_with_checkpoints must be used".into(),
            ));
        }
        let base = Base::initial(max_processes);
        Self::open(pool, config, Hooks::none(), meta, base)
    }

    /// Rebuilds the object above `base` from its persistent logs (Listing 5).
    /// Creation and both recoveries end here, so the shared state is built in
    /// one place.
    fn open(
        pool: NvmPool,
        config: OnllConfig,
        hooks: Hooks,
        meta: Meta,
        base: Base<S>,
    ) -> Result<(Self, RecoveryReport), OnllError> {
        // With telemetry enabled on the pool, phase-span hooks ride along with
        // whatever the caller installed; with it disabled this is the identity.
        let hooks = crate::phase_spans::install(pool.telemetry(), hooks);
        let Meta {
            log_cfg,
            log_bases,
            cp_bases,
        } = meta;
        let max_processes = config.max_processes;
        let base_index = base.seed.idx;

        // Gather every process's valid log entries.
        let mut per_process_entries = Vec::with_capacity(max_processes);
        let mut per_process_live = Vec::with_capacity(max_processes);
        for base in &log_bases {
            let (log, entries) = PersistentLog::open(pool.clone(), log_cfg.clone(), *base);
            per_process_live.push(log.live_len() as u64);
            per_process_entries.push(entries);
        }
        // Reconstruct the durable history above the checkpoint (Listing 5).
        let recovered_raw = reconstruct_history_from(&per_process_entries, base_index + 1);

        let trace: ExecutionTrace<Option<Record<S::UpdateOp>>> =
            ExecutionTrace::with_base(None, base_index);
        let mut recovered_ops = Vec::with_capacity(recovered_raw.len());
        let mut recovered_set = HashMap::with_capacity(recovered_raw.len());
        for raw in &recovered_raw {
            let record: Record<S::UpdateOp> =
                decode_record(&raw.encoded_op).ok_or(OnllError::CorruptOperation {
                    execution_index: raw.execution_index,
                })?;
            recovered_ops.push((raw.execution_index, record.op_id));
            recovered_set.insert(record.op_id, raw.execution_index);
            let node = trace.insert(Some(record));
            debug_assert_eq!(node.idx(), raw.execution_index);
            trace.set_available(node);
        }
        let durable_index = recovered_ops
            .last()
            .map(|(idx, _)| *idx)
            .unwrap_or(base_index);
        // Seed per-slot operation sequence numbers past everything recovered so new
        // invocations never reuse a pre-crash identity. The checkpoint's sequence
        // floors participate too: an identity compacted below the watermark is no
        // longer in any log, and handing it out again would let a fresh operation
        // collide with a checkpoint-covered one (breaking exactly-once resolve).
        debug_assert_eq!(base.floors.len(), max_processes);
        let mut last_op_seq: Vec<u64> = base.floors.clone();
        for (_, op_id) in &recovered_ops {
            if (op_id.pid as usize) < max_processes {
                last_op_seq[op_id.pid as usize] = last_op_seq[op_id.pid as usize].max(op_id.seq);
            }
        }

        let shared = Shared {
            trace,
            pool,
            claimed: (0..max_processes).map(|_| AtomicBool::new(false)).collect(),
            progress: (0..max_processes)
                .map(|_| AtomicU64::new(base_index))
                .collect(),
            last_op_seq: last_op_seq.into_iter().map(AtomicU64::new).collect(),
            checkpoint_watermark: AtomicU64::new(base_index),
            resolve_floor: base.floors.into_iter().map(AtomicU64::new).collect(),
            log_live_entries: per_process_live.into_iter().map(AtomicU64::new).collect(),
            snapshot: RwLock::new(base.seed),
            recovered: Mutex::new(recovered_set),
            commit_poisoned: AtomicBool::new(false),
            service_owner: AtomicUsize::new(NO_SERVICE),
            checkpoint_due: AtomicBool::new(false),
            maintainer: Mutex::new(None),
            checkpointed: Condvar::new(),
            hooks,
            log_cfg,
            log_bases,
            cp_bases,
            config,
        };
        let report = RecoveryReport {
            checkpoint_index: base_index,
            checkpoint_epoch: base.epoch,
            durable_index,
            recovered_ops,
        };
        Ok((
            Durable {
                shared: Arc::new(shared),
            },
            report,
        ))
    }

    /// The object's configuration (possibly adjusted to the persisted metadata
    /// after a recovery).
    pub fn config(&self) -> &OnllConfig {
        &self.shared.config
    }

    /// The pool this object lives in.
    pub fn pool(&self) -> &NvmPool {
        &self.shared.pool
    }

    /// Persistence statistics of the underlying pool.
    pub fn stats(&self) -> &FenceStats {
        self.shared.pool.stats()
    }

    /// Execution index of the youngest *ordered* operation (whether or not it has
    /// been linearized yet).
    pub fn ordered_index(&self) -> u64 {
        self.shared.trace.tail_idx()
    }

    /// Execution index of the youngest *linearized* operation (the latest node with
    /// a set available flag).
    pub fn linearized_index(&self) -> u64 {
        self.shared.trace.latest_available().idx()
    }

    /// Current size of the fuzzy window (operations ordered but not yet covered by
    /// an available flag). Bounded by `max_processes` (Proposition 5.2), extended
    /// to `max_processes * max_group_ops` when group persist is enabled (*every*
    /// process may have a whole group ordered but not yet persisted).
    pub fn fuzzy_window_len(&self) -> usize {
        self.shared.trace.fuzzy_window_len()
    }

    /// Checks Proposition 5.2 (generalized to group persist) over the whole trace.
    /// Returns a human-readable error if violated (which would indicate a bug in
    /// the construction).
    pub fn check_invariants(&self) -> Result<(), String> {
        check_fuzzy_invariant(&self.shared.trace, self.shared.config.ops_per_entry())
            .map_err(|v| format!("fuzzy-window bound violated: {v:?}"))
    }

    /// Detectable execution: true if the update identified by `op_id` has been
    /// linearized — i.e. it appears in the execution trace (either inserted during
    /// this incarnation or recovered from the logs after a crash).
    ///
    /// After a checkpoint-based recovery, operations already covered by the
    /// checkpoint are no longer individually identifiable; this method only answers
    /// for operations at execution indices above the checkpoint.
    pub fn was_linearized(&self, op_id: OpId) -> bool {
        if self.shared.recovered.lock().contains_key(&op_id) {
            return true;
        }
        // Only linearized operations count: walk from the latest available node.
        let latest = self.shared.trace.latest_available();
        self.shared
            .trace
            .iter_from(latest)
            .any(|n| n.op().as_ref().is_some_and(|r| r.op_id == op_id))
    }

    /// Claims the lowest free process slot and returns a handle for it.
    pub fn register(&self) -> Result<crate::ProcessHandle<S>, OnllError> {
        match self.shared.claim_free_slot() {
            Some(pid) => crate::handle::new_handle(self.shared.clone(), pid),
            None => Err(OnllError::NoFreeProcessSlot),
        }
    }

    /// Claims a specific process slot and returns a handle for it.
    pub fn handle_for(&self, pid: usize) -> Result<crate::ProcessHandle<S>, OnllError> {
        if pid >= self.shared.config.max_processes || !self.shared.try_claim(pid) {
            return Err(OnllError::ProcessSlotUnavailable(pid));
        }
        crate::handle::new_handle(self.shared.clone(), pid)
    }

    /// Exactly-once reply retrieval: recomputes the *remembered response* of
    /// the update identified by `op_id` by replaying the linearized history.
    ///
    /// The typed outcome is what a retrying client needs to act safely:
    /// [`ResolveOutcome::Executed`] carries the remembered value,
    /// [`ResolveOutcome::Unknown`] means the operation never linearized (safe
    /// to re-submit under the same identity), and
    /// [`ResolveOutcome::Truncated`] means its sequence number lies at or
    /// below a published checkpoint's per-process floor — the covered prefix
    /// is compacted away, so whether it executed is permanently unanswerable
    /// and re-submitting could double-apply it.
    ///
    /// Replay determinism (the [`crate::SequentialSpec`] contract) guarantees
    /// the recomputed value equals the value originally handed to the invoker
    /// — across crashes too, which is what makes combined-commit replies
    /// (`DurableService`) exactly-once: a client that crashed after its op
    /// persisted but before consuming the reply re-fetches the identical
    /// response here instead of re-submitting.
    ///
    /// Cost: zero persistent fences (a trace replay, like
    /// [`Durable::read_latest`]); work proportional to the suffix above the
    /// newest snapshot.
    pub fn resolve(&self, op_id: OpId) -> ResolveOutcome<S::Value> {
        loop {
            let (seed_idx, mut state) = self.shared.view_seed();
            let latest = self.shared.trace.latest_available();
            let mut found = None;
            for node in self.shared.trace.nodes_between(seed_idx, latest) {
                if let Some(record) = node.op() {
                    let value = state.apply(&record.op);
                    if record.op_id == op_id {
                        found = Some(value);
                        break;
                    }
                }
            }
            // A concurrent checkpoint may have reclaimed part of the suffix
            // mid-walk; retry from the then-newer snapshot (cf. materialize).
            if self.shared.trace.reclaim_floor() <= seed_idx + 1 {
                return match found {
                    Some(value) => ResolveOutcome::Executed(value),
                    // The floor check runs only after the identity was *not*
                    // found: floors are exact (each checkpoint records the
                    // sequence highs its view actually applied), so a live
                    // above-watermark identity is never misreported.
                    None if op_id.seq > 0
                        && self
                            .shared
                            .resolve_floor
                            .get(op_id.pid as usize)
                            .is_some_and(|f| f.load(Ordering::Acquire) >= op_id.seq) =>
                    {
                        ResolveOutcome::Truncated
                    }
                    None => ResolveOutcome::Unknown,
                };
            }
        }
    }

    /// Number of recovered-operation identities currently retained for
    /// detectable-execution queries. Grows with each recovery, shrinks when a
    /// checkpoint publishes (identities at or below the watermark are pruned),
    /// so long-running services stay bounded by the checkpoint interval.
    pub fn recovered_backlog(&self) -> usize {
        self.shared.recovered.lock().len()
    }

    /// Reads the object without a process handle by replaying the suffix above
    /// the newest published snapshot (or the whole trace prefix if none) up to
    /// the latest available node. No NVM access, no persistent fences. Intended
    /// for tests, examples and one-off inspection; a process handle's read is
    /// faster, since its local view replays only the suffix it has not yet
    /// seen.
    pub fn read_latest(&self, op: &S::ReadOp) -> S::Value {
        self.materialize().read(op)
    }

    /// Materializes the full object state at the latest linearized operation by
    /// replaying the trace suffix above the current view seed (the newest
    /// published snapshot, or the recovery/creation base). Used by tests and
    /// the checkpoint-equivalence property suite to compare recovered states
    /// against full replays; process handles' local views are faster for
    /// serving reads.
    pub fn materialize(&self) -> S {
        loop {
            let (seed_idx, mut state) = self.shared.view_seed();
            let latest = self.shared.trace.latest_available();
            for node in self.shared.trace.nodes_between(seed_idx, latest) {
                if let Some(record) = node.op() {
                    state.apply(&record.op);
                }
            }
            // A concurrent checkpoint may have reclaimed part of the suffix
            // mid-walk, silently shortening it (retired nodes stay allocated,
            // so the walk itself is always safe — only completeness must be
            // re-checked). Retry from the then-newer snapshot if so.
            if self.shared.trace.reclaim_floor() <= seed_idx + 1 {
                return state;
            }
        }
    }

    /// Execution index of the newest *published* checkpoint (0 if none). Log
    /// owners may truncate their log prefixes below this watermark at any time.
    pub fn checkpoint_watermark(&self) -> u64 {
        self.shared.checkpoint_watermark.load(Ordering::Acquire)
    }

    /// Upper bound on the bytes of live entries in the largest per-process
    /// persistent log, maintained by log owners without scanning NVM. Counts
    /// live entries at full slot stride; entries are variable-length, so the
    /// exact occupancy (`PersistentLog::live_bytes`) is usually much smaller.
    pub fn max_log_live_bytes(&self) -> u64 {
        let max_entries = self
            .shared
            .log_live_entries
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .max()
            .unwrap_or(0);
        max_entries * self.shared.log_cfg.entry_size() as u64
    }
}

impl<S: SnapshotSpec> Durable<S> {
    /// Recovers an object that may have checkpoints: the newest valid checkpoint
    /// across all processes seeds the state, and only log entries above its
    /// watermark are replayed (Section 8 extension).
    ///
    /// Validity is checksum-based (torn checkpoint writes are detected and
    /// skipped) plus a defensive decode: if the newest checksum-valid slot fails
    /// to decode, recovery falls back to the next-newest valid checkpoint, and
    /// finally to a full log replay when no checkpoint is usable. Falling back is
    /// always safe because logs are only truncated *after* a checkpoint publishes
    /// (the truncate-after-publish safety argument, documented on
    /// [`SnapshotSpec`] and in the `checkpoint` module) — any watermark whose
    /// truncation may have run is durable and, short of NVM corruption beyond
    /// what checksums catch, decodable.
    pub fn recover_with_checkpoints(
        pool: NvmPool,
        mut config: OnllConfig,
    ) -> Result<(Self, RecoveryReport), OnllError> {
        let meta = Self::read_meta(&pool, &mut config)?;
        let (cp_slot_bytes, max_processes) = (config.checkpoint_slot_bytes, config.max_processes);
        // Newest-first fallback chain: first checksum-valid checkpoint whose
        // state also decodes wins; an empty chain means full replay.
        let base = checkpoint::read_all_valid(&pool, &meta.cp_bases, cp_slot_bytes, max_processes)
            .into_iter()
            .find(|slot| S::decode_state(&slot.state).is_some())
            .map_or_else(
                || Base::initial(max_processes),
                |slot| Base {
                    seed: SnapshotSeed {
                        idx: slot.stamp.execution_index,
                        make: Box::new(move || {
                            S::decode_state(&slot.state).expect("validated above")
                        }),
                    },
                    epoch: slot.stamp.epoch,
                    floors: slot.seq_floors,
                },
            );
        Self::open(pool, config, Hooks::none(), meta, base)
    }
}

impl<S: SequentialSpec> std::fmt::Debug for Durable<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durable")
            .field("name", &self.shared.config.name)
            .field("max_processes", &self.shared.config.max_processes)
            .field("ordered_index", &self.ordered_index())
            .field("linearized_index", &self.linearized_index())
            .finish()
    }
}
