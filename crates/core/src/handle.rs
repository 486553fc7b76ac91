//! Per-process handles: `update` (Listing 3), `read` (Listing 4) and the Section-8
//! checkpointing / reclamation extension.

use crate::checkpoint::Checkpointer;
use crate::construction::Shared;
use crate::error::OnllError;
use crate::hooks::Phase;
use crate::local_view::LocalView;
use crate::op_id::{encode_record_into, OpId, Record};
use crate::snapshot::ReadSnapshot;
use crate::spec::{SequentialSpec, SnapshotSpec};
use exec_trace::TraceNode;
use persist_log::{LogError, PersistentLog};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Extra attempts at the fuzzy-window log append when its persistent fence
/// fails (e.g. a transient `EIO` injected by `nvm_sim::FaultPlan`, or a device
/// hiccup on a real file backend), so up to four attempts in all. A failed
/// publish leaves the log's slot and sequence number unconsumed, so each retry
/// overwrites exactly the same entry — retrying is idempotent. If every attempt
/// fails the commit path **poisons itself** and all further updates are
/// rejected; see [`ProcessHandle::persist_fuzzy_window_with_retry`] for why
/// that is required for exactly-once (the ordered-but-unpersisted window must
/// never be linearized past).
pub(crate) const PERSIST_RETRIES: u32 = 3;

/// A per-process handle on a [`crate::Durable`] object.
///
/// Exactly one handle exists per process slot at a time (handles are not `Clone`;
/// dropping a handle releases its slot). The `&mut self` receivers encode the
/// paper's model in which a process has at most one operation in flight.
pub struct ProcessHandle<S: SequentialSpec> {
    shared: Arc<Shared<S>>,
    pid: usize,
    log: PersistentLog,
    /// Section-8 local view: a materialized state that reads and updates
    /// bring up to date by replaying only the missing trace suffix.
    view: LocalView<S>,
    /// Epoch-stamped writer for this process's double-buffered checkpoint area.
    checkpointer: Checkpointer,
    /// Watermark this handle last compacted its own log below (volatile cache of
    /// the shared watermark, so the compaction check is one atomic load).
    truncated_below: u64,
    /// Identity of the most recent update invoked through this handle.
    last_op_id: Option<OpId>,
}

pub(crate) fn new_handle<S: SequentialSpec>(
    shared: Arc<Shared<S>>,
    pid: usize,
) -> Result<ProcessHandle<S>, OnllError> {
    let (log, _existing) = PersistentLog::open(
        shared.pool.clone(),
        shared.log_cfg.clone(),
        shared.log_bases[pid],
    );
    shared.log_live_entries[pid].store(log.live_len() as u64, Ordering::Release);
    // Seed the fresh view from the newest published snapshot, not the base:
    // after trace-prefix reclamation the history below the snapshot is
    // unlinked, and a base-seeded view would silently miss it. The
    // conservative progress floor published by `try_claim` keeps reclamation
    // from advancing past the seed until this store.
    let (seed_idx, seed_state) = shared.view_seed();
    shared.progress[pid].store(seed_idx, Ordering::Release);
    let view = LocalView::new(seed_state, seed_idx);
    let checkpointer = Checkpointer::resume(
        shared.pool.clone(),
        shared.cp_bases[pid],
        shared.config.checkpoint_slot_bytes,
        shared.config.max_processes,
    );
    let truncated_below = shared.checkpoint_watermark.load(Ordering::Acquire).min(
        // A freshly opened log may still hold entries below the watermark (the
        // owner crashed before compacting); start at 0 so the first update
        // compacts them.
        log.first_live_index()
            .map_or(u64::MAX, |i| i.saturating_sub(1)),
    );
    Ok(ProcessHandle {
        shared,
        pid,
        log,
        view,
        checkpointer,
        truncated_below,
        last_op_id: None,
    })
}

impl<S: SequentialSpec> ProcessHandle<S> {
    /// This handle's process identifier (`0 .. max_processes`).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Identity assigned to the most recent update invoked through this handle.
    /// Useful for detectable-execution queries after a crash.
    pub fn last_op_id(&self) -> Option<OpId> {
        self.last_op_id
    }

    /// Identity that will be assigned to the *next* update invoked through this
    /// handle. Test harnesses record it before invoking an operation so that even
    /// operations interrupted by a crash can be matched against the recovery's
    /// detectable-execution report.
    pub fn peek_next_op_id(&self) -> OpId {
        OpId::new(
            self.pid as u32,
            self.shared.last_op_seq[self.pid].load(Ordering::Acquire) + 1,
        )
    }

    /// Execution index this handle's local view reflects (0 / the checkpoint index
    /// if no operation has been observed yet).
    pub fn view_index(&self) -> u64 {
        self.view.idx()
    }

    /// Number of live entries in this process's persistent log.
    pub fn log_len(&self) -> usize {
        self.log.live_len()
    }

    /// Performs an update operation (Listing 3): order, persist, linearize.
    ///
    /// Cost in the paper's model: **exactly one persistent fence** (the log
    /// append's), regardless of how many other processes' operations were helped.
    ///
    /// # Panics
    ///
    /// Panics if the persistent log is full (see [`ProcessHandle::try_update`] for
    /// the non-panicking variant).
    pub fn update(&mut self, op: S::UpdateOp) -> S::Value {
        self.try_update(op).expect("ONLL update failed")
    }

    /// Fallible variant of [`ProcessHandle::update`]: a batch of one through
    /// [`ProcessHandle::commit`].
    pub fn try_update(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        let shared = self.shared.clone();
        let mut value = None;
        self.commit(
            own_records(&shared, self.pid, std::iter::once(op)),
            |_, v| value = Some(v),
        )?;
        Ok(value.expect("a committed batch of one has one reply"))
    }

    /// Persists a *group* of update operations with **one** persistent fence
    /// (fence-amortized group persist, the batching layer under `onll-shard`).
    ///
    /// All operations are ordered consecutively-as-a-unit is *not* guaranteed —
    /// other processes' operations may interleave between them in the
    /// linearization order — but they are persisted together: a single log entry
    /// whose fuzzy window covers the whole group plus any unpersisted
    /// predecessors, followed by a single linearization sweep. Return values are
    /// computed per operation on the state immediately after it, exactly as for
    /// individual updates.
    ///
    /// Durability is all-or-nothing at the group's single fence: a crash before
    /// it may lose the whole group (each operation individually reports as
    /// not-linearized via detectable execution); a crash after it loses nothing.
    ///
    /// Cost: **one persistent fence for the whole group**, i.e. `1/len` fences
    /// per update — the Theorem 5.1 per-update bound of one fence is preserved
    /// (and beaten) as long as `len <= OnllConfig::max_group_ops`.
    pub fn try_update_group(
        &mut self,
        ops: impl IntoIterator<Item = S::UpdateOp>,
    ) -> Result<Vec<S::Value>, OnllError> {
        let ops: Vec<S::UpdateOp> = ops.into_iter().collect();
        let mut values = Vec::with_capacity(ops.len());
        let shared = self.shared.clone();
        self.commit(own_records(&shared, self.pid, ops.into_iter()), |_, v| {
            values.push(v)
        })?;
        Ok(values)
    }

    /// The commit path: orders, persists and linearizes `records` as one unit
    /// — one log entry, **one persistent fence**, one linearization sweep —
    /// and hands `reply` each operation's identity and value, computed on the
    /// state immediately after it, in linearization order.
    ///
    /// Every update flows through here: [`ProcessHandle::try_update`] (a
    /// batch of one), [`ProcessHandle::try_update_group`] (identities from
    /// this handle's slot, drawn lazily by `own_records`) and the combiner of
    /// [`crate::DurableService`] (identities pre-assigned by the submitting
    /// clients, from *their* claimed slots).
    ///
    /// Fails **before ordering anything** (group too large, commit path
    /// poisoned, log full), so a refused batch leaves no trace of itself,
    /// draws no sequence number and does not move `last_op_id`; the caller
    /// can retry. Once the batch is ordered, `last_op_id` names its newest
    /// operation from this handle's own slot, even if the persist then fails:
    /// the operation is in the trace, and detectable execution must be able
    /// to ask about it. A persist that still fails after
    /// [`PERSIST_RETRIES`] poisons the commit path (see
    /// [`ProcessHandle::persist_fuzzy_window_with_retry`]).
    pub(crate) fn commit(
        &mut self,
        records: impl ExactSizeIterator<Item = Record<S::UpdateOp>>,
        mut reply: impl FnMut(OpId, S::Value),
    ) -> Result<(), OnllError> {
        let len = records.len();
        if len == 0 {
            return Ok(());
        }
        let max = self.shared.config.max_group_ops;
        if len > max {
            return Err(OnllError::GroupTooLarge { len, max });
        }
        let pid = self.pid as u32;
        // Work through a local clone of the shared Arc so references into the trace
        // do not pin `self` immutably across the `&mut self` calls below.
        let shared = self.shared.clone();
        let hooks = shared.hooks.clone();
        hooks.fire(Phase::BeforeOrder, pid);

        // Refuse before ordering anything we could not persist: a poisoned
        // commit path (an earlier window failed its fence even after retries),
        // then reclaim ring slots covered by a newly published checkpoint and
        // check the log can take another entry.
        self.check_commit_poisoned()?;
        self.compact_log_below_watermark();
        if self.log.free_slots() == 0 {
            return Err(OnllError::LogFull);
        }

        // --- Order: fix the linearization order by appending to the trace. The
        //     oldest node is kept apart, so a batch of one allocates nothing. ---
        let mut first = None;
        let mut rest = Vec::with_capacity(len - 1);
        for record in records {
            // A handle owns its slot exclusively: an identity with its pid
            // was drawn by it.
            if record.op_id.pid == pid {
                self.last_op_id = Some(record.op_id);
            }
            let node = shared.trace.insert(Some(record));
            if first.is_none() {
                first = Some(node);
            } else {
                rest.push(node);
            }
        }
        let first = first.expect("batch is non-empty");
        let nodes = || std::iter::once(first).chain(rest.iter().copied());
        hooks.fire(Phase::AfterOrder, pid);

        // --- Persist: one log entry covering the fuzzy window (the whole batch
        //     plus unpersisted predecessors). One persistent fence. ---
        self.persist_fuzzy_window_with_retry(rest.last().copied().unwrap_or(first))?;

        // --- Linearize: sweep the available flags oldest to newest, so
        //     linearized prefixes are always contiguous. ---
        hooks.fire(Phase::BeforeLinearize, pid);
        for node in nodes() {
            shared.trace.set_available(node);
        }
        hooks.fire(Phase::AfterLinearize, pid);

        // Return values: one per operation, computed on the state right after
        // it according to the order fixed in the order stage.
        for node in nodes() {
            let op_id = node
                .op()
                .as_ref()
                .expect("ordered nodes carry a record")
                .op_id;
            let value = self
                .view
                .advance_to(&shared.trace, node)
                .expect("the handle's own new operation is always ahead of its view");
            reply(op_id, value);
        }
        self.publish_progress();
        hooks.fire(Phase::BeforeResponse, pid);
        Ok(())
    }

    /// Panicking variant of [`ProcessHandle::try_update_group`].
    pub fn update_group(&mut self, ops: impl IntoIterator<Item = S::UpdateOp>) -> Vec<S::Value> {
        self.try_update_group(ops)
            .expect("ONLL group update failed")
    }

    /// Persists the fuzzy window ending at `newest` — the caller's newly
    /// ordered operation(s) plus consecutively older not-yet-linearized
    /// operations (Listing 2, `getFuzzyOps`) — as **one** log entry with
    /// **one** persistent fence: the persist stage of [`ProcessHandle::commit`].
    ///
    /// This is [`ProcessHandle::persist_fuzzy_window`] with fault absorption: a failed
    /// publish leaves the log's slot and sequence counters unconsumed, so the
    /// append is retried — overwriting exactly the same entry — up to
    /// [`PERSIST_RETRIES`] extra times. Transient backend faults
    /// (injected `EIO`s that recover, a device hiccup) therefore cost latency,
    /// not the operation.
    ///
    /// If *every* attempt fails, the commit path poisons itself before
    /// propagating the error. This is a correctness requirement, not a
    /// convenience: the failed window's nodes are already ordered in the
    /// volatile trace but will never become available, so if any later commit
    /// were allowed to linearize past them, replay would apply them — and a
    /// client that was told "error, never executed" (resolve says `Unknown`)
    /// would resubmit under the same identity, double-applying the operation.
    /// With the poison gate no later commit can succeed, the orphaned window
    /// stays forever unobservable, and a restart recovers cleanly from the
    /// logs (the window was never durably appended), after which resubmission
    /// under the same identity is safe again.
    fn persist_fuzzy_window_with_retry(
        &mut self,
        newest: &TraceNode<Option<Record<S::UpdateOp>>>,
    ) -> Result<(), OnllError> {
        let mut attempts_left = PERSIST_RETRIES;
        loop {
            match self.persist_fuzzy_window(newest) {
                Ok(()) => return Ok(()),
                Err(_) if attempts_left > 0 => attempts_left -= 1,
                Err(e) => {
                    self.shared.commit_poisoned.store(true, Ordering::Release);
                    return Err(e);
                }
            }
        }
    }

    /// Fast-fail gate for the commit paths: errors if an earlier persist
    /// failure poisoned the object (see
    /// [`ProcessHandle::persist_fuzzy_window_with_retry`]).
    fn check_commit_poisoned(&self) -> Result<(), OnllError> {
        if self.shared.commit_poisoned.load(Ordering::Acquire) {
            return Err(OnllError::Nvm(
                "persist path poisoned: an earlier log-append fence failed after retries; \
                 updates on this object are rejected until restart (reads and resolve \
                 still serve the linearized prefix)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// One attempt at the fuzzy-window append. Allocation-free on the steady
    /// path: the trace is walked directly (no collected node list) and each
    /// record is encoded straight into the log's reusable entry buffer, so the
    /// entry's occupied bytes — the only bytes written and flushed — are
    /// assembled without any intermediate `Vec<Vec<u8>>`/`Vec<&[u8]>`.
    fn persist_fuzzy_window(
        &mut self,
        newest: &TraceNode<Option<Record<S::UpdateOp>>>,
    ) -> Result<(), OnllError> {
        let pid = self.pid as u32;
        debug_assert!(!newest.is_available(), "own operation not yet linearized");
        self.shared.hooks.fire(Phase::BeforePersist, pid);
        let mut writer = self.log.begin(newest.idx()).map_err(log_error)?;
        let mut cur = newest;
        loop {
            let record = cur
                .op()
                .as_ref()
                .expect("fuzzy-window nodes always carry an operation record");
            writer
                .push_op_with(|buf| encode_record_into(record, buf))
                .map_err(log_error)?;
            match cur.prev() {
                Some(prev) if !prev.is_available() => cur = prev,
                _ => break,
            }
        }
        debug_assert!(
            writer.num_ops() <= self.shared.config.ops_per_entry(),
            "fuzzy window exceeded the group-extended bound (Proposition 5.2 generalization violated)"
        );
        writer.commit().map_err(log_error)?;
        self.shared.log_live_entries[self.pid].store(self.log.live_len() as u64, Ordering::Release);
        self.shared.hooks.fire(Phase::AfterPersist, pid);
        Ok(())
    }

    /// Performs a read-only operation (Listing 4).
    ///
    /// Cost in the paper's model: **zero persistent fences** — the read touches
    /// neither NVM nor shared mutable memory; it replays the missing trace
    /// suffix into this handle's process-private local view.
    pub fn read(&mut self, op: &S::ReadOp) -> S::Value {
        let pid = self.pid as u32;
        let hooks = self.shared.hooks.clone();
        hooks.fire(Phase::BeforeReadSnapshot, pid);
        self.sync();
        let value = self.view.state().read(op);
        hooks.fire(Phase::BeforeReadResponse, pid);
        value
    }

    fn publish_progress(&self) {
        self.shared.progress[self.pid].store(self.view.idx(), Ordering::Release);
    }

    /// Advances this handle's local view to the latest linearized operation
    /// without performing a read operation, and returns the view's new
    /// execution index — the index a snapshot of the view taken now covers.
    /// Background checkpointers and the snapshot publisher of
    /// [`crate::DurableService`] use this to materialize fresh state.
    pub fn sync(&mut self) -> u64 {
        let node = self.shared.trace.latest_available();
        self.view.advance_to(&self.shared.trace, node);
        self.publish_progress();
        self.view.idx()
    }

    /// Starts journaling the operations this handle's view applies from its
    /// current index on (dropping earlier entries), so
    /// [`ProcessHandle::catch_up`] can bring snapshots taken since up to
    /// date.
    pub(crate) fn start_journal(&mut self) {
        self.view.start_journal();
    }

    /// Brings `snapshot`, an earlier snapshot of this handle's view, up to
    /// the view's index by replaying the view's journal — O(operations in
    /// between), where [`ProcessHandle::snapshot_state`] is O(|state|).
    /// Returns `false`, leaving `snapshot` untouched, when the journal cannot
    /// cover the gap (no journal, or entries dropped).
    pub(crate) fn catch_up(&mut self, snapshot: &mut ReadSnapshot<S>) -> bool {
        if !self.view.catch_up(&mut snapshot.state, snapshot.idx) {
            return false;
        }
        snapshot.idx = self.view.idx();
        true
    }

    /// Materializes an owned copy of the state at the latest linearized
    /// operation plus that operation's execution index — the raw material for
    /// a published [`crate::ReadSnapshot`]: a clone of the freshly synced
    /// view, `O(|state|)`, no trace traversal beyond the newest suffix.
    pub(crate) fn snapshot_state(&mut self) -> (S, u64)
    where
        S: Clone,
    {
        let idx = self.sync();
        (self.view.state().clone(), idx)
    }

    /// Truncates this handle's own log prefix below the newest *published*
    /// checkpoint watermark (single-writer: each owner compacts only its own
    /// log). Called opportunistically before appends so every process's log
    /// shrinks after any process (or a background checkpointer) publishes.
    ///
    /// Cost: zero fences when the watermark has not advanced or nothing is
    /// droppable; one maintenance fence otherwise (bucketed separately from the
    /// per-update inherent fence).
    fn compact_log_below_watermark(&mut self) {
        let watermark = self.shared.checkpoint_watermark.load(Ordering::Acquire);
        if watermark <= self.truncated_below {
            return;
        }
        self.truncated_below = watermark;
        if self.log.first_live_index().is_some_and(|i| i <= watermark) {
            let _maintenance = self.shared.pool.stats().maintenance_scope();
            // Opportunistic maintenance: a failed truncation fence (crash or
            // poisoned backend) leaves the log merely un-compacted, and the
            // same failure will surface on this update's own publish fence.
            let _ = self.log.truncate_below(watermark);
            self.shared.log_live_entries[self.pid]
                .store(self.log.live_len() as u64, Ordering::Release);
        }
    }
}

impl<S: SnapshotSpec> ProcessHandle<S> {
    /// Persists an epoch-stamped checkpoint of this handle's local view (stage,
    /// then publish), advances the shared checkpoint watermark, truncates this
    /// process's persistent log below it, and reclaims the shared trace prefix
    /// that every registered process has already incorporated into its local
    /// view (Section 8 extension).
    ///
    /// Cost: two persistent fences (checkpoint publish + log-truncation start
    /// mark), both counted in the **maintenance** bucket — explicit maintenance
    /// amortized over the checkpoint interval; the per-update bound of Theorem
    /// 5.1 is unaffected. Other processes' logs are compacted by their owners on
    /// their next update (single-writer logs), one more maintenance fence each.
    ///
    /// Returns the execution index (watermark) the checkpoint covers.
    pub fn checkpoint(&mut self) -> Result<u64, OnllError> {
        if !self.shared.config.checkpointing_enabled() {
            return Err(OnllError::CheckpointingDisabled);
        }
        let view = &self.view;
        let idx = view.idx();
        let mut bytes = Vec::new();
        view.state().encode_state(&mut bytes);
        // Per-process sequence floors the checkpoint will carry: the sequence
        // highs this view actually applied, joined with the floors of the
        // newest published checkpoint (whose covered records a late-seeded
        // view never replays). Exact by construction — no in-flight identity
        // is ever folded in, so `resolve` never misreports a live operation
        // as Truncated.
        let mut floors: Vec<u64> = self
            .shared
            .resolve_floor
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect();
        for (pid, high) in view.seq_high().iter().enumerate() {
            if pid < floors.len() {
                floors[pid] = floors[pid].max(*high);
            }
        }
        let pid = self.pid as u32;
        let hooks = self.shared.hooks.clone();
        let _maintenance = self.shared.pool.stats().maintenance_scope();

        // Stage: floors and state bytes into the inactive slot (flushed, not
        // yet valid).
        hooks.fire(Phase::BeforeCheckpointStage, pid);
        self.checkpointer
            .stage(idx, &floors, &bytes)
            .map_err(OnllError::Nvm)?;
        hooks.fire(Phase::AfterCheckpointStage, pid);

        // Publish: one fence makes the checksummed slot durable and valid. A
        // failed fence means the slot header may not be durable — the
        // checkpoint is not published and the watermark must not advance.
        hooks.fire(Phase::BeforeCheckpointPublish, pid);
        self.checkpointer.publish().map_err(OnllError::Nvm)?;
        hooks.fire(Phase::AfterCheckpointPublish, pid);
        self.shared
            .checkpoint_watermark
            .fetch_max(idx, Ordering::AcqRel);
        for (p, floor) in floors.iter().enumerate() {
            self.shared.resolve_floor[p].fetch_max(*floor, Ordering::AcqRel);
        }
        // The compacted prefix is covered by the checkpoint: identities of
        // recovered operations at or below the watermark are no longer
        // individually answerable (documented contract), so drop them instead
        // of retaining one entry per recovered op for the process lifetime.
        self.shared.prune_recovered_below(idx);

        // Truncate-after-publish: all of this process's log entries carry
        // execution indices <= idx (its own updates are already reflected in its
        // local view), so the whole live window is redundant with the published
        // checkpoint. Crash-safe in every interleaving — see the truncation
        // safety argument in the `checkpoint` module.
        hooks.fire(Phase::BeforeLogTruncate, pid);
        let live_before = self.log.live_bytes();
        self.log.truncate_below(idx).map_err(log_error)?;
        self.shared.log_live_entries[self.pid].store(self.log.live_len() as u64, Ordering::Release);
        self.truncated_below = self.truncated_below.max(idx);
        hooks.fire(Phase::AfterLogTruncate, pid);
        let telemetry = self.shared.pool.telemetry();
        if telemetry.is_enabled() {
            telemetry
                .counter("ckpt.truncated_bytes")
                .add(live_before.saturating_sub(self.log.live_bytes()));
            telemetry.counter("ckpt.checkpoints").incr();
        }

        // Publish the snapshot as the seed for views registered (and anonymous
        // replays performed) after reclamation — they must not start from the
        // base state once the prefix below the watermark is unlinked.
        {
            let mut snapshot = self.shared.snapshot.write();
            if snapshot.as_ref().is_none_or(|s| s.idx < idx) {
                let state_bytes = bytes.clone();
                *snapshot = Some(crate::construction::SnapshotSeed {
                    idx,
                    make: Arc::new(move || {
                        S::decode_state(&state_bytes)
                            .expect("a published checkpoint's state always decodes")
                    }),
                });
            }
        }

        // Reclaim the shared trace prefix below both the slowest registered
        // process *and* the stored snapshot (fresh views seed from the latter,
        // so nodes above it must stay linked).
        let snapshot_floor = self
            .shared
            .snapshot
            .read()
            .as_ref()
            .map_or(self.shared.base_index, |s| s.idx);
        if let Some(min) = self.shared.min_progress() {
            let reclaim_to = min.min(snapshot_floor);
            let floor = self.shared.trace.reclaim_floor();
            if reclaim_to > floor && reclaim_to - floor >= self.shared.config.reclaim_batch {
                self.shared.trace.reclaim_prefix(reclaim_to);
            }
        }
        Ok(idx)
    }

    /// True if a configured checkpoint trigger currently fires: the ops-count
    /// trigger (at least `checkpoint_interval` linearized updates past the
    /// newest published watermark, as seen by this handle's view), the
    /// log-bytes trigger (**this handle's own** log at or above
    /// `checkpoint_log_bytes`), or the capacity backstop (this handle's log
    /// three-quarters full in *entries*). The backstop exists because
    /// `PersistentLog::live_bytes` counts true variable-length occupancy — a
    /// byte threshold sized against the worst-case slot stride might otherwise
    /// never fire, letting the ring fill and updates fail with `LogFull`
    /// while checkpointing is enabled and would have compacted it.
    ///
    /// The log-bytes trigger is deliberately per-owner: a checkpoint truncates
    /// only the checkpointing process's log immediately (logs are
    /// single-writer), so measuring another process's log would keep the
    /// trigger armed on state this handle cannot compact — checkpointing once
    /// per update without ever clearing the condition. Own-log measurement is
    /// self-correcting: the checkpoint that fires empties the log that fired
    /// it.
    pub fn should_checkpoint(&self) -> bool {
        let cfg = &self.shared.config;
        let watermark = self.shared.checkpoint_watermark.load(Ordering::Acquire);
        if let Some(interval) = cfg.checkpoint_interval {
            if self.view_index().saturating_sub(watermark) >= interval {
                return true;
            }
        }
        if let Some(limit) = cfg.checkpoint_log_bytes {
            if self.log.live_bytes() >= limit {
                return true;
            }
        }
        // Capacity backstop: never let the ring run full while checkpointing
        // is enabled, whatever the byte threshold was sized against.
        if cfg.checkpointing_enabled() && self.log.free_slots() <= cfg.log_capacity_entries / 4 {
            return true;
        }
        false
    }

    /// Checkpoints if a trigger fires (see [`ProcessHandle::should_checkpoint`]);
    /// returns the covered watermark when a checkpoint was written.
    pub fn maybe_checkpoint(&mut self) -> Result<Option<u64>, OnllError> {
        if self.should_checkpoint() {
            self.checkpoint().map(Some)
        } else {
            Ok(None)
        }
    }

    /// [`ProcessHandle::try_update`] followed by an automatic
    /// [`ProcessHandle::maybe_checkpoint`].
    pub fn update_with_checkpoint(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        let value = self.try_update(op)?;
        self.maybe_checkpoint()?;
        Ok(value)
    }
}

/// Stamps `ops` with identities from process slot `pid`. Lazy: each sequence
/// number is drawn only as [`ProcessHandle::commit`] orders the operation,
/// after its gate has passed, so a refused update or group burns none.
fn own_records<'a, S: SequentialSpec>(
    shared: &'a Shared<S>,
    pid: usize,
    ops: impl ExactSizeIterator<Item = S::UpdateOp> + 'a,
) -> impl ExactSizeIterator<Item = Record<S::UpdateOp>> + 'a {
    ops.map(move |op| {
        let seq = shared.last_op_seq[pid].fetch_add(1, Ordering::AcqRel) + 1;
        Record::new(OpId::new(pid as u32, seq), op)
    })
}

fn log_error(e: LogError) -> OnllError {
    match e {
        LogError::Full => OnllError::LogFull,
        LogError::EntryTooLarge(msg) => OnllError::Nvm(msg),
        // A publish fence that failed (backend poisoned by EIO) or was frozen
        // by a crash mid-update: the operation must not be acknowledged.
        LogError::Backend(e) => OnllError::Nvm(e.to_string()),
    }
}

impl<S: SequentialSpec> Drop for ProcessHandle<S> {
    fn drop(&mut self) {
        // Lower the slot's progress back to the conservative floor *before*
        // releasing the claim: the next claimer's fresh view seeds from the
        // newest snapshot, and trace reclamation must never observe a claimed
        // slot still carrying this handle's (higher) progress while the new
        // owner is still building its view. The release of `claimed`
        // synchronizes with the claimer's acquire CAS, making the reset
        // visible to it.
        self.shared.progress[self.pid].store(self.shared.base_index, Ordering::Release);
        // Release the slot so the process identifier can be claimed again (e.g.
        // after recovery or when worker threads are re-spawned).
        self.shared.claimed[self.pid].store(false, Ordering::Release);
    }
}

impl<S: SequentialSpec> std::fmt::Debug for ProcessHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessHandle")
            .field("pid", &self.pid)
            .field("view_index", &self.view_index())
            .field("log_len", &self.log_len())
            .finish()
    }
}
