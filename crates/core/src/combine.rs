//! The concurrent front-end: a cross-thread *combining commit* layer that
//! amortizes the inherent persistent fence over live clients.
//!
//! The paper proves (Theorem 6.3) that every detectable update must issue at
//! least one persistent fence — per *operation invoked by a process*. The bound
//! says nothing about how many operations one fence may cover, and that is the
//! only lever left at scale: [`DurableService`] lets N concurrent client
//! threads share single fences. Each client publishes its operation into a
//! private publication slot; whichever thread wins the commit lock becomes the
//! **combiner**, drains every pending slot, and commits the whole batch through
//! the ordinary ONLL update path — one execution-trace ordering sweep, **one
//! log entry, one persistent fence** (the zero-copy `EntryWriter` encode path
//! shared with `ProcessHandle::try_update`) — then hands each waiter its return
//! value together with a durable [`OpId`].
//!
//! The per-*operation* cost therefore falls toward `1/N` fences with N live
//! clients, while every individual operation still pays the inherent price the
//! lower bound demands: its response is not delivered until the fence covering
//! it has completed. Amortization changes who executes the fence, not whether
//! an operation waits for one — exactly the trade-off the paper describes for
//! flat combining, reproduced here on top of a lock-free, detectably-executable
//! object rather than a lock-protected state copy.
//!
//! ## Thread-ownership rules
//!
//! * A [`DurableService`] is shared (it is `Clone`, clones refer to the same
//!   service); a [`ServiceClient`] belongs to exactly one thread at a time
//!   (`&mut self` receivers, not `Sync`-shared).
//! * Each client owns one publication slot and one process-slot identity
//!   (claimed from the same `max_processes` space as `ProcessHandle`s, so
//!   [`OpId`]s stay globally unique and recovery re-seeds their sequence
//!   numbers). Create services against configs with
//!   `max_processes >= clients + 1` (the `+ 1` is the combiner's handle).
//! * The combiner is *elected per batch*: whichever submitting thread acquires
//!   the commit lock drains the slots. There is no dedicated combiner thread
//!   to stall behind — but the construction is blocking in the same sense as
//!   flat combining: while a combiner is mid-commit, later submitters wait for
//!   the lock or for their slot to be served.
//!
//! ## Exactly-once replies across crashes
//!
//! A client learns its operation's [`OpId`] *before* publishing it
//! ([`ServiceClient::peek_next_op_id`], or the value returned by
//! [`ServiceClient::submit_async`]). After a crash it can therefore always ask
//! [`DurableService::resolve`] (backed by [`Durable::resolve`]):
//! [`ResolveOutcome::Executed`] means the operation is linearized and the
//! carried value is byte-for-byte the response the original submit returned
//! (replay determinism); [`ResolveOutcome::Unknown`] means it never linearized
//! and may be safely re-submitted; [`ResolveOutcome::Truncated`] means the
//! identity's history was compacted below a checkpoint floor — the operation
//! *did* execute but its response is no longer derivable, so re-submitting it
//! would double-apply. Responses are *remembered* by construction — the
//! durable log determines them — rather than stored twice.

use crate::construction::Durable;
use crate::error::OnllError;
use crate::handle::ProcessHandle;
use crate::op_id::{OpId, Record, ResolveOutcome};
use crate::snapshot::{ReadSnapshot, SnapshotCell};
use crate::spec::{SequentialSpec, SnapshotSpec};
use nvm_sim::{Counter, Histogram};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Slot states of the publication protocol. Transitions:
/// `EMPTY → PENDING` (client, after writing the record),
/// `PENDING → COMBINING` (combiner, after taking the record into its batch),
/// `COMBINING → READY` (combiner, after writing the reply),
/// `READY → EMPTY` (client, after taking the reply).
const EMPTY: u32 = 0;
const PENDING: u32 = 1;
const READY: u32 = 2;
const COMBINING: u32 = 3;

/// Re-scan rounds of the combining window: after its first scan, a combiner
/// yields and re-scans up to this many times while fewer operations than
/// `min(live clients, max_batch)` are pending. Clients released by the
/// previous batch republish within roughly one scheduler round, so a couple
/// of yields lets each fence cover ~all live clients instead of the ~half
/// that would otherwise accumulate during the previous fence (the batch-size
/// oscillation classic flat combining exhibits without a window).
const COMBINE_WINDOW_ROUNDS: usize = 4;

/// Claimable hazard slots beyond the per-client reserved ones: the budget of
/// concurrent [`SnapshotReader`] handles plus transient service-level
/// snapshot reads. Exhaustion degrades gracefully (service-level reads fall
/// back to the locked path; `snapshot_reader` reports
/// [`OnllError::NoFreeProcessSlot`]).
const SNAPSHOT_POOL_SLOTS: usize = 32;

/// A combiner's answer to one submitted operation: the durable identity and
/// the value, or the error that failed the whole batch before ordering it.
type Reply<S> = Result<(OpId, <S as SequentialSpec>::Value), OnllError>;

/// One client's publication slot. The `state` atomic carries the ownership of
/// the two cells: `EMPTY`/`READY` — the claiming client; `PENDING`/`COMBINING`
/// — whoever holds the commit lock. Every cross-thread transition is a
/// `Release` store observed by an `Acquire` load on the other side, so cell
/// contents written before a transition are visible after it.
struct Slot<S: SequentialSpec> {
    claimed: AtomicBool,
    state: AtomicU32,
    op: UnsafeCell<Option<Record<S::UpdateOp>>>,
    reply: UnsafeCell<Option<Reply<S>>>,
}

// SAFETY: the cells are only ever accessed by the party `state` designates
// (see the protocol above); `S::UpdateOp` and `S::Value` are `Send + Sync` by
// the `SequentialSpec` bounds, so moving them across the threads that take
// turns owning the cells is sound.
unsafe impl<S: SequentialSpec> Sync for Slot<S> {}

impl<S: SequentialSpec> Slot<S> {
    fn new() -> Self {
        Slot {
            claimed: AtomicBool::new(false),
            state: AtomicU32::new(EMPTY),
            op: UnsafeCell::new(None),
            reply: UnsafeCell::new(None),
        }
    }
}

/// Monomorphized snapshot builder (a clone of the view) installed by
/// `ensure_snapshots`; see the `snapshot_fn` field.
type SnapshotFn<S> = fn(&mut ProcessHandle<S>) -> ReadSnapshot<S>;

struct ServiceShared<S: SequentialSpec> {
    durable: Durable<S>,
    /// The commit lock *is* the combiner's process handle: winning the lock is
    /// winning the combiner election, and every batch flows through this one
    /// handle's `commit` → `persist_fuzzy_window` path.
    combiner: Mutex<ProcessHandle<S>>,
    slots: Box<[Slot<S>]>,
    /// Largest batch one combining pass may drain: `min(clients,
    /// max_group_ops)` — the log entries are sized for `max_group_ops`
    /// operations from one process, and the combiner is one process.
    max_batch: usize,
    /// Rotating scan origin so saturated low-index slots cannot starve
    /// high-index ones.
    scan_from: AtomicUsize,
    /// Currently claimed client slots — the combining window's fill target.
    live_clients: AtomicUsize,
    batches: AtomicU64,
    combined_ops: AtomicU64,
    /// Operations per committed batch ("combine.batch_size") — the measured
    /// amortization factor as a distribution, not just a ratio.
    batch_hist: Histogram,
    /// Submit→response latency of blocking submits ("combine.submit_ns").
    submit_hist: Histogram,
    /// Exactly-once reply retrievals that found a value ("combine.resolve_hits").
    resolve_hits: Counter,
    /// Retrievals that found nothing ("combine.resolve_misses").
    resolve_misses: Counter,
    /// Retrievals answered `Truncated` — identity compacted below a checkpoint
    /// floor ("combine.resolve_truncated").
    resolve_truncated: Counter,
    /// The published-snapshot cell of the lock-free read path. Dormant (never
    /// published, never cloned into) until `ensure_snapshots` runs.
    snapshots: SnapshotCell<S>,
    /// Snapshot builder, installed by `ensure_snapshots`. A monomorphized fn
    /// pointer so the `S: Clone` bound lives only on the snapshot-enabling
    /// entry points instead of spreading through the whole service API; unset
    /// means the read path is dormant and batches publish nothing. Publishes
    /// use it only when the cell's spare cannot be recycled.
    snapshot_fn: OnceLock<SnapshotFn<S>>,
    /// Reads served lock-free from a published snapshot.
    snapshot_reads: AtomicU64,
    /// Reads served under the commit lock (`read_latest` and fallbacks).
    latest_reads: AtomicU64,
    /// Time to build one snapshot (recycle the spare, or clone the view) and
    /// publish it ("combine.snapshot_publish_ns") — the write-path overhead
    /// the read path buys its lock freedom with.
    publish_hist: Histogram,
    /// Publishes that cloned the whole state instead of recycling the spare
    /// ("combine.snapshot_clones"): the seed, and any publish that found no
    /// spare, a journal gap, or a spare below `rebuild_before`.
    snapshot_clones: Counter,
    /// One past the view index of the last checkpoint taken through
    /// `maybe_checkpoint`. Spares below it are rebuilt by a clone rather than
    /// recycled, so both buffers of the snapshot pair are fresh copies once
    /// per checkpoint interval. A buffer that is only ever recycled grows
    /// scattered (replaced values land wherever the allocator has room), and
    /// reads of it slow down once other work evicts it between batches:
    /// `service_batch8` (whose untimed resolve checks decode a checkpoint per
    /// call) measured get p50 0.131 us with pure recycling against 0.095 us
    /// with this rebuild and 0.0875 us for a fresh clone per batch. Services
    /// that never call `maybe_checkpoint` (the server's shards checkpoint on
    /// threads of their own) never rebuild and always recycle.
    rebuild_before: AtomicU64,
}

impl<S: SequentialSpec> ServiceShared<S> {
    /// One combining pass: drain up to `max_batch` pending slots, commit them
    /// as one batch (one log entry, one persistent fence), post each reply.
    /// Returns the number of operations served. Must be called with the
    /// combiner lock held (enforced by the `&mut ProcessHandle` argument,
    /// which only the lock hands out).
    ///
    /// `own_slot` is the calling client's slot when the caller has an
    /// operation in flight: it is drained **first**, before the rotating scan
    /// and the batch cap apply. This keeps the audited Theorem 5.1 upper
    /// bound intact per submit — a submitter that becomes the combiner pays
    /// exactly the one fence that covers its own operation, never several
    /// passes' worth because the cap kept excluding it (possible whenever
    /// live clients exceed `max_group_ops`).
    fn combine_pass(&self, handle: &mut ProcessHandle<S>, own_slot: Option<usize>) -> usize {
        let n_slots = self.slots.len();
        let start = self.scan_from.fetch_add(1, Ordering::Relaxed) % n_slots;
        let mut batch_slots: Vec<usize> = Vec::with_capacity(self.max_batch);
        let mut records: Vec<Record<S::UpdateOp>> = Vec::with_capacity(self.max_batch);
        let drain = |i: usize,
                     batch_slots: &mut Vec<usize>,
                     records: &mut Vec<Record<S::UpdateOp>>| {
            let slot = &self.slots[i];
            if slot.state.load(Ordering::Acquire) == PENDING {
                // SAFETY: PENDING hands the cells to the commit-lock holder —
                // us. The client wrote the record before its Release store of
                // PENDING and will not touch the cell again until READY.
                // COMBINING marks the slot as already drained so window
                // re-scans cannot take it twice.
                let record = unsafe { (*slot.op.get()).take() }.expect("pending slot holds an op");
                slot.state.store(COMBINING, Ordering::Relaxed);
                batch_slots.push(i);
                records.push(record);
            }
        };
        let scan = |batch_slots: &mut Vec<usize>, records: &mut Vec<Record<S::UpdateOp>>| {
            for k in 0..n_slots {
                if records.len() == self.max_batch {
                    break;
                }
                drain((start + k) % n_slots, batch_slots, records);
            }
        };
        if let Some(own) = own_slot {
            drain(own, &mut batch_slots, &mut records);
        }
        scan(&mut batch_slots, &mut records);
        // Combining window: wait a bounded beat (yielding, so publishers get
        // the CPU even on a single-core host) for the other live clients to
        // publish, so the fence about to be paid covers as many operations as
        // the client population allows — see COMBINE_WINDOW_ROUNDS. Two
        // consecutive rounds without a new arrival end the window early: the
        // missing clients are busy elsewhere (reading, or submitting to
        // another shard's service) and waiting for them grows nothing, while
        // a single empty round may just mean a publisher was mid-preemption.
        let target = self
            .live_clients
            .load(Ordering::Relaxed)
            .min(self.max_batch);
        let mut patience = COMBINE_WINDOW_ROUNDS;
        let mut dry_rounds = 0;
        while records.len() < target && patience > 0 && dry_rounds < 2 {
            patience -= 1;
            let before = records.len();
            std::thread::yield_now();
            scan(&mut batch_slots, &mut records);
            dry_rounds = if records.len() == before {
                dry_rounds + 1
            } else {
                0
            };
        }
        if records.is_empty() {
            return 0;
        }
        let served = records.len();
        let mut replies = Vec::with_capacity(served);
        match handle.commit(records.into_iter(), |op_id, value| {
            replies.push((op_id, value))
        }) {
            Ok(()) => {
                debug_assert_eq!(replies.len(), batch_slots.len());
                // Publish-after-linearize, publish-before-ack: the batch is
                // linearized, and no waiter has seen its reply yet. A client
                // whose `Acquire` of READY observes a reply below therefore
                // also observes this publication (or a later one), so its next
                // snapshot read includes its own acknowledged write — the
                // recency half of the snapshot contract.
                self.publish_snapshot(handle);
                for (&i, reply) in batch_slots.iter().zip(replies) {
                    self.post(i, Ok(reply));
                }
            }
            Err(e) => {
                // The batch failed before linearizing anything; every waiter
                // learns the same error. Pre-order failures (full log, group
                // too large, poisoned commit path) are safe to re-submit.
                // Persist failures were already retried inside `commit`;
                // when they still fail the commit path poisons itself, so a
                // resubmission fails fast instead of double-applying.
                for &i in &batch_slots {
                    self.post(i, Err(e.clone()));
                }
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.combined_ops
            .fetch_add(served as u64, Ordering::Relaxed);
        self.batch_hist.record(served as u64);
        served
    }

    fn post(&self, slot_index: usize, reply: Reply<S>) {
        let slot = &self.slots[slot_index];
        // SAFETY: still COMBINING, cells still ours (the commit-lock holder's).
        unsafe { *slot.reply.get() = Some(reply) };
        slot.state.store(READY, Ordering::Release);
    }

    /// Publishes a fresh snapshot from the combiner handle's view, if the
    /// snapshot read path has been enabled and the view has moved past the
    /// published snapshot. Recycles the cell's spare when the view's journal
    /// covers its gap (O(operations since the spare's index)); clones the
    /// view otherwise. Must be called with the commit lock held (the
    /// `&mut ProcessHandle` only the lock hands out).
    fn publish_snapshot(&self, handle: &mut ProcessHandle<S>) {
        let Some(clone_view) = self.snapshot_fn.get() else {
            return;
        };
        if self.snapshots.current_index() == Some(handle.sync()) {
            return;
        }
        let timer = self.publish_hist.start_timer();
        let rebuild_before = self.rebuild_before.load(Ordering::Relaxed);
        let recycled = self
            .snapshots
            .take_spare()
            .filter(|spare| spare.index() >= rebuild_before)
            .and_then(|mut spare| handle.catch_up(&mut spare).then_some(spare));
        let snapshot = recycled.unwrap_or_else(|| {
            self.snapshot_clones.incr();
            Box::new(clone_view(handle))
        });
        self.snapshots.publish(snapshot);
        timer.stop();
    }

    /// Idempotently enables the lock-free snapshot read path: installs the
    /// snapshot builder and publishes a seed snapshot of the current
    /// linearized state (so the path is immediately live, including right
    /// after recovery). Takes the commit lock once; later batches refresh the
    /// snapshot as part of their commit.
    fn ensure_snapshots(&self)
    where
        S: Clone,
    {
        if self.snapshot_fn.get().is_some() && self.snapshots.is_published() {
            return;
        }
        let mut handle = self.combiner.lock();
        // Re-check under the lock: a racing enabler may have won.
        if self.snapshot_fn.get().is_none() || !self.snapshots.is_published() {
            // Journal from the seed on, so later publishes can recycle.
            handle.start_journal();
            let _ = self.snapshot_fn.set(make_snapshot::<S>);
            self.publish_snapshot(&mut handle);
        }
    }

    /// The locked (linearizable) read path, shared by every `read_latest`.
    fn read_locked(&self, op: &S::ReadOp) -> S::Value {
        self.latest_reads.fetch_add(1, Ordering::Relaxed);
        self.combiner.lock().read(op)
    }
}

/// The monomorphized snapshot builder `ensure_snapshots` installs: clones the
/// combiner view's state at the newest linearized operation — the seed
/// publish and the fallback when no spare can be recycled.
fn make_snapshot<S: SequentialSpec + Clone>(handle: &mut ProcessHandle<S>) -> ReadSnapshot<S> {
    let (state, idx) = handle.snapshot_state();
    ReadSnapshot::new(state, idx)
}

/// A concurrent session layer over one [`Durable`] object: N client threads
/// [`ServiceClient::submit`] update operations, and per batch one of them
/// (the commit-lock winner) persists all pending operations with a **single
/// persistent fence** — see the [module documentation](self) for the protocol
/// and the amortized-cost argument.
///
/// Cloning is cheap; clones refer to the same service.
pub struct DurableService<S: SequentialSpec> {
    inner: Arc<ServiceShared<S>>,
}

impl<S: SequentialSpec> Clone for DurableService<S> {
    fn clone(&self) -> Self {
        DurableService {
            inner: self.inner.clone(),
        }
    }
}

impl<S: SequentialSpec> Durable<S> {
    /// Opens a combining-commit service over this object for up to `clients`
    /// concurrent client threads. Claims one process slot for the combiner
    /// handle; each [`DurableService::client`] claims one more for its
    /// identity, so the object needs `max_processes >= clients + 1` (plus any
    /// plain handles registered besides the service).
    pub fn service(&self, clients: usize) -> Result<DurableService<S>, OnllError> {
        assert!(clients >= 1, "a service needs at least one client slot");
        let combiner = self.register()?;
        let max_batch = self.config().max_group_ops.min(clients);
        let telemetry = self.shared.pool.telemetry();
        Ok(DurableService {
            inner: Arc::new(ServiceShared {
                durable: self.clone(),
                combiner: Mutex::new(combiner),
                slots: (0..clients).map(|_| Slot::new()).collect(),
                max_batch,
                scan_from: AtomicUsize::new(0),
                live_clients: AtomicUsize::new(0),
                batches: AtomicU64::new(0),
                combined_ops: AtomicU64::new(0),
                batch_hist: telemetry.histogram("combine.batch_size"),
                submit_hist: telemetry.histogram("combine.submit_ns"),
                resolve_hits: telemetry.counter("combine.resolve_hits"),
                resolve_misses: telemetry.counter("combine.resolve_misses"),
                resolve_truncated: telemetry.counter("combine.resolve_truncated"),
                snapshots: SnapshotCell::new(clients, SNAPSHOT_POOL_SLOTS),
                snapshot_fn: OnceLock::new(),
                snapshot_reads: AtomicU64::new(0),
                latest_reads: AtomicU64::new(0),
                publish_hist: telemetry.histogram("combine.snapshot_publish_ns"),
                snapshot_clones: telemetry.counter("combine.snapshot_clones"),
                rebuild_before: AtomicU64::new(0),
            }),
        })
    }
}

impl<S: SequentialSpec> DurableService<S> {
    /// The underlying durable object (shared, not consumed).
    pub fn durable(&self) -> &Durable<S> {
        &self.inner.durable
    }

    /// Claims a free client slot (publication slot + process-slot identity)
    /// and returns the per-thread client. Fails with
    /// [`OnllError::NoFreeProcessSlot`] when either space is exhausted.
    pub fn client(&self) -> Result<ServiceClient<S>, OnllError> {
        let shared = &self.inner.durable.shared;
        let slot = (0..self.inner.slots.len())
            .find(|&i| {
                self.inner.slots[i]
                    .claimed
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
            .ok_or(OnllError::NoFreeProcessSlot)?;
        let Some(pid) = shared.claim_free_slot() else {
            self.inner.slots[slot]
                .claimed
                .store(false, Ordering::Release);
            return Err(OnllError::NoFreeProcessSlot);
        };
        // A client never materializes a view, so it must not pin trace
        // reclamation at the base floor for its whole lifetime: publish
        // "infinitely far" progress instead. Drop lowers it back to the
        // conservative floor before releasing the identity slot.
        shared.progress[pid].store(u64::MAX, Ordering::Release);
        self.inner.live_clients.fetch_add(1, Ordering::Relaxed);
        Ok(ServiceClient {
            service: self.inner.clone(),
            slot,
            pid,
            last_op_id: None,
        })
    }

    /// Claims the client slot at `index` — publication slot `index` and
    /// process-slot identity `index + 1` — instead of the first free pair.
    /// Fails with [`OnllError::ProcessSlotUnavailable`] when either half is
    /// taken or `index` is out of range.
    ///
    /// The deterministic mapping is what a *session layer* needs across
    /// restarts: when the service is opened before any other handle is
    /// registered, the combiner holds pid 0 and client `index` always gets
    /// pid `index + 1`, so an external client that reconnects to "slot 3"
    /// after a server crash resumes the same [`OpId`] identity space its
    /// unacknowledged operations were published under — the precondition for
    /// replaying them through [`DurableService::resolve`] and
    /// [`ServiceClient::submit_with_id`].
    pub fn client_for(&self, index: usize) -> Result<ServiceClient<S>, OnllError> {
        if index >= self.inner.slots.len() {
            return Err(OnllError::ProcessSlotUnavailable(index));
        }
        if self.inner.slots[index]
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(OnllError::ProcessSlotUnavailable(index));
        }
        let shared = &self.inner.durable.shared;
        let pid = index + 1;
        if pid >= shared.config.max_processes || !shared.try_claim(pid) {
            self.inner.slots[index]
                .claimed
                .store(false, Ordering::Release);
            return Err(OnllError::ProcessSlotUnavailable(index));
        }
        // Same progress discipline as `client()`: a client never materializes
        // a view, so it must not pin trace reclamation.
        shared.progress[pid].store(u64::MAX, Ordering::Release);
        self.inner.live_clients.fetch_add(1, Ordering::Relaxed);
        Ok(ServiceClient {
            service: self.inner.clone(),
            slot: index,
            pid,
            last_op_id: None,
        })
    }

    /// Runs one combining pass on the calling thread (acquiring the commit
    /// lock) and returns the number of operations served. Useful for driving
    /// the service without dedicated submitter threads — polling servers,
    /// deterministic tests — and a no-op returning 0 when nothing is pending.
    pub fn combine_now(&self) -> usize {
        let mut handle = self.inner.combiner.lock();
        self.inner.combine_pass(&mut handle, None)
    }

    /// The **linearizable** read path: acquires the commit lock and reads the
    /// newest linearized state through the combiner handle's local view, which
    /// advances incrementally (O(missing suffix), not O(history)). Zero
    /// persistent fences (Theorem 5.1's read cost), but serializes behind
    /// in-flight write batches and behind other locked readers; prefer
    /// [`DurableService::read_snapshot`] for read paths that must not contend
    /// with the commit lock.
    pub fn read_latest(&self, op: &S::ReadOp) -> S::Value {
        self.inner.read_locked(op)
    }

    /// The **lock-free** read path: one `Acquire` load of the published
    /// snapshot and a pure `state.read(op)` — no lock, no persistent fence,
    /// no NVM access, no trace traversal. Enables the snapshot path on first
    /// use (one locked pass; see [`DurableService::enable_snapshots`]).
    ///
    /// Semantics: **sequentially consistent** reads over a linearized prefix.
    /// The snapshot refreshes on every committed service batch (and on
    /// [`DurableService::maybe_checkpoint`]), and it is published *before*
    /// any of the batch's replies, so a caller that has observed an update's
    /// acknowledgement observes that update here. Updates applied through
    /// plain [`Durable::register`] handles that bypass the service do not
    /// refresh the snapshot until the next service batch; use
    /// [`DurableService::read_latest`] when those must be visible immediately.
    ///
    /// Falls back to the locked path in the rare case every one of the
    /// `SNAPSHOT_POOL_SLOTS` transient hazard slots is busy (long-lived
    /// readers should hold a [`SnapshotReader`] instead, which pins its slot
    /// once).
    pub fn read_snapshot(&self, op: &S::ReadOp) -> S::Value
    where
        S: Clone,
    {
        self.inner.ensure_snapshots();
        let Some(slot) = self.inner.snapshots.claim_pool_slot() else {
            return self.inner.read_locked(op);
        };
        let value = match self.inner.snapshots.load_protected(slot) {
            Some(guard) => {
                self.inner.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                guard.read(op)
            }
            // Unreachable after ensure_snapshots, but degrade rather than panic.
            None => self.inner.read_locked(op),
        };
        self.inner.snapshots.release_pool_slot(slot);
        value
    }

    /// Enables the lock-free snapshot read path without performing a read:
    /// publishes a seed snapshot of the current linearized state (one locked
    /// pass) and arms per-batch republication. Idempotent. Servers call this
    /// at open so recovered state is immediately readable lock-free.
    pub fn enable_snapshots(&self)
    where
        S: Clone,
    {
        self.inner.ensure_snapshots();
    }

    /// Claims a dedicated hazard slot and returns a long-lived lock-free
    /// reader. Enables the snapshot path on first use. Fails with
    /// [`OnllError::NoFreeProcessSlot`] when all `SNAPSHOT_POOL_SLOTS`
    /// claimable slots are held by other readers.
    pub fn snapshot_reader(&self) -> Result<SnapshotReader<S>, OnllError>
    where
        S: Clone,
    {
        self.inner.ensure_snapshots();
        let slot = self
            .inner
            .snapshots
            .claim_pool_slot()
            .ok_or(OnllError::NoFreeProcessSlot)?;
        Ok(SnapshotReader {
            service: self.inner.clone(),
            slot,
        })
    }

    /// Counts of reads served by each path: lock-free snapshot reads vs
    /// commit-lock (`read_latest` and fallback) reads.
    pub fn read_stats(&self) -> ReadStats {
        ReadStats {
            snapshot_reads: self.inner.snapshot_reads.load(Ordering::Relaxed),
            latest_reads: self.inner.latest_reads.load(Ordering::Relaxed),
        }
    }

    /// Exactly-once reply retrieval by identity — see [`Durable::resolve`].
    pub fn resolve(&self, op_id: OpId) -> ResolveOutcome<S::Value> {
        let outcome = self.inner.durable.resolve(op_id);
        match &outcome {
            ResolveOutcome::Executed(_) => self.inner.resolve_hits.incr(),
            ResolveOutcome::Unknown => self.inner.resolve_misses.incr(),
            ResolveOutcome::Truncated => self.inner.resolve_truncated.incr(),
        }
        outcome
    }

    /// Detectable execution by identity — see [`Durable::was_linearized`].
    pub fn was_linearized(&self, op_id: OpId) -> bool {
        self.inner.durable.was_linearized(op_id)
    }

    /// `(batches committed, operations they contained)`. The ratio is the
    /// measured amortization factor: fences per operation is
    /// `batches / operations`.
    pub fn batch_stats(&self) -> (u64, u64) {
        (
            self.inner.batches.load(Ordering::Relaxed),
            self.inner.combined_ops.load(Ordering::Relaxed),
        )
    }

    /// Number of client slots (claimed or not).
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }
}

impl<S: SnapshotSpec> DurableService<S> {
    /// Syncs the combiner's view and checkpoints if a configured trigger fires
    /// (see `ProcessHandle::maybe_checkpoint`). Blocks combining for the
    /// duration; fences land in the maintenance bucket. Long-running services
    /// should call this periodically (or from a background thread) so their
    /// logs — and the recovered-identity backlog — stay bounded.
    pub fn maybe_checkpoint(&self) -> Result<Option<u64>, OnllError> {
        let mut handle = self.inner.combiner.lock();
        handle.sync();
        // The synced view may be ahead of the last batch commit (e.g. plain
        // handles updated the object directly): refresh the snapshot too, so
        // periodic checkpointing doubles as a staleness bound for the
        // lock-free read path. A no-op when the view has not moved.
        self.inner.publish_snapshot(&mut handle);
        let fired = handle.maybe_checkpoint()?;
        if fired.is_some() {
            self.inner
                .rebuild_before
                .store(handle.view_index() + 1, Ordering::Relaxed);
        }
        Ok(fired)
    }
}

impl<S: SequentialSpec> std::fmt::Debug for DurableService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (batches, ops) = self.batch_stats();
        f.debug_struct("DurableService")
            .field("clients", &self.inner.slots.len())
            .field("max_batch", &self.inner.max_batch)
            .field("batches", &batches)
            .field("combined_ops", &ops)
            .finish()
    }
}

/// A per-thread client of a [`DurableService`].
///
/// Owns one publication slot and one process-slot identity; at most one
/// operation is in flight per client (the paper's process model), enforced by
/// the `&mut self` receivers and the slot state machine.
pub struct ServiceClient<S: SequentialSpec> {
    service: Arc<ServiceShared<S>>,
    slot: usize,
    pid: usize,
    last_op_id: Option<OpId>,
}

impl<S: SequentialSpec> ServiceClient<S> {
    /// This client's identity slot (the `pid` component of its [`OpId`]s).
    pub fn client_pid(&self) -> usize {
        self.pid
    }

    /// Identity of the most recent operation submitted through this client.
    pub fn last_op_id(&self) -> Option<OpId> {
        self.last_op_id
    }

    /// Identity the *next* submitted operation will carry. Record it before
    /// submitting and a crash-interrupted submission can still be resolved
    /// after recovery ([`DurableService::resolve`]).
    pub fn peek_next_op_id(&self) -> OpId {
        let shared = &self.service.durable.shared;
        OpId::new(
            self.pid as u32,
            shared.last_op_seq[self.pid].load(Ordering::Acquire) + 1,
        )
    }

    /// Submits an update and blocks until it is durable and linearized:
    /// publishes the operation, then either gets served by a concurrent
    /// combiner or wins the commit lock and combines (its own operation plus
    /// every other pending one — one fence for the whole batch).
    ///
    /// Returns the operation's value and its durable [`OpId`]. On error (e.g.
    /// [`OnllError::LogFull`]) the operation was **not** linearized and may be
    /// re-submitted.
    pub fn submit(&mut self, op: S::UpdateOp) -> Result<(S::Value, OpId), OnllError> {
        let timer = self.service.submit_hist.start_timer();
        self.submit_async(op);
        let reply = self.wait_reply();
        timer.stop();
        reply
    }

    /// Publishes an update without waiting, returning its pre-assigned
    /// [`OpId`]. The operation becomes durable and visible only once a
    /// combiner serves it — a concurrent client's, [`DurableService::combine_now`],
    /// or this client's own [`ServiceClient::wait_reply`].
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight on this client (take its
    /// reply first: one operation in flight per process).
    pub fn submit_async(&mut self, op: S::UpdateOp) -> OpId {
        let slot = &self.service.slots[self.slot];
        assert_eq!(
            slot.state.load(Ordering::Acquire),
            EMPTY,
            "one operation in flight per client: take the previous reply first"
        );
        let shared = &self.service.durable.shared;
        let seq = shared.last_op_seq[self.pid].fetch_add(1, Ordering::AcqRel) + 1;
        let op_id = OpId::new(self.pid as u32, seq);
        self.last_op_id = Some(op_id);
        // SAFETY: the slot is EMPTY and claimed by us — the cells are ours
        // until the Release store of PENDING below hands them to the combiner.
        unsafe { *slot.op.get() = Some(Record::new(op_id, op)) };
        slot.state.store(PENDING, Ordering::Release);
        op_id
    }

    /// Submits an update under a **caller-supplied** identity and blocks until
    /// it is durable and linearized — the replay half of the exactly-once
    /// contract. A session layer that pre-assigned `op_id` to an operation,
    /// lost the acknowledgment (crash, dropped connection), and then observed
    /// [`ResolveOutcome::Unknown`] re-submits the *same* identity here; if the
    /// retry crashes too, the next resolve of `op_id` still answers for
    /// exactly this operation.
    ///
    /// The caller is responsible for resolving **before** re-submitting: this
    /// method publishes unconditionally, so re-submitting an identity that
    /// already executed would double-apply the operation.
    ///
    /// Fails with [`OnllError::InvalidOpId`] if `op_id` does not belong to
    /// this client's identity slot or has a zero sequence number.
    pub fn submit_with_id(
        &mut self,
        op_id: OpId,
        op: S::UpdateOp,
    ) -> Result<(S::Value, OpId), OnllError> {
        let timer = self.service.submit_hist.start_timer();
        self.submit_async_with_id(op_id, op)?;
        let reply = self.wait_reply();
        timer.stop();
        reply
    }

    /// Publishes an update under a caller-supplied identity without waiting —
    /// the async half of [`ServiceClient::submit_with_id`].
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight on this client.
    pub fn submit_async_with_id(&mut self, op_id: OpId, op: S::UpdateOp) -> Result<(), OnllError> {
        if op_id.pid as usize != self.pid || op_id.seq == 0 {
            return Err(OnllError::InvalidOpId {
                pid: op_id.pid,
                seq: op_id.seq,
            });
        }
        let slot = &self.service.slots[self.slot];
        assert_eq!(
            slot.state.load(Ordering::Acquire),
            EMPTY,
            "one operation in flight per client: take the previous reply first"
        );
        // Keep the identity counter monotone past the replayed sequence so
        // `peek_next_op_id`/`submit_async` never hand out an identity the
        // replay already used. `fetch_max` (not a blind store) because a
        // same-incarnation retry legitimately replays a sequence *below* the
        // counter — the first attempt burned it.
        let shared = &self.service.durable.shared;
        shared.last_op_seq[self.pid].fetch_max(op_id.seq, Ordering::AcqRel);
        self.last_op_id = Some(op_id);
        // SAFETY: the slot is EMPTY and claimed by us — the cells are ours
        // until the Release store of PENDING below hands them to the combiner.
        unsafe { *slot.op.get() = Some(Record::new(op_id, op)) };
        slot.state.store(PENDING, Ordering::Release);
        Ok(())
    }

    /// Takes the reply of a served operation, if one is ready. Non-blocking.
    pub fn try_take_reply(&mut self) -> Option<Result<(S::Value, OpId), OnllError>> {
        let slot = &self.service.slots[self.slot];
        if slot.state.load(Ordering::Acquire) != READY {
            return None;
        }
        // SAFETY: READY hands the cells back to us; the combiner wrote the
        // reply before its Release store of READY.
        let reply = unsafe { (*slot.reply.get()).take() }.expect("ready slot holds a reply");
        slot.state.store(EMPTY, Ordering::Release);
        Some(reply.map(|(op_id, value)| (value, op_id)))
    }

    /// Blocks until the in-flight operation's reply is available, combining
    /// on this thread whenever the commit lock is free (combiner election).
    pub fn wait_reply(&mut self) -> Result<(S::Value, OpId), OnllError> {
        loop {
            if let Some(reply) = self.try_take_reply() {
                return reply;
            }
            if let Some(mut handle) = self.service.combiner.try_lock() {
                // Own slot first: the pass this client pays a fence in always
                // covers its own operation, whatever the batch cap excludes.
                self.service.combine_pass(&mut handle, Some(self.slot));
            } else {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
    }

    /// The linearizable read path — see [`DurableService::read_latest`].
    pub fn read_latest(&self, op: &S::ReadOp) -> S::Value {
        self.service.read_locked(op)
    }

    /// The lock-free snapshot read path — see
    /// [`DurableService::read_snapshot`] for the semantics. A client reads
    /// through its own reserved hazard slot, so this never contends with
    /// other readers either (`&mut self` keeps the slot single-threaded; a
    /// client is one thread's handle by construction).
    pub fn read_snapshot(&mut self, op: &S::ReadOp) -> S::Value
    where
        S: Clone,
    {
        self.service.ensure_snapshots();
        match self.service.snapshots.load_protected(self.slot) {
            Some(guard) => {
                self.service.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                guard.read(op)
            }
            // Unreachable after ensure_snapshots, but degrade rather than panic.
            None => self.service.read_locked(op),
        }
    }
}

impl<S: SequentialSpec> Drop for ServiceClient<S> {
    fn drop(&mut self) {
        // Leave the window's fill target first: a combiner must not wait for
        // an operation this client will never publish.
        self.service.live_clients.fetch_sub(1, Ordering::Relaxed);
        // Complete any published-but-unserved operation so it cannot leak
        // into the slot's next owner, then discard an untaken reply.
        loop {
            match self.service.slots[self.slot].state.load(Ordering::Acquire) {
                PENDING => {
                    if let Some(mut handle) = self.service.combiner.try_lock() {
                        self.service.combine_pass(&mut handle, Some(self.slot));
                    } else {
                        std::thread::yield_now();
                    }
                }
                // An in-progress combiner holds the op; its reply is imminent.
                COMBINING => std::thread::yield_now(),
                _ => break,
            }
        }
        let _ = self.try_take_reply();
        self.service.slots[self.slot]
            .claimed
            .store(false, Ordering::Release);
        // Mirror ProcessHandle::drop: lower the identity slot's progress to
        // the conservative floor *before* releasing the claim.
        let shared = &self.service.durable.shared;
        shared.progress[self.pid].store(shared.base_index, Ordering::Release);
        shared.claimed[self.pid].store(false, Ordering::Release);
    }
}

impl<S: SequentialSpec> std::fmt::Debug for ServiceClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("slot", &self.slot)
            .field("pid", &self.pid)
            .field("last_op_id", &self.last_op_id)
            .finish()
    }
}

/// Per-path read counts of a [`DurableService`] — see
/// [`DurableService::read_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Reads served lock-free from a published snapshot.
    pub snapshot_reads: u64,
    /// Reads served under the commit lock (`read_latest` plus fallbacks).
    pub latest_reads: u64,
}

impl ReadStats {
    /// Element-wise sum — aggregating per-shard stats.
    pub fn merge(self, other: ReadStats) -> ReadStats {
        ReadStats {
            snapshot_reads: self.snapshot_reads + other.snapshot_reads,
            latest_reads: self.latest_reads + other.latest_reads,
        }
    }
}

/// A long-lived lock-free reader over a [`DurableService`]'s published
/// snapshots, created by [`DurableService::snapshot_reader`].
///
/// Owns one hazard slot for its lifetime, so each read is exactly one
/// `Acquire` load, one hazard store, one validating load and a pure
/// `state.read(op)` — no slot scan, no lock, no persistent fence, no NVM
/// access. `&mut self` receivers keep the hazard slot single-threaded; clone
/// nothing, create one reader per thread.
pub struct SnapshotReader<S: SequentialSpec> {
    service: Arc<ServiceShared<S>>,
    slot: usize,
}

impl<S: SequentialSpec> SnapshotReader<S> {
    /// Reads from the current published snapshot — sequentially consistent
    /// over a linearized prefix; see [`DurableService::read_snapshot`] for
    /// the exact staleness/recency contract.
    pub fn read(&mut self, op: &S::ReadOp) -> S::Value {
        match self.service.snapshots.load_protected(self.slot) {
            Some(guard) => {
                self.service.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                guard.read(op)
            }
            // The cell was published before this reader existed; degrade
            // rather than panic if that invariant is ever violated.
            None => self.service.read_locked(op),
        }
    }

    /// Execution index of the newest operation the current snapshot covers —
    /// a monotone observation of the service's linearized-prefix progress.
    pub fn snapshot_index(&mut self) -> u64 {
        self.service
            .snapshots
            .load_protected(self.slot)
            .map(|guard| guard.index())
            .unwrap_or(0)
    }
}

impl<S: SequentialSpec> Drop for SnapshotReader<S> {
    fn drop(&mut self) {
        self.service.snapshots.release_pool_slot(self.slot);
    }
}

impl<S: SequentialSpec> std::fmt::Debug for SnapshotReader<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("slot", &self.slot)
            .finish()
    }
}

#[cfg(test)]
mod recycling_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OnllConfig;
    use nvm_sim::{NvmPool, PmemConfig, Telemetry};

    #[derive(Debug, Clone, PartialEq)]
    struct Counter(i64);

    #[derive(Debug, Clone, PartialEq)]
    struct Add(i64);

    impl crate::spec::OpCodec for Add {
        const MAX_ENCODED_SIZE: usize = 8;
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Add(i64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    impl SequentialSpec for Counter {
        type UpdateOp = Add;
        type ReadOp = ();
        type Value = i64;
        fn initialize() -> Self {
            Counter(0)
        }
        fn apply(&mut self, op: &Add) -> i64 {
            self.0 += op.0;
            self.0
        }
        fn read(&self, _: &()) -> i64 {
            self.0
        }
    }

    fn counter_service(clients: usize, group: usize) -> (NvmPool, DurableService<Counter>) {
        counter_service_with(clients, group, Telemetry::disabled())
    }

    fn counter_service_with(
        clients: usize,
        group: usize,
        telemetry: Telemetry,
    ) -> (NvmPool, DurableService<Counter>) {
        let pool = NvmPool::new(
            PmemConfig::with_capacity(64 << 20)
                .apply_pending_at_crash(0.0)
                .telemetry(telemetry),
        );
        let obj = Durable::<Counter>::create(
            pool.clone(),
            OnllConfig::named("svc")
                .max_processes(clients + 1)
                .log_capacity(1 << 12)
                .group_persist(group),
        )
        .unwrap();
        let service = obj.service(clients).unwrap();
        (pool, service)
    }

    #[test]
    fn single_client_submit_is_one_fence_and_resolvable() {
        let (pool, service) = counter_service(1, 4);
        let mut client = service.client().unwrap();
        let predicted = client.peek_next_op_id();
        let w = pool.stats().op_window();
        let (value, op_id) = client.submit(Add(5)).unwrap();
        assert_eq!(w.close().persistent_fences, 1);
        assert_eq!(value, 5);
        assert_eq!(op_id, predicted);
        assert_eq!(client.last_op_id(), Some(op_id));
        assert_eq!(service.resolve(op_id), ResolveOutcome::Executed(5));
        assert!(service.was_linearized(op_id));
        assert_eq!(service.read_latest(&()), 5);
    }

    #[test]
    fn async_submit_is_served_by_combine_now() {
        let (pool, service) = counter_service(2, 4);
        let mut a = service.client().unwrap();
        let mut b = service.client().unwrap();
        let id_a = a.submit_async(Add(1));
        let id_b = b.submit_async(Add(2));
        // Both pending operations land in ONE entry: one fence for the batch.
        let w = pool.stats().op_window();
        assert_eq!(service.combine_now(), 2);
        assert_eq!(w.close().persistent_fences, 1);
        let (va, ra) = a.try_take_reply().unwrap().unwrap();
        let (vb, rb) = b.try_take_reply().unwrap().unwrap();
        assert_eq!(ra, id_a);
        assert_eq!(rb, id_b);
        // Values are computed in linearization order: whichever op linearized
        // second observed the full sum.
        assert!(
            (va, vb) == (1, 3) || (va, vb) == (3, 2),
            "unexpected values ({va}, {vb})"
        );
        assert_eq!(service.read_latest(&()), 3);
        assert_eq!(service.batch_stats(), (1, 2));
        assert_eq!(service.resolve(id_a), ResolveOutcome::Executed(va));
        assert_eq!(service.resolve(id_b), ResolveOutcome::Executed(vb));
    }

    #[test]
    fn concurrent_clients_amortize_fences() {
        let threads = 4;
        let per_thread = 200;
        let (pool, service) = counter_service(threads, threads);
        let fences_before = pool.stats().persistent_fences();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let service = service.clone();
                scope.spawn(move || {
                    let mut client = service.client().unwrap();
                    for _ in 0..per_thread {
                        client.submit(Add(1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(service.read_latest(&()), (threads * per_thread) as i64);
        let (batches, ops) = service.batch_stats();
        assert_eq!(ops, (threads * per_thread) as u64);
        // Every batch pays exactly one fence, and batches never exceed ops.
        assert_eq!(
            pool.stats().persistent_fences() - fences_before,
            batches,
            "one persistent fence per combined batch"
        );
        assert!(batches <= ops);
        service.durable().check_invariants().unwrap();
    }

    #[test]
    fn per_client_identities_are_sequential_and_distinct() {
        let (_pool, service) = counter_service(2, 2);
        let mut a = service.client().unwrap();
        let mut b = service.client().unwrap();
        let (_, a1) = a.submit(Add(1)).unwrap();
        let (_, b1) = b.submit(Add(1)).unwrap();
        let (_, a2) = a.submit(Add(1)).unwrap();
        assert_ne!(a1.pid, b1.pid);
        assert_eq!(a2.pid, a1.pid);
        assert_eq!(a2.seq, a1.seq + 1);
    }

    #[test]
    fn client_slots_are_bounded_and_reusable() {
        let (_pool, service) = counter_service(1, 1);
        let c = service.client().unwrap();
        assert!(matches!(
            service.client(),
            Err(OnllError::NoFreeProcessSlot)
        ));
        drop(c);
        let mut c = service.client().unwrap();
        assert_eq!(c.submit(Add(2)).unwrap().0, 2);
    }

    #[test]
    fn dropping_a_client_with_a_pending_op_completes_it() {
        let (_pool, service) = counter_service(1, 1);
        let mut c = service.client().unwrap();
        let op_id = c.submit_async(Add(7));
        drop(c); // must not leak the pending op into the next owner
        assert_eq!(service.read_latest(&()), 7);
        assert_eq!(service.resolve(op_id), ResolveOutcome::Executed(7));
        let mut c = service.client().unwrap();
        assert_eq!(c.submit(Add(1)).unwrap().0, 8);
    }

    #[test]
    fn client_for_claims_deterministic_identity_and_replays() {
        let (_pool, service) = counter_service(3, 4);
        let mut c2 = service.client_for(2).unwrap();
        // Service opened first → combiner holds pid 0 → slot 2 is pid 3.
        assert_eq!(c2.client_pid(), 3);
        assert!(matches!(
            service.client_for(2),
            Err(OnllError::ProcessSlotUnavailable(2))
        ));
        assert!(matches!(
            service.client_for(9),
            Err(OnllError::ProcessSlotUnavailable(9))
        ));
        let id = c2.peek_next_op_id();
        // Foreign or zero-sequence identities are rejected before publishing.
        assert!(matches!(
            c2.submit_with_id(OpId::new(0, 1), Add(1)),
            Err(OnllError::InvalidOpId { .. })
        ));
        assert!(matches!(
            c2.submit_with_id(OpId::new(id.pid, 0), Add(1)),
            Err(OnllError::InvalidOpId { .. })
        ));
        // The replay protocol: resolve first, re-submit only on Unknown.
        assert_eq!(service.resolve(id), ResolveOutcome::Unknown);
        let (v, rid) = c2.submit_with_id(id, Add(5)).unwrap();
        assert_eq!((v, rid), (5, id));
        assert_eq!(service.resolve(id), ResolveOutcome::Executed(5));
        // The identity counter advanced past the replayed sequence.
        assert_eq!(c2.peek_next_op_id().seq, id.seq + 1);
        // Dropping the client releases both halves of the pair for re-claim.
        drop(c2);
        service.client_for(2).unwrap();
    }

    #[test]
    fn errors_are_reported_and_clients_can_retry() {
        // Tiny log with no checkpointing: filling it must surface LogFull
        // through submit, not wedge the combiner.
        let pool = NvmPool::new(PmemConfig::with_capacity(64 << 20));
        let obj = Durable::<Counter>::create(
            pool,
            OnllConfig::named("svc-full")
                .max_processes(2)
                .log_capacity(2)
                .group_persist(1),
        )
        .unwrap();
        let service = obj.service(1).unwrap();
        let mut client = service.client().unwrap();
        client.submit(Add(1)).unwrap();
        client.submit(Add(1)).unwrap();
        assert!(matches!(client.submit(Add(1)), Err(OnllError::LogFull)));
        // The failed operation was never linearized.
        assert_eq!(service.read_latest(&()), 2);
    }

    #[test]
    fn snapshot_read_is_fence_free_and_sees_own_acked_write() {
        let (pool, service) = counter_service(2, 4);
        let mut client = service.client().unwrap();
        // Recency: after the submit acked, the same session's snapshot read
        // must observe the write (publish-after-linearize, before the ack).
        client.submit(Add(5)).unwrap();
        let w = pool.stats().op_window();
        assert_eq!(client.read_snapshot(&()), 5);
        assert_eq!(service.read_snapshot(&()), 5);
        let cost = w.close();
        assert_eq!(cost.persistent_fences, 0, "snapshot reads issue no fence");
        assert_eq!(cost.flushes, 0, "snapshot reads flush nothing");
        client.submit(Add(2)).unwrap();
        assert_eq!(client.read_snapshot(&()), 7);
        let stats = service.read_stats();
        assert_eq!(stats.snapshot_reads, 3);
        assert_eq!(stats.latest_reads, 0);
        assert_eq!(service.read_latest(&()), 7);
        assert_eq!(service.read_stats().latest_reads, 1);
    }

    #[test]
    fn enable_snapshots_seeds_from_current_state_before_any_batch() {
        let (_pool, service) = counter_service(1, 1);
        let mut client = service.client().unwrap();
        client.submit(Add(3)).unwrap();
        // Enabled *after* writes: the seed snapshot is the synced view, so
        // pre-enable state (think recovered state at server open) is visible
        // without waiting for the next batch.
        service.enable_snapshots();
        assert_eq!(service.read_snapshot(&()), 3);
    }

    #[test]
    fn snapshot_readers_run_while_the_commit_lock_is_held() {
        let (_pool, service) = counter_service(1, 1);
        let mut client = service.client().unwrap();
        client.submit(Add(9)).unwrap();
        let mut reader = service.snapshot_reader().unwrap();
        let idx_before = reader.snapshot_index();
        // Hold the commit lock (as an in-flight combiner would) and show the
        // snapshot reader is unaffected — this deadlocks if reads lock.
        let guard = service.inner.combiner.lock();
        assert_eq!(reader.read(&()), 9);
        drop(guard);
        client.submit(Add(1)).unwrap();
        assert_eq!(reader.read(&()), 10);
        assert!(reader.snapshot_index() > idx_before, "index is monotone");
    }

    #[test]
    fn snapshot_reader_slots_are_bounded_and_released_on_drop() {
        let (_pool, service) = counter_service(1, 1);
        let mut readers: Vec<_> = (0..SNAPSHOT_POOL_SLOTS)
            .map(|_| service.snapshot_reader().unwrap())
            .collect();
        assert!(matches!(
            service.snapshot_reader(),
            Err(OnllError::NoFreeProcessSlot)
        ));
        // Pool exhaustion degrades service-level snapshot reads to the locked
        // path instead of failing them.
        assert_eq!(service.read_snapshot(&()), 0);
        assert_eq!(service.read_stats().latest_reads, 1);
        readers.pop();
        service.snapshot_reader().unwrap();
        for reader in &mut readers {
            assert_eq!(reader.read(&()), 0);
        }
    }

    #[test]
    fn concurrent_snapshot_reads_are_monotone_under_writes() {
        let readers = 4;
        let (_pool, service) = counter_service(2, 4);
        service.enable_snapshots();
        std::thread::scope(|scope| {
            for _ in 0..readers {
                let mut reader = service.snapshot_reader().unwrap();
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        let v = reader.read(&());
                        assert!(v >= last, "snapshot read regressed: {v} < {last}");
                        last = v;
                    }
                });
            }
            let writer = service.clone();
            scope.spawn(move || {
                let mut client = writer.client().unwrap();
                for _ in 0..500 {
                    client.submit(Add(1)).unwrap();
                }
            });
        });
        assert_eq!(service.read_snapshot(&()), 500);
        service.durable().check_invariants().unwrap();
    }

    #[test]
    fn pinned_spare_forces_a_counted_clone() {
        let telemetry = Telemetry::enabled();
        let clones = || {
            telemetry
                .snapshot()
                .counter("combine.snapshot_clones")
                .map_or(0, |c| c.value)
        };
        let (_pool, service) = counter_service_with(1, 1, telemetry.clone());
        let mut client = service.client().unwrap();
        service.enable_snapshots();
        assert_eq!(clones(), 1, "the seed publish clones");
        client.submit(Add(1)).unwrap();
        assert_eq!(clones(), 2, "no spare until the seed is retired");
        for _ in 0..8 {
            client.submit(Add(1)).unwrap();
        }
        assert_eq!(clones(), 2, "steady state recycles the spare");
        // Pin the current snapshot: the next publish retires it pinned, so
        // the one after that finds no spare and clones.
        let cell = &service.inner.snapshots;
        let slot = cell.claim_pool_slot().unwrap();
        let pinned = cell.load_protected(slot).unwrap();
        let (idx, value) = (pinned.index(), pinned.read(&()));
        client.submit(Add(1)).unwrap();
        assert_eq!(clones(), 2, "the previous spare was free");
        client.submit(Add(1)).unwrap();
        assert_eq!(clones(), 3, "the would-be spare is pinned: clone");
        for _ in 0..4 {
            client.submit(Add(1)).unwrap();
        }
        assert_eq!((pinned.index(), pinned.read(&())), (idx, value));
        drop(pinned);
        cell.release_pool_slot(slot);
        client.submit(Add(1)).unwrap();
        assert_eq!(clones(), 3);
        assert_eq!(service.read_snapshot(&()), 16);
    }

    #[test]
    fn snapshot_indices_stay_monotone_and_consistent_under_commits() {
        // Every op adds 1 from a fresh object, so a snapshot's value equals
        // its index: a recycled buffer mutated under a reader would break it.
        let (_pool, service) = counter_service(2, 2);
        service.enable_snapshots();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let service = &service;
                scope.spawn(move || {
                    let cell = &service.inner.snapshots;
                    let slot = cell.claim_pool_slot().unwrap();
                    let mut last = 0;
                    for _ in 0..5_000 {
                        let guard = cell.load_protected(slot).unwrap();
                        let idx = guard.index();
                        assert!(idx >= last, "snapshot index regressed: {idx} < {last}");
                        assert_eq!(guard.read(&()), idx as i64, "state disagrees with index");
                        last = idx;
                    }
                    cell.release_pool_slot(slot);
                });
            }
            scope.spawn(|| {
                let mut client = service.client().unwrap();
                for _ in 0..2_000 {
                    client.submit(Add(1)).unwrap();
                }
            });
        });
        assert_eq!(service.read_snapshot(&()), 2_000);
    }

    #[test]
    fn service_updates_interleave_with_plain_handles() {
        let pool = NvmPool::new(PmemConfig::with_capacity(64 << 20));
        let obj = Durable::<Counter>::create(
            pool,
            OnllConfig::named("svc-mixed")
                .max_processes(3)
                .log_capacity(1 << 10),
        )
        .unwrap();
        let service = obj.service(1).unwrap();
        let mut client = service.client().unwrap();
        let mut handle = obj.register().unwrap();
        client.submit(Add(1)).unwrap();
        handle.update(Add(10));
        client.submit(Add(100)).unwrap();
        assert_eq!(obj.read_latest(&()), 111);
        obj.check_invariants().unwrap();
    }
}
