//! Lock-free published read snapshots: the zero-fence read path of the
//! combining service.
//!
//! The paper's read cost (Listing 4, Theorem 5.1) is **zero persistent
//! fences** — a read only traverses transient state. The combining front-end
//! ([`crate::DurableService`]) keeps both halves of that bargain — no fence,
//! and no wait behind in-flight write batches or other readers — and its
//! reads stay linearizable (see the consistency contract below):
//!
//! * After each batch linearizes (and before any waiter's reply is posted),
//!   the combiner publishes an immutable [`ReadSnapshot`] — the object state
//!   as of a linearized prefix plus the execution index that prefix covers —
//!   into a [`SnapshotCell`] with a single atomic pointer swap.
//! * Readers take one `Acquire` load, pin the pointer with a hazard slot, and
//!   run a pure `state.read(op)` against the immutable snapshot. No lock, no
//!   persistent fence, no NVM access, no trace traversal.
//!
//! Reclamation is hazard-pointer based (we vendor no `arc-swap`): each reader
//! owns one hazard slot; a publisher retires the previous snapshot into a
//! limbo list, and every limbo entry no hazard slot still protects leaves it:
//! the newest becomes the cell's one *spare*, the rest are freed.
//! Publishers are serialized by the commit lock, so retirement is
//! single-threaded and the limbo list is bounded by the hazard-slot count —
//! but nothing here *relies* on that serialization for memory safety (the
//! limbo list carries its own mutex), only for snapshot monotonicity.
//!
//! ## Publication cost
//!
//! The spare is recycled rather than freed: the next publisher takes it
//! ([`SnapshotCell::take_spare`]), brings it from its own index up to the
//! combiner view's by replaying the operations the view applied in between
//! (the Section 8 local-view idea applied to the published copy), and
//! publishes it. A publish therefore costs O(operations since the spare's
//! index) — about two batches — instead of a clone of the whole state. It
//! falls back to a clone for the very first (seed) publish, when readers still
//! pin every retired snapshot so there is no spare, and when the combiner's
//! journal cannot cover the spare's gap; the service also rebuilds both
//! buffers once after each checkpoint it takes, so they stay compact and
//! warm. Memory: at most one extra resident copy of the state (the spare)
//! per cell, plus what pinned readers hold.
//!
//! ## Consistency contract
//!
//! Service submits and snapshot reads are **linearizable** per object.
//! While a service is open its combiner is the only handle whose commits the
//! object accepts (any other gets `OnllError::ServiceOwnsUpdates`), so every
//! update linearizes inside a combining pass, and the pass publishes the
//! snapshot covering it after the batch linearizes and before it posts any
//! reply. Publication is monotone: the commit lock serializes publishers.
//! Take an update's linearization point to be the publish of the first
//! snapshot that contains it, which falls between its submit and its reply.
//! The published snapshot is then the object's state at every instant, and a
//! read linearizes at its load of the snapshot pointer: it sees every update
//! acknowledged to any session before it began, and nothing that later turns
//! out never to have happened.
//!
//! Two things stay outside that scope:
//!
//! * a broadcast read of a sharded service merges per-shard snapshots loaded
//!   one after another, so it is linearizable per shard but not a cut across
//!   shards;
//! * `Durable::resolve`, `Durable::was_linearized` and `Durable::read_latest`
//!   read the execution trace, which can be ahead of the published snapshot
//!   by the one batch being published.

use crate::spec::SequentialSpec;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// An immutable state snapshot covering a linearized prefix of the execution.
///
/// Produced by the combiner after each committed batch (and once when the
/// service opens, seeding from the recovered state); consumed lock-free by
/// [`crate::SnapshotReader`]s and the `read_snapshot` methods.
pub struct ReadSnapshot<S: SequentialSpec> {
    pub(crate) state: S,
    pub(crate) idx: u64,
}

impl<S: SequentialSpec> ReadSnapshot<S> {
    pub(crate) fn new(state: S, idx: u64) -> Self {
        ReadSnapshot { state, idx }
    }

    /// Evaluates a read-only operation against the snapshot state. Pure:
    /// no lock, no fence, no shared-memory write.
    pub fn read(&self, op: &S::ReadOp) -> S::Value {
        self.state.read(op)
    }

    /// Execution index of the newest operation this snapshot reflects.
    pub fn index(&self) -> u64 {
        self.idx
    }
}

impl<S: SequentialSpec> std::fmt::Debug for ReadSnapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("idx", &self.idx)
            .finish()
    }
}

/// One reader's hazard slot: `claimed` arbitrates slot ownership between
/// readers; `protected` names the snapshot pointer the owner is currently
/// dereferencing (null when idle).
struct HazardSlot<S: SequentialSpec> {
    claimed: AtomicBool,
    protected: AtomicPtr<ReadSnapshot<S>>,
}

impl<S: SequentialSpec> HazardSlot<S> {
    fn new() -> Self {
        HazardSlot {
            claimed: AtomicBool::new(false),
            protected: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// The publish cell: an `ArcSwap`-style single-pointer snapshot holder,
/// hand-rolled on `AtomicPtr` + hazard slots (no external dependency).
///
/// Slots `0..reserved` are owned one-to-one by service clients (slot index =
/// publication-slot index); slots `reserved..` form a claimable pool for
/// [`crate::SnapshotReader`] handles and ad-hoc service-level reads.
pub(crate) struct SnapshotCell<S: SequentialSpec> {
    current: AtomicPtr<ReadSnapshot<S>>,
    hazards: Box<[HazardSlot<S>]>,
    /// First pool (claimable) slot; lower slots are statically reserved.
    pool_start: usize,
    /// Execution index of the `current` snapshot. Written and read by
    /// publishers only, which the commit lock serializes.
    current_idx: AtomicU64,
    retired: Mutex<Retired<S>>,
}

/// Snapshots swapped out of `current`, owned by the publishers.
struct Retired<S: SequentialSpec> {
    /// Retired-but-possibly-still-read snapshots, reclaimed on the next
    /// publish once no hazard slot protects them. Bounded by the hazard-slot
    /// count.
    limbo: Vec<*mut ReadSnapshot<S>>,
    /// The newest reclaimed snapshot, which no reader can reach any more:
    /// kept (at most one) for the next publisher to recycle.
    spare: Option<Box<ReadSnapshot<S>>>,
}

// SAFETY: the raw pointers in `current`/`hazards`/`limbo` all point at
// heap-allocated `ReadSnapshot<S>` values; `S` (and thus the snapshot) is
// `Send + Sync` by the `SequentialSpec` supertraits, and every cross-thread
// hand-off goes through the atomics with the orderings argued in
// `load_protected`/`publish`.
unsafe impl<S: SequentialSpec> Send for SnapshotCell<S> {}
unsafe impl<S: SequentialSpec> Sync for SnapshotCell<S> {}

impl<S: SequentialSpec> SnapshotCell<S> {
    /// A cell serving `seed`, with `reserved` statically owned hazard slots
    /// (one per service client) plus `pool` claimable slots for snapshot
    /// readers.
    pub(crate) fn new(reserved: usize, pool: usize, seed: Box<ReadSnapshot<S>>) -> Self {
        SnapshotCell {
            current_idx: AtomicU64::new(seed.idx),
            current: AtomicPtr::new(Box::into_raw(seed)),
            hazards: (0..reserved + pool).map(|_| HazardSlot::new()).collect(),
            pool_start: reserved,
            retired: Mutex::new(Retired {
                limbo: Vec::new(),
                spare: None,
            }),
        }
    }

    /// Execution index of the current snapshot. For publishers (serialized
    /// by the commit lock), which use it to skip republishing an unchanged
    /// state.
    pub(crate) fn current_index(&self) -> u64 {
        self.current_idx.load(Ordering::Relaxed)
    }

    /// Takes the spare: a retired snapshot no reader can reach any more, now
    /// exclusively the caller's to bring up to date and publish again.
    pub(crate) fn take_spare(&self) -> Option<Box<ReadSnapshot<S>>> {
        self.retired.lock().spare.take()
    }

    /// Publishes `snapshot` with a single pointer swap and retires the
    /// previous one. Of the retired snapshots no hazard slot protects, the
    /// newest becomes the spare and the rest are freed. Callers are expected
    /// to be serialized (the commit lock); concurrent publishes would still
    /// be memory-safe but could regress the visible execution index.
    pub(crate) fn publish(&self, snapshot: Box<ReadSnapshot<S>>) {
        self.current_idx.store(snapshot.idx, Ordering::Relaxed);
        let fresh = Box::into_raw(snapshot);
        // SeqCst swap: totally ordered against the readers' hazard-validate
        // sequence (see `load_protected`) so a reader that re-validated `old`
        // after protecting it is guaranteed visible to the scan below.
        let old = self.current.swap(fresh, Ordering::SeqCst);
        let mut retired = self.retired.lock();
        let Retired { limbo, spare } = &mut *retired;
        limbo.push(old);
        limbo.retain(|&p| {
            let protected = self
                .hazards
                .iter()
                .any(|h| h.protected.load(Ordering::SeqCst) == p);
            if !protected {
                // SAFETY: `p` came from `Box::into_raw` and was retired from
                // `current`, so no new reader can load it, and no hazard slot
                // protects it: a reader that held it published its release
                // with a `Release` store (null on guard drop, or the next
                // pointer it tries), and this `SeqCst` load observes that
                // store and synchronizes with it, so all of that reader's
                // accesses to `*p` happen before ours. A reader between
                // loading `p` and validating it may still hold the address,
                // but validation (`current == p` after the hazard store, both
                // `SeqCst`) fails unless `p` is current again — and it only
                // becomes current again through a later `publish`, whose swap
                // releases every write made to it before. Freeing `*p` and
                // mutating it as a spare are therefore equally exclusive.
                // That address reuse (ABA) is the one the allocator already
                // creates when a freed snapshot's memory backs the next one.
                // Publishers are the only reclaimers and hold the limbo lock.
                let unreachable = unsafe { Box::from_raw(p) };
                if spare.as_ref().is_none_or(|s| s.idx < unreachable.idx) {
                    *spare = Some(unreachable);
                }
            }
            protected
        });
    }

    /// Claims a pool hazard slot, leaving the last `keep_free` pool slots
    /// alone. `None` when every slot it may take is taken.
    pub(crate) fn claim_pool_slot(&self, keep_free: usize) -> Option<usize> {
        (self.pool_start..self.hazards.len() - keep_free).find(|&i| {
            self.hazards[i]
                .claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        })
    }

    /// Releases a pool slot claimed with [`SnapshotCell::claim_pool_slot`].
    pub(crate) fn release_pool_slot(&self, slot: usize) {
        debug_assert!(slot >= self.pool_start);
        self.hazards[slot]
            .protected
            .store(std::ptr::null_mut(), Ordering::Release);
        self.hazards[slot].claimed.store(false, Ordering::Release);
    }

    /// Pins the current snapshot through hazard slot `slot` and returns a
    /// guard dereferencing it.
    ///
    /// The caller must own `slot` exclusively for the guard's lifetime (slot
    /// ownership is what the `&mut self` receivers on the public read APIs
    /// enforce). Cost: one `Acquire` load, one hazard store, one validating
    /// load — no lock, no fence, no NVM access.
    pub(crate) fn load_protected(&self, slot: usize) -> SnapshotGuard<'_, S> {
        let hazard = &self.hazards[slot].protected;
        loop {
            let p = self.current.load(Ordering::Acquire);
            hazard.store(p, Ordering::SeqCst);
            // Validate: if `p` is still current, its swap-out (and the
            // publisher's hazard scan) is after this load in the SeqCst total
            // order, so the scan observes our hazard and keeps `p` alive.
            if self.current.load(Ordering::SeqCst) == p {
                return SnapshotGuard {
                    cell: self,
                    slot,
                    ptr: p,
                };
            }
            // A publish raced between load and protect; retry on the newer
            // snapshot (the stale hazard value is overwritten next round).
        }
    }
}

impl<S: SequentialSpec> Drop for SnapshotCell<S> {
    fn drop(&mut self) {
        // No readers can exist (&mut self), so every pointer is exclusively
        // ours: the current snapshot plus whatever limbo still holds.
        // SAFETY: exclusive access per above; pointers are Box-allocated.
        unsafe { drop(Box::from_raw(*self.current.get_mut())) };
        for p in self.retired.get_mut().limbo.drain(..) {
            // SAFETY: same argument.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// A pinned, immutable view of the published snapshot. Dropping the guard
/// releases the hazard slot; holding it keeps the snapshot alive and
/// unchanged (one limbo entry pinned, never freed nor recycled), so guards
/// should be short-lived.
pub struct SnapshotGuard<'a, S: SequentialSpec> {
    cell: &'a SnapshotCell<S>,
    slot: usize,
    ptr: *const ReadSnapshot<S>,
}

impl<S: SequentialSpec> std::ops::Deref for SnapshotGuard<'_, S> {
    type Target = ReadSnapshot<S>;
    fn deref(&self) -> &ReadSnapshot<S> {
        // SAFETY: the hazard slot protects `ptr` from being freed for the
        // guard's lifetime (see `load_protected`/`publish`).
        unsafe { &*self.ptr }
    }
}

impl<S: SequentialSpec> Drop for SnapshotGuard<'_, S> {
    fn drop(&mut self) {
        self.cell.hazards[self.slot]
            .protected
            .store(std::ptr::null_mut(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Reg(u64);

    #[derive(Debug, Clone, PartialEq)]
    struct Set(u64);

    impl crate::spec::OpCodec for Set {
        const MAX_ENCODED_SIZE: usize = 8;
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Set(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    impl SequentialSpec for Reg {
        type UpdateOp = Set;
        type ReadOp = ();
        type Value = u64;
        fn initialize() -> Self {
            Reg(0)
        }
        fn apply(&mut self, op: &Set) -> u64 {
            self.0 = op.0;
            self.0
        }
        fn read(&self, _: &()) -> u64 {
            self.0
        }
    }

    fn snap(state: Reg, idx: u64) -> Box<ReadSnapshot<Reg>> {
        Box::new(ReadSnapshot::new(state, idx))
    }

    #[test]
    fn a_new_cell_serves_its_seed_until_the_next_publish() {
        let cell = SnapshotCell::<Reg>::new(1, 1, snap(Reg(7), 1));
        assert_eq!(cell.current_index(), 1);
        {
            let guard = cell.load_protected(0);
            assert_eq!((guard.index(), guard.read(&())), (1, 7));
        }
        cell.publish(snap(Reg(8), 2));
        assert_eq!(cell.current_index(), 2);
        assert_eq!(cell.load_protected(0).read(&()), 8);
    }

    #[test]
    fn publish_retires_old_snapshots_not_under_hazard() {
        let cell = SnapshotCell::<Reg>::new(1, 0, snap(Reg(1), 1));
        {
            let guard = cell.load_protected(0);
            // Published while a reader pins the old snapshot: the old value
            // stays readable through the guard.
            cell.publish(snap(Reg(2), 2));
            assert_eq!(guard.read(&()), 1);
        }
        // Guard dropped: the next publish frees the pinned-then-released one.
        cell.publish(snap(Reg(3), 3));
        assert_eq!(cell.load_protected(0).read(&()), 3);
        assert!(cell.retired.lock().limbo.len() <= 1);
    }

    #[test]
    fn newest_unpinned_retiree_is_the_spare_and_pinned_ones_never_are() {
        let cell = SnapshotCell::<Reg>::new(1, 0, snap(Reg(1), 1));
        assert!(cell.take_spare().is_none(), "nothing retired yet");
        cell.publish(snap(Reg(2), 2));
        let mut spare = cell.take_spare().expect("unread snapshot 1 is the spare");
        assert_eq!(spare.index(), 1);
        let pinned = cell.load_protected(0);
        cell.publish(snap(Reg(3), 3));
        assert!(cell.take_spare().is_none(), "snapshot 2 is pinned");
        // Recycle snapshot 1 as snapshot 4; the reader of 2 is unaffected.
        spare.state = Reg(4);
        spare.idx = 4;
        cell.publish(spare);
        assert_eq!((pinned.index(), pinned.read(&())), (2, 2));
        drop(pinned);
        // 3 is the spare (retired unpinned by the last publish); this publish
        // reclaims 2 and 4 as well and keeps only the newest, 4.
        cell.publish(snap(Reg(5), 5));
        assert_eq!(cell.take_spare().map(|s| s.index()), Some(4));
        assert!(cell.retired.lock().limbo.is_empty());
        assert_eq!(cell.load_protected(0).read(&()), 5);
    }

    #[test]
    fn pool_slots_are_bounded_and_reusable() {
        let cell = SnapshotCell::<Reg>::new(2, 3, snap(Reg(0), 0));
        let a = cell.claim_pool_slot(1).unwrap();
        let b = cell.claim_pool_slot(1).unwrap();
        assert!(a >= 2 && b >= 2 && a != b);
        assert!(
            cell.claim_pool_slot(1).is_none(),
            "the last slot is kept free"
        );
        assert_eq!(cell.claim_pool_slot(0), Some(4));
        assert!(cell.claim_pool_slot(0).is_none());
        cell.release_pool_slot(a);
        assert_eq!(cell.claim_pool_slot(1), Some(a));
    }

    #[test]
    fn concurrent_readers_never_observe_freed_state() {
        let cell = std::sync::Arc::new(SnapshotCell::<Reg>::new(4, 0, snap(Reg(0), 0)));
        std::thread::scope(|scope| {
            for slot in 0..4 {
                let cell = cell.clone();
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let guard = cell.load_protected(slot);
                        let v = guard.read(&());
                        // Snapshots are published in increasing order, so a
                        // reader's view is monotone.
                        assert!(v >= last, "snapshot regressed: {v} < {last}");
                        assert_eq!(guard.index(), v);
                        last = v;
                    }
                });
            }
            let cell = cell.clone();
            scope.spawn(move || {
                for v in 1..=5_000u64 {
                    cell.publish(snap(Reg(v), v));
                }
            });
        });
        assert_eq!(cell.load_protected(0).read(&()), 5_000);
    }
}
