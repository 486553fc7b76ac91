//! Persistence-event accounting.
//!
//! The quantity the paper reasons about is the number of **persistent fences** — a
//! fence issued while at least one asynchronous cache-line write-back is pending
//! (Section 2.1). [`FenceStats`] counts stores, flushes, fences and persistent
//! fences globally and per thread, and [`OpWindow`] provides scoped deltas so tests
//! and benchmarks can assert *per-operation* bounds such as "at most one persistent
//! fence per update, zero per read" (Theorem 5.1).

use crate::thread_slot::{current_thread_slot, MAX_THREAD_SLOTS};
use std::sync::atomic::{AtomicU64, Ordering};

/// One thread's counters, alignment-padded so adjacent thread slots never
/// share a cache line: every `record_*` on the hot path touches only the
/// calling thread's own line, making the accounting contention-free. Global
/// totals are *derived* by summing the slots on the (rare) read side instead
/// of being maintained as shared atomics the write side would ping-pong.
#[derive(Default)]
#[repr(align(128))]
struct Counters {
    stores: AtomicU64,
    stored_bytes: AtomicU64,
    loads: AtomicU64,
    flushes: AtomicU64,
    flushed_lines: AtomicU64,
    fences: AtomicU64,
    persistent_fences: AtomicU64,
    maintenance_fences: AtomicU64,
    writebacks: AtomicU64,
    crashes: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ThreadStatsSnapshot {
        ThreadStatsSnapshot {
            stores: self.stores.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_lines: self.flushed_lines.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            persistent_fences: self.persistent_fences.load(Ordering::Relaxed),
            maintenance_fences: self.maintenance_fences.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Nesting depth of [`MaintenanceScope`]s on this thread. Persistent fences
    /// issued while the depth is non-zero are *additionally* counted in the
    /// `maintenance_fences` bucket, so audits can separate explicit maintenance
    /// (checkpoint writes, log truncation) from the per-update inherent fence.
    static MAINTENANCE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Counters for a single thread (or the global totals), frozen at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStatsSnapshot {
    /// Number of store instructions issued.
    pub stores: u64,
    /// Total bytes stored.
    pub stored_bytes: u64,
    /// Number of load instructions issued.
    pub loads: u64,
    /// Number of flush (`clwb`-style) instructions issued.
    pub flushes: u64,
    /// Number of cache lines covered by flush instructions.
    pub flushed_lines: u64,
    /// Number of fence instructions issued (persistent or not).
    pub fences: u64,
    /// Number of **persistent** fences: fences issued while flushes were pending.
    pub persistent_fences: u64,
    /// Subset of `persistent_fences` issued inside a [`MaintenanceScope`]
    /// (checkpoint writes, log truncation — explicit maintenance outside the
    /// paper's per-update fence budget).
    pub maintenance_fences: u64,
    /// Number of cache lines written back to the durable store.
    pub writebacks: u64,
    /// Number of simulated crashes observed.
    pub crashes: u64,
}

impl ThreadStatsSnapshot {
    /// Component-wise sum `self + other`. Used to aggregate deltas across the
    /// per-shard pools of a sharded object (the `onll-shard` crate), where one
    /// logical operation touches exactly one pool but audits span all of them.
    pub fn merge(&self, other: &ThreadStatsSnapshot) -> ThreadStatsSnapshot {
        ThreadStatsSnapshot {
            stores: self.stores + other.stores,
            stored_bytes: self.stored_bytes + other.stored_bytes,
            loads: self.loads + other.loads,
            flushes: self.flushes + other.flushes,
            flushed_lines: self.flushed_lines + other.flushed_lines,
            fences: self.fences + other.fences,
            persistent_fences: self.persistent_fences + other.persistent_fences,
            maintenance_fences: self.maintenance_fences + other.maintenance_fences,
            writebacks: self.writebacks + other.writebacks,
            crashes: self.crashes + other.crashes,
        }
    }

    /// Merges an iterator of snapshots (identity: the zero snapshot).
    pub fn merge_all<'a>(
        snaps: impl IntoIterator<Item = &'a ThreadStatsSnapshot>,
    ) -> ThreadStatsSnapshot {
        snaps
            .into_iter()
            .fold(ThreadStatsSnapshot::default(), |acc, s| acc.merge(s))
    }

    /// Persistent fences *outside* maintenance scopes — the fences the paper's
    /// per-update lower bound (Theorem 6.3) charges to operations.
    pub fn inherent_fences(&self) -> u64 {
        self.persistent_fences
            .saturating_sub(self.maintenance_fences)
    }

    /// Component-wise difference `self - earlier`. Saturates at zero.
    pub fn delta(&self, earlier: &ThreadStatsSnapshot) -> ThreadStatsSnapshot {
        ThreadStatsSnapshot {
            stores: self.stores.saturating_sub(earlier.stores),
            stored_bytes: self.stored_bytes.saturating_sub(earlier.stored_bytes),
            loads: self.loads.saturating_sub(earlier.loads),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            flushed_lines: self.flushed_lines.saturating_sub(earlier.flushed_lines),
            fences: self.fences.saturating_sub(earlier.fences),
            persistent_fences: self
                .persistent_fences
                .saturating_sub(earlier.persistent_fences),
            maintenance_fences: self
                .maintenance_fences
                .saturating_sub(earlier.maintenance_fences),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            crashes: self.crashes.saturating_sub(earlier.crashes),
        }
    }
}

/// Full snapshot: global totals plus per-thread counters.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Global totals across all threads.
    pub global: ThreadStatsSnapshot,
    /// Per-thread counters, indexed by thread slot. Only slots that touched the
    /// simulator appear.
    pub per_thread: Vec<(usize, ThreadStatsSnapshot)>,
}

impl StatsSnapshot {
    /// Component-wise difference `self - earlier` for the global counters.
    pub fn global_delta(&self, earlier: &StatsSnapshot) -> ThreadStatsSnapshot {
        self.global.delta(&earlier.global)
    }

    /// Returns the delta for a specific thread slot (zero if absent from either).
    pub fn thread_delta(&self, earlier: &StatsSnapshot, slot: usize) -> ThreadStatsSnapshot {
        let now = self
            .per_thread
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        let before = earlier
            .per_thread
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        now.delta(&before)
    }
}

/// Shared persistence-event counters for one simulated NVM region.
///
/// Writes land only in the calling thread's padded slot (contention-free);
/// global totals are computed by summation when read. Totals are therefore
/// *eventually exact*: a sum concurrent with recording may miss in-flight
/// increments, which is the same guarantee the old relaxed global counters
/// gave.
pub struct FenceStats {
    per_thread: Box<[Counters]>,
}

impl Default for FenceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FenceStats {
    /// Creates a fresh set of counters.
    pub fn new() -> Self {
        let per_thread = (0..MAX_THREAD_SLOTS)
            .map(|_| Counters::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FenceStats { per_thread }
    }

    fn me(&self) -> &Counters {
        &self.per_thread[current_thread_slot()]
    }

    fn sum(&self, field: impl Fn(&Counters) -> &AtomicU64) -> u64 {
        self.per_thread
            .iter()
            .map(|c| field(c).load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn record_store(&self, bytes: usize) {
        let me = self.me();
        me.stores.fetch_add(1, Ordering::Relaxed);
        me.stored_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_load(&self) {
        self.me().loads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_flush(&self, lines: u64) {
        let me = self.me();
        me.flushes.fetch_add(1, Ordering::Relaxed);
        me.flushed_lines.fetch_add(lines, Ordering::Relaxed);
    }

    pub(crate) fn record_fence(&self, persistent: bool, lines_drained: u64) {
        let me = self.me();
        me.fences.fetch_add(1, Ordering::Relaxed);
        if persistent {
            me.persistent_fences.fetch_add(1, Ordering::Relaxed);
            if MAINTENANCE_DEPTH.with(|d| d.get()) > 0 {
                me.maintenance_fences.fetch_add(1, Ordering::Relaxed);
            }
        }
        if lines_drained > 0 {
            me.writebacks.fetch_add(lines_drained, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_writeback(&self, lines: u64) {
        self.me().writebacks.fetch_add(lines, Ordering::Relaxed);
    }

    pub(crate) fn record_crash(&self) {
        self.me().crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of persistent fences across all threads.
    pub fn persistent_fences(&self) -> u64 {
        self.sum(|c| &c.persistent_fences)
    }

    /// Total number of maintenance-scoped persistent fences across all threads.
    pub fn maintenance_fences(&self) -> u64 {
        self.sum(|c| &c.maintenance_fences)
    }

    /// Marks the calling thread as performing explicit maintenance (checkpoint
    /// write, log truncation) until the returned guard is dropped. Persistent
    /// fences issued inside the scope are counted in the separate
    /// `maintenance_fences` bucket in addition to the ordinary counters, so
    /// per-operation audits can verify the paper's inherent one-fence-per-update
    /// bound independently of amortized maintenance cost. Scopes nest.
    pub fn maintenance_scope(&self) -> MaintenanceScope {
        MAINTENANCE_DEPTH.with(|d| d.set(d.get() + 1));
        MaintenanceScope { _private: () }
    }

    /// Total number of fences (persistent or not) across all threads.
    pub fn fences(&self) -> u64 {
        self.sum(|c| &c.fences)
    }

    /// Total number of flush instructions across all threads.
    pub fn flushes(&self) -> u64 {
        self.sum(|c| &c.flushes)
    }

    /// Total number of store instructions across all threads.
    pub fn stores(&self) -> u64 {
        self.sum(|c| &c.stores)
    }

    /// Number of simulated crashes.
    pub fn crashes(&self) -> u64 {
        self.sum(|c| &c.crashes)
    }

    /// Persistent fences issued by the *calling* thread.
    pub fn my_persistent_fences(&self) -> u64 {
        self.me().persistent_fences.load(Ordering::Relaxed)
    }

    /// Persistent fences issued by a specific thread slot.
    pub fn persistent_fences_of(&self, slot: usize) -> u64 {
        self.per_thread[slot]
            .persistent_fences
            .load(Ordering::Relaxed)
    }

    /// Takes a full snapshot of all counters. The global totals are the sum of
    /// the per-thread counters at snapshot time.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut global = ThreadStatsSnapshot::default();
        let per_thread = self
            .per_thread
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| {
                let snap = c.snapshot();
                if snap == ThreadStatsSnapshot::default() {
                    None
                } else {
                    global = global.merge(&snap);
                    Some((slot, snap))
                }
            })
            .collect();
        StatsSnapshot { global, per_thread }
    }

    /// Opens a scoped window over the *calling thread's* counters; the window's
    /// [`OpWindow::close`] returns what happened between open and close.
    pub fn op_window(&self) -> OpWindow<'_> {
        OpWindow {
            stats: self,
            slot: current_thread_slot(),
            start: self.per_thread[current_thread_slot()].snapshot(),
        }
    }
}

/// RAII guard marking the calling thread as inside explicit maintenance; see
/// [`FenceStats::maintenance_scope`]. The depth is thread-local, so a scope
/// opened on one [`FenceStats`] classifies fences on *any* pool the thread
/// touches while it is open — which is exactly what a sharded checkpointer
/// (one pool per shard) needs.
pub struct MaintenanceScope {
    _private: (),
}

impl Drop for MaintenanceScope {
    fn drop(&mut self) {
        MAINTENANCE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// A scoped window over a single thread's persistence counters.
///
/// Used to assert per-operation fence bounds:
///
/// ```
/// # use nvm_sim::{NvmPool, PmemConfig};
/// let pool = NvmPool::new(PmemConfig::default());
/// let addr = pool.alloc(64).unwrap();
/// let w = pool.stats().op_window();
/// pool.write(addr, &[1, 2, 3]);
/// pool.flush(addr, 3);
/// pool.fence().unwrap();
/// let delta = w.close();
/// assert_eq!(delta.persistent_fences, 1);
/// ```
pub struct OpWindow<'a> {
    stats: &'a FenceStats,
    slot: usize,
    start: ThreadStatsSnapshot,
}

impl OpWindow<'_> {
    /// Closes the window and returns the per-thread delta since it was opened.
    pub fn close(self) -> ThreadStatsSnapshot {
        let end = self.stats.per_thread[self.slot].snapshot();
        end.delta(&self.start)
    }

    /// Peeks at the delta without consuming the window.
    pub fn peek(&self) -> ThreadStatsSnapshot {
        let end = self.stats.per_thread[self.slot].snapshot();
        end.delta(&self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = FenceStats::new();
        assert_eq!(s.persistent_fences(), 0);
        assert_eq!(s.fences(), 0);
        assert_eq!(s.flushes(), 0);
        assert_eq!(s.stores(), 0);
    }

    #[test]
    fn record_store_updates_global_and_thread() {
        let s = FenceStats::new();
        s.record_store(16);
        s.record_store(8);
        let snap = s.snapshot();
        assert_eq!(snap.global.stores, 2);
        assert_eq!(snap.global.stored_bytes, 24);
        let slot = current_thread_slot();
        let mine = snap
            .per_thread
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap();
        assert_eq!(mine.stores, 2);
    }

    #[test]
    fn persistent_fence_distinguished_from_plain_fence() {
        let s = FenceStats::new();
        s.record_fence(false, 0);
        s.record_fence(true, 3);
        assert_eq!(s.fences(), 2);
        assert_eq!(s.persistent_fences(), 1);
        assert_eq!(s.snapshot().global.writebacks, 3);
    }

    #[test]
    fn op_window_isolates_an_operation() {
        let s = FenceStats::new();
        s.record_fence(true, 1);
        let w = s.op_window();
        s.record_flush(2);
        s.record_fence(true, 2);
        let d = w.close();
        assert_eq!(d.persistent_fences, 1);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.fences, 1);
        // Global still remembers everything.
        assert_eq!(s.persistent_fences(), 2);
    }

    #[test]
    fn op_window_peek_does_not_consume() {
        let s = FenceStats::new();
        let w = s.op_window();
        s.record_flush(1);
        assert_eq!(w.peek().flushes, 1);
        s.record_flush(1);
        assert_eq!(w.close().flushes, 2);
    }

    #[test]
    fn merge_sums_componentwise() {
        let a = ThreadStatsSnapshot {
            stores: 1,
            fences: 2,
            persistent_fences: 1,
            ..Default::default()
        };
        let b = ThreadStatsSnapshot {
            stores: 10,
            flushes: 5,
            persistent_fences: 3,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.stores, 11);
        assert_eq!(m.fences, 2);
        assert_eq!(m.flushes, 5);
        assert_eq!(m.persistent_fences, 4);
        assert_eq!(
            ThreadStatsSnapshot::merge_all([&a, &b, &m]).persistent_fences,
            8
        );
        assert_eq!(
            ThreadStatsSnapshot::merge_all(std::iter::empty()),
            ThreadStatsSnapshot::default()
        );
    }

    #[test]
    fn snapshot_delta_saturates() {
        let a = ThreadStatsSnapshot {
            fences: 1,
            ..Default::default()
        };
        let b = ThreadStatsSnapshot {
            fences: 3,
            ..Default::default()
        };
        assert_eq!(a.delta(&b).fences, 0);
        assert_eq!(b.delta(&a).fences, 2);
    }

    #[test]
    fn per_thread_counters_are_independent() {
        let s = std::sync::Arc::new(FenceStats::new());
        s.record_fence(true, 0);
        let s2 = s.clone();
        std::thread::spawn(move || {
            s2.record_fence(true, 0);
            s2.record_fence(true, 0);
        })
        .join()
        .unwrap();
        assert_eq!(s.persistent_fences(), 3);
        assert_eq!(s.my_persistent_fences(), 1);
    }

    #[test]
    fn maintenance_scope_buckets_fences_separately() {
        let s = FenceStats::new();
        s.record_fence(true, 0);
        {
            let _scope = s.maintenance_scope();
            s.record_fence(true, 0);
            {
                let _nested = s.maintenance_scope();
                s.record_fence(true, 0);
            }
            // Non-persistent fences are never maintenance fences.
            s.record_fence(false, 0);
        }
        s.record_fence(true, 0);
        assert_eq!(s.persistent_fences(), 4);
        assert_eq!(s.maintenance_fences(), 2);
        let snap = s.snapshot().global;
        assert_eq!(snap.maintenance_fences, 2);
        assert_eq!(snap.inherent_fences(), 2);
    }

    #[test]
    fn maintenance_scope_is_thread_local() {
        let s = std::sync::Arc::new(FenceStats::new());
        let _scope = s.maintenance_scope();
        let s2 = s.clone();
        std::thread::spawn(move || s2.record_fence(true, 0))
            .join()
            .unwrap();
        assert_eq!(s.persistent_fences(), 1);
        assert_eq!(s.maintenance_fences(), 0);
    }

    #[test]
    fn thread_delta_for_missing_slot_is_zero() {
        let s = FenceStats::new();
        let a = s.snapshot();
        let b = s.snapshot();
        assert_eq!(b.thread_delta(&a, 200), ThreadStatsSnapshot::default());
    }
}
