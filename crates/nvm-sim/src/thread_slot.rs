//! Small per-thread slot identifiers.
//!
//! The simulator tracks pending flushes and statistics per thread. Rather than
//! using `std::thread::ThreadId` (opaque, not index-friendly), every thread that
//! touches the simulator is lazily assigned a small slot index. A thread's slot
//! returns to a free list when the thread exits, so [`MAX_THREAD_SLOTS`] bounds
//! the threads *alive at once*, not the threads a long-lived process (a server
//! starting one handler thread per connection) ever runs.
//!
//! A recycled slot inherits the dead thread's state in every pool. Its
//! statistics counters keep accumulating, which is harmless: per-thread figures
//! are read as differences over a window ([`crate::FenceStats::op_window`]).
//! Flushes the dead thread issued but never fenced stay pending on the slot and
//! drain at the next fence issued on it, by whichever thread holds it then (or
//! are resolved by a crash like any other pending flush). That is a legal
//! write-back under the model: a flushed line may reach persistence at any
//! later moment, and nothing was ever promised about it before a fence.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum number of threads that may use the simulator at the same time.
pub const MAX_THREAD_SLOTS: usize = 256;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// Slots released by exited threads, reused before fresh ones are handed out.
static FREE_SLOTS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

/// A thread's claim on its slot; dropping it (at thread exit) frees the slot.
struct SlotClaim(usize);

impl SlotClaim {
    fn acquire() -> Self {
        let slot = FREE_SLOTS
            .lock()
            .pop()
            .unwrap_or_else(|| NEXT_SLOT.fetch_add(1, Ordering::Relaxed));
        assert!(
            slot < MAX_THREAD_SLOTS,
            "too many live threads touched nvm-sim (max {MAX_THREAD_SLOTS})"
        );
        SlotClaim(slot)
    }
}

impl Drop for SlotClaim {
    fn drop(&mut self) {
        FREE_SLOTS.lock().push(self.0);
    }
}

thread_local! {
    static SLOT: SlotClaim = SlotClaim::acquire();
}

/// Returns the calling thread's slot index (assigned on first use, stable for
/// the thread's lifetime, and released when the thread exits).
///
/// # Panics
///
/// Panics if more than [`MAX_THREAD_SLOTS`] live threads use the simulator.
pub fn current_thread_slot() -> usize {
    SLOT.with(|s| s.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn slot_is_stable_within_a_thread() {
        let a = current_thread_slot();
        let b = current_thread_slot();
        assert_eq!(a, b);
    }

    #[test]
    fn slots_differ_across_threads() {
        let main = current_thread_slot();
        let other = std::thread::spawn(current_thread_slot).join().unwrap();
        assert_ne!(main, other);
    }

    #[test]
    fn many_threads_get_distinct_slots() {
        // All eight hold their slot until every one has taken it, so none can
        // have been recycled from a sibling.
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let slot = current_thread_slot();
                    barrier.wait();
                    slot
                })
            })
            .collect();
        let mut slots: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 8);
    }

    #[test]
    fn exited_threads_return_their_slots() {
        // More threads than slots over the test's life, one at a time: each
        // touches a pool (so it really takes a slot and leaves state on it)
        // and is joined before the next starts.
        let pool = crate::NvmPool::new(crate::PmemConfig::with_capacity(1 << 16));
        let addr = pool.alloc(64).unwrap();
        for i in 0..(MAX_THREAD_SLOTS + 44) {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.write(addr, &(i as u64).to_le_bytes());
                pool.flush(addr, 8);
                assert!(current_thread_slot() < MAX_THREAD_SLOTS);
            })
            .join()
            .unwrap();
        }
    }
}
