//! The simulated cache hierarchy and durable backing store.
//!
//! Both the volatile cache and the durable ("on-NVM") contents are kept at
//! cache-line granularity in a sharded map. Stores always land in the cache;
//! whether and when a line's contents reach the durable map is decided by the
//! [`crate::WritebackPolicy`] and by fences (see the `backend` module).

use crate::layout::CACHE_LINE_SIZE;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Contents of one 64-byte line.
pub(crate) type Line = [u8; CACHE_LINE_SIZE];

pub(crate) const N_SHARDS: usize = 64;

/// Lines per shard-mapping block: consecutive lines map to the same shard in
/// runs of this many (a 4 KiB block), so a multi-line store or flush of one
/// log entry acquires its shard lock once instead of once per line, and two
/// threads working in different regions almost never touch the same lock.
const BLOCK_LINES: u64 = 64;

/// A fast, non-cryptographic hasher for line indices. Line maps are the
/// hottest structures in the simulator (every store/read/write-back does a
/// lookup); SipHash dominated their cost. Fibonacci multiply + xor-shift mixes
/// well enough for sequential line indices, which is exactly what log appends
/// produce.
#[derive(Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the line maps).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut x = n.wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x >> 29;
        self.0 = x;
    }
}

/// A line-index map with the fast hasher.
pub(crate) type LineMap = HashMap<u64, Line, BuildHasherDefault<LineHasher>>;

/// One shard of the line maps. Cache and durable contents for a line always live in
/// the same shard, so a single lock acquisition covers a coherent view of the line.
///
/// Lines are stored *inline* in the maps (no per-line `Box`): a line is 64 POD
/// bytes, so boxing would only add an allocation per line — and, worse, make
/// `drop_cache` at crash time free hundreds of thousands of small chunks, which
/// stalls the allocator exactly when recovery is about to be measured.
#[derive(Default)]
pub(crate) struct Shard {
    /// Volatile cache contents: the most recent stored value of each line.
    pub cache: LineMap,
    /// Durable contents: what would survive a crash right now.
    pub durable: LineMap,
}

pub(crate) struct ShardedMemory {
    shards: Box<[RwLock<Shard>]>,
}

#[inline]
fn shard_index(line: u64) -> usize {
    ((line / BLOCK_LINES) as usize) % N_SHARDS
}

impl ShardedMemory {
    pub fn new() -> Self {
        let shards = (0..N_SHARDS)
            .map(|_| RwLock::new(Shard::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedMemory { shards }
    }

    #[inline]
    pub fn shard_for(&self, line: u64) -> &RwLock<Shard> {
        &self.shards[shard_index(line)]
    }

    /// Iterates over all shards, locking each one for writing in turn.
    pub fn for_each_shard_mut(&self, mut f: impl FnMut(&mut Shard)) {
        for shard in self.shards.iter() {
            f(&mut shard.write());
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`, preferring cache contents and
    /// falling back to durable contents, then zeros.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut written = 0usize;
        let mut cur = addr;
        let len = buf.len();
        while written < len {
            let line = cur / CACHE_LINE_SIZE as u64;
            let idx = shard_index(line);
            let shard = self.shards[idx].read();
            let mut line = line;
            loop {
                let off = (cur % CACHE_LINE_SIZE as u64) as usize;
                let take = (CACHE_LINE_SIZE - off).min(len - written);
                let src: Option<&Line> =
                    shard.cache.get(&line).or_else(|| shard.durable.get(&line));
                match src {
                    Some(data) => {
                        buf[written..written + take].copy_from_slice(&data[off..off + take])
                    }
                    None => buf[written..written + take].fill(0),
                }
                written += take;
                cur += take as u64;
                if written >= len {
                    break;
                }
                let next = cur / CACHE_LINE_SIZE as u64;
                if shard_index(next) != idx {
                    break;
                }
                line = next;
            }
        }
    }

    /// Reads from the durable contents only (what a crash right now would preserve).
    pub fn read_durable(&self, addr: u64, buf: &mut [u8]) {
        let mut written = 0usize;
        let mut cur = addr;
        let len = buf.len();
        while written < len {
            let line = cur / CACHE_LINE_SIZE as u64;
            let idx = shard_index(line);
            let shard = self.shards[idx].read();
            let mut line = line;
            loop {
                let off = (cur % CACHE_LINE_SIZE as u64) as usize;
                let take = (CACHE_LINE_SIZE - off).min(len - written);
                match shard.durable.get(&line) {
                    Some(data) => {
                        buf[written..written + take].copy_from_slice(&data[off..off + take])
                    }
                    None => buf[written..written + take].fill(0),
                }
                written += take;
                cur += take as u64;
                if written >= len {
                    break;
                }
                let next = cur / CACHE_LINE_SIZE as u64;
                if shard_index(next) != idx {
                    break;
                }
                line = next;
            }
        }
    }

    /// Writes `data` starting at `addr` into the cache. Consecutive lines in
    /// the same shard are updated under one lock acquisition, and — unlike the
    /// previous interface, which returned the touched lines in a fresh `Vec`
    /// per store — nothing is allocated; callers that need the touched line
    /// range compute it with [`crate::layout::line_range`].
    pub fn store(&self, addr: u64, data: &[u8]) {
        let mut consumed = 0usize;
        let mut cur = addr;
        let len = data.len();
        while consumed < len {
            let line = cur / CACHE_LINE_SIZE as u64;
            let idx = shard_index(line);
            let mut shard = self.shards[idx].write();
            let mut line = line;
            loop {
                let off = (cur % CACHE_LINE_SIZE as u64) as usize;
                let take = (CACHE_LINE_SIZE - off).min(len - consumed);
                // Get-or-initialize the cache line. A line absent from the cache is
                // initialized from the durable contents (a "cache miss fill"), so that a
                // partial-line store does not zero the rest of the line.
                let durable_copy = shard.durable.get(&line).copied();
                let entry = shard
                    .cache
                    .entry(line)
                    .or_insert_with(|| durable_copy.unwrap_or([0u8; CACHE_LINE_SIZE]));
                entry[off..off + take].copy_from_slice(&data[consumed..consumed + take]);
                consumed += take;
                cur += take as u64;
                if consumed >= len {
                    break;
                }
                let next = cur / CACHE_LINE_SIZE as u64;
                if shard_index(next) != idx {
                    break;
                }
                line = next;
            }
        }
    }

    /// Snapshots the current contents of `line` as seen by the cache hierarchy
    /// (cache first, then durable, then zeros). Used to capture the value a flush
    /// instruction would write back.
    pub fn snapshot_line(&self, line: u64) -> Line {
        let shard = self.shard_for(line).read();
        if let Some(l) = shard.cache.get(&line) {
            *l
        } else if let Some(l) = shard.durable.get(&line) {
            *l
        } else {
            [0u8; CACHE_LINE_SIZE]
        }
    }

    /// Makes `contents` the durable value of `line`.
    pub fn write_back(&self, line: u64, contents: &Line) {
        let mut shard = self.shard_for(line).write();
        shard.durable.insert(line, *contents);
    }

    /// Writes back the *current cached* value of `line` (no-op if the line is not
    /// cached). Used by the eager / random-eviction policies.
    pub fn write_back_cached(&self, line: u64) -> bool {
        let mut shard = self.shard_for(line).write();
        if let Some(contents) = shard.cache.get(&line).copied() {
            shard.durable.insert(line, contents);
            true
        } else {
            false
        }
    }

    /// Discards all cached (volatile) contents.
    pub fn drop_cache(&self) {
        self.for_each_shard_mut(|s| s.cache.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardedMemory {
        /// Number of lines currently resident in the cache.
        fn cached_lines(&self) -> usize {
            self.shards.iter().map(|s| s.read().cache.len()).sum()
        }

        /// Number of lines currently present in the durable store.
        fn durable_lines(&self) -> usize {
            self.shards.iter().map(|s| s.read().durable.len()).sum()
        }
    }

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let m = ShardedMemory::new();
        let mut buf = [0xAAu8; 16];
        m.read(1000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn store_then_read_roundtrips_through_cache() {
        let m = ShardedMemory::new();
        m.store(10, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(10, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        // But nothing is durable yet.
        let mut dbuf = [9u8; 4];
        m.read_durable(10, &mut dbuf);
        assert_eq!(dbuf, [0u8; 4]);
    }

    #[test]
    fn store_spanning_lines_reaches_both() {
        let m = ShardedMemory::new();
        m.store(60, &[7u8; 10]);
        let mut buf = [0u8; 10];
        m.read(60, &mut buf);
        assert_eq!(buf, [7u8; 10]);
        assert_eq!(m.cached_lines(), 2);
    }

    #[test]
    fn store_spanning_a_shard_block_boundary_roundtrips() {
        // Lines map to shards in BLOCK_LINES runs; a store crossing the block
        // boundary must split its lock acquisitions correctly.
        let m = ShardedMemory::new();
        let addr = BLOCK_LINES * CACHE_LINE_SIZE as u64 - 32;
        let data: Vec<u8> = (0..96).map(|i| i as u8).collect();
        m.store(addr, &data);
        let mut buf = vec![0u8; 96];
        m.read(addr, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn write_back_makes_snapshot_durable() {
        let m = ShardedMemory::new();
        m.store(0, &[5u8; 8]);
        let snap = m.snapshot_line(0);
        m.write_back(0, &snap);
        m.drop_cache();
        let mut buf = [0u8; 8];
        m.read(0, &mut buf);
        assert_eq!(buf, [5u8; 8]);
    }

    #[test]
    fn drop_cache_loses_unwritten_data() {
        let m = ShardedMemory::new();
        m.store(0, &[5u8; 8]);
        m.drop_cache();
        let mut buf = [1u8; 8];
        m.read(0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn partial_line_store_preserves_durable_rest_of_line() {
        let m = ShardedMemory::new();
        // Make the whole line durable with 0xFF.
        m.store(0, &[0xFFu8; 64]);
        let snap = m.snapshot_line(0);
        m.write_back(0, &snap);
        m.drop_cache();
        // Now store only 4 bytes; the cache fill must come from durable contents.
        m.store(4, &[0u8; 4]);
        let mut buf = [0u8; 64];
        m.read(0, &mut buf);
        assert_eq!(&buf[0..4], &[0xFF; 4]);
        assert_eq!(&buf[4..8], &[0; 4]);
        assert_eq!(&buf[8..64], &[0xFF; 56]);
    }

    #[test]
    fn write_back_cached_is_noop_for_uncached_line() {
        let m = ShardedMemory::new();
        assert!(!m.write_back_cached(42));
        m.store(42 * 64, &[1]);
        assert!(m.write_back_cached(42));
    }

    #[test]
    fn cached_and_durable_line_counts() {
        let m = ShardedMemory::new();
        assert_eq!(m.cached_lines(), 0);
        m.store(0, &[1u8; 64]);
        m.store(64, &[2u8; 64]);
        assert_eq!(m.cached_lines(), 2);
        assert_eq!(m.durable_lines(), 0);
        let snap = m.snapshot_line(0);
        m.write_back(0, &snap);
        assert_eq!(m.durable_lines(), 1);
    }

    #[test]
    fn snapshot_falls_back_to_durable_then_zero() {
        let m = ShardedMemory::new();
        assert_eq!(m.snapshot_line(3), [0u8; 64]);
        m.store(3 * 64, &[9u8; 64]);
        let s = m.snapshot_line(3);
        m.write_back(3, &s);
        m.drop_cache();
        assert_eq!(m.snapshot_line(3), [9u8; 64]);
    }

    #[test]
    fn line_hasher_spreads_sequential_keys() {
        use std::hash::Hasher;
        let mut seen = std::collections::HashSet::new();
        for line in 0u64..10_000 {
            let mut h = LineHasher::default();
            h.write_u64(line);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "hasher must not collide on line runs");
    }
}
