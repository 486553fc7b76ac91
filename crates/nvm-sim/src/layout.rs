//! Address and cache-line arithmetic for the simulated NVM.

/// Size of a simulated cache line in bytes. Matches x86-64.
pub const CACHE_LINE_SIZE: usize = 64;

/// A persistent address: a byte offset into an [`crate::NvmPool`].
///
/// Addresses are plain offsets (not machine pointers) so that they remain valid
/// across simulated crashes and "re-mapping" of the pool during recovery.
pub type PAddr = u64;

/// Index of the cache line containing `addr`.
#[inline]
pub fn line_index(addr: PAddr) -> u64 {
    addr / CACHE_LINE_SIZE as u64
}

/// Offset of `addr` within its cache line.
#[inline]
pub fn line_offset(addr: PAddr) -> usize {
    (addr % CACHE_LINE_SIZE as u64) as usize
}

/// Inclusive range of line indices covering `len` bytes starting at `addr`.
///
/// Returns an empty range when `len == 0`.
#[inline]
#[allow(clippy::reversed_empty_ranges)] // the empty range is the intended result
pub fn line_range(addr: PAddr, len: usize) -> std::ops::RangeInclusive<u64> {
    if len == 0 {
        // An empty RangeInclusive: start > end.
        return 1..=0;
    }
    let first = line_index(addr);
    let last = line_index(addr + (len as u64 - 1));
    first..=last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index_basics() {
        assert_eq!(line_index(0), 0);
        assert_eq!(line_index(63), 0);
        assert_eq!(line_index(64), 1);
        assert_eq!(line_index(128), 2);
    }

    #[test]
    fn line_offset_basics() {
        assert_eq!(line_offset(0), 0);
        assert_eq!(line_offset(63), 63);
        assert_eq!(line_offset(64), 0);
        assert_eq!(line_offset(70), 6);
    }

    #[test]
    fn line_range_single_line() {
        let r = line_range(0, 8);
        assert_eq!(r.collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn line_range_straddles_lines() {
        let r = line_range(60, 8);
        assert_eq!(r.collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn line_range_exact_boundaries() {
        let r = line_range(64, 64);
        assert_eq!(r.collect::<Vec<_>>(), vec![1]);
        let r = line_range(64, 65);
        assert_eq!(r.collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn line_range_empty() {
        assert_eq!(line_range(100, 0).count(), 0);
    }

    #[test]
    fn line_range_large_span() {
        let r = line_range(0, 64 * 10);
        assert_eq!(r.count(), 10);
    }
}
