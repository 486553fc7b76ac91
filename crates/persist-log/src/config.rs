//! Log geometry configuration.

use nvm_sim::CACHE_LINE_SIZE;

/// Geometry of a per-process persistent log.
///
/// The ring is made of fixed-**stride** slots so entry addresses stay
/// computable ([`LogConfig::entry_size`] is the stride), but entries stored in
/// those slots are **variable-length**: an append writes and flushes only the
/// bytes the entry occupies (see the `entry` module). The stride is sized from
/// `max_ops_per_entry` and `op_slot_size` so the worst-case fuzzy window —
/// every op at its maximum encoded size — always fits; typical entries occupy
/// a small fraction of it, and the slack costs address space, not write
/// bandwidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Maximum number of operations a single entry can record: the process's own
    /// operation plus helped fuzzy-window operations. Corresponds to
    /// `MAX_PROCESSES` in Listing 1 — Proposition 5.2 bounds the fuzzy window by
    /// the number of processes.
    pub max_ops_per_entry: usize,
    /// Maximum encoded size, in bytes, of one operation. Bounds each op's
    /// variable-length payload; together with `max_ops_per_entry` it sizes the
    /// slot stride (capacity), not what an append actually writes.
    pub op_slot_size: usize,
    /// Number of entry slots in the (circular) log.
    pub capacity_entries: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            max_ops_per_entry: 8,
            op_slot_size: 56,
            capacity_entries: 4096,
        }
    }
}

impl LogConfig {
    /// Creates a configuration sized for `max_processes` helpers.
    pub fn for_processes(max_processes: usize) -> Self {
        LogConfig {
            max_ops_per_entry: max_processes.max(1),
            ..Default::default()
        }
    }

    /// Sets the per-operation slot size.
    pub fn op_slot_size(mut self, size: usize) -> Self {
        self.op_slot_size = size;
        self
    }

    /// Sets the number of entry slots.
    pub fn capacity_entries(mut self, n: usize) -> Self {
        self.capacity_entries = n;
        self
    }

    /// Size in bytes of one ring slot (the entry *stride*), rounded up to cache
    /// lines: the fixed header plus the worst case of `max_ops_per_entry`
    /// maximum-size length-prefixed operations. An entry may occupy anywhere
    /// from a few dozen bytes up to this capacity; appends write and flush only
    /// the occupied prefix. Use [`crate::PersistentLog::live_bytes`] for actual
    /// occupancy accounting.
    pub fn entry_size(&self) -> usize {
        let raw = crate::entry::ENTRY_HEADER
            + crate::entry::PAYLOAD_PREFIX
            + self.max_ops_per_entry * (4 + self.op_slot_size);
        raw.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE
    }

    /// Size in bytes of the log's own header (start mark).
    pub(crate) fn log_header_size(&self) -> usize {
        CACHE_LINE_SIZE
    }

    /// Total region size needed for a log with this configuration (the address
    /// space reserved for the ring, not the bytes appends will write).
    pub fn region_size(&self) -> usize {
        self.log_header_size() + self.capacity_entries * self.entry_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_size_is_cache_line_multiple() {
        let cfg = LogConfig::default();
        assert_eq!(cfg.entry_size() % CACHE_LINE_SIZE, 0);
        assert!(cfg.entry_size() >= crate::entry::ENTRY_HEADER + crate::entry::PAYLOAD_PREFIX);
    }

    #[test]
    fn entry_size_covers_the_worst_case_payload() {
        let cfg = LogConfig::default();
        assert!(
            cfg.entry_size()
                >= crate::entry::occupied_size(
                    cfg.max_ops_per_entry,
                    cfg.max_ops_per_entry * cfg.op_slot_size
                )
        );
    }

    #[test]
    fn region_size_accounts_for_all_entries() {
        let cfg = LogConfig::default().capacity_entries(10);
        assert_eq!(
            cfg.region_size(),
            cfg.log_header_size() + 10 * cfg.entry_size()
        );
    }

    #[test]
    fn for_processes_sets_helper_capacity() {
        let cfg = LogConfig::for_processes(3);
        assert_eq!(cfg.max_ops_per_entry, 3);
        let cfg = LogConfig::for_processes(0);
        assert_eq!(cfg.max_ops_per_entry, 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = LogConfig::for_processes(4)
            .op_slot_size(16)
            .capacity_entries(128);
        assert_eq!(cfg.op_slot_size, 16);
        assert_eq!(cfg.capacity_entries, 128);
        assert_eq!(cfg.max_ops_per_entry, 4);
    }

    #[test]
    fn bigger_slots_grow_the_entry() {
        let small = LogConfig::default().op_slot_size(8);
        let large = LogConfig::default().op_slot_size(512);
        assert!(large.entry_size() > small.entry_size());
    }
}
