//! The per-process persistent log.

use crate::config::LogConfig;
use crate::entry::{
    begin_encode, decode_entry, encode_entry, finish_encode, peek_occupied, push_op, LogEntry,
    ENTRY_HEADER,
};
use nvm_sim::{Histogram, NvmError, NvmPool, PAddr};
use std::fmt;

/// Errors returned by [`PersistentLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The circular log has no free slot (truncate before appending more).
    Full,
    /// The operations passed to an append do not fit one entry slot: either a
    /// single op exceeds `LogConfig::op_slot_size`, the op count exceeds
    /// `LogConfig::max_ops_per_entry`, or the total variable-length payload
    /// overflows the slot capacity (`LogConfig::entry_size`).
    EntryTooLarge(String),
    /// The backend failed to make the entry durable: the publishing fence
    /// returned an IO error (poisoned backend), or the machine froze under a
    /// simulated crash before the fence completed ([`NvmError::Crashed`]).
    /// Either way the entry must not be acknowledged.
    Backend(NvmError),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Full => write!(f, "persistent log is full"),
            LogError::EntryTooLarge(msg) => write!(f, "log entry does not fit: {msg}"),
            LogError::Backend(e) => write!(f, "log publish failed: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

/// Layout of the log header (one cache line at the base address):
/// ```text
/// offset 0   start_slot  u64   first live slot of the circular log
/// offset 8   start_seq   u64   sequence number expected at start_slot
/// offset 16  truncations u64   number of truncate calls (diagnostics)
/// ```
const HDR_START_SLOT: u64 = 0;
const HDR_START_SEQ: u64 = 8;
const HDR_TRUNCATIONS: u64 = 16;

/// A per-process, single-writer, append-only persistent log with exactly one
/// persistent fence per append.
///
/// The log is *owned* by one process (the `&mut self` receiver on
/// [`PersistentLog::append`] encodes single-writer-ness); other processes never
/// write to it, matching the paper's per-process logs.
///
/// Entries are variable-length within fixed-stride ring slots (see the
/// `entry` module): appends encode into a scratch buffer owned by the log and
/// write/flush only the occupied bytes, so the store cost of an append is
/// proportional to the operations it records, not to the worst-case slot
/// geometry. The steady-state append path performs **no heap allocation**.
pub struct PersistentLog {
    pool: NvmPool,
    cfg: LogConfig,
    base: PAddr,
    /// Next slot to append into (volatile; recomputed by recovery).
    next_slot: u64,
    /// Sequence number to assign to the next append (volatile; recomputed).
    next_seq: u64,
    /// First live slot (cached copy of the persistent header).
    start_slot: u64,
    /// Sequence number of the first live slot.
    start_seq: u64,
    /// Bytes occupied on NVM by live entries (headers + payloads; excludes the
    /// dead slot remainders). Maintained by append/truncate, recomputed on open.
    live_bytes: u64,
    /// Reusable encode buffer for appends (capacity settles at one slot).
    scratch: Vec<u8>,
    /// Occupied bytes of every published entry ("log.entry_bytes").
    entry_bytes_hist: Histogram,
    /// Operations recorded per published entry ("log.ops_per_entry") — the
    /// fuzzy-window helping factor made visible.
    ops_per_entry_hist: Histogram,
}

impl PersistentLog {
    /// Bytes of NVM needed for a log with configuration `cfg`.
    pub fn region_size(cfg: &LogConfig) -> usize {
        cfg.region_size()
    }

    /// Formats a fresh, empty log at `base` (which must point at
    /// [`PersistentLog::region_size`] bytes of allocated NVM).
    pub fn create(pool: NvmPool, cfg: LogConfig, base: PAddr) -> Self {
        // Zero the header and persist it. Entry slots are lazily overwritten; their
        // validity is determined by checksum + sequence number, so stale bytes from
        // a previous life of this region are harmless only if they can't collide
        // with (slot, seq) pairs we will produce. A fresh create zeroes the first
        // entry of each slot's header line to be safe.
        let header = vec![0u8; cfg.log_header_size()];
        pool.write(base, &header);
        pool.flush(base, header.len());
        pool.fence().expect("log format fence failed");
        PersistentLog {
            entry_bytes_hist: pool.telemetry().histogram("log.entry_bytes"),
            ops_per_entry_hist: pool.telemetry().histogram("log.ops_per_entry"),
            pool,
            cfg,
            base,
            next_slot: 0,
            next_seq: 1,
            start_slot: 0,
            start_seq: 1,
            live_bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// Opens a log after a crash: scans the live window, returns the log (ready for
    /// further appends) and the valid entries in append order.
    pub fn open(pool: NvmPool, cfg: LogConfig, base: PAddr) -> (Self, Vec<LogEntry>) {
        let start_slot = read_u64(&pool, base + HDR_START_SLOT);
        let start_seq = read_u64(&pool, base + HDR_START_SEQ).max(1);
        let mut log = PersistentLog {
            entry_bytes_hist: pool.telemetry().histogram("log.entry_bytes"),
            ops_per_entry_hist: pool.telemetry().histogram("log.ops_per_entry"),
            pool,
            cfg,
            base,
            next_slot: start_slot,
            next_seq: start_seq,
            start_slot,
            start_seq,
            live_bytes: 0,
            scratch: Vec::new(),
        };
        let entries = log.scan_live();
        // Continue appending after the last valid entry.
        if let Some(last) = entries.last() {
            log.next_seq = last.seq + 1;
            log.next_slot = (start_slot + entries.len() as u64) % log.cfg.capacity_entries as u64;
        }
        log.live_bytes = entries.iter().map(|e| e.stored_bytes as u64).sum();
        (log, entries)
    }

    fn entry_addr(&self, slot: u64) -> PAddr {
        self.base + self.cfg.log_header_size() as u64 + slot * self.cfg.entry_size() as u64
    }

    /// Number of live (appended and not truncated) entries.
    pub fn live_len(&self) -> usize {
        (self.next_seq - self.start_seq) as usize
    }

    /// True if no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Remaining free slots before the circular log refuses appends.
    pub fn free_slots(&self) -> usize {
        self.cfg.capacity_entries - self.live_len()
    }

    /// The log's geometry.
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Base address of the log region in its pool.
    pub fn base(&self) -> PAddr {
        self.base
    }

    /// Appends an entry recording `ops` (own operation first, then helped ones) with
    /// the given execution index for `ops[0]`.
    ///
    /// Cost: stores + flushes of the entry's **occupied bytes only** (free in the
    /// paper's model) + **exactly one persistent fence**. Steady-state, no heap
    /// allocation (the encode buffer is owned by the log and reused).
    ///
    /// Callers that already hold the operations as separate encodable values can
    /// skip assembling a `&[&[u8]]` entirely with [`PersistentLog::begin`], which
    /// encodes each op directly into the log's entry buffer.
    pub fn append(&mut self, ops: &[&[u8]], execution_index: u64) -> Result<(), LogError> {
        if self.live_len() >= self.cfg.capacity_entries {
            return Err(LogError::Full);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let encoded = encode_entry(&self.cfg, &mut scratch, ops, execution_index, self.next_seq)
            .map_err(LogError::EntryTooLarge);
        let result = match encoded {
            Ok(()) => self.publish_scratch(&scratch, ops.len() as u32),
            Err(e) => Err(e),
        };
        self.scratch = scratch;
        result
    }

    /// Begins a zero-copy append of the entry for `execution_index`: the caller
    /// pushes each operation's bytes directly into the log's entry buffer via
    /// the returned [`EntryWriter`], then [`EntryWriter::commit`]s (one
    /// persistent fence). Dropping the writer without committing abandons the
    /// append without touching NVM or the log's counters.
    pub fn begin(&mut self, execution_index: u64) -> Result<EntryWriter<'_>, LogError> {
        if self.live_len() >= self.cfg.capacity_entries {
            return Err(LogError::Full);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        begin_encode(&mut scratch, execution_index, self.next_seq);
        Ok(EntryWriter {
            log: self,
            scratch,
            num_ops: 0,
        })
    }

    /// Writes the finished scratch entry into the next slot: stores + flushes of
    /// the occupied bytes, one fence, then advances the volatile counters.
    /// The counters advance only if the fence confirmed durability: a frozen
    /// no-op fence (the thread had flushed, so `Ok(false)` means the machine
    /// crashed underneath us) and a backend IO failure both surface as
    /// [`LogError::Backend`], and the entry is not acknowledged.
    fn publish_scratch(&mut self, entry: &[u8], num_ops: u32) -> Result<(), LogError> {
        let addr = self.entry_addr(self.next_slot);
        self.pool.write(addr, entry);
        self.pool.flush(addr, entry.len());
        match self.pool.fence() {
            Ok(true) => {}
            Ok(false) => return Err(LogError::Backend(NvmError::Crashed)),
            Err(e) => return Err(LogError::Backend(e)),
        }
        self.next_seq += 1;
        self.next_slot = (self.next_slot + 1) % self.cfg.capacity_entries as u64;
        self.live_bytes += entry.len() as u64;
        self.entry_bytes_hist.record(entry.len() as u64);
        self.ops_per_entry_hist.record(num_ops as u64);
        Ok(())
    }

    /// Drops all live entries: the next recovery will start from the current append
    /// position. Used by the Section-8 checkpointing extension after the object
    /// state has been persisted elsewhere.
    ///
    /// Cost: one persistent fence (it is an explicit maintenance operation, not part
    /// of the per-update fence budget).
    pub fn truncate(&mut self) -> Result<(), LogError> {
        self.publish_start(self.next_slot, self.next_seq)?;
        self.live_bytes = 0;
        Ok(())
    }

    /// Drops the live prefix of entries whose `execution_index` is at most
    /// `watermark`, freeing their ring slots for reuse by subsequent appends.
    /// Returns the number of entries dropped.
    ///
    /// A log's entries carry strictly increasing execution indices (each append
    /// records the appender's newest operation), so the droppable entries always
    /// form a prefix of the live window. Callers use this after a checkpoint
    /// covering indices `<= watermark` has been *published*: every dropped entry
    /// is then redundant with the checkpoint, which is the truncation safety
    /// argument (see `onll::Checkpointer`).
    ///
    /// Cost: **zero** fences when nothing is droppable, one persistent fence
    /// otherwise (the start-mark publish). Maintenance, not per-update budget.
    pub fn truncate_below(&mut self, watermark: u64) -> Result<usize, LogError> {
        let mut dropped = 0u64;
        let mut dropped_bytes = 0u64;
        let mut slot = self.start_slot;
        let mut seq = self.start_seq;
        let mut buf = Vec::new();
        while seq < self.next_seq {
            match self.read_entry(slot, &mut buf) {
                Some(e) if e.seq == seq && e.execution_index <= watermark => {
                    dropped += 1;
                    dropped_bytes += e.stored_bytes as u64;
                    seq += 1;
                    slot = (slot + 1) % self.cfg.capacity_entries as u64;
                }
                _ => break,
            }
        }
        if dropped > 0 {
            self.publish_start(slot, seq)?;
            self.live_bytes = self.live_bytes.saturating_sub(dropped_bytes);
        }
        Ok(dropped as usize)
    }

    /// Execution index of the oldest live entry, if any. A cheap pre-check for
    /// [`PersistentLog::truncate_below`]: if the oldest entry is already above
    /// the watermark, truncation would be a no-op.
    pub fn first_live_index(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let mut buf = Vec::new();
        self.read_entry(self.start_slot, &mut buf)
            .map(|e| e.execution_index)
    }

    /// Bytes of NVM occupied by live entries (what a checkpoint's truncation
    /// frees). Counts each entry's occupied bytes — header plus variable-length
    /// payload — not the fixed slot capacity it is ring-addressed by.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Persists a new start mark (one persistent fence).
    fn publish_start(&mut self, slot: u64, seq: u64) -> Result<(), LogError> {
        self.start_slot = slot;
        self.start_seq = seq;
        let mut hdr = vec![0u8; self.cfg.log_header_size()];
        hdr[HDR_START_SLOT as usize..8].copy_from_slice(&self.start_slot.to_le_bytes());
        hdr[HDR_START_SEQ as usize..16].copy_from_slice(&self.start_seq.to_le_bytes());
        let truncations = read_u64(&self.pool, self.base + HDR_TRUNCATIONS) + 1;
        hdr[HDR_TRUNCATIONS as usize..24].copy_from_slice(&truncations.to_le_bytes());
        self.pool.write(self.base, &hdr);
        self.pool.flush(self.base, hdr.len());
        match self.pool.fence() {
            Ok(true) => Ok(()),
            Ok(false) => Err(LogError::Backend(NvmError::Crashed)),
            Err(e) => Err(LogError::Backend(e)),
        }
    }

    /// Number of truncations performed over the log's lifetime (diagnostics).
    pub fn truncations(&self) -> u64 {
        read_u64(&self.pool, self.base + HDR_TRUNCATIONS)
    }

    /// Reads and validates the entry in `slot`, reusing `buf` as scratch. Reads
    /// the slot header first and then only the entry's occupied bytes — never
    /// the dead slot remainder.
    fn read_entry(&self, slot: u64, buf: &mut Vec<u8>) -> Option<LogEntry> {
        let addr = self.entry_addr(slot);
        let header_len = ENTRY_HEADER.min(self.cfg.entry_size());
        buf.resize(header_len, 0);
        self.pool.read(addr, buf);
        let occupied = peek_occupied(&self.cfg, buf)?;
        buf.resize(occupied, 0);
        self.pool
            .read(addr + header_len as u64, &mut buf[header_len..]);
        decode_entry(&self.cfg, buf)
    }

    /// Scans the live window and returns all valid entries in append order.
    ///
    /// Validation stops at the first slot whose entry is missing, torn, or carries
    /// an unexpected sequence number — appends are sequential, so valid entries
    /// always form a prefix of the live window. The sequence check is also what
    /// rejects a stale entry from a previous ring lap that survives intact in a
    /// reused slot (its checksum matches, its sequence number cannot).
    pub fn scan_live(&self) -> Vec<LogEntry> {
        let mut entries = Vec::new();
        let mut slot = self.start_slot;
        let mut expect_seq = self.start_seq;
        let mut buf = Vec::new();
        for _ in 0..self.cfg.capacity_entries {
            match self.read_entry(slot, &mut buf) {
                Some(e) if e.seq == expect_seq => {
                    entries.push(e);
                    expect_seq += 1;
                    slot = (slot + 1) % self.cfg.capacity_entries as u64;
                }
                _ => break,
            }
        }
        entries
    }
}

/// An in-progress zero-copy append started by [`PersistentLog::begin`].
///
/// Operations are encoded directly into the log's reusable entry buffer;
/// nothing reaches NVM until [`EntryWriter::commit`]. Dropping the writer
/// abandons the append (the buffer is returned to the log for reuse).
///
/// This is the encode path behind every ONLL persist: a single update's fuzzy
/// window, a caller-side group persist, and a cross-thread *combined* batch
/// (`onll::DurableService`, where one entry carries many clients' operations)
/// all assemble their one-fence entries through it — which is also why the
/// entry format needs no notion of who submitted an operation: each op's
/// payload carries its own identity.
pub struct EntryWriter<'a> {
    log: &'a mut PersistentLog,
    scratch: Vec<u8>,
    num_ops: u32,
}

impl EntryWriter<'_> {
    /// Appends one operation's already-encoded bytes.
    pub fn push_op(&mut self, op: &[u8]) -> Result<(), LogError> {
        self.check_op_count()?;
        push_op(&self.log.cfg, &mut self.scratch, op).map_err(LogError::EntryTooLarge)?;
        self.num_ops += 1;
        Ok(())
    }

    /// Appends one operation by letting `fill` encode it directly into the
    /// entry buffer (no intermediate allocation). The bytes `fill` appends
    /// become the operation's payload.
    pub fn push_op_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), LogError> {
        self.check_op_count()?;
        let cfg_entry_size = self.log.cfg.entry_size();
        let start = self.scratch.len();
        self.scratch.extend_from_slice(&[0u8; 4]); // length back-patched below
        fill(&mut self.scratch);
        let op_len = self.scratch.len() - start - 4;
        if op_len > self.log.cfg.op_slot_size {
            self.scratch.truncate(start);
            return Err(LogError::EntryTooLarge(format!(
                "op too large: {} > {} bytes (LogConfig::op_slot_size bounds one encoded operation)",
                op_len, self.log.cfg.op_slot_size
            )));
        }
        if self.scratch.len() > cfg_entry_size {
            self.scratch.truncate(start);
            return Err(LogError::EntryTooLarge(format!(
                "entry payload overflows its {cfg_entry_size}-byte slot"
            )));
        }
        self.scratch[start..start + 4].copy_from_slice(&(op_len as u32).to_le_bytes());
        self.num_ops += 1;
        Ok(())
    }

    fn check_op_count(&self) -> Result<(), LogError> {
        if (self.num_ops as usize) >= self.log.cfg.max_ops_per_entry {
            return Err(LogError::EntryTooLarge(format!(
                "too many ops for one entry: {} > {}",
                self.num_ops as usize + 1,
                self.log.cfg.max_ops_per_entry
            )));
        }
        Ok(())
    }

    /// Number of operations pushed so far.
    pub fn num_ops(&self) -> usize {
        self.num_ops as usize
    }

    /// Finalizes the entry (length, op count, checksum), writes and flushes its
    /// occupied bytes and issues **the one persistent fence** of the append.
    pub fn commit(mut self) -> Result<(), LogError> {
        if self.num_ops == 0 {
            return Err(LogError::EntryTooLarge(
                "an entry must record at least one operation".into(),
            ));
        }
        finish_encode(&mut self.scratch, self.num_ops);
        let scratch = std::mem::take(&mut self.scratch);
        let result = self.log.publish_scratch(&scratch, self.num_ops);
        self.log.scratch = scratch;
        result
    }
}

impl Drop for EntryWriter<'_> {
    fn drop(&mut self) {
        // Hand the buffer back for reuse (no-op after commit took it).
        if !self.scratch.is_empty() {
            self.log.scratch = std::mem::take(&mut self.scratch);
        }
    }
}

impl fmt::Debug for PersistentLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistentLog")
            .field("base", &self.base)
            .field("live_len", &self.live_len())
            .field("live_bytes", &self.live_bytes)
            .field("capacity", &self.cfg.capacity_entries)
            .finish()
    }
}

fn read_u64(pool: &NvmPool, addr: PAddr) -> u64 {
    pool.read_u64(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::{CrashTrigger, PmemConfig};

    fn setup(cfg: LogConfig) -> (NvmPool, PersistentLog) {
        let pool = NvmPool::new(PmemConfig::with_capacity(16 << 20).apply_pending_at_crash(0.0));
        let base = pool.alloc(PersistentLog::region_size(&cfg)).unwrap();
        let log = PersistentLog::create(pool.clone(), cfg, base);
        (pool, log)
    }

    #[test]
    fn append_costs_exactly_one_persistent_fence() {
        let (pool, mut log) = setup(LogConfig::default());
        for i in 1..=10u64 {
            let w = pool.stats().op_window();
            log.append(&[b"op", b"helped"], i).unwrap();
            let d = w.close();
            assert_eq!(
                d.persistent_fences, 1,
                "append #{i} used more than one fence"
            );
            assert_eq!(d.fences, 1);
        }
    }

    #[test]
    fn append_writes_only_occupied_bytes() {
        let (pool, mut log) = setup(LogConfig::default());
        let w = pool.stats().op_window();
        log.append(&[b"0123456789abcdef"], 1).unwrap();
        let d = w.close();
        let occupied = crate::entry::occupied_size(1, 16) as u64;
        assert_eq!(
            d.stored_bytes, occupied,
            "append must not write slot padding"
        );
        assert!(
            d.stored_bytes < log.config().entry_size() as u64 / 4,
            "a single-op append wrote {} of a {}-byte slot",
            d.stored_bytes,
            log.config().entry_size()
        );
        // Flush covers only the occupied lines (1 line here), not the slot.
        assert_eq!(d.flushed_lines, 1);
    }

    #[test]
    fn writer_api_appends_without_intermediate_buffers() {
        let (pool, mut log) = setup(LogConfig::default());
        let base = log.base();
        let mut w = log.begin(2).unwrap();
        w.push_op_with(|buf| buf.extend_from_slice(b"own-op"))
            .unwrap();
        w.push_op(b"helped-op").unwrap();
        assert_eq!(w.num_ops(), 2);
        w.commit().unwrap();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, LogConfig::default(), base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op(0), b"own-op");
        assert_eq!(entries[0].op(1), b"helped-op");
        assert_eq!(entries[0].execution_index, 2);
    }

    #[test]
    fn abandoned_writer_leaves_the_log_untouched() {
        let (pool, mut log) = setup(LogConfig::default());
        {
            let mut w = log.begin(1).unwrap();
            w.push_op(b"never-committed").unwrap();
            // Dropped without commit.
        }
        assert!(log.is_empty());
        assert_eq!(log.live_bytes(), 0);
        // The log is still fully usable and the next append gets seq 1.
        log.append(&[b"real"], 1).unwrap();
        let base = log.base();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, LogConfig::default(), base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op(0), b"real");
    }

    #[test]
    fn writer_rejects_oversized_op_without_touching_nvm() {
        let cfg = LogConfig::default().op_slot_size(8);
        let (_pool, mut log) = setup(cfg);
        let mut w = log.begin(1).unwrap();
        assert!(matches!(
            w.push_op_with(|buf| buf.extend_from_slice(&[0u8; 16])),
            Err(LogError::EntryTooLarge(_))
        ));
        // The failed op was rolled back; a valid one still fits.
        w.push_op(b"ok").unwrap();
        w.commit().unwrap();
        assert_eq!(log.live_len(), 1);
    }

    #[test]
    fn entries_survive_crash_and_reopen_in_order() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        for i in 1..=5u64 {
            log.append(&[format!("op{i}").as_bytes()], i).unwrap();
        }
        pool.crash_and_restart();
        let (reopened, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.execution_index, i as u64 + 1);
            assert_eq!(e.op(0), format!("op{}", i + 1).as_bytes());
        }
        assert_eq!(reopened.live_len(), 5);
    }

    #[test]
    fn unfenced_append_is_lost_but_earlier_ones_survive() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        log.append(&[b"first"], 1).unwrap();
        // Crash in the middle of the second append: after its stores but before its
        // fence. AfterFlushes(1) fires on the append's flush, i.e. pre-fence.
        pool.arm_crash(CrashTrigger::AfterFlushes(1));
        let _ = log.append(&[b"second"], 2);
        assert!(pool.is_frozen());
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op(0), b"first");
    }

    #[test]
    fn torn_append_mid_stores_is_ignored() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        log.append(&[b"first"], 1).unwrap();
        // Crash after only a couple of stores of the next entry.
        pool.arm_crash(CrashTrigger::AfterStores(1));
        let _ = log.append(&[b"second"], 2);
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn appends_continue_after_recovery() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        log.append(&[b"a"], 1).unwrap();
        log.append(&[b"b"], 2).unwrap();
        pool.crash_and_restart();
        let (mut reopened, entries) = PersistentLog::open(pool.clone(), cfg.clone(), base);
        assert_eq!(entries.len(), 2);
        reopened.append(&[b"c"], 3).unwrap();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(
            entries.iter().map(|e| e.op(0).to_vec()).collect::<Vec<_>>(),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
    }

    #[test]
    fn log_reports_full_when_capacity_exhausted() {
        let cfg = LogConfig::default().capacity_entries(4);
        let (_pool, mut log) = setup(cfg);
        for i in 1..=4u64 {
            log.append(&[b"x"], i).unwrap();
        }
        assert_eq!(log.free_slots(), 0);
        assert_eq!(log.append(&[b"x"], 5), Err(LogError::Full));
        assert!(matches!(log.begin(5), Err(LogError::Full)));
    }

    #[test]
    fn truncate_frees_slots_and_survives_crash() {
        let cfg = LogConfig::default().capacity_entries(4);
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        for i in 1..=4u64 {
            log.append(&[b"x"], i).unwrap();
        }
        log.truncate().unwrap();
        assert!(log.is_empty());
        assert_eq!(log.truncations(), 1);
        // Wrap around: four more appends fit.
        for i in 5..=8u64 {
            log.append(&[format!("y{i}").as_bytes()], i).unwrap();
        }
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].execution_index, 5);
        assert_eq!(entries[3].op(0), b"y8");
    }

    #[test]
    fn truncate_below_drops_only_the_covered_prefix() {
        let cfg = LogConfig::default().capacity_entries(8);
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        for i in 1..=6u64 {
            log.append(&[format!("op{i}").as_bytes()], i).unwrap();
        }
        // Checkpoint covered indices <= 4: four entries become droppable.
        assert_eq!(log.truncate_below(4).unwrap(), 4);
        assert_eq!(log.live_len(), 2);
        assert_eq!(log.first_live_index(), Some(5));
        // Idempotent: nothing below the watermark remains, and no fence is paid.
        let w = pool.stats().op_window();
        assert_eq!(log.truncate_below(4).unwrap(), 0);
        assert_eq!(w.close().persistent_fences, 0);
        // The freed ring slots are reusable: capacity 8, 2 live, 6 free.
        assert_eq!(log.free_slots(), 6);
        for i in 7..=12u64 {
            log.append(&[format!("op{i}").as_bytes()], i).unwrap();
        }
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 8);
        assert_eq!(entries[0].execution_index, 5);
        assert_eq!(entries[7].execution_index, 12);
    }

    #[test]
    fn truncate_below_survives_crash() {
        let cfg = LogConfig::default().capacity_entries(8);
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        for i in 1..=5u64 {
            log.append(&[b"x"], i).unwrap();
        }
        assert_eq!(log.truncate_below(3).unwrap(), 3);
        pool.crash_and_restart();
        let (reopened, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].execution_index, 4);
        assert_eq!(reopened.first_live_index(), Some(4));
    }

    #[test]
    fn truncate_below_whole_log_behaves_like_truncate() {
        let cfg = LogConfig::default().capacity_entries(4);
        let (_pool, mut log) = setup(cfg);
        for i in 1..=4u64 {
            log.append(&[b"x"], i).unwrap();
        }
        assert_eq!(log.truncate_below(u64::MAX).unwrap(), 4);
        assert!(log.is_empty());
        assert_eq!(log.first_live_index(), None);
        assert_eq!(log.live_bytes(), 0);
    }

    #[test]
    fn live_bytes_tracks_occupied_bytes_not_slot_capacity() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        assert_eq!(log.live_bytes(), 0);
        log.append(&[b"a"], 1).unwrap();
        log.append(&[b"bc"], 2).unwrap();
        let expected =
            (crate::entry::occupied_size(1, 1) + crate::entry::occupied_size(1, 2)) as u64;
        assert_eq!(log.live_bytes(), expected);
        assert!(
            log.live_bytes() < 2 * cfg.entry_size() as u64 / 4,
            "live bytes must reflect occupancy, not slot stride"
        );
        // Accounting is rebuilt exactly on reopen …
        pool.crash_and_restart();
        let (mut reopened, _) = PersistentLog::open(pool, cfg, base);
        assert_eq!(reopened.live_bytes(), expected);
        // … and shrinks by the dropped entries' occupied bytes on truncation.
        reopened.truncate_below(1).unwrap();
        assert_eq!(
            reopened.live_bytes(),
            crate::entry::occupied_size(1, 2) as u64
        );
    }

    #[test]
    fn stale_pre_truncation_entries_are_not_resurrected() {
        let cfg = LogConfig::default().capacity_entries(8);
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        for i in 1..=3u64 {
            log.append(&[b"old"], i).unwrap();
        }
        log.truncate().unwrap();
        log.append(&[b"new"], 4).unwrap();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op(0), b"new");
    }

    #[test]
    fn stale_longer_entry_under_a_shorter_rewrite_is_rejected() {
        // A slot reused across a ring lap keeps the old (longer) entry's tail
        // bytes beyond the new entry's occupied range. The new entry must decode
        // (residue is dead), and after a crash that tears the *new* write the
        // old entry must not resurrect (its seq is from a previous lap).
        let cfg = LogConfig::default().capacity_entries(2);
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        log.append(&[b"a-rather-long-first-operation-payload", b"helped-op"], 1)
            .unwrap();
        log.append(&[b"x"], 2).unwrap();
        log.truncate().unwrap();
        // Slot 0 is rewritten with a much shorter entry.
        log.append(&[b"s"], 3).unwrap();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].op(0), b"s");
        assert_eq!(entries[0].execution_index, 3);
    }

    #[test]
    fn oversized_ops_are_rejected_without_touching_the_log() {
        let cfg = LogConfig::default().op_slot_size(8);
        let (_pool, mut log) = setup(cfg);
        let big = vec![0u8; 16];
        assert!(matches!(
            log.append(&[&big], 1),
            Err(LogError::EntryTooLarge(_))
        ));
        assert!(log.is_empty());
    }

    #[test]
    fn helped_ops_recoverable_with_correct_indices() {
        let cfg = LogConfig::default();
        let (pool, mut log) = setup(cfg.clone());
        let base = log.base();
        // Entry records own op (index 5) and two helped ops (indices 4 and 3).
        log.append(&[b"own", b"helped4", b"helped3"], 5).unwrap();
        pool.crash_and_restart();
        let (_, entries) = PersistentLog::open(pool, cfg, base);
        let e = &entries[0];
        assert_eq!(e.op_with_index(5).unwrap(), b"own");
        assert_eq!(e.op_with_index(4).unwrap(), b"helped4");
        assert_eq!(e.op_with_index(3).unwrap(), b"helped3");
        assert_eq!(e.op_with_index(2), None);
    }

    #[test]
    fn two_logs_in_one_pool_do_not_interfere() {
        let cfg = LogConfig::default().capacity_entries(16);
        let pool = NvmPool::new(PmemConfig::with_capacity(16 << 20));
        let base1 = pool.alloc(PersistentLog::region_size(&cfg)).unwrap();
        let base2 = pool.alloc(PersistentLog::region_size(&cfg)).unwrap();
        let mut l1 = PersistentLog::create(pool.clone(), cfg.clone(), base1);
        let mut l2 = PersistentLog::create(pool.clone(), cfg.clone(), base2);
        l1.append(&[b"l1-op"], 1).unwrap();
        l2.append(&[b"l2-op"], 2).unwrap();
        pool.crash_and_restart();
        let (_, e1) = PersistentLog::open(pool.clone(), cfg.clone(), base1);
        let (_, e2) = PersistentLog::open(pool, cfg, base2);
        assert_eq!(e1[0].op(0), b"l1-op");
        assert_eq!(e2[0].op(0), b"l2-op");
    }

    #[test]
    fn debug_output_mentions_len() {
        let (_p, log) = setup(LogConfig::default());
        assert!(format!("{log:?}").contains("live_len"));
    }
}
