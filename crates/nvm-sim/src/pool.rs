//! A persistent pool: a backend plus a crash-surviving allocator and a table of
//! named roots.
//!
//! Persistent data structures need a way to find their data again after a crash:
//! machine pointers are meaningless across restarts, so the pool hands out stable
//! offsets ([`PAddr`]) and lets structures register *named roots* that the recovery
//! code looks up. The allocator is a simple bump allocator whose cursor is itself
//! persisted (allocation is rare — logs and checkpoint areas are allocated at
//! setup time).

use crate::armed::CrashTrigger;
use crate::backend::{Backend, BackendSpec, CrashToken};
use crate::error::NvmError;
use crate::layout::{PAddr, CACHE_LINE_SIZE};
use crate::policy::PmemConfig;
use crate::stats::FenceStats;
use parking_lot::Mutex;
use std::sync::Arc;

const MAGIC: u64 = 0x4F4E4C4C_53504141; // "ONLL" "SPAA"
const MAGIC_ADDR: PAddr = 0;
const BUMP_ADDR: PAddr = 8;
const ROOT_TABLE_ADDR: PAddr = 64;
const ROOT_ENTRY_SIZE: u64 = 24;
/// Maximum number of named roots a pool can hold.
pub const MAX_ROOTS: usize = 64;
const DATA_START: PAddr = 4096;

/// Identifier of a named root. Produced by [`RootId::from_name`] or from a raw id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootId(pub u64);

impl RootId {
    /// Derives a root id from a human-readable name (FNV-1a hash).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        // Zero is reserved to mean "empty slot".
        if h == 0 {
            h = 1;
        }
        RootId(h)
    }
}

/// A persistent-memory pool: backend + allocator + named roots.
///
/// The pool is cheaply cloneable (it is an `Arc` internally); clones refer to
/// the same backend. Which medium carries the bytes — the simulator, a
/// private file or a device segment — is fixed at construction; everything
/// above the pool is medium-agnostic. The crash semantics every medium
/// upholds are the six-item contract of the backend (`backend.rs`).
#[derive(Clone)]
pub struct NvmPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    backend: Backend,
    alloc_lock: Mutex<()>,
}

impl NvmPool {
    /// Creates and formats a fresh simulator-backed pool.
    pub fn new(cfg: PmemConfig) -> Self {
        Self::format(Backend::sim(cfg))
    }

    /// Wraps `backend` in a pool and formats it: writes the magic header,
    /// zeroes the root table and resets the allocation cursor.
    fn format(backend: Backend) -> Self {
        assert!(
            backend.config().capacity > DATA_START + CACHE_LINE_SIZE as u64,
            "pool capacity too small"
        );
        let pool = NvmPool {
            inner: Arc::new(PoolInner {
                backend,
                alloc_lock: Mutex::new(()),
            }),
        };
        pool.write_u64(BUMP_ADDR, DATA_START);
        // Zero the root table.
        let zeros = vec![0u8; (MAX_ROOTS as u64 * ROOT_ENTRY_SIZE) as usize];
        pool.write(ROOT_TABLE_ADDR, &zeros);
        pool.write_u64(MAGIC_ADDR, MAGIC);
        pool.flush(0, DATA_START as usize);
        pool.fence().expect("pool format fence failed");
        pool
    }

    /// Creates and formats a fresh pool on the medium selected by `spec`.
    /// For [`BackendSpec::File`], the backing file is `dir/<label>.pmem`
    /// (truncated if present). For [`BackendSpec::Device`], the pool becomes a
    /// segment of the shared device file and its fences coalesce with every
    /// other pool on the device.
    pub fn provision(spec: &BackendSpec, cfg: PmemConfig, label: &str) -> Result<Self, NvmError> {
        Ok(Self::format(Backend::provision(spec, cfg, label)?))
    }

    /// Reopens an existing pool previously created by [`NvmPool::provision`]
    /// under the same `spec`/`label` — this is how a restarted process finds
    /// its data again. Fails if the header magic is missing. The simulator
    /// has no cross-process representation, so reopening it is an error.
    pub fn reopen(spec: &BackendSpec, cfg: PmemConfig, label: &str) -> Result<Self, NvmError> {
        let pool = NvmPool {
            inner: Arc::new(PoolInner {
                backend: Backend::reopen(spec, cfg, label)?,
                alloc_lock: Mutex::new(()),
            }),
        };
        pool.check_header()?;
        Ok(pool)
    }

    /// Checks that the pool header survived (magic intact). Call after a crash and
    /// restart before using the pool again.
    pub fn check_header(&self) -> Result<(), NvmError> {
        if self.read_u64(MAGIC_ADDR) == MAGIC {
            Ok(())
        } else {
            Err(NvmError::CorruptHeader)
        }
    }

    /// Short name of the underlying medium ("sim" / "file").
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Persistence statistics (shared with the backend).
    pub fn stats(&self) -> &FenceStats {
        self.inner.backend.stats()
    }

    /// The metric sink configured for this pool (disabled by default). Every
    /// layer built on the pool — persist-log, core, combine, checkpoint —
    /// resolves its metric handles through here, so enabling telemetry on the
    /// [`PmemConfig`] instruments the whole stack.
    pub fn telemetry(&self) -> &onll_telemetry::Telemetry {
        &self.inner.backend.config().telemetry
    }

    /// Allocates `size` bytes (rounded up to whole cache lines) and returns the
    /// starting address. The allocation cursor is persisted so allocations are not
    /// forgotten across crashes.
    pub fn alloc(&self, size: usize) -> Result<PAddr, NvmError> {
        let _guard = self.inner.alloc_lock.lock();
        let rounded = size.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let cur = self.read_u64(BUMP_ADDR);
        let end = cur
            .checked_add(rounded as u64)
            .ok_or(NvmError::OutOfMemory {
                requested: size,
                remaining: 0,
            })?;
        if end > self.capacity() {
            return Err(NvmError::OutOfMemory {
                requested: size,
                remaining: self.capacity().saturating_sub(cur),
            });
        }
        self.write_u64(BUMP_ADDR, end);
        self.flush(BUMP_ADDR, 8);
        self.fence()?;
        Ok(cur)
    }

    /// Registers (or updates) a named root pointing at `[addr, addr+len)`.
    pub fn set_root(&self, id: RootId, addr: PAddr, len: u64) -> Result<(), NvmError> {
        let _guard = self.inner.alloc_lock.lock();
        let mut free_slot = None;
        for slot in 0..MAX_ROOTS {
            let entry_addr = ROOT_TABLE_ADDR + slot as u64 * ROOT_ENTRY_SIZE;
            let existing = self.read_u64(entry_addr);
            if existing == id.0 {
                free_slot = Some(entry_addr);
                break;
            }
            if existing == 0 && free_slot.is_none() {
                free_slot = Some(entry_addr);
            }
        }
        let entry_addr = free_slot.ok_or(NvmError::RootTableFull)?;
        // Write payload first, then the id, so a torn update never exposes an id
        // with a stale payload from a *different* root.
        self.write_u64(entry_addr + 8, addr);
        self.write_u64(entry_addr + 16, len);
        self.write_u64(entry_addr, id.0);
        self.flush(entry_addr, ROOT_ENTRY_SIZE as usize);
        self.fence()?;
        Ok(())
    }

    /// Looks up a named root. Returns `(addr, len)`.
    pub fn get_root(&self, id: RootId) -> Option<(PAddr, u64)> {
        for slot in 0..MAX_ROOTS {
            let entry_addr = ROOT_TABLE_ADDR + slot as u64 * ROOT_ENTRY_SIZE;
            if self.read_u64(entry_addr) == id.0 {
                let addr = self.read_u64(entry_addr + 8);
                let len = self.read_u64(entry_addr + 16);
                return Some((addr, len));
            }
        }
        None
    }

    /// Looks up a named root, returning an error if missing.
    pub fn require_root(&self, id: RootId) -> Result<(PAddr, u64), NvmError> {
        self.get_root(id).ok_or(NvmError::RootNotFound(id.0))
    }

    // ----- forwarding helpers to the backend -----

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.backend.config().capacity
    }

    /// Stores `data` at `addr`. The store is volatile: it is **not** durable
    /// until flushed and fenced (modulo the write-back policy).
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        self.inner.backend.write(addr, data)
    }

    /// Reads `buf.len()` bytes at `addr` (after a crash and before restart:
    /// the durable image).
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.backend.read(addr, buf)
    }

    /// Reads `len` bytes at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf);
        buf
    }

    /// Reads the *durable* contents only — what a crash at this instant would
    /// preserve.
    pub fn read_durable(&self, addr: PAddr, buf: &mut [u8]) {
        self.inner.backend.read_durable(addr, buf)
    }

    /// Initiates asynchronous write-back (`clwb`-style flush) of the lines
    /// covering `[addr, addr+len)`: free, and captures the lines' contents at
    /// flush time. Not durable until a later fence by the same thread.
    pub fn flush(&self, addr: PAddr, len: usize) {
        self.inner.backend.flush(addr, len)
    }

    /// Drains the calling thread's pending flushes. `Ok(true)`: a persistent
    /// fence, the flushed lines are durable. `Ok(false)`: nothing was pending,
    /// or the machine is frozen by a crash. `Err`: the medium failed to make
    /// the bytes durable; unless the fault was transient the pool is poisoned
    /// and later fences fail with the original cause. Callers on the persist
    /// path must not treat an `Err` or an unexpected `Ok(false)` as success.
    pub fn fence(&self) -> Result<bool, NvmError> {
        self.inner.backend.fence()
    }

    /// Write + flush + fence of one range (one persistent fence); forwards
    /// [`NvmPool::fence`]'s result.
    pub fn persist(&self, addr: PAddr, data: &[u8]) -> Result<bool, NvmError> {
        self.inner.backend.persist(addr, data)
    }

    /// Writes a little-endian `u64` at `addr` (cache only; not durable yet).
    pub fn write_u64(&self, addr: PAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&self, addr: PAddr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: PAddr) -> u32 {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Injects a full-system crash: the pool freezes (persistence
    /// instructions of still-running threads have no effect), and each
    /// pending flush of any thread is applied or dropped at random
    /// ([`PmemConfig::apply_pending_at_crash`]).
    pub fn crash(&self) -> CrashToken {
        self.inner.backend.crash()
    }

    /// Restarts after a crash: the cache is empty, durable contents survive.
    pub fn restart(&self, token: CrashToken) {
        self.inner.backend.restart(token)
    }

    /// Injects a crash and immediately restarts (the common pattern in tests).
    pub fn crash_and_restart(&self) {
        let t = self.crash();
        self.restart(t);
    }

    /// Arms an automatic crash after a number of further persistence events.
    pub fn arm_crash(&self, trigger: CrashTrigger) {
        self.inner.backend.arm_crash(trigger)
    }

    /// Disarms an armed crash (no-op if none is armed).
    pub fn disarm_crash(&self) {
        self.inner.backend.disarm_crash()
    }

    /// True if the pool is currently frozen by a crash.
    pub fn is_frozen(&self) -> bool {
        self.inner.backend.is_frozen()
    }
}

impl std::fmt::Debug for NvmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmPool")
            .field("capacity", &self.capacity())
            .field("crashes", &self.inner.backend.crash_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PmemConfig;

    fn pool() -> NvmPool {
        NvmPool::new(PmemConfig::with_capacity(1 << 20))
    }

    #[test]
    fn header_survives_crash() {
        let p = pool();
        p.crash_and_restart();
        assert!(p.check_header().is_ok());
    }

    #[test]
    fn alloc_returns_distinct_line_aligned_regions() {
        let p = pool();
        let a = p.alloc(10).unwrap();
        let b = p.alloc(100).unwrap();
        assert_eq!(a % CACHE_LINE_SIZE as u64, 0);
        assert_eq!(b % CACHE_LINE_SIZE as u64, 0);
        assert!(b >= a + 64);
        assert!(a >= DATA_START);
    }

    #[test]
    fn alloc_cursor_survives_crash() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.crash_and_restart();
        let b = p.alloc(64).unwrap();
        assert_ne!(a, b, "allocator must not hand out the same region twice");
    }

    #[test]
    fn alloc_out_of_memory() {
        let p = NvmPool::new(PmemConfig::with_capacity(8192));
        let r = p.alloc(1 << 20);
        assert!(matches!(r, Err(NvmError::OutOfMemory { .. })));
    }

    #[test]
    fn roots_roundtrip_and_survive_crash() {
        let p = pool();
        let id = RootId::from_name("my-log");
        let addr = p.alloc(256).unwrap();
        p.set_root(id, addr, 256).unwrap();
        assert_eq!(p.get_root(id), Some((addr, 256)));
        p.crash_and_restart();
        assert_eq!(p.get_root(id), Some((addr, 256)));
    }

    #[test]
    fn root_update_overwrites_in_place() {
        let p = pool();
        let id = RootId::from_name("root");
        p.set_root(id, 100, 1).unwrap();
        p.set_root(id, 200, 2).unwrap();
        assert_eq!(p.get_root(id), Some((200, 2)));
        // Did not consume two slots: we can still fill the rest of the table.
        for i in 0..(MAX_ROOTS - 1) {
            p.set_root(RootId(1000 + i as u64), i as u64, 0).unwrap();
        }
        assert!(matches!(
            p.set_root(RootId(5_000_000), 0, 0),
            Err(NvmError::RootTableFull)
        ));
    }

    #[test]
    fn missing_root_is_none() {
        let p = pool();
        assert_eq!(p.get_root(RootId::from_name("nope")), None);
        assert!(p.require_root(RootId::from_name("nope")).is_err());
    }

    #[test]
    fn root_ids_from_names_are_stable_and_distinct() {
        assert_eq!(RootId::from_name("a"), RootId::from_name("a"));
        assert_ne!(RootId::from_name("a"), RootId::from_name("b"));
        assert_ne!(RootId::from_name("log-0").0, 0);
    }

    #[test]
    fn u64_and_u32_helpers_roundtrip() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, u64::MAX - 5);
        p.write_u32(a + 8, 77);
        assert_eq!(p.read_u64(a), u64::MAX - 5);
        assert_eq!(p.read_u32(a + 8), 77);
    }

    #[test]
    fn clones_share_the_same_memory() {
        let p = pool();
        let q = p.clone();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 123);
        assert_eq!(q.read_u64(a), 123);
    }

    #[test]
    fn unpersisted_root_payload_lost_on_crash_when_not_fenced() {
        // set_root persists internally; a raw write does not.
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 999);
        p.crash_and_restart();
        assert_eq!(p.read_u64(a), 0);
    }

    #[test]
    fn debug_format_mentions_capacity() {
        let p = pool();
        let s = format!("{p:?}");
        assert!(s.contains("capacity"));
    }
}
