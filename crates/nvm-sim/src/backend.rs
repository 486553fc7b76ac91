//! The pluggable persistence substrate: [`PmemBackend`] and [`BackendSpec`].
//!
//! Everything above this crate — the persist-log, the ONLL construction, the
//! sharded facade — talks to storage exclusively through [`crate::NvmPool`],
//! which in turn delegates every persistence instruction to a `PmemBackend`.
//! Swapping the backend therefore swaps the durability substrate of the whole
//! stack without touching a single algorithmic code path.
//!
//! Two implementations ship in this crate:
//!
//! * [`crate::NvmRegion`] — the simulated cache/NVM hierarchy with injectable
//!   crashes and adversarial write-back policies (the default; what every
//!   deterministic crash-matrix test runs on).
//! * [`crate::FileBackend`] — a real file: stores buffer in process memory,
//!   `fence()` issues `pwrite` + `fsync`, and a `SIGKILL`ed process recovers
//!   from the on-disk image. This is the backend that survives an *actual*
//!   process death.

use crate::error::NvmError;
use crate::layout::PAddr;
use crate::policy::PmemConfig;
use crate::region::{CrashToken, CrashTrigger};
use crate::stats::FenceStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A persistence substrate for [`crate::NvmPool`].
///
/// # Crash-semantics contract
///
/// Implementors model the paper's cost model (Section 2.1) and **must** uphold
/// the following, which every durability proof in the stack leans on:
///
/// 1. **Stores are volatile.** Data passed to [`PmemBackend::write`] must not
///    be considered durable. A crash — simulated via [`PmemBackend::crash`] or
///    a real process death — may lose any written-but-unfenced byte. A backend
///    *may* persist data early (modelling cache eviction), but must never be
///    *required* to.
/// 2. **Flush is asynchronous and free.** [`PmemBackend::flush`] initiates
///    write-back of the cache lines covering the range; it makes no durability
///    promise by itself. The contents captured are those at flush time (the
///    minimal, most adversarial guarantee): stores issued after the flush must
///    not ride along with it.
/// 3. **Fence is the only durability point.** After [`PmemBackend::fence`]
///    returns `Ok`, every line the *calling thread* flushed before the fence is
///    durable: it must be observable via [`PmemBackend::read_durable`] and must
///    survive any subsequent crash. Fences must not drain other threads'
///    pending flushes, and a fence with at least one pending flush must return
///    `Ok(true)` and be counted as a *persistent fence* in
///    [`PmemBackend::stats`] (the quantity Theorems 5.1/6.3 bound).
///    **Group commit** is allowed and does not weaken this rule: a backend may
///    coalesce concurrent fences into one shared durability point (e.g. many
///    pools on one [`crate::PersistDevice`] sharing a single `fsync`), but a
///    coalesced fence completes only when the durability point *covering the
///    caller's bytes* has been acknowledged — a rider must never be woken
///    before the fsync that makes its lines durable returns.
/// 4. **Crash freezes the machine.** After [`PmemBackend::crash`], persistence
///    instructions issued by still-running threads must have no effect (they
///    happen "after power was lost") and reads must observe the durable image
///    only. Flushes pending at crash time may each independently be applied or
///    dropped (an asynchronous write-back may or may not have completed).
///    [`PmemBackend::restart`] lifts the freeze with an empty cache.
/// 5. **Reads are fence-free.** [`PmemBackend::read`] and
///    [`PmemBackend::read_durable`] must not issue persistence events (loads
///    are counted, but cost no fence) — the zero-fence read guarantee depends
///    on it.
/// 6. **Accounting is truthful.** All counters in [`PmemBackend::stats`]
///    reflect the instructions actually issued, per thread, so fence audits
///    carry identical meaning across backends.
///
/// Out-of-bounds accesses may panic (both shipped backends do): they indicate
/// a bug in the caller, not a recoverable condition.
pub trait PmemBackend: Send + Sync {
    /// Short, stable name of the backend (`"sim"`, `"file"`); used in reports
    /// and benchmark artifacts.
    fn backend_name(&self) -> &'static str;

    /// Backend capacity in bytes.
    fn capacity(&self) -> u64;

    /// The configuration the backend was created with.
    fn config(&self) -> &PmemConfig;

    /// Persistence-event statistics (contract item 6).
    fn stats(&self) -> &FenceStats;

    /// Stores `data` at `addr` (volatile until flushed and fenced; item 1).
    fn write(&self, addr: PAddr, data: &[u8]);

    /// Reads `buf.len()` bytes at `addr` from the current (volatile) view.
    fn read(&self, addr: PAddr, buf: &mut [u8]);

    /// Reads the *durable* image only — what a crash at this instant would
    /// preserve. Recovery and tests use it to reason about crash outcomes.
    fn read_durable(&self, addr: PAddr, buf: &mut [u8]);

    /// Initiates asynchronous write-back of the lines covering
    /// `[addr, addr+len)` (item 2).
    fn flush(&self, addr: PAddr, len: usize);

    /// Drains the calling thread's pending flushes into durable storage.
    ///
    /// Returns `Ok(true)` iff this was a persistent fence (item 3): the
    /// calling thread had pending flushes and they are now durable.
    /// `Ok(false)` means no durability action took place — nothing was
    /// pending, or the machine is frozen by a crash (item 4). `Err` means the
    /// backend failed to make the bytes durable (e.g. `fsync` returned EIO);
    /// the backend is then poisoned and later fences keep failing with the
    /// original cause. Callers on the persist path must not treat an `Err` or
    /// an unexpected `Ok(false)` as success — the `Result` is `#[must_use]`
    /// precisely so an armed-crash-during-fence outcome cannot be silently
    /// dropped.
    fn fence(&self) -> Result<bool, NvmError>;

    /// Injects a full-system crash (item 4). Returns a token that must be
    /// passed to [`PmemBackend::restart`] before the backend is used again.
    fn crash(&self) -> CrashToken;

    /// Restarts after a crash: empty cache, durable contents preserved.
    fn restart(&self, token: CrashToken);

    /// Arms an automatic crash after a number of further persistence events.
    fn arm_crash(&self, trigger: CrashTrigger);

    /// Disarms a previously armed crash (no-op if none armed).
    fn disarm_crash(&self);

    /// True while the backend is "powered off" between crash and restart.
    fn is_frozen(&self) -> bool;

    /// Number of crashes injected so far.
    fn crash_count(&self) -> u64;

    /// Number of flushes issued by the calling thread not yet fenced.
    fn my_pending_flushes(&self) -> usize;

    /// Convenience: write + flush + fence of one range (one persistent fence).
    /// Forwards [`PmemBackend::fence`]'s result: `Ok(true)` when the range is
    /// durable, `Ok(false)` when the fence was a frozen no-op.
    fn persist(&self, addr: PAddr, data: &[u8]) -> Result<bool, NvmError> {
        self.write(addr, data);
        self.flush(addr, data.len());
        self.fence()
    }
}

/// Which [`PmemBackend`] a pool (and everything built on it) should run on.
///
/// Selected through `OnllConfig::backend` / `ShardConfig::backend` (or passed
/// directly to [`crate::NvmPool::provision`]); the rest of the stack is
/// backend-agnostic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// The in-process simulator ([`crate::NvmRegion`]): deterministic,
    /// injectable crashes, adversarial write-back policies.
    #[default]
    Sim,
    /// A file-backed pool per object ([`crate::FileBackend`]): stores buffer
    /// in process memory, `fence()` maps to `pwrite` + `fsync`, recovery works
    /// across real process restarts. Each pool label maps to one `.pmem` file
    /// under `dir` (see [`BackendSpec::pool_path`]).
    File {
        /// Directory holding one `.pmem` file per pool.
        dir: PathBuf,
    },
    /// All pools as segments of **one** shared device file, with fences
    /// coalescing through the device's group-commit queue
    /// ([`crate::PersistDevice`]): K pools' concurrent fences ride one
    /// `fsync` instead of paying K. Coalescing knobs come from the
    /// provisioning [`PmemConfig`] (`coalesce_window`, `coalesce_max_riders`).
    Device {
        /// The shared device file (created on first provision).
        path: PathBuf,
    },
}

impl BackendSpec {
    /// A file-backed spec rooted at `dir`.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        BackendSpec::File { dir: dir.into() }
    }

    /// A shared-device spec: every pool a segment of the file at `path`,
    /// fences coalesced through one group-commit queue.
    pub fn device(path: impl Into<PathBuf>) -> Self {
        BackendSpec::Device { path: path.into() }
    }

    /// True for the file-backed variants (private files or a shared device) —
    /// i.e. durability is provided by real `fsync`, not the simulator.
    pub fn is_file(&self) -> bool {
        matches!(self, BackendSpec::File { .. } | BackendSpec::Device { .. })
    }

    /// The backing-file path a pool labelled `label` uses under this spec
    /// (`None` for the simulator, which has no on-disk representation).
    ///
    /// Labels come from object names which may contain path separators
    /// (e.g. "kv/shard0"); they are flattened into a single file name and
    /// suffixed with a hash of the *raw* label, so two distinct labels can
    /// never collide on one file (`kv/shard0` vs `kv_shard0` would otherwise
    /// silently truncate each other's pool on provisioning).
    pub fn pool_path(&self, label: &str) -> Option<PathBuf> {
        match self {
            BackendSpec::Sim => None,
            // Device pools share one file; there is no per-label path.
            BackendSpec::Device { .. } => None,
            BackendSpec::File { dir } => {
                let flat = label.replace(['/', '\\'], "_");
                let mut hash: u64 = 0xcbf29ce484222325;
                for b in label.as_bytes() {
                    hash ^= *b as u64;
                    hash = hash.wrapping_mul(0x100000001b3);
                }
                Some(dir.join(format!(
                    "{flat}-{:08x}.pmem",
                    hash as u32 ^ (hash >> 32) as u32
                )))
            }
        }
    }

    /// Short name used in reports ("sim" / "file"). Both file-backed variants
    /// report "file": the durability substrate is the same, only the fence
    /// coalescing differs (see [`BackendSpec::is_coalesced`]).
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sim => "sim",
            BackendSpec::File { .. } | BackendSpec::Device { .. } => "file",
        }
    }

    /// True when fences on this spec coalesce through a shared device.
    pub fn is_coalesced(&self) -> bool {
        matches!(self, BackendSpec::Device { .. })
    }
}

/// A scratch directory for file-backend tests and benchmarks.
///
/// Honors `ONLL_FILE_TEST_DIR` (CI points it at a tmpfs or a real disk in
/// turn); defaults to the system temp dir. The directory is created, and is
/// unique per call — label, process and a per-process call counter — so
/// neither concurrent test binaries nor the parallel tests of one binary
/// share a directory, even when they pass the same label. Callers that need
/// the same directory again (to reopen after a simulated crash) keep the path
/// this returns.
pub fn scratch_dir(label: &str) -> Result<PathBuf, NvmError> {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let base = match std::env::var_os("ONLL_FILE_TEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir(),
    };
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = base.join(format!("onll-{label}-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| NvmError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    Ok(dir)
}

/// RAII variant of [`scratch_dir`]: the directory is removed again on drop.
/// The standard cleanup guard for file-backend tests and benchmarks.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates (and owns) a scratch directory for `label`; see [`scratch_dir`]
    /// for the location rules (`ONLL_FILE_TEST_DIR`, per-call uniqueness).
    pub fn new(label: &str) -> Result<Self, NvmError> {
        scratch_dir(label).map(ScratchDir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_guard_removes_its_directory_on_drop() {
        let path = {
            let guard = ScratchDir::new("guard-unit").unwrap();
            assert!(guard.path().is_dir());
            guard.path().to_path_buf()
        };
        assert!(!path.exists(), "dropping the guard must remove {path:?}");
    }

    #[test]
    fn default_spec_is_sim() {
        assert_eq!(BackendSpec::default(), BackendSpec::Sim);
        assert!(!BackendSpec::Sim.is_file());
        assert_eq!(BackendSpec::Sim.name(), "sim");
        assert_eq!(BackendSpec::Sim.pool_path("x"), None);
    }

    #[test]
    fn file_spec_derives_pool_paths() {
        let spec = BackendSpec::file("/tmp/pools");
        assert!(spec.is_file());
        assert_eq!(spec.name(), "file");
        let p = spec.pool_path("kv/shard3").unwrap();
        let name = p.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("kv_shard3-"), "{name}");
        assert!(name.ends_with(".pmem"), "{name}");
        // Stable across calls.
        assert_eq!(p, spec.pool_path("kv/shard3").unwrap());
    }

    #[test]
    fn distinct_labels_never_collide_on_one_file() {
        // "kv/shard0" flattens to the same stem as the literal "kv_shard0";
        // the raw-label hash must keep their pool files apart.
        let spec = BackendSpec::file("/tmp/pools");
        assert_ne!(
            spec.pool_path("kv/shard0").unwrap(),
            spec.pool_path("kv_shard0").unwrap()
        );
    }

    #[test]
    fn scratch_dir_exists_and_is_unique_per_label() {
        let a = scratch_dir("unit-a").unwrap();
        let b = scratch_dir("unit-b").unwrap();
        assert!(a.is_dir());
        assert_ne!(a, b);
        // Unique per call, not only per label: two parallel tests passing one
        // label must not share a pool file.
        let a2 = scratch_dir("unit-a").unwrap();
        assert!(a2.is_dir());
        assert_ne!(a, a2);
        for dir in [a, a2, b] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
