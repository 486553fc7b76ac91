//! The backend: the paper's crash model, written once, over a [`Medium`]
//! that holds the bytes.
//!
//! Everything above this crate — the persist-log, the ONLL construction, the
//! sharded facade — talks to storage exclusively through [`crate::NvmPool`],
//! which delegates every persistence instruction to its [`Backend`]. The
//! backend keeps the pending flushes, the frozen flag, armed crashes, the
//! crash-time randomness and the accounting; the medium only stores, loads and
//! makes lines durable. Three media ship ([`BackendSpec`] selects one):
//!
//! * the simulator — a cache/NVM line-map hierarchy with injectable crashes
//!   and adversarial write-back policies (the default; what every
//!   deterministic crash-matrix test runs on);
//! * a private file — `fence()` issues `pwrite` + `fsync`, and a `SIGKILL`ed
//!   process recovers from the on-disk image;
//! * a segment of a shared [`PersistDevice`] — like a private file, but
//!   concurrent fences of many pools coalesce into one `fsync`.
//!
//! Swapping the medium therefore swaps the durability substrate of the whole
//! stack without touching a single algorithmic code path.

use crate::armed::{ArmedCrash, ArmedKind, CrashTrigger};
use crate::cache::LineMap;
use crate::device::{PersistDevice, Poison};
use crate::error::NvmError;
use crate::fault;
use crate::layout::{line_range, PAddr};
use crate::medium::Medium;
use crate::policy::{PmemConfig, WritebackPolicy};
use crate::stats::FenceStats;
use crate::thread_slot::{current_thread_slot, MAX_THREAD_SLOTS};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Token returned by a crash. Passing it to `restart` documents (and
/// type-checks) that a recovery phase follows a crash.
#[derive(Debug)]
#[must_use = "a crash must be followed by restart before the backend is used again"]
pub struct CrashToken {
    crash_index: u64,
}

impl CrashToken {
    /// The crash ordinal this token was issued for.
    pub fn crash_index(&self) -> u64 {
        self.crash_index
    }
}

/// A pool's persistence substrate: the crash model over one [`Medium`].
///
/// # Crash-semantics contract
///
/// The backend models the paper's cost model (Section 2.1) and upholds the
/// following on every medium; every durability proof in the stack leans on
/// it:
///
/// 1. **Stores are volatile.** Data passed to [`Backend::write`] is not
///    durable. A crash — simulated via [`Backend::crash`] or a real process
///    death — may lose any written-but-unfenced byte. The backend *may*
///    persist data early (the eviction and eager write-back policies), but is
///    never *required* to.
/// 2. **Flush is asynchronous and free.** [`Backend::flush`] initiates
///    write-back of the cache lines covering the range; it makes no durability
///    promise by itself. The contents captured are those at flush time (the
///    minimal, most adversarial guarantee): stores issued after the flush do
///    not ride along with it.
/// 3. **Fence is the only durability point.** After [`Backend::fence`]
///    returns `Ok`, every line the *calling thread* flushed before the fence is
///    durable: it is observable via [`Backend::read_durable`] and survives any
///    subsequent crash. Fences do not drain other threads' pending flushes,
///    and a fence with at least one pending flush returns `Ok(true)` and is
///    counted as a *persistent fence* in [`Backend::stats`] (the quantity
///    Theorems 5.1/6.3 bound). **Group commit** does not weaken this rule:
///    a device segment coalesces concurrent fences into one shared `fsync`,
///    but a coalesced fence completes only when the durability point
///    *covering the caller's bytes* has been acknowledged — a rider is never
///    woken before the fsync that makes its lines durable returns.
/// 4. **Crash freezes the machine.** After [`Backend::crash`], persistence
///    instructions issued by still-running threads have no effect (they
///    happen "after power was lost") and reads observe the durable image
///    only. Flushes pending at crash time are each independently applied or
///    dropped (an asynchronous write-back may or may not have completed).
///    [`Backend::restart`] lifts the freeze with an empty cache.
/// 5. **Reads are fence-free.** [`Backend::read`] and
///    [`Backend::read_durable`] issue no persistence events (loads are
///    counted, but cost no fence) — the zero-fence read guarantee depends on
///    it.
/// 6. **Accounting is truthful.** All counters in [`Backend::stats`] reflect
///    the instructions actually issued, per thread, so fence audits carry
///    identical meaning on every medium.
///
/// Out-of-bounds accesses panic: they indicate a bug in the caller, not a
/// recoverable condition.
pub(crate) struct Backend {
    cfg: PmemConfig,
    medium: Medium,
    stats: FenceStats,
    /// Per-thread pending flushes: line -> contents captured at flush time.
    pending: Box<[Mutex<LineMap>]>,
    /// When true, the machine has "lost power": all subsequent persistence
    /// operations are ignored (the issuing instructions never happened).
    frozen: AtomicBool,
    armed: ArmedCrash,
    eviction_rng: Mutex<StdRng>,
    crash_rng: Mutex<StdRng>,
    crashes: AtomicU64,
    /// The first permanent IO error (or injected fault): later fences fail
    /// fast with the original cause.
    poison: Poison,
}

impl Backend {
    /// A fresh simulator backend. All bytes read as zero.
    pub fn sim(cfg: PmemConfig) -> Backend {
        Backend::new(Medium::sim(&cfg), cfg)
    }

    /// A fresh, all-zero backend for the pool `label` on the medium `spec`
    /// selects (a private file is truncated, a device segment zeroed).
    pub fn provision(spec: &BackendSpec, cfg: PmemConfig, label: &str) -> Result<Self, NvmError> {
        let medium = match spec {
            BackendSpec::Sim => Medium::sim(&cfg),
            BackendSpec::File { .. } => {
                let path = spec.pool_path(label).expect("a file spec has a pool path");
                Medium::create_file(&path, &cfg)?
            }
            BackendSpec::Device { path } => {
                let device = PersistDevice::handle(path, &cfg)?;
                let base = device.create_segment(label, cfg.capacity)?;
                Medium::segment(device, base, &cfg)
            }
        };
        Ok(Backend::new(medium, cfg))
    }

    /// Reopens the pool `label` provisioned earlier under `spec`, loading its
    /// durable contents. The simulator has nothing to reopen.
    pub fn reopen(spec: &BackendSpec, cfg: PmemConfig, label: &str) -> Result<Self, NvmError> {
        let medium = match spec {
            BackendSpec::Sim => return Err(NvmError::ReopenUnsupported("sim")),
            BackendSpec::File { .. } => {
                let path = spec.pool_path(label).expect("a file spec has a pool path");
                Medium::open_file(&path, &cfg)?
            }
            BackendSpec::Device { path } => {
                let device = PersistDevice::handle(path, &cfg)?;
                let base = device.open_segment(label, cfg.capacity)?;
                Medium::segment(device, base, &cfg)
            }
        };
        medium.reload()?;
        Ok(Backend::new(medium, cfg))
    }

    fn new(medium: Medium, cfg: PmemConfig) -> Backend {
        let eviction_seed = match cfg.policy {
            WritebackPolicy::RandomEviction { seed, .. } => seed,
            _ => cfg.crash_seed ^ 0x9E3779B97F4A7C15,
        };
        cfg.fault_plan.bind_telemetry(&cfg.telemetry);
        Backend {
            medium,
            stats: FenceStats::new(),
            pending: (0..MAX_THREAD_SLOTS).map(|_| Mutex::default()).collect(),
            frozen: AtomicBool::new(false),
            armed: ArmedCrash::new(),
            eviction_rng: Mutex::new(StdRng::seed_from_u64(eviction_seed)),
            crash_rng: Mutex::new(StdRng::seed_from_u64(cfg.crash_seed)),
            crashes: AtomicU64::new(0),
            poison: Poison::default(),
            cfg,
        }
    }

    /// Short, stable name of the medium ("sim" / "file"). Both file-backed
    /// media report "file": the durability substrate is the same, only the
    /// fence coalescing differs.
    pub fn name(&self) -> &'static str {
        match self.medium {
            Medium::Sim { .. } => "sim",
            Medium::File { .. } | Medium::Segment { .. } => "file",
        }
    }

    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Persistence-event statistics (contract item 6).
    pub fn stats(&self) -> &FenceStats {
        &self.stats
    }

    /// True while the machine is "powered off" between crash and restart.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Number of crashes injected so far.
    pub fn crash_count(&self) -> u64 {
        self.crashes.load(Ordering::SeqCst)
    }

    fn check_bounds(&self, addr: PAddr, len: usize) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.cfg.capacity),
            "NVM access out of bounds: addr={addr:#x} len={len} capacity={:#x}",
            self.cfg.capacity
        );
    }

    /// Poisons the backend unless `e` is a transient injected fault (the
    /// device "recovered", later IO succeeds); returns `e`.
    fn fail(&self, e: NvmError) -> NvmError {
        if !fault::error_is_transient(&e) {
            self.poison.set(&e);
        }
        e
    }

    fn tick(&self, kind: ArmedKind) {
        self.armed.tick(kind, || {
            let _ = self.crash();
        });
    }

    /// Arms an automatic crash after a number of further persistence events,
    /// so the crash harness can stop the world in the middle of an operation
    /// without the operation's cooperation.
    pub fn arm_crash(&self, trigger: CrashTrigger) {
        self.armed.arm(trigger);
    }

    /// Disarms a previously armed crash (no-op if none is armed).
    pub fn disarm_crash(&self) {
        self.armed.disarm();
    }

    /// Stores `data` at `addr` (volatile until flushed and fenced; item 1).
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        self.check_bounds(addr, data.len());
        if self.is_frozen() {
            return;
        }
        self.stats.record_store(data.len());
        self.medium.store(addr, data);
        if let WritebackPolicy::RandomEviction { probability, .. } = self.cfg.policy {
            // Spontaneous cache eviction: lines may reach the durable
            // contents early.
            let mut rng = self.eviction_rng.lock();
            let probability = probability.clamp(0.0, 1.0);
            self.write_back(line_range(addr, data.len()).filter(|_| rng.gen_bool(probability)));
        }
        self.tick(ArmedKind::Stores);
    }

    /// Writes lines back without durability. On IO failure the lines simply
    /// stay volatile; a permanent error poisons the next fence.
    fn write_back(&self, lines: impl Iterator<Item = u64>) {
        match self.medium.write_back(lines, &self.cfg.fault_plan) {
            Ok(written) if written > 0 => self.stats.record_writeback(written),
            Ok(_) => {}
            Err(e) => {
                self.fail(e);
            }
        }
    }

    /// Reads `buf.len()` bytes at `addr` from the volatile view.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.stats.record_load();
        if self.is_frozen() {
            // Post-crash reads observe the durable image only.
            self.load_durable(addr, buf);
        } else {
            self.medium.load(addr, buf);
        }
    }

    /// Reads the *durable* image only — what a crash at this instant would
    /// preserve.
    pub fn read_durable(&self, addr: PAddr, buf: &mut [u8]) {
        self.check_bounds(addr, buf.len());
        self.load_durable(addr, buf);
    }

    fn load_durable(&self, addr: PAddr, buf: &mut [u8]) {
        // Fatal: there is no volatile fallback to serve the read from.
        self.medium
            .load_durable(addr, buf)
            .unwrap_or_else(|e| panic!("durable read failed: {e}"));
    }

    /// Initiates asynchronous write-back of the lines covering
    /// `[addr, addr+len)` (item 2).
    pub fn flush(&self, addr: PAddr, len: usize) {
        self.check_bounds(addr, len);
        if self.is_frozen() || len == 0 {
            return;
        }
        let lines = line_range(addr, len);
        {
            let mut pending = self.pending[current_thread_slot()].lock();
            for line in lines.clone() {
                // Capture the value the asynchronous write-back would persist.
                // On real hardware a clwb writes back the line at some point
                // between the flush and the next fence; capturing at flush
                // time is the *minimal* (most adversarial) guarantee.
                pending.insert(line, self.medium.snapshot_line(line));
            }
        }
        self.stats.record_flush(lines.end() - lines.start() + 1);
        if matches!(self.cfg.policy, WritebackPolicy::EagerOnFlush) {
            // The write-back completes immediately. The pending set is kept
            // so that the next fence counts as persistent.
            self.write_back(lines);
        }
        self.tick(ArmedKind::Flushes);
    }

    /// Drains the calling thread's pending flushes into durable storage.
    ///
    /// Returns `Ok(true)` iff this was a persistent fence (item 3): the
    /// calling thread had pending flushes and they are now durable.
    /// `Ok(false)` means no durability action took place — nothing was
    /// pending, or the machine is frozen by a crash (item 4). `Err` means the
    /// medium failed to make the bytes durable (e.g. `fsync` returned EIO);
    /// unless the fault was transient, the backend is then poisoned and later
    /// fences keep failing with the original cause.
    pub fn fence(&self) -> Result<bool, NvmError> {
        if self.is_frozen() {
            return Ok(false);
        }
        if let Some(e) = self.poison.get() {
            return Err(e);
        }
        let lines = {
            let pending = self.pending[current_thread_slot()].lock();
            let lines = pending.len() as u64;
            if lines > 0 {
                self.medium
                    .persist(pending, &self.cfg.fault_plan)
                    .map_err(|e| self.fail(e))?;
            }
            lines
        };
        self.stats.record_fence(lines > 0, lines);
        self.tick(ArmedKind::Fences);
        Ok(lines > 0)
    }

    /// Write + flush + fence of one range (one persistent fence).
    pub fn persist(&self, addr: PAddr, data: &[u8]) -> Result<bool, NvmError> {
        self.write(addr, data);
        self.flush(addr, data.len());
        self.fence()
    }

    /// Injects a full-system crash (item 4): freezes the machine, then settles
    /// every thread's pending flushes — each is applied with the configured
    /// probability, since an asynchronous write-back may or may not have
    /// completed when power failed. Returns the token [`Backend::restart`]
    /// needs.
    pub fn crash(&self) -> CrashToken {
        // Freeze first so concurrent operations stop having effects while the
        // durable image settles.
        self.frozen.store(true, Ordering::SeqCst);
        let prob = self.cfg.apply_pending_at_crash_probability.clamp(0.0, 1.0);
        let mut kept = Vec::new();
        {
            let mut rng = self.crash_rng.lock();
            for pending in self.pending.iter() {
                let mut pending = pending.lock();
                kept.extend(
                    pending
                        .drain()
                        .filter(|_| prob >= 1.0 || (prob > 0.0 && rng.gen_bool(prob))),
                );
            }
        }
        if !kept.is_empty() {
            kept.sort_unstable_by_key(|(line, _)| *line);
            if let Err(e) = self.medium.settle(&kept, &self.cfg.fault_plan) {
                self.fail(e);
            }
        }
        self.stats.record_crash();
        CrashToken {
            crash_index: self.crashes.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// Restarts after a crash: the volatile view is dropped, durable contents
    /// are whatever survived, and persistence instructions work again.
    pub fn restart(&self, token: CrashToken) {
        assert_eq!(
            token.crash_index,
            self.crash_count(),
            "restart token does not match the most recent crash"
        );
        self.armed.disarm();
        // Fatal: there is nothing to serve reads from without the image.
        self.medium
            .reload()
            .unwrap_or_else(|e| panic!("reload after restart failed: {e}"));
        self.frozen.store(false, Ordering::SeqCst);
    }
}

/// Which medium a pool (and everything built on it) should run on.
///
/// Selected through `OnllConfig::backend` / `ShardConfig::backend` (or passed
/// directly to [`crate::NvmPool::provision`]); the rest of the stack is
/// backend-agnostic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// The in-process simulator: deterministic, injectable crashes,
    /// adversarial write-back policies.
    #[default]
    Sim,
    /// A private file per pool: stores buffer in process memory, `fence()`
    /// maps to `pwrite` + `fsync`, recovery works across real process
    /// restarts. Each pool label maps to one `.pmem` file under `dir` (see
    /// [`BackendSpec::pool_path`]).
    File {
        /// Directory holding one `.pmem` file per pool.
        dir: PathBuf,
    },
    /// All pools as segments of **one** shared device file, with fences
    /// coalescing through the device's group-commit queue
    /// ([`crate::PersistDevice`]): K pools' concurrent fences ride one
    /// `fsync` instead of paying K.
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
        assert_eq!(BackendSpec::Sim.pool_path("x"), None);
    }

    #[test]
    fn file_spec_derives_pool_paths() {
        let spec = BackendSpec::file("/tmp/pools");
        assert!(spec.is_file());
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

/// The crash-semantics contract as one table: every item runs on every
/// medium. Medium-specific behaviour (reopening from disk, device
/// coalescing) is tested after the table and in the `device` module.
#[cfg(test)]
mod contract {
    use super::*;

    #[derive(Clone, Copy)]
    enum Kind {
        Sim,
        File,
        Segment,
    }

    /// A backend on one medium, with the scratch directory its files live in.
    struct Fixture {
        backend: Backend,
        spec: BackendSpec,
        dir: ScratchDir,
    }

    impl std::ops::Deref for Fixture {
        type Target = Backend;
        fn deref(&self) -> &Backend {
            &self.backend
        }
    }

    fn backend(kind: Kind, cfg: PmemConfig) -> Fixture {
        let dir = ScratchDir::new("contract").unwrap();
        let spec = match kind {
            Kind::Sim => BackendSpec::Sim,
            Kind::File => BackendSpec::file(dir.path()),
            Kind::Segment => BackendSpec::device(dir.path().join("pool.dev")),
        };
        let backend = Backend::provision(&spec, cfg, "pool").unwrap();
        Fixture { backend, spec, dir }
    }

    fn small() -> PmemConfig {
        PmemConfig::with_capacity(1 << 20)
    }

    impl Backend {
        fn read_vec(&self, addr: PAddr, len: usize) -> Vec<u8> {
            let mut buf = vec![0u8; len];
            self.read(addr, &mut buf);
            buf
        }

        fn crash_and_restart(&self) {
            let token = self.crash();
            self.restart(token);
        }

        fn my_pending_flushes(&self) -> usize {
            self.pending[current_thread_slot()].lock().len()
        }
    }

    macro_rules! contract {
        (@medium $module:ident $kind:ident $($(#[$attr:meta])* $item:ident),*) => {
            mod $module {
                $( $(#[$attr])* #[test] fn $item() { super::$item(super::Kind::$kind) } )*
            }
        };
        ($($(#[$attr:meta])* $item:ident),* $(,)?) => {
            contract!(@medium sim Sim $($(#[$attr])* $item),*);
            contract!(@medium file File $($(#[$attr])* $item),*);
            contract!(@medium segment Segment $($(#[$attr])* $item),*);
        };
    }

    contract! {
        write_read_roundtrip,
        #[should_panic(expected = "out of bounds")]
        out_of_bounds_write_panics,
        unfenced_write_is_lost_on_crash,
        flushed_and_fenced_write_survives_crash,
        fence_without_pending_flush_is_not_persistent,
        pending_flush_is_dropped_at_crash_with_probability_zero,
        pending_flush_is_applied_at_crash_with_probability_one,
        flush_captures_value_at_flush_time,
        eager_policy_makes_flush_durable_without_fence,
        eager_policy_still_counts_persistent_fences,
        random_eviction_can_persist_unflushed_stores,
        persist_is_one_persistent_fence,
        operations_while_frozen_are_ignored,
        armed_crash_fires_after_n_stores,
        armed_crash_on_any_event,
        disarm_prevents_the_crash,
        #[should_panic(expected = "restart token")]
        restart_with_stale_token_panics,
        fences_by_different_threads_are_independent,
        concurrent_writers_to_disjoint_lines,
        read_durable_view_ignores_cache,
        reads_issue_no_persistence_events,
        permanent_fault_poisons_later_fences,
        injected_pwrite_error_is_surfaced,
        transient_fault_fails_one_fence_only,
    }

    fn write_read_roundtrip(kind: Kind) {
        let b = backend(kind, small());
        b.write(100, &[1, 2, 3, 4, 5]);
        assert_eq!(b.read_vec(100, 5), vec![1, 2, 3, 4, 5]);
    }

    fn out_of_bounds_write_panics(kind: Kind) {
        let b = backend(kind, PmemConfig::with_capacity(64));
        b.write(60, &[0u8; 8]);
    }

    fn unfenced_write_is_lost_on_crash(kind: Kind) {
        let b = backend(kind, small());
        b.write(0, &[7u8; 8]);
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![0u8; 8]);
    }

    fn flushed_and_fenced_write_survives_crash(kind: Kind) {
        let b = backend(kind, small());
        b.write(0, &[7u8; 8]);
        b.flush(0, 8);
        assert!(b.fence().unwrap());
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![7u8; 8]);
    }

    fn fence_without_pending_flush_is_not_persistent(kind: Kind) {
        let b = backend(kind, small());
        assert!(!b.fence().unwrap());
        b.write(0, &[1]);
        assert!(
            !b.fence().unwrap(),
            "write without flush leaves nothing pending"
        );
        b.flush(0, 1);
        assert!(b.fence().unwrap());
        assert_eq!(b.stats().persistent_fences(), 1);
        assert_eq!(b.stats().fences(), 3);
    }

    fn pending_flush_is_dropped_at_crash_with_probability_zero(kind: Kind) {
        let b = backend(kind, small().apply_pending_at_crash(0.0));
        b.write(0, &[9u8; 8]);
        b.flush(0, 8);
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![0u8; 8]);
    }

    fn pending_flush_is_applied_at_crash_with_probability_one(kind: Kind) {
        let b = backend(kind, small().apply_pending_at_crash(1.0));
        b.write(0, &[9u8; 8]);
        b.flush(0, 8);
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![9u8; 8]);
    }

    fn flush_captures_value_at_flush_time(kind: Kind) {
        // A store after the flush must not be persisted by the fence of the
        // earlier flush (adversarial, minimal-guarantee semantics).
        let b = backend(kind, small());
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        b.write(0, &[2u8; 8]);
        b.fence().unwrap();
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![1u8; 8]);
    }

    fn eager_policy_makes_flush_durable_without_fence(kind: Kind) {
        let cfg = small()
            .policy(WritebackPolicy::EagerOnFlush)
            .apply_pending_at_crash(0.0);
        let b = backend(kind, cfg);
        b.write(0, &[3u8; 4]);
        b.flush(0, 4);
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 4), vec![3u8; 4]);
    }

    fn eager_policy_still_counts_persistent_fences(kind: Kind) {
        let b = backend(kind, small().policy(WritebackPolicy::EagerOnFlush));
        b.write(0, &[3u8; 4]);
        b.flush(0, 4);
        assert!(b.fence().unwrap());
        assert_eq!(b.stats().persistent_fences(), 1);
    }

    fn random_eviction_can_persist_unflushed_stores(kind: Kind) {
        let cfg = small()
            .policy(WritebackPolicy::RandomEviction {
                probability: 1.0,
                seed: 42,
            })
            .apply_pending_at_crash(0.0);
        let b = backend(kind, cfg);
        b.write(0, &[4u8; 4]);
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 4), vec![4u8; 4]);
    }

    fn persist_is_one_persistent_fence(kind: Kind) {
        let b = backend(kind, small());
        let w = b.stats().op_window();
        assert!(b.persist(128, &[1, 2, 3]).unwrap());
        let d = w.close();
        assert_eq!(d.persistent_fences, 1);
        assert_eq!(d.fences, 1);
        assert_eq!(d.flushes, 1);
    }

    fn operations_while_frozen_are_ignored(kind: Kind) {
        let b = backend(kind, small().apply_pending_at_crash(1.0));
        b.persist(0, &[1u8; 4]).unwrap();
        let t = b.crash();
        // Instructions after the crash have no effect and are not counted.
        let before = b.stats().snapshot().global;
        b.write(0, &[9u8; 4]);
        b.flush(0, 4);
        assert!(!b.fence().unwrap(), "a frozen fence is a silent no-op");
        let after = b.stats().snapshot().global;
        assert_eq!(
            (after.stores, after.flushes, after.fences),
            (before.stores, before.flushes, before.fences)
        );
        assert_eq!(
            b.read_vec(0, 4),
            vec![1u8; 4],
            "frozen reads see the durable image"
        );
        b.restart(t);
        assert_eq!(b.read_vec(0, 4), vec![1u8; 4]);
    }

    fn armed_crash_fires_after_n_stores(kind: Kind) {
        let b = backend(kind, small());
        b.arm_crash(CrashTrigger::AfterStores(2));
        b.write(0, &[1]);
        assert!(!b.is_frozen());
        b.write(1, &[2]);
        assert!(b.is_frozen());
        assert_eq!(b.crash_count(), 1);
    }

    fn armed_crash_on_any_event(kind: Kind) {
        let b = backend(kind, small());
        b.arm_crash(CrashTrigger::AfterEvents(3));
        b.write(0, &[1]);
        b.flush(0, 1);
        assert!(!b.is_frozen());
        b.fence().unwrap();
        assert!(b.is_frozen());
    }

    fn disarm_prevents_the_crash(kind: Kind) {
        let b = backend(kind, small());
        b.arm_crash(CrashTrigger::AfterStores(1));
        b.disarm_crash();
        b.write(0, &[1]);
        assert!(!b.is_frozen());
    }

    fn restart_with_stale_token_panics(kind: Kind) {
        let b = backend(kind, small());
        b.crash_and_restart();
        let _current = b.crash();
        b.restart(CrashToken { crash_index: 1 });
    }

    fn fences_by_different_threads_are_independent(kind: Kind) {
        let b = backend(kind, small());
        b.write(0, &[1u8; 8]);
        b.flush(0, 8);
        // Another thread's fence does not drain this thread's pending flushes.
        std::thread::scope(|s| {
            s.spawn(|| assert!(!b.fence().unwrap()));
        });
        assert_eq!(b.my_pending_flushes(), 1);
        assert!(b.fence().unwrap());
    }

    fn concurrent_writers_to_disjoint_lines(kind: Kind) {
        let b = backend(kind, small());
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    assert!(b.persist(i * 64, &[i as u8 + 1; 64]).unwrap());
                });
            }
        });
        b.crash_and_restart();
        for i in 0..4u64 {
            assert_eq!(b.read_vec(i * 64, 64), vec![i as u8 + 1; 64]);
        }
        assert_eq!(b.stats().persistent_fences(), 4);
    }

    fn read_durable_view_ignores_cache(kind: Kind) {
        let b = backend(kind, small());
        b.persist(0, &[1u8; 4]).unwrap();
        b.write(0, &[2u8; 4]);
        let mut buf = [0u8; 4];
        b.read_durable(0, &mut buf);
        assert_eq!(buf, [1u8; 4]);
        assert_eq!(b.read_vec(0, 4), vec![2u8; 4]);
    }

    fn reads_issue_no_persistence_events(kind: Kind) {
        let b = backend(kind, small());
        b.persist(0, &[1u8; 4]).unwrap();
        let w = b.stats().op_window();
        let mut buf = [0u8; 4];
        b.read(0, &mut buf);
        b.read_durable(0, &mut buf);
        let d = w.close();
        assert_eq!((d.stores, d.flushes, d.fences, d.writebacks), (0, 0, 0, 0));
        assert_eq!(d.loads, 1);
    }

    fn permanent_fault_poisons_later_fences(kind: Kind) {
        let b = backend(kind, small());
        b.config().fault_plan.fail_next_fsyncs(1);
        b.persist(0, &[1u8; 8]).unwrap_err();
        // Poisoned: later fences fail fast with the original cause instead of
        // claiming durability the medium never confirmed.
        let err = b.persist(64, &[2u8; 8]).unwrap_err();
        assert!(matches!(err, NvmError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("injected EIO"), "{err}");
    }

    fn injected_pwrite_error_is_surfaced(kind: Kind) {
        let b = backend(kind, small().apply_pending_at_crash(0.0));
        b.config().fault_plan.fail_next_pwrites(1);
        assert!(matches!(b.persist(0, &[1u8; 8]), Err(NvmError::Io { .. })));
        b.crash_and_restart();
        assert_eq!(
            b.read_vec(0, 8),
            vec![0u8; 8],
            "a failed pwrite wrote nothing"
        );
    }

    fn transient_fault_fails_one_fence_only(kind: Kind) {
        let b = backend(kind, small());
        b.config().fault_plan.fail_next_fsyncs_transient(1);
        let err = b.persist(0, &[1u8; 8]).unwrap_err();
        assert!(fault::error_is_transient(&err), "{err}");
        assert!(
            b.persist(0, &[2u8; 8]).unwrap(),
            "a transient fault does not poison"
        );
        b.crash_and_restart();
        assert_eq!(b.read_vec(0, 8), vec![2u8; 8]);
    }

    /// Reopening from disk: what a restarted process does.
    fn fenced_write_survives_reopen(kind: Kind) {
        let f = backend(kind, small().apply_pending_at_crash(0.0));
        f.persist(64, &[9u8; 16]).unwrap();
        f.write(128, &[5u8; 16]);
        let Fixture { backend, spec, dir } = f;
        drop(backend);
        let b = Backend::reopen(&spec, small(), "pool").unwrap();
        assert_eq!(b.read_vec(64, 16), vec![9u8; 16]);
        assert_eq!(b.read_vec(128, 16), vec![0u8; 16], "unfenced store lost");
        drop(dir);
    }

    #[test]
    fn fenced_write_survives_reopen_of_a_private_file() {
        fenced_write_survives_reopen(Kind::File);
    }

    #[test]
    fn fenced_write_survives_reopen_of_a_device_segment() {
        fenced_write_survives_reopen(Kind::Segment);
    }

    #[test]
    fn reopening_a_missing_pool_is_an_error() {
        let dir = ScratchDir::new("contract-missing").unwrap();
        for spec in [
            BackendSpec::file(dir.path()),
            BackendSpec::device(dir.path().join("pool.dev")),
        ] {
            let err = Backend::reopen(&spec, small(), "nope").err().unwrap();
            assert!(matches!(err, NvmError::Io { .. }), "{err:?}");
        }
        let err = Backend::reopen(&BackendSpec::Sim, small(), "nope")
            .err()
            .unwrap();
        assert_eq!(err, NvmError::ReopenUnsupported("sim"));
    }

    #[test]
    fn backends_report_their_medium() {
        assert_eq!(backend(Kind::Sim, small()).name(), "sim");
        assert_eq!(backend(Kind::File, small()).name(), "file");
        assert_eq!(backend(Kind::Segment, small()).name(), "file");
    }
}
