//! A shared persist device with **group commit**: many pools, one `fsync`.
//!
//! The paper's bound says one persistent fence per detectable operation is
//! inherent — so the only scaling lever left is making more operations ride
//! each fence. PR 5's combiner amortizes the fence across threads *within* a
//! shard; this module plays the same trick one layer down, at the device:
//! every pool segment on one [`PersistDevice`] funnels its
//! `fence()` into a per-device commit queue, where a leader drains all
//! waiters' lines, issues the pwrites, performs **one** `fsync`, and only then
//! wakes every rider.
//!
//! # Completion rule
//!
//! A coalesced fence returns only after the `fsync` covering the caller's
//! bytes has been acknowledged by the kernel. Riders never complete early:
//! the backend contract ("after `fence` returns, everything the calling
//! thread flushed is durable") holds exactly as it does for a private file —
//! the batch just shares the durability point.
//!
//! # Layout
//!
//! One device file holds a 4 KiB header (magic, segment count, segment table)
//! followed by 4 KiB-aligned segments, one per pool label. Segment addresses
//! are pool-relative; the backend adds its segment base before handing lines
//! to the device.
//!
//! # Leader election
//!
//! Like the in-shard combiner: the first fence to arrive while no leader is
//! active elects itself and takes the whole queue as one batch. Riders
//! arriving during a batch's `fsync` park and form the next batch — natural
//! group commit, no dedicated writer thread.

use crate::cache::Line;
use crate::error::NvmError;
use crate::fault::{self, AbortPoint, FaultPlan, FsyncFault, PwriteFault};
use crate::layout::CACHE_LINE_SIZE;
use crate::policy::PmemConfig;
use onll_telemetry::Histogram;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Instant;

const DEV_MAGIC: u64 = 0x4F4E4C4C_44455631; // "ONLL" "DEV1"
const HEADER_SIZE: u64 = 4096;
const SEG_ENTRY_SIZE: u64 = 24;
const MAX_SEGMENTS: usize = ((HEADER_SIZE - 16) / SEG_ENTRY_SIZE) as usize;
/// Most rider fences one leader absorbs into a single `fsync`; riders beyond
/// it form the next batch.
const MAX_RIDERS: u64 = 64;

/// Environment variable arming a **process abort** inside the coalescing
/// window, for the kill-9 crash matrix: `after-pwrites:<n>` aborts after the
/// `n`-th batch's pwrites land but before the shared fsync; `after-fsync:<n>`
/// aborts after the fsync but before any rider is woken. Both points must
/// leave the system recoverable with no rider acked whose bytes missed the
/// disk.
pub const DEVICE_ABORT_ENV: &str = "ONLL_DEVICE_ABORT";

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> NvmError {
    NvmError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Makes `path`'s directory entry durable by fsyncing its parent directory
/// (a no-op on platforms where directories cannot be opened for syncing).
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), NvmError> {
    #[cfg(unix)]
    {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let dir = File::open(parent).map_err(|e| io_err(parent, e))?;
                dir.sync_all().map_err(|e| io_err(parent, e))?;
            }
        }
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// One pwrite event of the fault plan over `lines` (sorted by line index):
/// `write` receives each run of consecutive lines in turn. The plan may
/// inject an EIO (nothing written) or a torn write (a prefix of `lines`
/// written, then failure).
pub(crate) fn write_lines(
    path: &Path,
    lines: &[(u64, Line)],
    faults: &FaultPlan,
    mut write: impl FnMut(&[(u64, Line)]) -> Result<(), NvmError>,
) -> Result<(), NvmError> {
    let total = lines.len();
    let keep = match faults.on_pwrite(total) {
        PwriteFault::None => total,
        PwriteFault::Error { transient } => return Err(fault::injected_error(path, transient)),
        PwriteFault::Torn { keep } => keep,
    };
    let mut rest = &lines[..keep.min(total)];
    while !rest.is_empty() {
        let run = 1 + rest.windows(2).take_while(|w| w[1].0 == w[0].0 + 1).count();
        write(&rest[..run])?;
        rest = &rest[run..];
    }
    if keep < total {
        return Err(fault::torn_error(path, keep, total));
    }
    Ok(())
}

/// Writes `lines` (sorted by line index, addresses relative to `base`) into
/// `file`, one write per run of consecutive lines. Does **not** sync. One
/// call is one pwrite event of the fault plan (see [`write_lines`]).
pub(crate) fn write_lines_at(
    file: &mut File,
    path: &Path,
    base: u64,
    lines: &[(u64, Line)],
    faults: &FaultPlan,
) -> Result<(), NvmError> {
    write_lines(path, lines, faults, |run| {
        let mut buf = Vec::with_capacity(run.len() * CACHE_LINE_SIZE);
        for (_, contents) in run {
            buf.extend_from_slice(contents);
        }
        file.seek(SeekFrom::Start(base + run[0].0 * CACHE_LINE_SIZE as u64))
            .and_then(|_| file.write_all(&buf))
            .map_err(|e| io_err(path, e))
    })
}

/// One fsync event of the fault plan: the plan may stall it (latency spike)
/// or fail it with a synthetic EIO.
pub(crate) fn fsync_event(path: &Path, faults: &FaultPlan) -> Result<(), NvmError> {
    match faults.on_fsync() {
        FsyncFault::None => Ok(()),
        FsyncFault::Error { transient } => Err(fault::injected_error(path, transient)),
    }
}

/// One fsync event of the fault plan, then the real `sync_data`.
pub(crate) fn sync_file(file: &File, path: &Path, faults: &FaultPlan) -> Result<(), NvmError> {
    fsync_event(path, faults)?;
    file.sync_data().map_err(|e| io_err(path, e))
}

/// Once an IO error surfaces, the device (or backend) is poisoned: the first
/// error is kept and every subsequent fence fails with it, instead of
/// aborting the process mid-test.
#[derive(Default)]
pub(crate) struct Poison(Mutex<Option<NvmError>>);

impl Poison {
    pub(crate) fn get(&self) -> Option<NvmError> {
        self.0.lock().unwrap().clone()
    }

    /// Records the first error (later ones keep the original cause).
    pub(crate) fn set(&self, e: &NvmError) {
        let mut slot = self.0.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e.clone());
        }
    }
}

/// One queued fence: the rider's captured lines, already device-relative.
struct FenceReq {
    base: u64,
    lines: Vec<(u64, Line)>,
    /// Set only when telemetry is enabled (queue-wait measurement).
    enqueued_at: Option<Instant>,
}

/// Group-commit queue state (under one mutex with two condvars).
#[derive(Default)]
struct GcState {
    queue: Vec<FenceReq>,
    /// Batch id the currently-accumulating queue will commit as.
    next_batch: u64,
    /// Highest batch id whose fsync completed.
    completed: u64,
    /// A leader is currently draining a batch.
    leader_active: bool,
    /// Set on the first *permanent* IO failure; every incomplete fence fails
    /// with it, forever (the device is poisoned).
    error: Option<NvmError>,
    /// Highest batch id that failed *transiently* (injected fault with
    /// recovery): its riders fail with `transient_error`, later batches
    /// proceed normally.
    failed_through: u64,
    /// The error delivered to riders of transiently-failed batches.
    transient_error: Option<NvmError>,
}

struct DeviceInner {
    path: PathBuf,
    /// All device IO (segment table, pwrites, fsync, preads) seeks under this
    /// lock; the commit queue above it is what keeps fences from convoying.
    file: Mutex<File>,
    /// Segment table: label hash -> (base, capacity). Mirrors the on-disk
    /// header; mutations rewrite the header durably.
    segments: Mutex<HashMap<u64, (u64, u64)>>,
    gc: Mutex<GcState>,
    /// Wakes riders when a batch completes (or fails).
    batch_done: Condvar,
    poison: Poison,
    faults: FaultPlan,
    /// Per-rider time from enqueue until its batch's IO starts
    /// ("device.queue_wait_ns") — the convoy component satellite 2 splits out
    /// of the fence timer.
    queue_wait_hist: Histogram,
    /// Riders amortizing each fsync ("device.riders_per_fsync").
    riders_hist: Histogram,
    /// Device work per batch: pwrites + fsync ("file.fence_ns" — same metric
    /// name as the direct path, measuring the same thing: the device, not the
    /// queue).
    fence_hist: Histogram,
    /// The fsync alone ("file.fsync_ns").
    fsync_hist: Histogram,
}

/// Handle to a shared persist device (see the module docs). Cheap to clone;
/// all clones share one commit queue, one segment table and one backing file.
#[derive(Clone)]
pub struct PersistDevice {
    inner: Arc<DeviceInner>,
}

/// Process-wide registry so every pool provisioned on the same device file
/// shares one executor — the shard layer gets cross-pool coalescing without
/// holding any device state itself.
fn registry() -> &'static Mutex<HashMap<PathBuf, Weak<DeviceInner>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<HashMap<PathBuf, Weak<DeviceInner>>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

impl PersistDevice {
    /// Opens (or creates) the device file at `path` and returns the
    /// process-shared handle for it. The first opener's `cfg` fixes the
    /// device's fault plan and telemetry sink; later openers join it.
    pub fn handle(path: impl Into<PathBuf>, cfg: &PmemConfig) -> Result<PersistDevice, NvmError> {
        let path = path.into();
        let mut reg = registry().lock().unwrap();
        if let Some(existing) = reg.get(&path).and_then(Weak::upgrade) {
            return Ok(PersistDevice { inner: existing });
        }
        let inner = Arc::new(DeviceInner::open(path.clone(), cfg)?);
        reg.insert(path, Arc::downgrade(&inner));
        Ok(PersistDevice { inner })
    }

    /// The device file's path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Creates (or reuses and zeroes) the segment for `label`, returning its
    /// device-relative base offset. The header update is fsynced before
    /// returning, so a created segment survives power loss.
    pub fn create_segment(&self, label: &str, capacity: u64) -> Result<u64, NvmError> {
        let inner = &*self.inner;
        let hash = label_hash(label);
        let mut segments = inner.segments.lock().unwrap();
        let mut file = inner.file.lock().unwrap();
        if let Some(&(base, cap)) = segments.get(&hash) {
            if capacity > cap {
                return Err(NvmError::Io {
                    path: inner.path.display().to_string(),
                    message: format!(
                        "segment '{label}' exists with capacity {cap}, cannot grow to {capacity}"
                    ),
                });
            }
            // Re-provisioning an existing label: zero its range (a fresh pool
            // must not recover a previous life's bytes).
            let zeros = vec![0u8; cap as usize];
            file.seek(SeekFrom::Start(base))
                .and_then(|_| file.write_all(&zeros))
                .and_then(|_| file.sync_data())
                .map_err(|e| io_err(&inner.path, e))?;
            return Ok(base);
        }
        if segments.len() >= MAX_SEGMENTS {
            return Err(NvmError::Io {
                path: inner.path.display().to_string(),
                message: format!("device segment table full ({MAX_SEGMENTS} segments)"),
            });
        }
        let base = segments
            .values()
            .map(|&(b, c)| (b + c).div_ceil(HEADER_SIZE) * HEADER_SIZE)
            .max()
            .unwrap_or(HEADER_SIZE);
        file.set_len(base + capacity)
            .map_err(|e| io_err(&inner.path, e))?;
        segments.insert(hash, (base, capacity));
        write_header(&mut file, &inner.path, &segments)?;
        file.sync_data().map_err(|e| io_err(&inner.path, e))?;
        Ok(base)
    }

    /// Looks up the segment for `label` (recovery entry point). Returns its
    /// base offset; errors if the label was never provisioned or the existing
    /// segment is smaller than `capacity`.
    pub fn open_segment(&self, label: &str, capacity: u64) -> Result<u64, NvmError> {
        let segments = self.inner.segments.lock().unwrap();
        match segments.get(&label_hash(label)) {
            Some(&(base, cap)) if cap >= capacity => Ok(base),
            Some(&(_, cap)) => Err(NvmError::Io {
                path: self.inner.path.display().to_string(),
                message: format!("segment '{label}' holds {cap} bytes, {capacity} requested"),
            }),
            None => Err(NvmError::Io {
                path: self.inner.path.display().to_string(),
                message: format!("no segment '{label}' on this device"),
            }),
        }
    }

    /// Submits the calling thread's drained flush set as one fence request and
    /// parks until the fsync covering it completes (see the module docs for
    /// the completion rule). Addresses in `lines` are segment-relative;
    /// `base` is the segment's device offset.
    pub(crate) fn submit_fence(&self, base: u64, lines: Vec<(u64, Line)>) -> Result<(), NvmError> {
        let inner = &*self.inner;
        if let Some(e) = inner.poison.get() {
            return Err(e);
        }
        let mut gc = inner.gc.lock().unwrap();
        let my_batch = gc.next_batch;
        gc.queue.push(FenceReq {
            base,
            lines,
            enqueued_at: inner.queue_wait_hist.is_enabled().then(Instant::now),
        });
        loop {
            if my_batch <= gc.failed_through {
                // This fence's batch failed transiently: its bytes never got
                // their covering fsync, but the device itself recovered.
                // Checked before `completed` — a later batch's success must
                // not retroactively ack a failed one.
                let e = gc.transient_error.clone().unwrap_or(NvmError::Io {
                    path: inner.path.display().to_string(),
                    message: "transient batch failure".to_string(),
                });
                return Err(e);
            }
            if gc.completed >= my_batch {
                return Ok(());
            }
            if let Some(e) = &gc.error {
                // The device is poisoned; this fence's bytes never got their
                // covering fsync.
                return Err(e.clone());
            }
            if gc.leader_active {
                gc = inner.batch_done.wait(gc).unwrap();
            } else {
                gc.leader_active = true;
                gc = inner.lead_batch(gc);
                gc.leader_active = false;
                // Wake everyone: riders of the finished batch return; one
                // rider of the next batch self-elects.
                inner.batch_done.notify_all();
            }
        }
    }

    /// Writes lines directly (no queue, no fsync) — the eviction / eager
    /// write-back path, which makes no durability promise.
    pub(crate) fn write_now(&self, base: u64, lines: &[(u64, Line)]) -> Result<(), NvmError> {
        let inner = &*self.inner;
        let mut file = inner.file.lock().unwrap();
        write_lines_at(&mut file, &inner.path, base, lines, &inner.faults)
    }

    /// Immediate pwrite + fsync outside the commit queue — the simulated-crash
    /// settle path, which must not park on a (possibly poisoned) queue.
    pub(crate) fn persist_now(&self, base: u64, lines: &[(u64, Line)]) -> Result<(), NvmError> {
        let inner = &*self.inner;
        let mut file = inner.file.lock().unwrap();
        write_lines_at(&mut file, &inner.path, base, lines, &inner.faults)?;
        sync_file(&file, &inner.path, &inner.faults)
    }

    /// Reads the durable (on-disk) bytes of `[base+addr, ..+buf.len())`.
    pub(crate) fn read_at(&self, base: u64, addr: u64, buf: &mut [u8]) -> Result<(), NvmError> {
        let inner = &*self.inner;
        let mut file = inner.file.lock().unwrap();
        file.seek(SeekFrom::Start(base + addr))
            .and_then(|_| file.read_exact(buf))
            .map_err(|e| io_err(&inner.path, e))
    }

    /// Fail the next `n` pwrites issued through this device with a permanent
    /// (poisoning) synthetic EIO — a thin wrapper over the device's
    /// [`FaultPlan`].
    pub fn inject_pwrite_errors(&self, n: u32) {
        self.inner.faults.fail_next_pwrites(n as u64);
    }

    /// Fail the next `n` fsyncs issued through this device with a permanent
    /// (poisoning) synthetic EIO.
    pub fn inject_fsync_errors(&self, n: u32) {
        self.inner.faults.fail_next_fsyncs(n as u64);
    }

    /// The fault plan every IO through this device consults (the first
    /// opener's [`PmemConfig::fault_plan`]).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.inner.faults
    }
}

impl DeviceInner {
    fn open(path: PathBuf, cfg: &PmemConfig) -> Result<DeviceInner, NvmError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(&path, e))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let len = file.metadata().map_err(|e| io_err(&path, e))?.len();
        let segments = if len >= HEADER_SIZE {
            read_header(&mut file, &path)?
        } else {
            // Fresh device: format the header and make the directory entry
            // durable, as private pool files do.
            file.set_len(HEADER_SIZE).map_err(|e| io_err(&path, e))?;
            let segments = HashMap::new();
            write_header(&mut file, &path, &segments)?;
            file.sync_data().map_err(|e| io_err(&path, e))?;
            sync_parent_dir(&path)?;
            segments
        };
        let telemetry = &cfg.telemetry;
        let faults = cfg.fault_plan.clone();
        faults.bind_telemetry(telemetry);
        faults.arm_abort_from_env();
        Ok(DeviceInner {
            file: Mutex::new(file),
            segments: Mutex::new(segments),
            gc: Mutex::new(GcState {
                next_batch: 1,
                ..GcState::default()
            }),
            batch_done: Condvar::new(),
            poison: Poison::default(),
            faults,
            queue_wait_hist: telemetry.histogram("device.queue_wait_ns"),
            riders_hist: telemetry.histogram("device.riders_per_fsync"),
            fence_hist: telemetry.histogram("file.fence_ns"),
            fsync_hist: telemetry.histogram("file.fsync_ns"),
            path,
        })
    }

    /// Leader duty: take the whole queue as one batch, do the IO (pwrites, one
    /// fsync), publish the result. Called with the queue lock held; returns
    /// with it re-acquired.
    fn lead_batch<'a>(
        &'a self,
        mut gc: std::sync::MutexGuard<'a, GcState>,
    ) -> std::sync::MutexGuard<'a, GcState> {
        let mut batch = std::mem::take(&mut gc.queue);
        let mut batch_id = gc.next_batch;
        gc.next_batch += 1;
        drop(gc);

        let fence_timer = self.fence_hist.start_timer();
        let mut riders = 0u64;
        let result = (|| {
            let mut file = self.file.lock().unwrap();
            // Absorb-before-fsync: riders arriving while this batch's pwrites
            // are in flight would otherwise wait out a whole extra fsync.
            // After each pwrite pass, re-drain the queue and fold late riders
            // into this batch — their lines join the same fsync, and raising
            // `batch_id` to their batch number releases them with it.
            loop {
                for req in &batch {
                    if let Some(t) = req.enqueued_at {
                        self.queue_wait_hist.record(t.elapsed().as_nanos() as u64);
                    }
                    write_lines_at(&mut file, &self.path, req.base, &req.lines, &self.faults)?;
                }
                riders += batch.len() as u64;
                if riders >= MAX_RIDERS {
                    break;
                }
                let mut gc = self.gc.lock().unwrap();
                if gc.queue.is_empty() {
                    break;
                }
                batch = std::mem::take(&mut gc.queue);
                batch_id = gc.next_batch;
                gc.next_batch += 1;
            }
            self.faults.abort_tick(AbortPoint::AfterPwrites);
            let fsync_timer = self.fsync_hist.start_timer();
            sync_file(&file, &self.path, &self.faults)?;
            fsync_timer.stop();
            self.faults.abort_tick(AbortPoint::AfterFsync);
            Ok(())
        })();
        fence_timer.stop();
        self.riders_hist.record(riders.max(1));

        let mut gc = self.gc.lock().unwrap();
        match result {
            Ok(()) => gc.completed = batch_id,
            Err(e) if fault::error_is_transient(&e) => {
                // Fail exactly this batch's riders; the device recovers and
                // later batches commit normally.
                gc.failed_through = gc.failed_through.max(batch_id);
                gc.transient_error = Some(e);
            }
            Err(e) => {
                self.poison.set(&e);
                gc.error = Some(e);
            }
        }
        gc
    }
}

fn label_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn write_header(
    file: &mut File,
    path: &Path,
    segments: &HashMap<u64, (u64, u64)>,
) -> Result<(), NvmError> {
    let mut header = vec![0u8; HEADER_SIZE as usize];
    header[0..8].copy_from_slice(&DEV_MAGIC.to_le_bytes());
    header[8..16].copy_from_slice(&(segments.len() as u64).to_le_bytes());
    let mut entries: Vec<(&u64, &(u64, u64))> = segments.iter().collect();
    entries.sort_by_key(|(_, &(base, _))| base);
    for (i, (hash, &(base, cap))) in entries.into_iter().enumerate() {
        let off = 16 + i * SEG_ENTRY_SIZE as usize;
        header[off..off + 8].copy_from_slice(&hash.to_le_bytes());
        header[off + 8..off + 16].copy_from_slice(&base.to_le_bytes());
        header[off + 16..off + 24].copy_from_slice(&cap.to_le_bytes());
    }
    file.seek(SeekFrom::Start(0))
        .and_then(|_| file.write_all(&header))
        .map_err(|e| io_err(path, e))
}

fn read_header(file: &mut File, path: &Path) -> Result<HashMap<u64, (u64, u64)>, NvmError> {
    let mut header = vec![0u8; HEADER_SIZE as usize];
    file.seek(SeekFrom::Start(0))
        .and_then(|_| file.read_exact(&mut header))
        .map_err(|e| io_err(path, e))?;
    let magic = u64::from_le_bytes(header[0..8].try_into().unwrap());
    if magic != DEV_MAGIC {
        return Err(NvmError::CorruptHeader);
    }
    let count = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
    if count > MAX_SEGMENTS {
        return Err(NvmError::CorruptHeader);
    }
    let mut segments = HashMap::with_capacity(count);
    for i in 0..count {
        let off = 16 + i * SEG_ENTRY_SIZE as usize;
        let hash = u64::from_le_bytes(header[off..off + 8].try_into().unwrap());
        let base = u64::from_le_bytes(header[off + 8..off + 16].try_into().unwrap());
        let cap = u64::from_le_bytes(header[off + 16..off + 24].try_into().unwrap());
        segments.insert(hash, (base, cap));
    }
    Ok(segments)
}

impl std::fmt::Debug for PersistDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistDevice")
            .field("path", &self.inner.path)
            .field("segments", &self.inner.segments.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScratchDir;

    fn device(name: &str) -> (PersistDevice, ScratchDir) {
        let dir = ScratchDir::new(&format!("device-{name}")).unwrap();
        let d = PersistDevice::handle(dir.path().join("pool.dev"), &PmemConfig::default()).unwrap();
        (d, dir)
    }

    #[test]
    fn segments_are_disjoint_and_aligned() {
        let (d, _t) = device("segments");
        let a = d.create_segment("a", 8192).unwrap();
        let b = d.create_segment("b", 4096).unwrap();
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 8192);
        assert_eq!(d.open_segment("a", 8192).unwrap(), a);
        assert!(d.open_segment("missing", 64).is_err());
        assert!(d.open_segment("a", 1 << 20).is_err(), "over-capacity open");
    }

    #[test]
    fn registry_shares_one_device_per_path() {
        let (d, dir) = device("registry");
        let d2 =
            PersistDevice::handle(dir.path().join("pool.dev"), &PmemConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&d.inner, &d2.inner));
        let other =
            PersistDevice::handle(dir.path().join("other.dev"), &PmemConfig::default()).unwrap();
        assert!(!Arc::ptr_eq(&d.inner, &other.inner));
    }

    #[test]
    fn segment_table_survives_reopen() {
        let dir = ScratchDir::new("device-reopen").unwrap();
        let path = dir.path().join("pool.dev");
        let base = {
            let d = PersistDevice::handle(&path, &PmemConfig::default()).unwrap();
            d.create_segment("kv/shard0", 8192).unwrap()
        };
        // Handle dropped -> registry entry dies -> reopen reads the header.
        let d = PersistDevice::handle(&path, &PmemConfig::default()).unwrap();
        assert_eq!(d.open_segment("kv/shard0", 8192).unwrap(), base);
    }

    #[test]
    fn submitted_fence_is_durable_on_return() {
        let (d, _t) = device("durable");
        let base = d.create_segment("s", 8192).unwrap();
        let line = [7u8; CACHE_LINE_SIZE];
        d.submit_fence(base, vec![(2, line)]).unwrap();
        let mut buf = [0u8; CACHE_LINE_SIZE];
        d.read_at(base, 2 * CACHE_LINE_SIZE as u64, &mut buf)
            .unwrap();
        assert_eq!(buf, line);
    }

    #[test]
    fn concurrent_fences_coalesce_into_fewer_fsyncs() {
        let telemetry = onll_telemetry::Telemetry::enabled();
        let dir = ScratchDir::new("device-coalesce").unwrap();
        let cfg = PmemConfig::default().telemetry(telemetry.clone());
        let d = PersistDevice::handle(dir.path().join("pool.dev"), &cfg).unwrap();
        let threads = 4;
        let rounds = 50u64;
        let bases: Vec<u64> = (0..threads)
            .map(|i| d.create_segment(&format!("seg{i}"), 1 << 16).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for (i, &base) in bases.iter().enumerate() {
                let d = d.clone();
                scope.spawn(move || {
                    for r in 0..rounds {
                        let line = [(i as u8) ^ (r as u8); CACHE_LINE_SIZE];
                        d.submit_fence(base, vec![(r % 8, line)]).unwrap();
                    }
                });
            }
        });
        let snap = telemetry.snapshot();
        let riders = snap.histogram("device.riders_per_fsync").unwrap();
        let total_fences = threads as u64 * rounds;
        let riders_sum = riders.mean() * riders.count as f64;
        assert!(
            (riders_sum - total_fences as f64).abs() < 0.5,
            "every fence rode exactly one batch: {riders_sum} riders for {total_fences} fences"
        );
        assert!(
            riders.count < total_fences,
            "expected some coalescing: {} batches for {} fences",
            riders.count,
            total_fences
        );
    }

    #[test]
    fn fsync_failure_poisons_device_and_fails_riders() {
        let (d, _t) = device("poison");
        let base = d.create_segment("s", 8192).unwrap();
        d.inject_fsync_errors(1);
        let line = [1u8; CACHE_LINE_SIZE];
        let err = d.submit_fence(base, vec![(0, line)]).unwrap_err();
        assert!(matches!(err, NvmError::Io { .. }), "{err:?}");
        // Poisoned: subsequent fences fail with the original cause, typed.
        let err2 = d.submit_fence(base, vec![(1, line)]).unwrap_err();
        assert!(err2.to_string().contains("injected EIO"), "{err2}");
    }
}
