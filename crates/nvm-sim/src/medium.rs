//! Where a backend's bytes live: the simulator's line maps, a private file, or
//! a segment of a shared [`PersistDevice`].
//!
//! A [`Medium`] knows how to store and load bytes, how to write lines back
//! without durability, and how to make a drained set of lines durable. It
//! knows nothing of pending sets, crashes or accounting: that is the crash
//! model, written once in [`crate::backend::Backend`].
//!
//! The file-backed media keep a process-local image of the whole pool — the
//! "cache". A `SIGKILL`ed process loses it, exactly like power loss clears a
//! CPU cache. Their fence is `pwrite` + one `fsync` (private file) or a ride
//! on the device's group commit (segment; see the `device` module docs for
//! the completion rule). Lines written back *without* a fence (eviction,
//! eager flushes, pending flushes applied at a simulated crash) reach the OS
//! page cache and so survive process death, but only the `fsync` behind a
//! persistent fence would survive power loss — the same distinction the
//! simulator draws between its cache and its durable store.

use crate::cache::{Line, LineMap, ShardedMemory};
use crate::device::{
    fsync_event, io_err, sync_file, sync_parent_dir, write_lines, write_lines_at, PersistDevice,
};
use crate::error::NvmError;
use crate::fault::{AbortPoint, FaultPlan};
use crate::layout::{PAddr, CACHE_LINE_SIZE};
use crate::policy::PmemConfig;
use onll_telemetry::Histogram;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The name the simulator reports in injected-fault errors.
const SIM_PATH: &str = "<sim>";

pub(crate) enum Medium {
    /// The simulated cache hierarchy: volatile cache and durable store as
    /// line maps.
    Sim {
        memory: ShardedMemory,
        /// Modelled drain time of the region's write-pending queue, charged
        /// per persistent fence ([`PmemConfig::fence_penalty`]).
        fence_penalty: Duration,
        /// The write-pending queue: drains on one region serialize (a DIMM has
        /// one WPQ), drains on different regions overlap.
        wpq: Mutex<()>,
        /// Wall time of every persistent fence ("sim.fence_ns").
        fence_hist: Histogram,
        /// The serialized `fence_penalty` stall ("sim.wpq_drain_ns").
        wpq_hist: Histogram,
    },
    /// A private file: fences are `pwrite` + one `fsync`.
    File {
        image: RwLock<Box<[u8]>>,
        /// The backing file; all IO seeks under this lock.
        file: Mutex<File>,
        path: PathBuf,
        /// Device work of a persistent fence — pwrites + fsync, measured after
        /// the file lock is held ("file.fence_ns").
        fence_hist: Histogram,
        /// The `fsync` alone ("file.fsync_ns").
        fsync_hist: Histogram,
        /// Wait for the file lock before a fence's IO ("file.lock_wait_ns").
        lock_wait_hist: Histogram,
    },
    /// A segment of a shared device: fences ride its group commit.
    Segment {
        image: RwLock<Box<[u8]>>,
        device: PersistDevice,
        /// The segment's offset within the device file.
        base: u64,
    },
}

impl Medium {
    pub fn sim(cfg: &PmemConfig) -> Medium {
        Medium::Sim {
            memory: ShardedMemory::new(),
            fence_penalty: cfg.fence_penalty,
            wpq: Mutex::new(()),
            fence_hist: cfg.telemetry.histogram("sim.fence_ns"),
            wpq_hist: cfg.telemetry.histogram("sim.wpq_drain_ns"),
        }
    }

    /// Creates (or truncates) the private file at `path`, all zeros.
    pub fn create_file(path: &Path, cfg: &PmemConfig) -> Result<Medium, NvmError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(cfg.capacity).map_err(|e| io_err(path, e))?;
        // fsync of the pool file alone does not make the *directory entry*
        // durable: without syncing the parent directory, a power loss right
        // after creation can forget the file existed — and with it every
        // subsequently fenced line.
        sync_parent_dir(path)?;
        Ok(Medium::file(file, path, cfg))
    }

    /// Opens the existing private file at `path`. Its image starts all zero:
    /// call [`Medium::reload`] to load the file's contents.
    pub fn open_file(path: &Path, cfg: &PmemConfig) -> Result<Medium, NvmError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        // Tolerate a file shorter than the configured capacity (e.g. created
        // with a smaller config): the missing tail reads as zero, like the
        // simulator's untouched lines.
        let disk_len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if disk_len < cfg.capacity {
            file.set_len(cfg.capacity).map_err(|e| io_err(path, e))?;
        }
        Ok(Medium::file(file, path, cfg))
    }

    fn file(file: File, path: &Path, cfg: &PmemConfig) -> Medium {
        cfg.fault_plan.arm_abort_from_env();
        Medium::File {
            image: zeroed_image(cfg),
            file: Mutex::new(file),
            path: path.to_path_buf(),
            fence_hist: cfg.telemetry.histogram("file.fence_ns"),
            fsync_hist: cfg.telemetry.histogram("file.fsync_ns"),
            lock_wait_hist: cfg.telemetry.histogram("file.lock_wait_ns"),
        }
    }

    /// The segment at `base` of `device`. Its image starts all zero: call
    /// [`Medium::reload`] to load an existing segment's contents.
    pub fn segment(device: PersistDevice, base: u64, cfg: &PmemConfig) -> Medium {
        cfg.fault_plan.arm_abort_from_env();
        Medium::Segment {
            image: zeroed_image(cfg),
            device,
            base,
        }
    }

    /// Stores `data` at `addr` in the volatile view.
    pub fn store(&self, addr: PAddr, data: &[u8]) {
        match self {
            Medium::Sim { memory, .. } => memory.store(addr, data),
            Medium::File { image, .. } | Medium::Segment { image, .. } => {
                image.write()[addr as usize..][..data.len()].copy_from_slice(data)
            }
        }
    }

    /// Loads from the volatile view.
    pub fn load(&self, addr: PAddr, buf: &mut [u8]) {
        match self {
            Medium::Sim { memory, .. } => memory.read(addr, buf),
            Medium::File { image, .. } | Medium::Segment { image, .. } => {
                buf.copy_from_slice(&image.read()[addr as usize..][..buf.len()])
            }
        }
    }

    /// Loads from the durable contents only.
    pub fn load_durable(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), NvmError> {
        match self {
            Medium::Sim { memory, .. } => {
                memory.read_durable(addr, buf);
                Ok(())
            }
            Medium::File { file, path, .. } => {
                let mut file = file.lock();
                file.seek(SeekFrom::Start(addr))
                    .and_then(|_| file.read_exact(buf))
                    .map_err(|e| io_err(path, e))
            }
            Medium::Segment { device, base, .. } => device.read_at(*base, addr, buf),
        }
    }

    /// The current volatile contents of `line`: what a flush captures.
    pub fn snapshot_line(&self, line: u64) -> Line {
        match self {
            Medium::Sim { memory, .. } => memory.snapshot_line(line),
            Medium::File { image, .. } | Medium::Segment { image, .. } => {
                image_line(&image.read(), line)
            }
        }
    }

    /// Writes the current volatile contents of `lines` (ascending) back to the
    /// durable contents, with no durability promise — a cache eviction or an
    /// eager flush. Returns the number of lines written back.
    pub fn write_back(
        &self,
        lines: impl Iterator<Item = u64>,
        faults: &FaultPlan,
    ) -> Result<u64, NvmError> {
        let image = match self {
            Medium::Sim { memory, .. } => {
                return Ok(lines.filter(|&l| memory.write_back_cached(l)).count() as u64)
            }
            Medium::File { image, .. } | Medium::Segment { image, .. } => image,
        };
        // The image stays read-locked until the lines are written, so no
        // newer store (and its fence) can land in between and be overwritten.
        let image = image.read();
        let lines: Vec<(u64, Line)> = lines.map(|l| (l, image_line(&image, l))).collect();
        if !lines.is_empty() {
            self.write_out(&lines, faults, false)?;
        }
        Ok(lines.len() as u64)
    }

    /// The fence's durability point: drains `pending` (the calling thread's
    /// flushed lines) and returns once they are durable.
    pub fn persist(
        &self,
        mut pending: MutexGuard<'_, LineMap>,
        faults: &FaultPlan,
    ) -> Result<(), NvmError> {
        match self {
            Medium::Sim {
                memory,
                fence_penalty,
                wpq,
                fence_hist,
                wpq_hist,
            } => {
                let fence_timer = fence_hist.start_timer();
                if faults.is_armed() {
                    // Sorted, so a torn prefix is replayable from the plan's
                    // seed. The drain counts as one pwrite and one fsync event.
                    let path = Path::new(SIM_PATH);
                    write_lines(path, &drain_sorted(&mut pending), faults, |run| {
                        for (line, contents) in run {
                            memory.write_back(*line, contents);
                        }
                        Ok(())
                    })?;
                    fsync_event(path, faults)?;
                } else {
                    for (line, contents) in pending.drain() {
                        memory.write_back(line, &contents);
                    }
                }
                drop(pending);
                if !fence_penalty.is_zero() {
                    let wpq_timer = wpq_hist.start_timer();
                    let _wpq = wpq.lock();
                    block_for(*fence_penalty);
                    wpq_timer.stop();
                }
                fence_timer.stop();
                Ok(())
            }
            Medium::File {
                file,
                path,
                fence_hist,
                fsync_hist,
                lock_wait_hist,
                ..
            } => {
                let lines = drain_sorted(&mut pending);
                drop(pending);
                let lock_timer = lock_wait_hist.start_timer();
                let mut file = file.lock();
                lock_timer.stop();
                let fence_timer = fence_hist.start_timer();
                let result = write_lines_at(&mut file, path, 0, &lines, faults).and_then(|_| {
                    // Same abort points as the device's group commit, so the
                    // kill-9 matrix can crash inside the pwrite→fsync window
                    // on private files too.
                    faults.abort_tick(AbortPoint::AfterPwrites);
                    let fsync_timer = fsync_hist.start_timer();
                    let synced = sync_file(&file, path, faults);
                    fsync_timer.stop();
                    synced?;
                    faults.abort_tick(AbortPoint::AfterFsync);
                    Ok(())
                });
                fence_timer.stop();
                result
            }
            Medium::Segment { device, base, .. } => {
                let lines = drain_sorted(&mut pending);
                drop(pending);
                device.submit_fence(*base, lines)
            }
        }
    }

    /// Makes the pending lines a crash kept (sorted by line index) durable,
    /// outside any commit queue: a crash must not park on a possibly
    /// poisoned one.
    pub fn settle(&self, lines: &[(u64, Line)], faults: &FaultPlan) -> Result<(), NvmError> {
        self.write_out(lines, faults, true)
    }

    /// Drops the volatile view after a crash: the simulator empties its cache,
    /// the file-backed media reload their image from the durable contents.
    pub fn reload(&self) -> Result<(), NvmError> {
        match self {
            Medium::Sim { memory, .. } => {
                memory.drop_cache();
                Ok(())
            }
            Medium::File { image, .. } | Medium::Segment { image, .. } => {
                self.load_durable(0, &mut image.write())
            }
        }
    }

    /// Writes `lines` (sorted by line index) to the durable contents, then
    /// syncs if `sync` is set. The simulator's durable map needs no IO.
    fn write_out(
        &self,
        lines: &[(u64, Line)],
        faults: &FaultPlan,
        sync: bool,
    ) -> Result<(), NvmError> {
        match self {
            Medium::Sim { memory, .. } => {
                for (line, contents) in lines {
                    memory.write_back(*line, contents);
                }
                Ok(())
            }
            Medium::File { file, path, .. } => {
                let mut file = file.lock();
                write_lines_at(&mut file, path, 0, lines, faults)?;
                if sync {
                    sync_file(&file, path, faults)?;
                }
                Ok(())
            }
            Medium::Segment { device, base, .. } if sync => device.persist_now(*base, lines),
            Medium::Segment { device, base, .. } => device.write_now(*base, lines),
        }
    }
}

fn zeroed_image(cfg: &PmemConfig) -> RwLock<Box<[u8]>> {
    RwLock::new(vec![0u8; cfg.capacity as usize].into_boxed_slice())
}

/// Line `line` of `image`, zero-padded past its end.
fn image_line(image: &[u8], line: u64) -> Line {
    let start = (line * CACHE_LINE_SIZE as u64) as usize;
    let end = (start + CACHE_LINE_SIZE).min(image.len());
    let mut out = [0u8; CACHE_LINE_SIZE];
    out[..end - start].copy_from_slice(&image[start..end]);
    out
}

/// Empties a pending set into a vector sorted by line index.
fn drain_sorted(pending: &mut LineMap) -> Vec<(u64, Line)> {
    let mut lines: Vec<(u64, Line)> = pending.drain().collect();
    lines.sort_unstable_by_key(|(line, _)| *line);
    lines
}

/// Charges a modelled latency. Short penalties spin (sub-timer-resolution
/// precision); longer ones sleep so the stalled "core" yields the host CPU —
/// on machines with fewer cores than simulated processors, spinning would make
/// every pool's stall compete for the same core and serialize globally.
fn block_for(d: Duration) {
    if d >= Duration::from_micros(10) {
        std::thread::sleep(d);
    } else {
        let start = std::time::Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}
