//! The cost gates CI holds the update and read paths to, beyond the fence
//! bounds of `fence_bounds.rs` (≤ 1 fence per update, 0 per snapshot read).
//!
//! Deterministic gates run with the rest of the suite:
//! * allocations per single-op update (a counting global allocator);
//! * the fence-latency and combiner batch-size histograms telemetry exists
//!   to produce;
//! * per-reader values never go backwards on either read path.
//!
//! Timing gates compare two runs on the same machine in the same process, so
//! they hold on noisy hosts, but they need an optimised build and the machine
//! to themselves. They are `#[ignore]`d; run them with
//!
//! ```text
//! cargo test --release --test cost_gates -- --ignored --test-threads=1
//! ```
//!
//! `coalesced_device_amortizes_fsyncs_and_keeps_pace_with_private_files`
//! measures real `fsync`s: point `ONLL_FILE_TEST_DIR` at a disk-backed
//! directory for it.

use remembering_consistently::harness::{run_sharded_kv_workload, SubmitMode, WorkloadMix};
use remembering_consistently::nvm::{
    BackendSpec, NvmPool, PmemConfig, ScratchDir, Telemetry, TelemetrySnapshot,
};
use remembering_consistently::objects::{CounterOp, CounterRead, CounterSpec, KvOp, KvSpec};
use remembering_consistently::onll::{Durable, DurableService, OnllConfig};
use remembering_consistently::shard::{HashRouter, ShardConfig, ShardedDurable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Allocation events (alloc + realloc) of this thread. Per thread, because
    /// the harness runs this file's tests in parallel in one process.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to `System`,
// so the caller's `GlobalAlloc` contract is `System`'s; counting touches only
// a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Single-op updates per allocation scenario.
const ALLOC_OPS: usize = 200_000;

/// A pool with no fence penalty, so the hot path is pure software cost.
fn hot_pool() -> NvmPool {
    NvmPool::new(PmemConfig::with_capacity(8 << 30))
}

/// A counter whose log holds `ops` updates with no checkpointing.
fn counter(pool: NvmPool, name: &str, ops: usize) -> Durable<CounterSpec> {
    Durable::<CounterSpec>::create(pool, OnllConfig::named(name).log_capacity(ops + 2048)).unwrap()
}

/// Runs `update` `ALLOC_OPS` times and returns this thread's allocations per call.
fn allocs_per_update(mut update: impl FnMut()) -> f64 {
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ALLOC_OPS {
        update();
    }
    (ALLOCS.with(Cell::get) - before) as f64 / ALLOC_OPS as f64
}

#[test]
fn counter_single_allocates_at_most_1_05_per_update() {
    let mut handle = counter(hot_pool(), "hot-counter", ALLOC_OPS)
        .register()
        .unwrap();
    // Warm scratch buffers and map capacity outside the counted window.
    for _ in 0..1024 {
        handle.update(CounterOp::Increment);
    }
    let allocs = allocs_per_update(|| {
        handle.update(CounterOp::Increment);
    });
    // The trace node is the one allocation an update cannot avoid.
    assert!(allocs <= 1.05, "counter_single: {allocs:.3} allocs/update");
}

#[test]
fn kv_single_allocates_at_most_3_05_per_update() {
    let obj = Durable::<KvSpec>::create(
        hot_pool(),
        OnllConfig::named("hot-kv").log_capacity(ALLOC_OPS + 2048),
    )
    .unwrap();
    let mut handle = obj.register().unwrap();
    // Operations are built up front so the driver's strings are not counted.
    let mut ops = (0..ALLOC_OPS)
        .map(|i| KvOp::Put(format!("key-{}", i % 8192), format!("value-{i}")))
        .collect::<Vec<_>>()
        .into_iter();
    for i in 0..1024 {
        handle.update(KvOp::Put(format!("warm-{i}"), "x".into()));
    }
    let allocs = allocs_per_update(|| {
        handle.update(ops.next().unwrap());
    });
    assert!(allocs <= 3.05, "kv_single: {allocs:.3} allocs/update");
}

fn assert_histogram(snap: &TelemetrySnapshot, name: &str) {
    let h = snap
        .histogram(name)
        .unwrap_or_else(|| panic!("{name} was never recorded"));
    assert!(h.count > 0 && h.p99() >= h.p50(), "{name}: {h:?}");
}

#[test]
fn fence_and_batch_histograms_are_recorded() {
    let sim = Telemetry::enabled();
    let obj = counter(
        NvmPool::new(PmemConfig::with_capacity(64 << 20).telemetry(sim.clone())),
        "lat-sim",
        2_000,
    );
    let mut handle = obj.register().unwrap();
    for _ in 0..2_000 {
        handle.update(CounterOp::Increment);
    }
    assert_histogram(&sim.snapshot(), "sim.fence_ns");

    let file = Telemetry::enabled();
    let dir = ScratchDir::new("cost-gates-file").unwrap();
    let pool = NvmPool::provision(
        &BackendSpec::file(dir.path()),
        PmemConfig::with_capacity(16 << 20).telemetry(file.clone()),
        "lat-file",
    )
    .unwrap();
    let mut handle = counter(pool, "lat-file", 200).register().unwrap();
    for _ in 0..200 {
        handle.update(CounterOp::Increment);
    }
    assert_histogram(&file.snapshot(), "file.fence_ns");

    let combine = Telemetry::enabled();
    let threads = 4;
    let obj = Durable::<CounterSpec>::create(
        NvmPool::new(PmemConfig::with_capacity(64 << 20).telemetry(combine.clone())),
        OnllConfig::named("lat-combine")
            .max_processes(threads + 1)
            .log_capacity(1 << 13)
            .group_persist(threads),
    )
    .unwrap();
    let service = obj.service(threads).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let mut client = service.client().unwrap();
            scope.spawn(move || {
                for _ in 0..1_000 {
                    client.submit(CounterOp::Increment).unwrap();
                }
            });
        }
    });
    assert_histogram(&combine.snapshot(), "combine.batch_size");
}

#[test]
#[ignore = "timing gate: run in release with --test-threads=1"]
fn disabled_telemetry_overhead_within_two_percent() {
    // Paired measurement: the same update loop timed plain and with the
    // disabled call sites a stack executes per update (a fence timer, entry
    // bytes, ops per entry, counter bumps) issued once more. The difference
    // upper-bounds what the in-tree call sites cost when telemetry is off.
    // Plain and extra chunks alternate on one handle, so a noisy neighbour
    // slows both sides of a pair alike, and the median pair discards bursts.
    const CHUNK_OPS: usize = 1_000;
    const PAIRS: usize = 301;
    let obj = counter(hot_pool(), "overhead", 2 * CHUNK_OPS * PAIRS + 1024);
    let mut handle = obj.register().unwrap();
    for _ in 0..1024 {
        handle.update(CounterOp::Increment);
    }
    // Opaque to the optimiser, as a sink read from a config is: otherwise the
    // disabled calls below fold away and the gate measures nothing.
    let off = std::hint::black_box(Telemetry::disabled());
    let hist = off.histogram("gate.extra_ns");
    let calls = off.counter("gate.extra");
    let mut chunk = |extra_calls: bool| {
        let start = Instant::now();
        for _ in 0..CHUNK_OPS {
            if extra_calls {
                let timer = hist.start_timer();
                hist.record(0);
                hist.record(1);
                calls.add(1);
                calls.incr();
                timer.stop();
            }
            handle.update(CounterOp::Increment);
        }
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let plain = chunk(false);
                chunk(true) / plain
            } else {
                let extra = chunk(true);
                extra / chunk(false)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pct = ((ratios[PAIRS / 2] - 1.0) * 100.0).max(0.0);
    assert!(
        pct <= 2.0,
        "disabled-mode telemetry overhead {pct:.3}% exceeds 2%"
    );
}

/// A combining service with snapshots on, over a simulator that charges a
/// WPQ-drain-class stall per fence: the writer is fence-bound and holds the
/// commit lock for most of every batch.
fn read_service(writer_ops: usize) -> DurableService<CounterSpec> {
    let pool =
        NvmPool::new(PmemConfig::with_capacity(8 << 30).fence_penalty(Duration::from_micros(50)));
    let obj = Durable::<CounterSpec>::create(
        pool,
        // No checkpointing: the log holds the whole run, one batch per op.
        OnllConfig::named("reads")
            .max_processes(2)
            .log_capacity(writer_ops + 1024),
    )
    .unwrap();
    let service = obj.service(1).unwrap();
    service.enable_snapshots();
    service
}

/// One writer submits `writer_ops` updates while `readers` closed-loop
/// sessions (10 µs think time) read through the snapshot or the commit lock,
/// each asserting its values never go backwards. Returns `(writes/s, reads/s)`.
fn mixed_phase(
    service: &DurableService<CounterSpec>,
    readers: usize,
    writer_ops: usize,
    snapshot: bool,
) -> (f64, f64) {
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let scope_start = Instant::now();
    let write_elapsed = std::thread::scope(|scope| {
        for _ in 0..readers {
            let (service, stop, reads) = (service.clone(), &stop, &reads);
            scope.spawn(move || {
                let mut reader = snapshot.then(|| service.snapshot_reader().unwrap());
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let value = match &mut reader {
                        Some(reader) => reader.read(&CounterRead::Get),
                        None => service.read_latest(&CounterRead::Get),
                    };
                    assert!(value >= last, "reads regressed: {value} < {last}");
                    last = value;
                    reads.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(10));
                }
            });
        }
        let started = Instant::now();
        let mut writer = service.client().unwrap();
        for _ in 0..writer_ops {
            writer.submit(CounterOp::Increment).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        started.elapsed()
    });
    let read_elapsed = scope_start.elapsed();
    (
        writer_ops as f64 / write_elapsed.as_secs_f64(),
        reads.load(Ordering::Relaxed) as f64 / read_elapsed.as_secs_f64(),
    )
}

#[test]
fn reads_never_go_backwards_on_either_path() {
    for snapshot in [true, false] {
        let service = read_service(200);
        mixed_phase(&service, 2, 200, snapshot);
        service.durable().check_invariants().unwrap();
    }
}

#[test]
#[ignore = "timing gate: run in release with --test-threads=1"]
fn snapshot_reads_outscale_locked_reads_at_8_readers() {
    const WRITER_OPS: usize = 1_500;
    let (write_only, _) = mixed_phase(&read_service(WRITER_OPS), 0, WRITER_OPS, true);
    let service = read_service(2 * WRITER_OPS);
    let (mixed_writes, snapshot_reads) = mixed_phase(&service, 8, WRITER_OPS, true);
    let (_, locked_reads) = mixed_phase(&service, 8, WRITER_OPS, false);
    let ratio = snapshot_reads / locked_reads;
    assert!(
        ratio >= 3.0,
        "snapshot reads {snapshot_reads:.0}/s are {ratio:.2}x locked reads {locked_reads:.0}/s, below 3x"
    );
    let write_ratio = mixed_writes / write_only;
    assert!(
        write_ratio >= 0.9,
        "8 snapshot readers slowed the writer to {:.0}% of {write_only:.0} writes/s",
        write_ratio * 100.0
    );
}

/// Builds `history` counter increments, power-cycles, and returns the best of
/// three timed recoveries.
fn recovery_time(history: usize, checkpoints: bool) -> Duration {
    let pool = NvmPool::new(PmemConfig::with_capacity(256 << 20));
    let mut cfg = OnllConfig::named("rec")
        .max_processes(1)
        .log_capacity(history + 64);
    if checkpoints {
        cfg = cfg.checkpoint_every(256).checkpoint_slot_bytes(4096);
    }
    {
        let obj = Durable::<CounterSpec>::create(pool.clone(), cfg.clone()).unwrap();
        let mut h = obj.register().unwrap();
        for _ in 0..history {
            if checkpoints {
                h.update_with_checkpoint(CounterOp::Increment).unwrap();
            } else {
                h.update(CounterOp::Increment);
            }
        }
    }
    pool.crash_and_restart();
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let value = if checkpoints {
                let (obj, _) =
                    Durable::<CounterSpec>::recover_with_checkpoints(pool.clone(), cfg.clone())
                        .unwrap();
                obj.register().unwrap().read(&CounterRead::Get)
            } else {
                let (obj, _) = Durable::<CounterSpec>::recover(pool.clone(), cfg.clone()).unwrap();
                obj.read_latest(&CounterRead::Get)
            };
            let elapsed = start.elapsed();
            assert_eq!(value, history as i64, "recovery lost state");
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
#[ignore = "timing gate: run in release with --test-threads=1"]
fn checkpoint_recovery_is_5x_faster_than_full_replay_at_100k_ops() {
    let full = recovery_time(100_000, false);
    let tail = recovery_time(100_000, true);
    let speedup = full.as_secs_f64() / tail.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "checkpoint + tail recovery {tail:?} is only {speedup:.1}x faster than full replay {full:?}"
    );
}

/// 8 workers on a 4-shard KV store, 50% updates, groups of up to 8 per fence.
/// Returns ops/s and, on a shared device, the mean fences per `fsync`.
fn sharded_file_run(spec: BackendSpec, mode: SubmitMode) -> (f64, f64) {
    const OPS_PER_WORKER: usize = 800;
    let telemetry = Telemetry::enabled();
    let mut pmem = PmemConfig::with_capacity(1 << 30);
    if spec.is_coalesced() {
        pmem = pmem.telemetry(telemetry.clone());
    }
    let config = ShardConfig::named("gate-backend-kv")
        .shards(4)
        .base(
            OnllConfig::default()
                .max_processes(8)
                .log_capacity(4 * OPS_PER_WORKER + 1024)
                .group_persist(8),
        )
        .pmem(pmem)
        .backend(spec);
    let object = ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(4))).unwrap();
    let mix = WorkloadMix {
        update_ratio: 0.5,
        key_space: 8192,
    };
    let report = run_sharded_kv_workload(&object, 8, OPS_PER_WORKER, mix, 0xBACD, mode);
    object.check_invariants().unwrap();
    let riders = telemetry
        .snapshot()
        .histogram("device.riders_per_fsync")
        .map_or(1.0, |h| h.mean());
    (report.ops_per_sec(), riders)
}

#[test]
#[ignore = "timing gate: run in release with --test-threads=1 on a real disk"]
fn coalesced_device_amortizes_fsyncs_and_keeps_pace_with_private_files() {
    let dir = ScratchDir::new("cost-gates-backends").unwrap();
    for (tag, mode) in [
        ("individual", SubmitMode::Individual),
        ("grouped", SubmitMode::Grouped),
    ] {
        let (private, _) = sharded_file_run(BackendSpec::file(dir.path()), mode);
        let device = BackendSpec::device(dir.path().join(format!("device-{tag}.pool")));
        let (coalesced, riders) = sharded_file_run(device, mode);
        assert!(riders > 1.0, "{tag}: {riders:.2} riders per fsync");
        assert!(
            coalesced >= 0.95 * private,
            "{tag}: coalesced {coalesced:.0} ops/s lost to private files {private:.0} ops/s"
        );
    }
}
