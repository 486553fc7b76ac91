//! # onll-telemetry — zero-overhead-when-off metrics for the ONLL stack
//!
//! The paper's argument is about *where* the inherent cost of durable
//! linearizability lands: one persistent fence per detectable update. Fence
//! *counts* are already first-class in this repo (`FenceStats`, `FenceAudit`);
//! this crate adds the missing dimension — *how long* things take and *how
//! big* they are — without perturbing the hot path it measures.
//!
//! ## Model
//!
//! A [`Telemetry`] value is a cheap, cloneable handle to a metric sink. It
//! has exactly two states:
//!
//! * **Disabled** ([`Telemetry::disabled`], the default): the handle holds no
//!   allocation. Every metric handle it creates is a no-op; recording is a
//!   single branch on a `None`. Layers guard their `Instant::now()` calls on
//!   [`Telemetry::is_enabled`] / [`Histogram::is_enabled`], so a disabled
//!   sink costs neither time reads nor atomics. The workspace's
//!   `disabled_telemetry_overhead_within_two_percent` test
//!   (`tests/cost_gates.rs`) holds this contract: < 2% hot-path overhead
//!   with telemetry disabled.
//! * **Enabled** ([`Telemetry::enabled`]): metrics register lazily by name in
//!   a `Mutex`-protected map (locked at *registration* only, never while
//!   recording) and hand out lock-free handles.
//!
//! ## Metric kinds
//!
//! * [`Counter`] — monotone sum, one cache-line-padded slot per thread;
//!   `add` is a relaxed `fetch_add` on the calling thread's own line.
//! * [`Gauge`] — a single last-written value (`store`), for quantities that
//!   are already global (bytes live in a log, etc.).
//! * [`Histogram`] — log2-bucketed distribution with per-thread padded slots
//!   (the same pattern nvm-sim's `FenceStats` uses), merged on snapshot;
//!   reports count/sum/max and p50/p90/p99 at power-of-two resolution.
//!
//! ## What the stack records (when enabled)
//!
//! | layer | metrics |
//! |---|---|
//! | nvm-sim (sim) | `sim.fence_ns`, `sim.wpq_drain_ns` |
//! | nvm-sim (file) | `file.fence_ns`, `file.fsync_ns` |
//! | persist-log | `log.entry_bytes`, `log.ops_per_entry` |
//! | core phases | `phase.order_ns`, `phase.persist_ns`, `phase.linearize_ns`, `phase.response_ns`, `phase.update_ns` |
//! | core/combine | `combine.batch_size`, `combine.submit_ns`, `combine.resolve_hits`, `combine.resolve_misses`, `combine.snapshot_publish_ns`, `combine.snapshot_clones` |
//! | checkpoint | `ckpt.stage_ns`, `ckpt.publish_ns`, `ckpt.truncate_ns`, `ckpt.truncated_bytes` |
//!
//! [`Telemetry::snapshot`] freezes everything into a [`TelemetrySnapshot`],
//! which merges across shards, serializes to JSON ([`TelemetrySnapshot::to_json`])
//! and renders as tables in the harness.

#![warn(missing_docs)]

mod hist;
mod slot;
mod snapshot;

pub use hist::{bucket_index, bucket_upper_bound, HistogramSnapshot, NUM_BUCKETS};
pub use slot::{telemetry_thread_slot, MAX_TELEMETRY_SLOTS};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, TelemetrySnapshot};

use hist::HistogramCore;
use slot::telemetry_thread_slot as thread_slot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One thread's padded counter cell.
#[derive(Default)]
#[repr(align(128))]
struct PaddedCell(AtomicU64);

struct CounterCore {
    per_thread: Box<[PaddedCell]>,
}

impl CounterCore {
    fn new() -> Self {
        CounterCore {
            per_thread: (0..MAX_TELEMETRY_SLOTS)
                .map(|_| PaddedCell::default())
                .collect(),
        }
    }

    #[inline]
    fn add(&self, n: u64) {
        self.per_thread[thread_slot()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A monotone counter handle. No-op when its [`Telemetry`] is disabled.
#[derive(Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// A permanently disabled counter.
    pub fn disabled() -> Self {
        Counter::default()
    }

    /// True if recording reaches a live sink.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Adds `n` (relaxed, contention-free per thread).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.core {
            core.add(n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter(enabled={})", self.is_enabled())
    }
}

/// A last-value gauge handle. No-op when its [`Telemetry`] is disabled.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A permanently disabled gauge.
    pub fn disabled() -> Self {
        Gauge::default()
    }

    /// True if recording reaches a live sink.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge(enabled={})", self.is_enabled())
    }
}

/// A log-bucketed histogram handle. No-op when its [`Telemetry`] is disabled.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A permanently disabled histogram.
    pub fn disabled() -> Self {
        Histogram::default()
    }

    /// True if recording reaches a live sink. Call sites that need an
    /// `Instant::now()` to produce the value should check this first so a
    /// disabled sink skips the clock read too.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.record(value);
        }
    }

    /// Starts a stopwatch bound to this histogram; [`Stopwatch::stop`]
    /// records the elapsed nanoseconds. Reads the clock only when enabled.
    #[inline]
    pub fn start_timer(&self) -> Stopwatch {
        Stopwatch {
            start: self.core.as_ref().map(|_| Instant::now()),
            hist: self.clone(),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(enabled={})", self.is_enabled())
    }
}

/// A running timer from [`Histogram::start_timer`]. Dropping it without
/// calling [`Stopwatch::stop`] records nothing.
pub struct Stopwatch {
    start: Option<Instant>,
    hist: Histogram,
}

impl Stopwatch {
    /// Stops the timer and records the elapsed nanoseconds (no-op when the
    /// histogram is disabled).
    #[inline]
    pub fn stop(self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// The live registry behind an enabled [`Telemetry`]. Name lookups lock a
/// `Mutex`, so layers resolve their handles once (at construction) and record
/// through the lock-free handles afterwards.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCore>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A cheap, cloneable handle to a metric sink — the `TelemetrySink` of the
/// stack. Defaults to disabled; see the crate docs for the full contract.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A disabled sink: every metric handle is a no-op (the default).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live sink with an empty registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// True if this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Identity of the underlying sink (0 when disabled). Clones share an
    /// identity; use it to deduplicate before merging snapshots from pools
    /// that may share one sink (the per-shard pools of a partitioned
    /// `PmemConfig` all record into the same registry).
    pub fn sink_id(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |reg| Arc::as_ptr(reg) as usize)
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            core: self.inner.as_ref().map(|reg| {
                reg.counters
                    .lock()
                    .unwrap()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(CounterCore::new()))
                    .clone()
            }),
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|reg| {
                reg.gauges
                    .lock()
                    .unwrap()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                    .clone()
            }),
        }
    }

    /// Resolves (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            core: self.inner.as_ref().map(|reg| {
                reg.histograms
                    .lock()
                    .unwrap()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new()))
                    .clone()
            }),
        }
    }

    /// Freezes every registered metric into a [`TelemetrySnapshot`]
    /// (empty when disabled).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(reg) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        TelemetrySnapshot {
            counters: reg
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, core)| CounterSnapshot {
                    name: name.clone(),
                    value: core.sum(),
                })
                .collect(),
            gauges: reg
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(name, cell)| GaugeSnapshot {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                })
                .collect(),
            histograms: reg
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, core)| core.snapshot(name))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Telemetry(enabled={})", self.is_enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_empty() {
        let t = Telemetry::default();
        assert!(!t.is_enabled());
        let c = t.counter("x");
        assert!(!c.is_enabled());
        c.incr(); // must be a no-op, not a panic
        t.histogram("h").record(5);
        t.gauge("g").set(9);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn counters_sum_across_threads() {
        let t = Telemetry::enabled();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = t.counter("ops");
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot().counter("ops").unwrap().value, 400);
    }

    #[test]
    fn same_name_resolves_to_same_metric() {
        let t = Telemetry::enabled();
        t.counter("n").add(2);
        t.counter("n").add(3);
        assert_eq!(t.snapshot().counter("n").unwrap().value, 5);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let t = Telemetry::enabled();
        let g = t.gauge("depth");
        g.set(10);
        g.set(4);
        assert_eq!(t.snapshot().gauge("depth").unwrap().value, 4);
    }

    #[test]
    fn stopwatch_records_elapsed() {
        let t = Telemetry::enabled();
        let h = t.histogram("lat");
        let sw = h.start_timer();
        std::thread::sleep(std::time::Duration::from_millis(1));
        sw.stop();
        let snap = t.snapshot();
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 1);
        assert!(lat.max >= 1_000_000, "slept >= 1ms, recorded {}", lat.max);
    }

    #[test]
    fn disabled_stopwatch_reads_no_clock() {
        let h = Histogram::disabled();
        h.start_timer().stop(); // no panic, nothing recorded
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter("c").incr();
        assert_eq!(t2.snapshot().counter("c").unwrap().value, 1);
    }
}
