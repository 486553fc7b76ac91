//! Per-layer figures of the traced run. Each workload sets the figures its
//! layers produce; a figure a workload does not exercise (the server's read
//! time on a workload without a server, say) reads 0.

use nvm_sim::{HistogramSnapshot, TelemetrySnapshot, ThreadStatsSnapshot};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in the order `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nvm-sim.flushed_lines_per_put", "lines/put"),
    ("nvm-sim.ckpt_bytes_per_put", "bytes/put"),
    ("nvm-sim.maintenance_fences_per_put", "fences/put"),
    ("nvm-sim.fence_ns_p50", "ns"),
    ("nvm-sim.fsync_ns_p50", "ns"),
    ("persist-log.entry_bytes_p50", "bytes"),
    ("persist-log.ops_per_entry_mean", "ops/entry"),
    ("persist-log.max_live_bytes", "bytes"),
    ("core.handle.update_ns_p50", "ns"),
    ("core.handle.read_ns_p50", "ns"),
    ("core.phase.order_ns_p50", "ns"),
    ("core.phase.persist_ns_p50", "ns"),
    ("core.phase.linearize_ns_p50", "ns"),
    ("core.combine.pass_ns_p50", "ns"),
    ("core.combine.submit_ns_p50", "ns"),
    ("core.combine.batch_size_mean", "ops/batch"),
    ("core.combine.snapshot_publish_ns_p50", "ns"),
    ("core.snapshot.read_ns_p50", "ns"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.call_ns_p50", "ns"),
    ("core.checkpoint.stage_ns_p50", "ns"),
    ("core.checkpoint.publish_ns_p50", "ns"),
    ("core.checkpoint.truncate_ns_p50", "ns"),
    ("core.checkpoint.time_share", "1"),
    ("core.recovery.replayed_ops", "ops"),
    ("core.recovery.checkpoint_index", "index"),
    ("server.read_ns_p50", "ns"),
    ("server.wire_overhead_ns_p50", "ns"),
    ("telemetry.overhead_pct", "%"),
];

/// Per-layer figures by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The figures the sink's histograms give, over the measured segments.
    pub fn set_from_telemetry(&mut self, measured: &MeasuredTelemetry) {
        let hist = |name: &str| measured.histogram(name);
        let fence = if hist("file.fence_ns").count > 0 {
            hist("file.fence_ns")
        } else {
            hist("sim.fence_ns")
        };
        self.set("nvm-sim.fence_ns_p50", fence.p50() as f64);
        self.set("nvm-sim.fsync_ns_p50", hist("file.fsync_ns").p50() as f64);
        self.set(
            "persist-log.entry_bytes_p50",
            hist("log.entry_bytes").p50() as f64,
        );
        self.set(
            "persist-log.ops_per_entry_mean",
            hist("log.ops_per_entry").mean(),
        );
        self.set(
            "core.phase.order_ns_p50",
            hist("phase.order_ns").p50() as f64,
        );
        self.set(
            "core.phase.persist_ns_p50",
            hist("phase.persist_ns").p50() as f64,
        );
        self.set(
            "core.phase.linearize_ns_p50",
            hist("phase.linearize_ns").p50() as f64,
        );
        self.set(
            "core.combine.batch_size_mean",
            hist("combine.batch_size").mean(),
        );
        self.set(
            "core.combine.snapshot_publish_ns_p50",
            hist("combine.snapshot_publish_ns").p50() as f64,
        );
        self.set(
            "core.checkpoint.stage_ns_p50",
            hist("ckpt.stage_ns").p50() as f64,
        );
        self.set(
            "core.checkpoint.publish_ns_p50",
            hist("ckpt.publish_ns").p50() as f64,
        );
        self.set(
            "core.checkpoint.truncate_ns_p50",
            hist("ckpt.truncate_ns").p50() as f64,
        );
        self.set("server.read_ns_p50", hist("server.read_ns").p50() as f64);
        self.set(
            "core.checkpoint.count",
            measured.counter("ckpt.checkpoints") as f64,
        );
    }

    /// The figures the pool counters give, per measured put.
    pub fn set_from_stats(&mut self, delta: &ThreadStatsSnapshot, puts: u64) {
        let puts = puts.max(1) as f64;
        self.set(
            "nvm-sim.flushed_lines_per_put",
            delta.flushed_lines as f64 / puts,
        );
        self.set(
            "nvm-sim.maintenance_fences_per_put",
            delta.maintenance_fences as f64 / puts,
        );
    }

    /// Every per-layer metric as `(name, value, unit)`, 0 where unset.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }
}

/// The sink's histograms and counters summed over the measured segments
/// only: what warm-up, crash → recover cycles and audits record between them
/// is left out.
#[derive(Default)]
pub struct MeasuredTelemetry {
    histograms: BTreeMap<String, HistogramSnapshot>,
    counters: BTreeMap<String, u64>,
}

impl MeasuredTelemetry {
    /// Adds what the sink recorded between `before` and `after`.
    pub fn add(&mut self, before: &TelemetrySnapshot, after: &TelemetrySnapshot) {
        for h in &after.histograms {
            let mut delta = h.clone();
            if let Some(b) = before.histogram(&h.name) {
                for (d, b) in delta.buckets.iter_mut().zip(b.buckets.iter()) {
                    *d -= b;
                }
                delta.count -= b.count;
                delta.sum = delta.sum.wrapping_sub(b.sum);
            }
            self.histograms
                .entry(h.name.clone())
                .or_insert_with(|| HistogramSnapshot::empty(&h.name))
                .merge(&delta);
        }
        for c in &after.counters {
            let earlier = before.counter(&c.name).map_or(0, |b| b.value);
            *self.counters.entry(c.name.clone()).or_default() += c.value - earlier;
        }
    }

    fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .get(name)
            .cloned()
            .unwrap_or_else(|| HistogramSnapshot::empty(name))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}
