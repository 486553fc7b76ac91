//! Measurement plumbing shared by the workloads: the seeded input generator,
//! latency samples, per-segment rates and the report the driver prints.

use std::time::Duration;

/// SplitMix64: a small, seedable generator, so the same `--seed` gives the
/// same inputs on every machine and every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value of 8 to 24 lowercase letters.
    pub fn value(&mut self) -> String {
        let len = 8 + self.below(17);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The fixed key set of a workload: `k000000`, `k000001`, ...
pub fn keys(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("k{i:06}")).collect()
}

/// Latency samples in nanoseconds.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((self.0.len() as f64 - 1.0) * q).round() as usize;
        self.0[rank] as f64
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// One measured segment's figures.
pub struct Segment {
    pub rate: f64,
    pub put_p50: f64,
    pub get_p50: f64,
}

/// The measured phase, kept per segment so that each reported figure is a
/// statistic over many segments rather than one long average that a single
/// stall can drag.
#[derive(Default)]
pub struct Segments {
    list: Vec<Segment>,
    pub ops: u64,
    pub busy: Duration,
}

impl Segments {
    /// Records one segment: `ops` operations whose calls took `busy` in
    /// total, with the segment's put and get latencies.
    pub fn push(&mut self, ops: u64, busy: Duration, mut puts: Samples, mut gets: Samples) {
        self.list.push(Segment {
            rate: ops as f64 / busy.as_secs_f64(),
            put_p50: puts.quantile(0.50),
            get_p50: gets.quantile(0.50),
        });
        self.ops += ops;
        self.busy += busy;
    }

    /// The median over the segments of a per-segment figure.
    pub fn median(&self, figure: impl Fn(&Segment) -> f64) -> f64 {
        median(&self.list.iter().map(figure).collect::<Vec<f64>>())
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What one workload run reports.
pub struct Report {
    pub attempted: u64,
    pub errors: Vec<String>,
    /// `(name, value, unit)`, in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The single-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            metrics.join(", ")
        )
    }
}
