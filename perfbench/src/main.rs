//! The ONLL cost benchmark: three closed-loop workloads, each checked against
//! an independent model, each printing the end-to-end metrics (untraced run)
//! or the per-layer metrics (traced run) as one JSON line.
//!
//! ```text
//! onll-perfbench --workload handle_bigstate|service_batch8|server_1conn
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! See README.md for the workloads, the metrics and what each layer figure
//! should move.

mod check;
mod handle_bigstate;
mod layers;
mod measure;
mod server_1conn;
mod service_batch8;

use check::{check_recovered, check_value, model_put, Model};
use durable_objects::KvValue;
use layers::{Layers, MeasuredTelemetry};
use measure::{median, Report, Rng, Samples, Segments};
use nvm_sim::{Telemetry, ThreadStatsSnapshot};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload is given.
pub struct Params {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// The sink every layer records into: disabled for end-to-end runs.
    pub telemetry: Telemetry,
    /// Process start, from which set-up time is taken.
    pub start: Instant,
    /// Scratch directory inside the checkout, for file-backed pools.
    pub dir: PathBuf,
}

/// One operation of a workload: a put of a value, or a get, on `keys[key]`.
pub struct Op {
    pub key: usize,
    pub put: Option<String>,
}

impl Op {
    pub fn put(rng: &mut Rng, keys: usize) -> Op {
        Op {
            key: rng.below(keys),
            put: Some(rng.value()),
        }
    }

    pub fn get(rng: &mut Rng, keys: usize) -> Op {
        Op {
            key: rng.below(keys),
            put: None,
        }
    }

    /// `puts` puts and `gets` gets on random keys, in random order.
    pub fn mix(rng: &mut Rng, keys: usize, puts: usize, gets: usize) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..puts).map(|_| Op::put(rng, keys)).collect();
        ops.extend((0..gets).map(|_| Op::get(rng, keys)));
        rng.shuffle(&mut ops);
        ops
    }

    /// Every key put once, in key order: a workload's initial load.
    pub fn load(rng: &mut Rng, keys: usize) -> Vec<Op> {
        (0..keys)
            .map(|key| Op {
                key,
                put: Some(rng.value()),
            })
            .collect()
    }
}

/// The replies to a run of operations, each with the latency its caller saw,
/// and the time spent inside the program's calls.
pub type Replies = Result<(Vec<(KvValue, Duration)>, Duration), String>;

/// What one crash → recover cycle measured.
pub struct Recovered {
    /// The recovered store's answer to the first read.
    pub first: KvValue,
    /// From the start of recovery to that answer.
    pub elapsed: Duration,
    pub replayed_ops: f64,
    pub checkpoint_index: f64,
}

/// One workload, as [`drive`] runs it: the workload owns its store, its
/// per-call timers and its own per-segment checks; the driver owns the
/// model, the segment loop, the crash → recover cycles and the audit.
pub trait Workload: Sized {
    /// Unmeasured segments before the measured phase.
    const WARMUP_SEGMENTS: usize;
    /// Crash → recover cycles per run, spread evenly over the measured phase.
    const CRASH_CYCLES: usize;

    /// The operations of one segment.
    fn segment_ops(&self, rng: &mut Rng) -> Vec<Op>;

    /// The operations acknowledged between a segment and the crash after
    /// it, so that every recovery replays the same log tail.
    fn crash_tail(&self, rng: &mut Rng) -> Vec<Op>;

    /// Runs `ops` in order and applies the workload's own per-segment
    /// checks. Per-call timings count towards the traced figures only when
    /// `measured`.
    fn segment(&mut self, keys: &[String], ops: &[Op], measured: bool) -> Replies;

    /// The store's pool counters, summed over its pools.
    fn stats(&self) -> ThreadStatsSnapshot;

    /// Crashes the store, recovers it and reads `probe` from it.
    fn crash_and_recover(self, probe: &str) -> Result<(Self, Recovered), String>;

    /// One read of the audit after a recovery.
    fn audit_get(&mut self, key: &str) -> Result<KvValue, String>;

    /// The number of keys the store holds.
    fn key_count(&mut self) -> Result<usize, String>;

    /// The workload's end-of-run checks and its per-layer figures.
    fn finish(self, run: &mut Run);
}

/// What one workload run measured.
pub struct Run {
    pub setup: Duration,
    pub segments: Segments,
    pub measured_puts: u64,
    /// Pool counters over the measured segments.
    pub stats: ThreadStatsSnapshot,
    pub recoveries_ms: Vec<f64>,
    /// Per crash → recover cycle, from the recovery report.
    pub replayed_ops: Vec<f64>,
    pub checkpoint_index: Vec<f64>,
    pub attempted: u64,
    pub errors: Vec<String>,
    pub layers: Layers,
}

impl Run {
    fn new(setup: Duration) -> Run {
        Run {
            setup,
            segments: Segments::default(),
            measured_puts: 0,
            stats: ThreadStatsSnapshot::default(),
            recoveries_ms: Vec::new(),
            replayed_ops: Vec::new(),
            checkpoint_index: Vec::new(),
            attempted: 0,
            errors: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Checks a segment's replies against the model, in the order the
    /// operations were issued, and records its latencies and its rate (`ops`
    /// over `busy`, the time spent inside the program's calls) when the
    /// segment is measured (not warm-up).
    fn settle(
        &mut self,
        model: &mut Model,
        keys: &[String],
        ops: &[Op],
        replies: Replies,
        measured: bool,
    ) {
        let (out, busy) = match replies {
            Ok(replies) => replies,
            Err(e) => return self.errors.push(e),
        };
        if out.len() != ops.len() {
            self.errors.push(format!(
                "segment answered {} of {} operations",
                out.len(),
                ops.len()
            ));
        }
        let (mut puts, mut gets) = (Samples::default(), Samples::default());
        for (op, (got, d)) in ops.iter().zip(&out) {
            let key = &keys[op.key];
            let error = match &op.put {
                Some(value) => {
                    puts.push(*d);
                    check_value("put", key, got, model_put(model, key, value).as_ref())
                }
                None => {
                    gets.push(*d);
                    check_value("get", key, got, model.get(key))
                }
            };
            self.errors.extend(error.err());
        }
        self.attempted += ops.len() as u64;
        if measured {
            self.measured_puts += puts.len() as u64;
            self.segments.push(ops.len() as u64, busy, puts, gets);
        }
    }

    /// One crash → recover cycle: the tail's puts, a crash, recovery up to
    /// the first read, then an audit of the whole store against the model.
    fn crash_cycle<W: Workload>(
        &mut self,
        w: W,
        model: &mut Model,
        keys: &[String],
        rng: &mut Rng,
    ) -> Option<W> {
        let mut w = w;
        let tail = w.crash_tail(rng);
        let replies = w.segment(keys, &tail, false);
        self.settle(model, keys, &tail, replies, false);
        let probe = &keys[rng.below(keys.len())];
        let (mut w, recovered) = match w.crash_and_recover(probe) {
            Ok(recovered) => recovered,
            Err(e) => {
                self.errors.push(format!("recovery: {e}"));
                return None;
            }
        };
        self.recoveries_ms
            .push(recovered.elapsed.as_secs_f64() * 1e3);
        self.replayed_ops.push(recovered.replayed_ops);
        self.checkpoint_index.push(recovered.checkpoint_index);
        self.errors.extend(
            check_value(
                "first read after recovery",
                probe,
                &recovered.first,
                model.get(probe),
            )
            .err(),
        );
        let audit = w
            .key_count()
            .and_then(|len| check_recovered("recovered store", model, |k| w.audit_get(k), len));
        self.errors.extend(audit.err());
        self.attempted += model.len() as u64 + 2;
        Some(w)
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let puts = self.measured_puts.max(1) as f64;
        vec![
            ("setup_s", self.setup.as_secs_f64(), "s"),
            ("ops_per_s", self.segments.median(|s| s.rate), "1/s"),
            (
                "put_p50_us",
                self.segments.median(|s| s.put_p50) / 1e3,
                "us",
            ),
            (
                "get_p50_us",
                self.segments.median(|s| s.get_p50) / 1e3,
                "us",
            ),
            (
                "fences_per_put",
                self.stats.inherent_fences() as f64 / puts,
                "fences/put",
            ),
            (
                "pmem_bytes_per_put",
                self.stats.stored_bytes as f64 / puts,
                "bytes/put",
            ),
            ("recovery_ms", median(&self.recoveries_ms), "ms"),
        ]
    }

    fn report(mut self, metrics: Vec<(&'static str, f64, &'static str)>) -> Report {
        if self.segments.ops == 0 {
            self.errors.push("no measured segment completed".into());
        }
        Report {
            attempted: self.attempted.max(1),
            errors: self.errors,
            metrics,
        }
    }
}

/// Runs a loaded workload: warm-up segments, then measured segments until
/// `p.seconds` have passed, with `W::CRASH_CYCLES` crash → recover cycles
/// spread evenly over that time (so a stretch of load from elsewhere on the
/// machine touches the recoveries and the segments alike). `setup` is the
/// time from process start to the end of the load, whose operations and
/// replies are `load` and `loaded`.
pub fn drive<W: Workload>(
    mut w: W,
    p: &Params,
    mut rng: Rng,
    keys: &[String],
    setup: Duration,
    load: &[Op],
    loaded: Replies,
) -> Run {
    let mut run = Run::new(setup);
    let mut model = Model::new();
    run.settle(&mut model, keys, load, loaded, false);
    let mut telemetry = MeasuredTelemetry::default();
    let mut segment = 0;
    let mut measuring: Option<Instant> = None;
    let mut cycles = 0;
    while run.errors.is_empty() {
        if segment == W::WARMUP_SEGMENTS {
            measuring = Some(Instant::now());
        }
        let elapsed = measuring.map(|t| t.elapsed());
        if elapsed.is_some_and(|e| e >= p.seconds) {
            break;
        }
        // The cycles fall at the middles of `W::CRASH_CYCLES` equal slices
        // of the measured phase.
        if let Some(e) = elapsed {
            let share = e.as_secs_f64() / p.seconds.as_secs_f64();
            let due = (share * W::CRASH_CYCLES as f64 + 0.5) as usize;
            if cycles < due {
                cycles += 1;
                match run.crash_cycle(w, &mut model, keys, &mut rng) {
                    Some(next) => w = next,
                    None => return run,
                }
                continue;
            }
        }
        let measured = segment >= W::WARMUP_SEGMENTS;
        segment += 1;
        let ops = w.segment_ops(&mut rng);
        let (stats0, tel0) = (w.stats(), p.telemetry.snapshot());
        let replies = w.segment(keys, &ops, measured);
        run.settle(&mut model, keys, &ops, replies, measured);
        if measured {
            run.stats = run.stats.merge(&w.stats().delta(&stats0));
            telemetry.add(&tel0, &p.telemetry.snapshot());
        }
    }
    // Cycles the measured phase had no time left for.
    while cycles < W::CRASH_CYCLES && run.errors.is_empty() {
        cycles += 1;
        match run.crash_cycle(w, &mut model, keys, &mut rng) {
            Some(next) => w = next,
            None => return run,
        }
    }
    run.layers.set_from_telemetry(&telemetry);
    let stats = run.stats;
    run.layers.set_from_stats(&stats, run.measured_puts);
    run.layers
        .set("core.recovery.replayed_ops", median(&run.replayed_ops));
    run.layers.set(
        "core.recovery.checkpoint_index",
        median(&run.checkpoint_index),
    );
    w.finish(&mut run);
    run
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: onll-perfbench --workload handle_bigstate|service_batch8|server_1conn \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad {flag} {value}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1),
            "--trace" => args.trace = number() == 1,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn run_workload(name: &str, params: &Params) -> Run {
    match name {
        "handle_bigstate" => handle_bigstate::run(params),
        "service_batch8" => service_batch8::run(params),
        "server_1conn" => server_1conn::run(params),
        other => usage(&format!("unknown workload {other}")),
    }
}

fn main() {
    let start = Instant::now();
    let args = parse_args();
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    let params = |seconds: u64, telemetry: Telemetry| Params {
        seed: args.seed,
        seconds: Duration::from_secs(seconds),
        telemetry,
        start,
        dir: dir.clone(),
    };

    let report = if !args.trace {
        let run = run_workload(&args.workload, &params(args.seconds, Telemetry::disabled()));
        let metrics = run.end_to_end();
        run.report(metrics)
    } else {
        // Traced run: half the time untraced, half with the sink on; the
        // difference in throughput is the cost of tracing.
        let half = args.seconds.div_ceil(2);
        let plain = run_workload(&args.workload, &params(half, Telemetry::disabled()));
        let mut traced = run_workload(&args.workload, &params(half, Telemetry::enabled()));
        let rate = |r: &Run| r.segments.median(|s| s.rate);
        let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
        traced.layers.set(
            "telemetry.overhead_pct",
            100.0 * (plain_rate - traced_rate) / plain_rate,
        );
        traced.errors.extend(plain.errors);
        traced.attempted += plain.attempted;
        let metrics = traced.layers.metrics();
        let report = traced.report(metrics);
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, report.to_json() + "\n").expect("write trace output");
        eprintln!("per-layer figures written to {}", path.display());
        report
    };
    for error in report.errors.iter().take(20) {
        eprintln!("CHECK FAILED: {error}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:40} {value:>16.3} {unit}");
    }
    println!("{}", report.to_json());
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}
