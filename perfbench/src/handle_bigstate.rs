//! `handle_bigstate`: one `ProcessHandle` on the simulator with zero fence
//! penalty over 100k resident keys, 90% puts and 10% local-view gets, with
//! the ops-count checkpoint trigger on. The paper's one-fence update path
//! with no combining, snapshot or wire, plus checkpoint and recovery work
//! that grows with the resident state.

use crate::check::check_count;
use crate::measure::{keys, Rng, Samples};
use crate::{drive, Op, Params, Recovered, Replies, Run, Workload};
use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::{NvmPool, PmemConfig, ThreadStatsSnapshot};
use onll::{Durable, OnllConfig, ProcessHandle};
use std::time::{Duration, Instant};

const KEYS: usize = 100_000;
/// Ops-count checkpoint trigger, in puts.
const CHECKPOINT_EVERY: u64 = 2048;
/// The log holds 32k entries, so the initial bulk load can defer its
/// checkpoints: it asks for one every `LOAD_CHECKPOINT_EVERY` puts (four in
/// all) instead of after every put, and set-up time is mostly puts rather
/// than checkpoints of a growing map.
const LOG_CAPACITY: usize = 32 * 1024;
const LOAD_CHECKPOINT_EVERY: usize = 24 * 1024;
/// A segment holds a whole number of checkpoint intervals, so every segment
/// pays exactly the same number of checkpoints. The load leaves 1696 puts
/// after its last checkpoint, and every segment after it ends at the same
/// point of the interval, so a crash after any segment replays 1696 puts.
const SEGMENT_PUTS: usize = 4 * CHECKPOINT_EVERY as usize;
const SEGMENT_GETS: usize = SEGMENT_PUTS / 9;

struct BigState {
    pool: NvmPool,
    cfg: OnllConfig,
    durable: Durable<KvSpec>,
    handle: ProcessHandle<KvSpec>,
    calls: Calls,
}

/// Per-call timings of the measured segments, for the traced figures.
#[derive(Default)]
struct Calls {
    update: Samples,
    read: Samples,
    checkpoint: Samples,
    checkpoint_bytes: u64,
    max_live_bytes: u64,
}

impl BigState {
    /// The initial bulk load: every key put once, with a `maybe_checkpoint`
    /// every `LOAD_CHECKPOINT_EVERY` puts.
    fn load(&mut self, keys: &[String], ops: &[Op]) -> Replies {
        let mut out = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let update = KvOp::Put(keys[op.key].clone(), op.put.clone().expect("a put"));
            let prev = self
                .handle
                .try_update(update)
                .map_err(|e| format!("load: {e}"))?;
            if (i + 1) % LOAD_CHECKPOINT_EVERY == 0 {
                self.handle
                    .maybe_checkpoint()
                    .map_err(|e| format!("load checkpoint: {e}"))?;
            }
            out.push((prev, Duration::ZERO));
        }
        Ok((out, Duration::ZERO))
    }
}

impl Workload for BigState {
    const WARMUP_SEGMENTS: usize = 2;
    const CRASH_CYCLES: usize = 15;

    fn segment_ops(&self, rng: &mut Rng) -> Vec<Op> {
        Op::mix(rng, KEYS, SEGMENT_PUTS, SEGMENT_GETS)
    }

    fn crash_tail(&self, _rng: &mut Rng) -> Vec<Op> {
        Vec::new()
    }

    /// A put is the update plus the checkpoint its trigger may ask for; a
    /// get runs inside a fence window that must stay empty; the segment's
    /// inherent fences must equal its puts.
    fn segment(&mut self, keys: &[String], ops: &[Op], measured: bool) -> Replies {
        let before = self.stats();
        let mut unmeasured = Calls::default();
        let calls = if measured {
            &mut self.calls
        } else {
            &mut unmeasured
        };
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            let key = keys[op.key].clone();
            calls.max_live_bytes = calls.max_live_bytes.max(self.durable.max_log_live_bytes());
            let window = self.pool.stats().op_window();
            match &op.put {
                Some(value) => {
                    let update = KvOp::Put(key, value.clone());
                    let t0 = Instant::now();
                    let prev = self
                        .handle
                        .try_update(update)
                        .map_err(|e| format!("put: {e}"))?;
                    let t1 = Instant::now();
                    let fired = self
                        .handle
                        .maybe_checkpoint()
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    let t2 = Instant::now();
                    calls.update.push(t1 - t0);
                    if fired.is_some() {
                        calls.checkpoint.push(t2 - t1);
                        calls.checkpoint_bytes += window.close().stored_bytes;
                    }
                    out.push((prev, t2 - t0));
                }
                None => {
                    let read = KvRead::Get(key);
                    let t0 = Instant::now();
                    let value = self.handle.read(&read);
                    let d = t0.elapsed();
                    check_count("fences in a get window", window.close().fences, 0)?;
                    calls.read.push(d);
                    out.push((value, d));
                }
            }
        }
        let puts = ops.iter().filter(|op| op.put.is_some()).count() as u64;
        let fences = self.stats().delta(&before).inherent_fences();
        check_count("inherent fences in a segment", fences, puts)?;
        let busy = out.iter().map(|(_, d)| *d).sum();
        Ok((out, busy))
    }

    fn stats(&self) -> ThreadStatsSnapshot {
        self.pool.stats().snapshot().global
    }

    fn crash_and_recover(self, probe: &str) -> Result<(Self, Recovered), String> {
        let BigState {
            pool,
            cfg,
            durable,
            handle,
            calls,
        } = self;
        drop(handle);
        drop(durable);
        pool.crash_and_restart();
        let t0 = Instant::now();
        let (durable, report) =
            Durable::<KvSpec>::recover_with_checkpoints(pool.clone(), cfg.clone())
                .map_err(|e| e.to_string())?;
        let mut handle = durable.register().map_err(|e| e.to_string())?;
        let first = handle.read(&KvRead::Get(probe.into()));
        let elapsed = t0.elapsed();
        let recovered = Recovered {
            first,
            elapsed,
            replayed_ops: report.replayed_ops() as f64,
            checkpoint_index: report.checkpoint_index as f64,
        };
        let store = BigState {
            pool,
            cfg,
            durable,
            handle,
            calls,
        };
        Ok((store, recovered))
    }

    fn audit_get(&mut self, key: &str) -> Result<KvValue, String> {
        Ok(self.handle.read(&KvRead::Get(key.into())))
    }

    fn key_count(&mut self) -> Result<usize, String> {
        match self.handle.read(&KvRead::Len) {
            KvValue::Len(n) => Ok(n),
            other => Err(format!("length read returned {other:?}")),
        }
    }

    fn finish(mut self, run: &mut Run) {
        let calls = &mut self.calls;
        let layers = &mut run.layers;
        let puts = run.measured_puts.max(1) as f64;
        layers.set("persist-log.max_live_bytes", calls.max_live_bytes as f64);
        layers.set(
            "nvm-sim.ckpt_bytes_per_put",
            calls.checkpoint_bytes as f64 / puts,
        );
        layers.set("core.handle.update_ns_p50", calls.update.quantile(0.5));
        layers.set("core.handle.read_ns_p50", calls.read.quantile(0.5));
        layers.set(
            "core.checkpoint.call_ns_p50",
            calls.checkpoint.quantile(0.5),
        );
        layers.set(
            "core.checkpoint.time_share",
            calls.checkpoint.sum_ns() as f64 / run.segments.busy.as_nanos().max(1) as f64,
        );
    }
}

pub fn run(p: &Params) -> Run {
    let mut rng = Rng::new(p.seed, 1);
    let keys = keys(KEYS);
    let cfg = OnllConfig::named("bigstate")
        .max_processes(1)
        .log_capacity(LOG_CAPACITY)
        .checkpoint_every(CHECKPOINT_EVERY)
        .checkpoint_slot_bytes(4 << 20);
    let pool = NvmPool::new(PmemConfig::with_capacity(32 << 20).telemetry(p.telemetry.clone()));
    let durable = Durable::<KvSpec>::create(pool.clone(), cfg.clone()).expect("create store");
    let handle = durable.register().expect("register handle");
    let mut store = BigState {
        pool,
        cfg,
        durable,
        handle,
        calls: Calls::default(),
    };
    let load = Op::load(&mut rng, KEYS);
    let loaded = store.load(&keys, &load);
    let setup = p.start.elapsed();
    drive(store, p, rng, &keys, setup, &load, loaded)
}
