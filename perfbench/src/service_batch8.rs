//! `service_batch8`: one `DurableService` with 8 `ServiceClient`s driven from
//! a single thread over 1k resident keys on the simulator. Each batch is 8
//! `submit_async` calls on distinct keys, one `combine_now` and the 8
//! replies; after each batch come 8 `SnapshotReader` gets, and after every
//! 32 batches, when its ops-count trigger is due, a `maybe_checkpoint`.
//! Exercises combining (one fence per 8 puts) and per-batch snapshot
//! publication.

use crate::check::{check_count, check_resolved};
use crate::measure::{keys, Rng, Samples};
use crate::{drive, Op, Params, Recovered, Replies, Run, Workload};
use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::{NvmPool, PmemConfig, ThreadStatsSnapshot};
use onll::{Durable, DurableService, OnllConfig, ServiceClient, SnapshotReader};
use std::time::{Duration, Instant};

const KEYS: usize = 1024;
const BATCH: usize = 8;
const READS_PER_BATCH: usize = 8;
/// Ops-count checkpoint trigger, in puts (32 batches).
const CHECKPOINT_EVERY: u64 = 256;
/// Batches in one checkpoint interval.
const INTERVAL_BATCHES: usize = CHECKPOINT_EVERY as usize / BATCH;
/// A segment holds a whole number of checkpoint intervals, and its last
/// checkpoint empties the log.
const SEGMENT_BATCHES: usize = 4 * INTERVAL_BATCHES;
/// Batches between a segment and the crash after it: three quarters of an
/// interval, below the checkpoint trigger, so every recovery replays the
/// same 192 puts.
const BATCHES_BEFORE_CRASH: usize = 3 * INTERVAL_BATCHES / 4;

struct Batch8 {
    pool: NvmPool,
    cfg: OnllConfig,
    service: DurableService<KvSpec>,
    clients: Vec<ServiceClient<KvSpec>>,
    reader: SnapshotReader<KvSpec>,
    calls: Calls,
}

/// Per-call timings of the measured segments, for the traced figures.
#[derive(Default)]
struct Calls {
    submit: Samples,
    pass: Samples,
    read: Samples,
    checkpoint: Samples,
    checkpoint_bytes: u64,
    /// Largest per-process log seen just before a `maybe_checkpoint`.
    max_live_bytes: u64,
}

/// Opens the service over a created or recovered store and claims the
/// clients and the snapshot reader the workload drives.
fn open(
    pool: NvmPool,
    cfg: OnllConfig,
    durable: Durable<KvSpec>,
    calls: Calls,
) -> Result<Batch8, String> {
    let service = durable.service(BATCH).map_err(|e| e.to_string())?;
    let reader = service.snapshot_reader().map_err(|e| e.to_string())?;
    let clients = (0..BATCH)
        .map(|_| service.client().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Batch8 {
        pool,
        cfg,
        service,
        clients,
        reader,
        calls,
    })
}

impl Batch8 {
    /// At most one checkpoint interval of a segment: its batches, then the
    /// check that every acknowledged identity resolves to its acknowledged
    /// value (untimed: resolving is checking), then the `maybe_checkpoint`
    /// that would make those identities unanswerable.
    fn interval(&mut self, keys: &[String], ops: &[Op], calls: &mut Calls) -> Replies {
        let mut out = Vec::with_capacity(ops.len());
        let mut acked = Vec::with_capacity(ops.len());
        let mut busy = Duration::ZERO;
        for group in ops.chunks(BATCH + READS_PER_BATCH) {
            let (puts, gets) = group.split_at(BATCH);
            let mut started = Vec::with_capacity(BATCH);
            let batch_start = Instant::now();
            for (client, op) in self.clients.iter_mut().zip(puts) {
                let update = KvOp::Put(keys[op.key].clone(), op.put.clone().expect("a put"));
                let t0 = Instant::now();
                client.submit_async(update);
                calls.submit.push(t0.elapsed());
                started.push(t0);
            }
            let t0 = Instant::now();
            let served = self.service.combine_now();
            calls.pass.push(t0.elapsed());
            check_count(
                "operations served by one combine_now",
                served as u64,
                BATCH as u64,
            )?;
            for (client, t0) in self.clients.iter_mut().zip(started) {
                let reply = client
                    .try_take_reply()
                    .ok_or("a combined put has no reply")?;
                let d = t0.elapsed();
                let (value, id) = reply.map_err(|e| format!("put: {e}"))?;
                acked.push((value.clone(), id));
                out.push((value, d));
            }
            busy += batch_start.elapsed();
            // The gets after a batch are timed as a group, each charged the
            // group's mean: one read takes about as long as the clock's
            // resolution.
            let reads: Vec<KvRead> = gets
                .iter()
                .map(|op| KvRead::Get(keys[op.key].clone()))
                .collect();
            let t0 = Instant::now();
            let values: Vec<KvValue> = reads.iter().map(|read| self.reader.read(read)).collect();
            let d = t0.elapsed();
            busy += d;
            let each = d / READS_PER_BATCH as u32;
            calls.read.push(each);
            out.extend(values.into_iter().map(|value| (value, each)));
        }
        for (value, id) in &acked {
            check_resolved(&format!("resolve {id}"), self.service.resolve(*id), value)?;
        }
        calls.max_live_bytes = calls
            .max_live_bytes
            .max(self.service.durable().max_log_live_bytes());
        let window = self.pool.stats().op_window();
        let t0 = Instant::now();
        let fired = self
            .service
            .maybe_checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let d = t0.elapsed();
        busy += d;
        if fired.is_some() {
            calls.checkpoint.push(d);
            calls.checkpoint_bytes += window.close().stored_bytes;
        }
        Ok((out, busy))
    }
}

/// `batches` batches of distinct-key puts, each followed by its gets.
fn batches(rng: &mut Rng, batches: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(batches * (BATCH + READS_PER_BATCH));
    for _ in 0..batches {
        let mut picked: Vec<usize> = Vec::with_capacity(BATCH);
        while picked.len() < BATCH {
            let key = rng.below(KEYS);
            if !picked.contains(&key) {
                picked.push(key);
            }
        }
        ops.extend(picked.into_iter().map(|key| Op {
            key,
            put: Some(rng.value()),
        }));
        ops.extend((0..READS_PER_BATCH).map(|_| Op::get(rng, KEYS)));
    }
    ops
}

impl Workload for Batch8 {
    const WARMUP_SEGMENTS: usize = 2;
    const CRASH_CYCLES: usize = 61;

    fn segment_ops(&self, rng: &mut Rng) -> Vec<Op> {
        batches(rng, SEGMENT_BATCHES)
    }

    fn crash_tail(&self, rng: &mut Rng) -> Vec<Op> {
        batches(rng, BATCHES_BEFORE_CRASH)
    }

    /// Runs a segment laid out as batches of `BATCH` puts on distinct keys,
    /// each followed by `READS_PER_BATCH` gets, with a `maybe_checkpoint`
    /// after every checkpoint interval. A put's latency runs from its submit
    /// to its reply. The pool's inherent persistent fences must equal the
    /// batches the service counted.
    fn segment(&mut self, keys: &[String], ops: &[Op], measured: bool) -> Replies {
        let mut sink = if measured {
            std::mem::take(&mut self.calls)
        } else {
            Calls::default()
        };
        let (stats0, batches0) = (self.stats(), self.service.batch_stats().0);
        let chunk = INTERVAL_BATCHES * (BATCH + READS_PER_BATCH);
        let result = ops.chunks(chunk).try_fold(
            (Vec::with_capacity(ops.len()), Duration::ZERO),
            |(mut out, busy), interval| {
                let (replies, d) = self.interval(keys, interval, &mut sink)?;
                out.extend(replies);
                Ok::<_, String>((out, busy + d))
            },
        );
        if measured {
            self.calls = sink;
        }
        let (out, busy) = result?;
        check_count(
            "inherent fences against batches",
            self.stats().delta(&stats0).inherent_fences(),
            self.service.batch_stats().0 - batches0,
        )?;
        Ok((out, busy))
    }

    fn stats(&self) -> ThreadStatsSnapshot {
        self.pool.stats().snapshot().global
    }

    fn crash_and_recover(self, probe: &str) -> Result<(Self, Recovered), String> {
        let Batch8 {
            pool,
            cfg,
            service,
            clients,
            reader,
            calls,
        } = self;
        drop(reader);
        drop(clients);
        drop(service);
        pool.crash_and_restart();
        let t0 = Instant::now();
        let (durable, report) =
            Durable::<KvSpec>::recover_with_checkpoints(pool.clone(), cfg.clone())
                .map_err(|e| e.to_string())?;
        let mut store = open(pool, cfg, durable, calls)?;
        let first = store.reader.read(&KvRead::Get(probe.into()));
        let elapsed = t0.elapsed();
        let recovered = Recovered {
            first,
            elapsed,
            replayed_ops: report.replayed_ops() as f64,
            checkpoint_index: report.checkpoint_index as f64,
        };
        Ok((store, recovered))
    }

    fn audit_get(&mut self, key: &str) -> Result<KvValue, String> {
        Ok(self.reader.read(&KvRead::Get(key.into())))
    }

    fn key_count(&mut self) -> Result<usize, String> {
        match self.reader.read(&KvRead::Len) {
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
        layers.set("core.combine.pass_ns_p50", calls.pass.quantile(0.5));
        layers.set("core.combine.submit_ns_p50", calls.submit.quantile(0.5));
        layers.set("core.snapshot.read_ns_p50", calls.read.quantile(0.5));
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
    let mut rng = Rng::new(p.seed, 2);
    let keys = keys(KEYS);
    let cfg = OnllConfig::named("batch8")
        .max_processes(BATCH + 1)
        .group_persist(BATCH)
        .log_capacity(64)
        .checkpoint_every(CHECKPOINT_EVERY)
        .checkpoint_slot_bytes(64 << 10);
    let pool = NvmPool::new(PmemConfig::with_capacity(8 << 20).telemetry(p.telemetry.clone()));
    let durable = Durable::<KvSpec>::create(pool.clone(), cfg.clone()).expect("create store");
    let mut store = open(pool, cfg, durable, Calls::default()).expect("open service");
    // The load: every key put once, in batches laid out as in a segment.
    let mut load = Vec::new();
    for first in (0..KEYS).step_by(BATCH) {
        load.extend((first..first + BATCH).map(|key| Op {
            key,
            put: Some(rng.value()),
        }));
        load.extend((0..READS_PER_BATCH).map(|_| Op::get(&mut rng, KEYS)));
    }
    let loaded = store.segment(&keys, &load, false);
    let setup = p.start.elapsed();
    drive(store, p, rng, &keys, setup, &load, loaded)
}
