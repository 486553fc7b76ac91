//! Multi-threaded stress: several OS threads hammering one `Durable<S>` and
//! one `ShardedDurable<KvSpec>`, on both backends, validated with the
//! Wing&Gong checker on *bounded windows*.
//!
//! The exhaustive checker is exponential, so an unbounded multi-threaded
//! history is uncheckable. Instead the run quiesces between windows: all
//! threads join, the post-window state is read at the quiescent point, and
//! the next window is checked against a history seeded with synthetic
//! base operations encoding that state (sound because every operation of
//! window `i` responds before any operation of window `i+1` is invoked).
//!
//! Every assertion carries the workload seed (override with `STRESS_SEED`),
//! so any violation is reproducible from the failure output alone.

use remembering_consistently::harness::{
    check_linearizability, run_sharded_kv_workload, History, OpRecord, SubmitMode, WorkloadMix,
};
use remembering_consistently::nvm::{BackendSpec, NvmPool, PmemConfig, ScratchDir};
use remembering_consistently::objects::{
    CounterOp, CounterRead, CounterSpec, KvOp, KvRead, KvSpec, KvValue,
};
use remembering_consistently::onll::{Durable, OnllConfig};
use remembering_consistently::shard::{HashRouter, ShardConfig, ShardedDurable};
use std::sync::Arc;

const THREADS: usize = 4;
const WINDOWS: usize = 6;
const OPS_PER_THREAD: usize = 2;
const KEY_SPACE: u64 = 4;

fn seed() -> u64 {
    match std::env::var("STRESS_SEED") {
        Ok(v) => v.parse().expect("STRESS_SEED must be a u64"),
        Err(_) => 0xDECAF,
    }
}

/// xorshift-ish per-(seed, window, thread, op) deterministic value.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15);
    z ^= b.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= c.wrapping_mul(0x94D049BB133111EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

fn backend_for(label: &str, file: bool) -> (BackendSpec, Option<ScratchDir>) {
    if file {
        let dir = ScratchDir::new(label).unwrap();
        (BackendSpec::file(dir.path()), Some(dir))
    } else {
        (BackendSpec::Sim, None)
    }
}

/// THREADS threads hammer one `Durable<CounterSpec>`; each window's history
/// is checked with Wing&Gong against a base op encoding the quiescent value.
fn stress_counter(file: bool) {
    let seed = seed();
    let label = format!("stress-counter seed={seed} file={file}");
    let (spec, _cleanup) = backend_for("stress-counter", file);
    let cfg = OnllConfig::named("stress-counter")
        .max_processes(THREADS)
        .log_capacity(THREADS * WINDOWS * OPS_PER_THREAD + 16);
    let pool = NvmPool::provision(
        &spec,
        PmemConfig::with_capacity(32 << 20).apply_pending_at_crash(0.0),
        &cfg.name,
    )
    .unwrap_or_else(|e| panic!("{label}: provision failed: {e}"));
    let object = Durable::<CounterSpec>::create(pool, cfg)
        .unwrap_or_else(|e| panic!("{label}: create failed: {e}"));

    let mut quiescent_value = 0i64;
    let mut expected_total = 0i64;
    for window in 0..WINDOWS {
        let history: History<CounterOp, CounterRead, i64> = History::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let object = object.clone();
                let history = history.clone();
                scope.spawn(move || {
                    let mut handle = object.handle_for(t).expect("claim slot");
                    for k in 0..OPS_PER_THREAD {
                        let r = mix(seed, window as u64, t as u64, k as u64);
                        if r.is_multiple_of(4) {
                            let pending = history.invoke_read(t as u32, CounterRead::Get);
                            let v = handle.read(&CounterRead::Get);
                            history.respond(pending, v);
                        } else {
                            let amount = (r % 9) as i64 - 4;
                            let op = CounterOp::Add(amount);
                            let id = handle.peek_next_op_id();
                            let pending = history.invoke_update(t as u32, Some(id), op);
                            let v = handle.update(op);
                            history.respond(pending, v);
                        }
                    }
                });
            }
        });
        // Quiescent: every window op has responded. Seed the next check with
        // the exact current value as one synthetic completed base update.
        let mut records = history.snapshot();
        for r in &records {
            if let remembering_consistently::harness::EventKind::Update {
                op: CounterOp::Add(a),
                ..
            } = &r.kind
            {
                expected_total += a;
            }
        }
        let base: OpRecord<CounterOp, CounterRead, i64> = OpRecord {
            pid: u32::MAX,
            op_id: None,
            invoked_at: 0,
            responded_at: Some(0),
            kind: remembering_consistently::harness::EventKind::Update {
                op: CounterOp::Add(quiescent_value),
                value: None,
            },
        };
        records.insert(0, base);
        check_linearizability::<CounterSpec>(&records).unwrap_or_else(|e| {
            panic!("{label}: window {window} not linearizable: {e}");
        });
        quiescent_value = object.read_latest(&CounterRead::Get);
    }
    assert_eq!(
        quiescent_value, expected_total,
        "{label}: final value diverges from the applied updates"
    );
    object
        .check_invariants()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Encodes a quiescent KV state as synthetic completed Puts preceding the
/// window's real operations.
fn kv_base_records(state: &[(String, String)]) -> Vec<OpRecord<KvOp, KvRead, KvValue>> {
    state
        .iter()
        .enumerate()
        .map(|(i, (k, v))| OpRecord {
            pid: u32::MAX,
            op_id: None,
            invoked_at: i as u64,
            responded_at: Some(i as u64),
            kind: remembering_consistently::harness::EventKind::Update {
                op: KvOp::Put(k.clone(), v.clone()),
                value: None,
            },
        })
        .collect()
}

/// THREADS threads hammer one `ShardedDurable<KvSpec>` with keyed ops; each
/// window is checked with Wing&Gong against the quiescent map contents.
fn stress_sharded_kv(file: bool) {
    let seed = seed();
    let label = format!("stress-sharded-kv seed={seed} file={file}");
    let (spec, _cleanup) = backend_for("stress-sharded-kv", file);
    let config = ShardConfig::named("stress-kv")
        .shards(2)
        .base(
            remembering_consistently::onll::OnllConfig::default()
                .max_processes(THREADS + 1)
                .log_capacity(THREADS * WINDOWS * OPS_PER_THREAD + 16),
        )
        .pmem(PmemConfig::with_capacity(64 << 20).apply_pending_at_crash(0.0))
        .backend(spec);
    let object = ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(2)))
        .unwrap_or_else(|e| panic!("{label}: create failed: {e}"));

    let mut quiescent: Vec<(String, String)> = Vec::new();
    for window in 0..WINDOWS {
        let history: History<KvOp, KvRead, KvValue> = History::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let object = object.clone();
                let history = history.clone();
                scope.spawn(move || {
                    let mut handle = object.register().expect("register");
                    for k in 0..OPS_PER_THREAD {
                        let r = mix(seed, window as u64, t as u64 + 100, k as u64);
                        let key = format!("key-{}", r % KEY_SPACE);
                        match r % 4 {
                            0 => {
                                let read = KvRead::Get(key);
                                let pending = history.invoke_read(t as u32, read.clone());
                                let v = handle.read(&read);
                                history.respond(pending, v);
                            }
                            1 => {
                                let op = KvOp::Delete(key);
                                let pending = history.invoke_update(t as u32, None, op.clone());
                                let v = handle.update(op);
                                history.respond(pending, v);
                            }
                            _ => {
                                let op = KvOp::Put(key, format!("v{}", r >> 32));
                                let pending = history.invoke_update(t as u32, None, op.clone());
                                let v = handle.update(op);
                                history.respond(pending, v);
                            }
                        }
                    }
                });
            }
        });
        let mut records = kv_base_records(&quiescent);
        let offset = records.len() as u64 + 1;
        for mut r in history.snapshot() {
            r.invoked_at += offset;
            r.responded_at = r.responded_at.map(|t| t + offset);
            records.push(r);
        }
        check_linearizability::<KvSpec>(&records).unwrap_or_else(|e| {
            panic!("{label}: window {window} not linearizable: {e}");
        });
        // Re-read the quiescent state for the next window's base.
        quiescent = (0..KEY_SPACE)
            .filter_map(|i| {
                let key = format!("key-{i}");
                match object.read_latest(&KvRead::Get(key.clone())) {
                    KvValue::Value(Some(v)) => Some((key, v)),
                    _ => None,
                }
            })
            .collect();
    }
    object
        .check_invariants()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn counter_stress_sim_backend() {
    stress_counter(false);
}

#[test]
fn counter_stress_file_backend() {
    stress_counter(true);
}

#[test]
fn sharded_kv_stress_sim_backend() {
    stress_sharded_kv(false);
}

#[test]
fn sharded_kv_stress_file_backend() {
    stress_sharded_kv(true);
}

/// The harness workload driver at higher thread counts (8), on both backends:
/// totals must add up, fence bounds must hold in aggregate, and the report
/// must carry the seed that reproduces the run.
#[test]
fn workload_driver_reports_reproducible_seed() {
    for file in [false, true] {
        let seed = seed();
        let label = format!("driver seed={seed} file={file}");
        let (spec, _cleanup) = backend_for("stress-driver", file);
        let config = ShardConfig::named("driver-kv")
            .shards(2)
            .base(
                remembering_consistently::onll::OnllConfig::default()
                    .max_processes(8)
                    .log_capacity(4096),
            )
            .pmem(PmemConfig::with_capacity(128 << 20).apply_pending_at_crash(0.0))
            .backend(spec);
        let object = ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(2)))
            .unwrap_or_else(|e| panic!("{label}: create failed: {e}"));
        let ops = if file { 40 } else { 200 };
        let report = run_sharded_kv_workload(
            &object,
            8,
            ops,
            WorkloadMix::with_update_percent(50),
            seed,
            SubmitMode::Individual,
        );
        assert_eq!(report.seed, seed, "{label}: report must carry the seed");
        assert_eq!(report.backend, if file { "file" } else { "sim" }, "{label}");
        assert_eq!(report.total_ops, 8 * ops as u64, "{label}");
        assert_eq!(
            report.persistent_fences, report.updates,
            "{label}: individual submission is exactly one fence per update"
        );
        object
            .check_invariants()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
