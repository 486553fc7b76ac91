//! End-to-end durability demonstration on the file backend: a KV store that
//! survives a **real** process death.
//!
//! Unlike every simulator-based crash test, this binary's incarnations share
//! nothing but the on-disk pool. A supervisor (the kill-9 test suite, or a
//! human) runs it in `run` mode, `SIGKILL`s it at an arbitrary point, then
//! re-execs it in `resume` or `verify` mode; recovery replays the fsync'd
//! persist-logs (plus the newest valid checkpoint, if enabled) from the file.
//!
//! Modes (all take `--dir`, `--seed`, `--ops`):
//!
//! * `run` — create a fresh store and apply the deterministic workload,
//!   acknowledging each operation on stdout (`ACK <k> <pid> <seq>`).
//! * `resume` — recover the store and continue the workload where the durable
//!   prefix ends.
//! * `verify` — recover the store, report the durable prefix, every recovered
//!   operation identity (`ROP <pid> <seq> <idx>`) and the state digest.
//!
//! Standalone demo:
//!
//! ```text
//! cargo run --bin real_restart -- run --dir /tmp/rr --seed 7 --ops 500 &
//! sleep 0.05 && kill -9 $!
//! cargo run --bin real_restart -- verify --dir /tmp/rr --seed 7 --ops 500
//! ```

use remembering_consistently::harness::telemetry_histogram_table;
use remembering_consistently::nvm::{BackendSpec, NvmPool, PmemConfig, Telemetry};
use remembering_consistently::objects::{KvRead, KvSpec, KvValue};
use remembering_consistently::onll::{Durable, OnllConfig, RecoveryReport};
use remembering_consistently::restart_protocol as proto;
use std::io::Write;

struct Args {
    mode: String,
    dir: String,
    seed: u64,
    ops: u64,
    checkpoint_every: u64,
    telemetry: bool,
    coalesce: bool,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage("missing mode"));
    let mut parsed = Args {
        mode,
        dir: String::new(),
        seed: 42,
        ops: 1000,
        checkpoint_every: 0,
        telemetry: false,
        coalesce: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage("missing flag value"));
        match flag.as_str() {
            "--telemetry" => parsed.telemetry = true,
            "--coalesce" => parsed.coalesce = true,
            "--dir" => parsed.dir = value(),
            "--seed" => parsed.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--ops" => parsed.ops = value().parse().unwrap_or_else(|_| usage("bad --ops")),
            "--checkpoint-every" => {
                parsed.checkpoint_every = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --checkpoint-every"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if parsed.dir.is_empty() {
        usage("--dir is required");
    }
    parsed
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: real_restart <run|resume|verify> --dir DIR [--seed N] [--ops N] [--checkpoint-every N] [--telemetry] [--coalesce]"
    );
    std::process::exit(2);
}

/// The object's name, which is also its pool's label on the backend.
const NAME: &str = "restart-kv";

fn backend(args: &Args) -> BackendSpec {
    // `--coalesce` places the pool on a shared group-commit device file whose
    // fences go through the persist executor (coalesced fsyncs); the default
    // is a private file with one fsync per fence. Both modes honor
    // `ONLL_DEVICE_ABORT` for the kill-9 coalescing-window matrix.
    if args.coalesce {
        BackendSpec::device(std::path::Path::new(&args.dir).join("restart-kv.device"))
    } else {
        BackendSpec::file(&args.dir)
    }
}

fn config(args: &Args) -> OnllConfig {
    let mut cfg = OnllConfig::named(NAME)
        .max_processes(2)
        .log_capacity(args.ops as usize + 16);
    if args.checkpoint_every > 0 {
        cfg = cfg
            .checkpoint_every(args.checkpoint_every)
            .checkpoint_slot_bytes(64 * 1024);
    }
    cfg
}

fn pmem(telemetry: &Telemetry) -> PmemConfig {
    // Fixed 64 MiB: enough for the matrix's largest runs (the log *capacity*
    // scales with --ops via config(), the pool just needs to hold it), and
    // the backing file is sparse anyway.
    PmemConfig::with_capacity(64 << 20).telemetry(telemetry.clone())
}

/// Prints the run's latency distributions to **stderr**: the supervisor parses
/// stdout line by line, so telemetry must never interleave with the protocol.
fn report_telemetry(telemetry: &Telemetry) {
    if telemetry.is_enabled() {
        let snap = telemetry.snapshot();
        eprint!(
            "{}",
            telemetry_histogram_table("real_restart telemetry (ns)", &snap).render()
        );
        eprintln!("TELEMETRY_JSON {}", snap.to_json());
    }
}

/// Emits one protocol line, flushed immediately: a line the supervisor has
/// *read* must have been fully emitted before the process died.
fn emit(line: std::fmt::Arguments<'_>) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{line}").expect("stdout closed");
    out.flush().expect("stdout flush failed");
}

fn apply_workload(args: &Args, object: &Durable<KvSpec>, start: u64) {
    let mut handle = object.register().expect("register handle");
    for k in start..args.ops {
        let op = proto::op_for(args.seed, k);
        let op_id = handle.peek_next_op_id();
        emit(format_args!("INV {k} {} {}", op_id.pid, op_id.seq));
        let result = if args.checkpoint_every > 0 {
            handle.update_with_checkpoint(op)
        } else {
            handle.try_update(op)
        };
        result.expect("update failed");
        emit(format_args!("ACK {k} {} {}", op_id.pid, op_id.seq));
    }
    emit(format_args!("DONE {}", args.ops));
}

fn recover(
    args: &Args,
    telemetry: &Telemetry,
) -> Result<(Durable<KvSpec>, RecoveryReport), String> {
    let pool = NvmPool::reopen(&backend(args), pmem(telemetry), NAME).map_err(|e| e.to_string())?;
    Durable::<KvSpec>::recover_with_checkpoints(pool, config(args)).map_err(|e| e.to_string())
}

fn main() {
    let args = parse_args();
    let telemetry = if args.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    match args.mode.as_str() {
        "run" => {
            let pool = NvmPool::provision(&backend(&args), pmem(&telemetry), NAME)
                .expect("provision file-backed pool");
            let object =
                Durable::<KvSpec>::create(pool, config(&args)).expect("create file-backed store");
            emit(format_args!("READY create"));
            apply_workload(&args, &object, 0);
            report_telemetry(&telemetry);
        }
        "resume" => match recover(&args, &telemetry) {
            Ok((object, report)) => {
                emit(format_args!(
                    "READY recover {} {}",
                    report.durable_index,
                    report.replayed_ops()
                ));
                apply_workload(&args, &object, report.durable_index);
                report_telemetry(&telemetry);
            }
            Err(e) => {
                emit(format_args!("NOSTORE {e}"));
                std::process::exit(3);
            }
        },
        "verify" => match recover(&args, &telemetry) {
            Ok((object, report)) => {
                emit(format_args!("RECOVERED {}", report.durable_index));
                emit(format_args!("CHECKPOINT {}", report.checkpoint_index));
                for (idx, op_id) in &report.recovered_ops {
                    emit(format_args!("ROP {} {} {idx}", op_id.pid, op_id.seq));
                }
                let digest = proto::digest_via(|key| match object.read_latest(&KvRead::Get(key)) {
                    KvValue::Value(v) => v,
                    KvValue::Len(_) => None,
                });
                emit(format_args!("DIGEST {digest:#018x}"));
                report_telemetry(&telemetry);
            }
            Err(e) => {
                emit(format_args!("NOSTORE {e}"));
                std::process::exit(3);
            }
        },
        other => usage(&format!("unknown mode {other}")),
    }
}
