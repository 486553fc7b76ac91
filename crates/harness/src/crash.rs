//! Crash-injection experiments (durable linearizability under adversarial crashes).
//!
//! A [`CrashExperiment`] runs a concurrent update workload against an ONLL object,
//! records the history, injects a full-system crash after an adversarially chosen
//! number of persistence events, recovers the object, and checks Definition 5.6:
//! every completed operation is present, the recovered set is a consistent cut, the
//! recovered order respects real time, and replaying it reproduces the observed
//! return values. It also (for small histories) checks plain linearizability of the
//! pre-crash history.

use crate::history::History;
use crate::linearizability::{
    check_durable_linearizability, check_linearizability, DurabilityViolation,
};
use durable_objects::{CounterOp, CounterRead, CounterSpec};
use nvm_sim::{
    BackendSpec, CrashTrigger, NvmPool, PmemConfig, Telemetry, TelemetrySnapshot,
    ThreadStatsSnapshot,
};
use onll::{Durable, OnllConfig, OpId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one crash experiment over a durable counter.
///
/// Backend-generic: the experiment provisions its pool on
/// [`CrashExperiment::backend`], so the same adversarial crash-injection
/// machinery validates durable linearizability on the simulator *and* on the
/// file backend (where a simulated power loss drops everything that was not
/// `fsync`ed).
#[derive(Debug, Clone)]
pub struct CrashExperiment {
    /// Number of concurrent processes.
    pub threads: usize,
    /// Updates attempted per process (the crash usually interrupts them).
    pub ops_per_thread: usize,
    /// The crash fires after this many further persistence events (stores, flushes
    /// or fences across all threads) once the workload starts.
    pub crash_after_events: u64,
    /// Probability that a flush pending at crash time was nevertheless written back.
    pub apply_pending_probability: f64,
    /// Workload seed.
    pub seed: u64,
    /// Run the (exponential) linearizability checker on the pre-crash history when
    /// it is small enough.
    pub check_linearizability_limit: usize,
    /// Persistence backend the experiment's pool runs on. File-backed pools
    /// are created under the spec's directory (one file per sweep point,
    /// named from the seed and crash point) and left in place — the caller
    /// owns the directory and its cleanup.
    pub backend: BackendSpec,
    /// Telemetry sink for the experiment's pool. Disabled by default; pass
    /// [`Telemetry::enabled`] to collect fence/phase latency distributions
    /// alongside the consistency verdicts.
    pub telemetry: Telemetry,
}

impl Default for CrashExperiment {
    fn default() -> Self {
        CrashExperiment {
            threads: 3,
            ops_per_thread: 20,
            crash_after_events: 200,
            apply_pending_probability: 0.5,
            seed: 42,
            check_linearizability_limit: 14,
            backend: BackendSpec::Sim,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Outcome of a crash experiment.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Updates whose response was observed before the crash.
    pub completed_updates: usize,
    /// Updates the recovery reinstated.
    pub recovered_updates: usize,
    /// Durable-linearizability verdict (Definition 5.6).
    pub durability: Result<(), DurabilityViolation>,
    /// Plain linearizability verdict of the pre-crash history (`None` if the
    /// history was too large to check exhaustively).
    pub linearizability: Option<Result<(), String>>,
    /// Counter value read after recovery.
    pub recovered_value: i64,
    /// Whether the crash actually fired during the workload (it may not, if the
    /// trigger exceeds the workload's total events).
    pub crashed: bool,
    /// Full backend totals (stores, flushes, fences) for the whole experiment,
    /// including recovery — reproducing a randomized failure needs the complete
    /// cost picture, on either backend, not only the consistency verdicts.
    pub fence_totals: ThreadStatsSnapshot,
    /// Telemetry rollup when the experiment ran with an enabled sink.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl CrashOutcome {
    /// True if no violation of durable linearizability (or linearizability) was
    /// found.
    pub fn is_consistent(&self) -> bool {
        self.durability.is_ok() && self.linearizability.as_ref().is_none_or(|r| r.is_ok())
    }
}

impl CrashExperiment {
    /// Runs the experiment and returns its outcome.
    pub fn run(&self) -> CrashOutcome {
        let pmem = PmemConfig::with_capacity(64 << 20)
            .apply_pending_at_crash(self.apply_pending_probability)
            .crash_seed(self.seed ^ 0xBADC0FFE)
            .telemetry(self.telemetry.clone());
        // Distinct pool files per sweep point: sweeps vary crash_after_events,
        // and a stale pool from an earlier point must never be recovered.
        let label = format!("crash-counter-{}-{}", self.seed, self.crash_after_events);
        let pool =
            NvmPool::provision(&self.backend, pmem, &label).expect("provision experiment pool");
        self.run_in(pool)
    }

    /// Runs the experiment against a caller-provided pool (any backend).
    fn run_in(&self, pool: NvmPool) -> CrashOutcome {
        let cfg = OnllConfig::named("crash-counter")
            .max_processes(self.threads.max(1))
            .log_capacity(self.threads * self.ops_per_thread + 16);
        let object = Durable::<CounterSpec>::create(pool.clone(), cfg.clone()).unwrap();
        let history: History<CounterOp, CounterRead, i64> = History::new();

        pool.arm_crash(CrashTrigger::AfterEvents(self.crash_after_events));

        let mut joins = Vec::new();
        for t in 0..self.threads {
            let object = object.clone();
            let history = history.clone();
            let pool = pool.clone();
            let seed = self.seed;
            let ops = self.ops_per_thread;
            joins.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 7919));
                let mut handle = object.register().unwrap();
                for _ in 0..ops {
                    if pool.is_frozen() {
                        break;
                    }
                    let op = CounterOp::Add(rng.gen_range(1..=5));
                    let op_id = handle.peek_next_op_id();
                    let pending = history.invoke_update(handle.pid() as u32, Some(op_id), op);
                    // An update whose publish fence hit the (now frozen) crashed
                    // machine reports an error instead of a value: the operation
                    // stays invoked-but-unanswered in the history, exactly like a
                    // response observed after the freeze.
                    let value = match handle.try_update(op) {
                        Ok(value) => value,
                        Err(_) => break,
                    };
                    // Only record the response if the system had not crashed by the
                    // time the operation finished: a response "after the crash"
                    // never happened from the object's point of view.
                    if pool.is_frozen() {
                        break;
                    }
                    history.respond(pending, value);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        let crashed = pool.is_frozen();
        // Power-cycle: if the armed crash already fired, this "crashes" an already
        // dark machine (harmless — its pending flushes are already settled) and
        // restarts it; otherwise it injects the crash now.
        let token = pool.crash();
        pool.disarm_crash();
        pool.restart(token);

        drop(object);
        let (recovered, report) = Durable::<CounterSpec>::recover(pool.clone(), cfg).unwrap();
        let recovered_ids: Vec<OpId> = report.recovered_ops.iter().map(|(_, id)| *id).collect();
        let pre_crash = history.snapshot();
        let completed_updates = pre_crash.iter().filter(|r| r.is_complete()).count();
        let durability = check_durable_linearizability::<CounterSpec>(&pre_crash, &recovered_ids);
        let linearizability = if pre_crash.len() <= self.check_linearizability_limit {
            Some(check_linearizability::<CounterSpec>(&pre_crash))
        } else {
            None
        };
        let recovered_value = recovered.read_latest(&CounterRead::Get);
        let telemetry = pool.telemetry();
        CrashOutcome {
            completed_updates,
            recovered_updates: recovered_ids.len(),
            durability,
            linearizability,
            recovered_value,
            crashed,
            fence_totals: pool.stats().snapshot().global,
            telemetry: telemetry.is_enabled().then(|| telemetry.snapshot()),
        }
    }

    /// Runs the experiment for a sweep of crash points, returning all outcomes.
    /// Every outcome must be consistent for the sweep to pass.
    pub fn sweep(&self, crash_points: impl IntoIterator<Item = u64>) -> Vec<CrashOutcome> {
        crash_points
            .into_iter()
            .map(|events| {
                CrashExperiment {
                    crash_after_events: events,
                    seed: self.seed.wrapping_add(events),
                    ..self.clone()
                }
                .run()
            })
            .collect()
    }
}

/// Convenience: a quick consistency sweep used by tests and the crash example.
pub fn quick_crash_sweep(points: usize) -> Vec<CrashOutcome> {
    let exp = CrashExperiment::default();
    let sweep_points: Vec<u64> = (0..points).map(|i| 40 + 37 * i as u64).collect();
    exp.sweep(sweep_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::scratch_dir;

    #[test]
    fn single_thread_crash_is_consistent() {
        let outcome = CrashExperiment {
            threads: 1,
            ops_per_thread: 10,
            crash_after_events: 17,
            ..Default::default()
        }
        .run();
        assert!(outcome.crashed);
        assert!(outcome.is_consistent(), "{outcome:?}");
        assert!(outcome.recovered_updates >= outcome.completed_updates);
        // The backend totals ride along with the verdicts.
        assert!(outcome.fence_totals.persistent_fences > 0);
        assert!(outcome.fence_totals.stores > 0);
        assert!(outcome.telemetry.is_none());
    }

    #[test]
    fn telemetry_enabled_experiment_reports_fence_latencies() {
        let outcome = CrashExperiment {
            threads: 1,
            ops_per_thread: 10,
            crash_after_events: 1_000_000,
            telemetry: Telemetry::enabled(),
            ..Default::default()
        }
        .run();
        assert!(outcome.is_consistent(), "{outcome:?}");
        let snap = outcome.telemetry.expect("telemetry enabled");
        let fences = snap.histogram("sim.fence_ns").expect("sim fence histogram");
        assert!(fences.count >= outcome.fence_totals.persistent_fences);
    }

    #[test]
    fn concurrent_crash_is_consistent() {
        let outcome = CrashExperiment {
            threads: 3,
            ops_per_thread: 8,
            crash_after_events: 50,
            check_linearizability_limit: 0, // concurrent history; skip the exponential check
            ..Default::default()
        }
        .run();
        assert!(outcome.is_consistent(), "{outcome:?}");
    }

    #[test]
    fn sweep_of_crash_points_is_consistent() {
        for (i, outcome) in quick_crash_sweep(6).iter().enumerate() {
            assert!(outcome.is_consistent(), "sweep point {i}: {outcome:?}");
        }
    }

    #[test]
    fn file_backend_crash_sweep_is_consistent() {
        // The same adversarial machinery, durability now provided by fsync:
        // a simulated power loss drops everything that was not fenced.
        let dir = scratch_dir("crash-file-sweep").unwrap();
        let exp = CrashExperiment {
            threads: 2,
            ops_per_thread: 8,
            apply_pending_probability: 0.0,
            check_linearizability_limit: 0,
            backend: BackendSpec::file(&dir),
            ..Default::default()
        };
        for (i, outcome) in exp.sweep([30, 77, 124]).iter().enumerate() {
            assert!(outcome.is_consistent(), "file sweep point {i}: {outcome:?}");
            // Totals are carried uniformly on the file backend too.
            assert!(outcome.fence_totals.stores > 0, "file sweep point {i}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_after_workload_finishes_recovers_everything() {
        let outcome = CrashExperiment {
            threads: 2,
            ops_per_thread: 5,
            crash_after_events: 1_000_000,
            check_linearizability_limit: 0,
            ..Default::default()
        }
        .run();
        assert!(outcome.is_consistent(), "{outcome:?}");
        assert_eq!(outcome.completed_updates, 10);
        assert_eq!(outcome.recovered_updates, 10);
    }
}
