//! # harness — experiment infrastructure for the SPAA 2018 reproduction
//!
//! This crate contains everything needed to *exercise and check* the ONLL
//! construction and its baselines:
//!
//! * [`adapter`] — adapters presenting ONLL process handles through the common
//!   [`baselines::DurableObject`] interface, so identical workloads drive every
//!   implementation.
//! * [`workload`] — deterministic workload generators (update/read mixes, key
//!   distributions) used by benchmarks and stress tests.
//! * [`history`] — concurrent history recording (invocations, responses, values,
//!   per-process order).
//! * [`linearizability`] — a Wing&Gong-style linearizability checker for small
//!   histories against any [`onll::SequentialSpec`], plus the durable-
//!   linearizability (consistent-cut) checks of Definition 5.6.
//! * [`crash`] — crash-injection orchestration: run a concurrent workload, stop the
//!   world at an adversarially chosen persistence event, recover, and verify.
//! * [`lower_bound`] — the Theorem 6.3 adversarial schedule: every process runs an
//!   update solo and is preempted just before its response (or first fence), and
//!   each must be observed to issue at least one persistent fence.
//! * [`fence_audit`] — helpers asserting the Theorem 5.1 per-operation fence bounds
//!   over arbitrary workloads, including the amortized bounds of cross-thread
//!   combining front-ends.
//! * [`concurrent`] — multi-threaded merged fence audits for the
//!   combining-commit service ([`onll::DurableService`]) and the baselines it
//!   is compared against.
//! * [`sharded`] — multi-threaded drivers and aggregate fence audits for
//!   [`onll_shard::ShardedDurable`] objects (the bounds must hold across all
//!   shard pools at once).
//! * [`report`] — plain-text table rendering for example output.

#![warn(missing_docs)]

pub mod adapter;
pub mod concurrent;
pub mod crash;
pub mod fence_audit;
pub mod history;
pub mod linearizability;
pub mod lower_bound;
pub mod report;
pub mod sharded;
pub mod workload;

pub use adapter::{CheckpointingOnllAdapter, OnllAdapter, ServiceClientAdapter};
pub use concurrent::audit_concurrent_workload;
pub use crash::{quick_crash_sweep, CrashExperiment, CrashOutcome};
pub use fence_audit::{audit_fence_bounds, FenceAudit};
pub use history::{Event, EventKind, History, OpRecord};
pub use linearizability::{
    check_durable_linearizability, check_linearizability, DurabilityViolation,
};
pub use lower_bound::{run_lower_bound_experiment, LowerBoundReport};
pub use report::{telemetry_histogram_table, Table};
pub use sharded::{audit_sharded_fence_bounds, run_sharded_kv_workload, RunReport, SubmitMode};
pub use workload::{Workload, WorkloadMix, WorkloadOp};
