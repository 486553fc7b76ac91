//! # remembering-consistently
//!
//! Umbrella crate for the reproduction of *The Inherent Cost of Remembering
//! Consistently* (Cohen, Guerraoui, Zablotchi — SPAA 2018).
//!
//! This crate re-exports the workspace members so examples and integration tests
//! can use a single dependency. The pieces are:
//!
//! * [`nvm`] — the persistence substrate: `NvmPool` over one backend that
//!   implements the paper's crash model (flush/fence, write-back policies,
//!   crash injection, fence statistics) on three media — a simulator, a
//!   private file (`pwrite` + `fsync`, recovery across real process restarts)
//!   and a segment of a shared group-commit device.
//! * [`plog`] — the single-persistent-fence per-process append-only log
//!   (Cohen et al., OOPSLA 2017) the construction relies on.
//! * [`trace`] — the transient lock-free execution trace with available flags and
//!   fuzzy window (Listing 2 of the paper).
//! * [`onll`] — the ONLL universal construction itself (Listings 3–5), including
//!   detectable execution, local-view reads, checkpoint/reclamation and the
//!   wait-free variant.
//! * [`objects`] — durable objects derived from the construction (counter,
//!   register, stack, queue, set, key-value map, append-log).
//! * [`baselines`] — comparison implementations (transient, naive flush-per-write,
//!   write-ahead log, lock-based flat combining).
//! * [`harness`] — workloads, history recording, (durable-)linearizability
//!   checking, crash-injection orchestration and the Theorem 6.3 adversarial
//!   scheduler.
//! * [`shard`] — horizontally partitioned durable objects: keyed routing over
//!   N independent ONLL instances, fence-amortized group persist, parallel
//!   recovery.
//! * [`server`] — TCP front-end over the sharded combining service: a
//!   length-prefixed wire protocol with client-assigned operation identities,
//!   so a reconnecting client resolves and replays unacknowledged operations
//!   exactly once across server crashes.
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for the
//! experiment inventory.

pub mod restart_protocol;

pub use baselines;
pub use durable_objects as objects;
pub use exec_trace as trace;
pub use harness;
pub use nvm_sim as nvm;
pub use onll;
pub use onll_server as server;
pub use onll_shard as shard;
pub use persist_log as plog;

/// Convenience prelude pulling in the types most examples need.
pub mod prelude {
    pub use crate::nvm::{
        BackendSpec, FenceStats, NvmPool, PmemConfig, Telemetry, TelemetrySnapshot, WritebackPolicy,
    };
}
