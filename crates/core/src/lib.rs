//! # onll — Order Now, Linearize Later
//!
//! A reproduction of the universal construction from *The Inherent Cost of
//! Remembering Consistently* (Cohen, Guerraoui, Zablotchi — SPAA 2018).
//!
//! Given a deterministic sequential specification of an object
//! ([`SequentialSpec`]), ONLL produces a **lock-free, durably linearizable**
//! implementation ([`Durable`]) that issues **at most one persistent fence per
//! update operation and zero per read-only operation** — matching the paper's
//! Theorem 5.1 upper bound, which is tight by its Theorem 6.3 lower bound. The
//! construction additionally provides *detectable execution*: after a crash,
//! [`Durable::was_linearized`] tells whether a given operation took effect.
//!
//! An update proceeds in three stages:
//!
//! 1. **Order** — a descriptor is appended to a shared, transient, lock-free
//!    execution trace, fixing the operation's linearization *order* (crate
//!    [`exec_trace`]).
//! 2. **Persist** — the operation and the unpersisted operations ordered before it
//!    (the *fuzzy window*) are appended to the process's private persistent log,
//!    with a single persistent fence (crate [`persist_log`]).
//! 3. **Linearize** — the descriptor's *available* flag is set; the operation (and
//!    any helped predecessors) become visible to readers.
//!
//! Read-only operations traverse the trace to the latest available descriptor and
//! compute their value from the corresponding prefix — no NVM access, no fences.
//!
//! ## Quick example
//!
//! ```
//! use nvm_sim::{NvmPool, PmemConfig};
//! use onll::{Durable, OnllConfig, OpCodec, SequentialSpec};
//!
//! // A sequential counter specification.
//! struct Counter(u64);
//! #[derive(Debug, Clone, PartialEq)]
//! struct Inc;
//! impl OpCodec for Inc {
//!     const MAX_ENCODED_SIZE: usize = 1;
//!     fn encode(&self, buf: &mut Vec<u8>) { buf.push(1); }
//!     fn decode(b: &[u8]) -> Option<Self> { (b == [1]).then_some(Inc) }
//! }
//! impl SequentialSpec for Counter {
//!     type UpdateOp = Inc;
//!     type ReadOp = ();
//!     type Value = u64;
//!     fn initialize() -> Self { Counter(0) }
//!     fn apply(&mut self, _: &Inc) -> u64 { self.0 += 1; self.0 }
//!     fn read(&self, _: &()) -> u64 { self.0 }
//! }
//!
//! let pool = NvmPool::new(PmemConfig::default());
//! let counter = Durable::<Counter>::create(pool.clone(), OnllConfig::named("ctr")).unwrap();
//! let mut h = counter.register().unwrap();
//!
//! let w = pool.stats().op_window();
//! assert_eq!(h.update(Inc), 1);          // one persistent fence
//! assert_eq!(h.read(&()), 1);            // zero persistent fences
//! assert_eq!(w.close().persistent_fences, 1);
//!
//! // Crash and recover: the increment survives.
//! drop(h);
//! drop(counter);
//! pool.crash_and_restart();
//! let (counter, report) = Durable::<Counter>::recover(pool, OnllConfig::named("ctr")).unwrap();
//! assert_eq!(report.durable_index, 1);
//! assert_eq!(counter.read_latest(&()), 1);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod combine;
mod config;
mod construction;
mod error;
mod handle;
mod hooks;
mod local_view;
mod op_id;
pub mod phase_spans;
mod snapshot;
mod spec;

pub use combine::{DurableService, ServiceClient, SnapshotReader};
pub use config::OnllConfig;
pub use construction::{Durable, RecoveryReport};
pub use error::OnllError;
pub use handle::ProcessHandle;
pub use hooks::{Hooks, Phase};
pub use local_view::LocalView;
pub use op_id::{OpId, Record, ResolveOutcome};
pub use snapshot::{ReadSnapshot, SnapshotGuard};
pub use spec::{replay, KeyedSpec, OpCodec, SequentialSpec, SnapshotSpec};
