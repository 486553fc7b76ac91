//! # onll-shard — horizontally partitioned durable objects
//!
//! The paper's Theorem 6.3 proves a *per-object* lower bound: every durably
//! linearizable object pays at least one persistent fence per update. That
//! bound says nothing about how many objects you run — which makes horizontal
//! partitioning the scaling axis it leaves open. This crate partitions a keyed
//! sequential specification ([`onll::KeyedSpec`]) across N fully independent
//! [`onll::Durable`] instances:
//!
//! * **Routing** ([`ShardRouter`], [`HashRouter`], [`RangeRouter`]) — every
//!   key maps to exactly one shard, deterministically, so recovery finds each
//!   key's operations where they were persisted.
//! * **Per-shard guarantees carry over** — shards share no state, so each
//!   update is one ONLL update on one shard: durably linearizable, detectably
//!   executed, at most one persistent fence; reads cost zero fences.
//! * **Fence-amortized group persist** ([`GroupPersist`],
//!   [`ShardedHandle::buffer_update`] / [`ShardedHandle::flush`]) —
//!   updates bound for the same shard coalesce into a single fuzzy-window log
//!   append: one persistent fence per *group*, amortizing the inherent cost
//!   the same way lifecycle-aware persistence amortizes retention costs.
//! * **Parallel recovery** ([`ShardedDurable::recover`]) — one thread per
//!   shard rebuilds that shard's trace from its logs; reports merge into a
//!   [`ShardRecoveryReport`].
//! * **Concurrent front-end** ([`ShardedDurable::service`],
//!   [`ShardedService`]) — one combining-commit service per shard: live
//!   client threads share single fences *within* a shard while distinct
//!   shards commit in parallel, compounding both scaling levers.
//!
//! ## Example
//!
//! ```
//! use durable_objects::{SetOp, SetRead, SetSpec, SetValue};
//! use nvm_sim::PmemConfig;
//! use onll_shard::{HashRouter, ShardConfig, ShardedDurable};
//! use std::sync::Arc;
//!
//! let config = ShardConfig::named("set")
//!     .shards(4)
//!     .pmem(PmemConfig::with_capacity(64 << 20));
//! let set = ShardedDurable::<SetSpec>::create(config.clone(), Arc::new(HashRouter::new(4))).unwrap();
//! let mut h = set.register().unwrap();
//!
//! let w = set.aggregate_window();
//! for k in 0..32 {
//!     h.update(SetOp::Add(k)); // one fence each, on the owning shard only
//! }
//! assert_eq!(w.close().persistent_fences, 32);
//! assert_eq!(h.read(&SetRead::Len), SetValue::Len(32)); // merged, zero fences
//!
//! // Crash every pool, then recover all shards in parallel.
//! let pools = set.pools().to_vec();
//! drop(h);
//! drop(set);
//! for p in &pools {
//!     p.crash_and_restart();
//! }
//! let (set, report) = ShardedDurable::<SetSpec>::recover(
//!     pools, config, Arc::new(HashRouter::new(4))).unwrap();
//! assert_eq!(report.total_replayed(), 32);
//! assert_eq!(set.read_latest(&SetRead::Len), SetValue::Len(32));
//! ```

#![warn(missing_docs)]

mod config;
mod group;
mod handle;
mod recovery;
mod router;
mod service;
mod sharded;
mod stats;

pub use config::ShardConfig;
pub use group::GroupPersist;
pub use handle::{FlushedGroups, ShardedHandle};
pub use recovery::ShardRecoveryReport;
pub use router::{HashRouter, RangeRouter, ShardRouter};
pub use service::{ShardedService, ShardedServiceClient};
pub use sharded::{CheckpointDaemon, ShardedDurable};
pub use stats::{merged_global_stats, merged_telemetry, AggregateWindow};
