//! # nvm-sim — simulated persistent memory
//!
//! This crate provides the persistent-memory substrate used by the reproduction of
//! *The Inherent Cost of Remembering Consistently* (SPAA 2018). The paper's cost
//! model (Section 2.1) is:
//!
//! * Stores are satisfied in the (volatile) CPU cache; they are **not** durable.
//! * `flush` (`clwb`/`clflushopt`) initiates an asynchronous write-back of a cache
//!   line. Its cost is considered **zero** because it does not stall the CPU.
//! * `fence` stalls until all of the calling thread's pending asynchronous
//!   write-backs complete. A fence executed while at least one flush is pending is
//!   a **persistent fence** — the expensive operation whose count the paper bounds.
//! * On a full-system crash the contents of caches and registers are lost; only
//!   data that reached the NVM survives.
//!
//! The simulator implements exactly this model in software so that
//!
//! 1. persistent fences are *countable* per thread and per operation
//!    ([`FenceStats`], [`OpWindow`]), which is what Theorems 5.1 and 6.3 are about;
//! 2. crashes are *injectable* at adversarially chosen points
//!    ([`NvmPool::crash`], [`CrashTrigger`], [`CrashToken`]) so durable
//!    linearizability can be tested deterministically, which real hardware
//!    does not allow;
//! 3. the guarantees an algorithm relies on can be made *minimal* via
//!    [`WritebackPolicy`] — e.g. under [`WritebackPolicy::OnlyOnFence`] nothing is
//!    durable unless it was explicitly flushed *and* fenced.
//!
//! The model is written once, in the crate's backend, and holds on every
//! medium a pool can live on ([`BackendSpec`]): the simulator, a private file
//! (`pwrite` + `fsync`, recovery across real process restarts) or a segment
//! of a shared [`PersistDevice`] (fences coalesce into one `fsync`). The
//! backend's rustdoc (`backend.rs`) states the six-item crash-semantics
//! contract every medium upholds.
//!
//! The entry point is [`NvmPool`]: raw load/store/flush/fence plus a
//! persistent allocator and named roots that survive crashes.
//!
//! ```
//! use nvm_sim::{NvmPool, PmemConfig};
//!
//! let pool = NvmPool::new(PmemConfig::default());
//! let addr = pool.alloc(64).unwrap();
//! pool.write_u64(addr, 42);
//! pool.flush(addr, 8);
//! pool.fence().unwrap();
//! let _token = pool.crash(); // lose the cache, keep durable contents
//! assert_eq!(pool.read_u64(addr), 42);
//! assert!(pool.stats().persistent_fences() >= 1);
//! ```

#![warn(missing_docs)]

mod armed;
mod backend;
mod cache;
mod device;
mod error;
mod fault;
mod layout;
mod medium;
mod policy;
mod pool;
mod stats;
mod thread_slot;

pub use armed::CrashTrigger;
pub use backend::{scratch_dir, BackendSpec, CrashToken, ScratchDir};
pub use device::{PersistDevice, DEVICE_ABORT_ENV};
pub use error::NvmError;
pub use fault::{error_is_transient, message_is_transient, FaultKind, FaultPlan, FaultRule};
pub use layout::{line_index, line_offset, line_range, PAddr, CACHE_LINE_SIZE};
pub use policy::{PmemConfig, WritebackPolicy};
pub use pool::{NvmPool, RootId, MAX_ROOTS};
pub use stats::{FenceStats, MaintenanceScope, OpWindow, StatsSnapshot, ThreadStatsSnapshot};
pub use thread_slot::{current_thread_slot, MAX_THREAD_SLOTS};

pub use onll_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Telemetry, TelemetrySnapshot,
};
