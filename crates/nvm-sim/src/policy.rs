//! Write-back policies and simulator configuration.

use crate::fault::FaultPlan;
use onll_telemetry::Telemetry;
use std::time::Duration;

/// Governs when dirty or flush-pending cache lines reach the durable backing store.
///
/// The choice of policy changes *what survives a crash*, which is exactly the degree
/// of freedom real hardware has. Algorithms must be correct under every policy; the
/// most adversarial one for finding missing flushes/fences is
/// [`WritebackPolicy::OnlyOnFence`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WritebackPolicy {
    /// A line becomes durable only when it has been flushed **and** a subsequent
    /// fence by the flushing thread has drained it. Dirty-but-unflushed lines and
    /// flushed-but-unfenced lines are lost on crash.
    ///
    /// This is the minimal guarantee of the paper's model and the default.
    #[default]
    OnlyOnFence,
    /// A flush immediately writes the line back (as if the asynchronous write-back
    /// completed instantly). Fences still count, but a crash between flush and fence
    /// loses nothing. Useful to check that algorithms do not *depend* on data being
    /// delayed.
    EagerOnFlush,
    /// Like [`WritebackPolicy::OnlyOnFence`], but in addition every store may, with
    /// the given probability, be immediately written back to the durable store —
    /// modelling arbitrary cache eviction. Algorithms must tolerate *early*
    /// persistence of any written line.
    RandomEviction {
        /// Probability in `[0, 1]` that a stored line is immediately evicted to NVM.
        probability: f64,
        /// Seed for the deterministic eviction RNG.
        seed: u64,
    },
}

impl WritebackPolicy {
    /// True if stores may spontaneously become durable before a fence.
    pub fn allows_spontaneous_writeback(&self) -> bool {
        matches!(
            self,
            WritebackPolicy::EagerOnFlush | WritebackPolicy::RandomEviction { .. }
        )
    }
}

/// Configuration of a simulated persistent-memory region / pool.
#[derive(Debug, Clone)]
pub struct PmemConfig {
    /// Capacity of the region in bytes. The allocator refuses to go beyond this.
    pub capacity: u64,
    /// Write-back policy (what survives a crash).
    pub policy: WritebackPolicy,
    /// Probability in `[0, 1]` that a flush which was *pending* (issued but not yet
    /// fenced) at crash time is nevertheless applied to the durable store. Real
    /// hardware may or may not have completed an asynchronous write-back when power
    /// fails; crash tests exercise both outcomes.
    pub apply_pending_at_crash_probability: f64,
    /// Seed for the crash-time RNG deciding the fate of pending flushes.
    pub crash_seed: u64,
    /// Artificial latency charged for every *persistent* fence — the modeled
    /// drain time of the region's write-pending queue.
    ///
    /// The simulator itself has no NVM latency, so throughput benchmarks charge a
    /// configurable penalty per persistent fence to reflect the paper's cost model
    /// (fences stall the issuing processor until the NVM write-back completes).
    /// Drains serialize **per region** (a DIMM has one WPQ): concurrent
    /// persistent fences on the same pool queue up, concurrent fences on
    /// different pools — e.g. the per-shard pools of a sharded object — overlap.
    /// Penalties at or above the OS timer resolution block (sleep) rather than
    /// spin, so the modeled stall does not burn host CPU other simulated
    /// processors could use. Zero by default so unit tests stay fast.
    pub fence_penalty: Duration,
    /// Metric sink every layer built on this pool records into (fence and
    /// fsync wall time here in the backend, entry sizes in the persist-log,
    /// phase spans and combiner batches in the core). Disabled by default:
    /// a disabled sink records nothing and reads no clocks — the workspace's
    /// `disabled_telemetry_overhead_within_two_percent` test
    /// (`tests/cost_gates.rs`) holds that state to < 2% hot-path overhead.
    pub telemetry: Telemetry,
    /// Scheduled IO faults every backend built from this config honors (see
    /// [`crate::FaultPlan`]). Empty by default — an empty plan costs one
    /// relaxed atomic load per IO event. Clones share the schedule:
    /// [`PmemConfig::partition`] hands all shards the same plan, so event
    /// ordinals count process-wide IO.
    pub fault_plan: FaultPlan,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            capacity: 64 << 20, // 64 MiB
            policy: WritebackPolicy::OnlyOnFence,
            apply_pending_at_crash_probability: 0.5,
            crash_seed: 0xC0FFEE,
            fence_penalty: Duration::ZERO,
            telemetry: Telemetry::disabled(),
            fault_plan: FaultPlan::default(),
        }
    }
}

impl PmemConfig {
    /// Convenience constructor with an explicit capacity and defaults elsewhere.
    pub fn with_capacity(capacity: u64) -> Self {
        PmemConfig {
            capacity,
            ..Default::default()
        }
    }

    /// Sets the write-back policy.
    pub fn policy(mut self, policy: WritebackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the persistent-fence latency penalty used by throughput benchmarks.
    pub fn fence_penalty(mut self, penalty: Duration) -> Self {
        self.fence_penalty = penalty;
        self
    }

    /// Sets the probability that a pending flush is applied at crash time.
    pub fn apply_pending_at_crash(mut self, probability: f64) -> Self {
        self.apply_pending_at_crash_probability = probability;
        self
    }

    /// Splits this configuration into `n` per-shard configurations: each gets an
    /// equal slice of the capacity and a distinct derived crash seed, so the
    /// shards of a sharded object fail independently under crash injection.
    pub fn partition(&self, n: usize) -> Vec<PmemConfig> {
        assert!(n >= 1, "at least one partition is required");
        let per_shard = (self.capacity / n as u64).max(1);
        (0..n as u64)
            .map(|i| {
                let mut cfg = self.clone();
                cfg.capacity = per_shard;
                cfg.crash_seed = self
                    .crash_seed
                    .wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15));
                if let WritebackPolicy::RandomEviction { probability, seed } = self.policy {
                    cfg.policy = WritebackPolicy::RandomEviction {
                        probability,
                        seed: seed.wrapping_add(i.wrapping_mul(0x517CC1B727220A95)),
                    };
                }
                cfg
            })
            .collect()
    }

    /// Sets the seed used for crash-time and eviction randomness.
    pub fn crash_seed(mut self, seed: u64) -> Self {
        self.crash_seed = seed;
        self
    }

    /// Installs a fault schedule (see [`crate::FaultPlan`]). The plan is
    /// shared by reference: every backend built from this config — and from
    /// its [`PmemConfig::partition`] clones — consults the same schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Installs a metric sink. Note that [`PmemConfig::partition`] clones the
    /// configuration per shard, so all shards of a sharded object share one
    /// sink and per-shard rollups merge into it naturally.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_only_on_fence() {
        assert_eq!(WritebackPolicy::default(), WritebackPolicy::OnlyOnFence);
        assert!(!WritebackPolicy::OnlyOnFence.allows_spontaneous_writeback());
    }

    #[test]
    fn eager_and_random_allow_spontaneous_writeback() {
        assert!(WritebackPolicy::EagerOnFlush.allows_spontaneous_writeback());
        assert!(WritebackPolicy::RandomEviction {
            probability: 0.1,
            seed: 1
        }
        .allows_spontaneous_writeback());
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = PmemConfig::with_capacity(1024)
            .policy(WritebackPolicy::EagerOnFlush)
            .fence_penalty(Duration::from_nanos(500))
            .apply_pending_at_crash(1.0)
            .crash_seed(7);
        assert_eq!(cfg.capacity, 1024);
        assert_eq!(cfg.policy, WritebackPolicy::EagerOnFlush);
        assert_eq!(cfg.fence_penalty, Duration::from_nanos(500));
        assert_eq!(cfg.apply_pending_at_crash_probability, 1.0);
        assert_eq!(cfg.crash_seed, 7);
    }

    #[test]
    fn default_capacity_is_nonzero() {
        assert!(PmemConfig::default().capacity > 0);
    }

    #[test]
    fn partition_divides_capacity_and_derives_seeds() {
        let cfg = PmemConfig::with_capacity(64 << 20).crash_seed(11);
        let parts = cfg.partition(4);
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.capacity, 16 << 20);
            assert_eq!(p.policy, cfg.policy);
        }
        let seeds: std::collections::HashSet<u64> = parts.iter().map(|p| p.crash_seed).collect();
        assert_eq!(seeds.len(), 4, "crash seeds must differ per shard");
        assert_eq!(parts[0].crash_seed, 11);
    }

    #[test]
    fn partition_of_one_is_identity_shaped() {
        let cfg = PmemConfig::with_capacity(1 << 20);
        let parts = cfg.partition(1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].capacity, cfg.capacity);
        assert_eq!(parts[0].crash_seed, cfg.crash_seed);
    }

    #[test]
    #[should_panic]
    fn partition_zero_rejected() {
        let _ = PmemConfig::default().partition(0);
    }
}
