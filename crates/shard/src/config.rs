//! Sharded-object configuration.

use nvm_sim::{BackendSpec, NvmError, NvmPool, PmemConfig};
use onll::OnllConfig;

/// Configuration of a [`crate::ShardedDurable`] object.
///
/// Each shard is a full, independent ONLL instance living in its own NVM pool
/// partition; `base` is the per-shard template (its `name` is suffixed with the
/// shard index) and `pmem` is partitioned into one equal slice per shard.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Logical name of the sharded object; shard `i`'s ONLL instance is named
    /// `"{name}/shard{i}"` inside its pool.
    pub name: String,
    /// Number of shards (independent ONLL instances).
    pub shards: usize,
    /// Per-shard ONLL configuration template.
    pub base: OnllConfig,
    /// NVM configuration partitioned across the shards.
    pub pmem: PmemConfig,
    /// Persistence backend all shard pools run on. With
    /// [`BackendSpec::File`], shard `i`'s pool is a file derived from the
    /// label `<name>/shard<i>` (see [`BackendSpec::pool_path`]), so a sharded
    /// store can be reopened after a real process restart via
    /// [`ShardConfig::open_pools`]. With [`BackendSpec::device`], every shard
    /// becomes a segment of one shared device file and all shard fences go
    /// through that device's group-commit executor (see
    /// `nvm_sim::PersistDevice`).
    pub backend: BackendSpec,
}

impl ShardConfig {
    /// A configuration named `name` with defaults: 4 shards, default per-shard
    /// ONLL config, 64 MiB of simulated NVM split across the shards.
    pub fn named(name: &str) -> Self {
        ShardConfig {
            name: name.to_string(),
            shards: 4,
            base: OnllConfig::default(),
            pmem: PmemConfig::default(),
            backend: BackendSpec::Sim,
        }
    }

    /// Sets the number of shards.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard is required");
        self.shards = n;
        self
    }

    /// Sets the per-shard ONLL configuration template (its `name` is ignored;
    /// shards derive theirs from the shard config's name).
    pub fn base(mut self, base: OnllConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the NVM configuration to partition across the shards.
    pub fn pmem(mut self, pmem: PmemConfig) -> Self {
        self.pmem = pmem;
        self
    }

    /// Sets the persistence backend all shard pools run on.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Provisions one fresh pool per shard on the configured backend: the
    /// partitioned [`ShardConfig::pmem`] slices on [`ShardConfig::backend`].
    /// Used by `ShardedDurable::create`; also useful to pre-create pools that
    /// outlive the object across crash/recovery cycles.
    pub fn provision_pools(&self) -> Result<Vec<NvmPool>, NvmError> {
        self.pmem
            .partition(self.shards)
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| NvmPool::provision(&self.backend, cfg, &self.shard_label(i)))
            .collect()
    }

    /// Reopens the per-shard pools previously provisioned under this config —
    /// the cross-process recovery entry point for sharded objects (pass the
    /// result to `ShardedDurable::recover*`). Fails for the simulator, which
    /// has no cross-process representation.
    pub fn open_pools(&self) -> Result<Vec<NvmPool>, NvmError> {
        self.pmem
            .partition(self.shards)
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| NvmPool::reopen(&self.backend, cfg, &self.shard_label(i)))
            .collect()
    }

    /// The pool label of shard `index` (its ONLL object name).
    fn shard_label(&self, index: usize) -> String {
        format!("{}/shard{index}", self.name)
    }

    /// Convenience: enables fence-amortized group persist with groups of up to
    /// `n` operations per shard (see `OnllConfig::group_persist`).
    pub fn group_persist(mut self, n: usize) -> Self {
        self.base = self.base.group_persist(n);
        self
    }

    /// Convenience: enables the per-shard ops-count checkpoint trigger
    /// (see `OnllConfig::checkpoint_every`). Evaluated by the background
    /// checkpointer spawned with `ShardedDurable::spawn_checkpointer` (or by
    /// handles using `update_with_checkpoint`).
    pub fn checkpoint_every(mut self, interval: u64) -> Self {
        self.base = self.base.checkpoint_every(interval);
        self
    }

    /// Convenience: enables the per-shard log-bytes checkpoint trigger
    /// (see `OnllConfig::checkpoint_when_log_exceeds`).
    pub fn checkpoint_when_log_exceeds(mut self, bytes: u64) -> Self {
        self.base = self.base.checkpoint_when_log_exceeds(bytes);
        self
    }

    /// Convenience: sets the per-shard checkpoint slot capacity
    /// (see `OnllConfig::checkpoint_slot_bytes`).
    pub fn checkpoint_slot_bytes(mut self, bytes: usize) -> Self {
        self.base = self.base.checkpoint_slot_bytes(bytes);
        self
    }

    /// The ONLL configuration of shard `index`.
    pub(crate) fn shard_onll_config(&self, index: usize) -> OnllConfig {
        let mut cfg = self.base.clone();
        cfg.name = self.shard_label(index);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = ShardConfig::named("kv")
            .shards(8)
            .base(OnllConfig::default().max_processes(2))
            .group_persist(4)
            .pmem(PmemConfig::with_capacity(128 << 20));
        assert_eq!(cfg.name, "kv");
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.base.max_processes, 2);
        assert_eq!(cfg.base.max_group_ops, 4);
        assert_eq!(cfg.pmem.capacity, 128 << 20);
    }

    #[test]
    fn shard_names_are_distinct_and_derived() {
        let cfg = ShardConfig::named("kv").shards(3);
        assert_eq!(cfg.shard_onll_config(0).name, "kv/shard0");
        assert_eq!(cfg.shard_onll_config(2).name, "kv/shard2");
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        let _ = ShardConfig::named("x").shards(0);
    }
}
