//! Construction configuration.

/// Configuration of one ONLL-constructed durable object.
#[derive(Debug, Clone)]
pub struct OnllConfig {
    /// Name of the object; used to derive the NVM root under which its metadata,
    /// logs and checkpoint areas are registered, so several objects can share one
    /// pool.
    pub name: String,
    /// Maximum number of processes (handles). Bounds the fuzzy window
    /// (Proposition 5.2) and therefore the number of helped operations a log entry
    /// must accommodate (`MAX_PROCESSES` in Listing 1).
    pub max_processes: usize,
    /// Capacity, in entries, of each per-process persistent log.
    pub log_capacity_entries: usize,
    /// Ops-count checkpoint trigger: checkpoint whenever at least this many
    /// updates have been linearized past the newest published checkpoint
    /// watermark (requires the spec to implement `SnapshotSpec`; the trigger is
    /// evaluated by `ProcessHandle::maybe_checkpoint`, the automatic variant
    /// `update_with_checkpoint`, or a background checkpointer). Setting it
    /// also arms the capacity backstop (a log three-quarters full asks for a
    /// checkpoint). `None` disables checkpointing: the logs retain the full
    /// history, as in the base construction.
    pub checkpoint_interval: Option<u64>,
    /// Size in bytes reserved for one serialized checkpoint of the object state.
    pub checkpoint_slot_bytes: usize,
    /// When prefix reclamation is enabled (checkpointing active), the trace prefix
    /// below the minimum of all handles' local-view indices is unlinked whenever it
    /// exceeds this many nodes.
    pub reclaim_batch: u64,
    /// Maximum number of own operations a handle may persist in one *group*
    /// (`ProcessHandle::update_group`): the whole group is appended as a single
    /// log entry and covered by **one** persistent fence. Sizes the log's entry
    /// slots — with groups, *every* process may have up to this many unpersisted
    /// operations in the fuzzy window, so entries hold
    /// `max_processes * max_group_ops` operations. Fixed at creation and
    /// persisted in the object metadata.
    ///
    /// `1` (the default) reproduces the paper's base construction exactly.
    pub max_group_ops: usize,
}

impl Default for OnllConfig {
    fn default() -> Self {
        OnllConfig {
            name: "onll-object".to_string(),
            max_processes: 8,
            log_capacity_entries: 4096,
            checkpoint_interval: None,
            checkpoint_slot_bytes: 64 * 1024,
            reclaim_batch: 1024,
            max_group_ops: 1,
        }
    }
}

impl OnllConfig {
    /// Creates a configuration for an object named `name`.
    pub fn named(name: &str) -> Self {
        OnllConfig {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Sets the maximum number of processes.
    pub fn max_processes(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one process is required");
        self.max_processes = n;
        self
    }

    /// Sets the per-process log capacity in entries.
    pub fn log_capacity(mut self, entries: usize) -> Self {
        self.log_capacity_entries = entries;
        self
    }

    /// Enables the ops-count checkpoint trigger: checkpoint every `interval`
    /// linearized updates past the newest published watermark.
    pub fn checkpoint_every(mut self, interval: u64) -> Self {
        assert!(interval >= 1);
        self.checkpoint_interval = Some(interval);
        self
    }

    /// True if checkpointing is on (the ops-count trigger is configured).
    pub fn checkpointing_enabled(&self) -> bool {
        self.checkpoint_interval.is_some()
    }

    /// Sets the size reserved for one serialized checkpoint.
    pub fn checkpoint_slot_bytes(mut self, bytes: usize) -> Self {
        self.checkpoint_slot_bytes = bytes;
        self
    }

    /// Allows up to `n` operations per fence-amortized group persist
    /// (`ProcessHandle::update_group`). Grows each log entry to hold the group
    /// plus helped operations.
    pub fn group_persist(mut self, n: usize) -> Self {
        assert!(n >= 1, "a group holds at least one operation");
        self.max_group_ops = n;
        self
    }

    /// Maximum operations one log entry must hold: the generalized Proposition
    /// 5.2 bound on the fuzzy window — every process may have a full group
    /// (up to `max_group_ops` operations) ordered but not yet persisted.
    pub(crate) fn ops_per_entry(&self) -> usize {
        self.max_processes * self.max_group_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = OnllConfig::default();
        assert!(c.max_processes >= 1);
        assert!(c.log_capacity_entries > 0);
        assert!(c.checkpoint_interval.is_none());
        assert!(!c.checkpointing_enabled());
    }

    #[test]
    fn either_trigger_enables_checkpointing() {
        assert!(OnllConfig::default()
            .checkpoint_every(10)
            .checkpointing_enabled());
    }

    #[test]
    fn builders_compose() {
        let c = OnllConfig::named("counter")
            .max_processes(4)
            .log_capacity(128)
            .checkpoint_every(100)
            .checkpoint_slot_bytes(1024);
        assert_eq!(c.name, "counter");
        assert_eq!(c.max_processes, 4);
        assert_eq!(c.log_capacity_entries, 128);
        assert_eq!(c.checkpoint_interval, Some(100));
        assert_eq!(c.checkpoint_slot_bytes, 1024);
    }

    #[test]
    fn group_persist_sizes_log_entries() {
        let c = OnllConfig::default();
        assert_eq!(c.max_group_ops, 1);
        assert_eq!(c.ops_per_entry(), c.max_processes);
        let c = OnllConfig::named("g").max_processes(4).group_persist(16);
        assert_eq!(c.max_group_ops, 16);
        assert_eq!(c.ops_per_entry(), 64);
    }

    #[test]
    #[should_panic]
    fn zero_group_rejected() {
        let _ = OnllConfig::default().group_persist(0);
    }

    #[test]
    #[should_panic]
    fn zero_processes_rejected() {
        let _ = OnllConfig::default().max_processes(0);
    }

    #[test]
    #[should_panic]
    fn zero_checkpoint_interval_rejected() {
        let _ = OnllConfig::default().checkpoint_every(0);
    }
}
