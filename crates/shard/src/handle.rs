//! Per-process handles on a sharded object.

use crate::group::GroupPersist;
use crate::router::ShardRouter;
use onll::{KeyedSpec, OnllError, ProcessHandle};
use std::sync::Arc;

/// Values returned by a multi-shard flush: `(shard, group values)` for every
/// shard that had buffered operations.
pub type FlushedGroups<V> = Vec<(usize, Vec<V>)>;

/// A per-process handle spanning every shard of a [`crate::ShardedDurable`].
///
/// Internally one [`ProcessHandle`] per shard; an operation only ever touches
/// the handle (and pool) of the shard its key routes to. The paper's
/// per-object cost bounds therefore hold per operation across the whole
/// facade: **at most one persistent fence per update, zero per read** — and
/// with group persist, one fence per flushed *group*.
pub struct ShardedHandle<S: KeyedSpec> {
    handles: Vec<ProcessHandle<S>>,
    router: Arc<dyn ShardRouter<S::Key>>,
    group: GroupPersist<S::UpdateOp>,
}

impl<S: KeyedSpec> ShardedHandle<S> {
    pub(crate) fn new(
        handles: Vec<ProcessHandle<S>>,
        router: Arc<dyn ShardRouter<S::Key>>,
        group_size: usize,
    ) -> Self {
        let shards = handles.len();
        ShardedHandle {
            handles,
            router,
            group: GroupPersist::new(shards, group_size),
        }
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &S::Key) -> usize {
        self.router.route(key)
    }

    /// The underlying per-shard handle for `shard`.
    pub fn shard_handle(&mut self, shard: usize) -> &mut ProcessHandle<S> {
        &mut self.handles[shard]
    }

    /// Performs an update synchronously on the owning shard: one persistent
    /// fence, exactly as a plain `ProcessHandle::update`.
    pub fn update(&mut self, op: S::UpdateOp) -> S::Value {
        self.try_update(op).expect("sharded update failed")
    }

    /// Fallible variant of [`ShardedHandle::update`].
    pub fn try_update(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        let shard = self.router.route(&S::update_key(&op));
        self.handles[shard].try_update(op)
    }

    /// Buffers an update in the group-persist layer instead of persisting it
    /// immediately. The operation is not ordered, durable or visible until its
    /// shard flushes — automatically once the shard's buffer reaches the group
    /// size (in which case the flushed group's values are returned), or
    /// explicitly via [`ShardedHandle::flush`].
    ///
    /// On error (e.g. [`OnllError::LogFull`]) the buffered operations are
    /// **kept** — nothing was ordered or persisted — so the caller can retry
    /// after resolving the condition.
    pub fn buffer_update(&mut self, op: S::UpdateOp) -> Result<Option<Vec<S::Value>>, OnllError> {
        let shard = self.router.route(&S::update_key(&op));
        if self.group.push(shard, op) {
            return self.flush_shard(shard).map(Some);
        }
        Ok(None)
    }

    /// Persists one shard's buffered group, restoring the buffer intact if the
    /// persist failed (group persist fails only *before* ordering anything).
    fn flush_shard(&mut self, shard: usize) -> Result<Vec<S::Value>, OnllError> {
        let ops = self.group.drain(shard);
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Clone so the ops survive an error; try_update_group validates (group
        // size, log capacity) before mutating any shared or persistent state.
        match self.handles[shard].try_update_group(ops.clone()) {
            Ok(values) => Ok(values),
            Err(e) => {
                self.group.restore(shard, ops);
                Err(e)
            }
        }
    }

    /// Flushes every shard's buffered updates, each group with a single
    /// persistent fence. Returns `(shard, values)` for each flushed shard.
    ///
    /// On error, the failing shard's buffer is kept intact (its group persist
    /// fails before ordering anything), so `flush` can simply be retried after
    /// resolving the condition. Groups flushed on lower-numbered shards before
    /// the failure are already durable and linearized; only their return
    /// values are lost with the error. [`ShardedHandle::pending`] reports what
    /// remains buffered.
    pub fn flush(&mut self) -> Result<FlushedGroups<S::Value>, OnllError> {
        let mut flushed = Vec::new();
        for shard in self.group.dirty_shards() {
            let values = self.flush_shard(shard)?;
            if !values.is_empty() {
                flushed.push((shard, values));
            }
        }
        Ok(flushed)
    }

    /// Number of updates currently buffered (not yet durable).
    pub fn pending(&self) -> usize {
        self.group.len()
    }

    /// Performs a read-only operation: keyed reads go to the owning shard (zero
    /// persistent fences, as always); global reads combine all shards' answers
    /// via [`KeyedSpec::merge_reads`] (still zero fences — reads never touch
    /// NVM).
    ///
    /// Reads do **not** observe this handle's buffered (unflushed) updates,
    /// mirroring the durability contract: what a read returns is linearized,
    /// and a buffered update is not yet linearized.
    pub fn read(&mut self, op: &S::ReadOp) -> S::Value {
        match S::read_key(op) {
            Some(key) => {
                let shard = self.router.route(&key);
                self.handles[shard].read(op)
            }
            None => {
                let answers = self.handles.iter_mut().map(|h| h.read(op)).collect();
                S::merge_reads(op, answers)
            }
        }
    }
}

impl<S: KeyedSpec> std::fmt::Debug for ShardedHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("shards", &self.handles.len())
            .field("pending", &self.pending())
            .finish()
    }
}
