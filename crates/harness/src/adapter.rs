//! Adapters presenting ONLL handles through the common [`DurableObject`] interface.

use baselines::DurableObject;
use onll::{OnllError, ProcessHandle, SequentialSpec, ServiceClient, SnapshotSpec};

/// Wraps an ONLL [`ProcessHandle`] so workloads written against
/// [`baselines::DurableObject`] can drive the ONLL implementation unchanged.
pub struct OnllAdapter<S: SequentialSpec> {
    handle: ProcessHandle<S>,
}

impl<S: SequentialSpec> OnllAdapter<S> {
    /// Wraps a handle.
    pub fn new(handle: ProcessHandle<S>) -> Self {
        OnllAdapter { handle }
    }

    /// The wrapped handle.
    pub fn handle(&self) -> &ProcessHandle<S> {
        &self.handle
    }

    /// Mutable access to the wrapped handle (e.g. for checkpoint calls).
    pub fn handle_mut(&mut self) -> &mut ProcessHandle<S> {
        &mut self.handle
    }

    /// Unwraps back into the handle.
    pub fn into_handle(self) -> ProcessHandle<S> {
        self.handle
    }
}

impl<S: SequentialSpec> DurableObject<S> for OnllAdapter<S> {
    fn try_update(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        self.handle.try_update(op)
    }

    fn read(&mut self, op: &S::ReadOp) -> S::Value {
        self.handle.read(op)
    }

    fn implementation_name(&self) -> &'static str {
        "onll"
    }
}

/// Like [`OnllAdapter`], but every update runs the automatic checkpoint check
/// (`ProcessHandle::update_with_checkpoint`), so fence audits can verify that
/// the per-update inherent bound survives checkpoint maintenance (whose fences
/// land in the separate maintenance bucket).
pub struct CheckpointingOnllAdapter<S: SnapshotSpec> {
    handle: ProcessHandle<S>,
}

impl<S: SnapshotSpec> CheckpointingOnllAdapter<S> {
    /// Wraps a handle on a checkpoint-enabled object.
    pub fn new(handle: ProcessHandle<S>) -> Self {
        CheckpointingOnllAdapter { handle }
    }

    /// The wrapped handle.
    pub fn handle(&self) -> &ProcessHandle<S> {
        &self.handle
    }
}

impl<S: SnapshotSpec> DurableObject<S> for CheckpointingOnllAdapter<S> {
    fn try_update(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        self.handle.update_with_checkpoint(op)
    }

    fn read(&mut self, op: &S::ReadOp) -> S::Value {
        self.handle.read(op)
    }

    fn implementation_name(&self) -> &'static str {
        "onll+checkpoint"
    }
}

/// Wraps an [`onll::ServiceClient`] of a combining-commit
/// [`onll::DurableService`] so the same workloads drive the concurrent
/// front-end: updates block until the submitting thread is served by (or
/// becomes) a combiner; reads go through the published snapshot.
pub struct ServiceClientAdapter<S: SequentialSpec> {
    client: ServiceClient<S>,
}

impl<S: SequentialSpec> ServiceClientAdapter<S> {
    /// Wraps a service client.
    pub fn new(client: ServiceClient<S>) -> Self {
        ServiceClientAdapter { client }
    }

    /// The wrapped client.
    pub fn client(&self) -> &ServiceClient<S> {
        &self.client
    }
}

impl<S: SequentialSpec> DurableObject<S> for ServiceClientAdapter<S> {
    fn try_update(&mut self, op: S::UpdateOp) -> Result<S::Value, OnllError> {
        self.client.submit(op).map(|(value, _)| value)
    }

    fn read(&mut self, op: &S::ReadOp) -> S::Value {
        self.client.read_snapshot(op)
    }

    fn implementation_name(&self) -> &'static str {
        "onll-service"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_objects::{CounterOp, CounterRead, CounterSpec};
    use nvm_sim::{NvmPool, PmemConfig};
    use onll::{Durable, OnllConfig};

    #[test]
    fn adapter_drives_the_onll_object() {
        let pool = NvmPool::new(PmemConfig::default());
        let obj = Durable::<CounterSpec>::create(pool, OnllConfig::named("ctr")).unwrap();
        let mut adapter = OnllAdapter::new(obj.register().unwrap());
        assert_eq!(adapter.update(CounterOp::Add(4)), 4);
        assert_eq!(adapter.read(&CounterRead::Get), 4);
        assert_eq!(adapter.implementation_name(), "onll");
        assert_eq!(adapter.handle().pid(), 0);
    }
}
