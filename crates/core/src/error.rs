//! Errors of the ONLL construction.

use std::fmt;

/// Errors returned by [`crate::Durable`] and [`crate::ProcessHandle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnllError {
    /// NVM allocation or root-table failure.
    Nvm(String),
    /// All process identifiers are already claimed.
    NoFreeProcessSlot,
    /// The requested process identifier is out of range or already claimed.
    ProcessSlotUnavailable(usize),
    /// The per-process persistent log is full. Enable checkpointing
    /// (`OnllConfig::checkpoint_every`) or increase `log_capacity_entries`.
    LogFull,
    /// A persisted operation could not be decoded during recovery.
    CorruptOperation {
        /// Execution index of the operation that failed to decode.
        execution_index: u64,
    },
    /// The object's metadata root was not found in the pool during recovery.
    MetadataMissing(String),
    /// The object's persisted metadata is inconsistent with the configuration.
    MetadataMismatch(String),
    /// Checkpointing was requested but is not configured.
    CheckpointingDisabled,
    /// A group persist was asked to cover more operations than
    /// `OnllConfig::max_group_ops` allows (the log entries are not sized for it).
    GroupTooLarge {
        /// Number of operations in the rejected group.
        len: usize,
        /// Configured maximum (`OnllConfig::max_group_ops`).
        max: usize,
    },
    /// A caller-supplied operation identity is unusable: its process component
    /// is out of range for this object, its sequence number is 0, or it does
    /// not belong to the submitting client's identity slot.
    InvalidOpId {
        /// Process component of the rejected identity.
        pid: u32,
        /// Sequence component of the rejected identity.
        seq: u64,
    },
    /// A combining service is open on this object and owns its updates: an
    /// update through any other handle, or a second service, is refused
    /// before anything is ordered. Read-only handles are unaffected.
    ServiceOwnsUpdates,
}

impl fmt::Display for OnllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnllError::Nvm(msg) => write!(f, "NVM error: {msg}"),
            OnllError::NoFreeProcessSlot => write!(f, "all process slots are claimed"),
            OnllError::ProcessSlotUnavailable(pid) => {
                write!(f, "process slot {pid} is unavailable")
            }
            OnllError::LogFull => write!(
                f,
                "persistent log is full; enable checkpointing or increase log capacity"
            ),
            OnllError::CorruptOperation { execution_index } => {
                write!(f, "operation at execution index {execution_index} is corrupt")
            }
            OnllError::MetadataMissing(name) => {
                write!(f, "no ONLL object named '{name}' found in the pool")
            }
            OnllError::MetadataMismatch(msg) => write!(f, "metadata mismatch: {msg}"),
            OnllError::CheckpointingDisabled => {
                write!(f, "checkpointing is not enabled in the configuration")
            }
            OnllError::GroupTooLarge { len, max } => write!(
                f,
                "group of {len} operations exceeds max_group_ops = {max}; raise OnllConfig::group_persist"
            ),
            OnllError::InvalidOpId { pid, seq } => write!(
                f,
                "operation identity p{pid}#{seq} is not usable by this client"
            ),
            OnllError::ServiceOwnsUpdates => write!(
                f,
                "a combining service owns this object's updates; submit through it"
            ),
        }
    }
}

impl std::error::Error for OnllError {}

impl From<nvm_sim::NvmError> for OnllError {
    fn from(e: nvm_sim::NvmError) -> Self {
        OnllError::Nvm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(OnllError::LogFull.to_string().contains("checkpoint"));
        assert!(OnllError::MetadataMissing("kv".into())
            .to_string()
            .contains("kv"));
        assert!(OnllError::CorruptOperation { execution_index: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn nvm_errors_convert() {
        let e: OnllError = nvm_sim::NvmError::RootTableFull.into();
        assert!(matches!(e, OnllError::Nvm(_)));
    }
}
