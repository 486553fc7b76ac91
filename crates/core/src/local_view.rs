//! Per-process local views (Section 8, "compressing the execution trace").
//!
//! In the base construction a read replays the entire execution trace, i.e. every
//! update ever applied. The paper's read-performance extension gives each process a
//! *local view*: a materialized object state together with the execution index it
//! reflects. A read then only replays the trace suffix between the local view's
//! index and the latest available node — typically a handful of operations — and an
//! update only replays the suffix up to its own node.

use crate::op_id::Record;
use crate::spec::SequentialSpec;
use exec_trace::{ExecutionTrace, TraceNode};
use std::collections::VecDeque;

/// Most operations a view's journal holds; past it the oldest are dropped, so
/// a copy of the state that far behind the view is rebuilt by a clone.
const JOURNAL_CAP: usize = 1024;

/// A materialized object state reflecting the trace prefix up to `idx`.
pub struct LocalView<S: SequentialSpec> {
    state: S,
    idx: u64,
    /// Highest operation sequence number this view has applied, per process
    /// slot (indexed by `OpId::pid`, grown on demand). Checkpoints persist
    /// these as their per-process sequence floors: every operation the
    /// checkpoint covers was applied by the checkpointing view, so an absent
    /// identity with a sequence number at or below the floor is *compacted*,
    /// not merely unexecuted (`ResolveOutcome::Truncated`).
    seq_high: Vec<u64>,
    /// The update operations this view applied, with their execution indices,
    /// in index order — kept only once [`LocalView::start_journal`] is called
    /// (the combiner of a `DurableService` with snapshot reads), so an older
    /// copy of the state can be brought up to this view by replaying them.
    journal: Option<VecDeque<(u64, S::UpdateOp)>>,
}

impl<S: SequentialSpec> LocalView<S> {
    /// A view of the initial state (reflecting execution index `base_idx`, which is
    /// 0 for a fresh object or the checkpoint index after recovery).
    pub fn new(state: S, base_idx: u64) -> Self {
        LocalView {
            state,
            idx: base_idx,
            seq_high: Vec::new(),
            journal: None,
        }
    }

    /// The execution index this view reflects.
    pub fn idx(&self) -> u64 {
        self.idx
    }

    /// Read access to the materialized state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Highest applied operation sequence number per process slot (see the
    /// field documentation). Slots this view never applied an operation for
    /// are absent or 0.
    pub fn seq_high(&self) -> &[u64] {
        &self.seq_high
    }

    fn note_applied(&mut self, op_id: crate::op_id::OpId) {
        let pid = op_id.pid as usize;
        if self.seq_high.len() <= pid {
            self.seq_high.resize(pid + 1, 0);
        }
        self.seq_high[pid] = self.seq_high[pid].max(op_id.seq);
    }

    /// Applies the operation at execution index `idx` to the state (the
    /// caller moves `self.idx`), journaling it when the journal is on.
    fn apply_record(&mut self, idx: u64, record: &Record<S::UpdateOp>) -> S::Value {
        self.note_applied(record.op_id);
        if let Some(journal) = &mut self.journal {
            if journal.len() == JOURNAL_CAP {
                journal.pop_front();
            }
            journal.push_back((idx, record.op.clone()));
        }
        self.state.apply(&record.op)
    }

    /// Starts journaling applied operations from this view's index on,
    /// dropping any earlier entries; see [`LocalView::catch_up`].
    pub(crate) fn start_journal(&mut self) {
        self.journal = Some(VecDeque::new());
    }

    /// Brings `state`, a copy of this view's state as of execution index
    /// `from`, up to this view's index by replaying the journaled operations
    /// above `from` — the [`LocalView::advance_to`] idea applied to a copy.
    /// Journal entries at or below `from` are dropped first. Returns `false`,
    /// leaving `state` untouched, when the journal is off or does not hold
    /// every operation of `(from, idx]`.
    pub(crate) fn catch_up(&mut self, state: &mut S, from: u64) -> bool {
        let Some(journal) = &mut self.journal else {
            return false;
        };
        while journal.front().is_some_and(|&(idx, _)| idx <= from) {
            journal.pop_front();
        }
        // The entries left are strictly increasing indices in (from, idx], so
        // they cover that range completely exactly when there are idx - from.
        if self.idx.checked_sub(from) != Some(journal.len() as u64) {
            return false;
        }
        for (_, op) in journal.iter() {
            state.apply(op);
        }
        true
    }

    /// Advances the view to `target` by replaying the missing suffix of the trace,
    /// returning the value of the last applied operation (used by updates, whose
    /// return value is computed on the state immediately after their own
    /// operation). Returns `None` if no operation needed to be applied.
    pub fn advance_to(
        &mut self,
        trace: &ExecutionTrace<Option<Record<S::UpdateOp>>>,
        target: &TraceNode<Option<Record<S::UpdateOp>>>,
    ) -> Option<S::Value> {
        if target.idx() <= self.idx {
            return None;
        }
        if target.idx() == self.idx + 1 {
            // Single-step advance — the common case for an updating handle
            // (its own just-ordered operation): apply directly, no suffix
            // collection, no allocation.
            self.idx = target.idx();
            return target
                .op()
                .as_ref()
                .map(|r| self.apply_record(target.idx(), r));
        }
        let missing = trace.nodes_between(self.idx, target);
        let mut last_value = None;
        for node in missing {
            if let Some(record) = node.op() {
                last_value = Some(self.apply_record(node.idx(), record));
            }
            self.idx = node.idx();
        }
        last_value
    }
}

impl<S: SequentialSpec + std::fmt::Debug> std::fmt::Debug for LocalView<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalView")
            .field("idx", &self.idx)
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op_id::OpId;
    use crate::spec::OpCodec;

    #[derive(Debug, PartialEq)]
    struct Counter {
        value: u64,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Inc;

    impl OpCodec for Inc {
        const MAX_ENCODED_SIZE: usize = 1;
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.push(1);
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            (bytes == [1]).then_some(Inc)
        }
    }

    impl SequentialSpec for Counter {
        type UpdateOp = Inc;
        type ReadOp = ();
        type Value = u64;
        fn initialize() -> Self {
            Counter { value: 0 }
        }
        fn apply(&mut self, _op: &Inc) -> u64 {
            self.value += 1;
            self.value
        }
        fn read(&self, _op: &()) -> u64 {
            self.value
        }
    }

    type Trace = ExecutionTrace<Option<Record<Inc>>>;

    fn record(pid: u32, seq: u64) -> Option<Record<Inc>> {
        Some(Record::new(OpId::new(pid, seq), Inc))
    }

    #[test]
    fn advance_applies_only_the_missing_suffix() {
        let trace: Trace = ExecutionTrace::new(None);
        let mut view = LocalView::new(Counter::initialize(), 0);
        let n1 = trace.insert(record(0, 1));
        let n2 = trace.insert(record(0, 2));
        assert_eq!(view.advance_to(&trace, n1), Some(1));
        assert_eq!(view.idx(), 1);
        assert_eq!(view.state().value, 1);
        // Advancing to the same node is a no-op.
        assert_eq!(view.advance_to(&trace, n1), None);
        assert_eq!(view.advance_to(&trace, n2), Some(2));
        assert_eq!(view.state().value, 2);
    }

    #[test]
    fn advance_skips_nothing_when_target_is_older() {
        let trace: Trace = ExecutionTrace::new(None);
        let n1 = trace.insert(record(0, 1));
        let n2 = trace.insert(record(0, 2));
        let mut view = LocalView::new(Counter::initialize(), 0);
        view.advance_to(&trace, n2);
        assert_eq!(view.idx(), 2);
        assert_eq!(view.advance_to(&trace, n1), None, "never goes backwards");
        assert_eq!(view.idx(), 2);
    }

    #[test]
    fn advance_from_checkpoint_base() {
        // A view based at index 10 (checkpoint state value 10) replays only newer nodes.
        let trace: Trace = ExecutionTrace::with_base(None, 10);
        let n11 = trace.insert(record(1, 1));
        let mut view = LocalView::new(Counter { value: 10 }, 10);
        assert_eq!(view.advance_to(&trace, n11), Some(11));
        assert_eq!(view.state().value, 11);
    }

    #[test]
    fn sentinel_record_is_skipped() {
        let trace: Trace = ExecutionTrace::new(None);
        let n1 = trace.insert(record(0, 1));
        let mut view = LocalView::new(Counter::initialize(), 0);
        // nodes_between never includes the sentinel, but even a None payload in the
        // range must not panic or count as an apply.
        assert_eq!(view.advance_to(&trace, n1), Some(1));
    }

    #[test]
    fn multi_process_interleaving_replays_in_index_order() {
        let trace: Trace = ExecutionTrace::new(None);
        for seq in 1..=3 {
            trace.insert(record(0, seq));
            trace.insert(record(1, seq));
        }
        let tail = trace.tail();
        let mut view = LocalView::new(Counter::initialize(), 0);
        assert_eq!(view.advance_to(&trace, tail), Some(6));
        assert_eq!(view.state().value, 6);
        assert_eq!(view.idx(), 6);
    }
}
