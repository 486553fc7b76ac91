//! Snapshot recycling under random scripts: after every publish the published
//! snapshot equals a fresh clone of the combiner view at the same index, and
//! a snapshot a reader pins never changes, however many publishes pass.
//!
//! `durable-objects` depends on this crate, so its `KvSpec` cannot be named
//! here; `StrMap` is a spec of the same shape (a `BTreeMap<String, String>`
//! with put / delete returning the previous value) and `Fifo` is the
//! non-map object.

use super::*;
use crate::config::OnllConfig;
use crate::snapshot::SnapshotGuard;
use crate::spec::{OpCodec, SnapshotSpec};
use nvm_sim::{NvmPool, PmemConfig, Telemetry};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const CLIENTS: usize = 4;

/// A spec the scripts can drive: `op(seed)` draws an update from a seed.
trait Scripted: SnapshotSpec + Clone + PartialEq + std::fmt::Debug {
    fn op(seed: u64) -> Self::UpdateOp;
}

#[derive(Debug, Clone, PartialEq, Default)]
struct StrMap(BTreeMap<String, String>);

#[derive(Debug, Clone, PartialEq)]
enum MapOp {
    Put(String, String),
    Delete(String),
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(s.len() as u8);
    buf.extend_from_slice(s.as_bytes());
}

fn take_str(bytes: &mut &[u8]) -> Option<String> {
    let (&len, rest) = bytes.split_first()?;
    let (s, rest) = rest.split_at_checked(len as usize)?;
    *bytes = rest;
    String::from_utf8(s.to_vec()).ok()
}

impl OpCodec for MapOp {
    const MAX_ENCODED_SIZE: usize = 1 + 2 * 33;
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MapOp::Put(k, v) => {
                buf.push(0);
                put_str(buf, k);
                put_str(buf, v);
            }
            MapOp::Delete(k) => {
                buf.push(1);
                put_str(buf, k);
            }
        }
    }
    fn decode(mut bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        bytes = rest;
        let op = match tag {
            0 => MapOp::Put(take_str(&mut bytes)?, take_str(&mut bytes)?),
            1 => MapOp::Delete(take_str(&mut bytes)?),
            _ => return None,
        };
        bytes.is_empty().then_some(op)
    }
}

impl SequentialSpec for StrMap {
    type UpdateOp = MapOp;
    type ReadOp = String;
    type Value = Option<String>;
    fn initialize() -> Self {
        StrMap::default()
    }
    fn apply(&mut self, op: &MapOp) -> Option<String> {
        match op {
            MapOp::Put(k, v) => self.0.insert(k.clone(), v.clone()),
            MapOp::Delete(k) => self.0.remove(k),
        }
    }
    fn read(&self, key: &String) -> Option<String> {
        self.0.get(key).cloned()
    }
}

impl SnapshotSpec for StrMap {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        for (k, v) in &self.0 {
            put_str(buf, k);
            put_str(buf, v);
        }
    }
    fn decode_state(mut bytes: &[u8]) -> Option<Self> {
        let mut map = BTreeMap::new();
        while !bytes.is_empty() {
            map.insert(take_str(&mut bytes)?, take_str(&mut bytes)?);
        }
        Some(StrMap(map))
    }
}

impl Scripted for StrMap {
    fn op(seed: u64) -> MapOp {
        let key = format!("k{}", seed % 8);
        if seed.is_multiple_of(5) {
            MapOp::Delete(key)
        } else {
            MapOp::Put(key, format!("v{seed}"))
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Fifo(VecDeque<u64>);

#[derive(Debug, Clone, PartialEq)]
enum FifoOp {
    Enqueue(u64),
    Dequeue,
}

impl OpCodec for FifoOp {
    const MAX_ENCODED_SIZE: usize = 9;
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FifoOp::Enqueue(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            FifoOp::Dequeue => buf.push(1),
        }
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0, v @ ..] => Some(FifoOp::Enqueue(u64::from_le_bytes(v.try_into().ok()?))),
            [1] => Some(FifoOp::Dequeue),
            _ => None,
        }
    }
}

impl SequentialSpec for Fifo {
    type UpdateOp = FifoOp;
    type ReadOp = ();
    type Value = Option<u64>;
    fn initialize() -> Self {
        Fifo::default()
    }
    fn apply(&mut self, op: &FifoOp) -> Option<u64> {
        match op {
            FifoOp::Enqueue(v) => {
                self.0.push_back(*v);
                None
            }
            FifoOp::Dequeue => self.0.pop_front(),
        }
    }
    fn read(&self, _: &()) -> Option<u64> {
        self.0.front().copied()
    }
}

impl SnapshotSpec for Fifo {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        for v in &self.0 {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn decode_state(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let values = bytes.chunks_exact(8);
        Some(Fifo(
            values
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .collect(),
        ))
    }
}

impl Scripted for Fifo {
    fn op(seed: u64) -> FifoOp {
        if seed.is_multiple_of(3) {
            FifoOp::Dequeue
        } else {
            FifoOp::Enqueue(seed)
        }
    }
}

/// A service with `CLIENTS` clients plus one plain handle, on a pool whose
/// telemetry the caller can read.
fn scripted_service<S: Scripted>(telemetry: &Telemetry) -> DurableService<S> {
    let pool = NvmPool::new(PmemConfig::with_capacity(64 << 20).telemetry(telemetry.clone()));
    let obj = Durable::<S>::create(
        pool,
        OnllConfig::named("recycle")
            .max_processes(CLIENTS + 2)
            .log_capacity(1 << 12)
            .group_persist(CLIENTS)
            .checkpoint_every(16),
    )
    .unwrap();
    obj.service(CLIENTS).unwrap()
}

/// The published snapshot against a fresh clone of the combiner's view.
fn assert_published_matches_view<S: Scripted>(service: &DurableService<S>) {
    let cell = &service.inner.snapshots;
    let slot = cell.claim_pool_slot().unwrap();
    {
        let published = cell.load_protected(slot).unwrap();
        let (view, idx) = service.inner.combiner.lock().snapshot_state();
        assert_eq!(published.index(), idx, "published index lags the view");
        assert_eq!(published.state, view, "published state at index {idx}");
    }
    cell.release_pool_slot(slot);
}

/// A snapshot a reader pinned, with what it showed when pinned.
struct Pinned<'a, S: Scripted> {
    slot: usize,
    guard: SnapshotGuard<'a, S>,
    idx: u64,
    state: S,
}

/// Runs a script of `(kind, seed)` steps: kinds 0–2 a combined batch of one
/// to `CLIENTS` updates, 3 an update through a plain handle (which no publish
/// follows), 4 `maybe_checkpoint`, 5 pins the current snapshot (or, with three
/// pinned, unpins the oldest).
fn run_script<S: Scripted>(steps: &[(u8, u64)]) {
    let telemetry = Telemetry::enabled();
    let service = scripted_service::<S>(&telemetry);
    let mut clients: Vec<_> = (0..CLIENTS).map(|_| service.client().unwrap()).collect();
    let mut plain = service.durable().register().unwrap();
    service.enable_snapshots();
    let cell = &service.inner.snapshots;
    let mut pinned: VecDeque<Pinned<'_, S>> = VecDeque::new();
    for &(kind, seed) in steps {
        match kind {
            0..=2 => {
                let n = seed as usize % CLIENTS + 1;
                for (i, client) in clients.iter_mut().take(n).enumerate() {
                    client.submit_async(S::op(seed + i as u64));
                }
                assert_eq!(service.combine_now(), n);
                for client in clients.iter_mut().take(n) {
                    client.try_take_reply().unwrap().unwrap();
                }
                assert_published_matches_view(&service);
            }
            3 => {
                plain.update(S::op(seed));
            }
            4 => {
                service.maybe_checkpoint().unwrap();
                assert_published_matches_view(&service);
            }
            _ if pinned.len() < 3 => {
                let slot = cell.claim_pool_slot().unwrap();
                let guard = cell.load_protected(slot).unwrap();
                let (idx, state) = (guard.index(), guard.state.clone());
                pinned.push_back(Pinned {
                    slot,
                    guard,
                    idx,
                    state,
                });
            }
            _ => {
                let oldest = pinned.pop_front().unwrap();
                drop(oldest.guard);
                cell.release_pool_slot(oldest.slot);
            }
        }
        for pin in &pinned {
            assert_eq!(pin.guard.index(), pin.idx, "a pinned snapshot moved");
            assert_eq!(pin.guard.state, pin.state, "a pinned snapshot changed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_snapshots_match_the_view_and_pins_hold(
        steps in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..120),
    ) {
        run_script::<StrMap>(&steps);
    }

    #[test]
    fn queue_snapshots_match_the_view_and_pins_hold(
        steps in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..120),
    ) {
        run_script::<Fifo>(&steps);
    }
}

fn publishes(telemetry: &Telemetry) -> u64 {
    telemetry
        .snapshot()
        .histogram("combine.snapshot_publish_ns")
        .map_or(0, |h| h.count)
}

fn clones(telemetry: &Telemetry) -> u64 {
    telemetry
        .snapshot()
        .counter("combine.snapshot_clones")
        .map_or(0, |c| c.value)
}

#[test]
fn unchanged_view_is_not_republished() {
    let telemetry = Telemetry::enabled();
    let service = scripted_service::<Fifo>(&telemetry);
    let mut client = service.client().unwrap();
    service.enable_snapshots();
    client.submit(FifoOp::Enqueue(1)).unwrap();
    let (before, idx) = (
        publishes(&telemetry),
        service.snapshot_reader().unwrap().snapshot_index(),
    );
    for _ in 0..3 {
        service.maybe_checkpoint().unwrap();
    }
    assert_eq!(
        publishes(&telemetry),
        before,
        "nothing moved, nothing published"
    );
    // A plain-handle update moves the view: the next call publishes it.
    service
        .durable()
        .register()
        .unwrap()
        .update(FifoOp::Enqueue(2));
    service.maybe_checkpoint().unwrap();
    assert_eq!(publishes(&telemetry), before + 1);
    assert_eq!(service.snapshot_reader().unwrap().snapshot_index(), idx + 1);
    assert_published_matches_view(&service);
}

#[test]
fn steady_state_publishes_recycle_instead_of_cloning() {
    let telemetry = Telemetry::enabled();
    let service = scripted_service::<StrMap>(&telemetry);
    let mut client = service.client().unwrap();
    service.enable_snapshots();
    // The seed, and the first batch's publish (the seed is still current
    // when it starts, so there is no spare yet), clone.
    client.submit(StrMap::op(1)).unwrap();
    assert_eq!(clones(&telemetry), 2);
    for seed in 2..50 {
        client.submit(StrMap::op(seed)).unwrap();
    }
    assert_eq!(
        clones(&telemetry),
        2,
        "every later publish recycled the spare"
    );
    assert_published_matches_view(&service);
}

#[test]
fn a_combiner_checkpoint_rebuilds_both_buffers_by_clones() {
    let telemetry = Telemetry::enabled();
    let service = scripted_service::<Fifo>(&telemetry);
    let mut client = service.client().unwrap();
    service.enable_snapshots();
    for seed in 1..16 {
        client.submit(Fifo::op(seed)).unwrap();
    }
    let steady = clones(&telemetry);
    // The 16th update is due for a checkpoint (`checkpoint_every(16)`).
    client.submit(Fifo::op(16)).unwrap();
    assert!(service.maybe_checkpoint().unwrap().is_some());
    assert_eq!(clones(&telemetry), steady, "the view did not move");
    // The spare and the published snapshot both predate the checkpoint: the
    // next two publishes rebuild them instead of catching them up.
    client.submit(Fifo::op(17)).unwrap();
    assert_eq!(clones(&telemetry), steady + 1);
    client.submit(Fifo::op(18)).unwrap();
    assert_eq!(clones(&telemetry), steady + 2);
    for seed in 19..30 {
        client.submit(Fifo::op(seed)).unwrap();
    }
    assert_eq!(clones(&telemetry), steady + 2, "recycling resumed");
    assert_published_matches_view(&service);
}
