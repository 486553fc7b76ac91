//! Property tests for shard routing: totality, stability, determinism across
//! router instances, and end-to-end agreement of a sharded object with its
//! plain sequential specification.

use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::PmemConfig;
use onll::{KeyedSpec, OnllConfig, SequentialSpec};
use onll_shard::{HashRouter, RangeRouter, ShardConfig, ShardRouter, ShardedDurable};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every key maps to exactly one shard, always in range, and the mapping is
    /// identical across router instances with the same configuration (rehash
    /// with the same N is deterministic — a recovery requirement).
    #[test]
    fn hash_routing_is_total_and_stable(
        shards in 1usize..16,
        keys in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..200),
    ) {
        let a = HashRouter::new(shards);
        let b = HashRouter::new(shards);
        for key in &keys {
            let s = a.route(key);
            prop_assert!(s < shards, "route out of range: {s} >= {shards}");
            prop_assert_eq!(s, a.route(key));
            prop_assert_eq!(s, b.route(key));
        }
    }

    /// String keys route identically across instances too (the KV object's key
    /// type).
    #[test]
    fn hash_routing_strings_is_stable(
        shards in 1usize..8,
        keys in proptest::collection::vec(0u32..10_000, 1..100),
    ) {
        let a = HashRouter::new(shards);
        let b = HashRouter::new(shards);
        for k in &keys {
            let key = format!("key-{k}");
            let s = ShardRouter::<String>::route(&a, &key);
            prop_assert!(s < shards);
            prop_assert_eq!(s, ShardRouter::<String>::route(&b, &key));
        }
    }

    /// Range routing is total, stable, and monotone in the key order.
    #[test]
    fn range_routing_is_total_and_monotone(
        raw_bounds in proptest::collection::vec(proptest::strategy::any::<u64>(), 0..10),
        keys in proptest::collection::vec(proptest::strategy::any::<u64>(), 1..100),
    ) {
        let mut bounds = raw_bounds;
        bounds.sort_unstable();
        bounds.dedup();
        let shards = bounds.len() + 1;
        let router = RangeRouter::new(bounds);
        prop_assert_eq!(router.shards(), shards);
        let mut sorted_keys = keys.clone();
        sorted_keys.sort_unstable();
        let mut last = 0usize;
        for key in &sorted_keys {
            let s = router.route(key);
            prop_assert!(s < shards);
            prop_assert_eq!(s, router.route(key));
            prop_assert!(s >= last, "range routing must be monotone in the key");
            last = s;
        }
    }

    /// End-to-end: a sharded KV object with hash routing agrees with the plain
    /// sequential spec on arbitrary op sequences — i.e. routing never sends a
    /// key's operations to a shard that would answer differently.
    #[test]
    fn sharded_kv_equals_sequential_spec(
        shards in 1usize..6,
        ops in proptest::collection::vec((0u8..16, 0u8..4, proptest::strategy::any::<bool>()), 1..60),
    ) {
        let config = ShardConfig::named("kv")
            .shards(shards)
            .base(OnllConfig::default().max_processes(1).log_capacity(256))
            .pmem(PmemConfig::with_capacity(128 << 20));
        let object =
            ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(shards))).unwrap();
        let mut handle = object.register().unwrap();
        let mut reference = KvSpec::initialize();
        for (k, v, is_put) in &ops {
            let op = if *is_put {
                KvOp::Put(format!("key-{k}"), format!("val-{v}"))
            } else {
                KvOp::Delete(format!("key-{k}"))
            };
            let expected = reference.apply(&op);
            prop_assert_eq!(handle.update(op), expected);
        }
        for k in 0u8..16 {
            let read = KvRead::Get(format!("key-{k}"));
            prop_assert_eq!(handle.read(&read), reference.read(&read));
        }
        prop_assert_eq!(handle.read(&KvRead::Len), reference.read(&KvRead::Len));
        prop_assert_eq!(object.read_latest(&KvRead::Len), reference.read(&KvRead::Len));
        object.check_invariants().unwrap();
    }

    /// Group persist (`buffer_update` + `flush`, one fence per shard group)
    /// computes the same values and final state as individual submission.
    #[test]
    fn group_persist_matches_individual_updates(
        ops in proptest::collection::vec((0u8..12, 0u8..4), 1..50),
    ) {
        let shards = 3;
        let make = || {
            let config = ShardConfig::named("kv")
                .shards(shards)
                .base(OnllConfig::default().max_processes(1).log_capacity(512).group_persist(8))
                .pmem(PmemConfig::with_capacity(128 << 20));
            ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(shards))).unwrap()
        };
        let kv_ops: Vec<KvOp> = ops
            .iter()
            .map(|(k, v)| KvOp::Put(format!("key-{k}"), format!("val-{v}")))
            .collect();

        let individual = make();
        let mut h1 = individual.register().unwrap();
        let individual_values: Vec<KvValue> =
            kv_ops.iter().cloned().map(|op| h1.update(op)).collect();

        // A flushed group's values come back in its shard's buffer order; put
        // each one back at its operation's input position.
        let batched = make();
        let mut h2 = batched.register().unwrap();
        let mut batch_values: Vec<Option<KvValue>> = vec![None; kv_ops.len()];
        let mut buffered: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut place = |shard: usize, values: Vec<KvValue>, buffered: &mut Vec<Vec<usize>>| {
            let positions = std::mem::take(&mut buffered[shard]);
            assert_eq!(positions.len(), values.len(), "one value per buffered update");
            for (pos, value) in positions.into_iter().zip(values) {
                batch_values[pos] = Some(value);
            }
        };
        for (i, op) in kv_ops.into_iter().enumerate() {
            let shard = h2.shard_of(&KvSpec::update_key(&op));
            buffered[shard].push(i);
            if let Some(values) = h2.buffer_update(op).unwrap() {
                place(shard, values, &mut buffered);
            }
        }
        for (shard, values) in h2.flush().unwrap() {
            place(shard, values, &mut buffered);
        }
        prop_assert_eq!(h2.pending(), 0);
        let batch_values: Vec<KvValue> = batch_values.into_iter().map(Option::unwrap).collect();

        prop_assert_eq!(individual_values, batch_values);
        prop_assert_eq!(
            individual.read_latest(&KvRead::Len),
            batched.read_latest(&KvRead::Len)
        );
        batched.check_invariants().unwrap();
    }
}
