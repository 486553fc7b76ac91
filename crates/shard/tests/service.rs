//! The sharded combining-commit front-end: routing, per-shard amortization,
//! concurrent clients, and exactly-once reply retrieval across a crash.

use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::PmemConfig;
use onll::{OnllConfig, ResolveOutcome};
use onll_shard::{HashRouter, ShardConfig, ShardedDurable};
use std::sync::Arc;

fn sharded_kv(shards: usize, clients: usize, group: usize) -> ShardedDurable<KvSpec> {
    let config = ShardConfig::named("svc-kv")
        .shards(shards)
        .base(
            OnllConfig::default()
                .max_processes(clients + 1)
                .log_capacity(1 << 12)
                .group_persist(group),
        )
        .pmem(PmemConfig::with_capacity(512 << 20).apply_pending_at_crash(0.0));
    ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(shards)))
        .expect("create sharded kv")
}

#[test]
fn submits_route_to_the_owning_shard_only() {
    let object = sharded_kv(4, 1, 4);
    let service = object.service(1).unwrap();
    let mut client = service.client().unwrap();
    for i in 0..32 {
        let key = format!("k{i}");
        let expected_shard = service.shard_of(&key);
        let before: Vec<u64> = object
            .pools()
            .iter()
            .map(|p| p.stats().persistent_fences())
            .collect();
        let (value, shard, op_id) = client
            .submit_routed(KvOp::Put(key.clone(), format!("v{i}")))
            .unwrap();
        assert_eq!(shard, expected_shard);
        for (s, pool) in object.pools().iter().enumerate() {
            let delta = pool.stats().persistent_fences() - before[s];
            assert_eq!(
                delta,
                if s == shard { 1 } else { 0 },
                "update for shard {shard} fenced on shard {s}"
            );
        }
        // The remembered response equals the response the submit returned.
        assert_eq!(
            service.resolve_on(shard, op_id),
            ResolveOutcome::Executed(value)
        );
        assert_eq!(
            client.read_latest(&KvRead::Get(key)),
            KvValue::Value(Some(format!("v{i}")))
        );
    }
    object.check_invariants().unwrap();
}

#[test]
fn concurrent_clients_amortize_within_each_shard() {
    let threads = 4;
    let per_thread = 100;
    let object = sharded_kv(2, threads, threads);
    let service = object.service(threads).unwrap();
    let before = onll_shard::merged_global_stats(object.pools());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = service.clone();
            scope.spawn(move || {
                let mut client = service.client().expect("a free client slot per thread");
                for i in 0..per_thread {
                    let key = format!("k{}", (t * per_thread + i) % 16);
                    client.submit(KvOp::Put(key, format!("t{t}i{i}"))).unwrap();
                }
            });
        }
    });
    let fences = onll_shard::merged_global_stats(object.pools())
        .delta(&before)
        .persistent_fences;
    let (batches, ops) = service.batch_stats();
    assert_eq!(ops, (threads * per_thread) as u64);
    assert_eq!(fences, batches, "one fence per combined batch per shard");
    assert!(batches <= ops);
    object.check_invariants().unwrap();
}

#[test]
fn reads_merge_across_shards_with_zero_fences() {
    let object = sharded_kv(4, 1, 2);
    let service = object.service(1).unwrap();
    let mut client = service.client().unwrap();
    for i in 0..20 {
        client
            .submit(KvOp::Put(format!("k{i}"), "x".into()))
            .unwrap();
    }
    let w = object.aggregate_window();
    assert_eq!(client.read_latest(&KvRead::Len), KvValue::Len(20));
    assert_eq!(
        client.read_latest(&KvRead::Get("k3".into())),
        KvValue::Value(Some("x".into()))
    );
    let d = w.close();
    assert_eq!(d.persistent_fences, 0, "reads never fence");
    assert_eq!(d.stores, 0, "reads never touch NVM");
}

#[test]
fn replies_are_resolvable_after_crash_recovery() {
    let shards = 2;
    let config = ShardConfig::named("svc-crash")
        .shards(shards)
        .base(
            OnllConfig::default()
                .max_processes(3)
                .log_capacity(1 << 10)
                .group_persist(4),
        )
        .pmem(PmemConfig::with_capacity(256 << 20).apply_pending_at_crash(0.0));
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
    let service = object.service(2).unwrap();
    let mut client = service.client().unwrap();
    let mut receipts = Vec::new();
    for i in 0..16 {
        let (value, shard, op_id) = client
            .submit_routed(KvOp::Put(format!("k{i}"), format!("v{i}")))
            .unwrap();
        receipts.push((shard, op_id, value));
    }
    let pools = object.pools().to_vec();
    drop(client);
    drop(service);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }
    let (object, report) =
        ShardedDurable::<KvSpec>::recover(pools, config, router).expect("recover");
    assert_eq!(report.total_replayed(), 16);
    // Exactly-once: the remembered responses match what the submits returned.
    let service = object.service(2).unwrap();
    for (shard, op_id, value) in receipts {
        assert_eq!(
            service.resolve_on(shard, op_id),
            ResolveOutcome::Executed(value)
        );
    }
}

#[test]
fn deterministic_clients_replay_identities_across_recovery() {
    // The session-layer contract behind the server: claim the same client
    // index after a crash and the per-shard identity spaces line up, so a
    // pre-assigned OpId can be resolved and — when Unknown — replayed.
    let shards = 2;
    let config = ShardConfig::named("svc-replay")
        .shards(shards)
        .base(
            OnllConfig::default()
                .max_processes(4)
                .log_capacity(1 << 10)
                .group_persist(4),
        )
        .pmem(PmemConfig::with_capacity(256 << 20).apply_pending_at_crash(0.0));
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
    let service = object.service(2).unwrap();
    let mut client = service.client_for(1).unwrap();
    // Pre-assign the identity the way a wire client does, then submit it.
    let key = "replayed".to_string();
    let shard = client.shard_of(&key);
    let planned = client.shard_client(shard).peek_next_op_id();
    let (acked_value, acked_shard, acked_id) = client
        .submit_routed_with_id(planned, KvOp::Put(key.clone(), "v1".into()))
        .unwrap();
    assert_eq!((acked_shard, acked_id), (shard, planned));
    // A second identity is minted but never submitted — the "crashed before
    // publish" case.
    let lost = client.shard_client(shard).peek_next_op_id();

    let pools = object.pools().to_vec();
    drop(client);
    drop(service);
    drop(object);
    for p in &pools {
        p.crash_and_restart();
    }
    let (object, _) = ShardedDurable::<KvSpec>::recover(pools, config, router).expect("recover");
    let service = object.service(2).unwrap();
    let mut client = service.client_for(1).unwrap();
    // The acked identity resolves to its remembered response; replaying it
    // would be the client's bug, and the Unknown one replays exactly once.
    assert_eq!(
        service.resolve_on(shard, acked_id),
        ResolveOutcome::Executed(acked_value)
    );
    assert_eq!(service.resolve_on(shard, lost), ResolveOutcome::Unknown);
    let (_, s2, id2) = client
        .submit_routed_with_id(lost, KvOp::Put(key.clone(), "v2".into()))
        .unwrap();
    assert_eq!((s2, id2), (shard, lost));
    assert_eq!(
        client.read_latest(&KvRead::Get(key)),
        KvValue::Value(Some("v2".into()))
    );
    object.check_invariants().unwrap();
}
