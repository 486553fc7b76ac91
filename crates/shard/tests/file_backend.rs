//! Sharded objects on the file backend: per-shard pool files, simulated
//! crash parity, and full cross-"process" reopen from disk (including the
//! checkpoint + truncated-log path).

use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::{BackendSpec, PmemConfig, ScratchDir};
use onll::OnllConfig;
use onll_shard::{HashRouter, ShardConfig, ShardedDurable};
use std::sync::Arc;

fn file_config(label: &str, shards: usize) -> (ShardConfig, ScratchDir) {
    let dir = ScratchDir::new(label).unwrap();
    let config = ShardConfig::named("file-kv")
        .shards(shards)
        .base(OnllConfig::default().max_processes(2).log_capacity(1024))
        .pmem(PmemConfig::with_capacity(64 << 20).apply_pending_at_crash(0.0))
        .backend(BackendSpec::file(dir.path()));
    (config, dir)
}

fn put(i: u64) -> KvOp {
    KvOp::Put(format!("key-{i}"), format!("value-{i}"))
}

fn get(object: &ShardedDurable<KvSpec>, i: u64) -> Option<String> {
    match object.read_latest(&KvRead::Get(format!("key-{i}"))) {
        KvValue::Value(v) => v,
        KvValue::Len(_) => None,
    }
}

#[test]
fn create_writes_one_pool_file_per_shard() {
    let (config, cleanup) = file_config("shard-files", 4);
    let object = ShardedDurable::<KvSpec>::create(config, Arc::new(HashRouter::new(4))).unwrap();
    assert_eq!(object.pools().len(), 4);
    for pool in object.pools() {
        assert_eq!(pool.backend_name(), "file");
    }
    let spec = BackendSpec::file(cleanup.path());
    for i in 0..4 {
        let path = spec.pool_path(&format!("file-kv/shard{i}")).unwrap();
        assert!(path.is_file(), "missing shard {i} pool file {path:?}");
    }
}

#[test]
fn sharded_store_reopens_from_disk_alone() {
    let (config, _cleanup) = file_config("shard-reopen", 3);
    let router = Arc::new(HashRouter::new(3));
    {
        let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
        let mut handle = object.register().unwrap();
        for i in 0..60 {
            handle.update(put(i));
        }
        // Everything dropped: the next incarnation shares only the files.
    }
    let pools = config.open_pools().expect("reopen the pool files");
    let (recovered, report) =
        ShardedDurable::<KvSpec>::recover(pools, config, router).expect("recover from disk");
    assert_eq!(report.per_shard.len(), 3);
    assert!(report.total_replayed() >= 60);
    for i in 0..60 {
        assert_eq!(
            get(&recovered, i),
            Some(format!("value-{i}")),
            "key-{i} lost across the reopen"
        );
    }
}

#[test]
fn checkpointed_sharded_store_reopens_with_bounded_replay() {
    let (mut config, _cleanup) = file_config("shard-reopen-cp", 2);
    config = config
        .base(OnllConfig::default().max_processes(2).log_capacity(1024))
        .checkpoint_every(16)
        .checkpoint_slot_bytes(64 * 1024);
    let router = Arc::new(HashRouter::new(2));
    {
        let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
        let mut handle = object.register().unwrap();
        for i in 0..100 {
            handle.update(put(i));
        }
        // Publish a checkpoint on every shard, then append a small tail that
        // recovery must replay from the logs.
        for s in 0..2 {
            handle.shard_handle(s).sync();
            handle.shard_handle(s).checkpoint().unwrap();
        }
        for i in 100..120 {
            handle.update(put(i));
        }
    }
    let pools = config.open_pools().expect("reopen the pool files");
    let (recovered, report) =
        ShardedDurable::<KvSpec>::recover_with_checkpoints(pools, config, router)
            .expect("checkpointed recovery from disk");
    assert!(
        report.checkpoint_epochs().iter().any(|&e| e > 0),
        "no shard checkpointed: {report:?}"
    );
    assert!(
        report.total_replayed() < 120,
        "checkpoints must bound the replayed tail, replayed {}",
        report.total_replayed()
    );
    for i in 0..120 {
        assert_eq!(get(&recovered, i), Some(format!("value-{i}")));
    }
}

#[test]
fn simulated_crash_on_file_pools_loses_only_unfenced_data() {
    let (config, _cleanup) = file_config("shard-crash", 2);
    let router = Arc::new(HashRouter::new(2));
    let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
    let mut handle = object.register().unwrap();
    for i in 0..30 {
        handle.update(put(i));
    }
    let pools = object.pools().to_vec();
    drop(handle);
    drop(object);
    for pool in &pools {
        pool.crash_and_restart();
    }
    let (recovered, report) =
        ShardedDurable::<KvSpec>::recover(pools, config, router).expect("recover");
    assert_eq!(report.total_replayed(), 30);
    for i in 0..30 {
        assert_eq!(get(&recovered, i), Some(format!("value-{i}")));
    }
}
