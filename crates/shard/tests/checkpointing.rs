//! Sharded checkpoint/compaction tests: the background checkpoint daemon
//! compacts shards independently, checkpoint-aware recovery replays only the
//! per-shard tails and surfaces per-shard epochs, and geometry mismatches fail
//! loudly instead of silently replaying.

use durable_objects::{KvOp, KvRead, KvSpec, KvValue};
use nvm_sim::{NvmPool, PmemConfig};
use onll::{OnllConfig, OnllError};
use onll_shard::{HashRouter, ShardConfig, ShardedDurable};
use std::sync::Arc;
use std::time::Duration;

fn checkpointing_config(name: &str, shards: usize) -> ShardConfig {
    ShardConfig::named(name)
        .shards(shards)
        .base(
            OnllConfig::default()
                // Workers plus one slot per shard for the checkpoint daemon.
                .max_processes(3)
                .log_capacity(4096),
        )
        .checkpoint_every(32)
        .checkpoint_slot_bytes(64 * 1024)
        .pmem(PmemConfig::with_capacity(256 << 20).apply_pending_at_crash(0.0))
}

fn put(i: u64) -> KvOp {
    KvOp::Put(format!("key-{i}"), format!("value-{i}"))
}

#[test]
fn background_daemon_compacts_shards_independently_and_recovery_replays_only_tails() {
    let shards = 4;
    let config = checkpointing_config("daemon", shards);
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
    let pools: Vec<NvmPool> = object.pools().to_vec();

    let daemon = object.spawn_checkpointer(Duration::from_millis(1)).unwrap();
    let total = 600u64;
    {
        let mut handle = object.register().unwrap();
        for i in 0..total {
            handle.update(put(i));
        }
    }
    // Let the daemon catch up, then stop it (it runs one final pass).
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        daemon.last_errors().iter().all(|e| e.is_none()),
        "daemon reported checkpoint errors: {:?}",
        daemon.last_errors()
    );
    let checkpoints = daemon.stop();
    assert!(
        checkpoints.iter().any(|&c| c > 0),
        "the daemon never checkpointed: {checkpoints:?}"
    );
    // Published watermarks compacted the worker logs too (lazy truncate-below
    // runs on the owners' next updates), so log footprint is bounded.
    for i in 0..shards {
        let shard = object.shard(i);
        if shard.checkpoint_watermark() > 0 {
            assert!(
                shard.max_log_live_bytes() < 4096 * 64,
                "shard {i} logs were never compacted"
            );
        }
    }
    drop(object);

    for pool in &pools {
        pool.crash_and_restart();
    }
    let (recovered, report) =
        ShardedDurable::<KvSpec>::recover_with_checkpoints(pools, config, router).unwrap();
    assert_eq!(report.shards(), shards);
    // Shards checkpoint independently: epochs/watermarks are per shard, and
    // every shard that checkpointed replays only its tail.
    for (i, shard_report) in report.per_shard.iter().enumerate() {
        assert!(
            shard_report.durable_index >= shard_report.checkpoint_index,
            "shard {i}: {shard_report:?}"
        );
        if shard_report.checkpoint_index > 0 {
            assert!(shard_report.checkpoint_epoch > 0, "shard {i}");
            assert!(
                (shard_report.replayed_ops() as u64) < shard_report.durable_index,
                "shard {i} replayed its full history despite a checkpoint"
            );
        }
    }
    // No updates lost: every key reads back.
    assert_eq!(
        recovered.read_latest(&KvRead::Len),
        KvValue::Len(total as usize)
    );
    for i in (0..total).step_by(97) {
        assert_eq!(
            recovered.read_latest(&KvRead::Get(format!("key-{i}"))),
            KvValue::Value(Some(format!("value-{i}"))),
        );
    }
}

#[test]
fn spawn_checkpointer_requires_a_trigger() {
    let shards = 2;
    let config = ShardConfig::named("no-triggers")
        .shards(shards)
        .base(OnllConfig::default().max_processes(2))
        .pmem(PmemConfig::with_capacity(64 << 20));
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config, router).unwrap();
    assert!(matches!(
        object.spawn_checkpointer(Duration::from_millis(1)),
        Err(OnllError::CheckpointingDisabled)
    ));
}

#[test]
fn spawn_checkpointer_with_exhausted_slots_fails_without_leaking_threads() {
    // max_processes = 1 and a registered worker: the daemon cannot claim a
    // slot on any shard. The spawn must fail up front (no thread may be left
    // running detached) and the object must keep working.
    let shards = 2;
    let config = ShardConfig::named("full-slots")
        .shards(shards)
        .base(OnllConfig::default().max_processes(1).log_capacity(256))
        .checkpoint_every(8)
        .pmem(PmemConfig::with_capacity(128 << 20));
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config, router).unwrap();
    let mut handle = object.register().unwrap();
    assert!(matches!(
        object.spawn_checkpointer(Duration::from_millis(1)),
        Err(OnllError::NoFreeProcessSlot)
    ));
    // All slots are free again after the failed spawn released its claims…
    handle.update(put(1));
    drop(handle);
    // …so a later spawn (with a slot available) succeeds.
    let daemon = object.spawn_checkpointer(Duration::from_millis(1)).unwrap();
    drop(daemon);
}

#[test]
fn geometry_mismatch_fails_loudly_instead_of_silently_replaying() {
    // Two sharded objects with different per-shard geometry in separate pool
    // sets; recovering with a mixed pool vector must be rejected, not replayed.
    let router = Arc::new(HashRouter::new(2));
    let config_a = ShardConfig::named("geo")
        .shards(2)
        .base(OnllConfig::default().max_processes(2).log_capacity(512))
        .pmem(PmemConfig::with_capacity(64 << 20));
    let config_b = ShardConfig::named("geo")
        .shards(2)
        .base(
            OnllConfig::default()
                .max_processes(4)
                .log_capacity(512)
                .group_persist(4),
        )
        .pmem(PmemConfig::with_capacity(64 << 20));

    let a = ShardedDurable::<KvSpec>::create(config_a.clone(), router.clone()).unwrap();
    let b = ShardedDurable::<KvSpec>::create(config_b, router.clone()).unwrap();
    let mut ha = a.register().unwrap();
    let mut hb = b.register().unwrap();
    for i in 0..40 {
        ha.update(put(i));
        hb.update(put(i));
    }
    // Mixed pools: shard 0 from object A, shard 1 from object B.
    let pools = vec![a.pools()[0].clone(), b.pools()[1].clone()];
    drop((ha, hb, a, b));
    for pool in &pools {
        pool.crash_and_restart();
    }
    let err = ShardedDurable::<KvSpec>::recover(pools, config_a, router).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("shard 1") && msg.contains("geometry-mismatched"),
        "expected a loud geometry error, got: {msg}"
    );
}

#[test]
fn recover_with_checkpoints_without_any_checkpoint_is_full_replay() {
    let shards = 2;
    let config = checkpointing_config("no-cp-yet", shards);
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config.clone(), router.clone()).unwrap();
    let pools: Vec<NvmPool> = object.pools().to_vec();
    {
        let mut handle = object.register().unwrap();
        for i in 0..20 {
            handle.update(put(i));
        }
    }
    drop(object);
    for pool in &pools {
        pool.crash_and_restart();
    }
    let (recovered, report) =
        ShardedDurable::<KvSpec>::recover_with_checkpoints(pools, config, router).unwrap();
    assert_eq!(report.checkpoint_indices(), vec![0, 0]);
    assert_eq!(report.checkpoint_epochs(), vec![0, 0]);
    assert_eq!(report.total_durable(), 20);
    assert_eq!(recovered.read_latest(&KvRead::Len), KvValue::Len(20));
}

#[test]
fn daemon_alone_keeps_a_small_combiner_log_from_filling() {
    // A 32-entry log and an ops-count trigger it can never reach: only the
    // capacity backstop, raised by the combiner that owns the filling log,
    // can wake the daemon. Nothing calls `maybe_checkpoint`. The simulator's
    // fences are near free, so the combiner often fills the last quarter of
    // its log before the daemon's checkpoint lands; it must then wait for
    // that checkpoint, not refuse the put.
    let shards = 2;
    let config = ShardConfig::named("backstop")
        .shards(shards)
        .base(
            OnllConfig::default()
                // Combiner, one client, and the daemon's slot.
                .max_processes(3)
                .log_capacity(32),
        )
        .checkpoint_every(1 << 30)
        .checkpoint_slot_bytes(64 * 1024)
        .pmem(PmemConfig::with_capacity(64 << 20));
    let router = Arc::new(HashRouter::new(shards));
    let object = ShardedDurable::<KvSpec>::create(config, router).unwrap();
    let service = object.service(1).unwrap();
    let daemon = object.spawn_checkpointer(Duration::from_secs(60)).unwrap();
    let mut client = service.client().unwrap();
    let total = 300u64;
    let mut log_full = 0;
    for i in 0..total {
        match client.submit(put(i % 40)) {
            Ok(_) => {}
            Err(OnllError::LogFull) => log_full += 1,
            Err(e) => panic!("put {i}: {e:?}"),
        }
    }
    assert_eq!(log_full, 0, "{log_full} of {total} puts found the log full");
    assert!(
        daemon.last_errors().iter().all(|e| e.is_none()),
        "{:?}",
        daemon.last_errors()
    );
    let checkpoints = daemon.stop();
    assert!(
        checkpoints.iter().all(|&c| c > 0),
        "a shard never checkpointed: {checkpoints:?}"
    );
    assert_eq!(object.read_latest(&KvRead::Len), KvValue::Len(40));
}
