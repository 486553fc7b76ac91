//! Experiment E3 (Theorem 5.1): at most one persistent fence per update and zero
//! per read-only operation, across object types, workload mixes and thread counts —
//! and the baselines do not meet the bound.

use remembering_consistently::baselines::{NaiveDurable, WalDurable};
use remembering_consistently::harness::{
    audit_fence_bounds, CheckpointingOnllAdapter, FenceAudit, OnllAdapter, Workload, WorkloadMix,
};
use remembering_consistently::nvm::{NvmPool, PmemConfig};
use remembering_consistently::objects::{CounterOp, CounterRead, CounterSpec, KvSpec, SetSpec};
use remembering_consistently::onll::{Durable, OnllConfig};
use std::sync::atomic::{AtomicBool, Ordering};

fn pool() -> NvmPool {
    NvmPool::new(PmemConfig::with_capacity(128 << 20))
}

#[test]
fn onll_counter_meets_bounds_across_mixes() {
    for percent in [0, 10, 50, 90, 100] {
        let p = pool();
        let obj =
            Durable::<CounterSpec>::create(p.clone(), OnllConfig::named("ctr").log_capacity(2048))
                .unwrap();
        let mut adapter = OnllAdapter::new(obj.register().unwrap());
        let mut w = Workload::new(WorkloadMix::with_update_percent(percent), percent as u64);
        let audit =
            audit_fence_bounds::<CounterSpec, _>(&mut adapter, p.stats(), w.counter_ops(1000));
        assert!(
            audit.satisfies_onll_bounds(),
            "mix {percent}% updates violated the bound: {audit:?}"
        );
        if percent > 0 {
            assert_eq!(audit.max_fences_per_update, 1);
        }
    }
}

#[test]
fn onll_kv_and_set_meet_bounds() {
    let p = pool();
    let kv =
        Durable::<KvSpec>::create(p.clone(), OnllConfig::named("kv").log_capacity(2048)).unwrap();
    let mut adapter = OnllAdapter::new(kv.register().unwrap());
    let mut w = Workload::new(WorkloadMix::default(), 3);
    let audit = audit_fence_bounds::<KvSpec, _>(&mut adapter, p.stats(), w.kv_ops(1000));
    assert!(audit.satisfies_onll_bounds(), "{audit:?}");

    let set =
        Durable::<SetSpec>::create(p.clone(), OnllConfig::named("set").log_capacity(2048)).unwrap();
    let mut handle = set.register().unwrap();
    let mut w = Workload::new(WorkloadMix::default(), 4);
    let ops: Vec<_> = (0..1000).map(|_| w.next_set_op()).collect();
    let mut adapter = OnllAdapter::new(std::mem::replace(&mut handle, set.register().unwrap()));
    let audit = audit_fence_bounds::<SetSpec, _>(&mut adapter, p.stats(), ops);
    assert!(audit.satisfies_onll_bounds(), "{audit:?}");
}

#[test]
fn onll_bound_holds_under_concurrency() {
    // With several processes helping each other, the *global* fence count stays at
    // most one per update, and per-thread audits still never exceed one per update.
    let p = pool();
    let obj = Durable::<CounterSpec>::create(
        p.clone(),
        OnllConfig::named("ctr").max_processes(4).log_capacity(4096),
    )
    .unwrap();
    let fences_before = p.stats().persistent_fences();
    let threads = 4;
    let per_thread = 300;
    let mut joins = Vec::new();
    for t in 0..threads {
        let obj = obj.clone();
        let p = p.clone();
        joins.push(std::thread::spawn(move || {
            let mut adapter = OnllAdapter::new(obj.register().unwrap());
            let mut w = Workload::new(WorkloadMix::with_update_percent(80), t as u64);
            audit_fence_bounds::<CounterSpec, _>(&mut adapter, p.stats(), w.counter_ops(per_thread))
        }));
    }
    let mut total_updates = 0;
    for j in joins {
        let audit = j.join().unwrap();
        assert!(audit.satisfies_onll_bounds(), "{audit:?}");
        total_updates += audit.updates;
    }
    let total_fences = p.stats().persistent_fences() - fences_before;
    assert!(
        total_fences <= total_updates,
        "{total_fences} fences for {total_updates} updates"
    );
}

#[test]
fn snapshot_readers_incur_zero_fences_while_writers_progress() {
    // The read half of Theorem 5.1, on the lock-free snapshot path: N
    // concurrent `SnapshotReader`s each audit their own thread's persistence
    // counters (`op_window` is per-thread, so a window opened inside a reader
    // thread attributes costs precisely) while a writer drives updates on
    // another thread. Every reader must observe exactly zero fences, zero
    // flushes and zero NVM stores — not amortized-to-zero, zero — and must
    // still see the writer's progress through the published snapshots.
    //
    // The fence penalty makes the writer block (not spin) on every persist,
    // so the reader threads are guaranteed scheduling time even on one core.
    let p = NvmPool::new(
        PmemConfig::with_capacity(128 << 20).fence_penalty(std::time::Duration::from_micros(20)),
    );
    let obj = Durable::<CounterSpec>::create(
        p.clone(),
        OnllConfig::named("snap-readers")
            .max_processes(2)
            .log_capacity(4096),
    )
    .unwrap();
    let service = obj.service(1).unwrap();
    service.enable_snapshots();

    let readers = 4;
    let writer_ops = 400i64;
    let stop = AtomicBool::new(false);
    let (audits, finals) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let (service, stop, p) = (service.clone(), &stop, p.clone());
                scope.spawn(move || {
                    let mut reader = service.snapshot_reader().unwrap();
                    let window = p.stats().op_window();
                    let mut audit = FenceAudit::default();
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let value = reader.read(&CounterRead::Get);
                        assert!(value >= last, "snapshot reads regressed");
                        last = value;
                        audit.reads += 1;
                    }
                    let d = window.close();
                    audit.read_fences = d.inherent_fences();
                    audit.read_flushes = d.flushes;
                    audit.read_stores = d.stores;
                    audit.max_fences_per_read = d.inherent_fences();
                    (audit, last)
                })
            })
            .collect();

        let mut writer = service.client().unwrap();
        for _ in 0..writer_ops {
            writer.submit(CounterOp::Increment).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut audits = FenceAudit::default();
        let mut finals = Vec::new();
        for h in handles {
            let (audit, last) = h.join().unwrap();
            assert!(
                audit.satisfies_onll_bounds(),
                "a snapshot reader touched NVM: {audit:?}"
            );
            assert_eq!(audit.read_fences, 0, "{audit:?}");
            assert_eq!(audit.read_flushes, 0, "{audit:?}");
            assert_eq!(audit.read_stores, 0, "{audit:?}");
            assert!(audit.reads > 0, "reader never got to run");
            audits.absorb(&audit);
            finals.push(last);
        }
        (audits, finals)
    });
    assert_eq!(audits.fences_per_read(), 0.0, "{audits:?}");
    // The writers actually progressed under the readers' feet, and the final
    // published snapshot carries the full prefix.
    assert_eq!(service.read_snapshot(&CounterRead::Get), writer_ops);
    assert!(
        finals.iter().all(|&v| v <= writer_ops),
        "a reader observed more than was written: {finals:?}"
    );
}

#[test]
fn checkpointing_preserves_the_per_update_bound() {
    // With checkpointing on (the ops-count trigger and the capacity backstop),
    // the paper's inherent bound must still hold per update: checkpoint publish and log
    // truncation fences land in the separate maintenance bucket, never in the
    // per-update count.
    for percent in [50, 100] {
        let p = pool();
        let cfg = OnllConfig::named("ckpt")
            .log_capacity(2048)
            .checkpoint_every(64)
            .checkpoint_slot_bytes(4096);
        let obj = Durable::<CounterSpec>::create(p.clone(), cfg).unwrap();
        let mut adapter = CheckpointingOnllAdapter::new(obj.register().unwrap());
        let before_persistent = p.stats().persistent_fences();
        let before_maintenance = p.stats().maintenance_fences();
        let mut w = Workload::new(WorkloadMix::with_update_percent(percent), percent as u64);
        let audit =
            audit_fence_bounds::<CounterSpec, _>(&mut adapter, p.stats(), w.counter_ops(1000));
        assert!(
            audit.satisfies_onll_bounds(),
            "mix {percent}% updates violated the inherent bound with checkpointing on: {audit:?}"
        );
        assert_eq!(audit.max_fences_per_update, 1);
        assert_eq!(audit.fences_per_update(), 1.0, "{audit:?}");
        // Checkpoints happened (so the separation was actually exercised)...
        assert!(audit.checkpoint_fences > 0, "{audit:?}");
        // ...at 2 fences per checkpoint, amortized over the 64-update interval.
        assert!(
            audit.checkpoint_fences <= 2 * (audit.updates / 64 + 1),
            "{audit:?}"
        );
        // Cross-check against the pool's global maintenance bucket.
        let maintenance = p.stats().maintenance_fences() - before_maintenance;
        let persistent = p.stats().persistent_fences() - before_persistent;
        assert_eq!(maintenance, audit.checkpoint_fences);
        assert_eq!(
            persistent - maintenance,
            audit.updates,
            "inherent fences must equal the update count exactly"
        );
    }
}

#[test]
fn baselines_do_not_meet_the_bound() {
    let p = pool();
    let naive = NaiveDurable::<CounterSpec>::create(p.clone(), 64);
    let mut w = Workload::new(WorkloadMix::update_only(), 1);
    let audit =
        audit_fence_bounds::<CounterSpec, _>(&mut naive.handle(), p.stats(), w.counter_ops(100));
    assert_eq!(audit.max_fences_per_update, 2);

    let p = pool();
    let wal = WalDurable::<CounterSpec>::create(p.clone(), 256);
    let mut w = Workload::new(WorkloadMix::update_only(), 2);
    let audit =
        audit_fence_bounds::<CounterSpec, _>(&mut wal.handle(), p.stats(), w.counter_ops(100));
    assert_eq!(audit.max_fences_per_update, 2);
}
