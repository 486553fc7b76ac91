//! Regression: an EIO surfacing inside the device backend's group-commit
//! window mid-batch must fail **every** parked submitter — no client may hang
//! on a combiner whose fence can never succeed, and none may be acknowledged
//! without a durable fence — and after the process reopens the device (fresh
//! executor, fresh poison state) the object recovers and commits fresh
//! batches.
//!
//! The combining protocol's obligation under a failed batch: the combiner
//! posts the error to every slot it drained, and any slot it did *not* drain
//! is served by a later pass (its submitter self-elects) whose fence fails
//! with the same poisoned-device error. Either way `submit()` returns `Err`.

use remembering_consistently::nvm::{BackendSpec, NvmPool, PersistDevice, PmemConfig, ScratchDir};
use remembering_consistently::objects::{CounterOp, CounterRead, CounterSpec};
use remembering_consistently::onll::{Durable, OnllConfig, ResolveOutcome};

#[test]
fn pwrite_eio_mid_batch_fails_every_waiter_and_recovers_on_reopen() {
    let dir = ScratchDir::new("device-eio").unwrap();
    let device_path = dir.path().join("eio.device");
    let cfg = OnllConfig::named("eio-ctr")
        .max_processes(4)
        .log_capacity(256)
        .group_persist(2);
    let spec = BackendSpec::device(&device_path);
    let pmem = PmemConfig::with_capacity(8 << 20);
    let mut receipts = Vec::new();
    {
        let pool = NvmPool::provision(&spec, pmem.clone(), &cfg.name).unwrap();
        let object = Durable::<CounterSpec>::create(pool, cfg.clone()).unwrap();
        let service = object.service(3).unwrap();
        // A committed baseline recovery must preserve.
        let mut warm = service.client().unwrap();
        let (warm_value, warm_id) = warm.submit(CounterOp::Add(1)).unwrap();
        assert_eq!(warm_value, 1);
        drop(warm);

        // Fail the next pwrite — the first write of the combined batch about
        // to be committed, so its entry never reaches the file.
        let device = PersistDevice::handle(&device_path, &pmem).unwrap();
        device.inject_pwrite_errors(1);

        // Two concurrent submitters: whoever combines hits the failing batch
        // IO; both must *return* (no hang) and both must be refused.
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let service = service.clone();
                    scope.spawn(move || {
                        let mut client = service.client().unwrap();
                        let op_id = client.peek_next_op_id();
                        (op_id, client.submit(CounterOp::Add(10)))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (op_id, result) in results {
            assert!(
                result.is_err(),
                "{op_id} was acknowledged without a durable fence: {result:?}"
            );
            receipts.push(op_id);
        }

        // The device stays poisoned for this incarnation: a fresh batch is
        // refused with the original error instead of wedging the combiner.
        let mut again = service.client().unwrap();
        assert!(again.submit(CounterOp::Add(100)).is_err());
        receipts.push(warm_id);
    }

    // Reopening the device file builds a fresh executor with fresh poison
    // state; recovery sees only what was durable before the EIO.
    let pool = NvmPool::reopen(&spec, pmem, &cfg.name).unwrap();
    let (object, report) = Durable::<CounterSpec>::recover(pool, cfg).unwrap();
    assert_eq!(
        report.durable_index, 1,
        "only the pre-EIO baseline survived"
    );
    assert_eq!(object.read_latest(&CounterRead::Get), 1);
    let (lost_a, lost_b, warm_id) = (receipts[0], receipts[1], receipts[2]);
    assert_eq!(object.resolve(warm_id), ResolveOutcome::Executed(1));
    for lost in [lost_a, lost_b] {
        assert_eq!(
            object.resolve(lost),
            ResolveOutcome::Unknown,
            "a refused op must be detectably not-executed, so it can replay"
        );
    }

    // And a fresh batch commits: the EIO poisoned the old incarnation, not
    // the object.
    let service = object.service(3).unwrap();
    let mut client = service.client().unwrap();
    assert_eq!(client.submit(CounterOp::Add(5)).unwrap().0, 6);
    object.check_invariants().unwrap();
}
