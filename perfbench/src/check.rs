//! Correctness checks against a model the benchmark keeps apart from the
//! program: a plain `BTreeMap` updated in the order the benchmark issued its
//! operations. Every check returns `Err` with a description on a mismatch;
//! the workloads collect those errors and a run with any error fails.

use durable_objects::KvValue;
use onll::ResolveOutcome;
use std::collections::BTreeMap;

/// The independent model of the key-value map.
pub type Model = BTreeMap<String, String>;

/// Applies a put to the model and returns the previous value, which is what
/// the program must have returned for the same put.
pub fn model_put(model: &mut Model, key: &str, value: &str) -> Option<String> {
    model.insert(key.to_string(), value.to_string())
}

/// A put's returned previous value, or a read's value, equals the model's.
pub fn check_value(
    what: &str,
    key: &str,
    got: &KvValue,
    want: Option<&String>,
) -> Result<(), String> {
    match got {
        KvValue::Value(v) if v.as_ref() == want => Ok(()),
        other => Err(format!(
            "{what} {key}: program returned {other:?}, model has {want:?}"
        )),
    }
}

/// A recovered store equals the model: every model key reads back its model
/// value, and the store holds no other key (its length equals the model's).
pub fn check_recovered(
    what: &str,
    model: &Model,
    mut get: impl FnMut(&str) -> Result<KvValue, String>,
    len: usize,
) -> Result<(), String> {
    for (key, value) in model {
        check_value(what, key, &get(key)?, Some(value))?;
    }
    if len != model.len() {
        return Err(format!(
            "{what}: store holds {len} keys, model {}",
            model.len()
        ));
    }
    Ok(())
}

/// An acknowledged operation's identity resolves to `Executed` with the
/// value its acknowledgement carried.
pub fn check_resolved(
    what: &str,
    outcome: ResolveOutcome<KvValue>,
    acked: &KvValue,
) -> Result<(), String> {
    match outcome {
        ResolveOutcome::Executed(v) if &v == acked => Ok(()),
        other => Err(format!(
            "{what}: resolved to {other:?}, acknowledged {acked:?}"
        )),
    }
}

/// Two counts that the program's cost account says must be equal.
pub fn check_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: counted {got}, expected {want}"))
    }
}

#[cfg(test)]
mod tests {
    //! Self-test of the checks: each is fed a model with one value changed
    //! and a model with one key missing, and must reject both, while the
    //! true model passes. Run with `cargo test --release` in this directory.

    use super::*;
    use durable_objects::{KvOp, KvRead, KvSpec};
    use nvm_sim::{NvmPool, PmemConfig};
    use onll::{Durable, OnllConfig};

    fn model() -> Model {
        (0..32)
            .map(|i| (format!("k{i:02}"), format!("v{i}")))
            .collect()
    }

    fn changed(model: &Model) -> Model {
        let mut m = model.clone();
        m.insert("k07".into(), "not-v7".into());
        m
    }

    fn missing(model: &Model) -> Model {
        let mut m = model.clone();
        m.remove("k11");
        m
    }

    /// A real store, crashed and recovered, holding exactly `model()`.
    fn recovered_store() -> Durable<KvSpec> {
        let pool = NvmPool::new(PmemConfig::with_capacity(8 << 20));
        let cfg = OnllConfig::named("selftest")
            .max_processes(2)
            .checkpoint_every(8);
        let store = Durable::<KvSpec>::create(pool.clone(), cfg.clone()).unwrap();
        let mut h = store.register().unwrap();
        for (k, v) in model() {
            h.update_with_checkpoint(KvOp::Put(k, v)).unwrap();
        }
        drop(h);
        drop(store);
        pool.crash_and_restart();
        Durable::<KvSpec>::recover_with_checkpoints(pool, cfg)
            .unwrap()
            .0
    }

    fn recovered_check(store: &Durable<KvSpec>, m: &Model) -> Result<(), String> {
        let mut h = store.register().unwrap();
        let len = match h.read(&KvRead::Len) {
            KvValue::Len(n) => n,
            other => panic!("len read returned {other:?}"),
        };
        check_recovered("recovered", m, |k| Ok(h.read(&KvRead::Get(k.into()))), len)
    }

    #[test]
    fn recovered_map_check_rejects_corrupted_models() {
        let store = recovered_store();
        let m = model();
        recovered_check(&store, &m).unwrap();
        assert!(recovered_check(&store, &changed(&m)).is_err());
        assert!(recovered_check(&store, &missing(&m)).is_err());
    }

    #[test]
    fn value_check_rejects_corrupted_models() {
        let store = recovered_store();
        let mut h = store.register().unwrap();
        let m = model();
        let key = "k07";
        let got = h.read(&KvRead::Get(key.into()));
        check_value("get", key, &got, m.get(key)).unwrap();
        assert!(check_value("get", key, &got, changed(&m).get(key)).is_err());
        let key = "k11";
        let got = h.read(&KvRead::Get(key.into()));
        check_value("get", key, &got, m.get(key)).unwrap();
        assert!(check_value("get", key, &got, missing(&m).get(key)).is_err());
        // A put's previous value against the model's previous value.
        let mut live = m.clone();
        let got = h.update(KvOp::Put("k07".into(), "fresh".into()));
        check_value(
            "put",
            "k07",
            &got,
            model_put(&mut live, "k07", "fresh").as_ref(),
        )
        .unwrap();
        assert!(check_value("put", "k07", &got, changed(&m).get("k07")).is_err());
    }

    #[test]
    fn resolve_check_rejects_corrupted_models() {
        let pool = NvmPool::new(PmemConfig::with_capacity(8 << 20));
        let store =
            Durable::<KvSpec>::create(pool, OnllConfig::named("r").max_processes(3)).unwrap();
        let service = store.service(1).unwrap();
        let mut client = service.client().unwrap();
        let m = model();
        for (k, v) in &m {
            client.submit(KvOp::Put(k.clone(), v.clone())).unwrap();
        }
        let (acked, id) = client.submit(KvOp::Put("k07".into(), "w7".into())).unwrap();
        check_resolved("resolve", service.resolve(id), &acked).unwrap();
        let from = |m: &Model| KvValue::Value(m.get("k07").cloned());
        assert!(check_resolved("resolve", service.resolve(id), &from(&changed(&m))).is_err());
        let (acked, id) = client
            .submit(KvOp::Put("k11".into(), "w11".into()))
            .unwrap();
        check_resolved("resolve", service.resolve(id), &acked).unwrap();
        let from = |m: &Model| KvValue::Value(m.get("k11").cloned());
        assert!(check_resolved("resolve", service.resolve(id), &from(&missing(&m))).is_err());
    }

    #[test]
    fn count_checks_reject_off_by_one() {
        // Fence and read counts: the model is the number of operations the
        // benchmark issued; one missing or one extra must be rejected.
        let pool = NvmPool::new(PmemConfig::with_capacity(8 << 20));
        let cfg = OnllConfig::named("c").max_processes(1);
        let store = Durable::<KvSpec>::create(pool.clone(), cfg).unwrap();
        let mut h = store.register().unwrap();
        let before = pool.stats().snapshot();
        let m = model();
        for (k, v) in &m {
            h.update(KvOp::Put(k.clone(), v.clone()));
        }
        let fences = pool
            .stats()
            .snapshot()
            .global_delta(&before)
            .inherent_fences();
        check_count("fences", fences, m.len() as u64).unwrap();
        assert!(check_count("fences", fences, changed(&m).len() as u64 + 1).is_err());
        assert!(check_count("fences", fences, missing(&m).len() as u64).is_err());
    }
}
