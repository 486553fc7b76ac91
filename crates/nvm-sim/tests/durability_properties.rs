//! Property tests of the durability guarantees, on every medium.
//!
//! Whatever the medium, write-back policy and crash point, two invariants must
//! hold:
//!
//! 1. data that was written, flushed and fenced before the crash is always
//!    readable afterwards (persistence is guaranteed);
//! 2. data that was never written never materializes (no phantom bytes), and under
//!    the adversarial `OnlyOnFence` policy with pending-flush probability 0, data
//!    that was never fenced never survives.
//!
//! Each case runs on every [`BackendSpec`]: the simulator, a private file and a
//! device segment, each provisioned in a fresh [`ScratchDir`].

use nvm_sim::{BackendSpec, NvmPool, PmemConfig, ScratchDir, WritebackPolicy, CACHE_LINE_SIZE};
use proptest::prelude::*;

/// Runs `case` on a fresh pool of every medium, provisioned with `cfg`.
fn on_every_medium(cfg: PmemConfig, mut case: impl FnMut(&BackendSpec, &NvmPool)) {
    let dir = ScratchDir::new("durability-properties").unwrap();
    for spec in [
        BackendSpec::Sim,
        BackendSpec::file(dir.path()),
        BackendSpec::device(dir.path().join("pool.dev")),
    ] {
        let pool = NvmPool::provision(&spec, cfg.clone(), "pool").unwrap();
        case(&spec, &pool);
    }
}

fn policies() -> Vec<WritebackPolicy> {
    vec![
        WritebackPolicy::OnlyOnFence,
        WritebackPolicy::EagerOnFlush,
        WritebackPolicy::RandomEviction {
            probability: 0.5,
            seed: 11,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Persisted writes survive a crash under every policy and any pending-flush
    /// fate.
    #[test]
    fn persisted_writes_always_survive(
        writes in proptest::collection::vec((0u64..64, proptest::collection::vec(any::<u8>(), 1..40)), 1..20),
        pending_prob in 0.0f64..=1.0,
        policy_idx in 0usize..3,
    ) {
        let policy = policies()[policy_idx];
        let cfg = PmemConfig::with_capacity(4 << 20)
            .policy(policy)
            .apply_pending_at_crash(pending_prob);
        on_every_medium(cfg, |spec, pool| {
            let base = pool.alloc(64 * CACHE_LINE_SIZE).unwrap();
            // Persist each write (write + flush + fence); later writes may
            // overlap earlier ones — the last persisted value per byte must win.
            let mut expected = vec![0u8; 64 * CACHE_LINE_SIZE];
            for (slot, data) in &writes {
                let addr = base + slot * CACHE_LINE_SIZE as u64;
                pool.persist(addr, data).unwrap();
                expected[(slot * CACHE_LINE_SIZE as u64) as usize..][..data.len()]
                    .copy_from_slice(data);
            }
            pool.crash_and_restart();
            for (slot, data) in &writes {
                let addr = base + slot * CACHE_LINE_SIZE as u64;
                let got = pool.read_vec(addr, data.len());
                let want = &expected[(slot * CACHE_LINE_SIZE as u64) as usize..][..data.len()];
                prop_assert_eq!(got.as_slice(), want, "{:?}: slot {} lost or corrupted", spec, slot);
            }
        });
    }

    /// Unfenced writes never survive under the adversarial policy with pending
    /// flushes dropped, and bytes that were never written never appear.
    #[test]
    fn unfenced_writes_never_survive_under_adversarial_policy(
        writes in proptest::collection::vec((0u64..32, any::<u8>()), 1..20),
        flush_some in any::<bool>(),
    ) {
        let cfg = PmemConfig::with_capacity(1 << 20)
            .policy(WritebackPolicy::OnlyOnFence)
            .apply_pending_at_crash(0.0);
        on_every_medium(cfg, |spec, pool| {
            let base = pool.alloc(32 * CACHE_LINE_SIZE).unwrap();
            for (slot, byte) in &writes {
                let addr = base + slot * CACHE_LINE_SIZE as u64;
                pool.write(addr, &[*byte]);
                if flush_some {
                    pool.flush(addr, 1); // flushed but never fenced
                }
            }
            pool.crash_and_restart();
            for slot in 0..32u64 {
                let got = pool.read_vec(base + slot * CACHE_LINE_SIZE as u64, 1);
                prop_assert_eq!(got[0], 0, "{:?}: slot {} retained an unfenced write", spec, slot);
            }
        });
    }

    /// The persistent-fence counter equals the number of fences that had pending
    /// flushes, independent of interleaving with plain fences.
    #[test]
    fn persistent_fence_accounting_is_exact(
        script in proptest::collection::vec(0u8..3, 1..60),
    ) {
        on_every_medium(PmemConfig::with_capacity(1 << 20), |spec, pool| {
            let base = pool.alloc(4096).unwrap();
            let before = pool.stats().snapshot();
            let mut pending = false;
            let mut expected_persistent = 0u64;
            let mut expected_fences = 0u64;
            for (i, action) in script.iter().enumerate() {
                match action {
                    0 => pool.write(base + (i as u64 % 32) * 64, &[i as u8]),
                    1 => {
                        pool.flush(base + (i as u64 % 32) * 64, 1);
                        pending = true;
                    }
                    _ => {
                        pool.fence().unwrap();
                        expected_fences += 1;
                        if pending {
                            expected_persistent += 1;
                            pending = false;
                        }
                    }
                }
            }
            let delta = pool.stats().snapshot().global_delta(&before);
            prop_assert_eq!(delta.fences, expected_fences, "{:?}", spec);
            prop_assert_eq!(delta.persistent_fences, expected_persistent, "{:?}", spec);
        });
    }
}
