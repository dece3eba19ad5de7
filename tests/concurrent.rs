//! Concurrent linearizability-style checker: N OS threads hammer one shared
//! cache with version-stamped values and assert that every observed value is
//! consistent with some linearization of the completed operations.
//!
//! What is checked is the shared checker's contract (`tests/support`): every
//! observed value decodes exactly, is at least the completed floor, and
//! never goes backwards per observer; a miss is always allowed.
//!
//! Seeds, thread count and per-thread op count can be scaled up for stress
//! runs via `DITTO_STRESS_SEEDS`, `DITTO_STRESS_THREADS` and
//! `DITTO_STRESS_OPS` (used by the CI stress job).

mod support;

use ditto::cache::{DittoCache, DittoConfig};
use ditto::dm::obs::with_event_postmortem;
use ditto::dm::DmConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use support::{checker_pass, decode_version, encode_value, env_u64, make_keys, make_states, KEYS};

/// Tentpole checker: 8 threads (default) of racing version-stamped Sets and
/// Gets on a small shared cache, with evictions and bucket collisions in
/// play.  Every observation must linearize.
#[test]
fn concurrent_sets_and_gets_linearize() {
    let seeds = env_u64("DITTO_STRESS_SEEDS", 1);
    let threads = env_u64("DITTO_STRESS_THREADS", 8) as usize;
    let ops = env_u64("DITTO_STRESS_OPS", 3_000) as usize;
    let keys = make_keys("ck");
    for round in 0..seeds {
        // Capacity below the working set so evictions race the Get/Set
        // paths; every observation must still linearize.
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(KEYS as u64 * 3 / 4),
            DmConfig::default(),
        )
        .unwrap();
        let states = make_states();
        with_event_postmortem(cache.pool(), 32, || {
            checker_pass(&cache, &keys, &states, 0xD177_0000 + round, threads, ops);
        });

        let snap = cache.stats().snapshot();
        assert!(snap.hits > 0, "seed {round}: checker never hit");
        assert!(
            snap.misses > 0,
            "seed {round}: undersized cache never missed"
        );
    }
}

/// Satellite: the same checker holds *across a resize epoch* — two
/// background threads race to pump an online drain while foreground threads
/// keep hammering the cache — and the drained node ends with zero resident
/// object bytes.
#[test]
fn migration_under_live_traffic_drains_and_linearizes() {
    let seeds = env_u64("DITTO_STRESS_SEEDS", 1);
    let threads = env_u64("DITTO_STRESS_THREADS", 8).max(2) as usize - 1;
    let ops = env_u64("DITTO_STRESS_OPS", 3_000) as usize;
    let keys = make_keys("ck");
    for round in 0..seeds {
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::with_capacity(2_000),
            DmConfig::default().with_memory_nodes(2),
        )
        .unwrap();
        let states = make_states();

        // Preload every key so both nodes hold resident objects.
        {
            let mut client = cache.client();
            for (k, key) in keys.iter().enumerate() {
                let st = &states[k];
                let v = st.issued.fetch_add(1, Ordering::SeqCst) + 1;
                client.set(key, &encode_value(k as u64, v));
                st.completed.fetch_max(v, Ordering::SeqCst);
            }
        }
        assert!(
            cache.pool().resident_object_bytes(1) > 0,
            "node 1 must hold objects"
        );

        // Drain node 1 while foreground checker threads stay racing.
        cache.pool().drain_node(1).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Two pumpers: a stripe both take is claimed by one commit, and
            // the other's moves nothing.
            let pumps = [0, 1].map(|_| {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        cache.pump_migration();
                        std::thread::yield_now();
                    }
                })
            });
            // The stop flag must be set even when a checker thread panics —
            // otherwise the scope waits on the pump threads forever and the
            // panic is masked as a hang.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_event_postmortem(cache.pool(), 32, || {
                    checker_pass(&cache, &keys, &states, 0x3513_0000 + round, threads, ops);
                });
            }));
            stop.store(true, Ordering::SeqCst);
            for pump in pumps {
                pump.join().unwrap();
            }
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        });

        // With traffic quiesced the drain must finish to *zero* residual
        // bytes (relocations can transiently fail under pressure, so allow
        // a few more passes).
        for _ in 0..100 {
            if cache.pool().resident_object_bytes(1) == 0 {
                break;
            }
            cache.pump_migration();
        }
        let residual = cache.pool().resident_object_bytes(1);
        if residual != 0 {
            // Forensics: reachable residue (a sweep missed a slot-referenced
            // object; referenced == residual) vs an orphaned object (a slot
            // update lost the only reference; referenced < residual).
            let referenced = cache.client().referenced_object_bytes_on(1);
            panic!(
                "seed {round}: drained node still holds {residual} residual object \
                 bytes ({referenced} of them referenced by live slots)"
            );
        }
        assert!(
            cache.migration().is_idle(),
            "seed {round}: migration plan incomplete"
        );

        // The pumpers cut stripes over, and every claim was released.
        assert!(
            cache.pool().stats().stripe_cutovers() > 0,
            "seed {round}: no stripe cut over"
        );
        assert_eq!(
            cache.migration().directory().active_moves(),
            0,
            "seed {round}: a stripe claim was never released"
        );

        // Post-epoch sweep: every key still linearizes (observed version is
        // at least the completed floor) or is a clean miss.
        let mut client = cache.client();
        for (k, key) in keys.iter().enumerate() {
            let floor = states[k].completed.load(Ordering::SeqCst);
            if let Some(bytes) = client.get(key) {
                let v = decode_version(k as u64, &bytes);
                assert!(
                    v >= floor,
                    "key {k}: post-migration stale read {v} < {floor}"
                );
            }
        }
    }
}
