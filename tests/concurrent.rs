//! Concurrent linearizability-style checker: N OS threads hammer one shared
//! cache with version-stamped values and assert that every observed value is
//! consistent with some linearization of the completed operations.
//!
//! # What is checked
//!
//! Each key carries a monotonically increasing version counter.  Writers
//! serialize *same-key* Sets through a per-key mutex held across the call —
//! without it, two racing Sets of the same key can legitimately install in
//! either order in a last-write-wins cache, and "version went backwards"
//! would be a false alarm.  Cross-key contention (bucket CAS races,
//! evictions, frequency FAAs, migration redirects) stays fully concurrent.
//!
//! Under that discipline every `Get` must satisfy:
//!
//! * the bytes decode to exactly what some Set for that key encoded
//!   (the deterministic payload pins every byte — torn or recycled reads
//!   cannot pass);
//! * the version is at least the *completed floor* — the highest version
//!   whose Set had returned `Ok` before the Get began (a completed write can
//!   never be un-observed; a Set that returned `SetDropped` counts as issued
//!   but not completed, since its value may or may not have landed);
//! * per observer, versions never go backwards;
//! * a miss is always allowed (any key may be evicted at any time).
//!
//! Seeds, thread count and per-thread op count can be scaled up for stress
//! runs via `DITTO_STRESS_SEEDS`, `DITTO_STRESS_THREADS` and
//! `DITTO_STRESS_OPS` (used by the CI stress job).

use ditto::cache::{DittoCache, DittoConfig};
use ditto::dm::obs::with_event_postmortem;
use ditto::dm::DmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of distinct keys; small enough that bucket collisions and
/// evictions are frequent at the capacities used below.
const KEYS: usize = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn make_keys() -> Vec<Vec<u8>> {
    (0..KEYS)
        .map(|i| format!("ck{i:04}").into_bytes())
        .collect()
}

/// Per-key checker state shared by all threads.
struct KeyState {
    /// Next version to hand to a writer (versions start at 1).
    issued: AtomicU64,
    /// Highest version whose `try_set` has returned `Ok`.
    completed: AtomicU64,
    /// Serializes same-key Sets (see the module docs).
    write_gate: Mutex<()>,
}

fn make_states() -> Vec<KeyState> {
    (0..KEYS)
        .map(|_| KeyState {
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            write_gate: Mutex::new(()),
        })
        .collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Value lengths vary with the version so updates exercise both same-class
/// and cross-class replacements.
fn payload_len(key_idx: u64, version: u64) -> usize {
    16 + ((key_idx
        .wrapping_mul(131)
        .wrapping_add(version.wrapping_mul(17)))
        % 180) as usize
}

/// The unique value bytes for (key, version): a 16-byte stamp followed by a
/// deterministic pseudo-random payload.  Every byte is a function of
/// (key_idx, version), so the checker can verify a Get byte-for-byte.
fn encode_value(key_idx: u64, version: u64) -> Vec<u8> {
    let n = payload_len(key_idx, version);
    let mut out = Vec::with_capacity(16 + n);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&key_idx.to_le_bytes());
    let mut state = splitmix(key_idx ^ version.rotate_left(32));
    for i in 0..n {
        if i % 8 == 0 {
            state = splitmix(state);
        }
        out.push((state >> (8 * (i % 8))) as u8);
    }
    out
}

/// Decodes a value observed for `key_idx`, asserting it is *exactly* the
/// encoding of some version, and returns that version.
fn decode_version(key_idx: u64, bytes: &[u8]) -> u64 {
    assert!(
        bytes.len() >= 16,
        "key {key_idx}: value truncated to {} bytes",
        bytes.len()
    );
    let version = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let stamped_key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(
        stamped_key, key_idx,
        "key {key_idx}: value stamped for key {stamped_key}"
    );
    assert_eq!(
        bytes,
        &encode_value(key_idx, version)[..],
        "key {key_idx}: corrupt bytes for version {version}"
    );
    version
}

/// Runs `threads` checker threads for `ops_per_thread` mixed Get/Set
/// operations each, asserting linearizability as described in the module
/// docs.  Reuses `states` so repeated passes over the same cache keep their
/// version history.
fn checker_pass(
    cache: &DittoCache,
    keys: &[Vec<u8>],
    states: &[KeyState],
    seed: u64,
    threads: usize,
    ops_per_thread: usize,
) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = cache.clone();
            s.spawn(move || {
                let mut client = cache.client();
                let mut rng = StdRng::seed_from_u64(splitmix(seed ^ (t as u64)));
                let mut last_seen = vec![0u64; keys.len()];
                for _ in 0..ops_per_thread {
                    let k = rng.gen_range(0..keys.len());
                    let st = &states[k];
                    if rng.gen_range(0..10u32) < 4 {
                        let gate = st.write_gate.lock().unwrap();
                        let v = st.issued.fetch_add(1, Ordering::SeqCst) + 1;
                        let completed = client.try_set(&keys[k], &encode_value(k as u64, v));
                        if completed.is_ok() {
                            st.completed.fetch_max(v, Ordering::SeqCst);
                        }
                        drop(gate);
                        if completed.is_ok() {
                            last_seen[k] = last_seen[k].max(v);
                        }
                    } else {
                        // The floor is captured *before* the Get begins: a
                        // Set completed by then can never be un-observed,
                        // and this observer must never see versions move
                        // backwards.
                        let floor = st.completed.load(Ordering::SeqCst).max(last_seen[k]);
                        if let Some(bytes) = client.get(&keys[k]) {
                            let v = decode_version(k as u64, &bytes);
                            assert!(
                                v <= st.issued.load(Ordering::SeqCst),
                                "key {k}: version {v} was never issued"
                            );
                            if v < floor {
                                // Re-read before panicking: a *persistent*
                                // stale value means a duplicate live entry
                                // (two slots answering for one key); a
                                // transient one points at a racy window in
                                // a single slot's update path.
                                let rereads: Vec<u64> = (0..4)
                                    .map(|_| {
                                        client
                                            .get(&keys[k])
                                            .map(|b| decode_version(k as u64, &b))
                                            .unwrap_or(u64::MAX)
                                    })
                                    .collect();
                                panic!(
                                    "key {k}: stale read of version {v}, completed floor \
                                     {floor} (issued {}); rereads (MAX = miss): {rereads:?}",
                                    st.issued.load(Ordering::SeqCst)
                                );
                            }
                            last_seen[k] = v;
                        }
                    }
                }
            });
        }
    });
}

/// Tentpole checker: 8 threads (default) of racing version-stamped Sets and
/// Gets on a small shared cache, with evictions and bucket collisions in
/// play.  Every observation must linearize.
#[test]
fn concurrent_sets_and_gets_linearize() {
    let seeds = env_u64("DITTO_STRESS_SEEDS", 1);
    let threads = env_u64("DITTO_STRESS_THREADS", 8) as usize;
    let ops = env_u64("DITTO_STRESS_OPS", 3_000) as usize;
    let keys = make_keys();
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
        // Lifetime contention counters are observable through the pool.
        let contention = cache.pool().stats().contention();
        assert_eq!(
            contention.lock_acquire_attempts,
            contention.lock_acquisitions + contention.lock_wait_retries,
            "seed {round}: contention accounting identity violated"
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
    let keys = make_keys();
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
