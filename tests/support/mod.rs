//! Checkers shared by the integration tests: the version-stamped
//! linearizability checker (`concurrent.rs`, `chaos.rs`,
//! `local_tier_parity.rs`) and the zero-orphan invariant (`chaos.rs`,
//! `spec_read.rs`, `evict_ahead.rs`).  Each test file includes it with `mod support;` and keeps
//! its own key prefix and seeds.
//!
//! # The linearizability checker
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
//!   never be un-observed; a Set that returned `Err` counts as issued but
//!   not completed, since its value may or may not have landed);
//! * per observer, versions never go backwards;
//! * a miss is always allowed (any key may be evicted at any time).

#![allow(dead_code)] // each test file uses only part of it

use ditto::cache::{DittoCache, DittoClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of distinct keys; small enough that bucket collisions and
/// evictions are frequent at the capacities the tests use.
pub const KEYS: usize = 64;

/// `name` from the environment as a number, or `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The [`KEYS`] keys `{prefix}0000`, `{prefix}0001`, …
pub fn make_keys(prefix: &str) -> Vec<Vec<u8>> {
    (0..KEYS)
        .map(|i| format!("{prefix}{i:04}").into_bytes())
        .collect()
}

/// Per-key checker state shared by all threads.
pub struct KeyState {
    /// Next version to hand to a writer (versions start at 1).
    pub issued: AtomicU64,
    /// Highest version whose `try_set` has returned `Ok`.
    pub completed: AtomicU64,
    /// Serializes same-key Sets (see the module docs).
    pub write_gate: Mutex<()>,
}

pub fn make_states() -> Vec<KeyState> {
    (0..KEYS)
        .map(|_| KeyState {
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            write_gate: Mutex::new(()),
        })
        .collect()
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
pub fn encode_value(key_idx: u64, version: u64) -> Vec<u8> {
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
pub fn decode_version(key_idx: u64, bytes: &[u8]) -> u64 {
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

/// Issues the next version of key `k` through `try_set` and returns it if
/// the Set completed.  An `Err` leaves the version issued but not completed:
/// the value may still have been installed, so it neither raises the floor
/// nor has to be seen.
pub fn set_next(client: &mut DittoClient, key: &[u8], k: usize, st: &KeyState) -> Option<u64> {
    let v = st.issued.fetch_add(1, Ordering::SeqCst) + 1;
    client.try_set(key, &encode_value(k as u64, v)).ok()?;
    st.completed.fetch_max(v, Ordering::SeqCst);
    Some(v)
}

/// Runs `threads` checker threads for `ops_per_thread` mixed Get/Set
/// operations each (four in ten Sets), seeded from `seed`, asserting
/// linearizability as described in the module docs.  Reuses `states` so
/// repeated passes over the same cache keep their version history.
pub fn checker_pass(
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
                        let completed = set_next(&mut client, &keys[k], k, st);
                        drop(gate);
                        if let Some(v) = completed {
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
                                // a single slot's update path or at a
                                // coherence (board/lease) hole in the tier.
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

/// Nothing leaked, nothing doubly freed: every node's resident gauge equals
/// the forensic sum of the object bytes its slots reference, as `client`
/// scans them.
pub fn assert_no_orphans(cache: &DittoCache, client: &mut DittoClient, context: &str) {
    for mn in 0..cache.pool().num_nodes() {
        // The scan books the client's pending fill first: read the gauge
        // after it.
        let referenced = client.referenced_object_bytes_on(mn);
        let gauge = cache.pool().resident_object_bytes(mn);
        assert_eq!(
            gauge, referenced,
            "{context}: node {mn} resident gauge {gauge} != referenced bytes {referenced}"
        );
    }
}
