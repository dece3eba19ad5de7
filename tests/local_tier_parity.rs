//! Local-tier correctness: seeded parity against the remote-only path and
//! a concurrent writer-races-readers linearizability check.
//!
//! The compute-side local tier (`ditto_core::local_tier`) is a pure
//! *performance* layer: with it enabled every returned value must stay
//! byte-identical to the remote-only run, and no reader may ever observe a
//! value older than a Set that completed before its Get began — the tier's
//! coherence (board epochs + lease revalidation) is exactly what makes a
//! zero-message hit safe.

use ditto::cache::{DittoCache, DittoConfig};
use ditto::dm::obs::with_event_postmortem;
use ditto::dm::DmConfig;
use ditto::workloads::request::{Op, Request};
use ditto::workloads::ycsb::{YcsbSpec, YcsbWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic per-key value so parity can check every byte.
fn value_for(key: u64) -> Vec<u8> {
    let n = 64 + (key % 150) as usize;
    let mut out = Vec::with_capacity(8 + n);
    out.extend_from_slice(&key.to_le_bytes());
    let mut state = splitmix(key ^ 0xD1770);
    for i in 0..n {
        if i % 8 == 0 {
            state = splitmix(state);
        }
        out.push((state >> (8 * (i % 8))) as u8);
    }
    out
}

fn total_messages(cache: &DittoCache) -> u64 {
    cache
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|s| s.messages)
        .sum()
}

/// Seeded parity on YCSB-C: the tier-enabled cache returns byte-identical
/// values to the remote-only cache on the same trace, performs the same
/// Sets and evictions (the capacity exceeds the record count, so both runs
/// have exactly zero evictions), serves a large share of Gets locally and
/// uses strictly fewer network messages.
#[test]
fn tier_matches_remote_only_on_ycsb_c() {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 20_000,
        value_size: 128,
        theta: 0.99,
        seed: 42,
    };
    // Capacity past the record count: no evictions in either run, so the
    // Set/eviction parity below must hold *exactly* (local hits skip the
    // remote last-access-timestamp write, which under eviction pressure
    // could legitimately steer victim selection differently).
    let config = || DittoConfig::with_capacity(spec.record_count * 2);
    let remote = DittoCache::with_dedicated_pool(config(), DmConfig::default()).unwrap();
    let tiered = DittoCache::with_dedicated_pool(
        config().with_local_tier(512, 200_000),
        DmConfig::default(),
    )
    .unwrap();

    let mut remote_client = remote.client();
    let mut tiered_client = tiered.client();
    for req in spec.load_requests() {
        let key = req.key_bytes();
        let value = value_for(req.key);
        remote_client.set(&key, &value);
        tiered_client.set(&key, &value);
    }
    let messages_after_load_remote = total_messages(&remote);
    let messages_after_load_tiered = total_messages(&tiered);

    let mut remote_out = Vec::new();
    let mut tiered_out = Vec::new();
    for req in spec.run_requests(YcsbWorkload::C) {
        assert_eq!(req.op, Op::Get);
        let key = Request::key_to_bytes(req.key);
        let remote_hit = remote_client.get_into(&key, &mut remote_out);
        let tiered_hit = tiered_client.get_into(&key, &mut tiered_out);
        assert_eq!(
            remote_hit, tiered_hit,
            "hit/miss diverged on key {}",
            req.key
        );
        if remote_hit {
            assert_eq!(remote_out, tiered_out, "value diverged on key {}", req.key);
            assert_eq!(
                tiered_out,
                value_for(req.key),
                "wrong bytes for key {}",
                req.key
            );
        }
    }

    let remote_snap = remote.stats().snapshot();
    let tiered_snap = tiered.stats().snapshot();
    assert_eq!(remote_snap.sets, tiered_snap.sets, "Set counts diverged");
    assert_eq!(
        remote_snap.evictions, tiered_snap.evictions,
        "eviction counts diverged"
    );
    assert_eq!(
        remote_snap.bucket_evictions, tiered_snap.bucket_evictions,
        "bucket-eviction counts diverged"
    );
    assert_eq!(
        remote_snap.evictions, 0,
        "the sizing must keep both runs eviction-free"
    );
    assert_eq!(remote_snap.hits, tiered_snap.hits, "hit counts diverged");

    assert!(
        tiered_snap.local_hits > spec.request_count / 4,
        "a θ=0.99 read-only run must serve a large share locally, got {} of {}",
        tiered_snap.local_hits,
        spec.request_count
    );
    let remote_run_messages = total_messages(&remote) - messages_after_load_remote;
    let tiered_run_messages = total_messages(&tiered) - messages_after_load_tiered;
    assert!(
        tiered_run_messages < remote_run_messages,
        "tier must reduce run-phase messages: {tiered_run_messages} vs {remote_run_messages}"
    );
    // Lifetime counters survive a stats reset by design.
    tiered.stats().reset();
    assert_eq!(tiered.stats().snapshot().local_hits, tiered_snap.local_hits);
}

/// However long a lease has grown, another client's `Set` ends it: the
/// board is tested before the lease, and the writer bumps it before its
/// `Set` returns.
#[test]
fn a_replace_by_another_client_ends_a_lease_grown_a_hundredfold() {
    let floor_ns = 1_000;
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(1_000).with_local_tier(64, floor_ns),
        DmConfig::default(),
    )
    .unwrap();
    let (mut a, mut b) = (cache.client(), cache.client());
    let stats = cache.stats();
    b.set(b"shared", b"v1");
    // A reads the key into its tier (the frequency policy wants it read more
    // than once), then watches it sit still for a millisecond.
    while stats.snapshot().local_hits == 0 {
        assert_eq!(a.get(b"shared").as_deref(), Some(&b"v1"[..]));
    }
    a.dm().sleep_us(1_000);
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v1"[..]));
    let before = stats.snapshot();
    assert_eq!(before.local_revalidations, 1);
    assert!(stats.local_lease_ns_granted() >= 100 * floor_ns);
    // Twenty floors later the lease still holds: zero messages.
    a.dm().advance_ns(20 * floor_ns);
    let messages = total_messages(&cache);
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v1"[..]));
    assert_eq!(total_messages(&cache), messages);

    b.set(b"shared", b"v2");
    assert_eq!(a.get(b"shared").as_deref(), Some(&b"v2"[..]));
    let after = stats.snapshot();
    assert_eq!(after.local_invalidations, before.local_invalidations + 1);
    assert_eq!(after.local_stale_rejects, 0);
    assert_eq!(after.local_revalidations, 1);
}

const KEYS: usize = 64;

struct KeyState {
    issued: AtomicU64,
    completed: AtomicU64,
    write_gate: Mutex<()>,
}

fn payload_len(key_idx: u64, version: u64) -> usize {
    16 + ((key_idx
        .wrapping_mul(131)
        .wrapping_add(version.wrapping_mul(17)))
        % 180) as usize
}

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

/// Writers race readers on a small shared cache with every client's tier
/// enabled and a short lease, so all four coherence outcomes — zero-message
/// hits, revalidations, board invalidations, stale rejects — actually occur
/// while the linearizability checker runs: no reader may observe a value
/// older than the completed floor captured before its Get began.
///
/// This is the failure mode the coherence board exists for: without it, a
/// lease-valid tier entry would keep serving the old value after a racing
/// writer's publish CAS completed — exactly the stale read the panic below
/// would report.
#[test]
fn writers_race_readers_through_the_tier() {
    race_writers_and_readers(20_000);
}

/// The same race with a lease floor of 200 ns, a tenth of what one remote
/// `Get` takes: an entry that goes unwritten for a few dozen of its client's
/// operations earns leases hundreds of times the floor, so a checker that
/// passes here is passing on grown leases — on the board, which is tested
/// before any lease is.
#[test]
fn writers_race_readers_through_leases_grown_far_past_the_floor() {
    let floor_ns = 200;
    let cache = race_writers_and_readers(floor_ns);
    let stats = cache.stats();
    let revalidations = stats.snapshot().local_revalidations;
    let mean_lease_ns = stats.local_lease_ns_granted() / revalidations.max(1);
    println!(
        "{revalidations} revalidations, {} above the floor, mean lease {mean_lease_ns} ns",
        stats.local_leases_above_floor()
    );
    assert!(
        stats.local_leases_above_floor() > revalidations / 2 && mean_lease_ns > 100 * floor_ns,
        "leases must have grown: {} of {revalidations} above the floor, mean {mean_lease_ns} ns",
        stats.local_leases_above_floor()
    );
}

/// The writers-race-readers checker at a lease floor of `lease_ns`; returns
/// the cache it ran on.
fn race_writers_and_readers(lease_ns: u64) -> DittoCache {
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|i| format!("ck{i:04}").into_bytes())
        .collect();
    let states: Vec<KeyState> = (0..KEYS)
        .map(|_| KeyState {
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            write_gate: Mutex::new(()),
        })
        .collect();
    // Capacity below the working set so evictions (and their board bumps)
    // race the tier as well; a short lease forces frequent revalidations.
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(KEYS as u64 * 3 / 4).with_local_tier(KEYS, lease_ns),
        DmConfig::default(),
    )
    .unwrap();

    let threads = 8;
    let ops_per_thread = 3_000;
    with_event_postmortem(cache.pool(), 32, || {
        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = cache.clone();
                let keys = &keys;
                let states = &states;
                s.spawn(move || {
                    let mut client = cache.client();
                    let mut rng = StdRng::seed_from_u64(splitmix(0x71E4 ^ t as u64));
                    let mut last_seen = vec![0u64; KEYS];
                    for _ in 0..ops_per_thread {
                        let k = rng.gen_range(0..KEYS);
                        let st = &states[k];
                        if rng.gen_range(0..10u32) < 4 {
                            let gate = st.write_gate.lock().unwrap();
                            let v = st.issued.fetch_add(1, Ordering::SeqCst) + 1;
                            // A dropped Set (`Err`) is issued, not completed.
                            let completed =
                                client.try_set(&keys[k], &encode_value(k as u64, v)).is_ok();
                            if completed {
                                st.completed.fetch_max(v, Ordering::SeqCst);
                            }
                            drop(gate);
                            if completed {
                                last_seen[k] = last_seen[k].max(v);
                            }
                        } else {
                            let floor = st.completed.load(Ordering::SeqCst).max(last_seen[k]);
                            if let Some(bytes) = client.get(&keys[k]) {
                                let v = decode_version(k as u64, &bytes);
                                assert!(
                                    v <= st.issued.load(Ordering::SeqCst),
                                    "key {k}: version {v} was never issued"
                                );
                                assert!(
                                    v >= floor,
                                    "key {k}: tier served stale version {v}, completed floor \
                                     {floor} — a coherence (board/lease) hole"
                                );
                                last_seen[k] = v;
                            }
                        }
                    }
                });
            }
        });
    });

    let snap = cache.stats().snapshot();
    assert!(
        snap.local_hits > 0,
        "the tier never served a hit — test lost its teeth"
    );
    assert!(
        snap.local_invalidations + snap.local_stale_rejects > 0,
        "racing writers must trigger coherence drops (invalidations {}, stale rejects {})",
        snap.local_invalidations,
        snap.local_stale_rejects,
    );
    cache
}
