//! Local-tier correctness: seeded parity against the remote-only path and
//! a concurrent writer-races-readers linearizability check.
//!
//! The compute-side local tier (`ditto_core::local_tier`) is a pure
//! *performance* layer: with it enabled every returned value must stay
//! byte-identical to the remote-only run, and no reader may ever observe a
//! value older than a Set that completed before its Get began — the tier's
//! coherence (board epochs + lease revalidation) is exactly what makes a
//! zero-message hit safe.

mod support;

use ditto::cache::{DittoCache, DittoConfig};
use ditto::dm::obs::with_event_postmortem;
use ditto::dm::DmConfig;
use ditto::workloads::request::{Op, Request};
use ditto::workloads::ycsb::{YcsbSpec, YcsbWorkload};
use support::{checker_pass, make_keys, make_states, splitmix, KEYS};

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

/// Seeded parity on YCSB-C at three skews: the tier-enabled cache returns
/// byte-identical values to the remote-only cache on the same trace,
/// performs the same Sets and evictions (the capacity exceeds the record
/// count, so both runs have exactly zero evictions), serves a large share of
/// Gets locally, revalidates the leases that expire, and uses strictly fewer
/// network messages: under half the remote-only run's at θ=0.99 (0.38
/// measured) and 0.52 at θ=0.9 (0.46; tier hits still write `last_ts` like
/// remote ones), at no fewer simulated ops/s at θ=0.99 (2.8× measured).
#[test]
fn tier_matches_remote_only_on_ycsb_c() {
    // (θ, the tier's run-phase messages must stay under this share of the
    // remote-only run's, the least simulated speedup)
    for (theta, max_message_ratio, min_speedup) in
        [(0.9, 0.52, 0.0), (0.99, 0.5, 1.0), (1.2, 1.0, 0.0)]
    {
        tier_matches_remote_only_at(theta, max_message_ratio, min_speedup);
    }
}

/// [`tier_matches_remote_only_on_ycsb_c`] at Zipf skew `theta`.
fn tier_matches_remote_only_at(theta: f64, max_message_ratio: f64, min_speedup: f64) {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 20_000,
        value_size: 128,
        theta,
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
    let remote_start_ns = remote_client.dm().now_ns();
    let tiered_start_ns = tiered_client.dm().now_ns();

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
    let remote_run_ns = remote_client.dm().now_ns() - remote_start_ns;
    let tiered_run_ns = tiered_client.dm().now_ns() - tiered_start_ns;

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
    assert_eq!(remote_snap.local_hits, 0, "the remote-only run used a tier");

    assert!(
        tiered_snap.local_hits > spec.request_count / 4,
        "a θ={theta} read-only run must serve a large share locally, got {} of {}",
        tiered_snap.local_hits,
        spec.request_count
    );
    assert!(
        tiered_snap.local_revalidations > 0,
        "θ={theta}: no lease expired and revalidated"
    );
    let remote_run_messages = total_messages(&remote) - messages_after_load_remote;
    let tiered_run_messages = total_messages(&tiered) - messages_after_load_tiered;
    let message_ratio = tiered_run_messages as f64 / remote_run_messages as f64;
    assert!(
        message_ratio < max_message_ratio,
        "θ={theta}: the tier must cost under {max_message_ratio}x the remote-only run-phase \
         messages: {tiered_run_messages} vs {remote_run_messages} ({message_ratio:.3}x)"
    );
    let speedup = remote_run_ns as f64 / tiered_run_ns as f64;
    assert!(
        speedup >= min_speedup,
        "θ={theta}: the tier's simulated ops/s must be at least {min_speedup}x the \
         remote-only run's, measured {speedup:.3}x"
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

/// Writers race readers on a small shared cache with every client's tier
/// enabled and a short lease, so all four coherence outcomes — zero-message
/// hits, revalidations, board invalidations, stale rejects — actually occur
/// while the linearizability checker runs: no reader may observe a value
/// older than the completed floor captured before its Get began.
///
/// This is the failure mode the coherence board exists for: without it, a
/// lease-valid tier entry would keep serving the old value after a racing
/// writer's publish CAS completed — exactly the stale read the checker
/// reports.
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
    let keys = make_keys("ck");
    let states = make_states();
    // Capacity below the working set so evictions (and their board bumps)
    // race the tier as well; a short lease forces frequent revalidations.
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(KEYS as u64 * 3 / 4).with_local_tier(KEYS, lease_ns),
        DmConfig::default(),
    )
    .unwrap();
    with_event_postmortem(cache.pool(), 32, || {
        checker_pass(&cache, &keys, &states, 0x71E4, 8, 3_000);
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
