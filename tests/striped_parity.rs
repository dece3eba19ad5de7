//! Striping must change *where* bytes live, never *what* the cache does:
//! a cache striped over 4 memory nodes and a single-node cache with the
//! same total object capacity have to return byte-identical values and
//! evolve identically (same hit/miss/set/eviction counts) on the same
//! seeded YCSB-C trace.
//!
//! This works because every placement-independent decision is made in
//! *global* index space — bucket indices, sampled slot positions, the
//! seeded per-client RNG — and only the final address translation consults
//! the stripe map.  The test pins the total object capacity exactly by
//! sizing each node as `reserved bytes + N × object size` (with one-object
//! segments, so no partial-segment waste differs between layouts).
//!
//! One decision is not placement-independent: whether a hit rewrites LRU's
//! `last_ts`, which it does only once the stored timestamp is τ stale on the
//! simulated clock (`ditto_core::recency`) — and the clock is the one thing
//! striping does change, a doorbell per node.  So the whole trace is held
//! to parity under LFU, whose priorities are counts, and LRU up to the
//! request at which the two layouts' timestamp decisions first part.  Past
//! it an LRU pick among near-equal timestamps may follow them.

use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{object, DittoCache, DittoConfig};
use ditto::dm::{DmConfig, MemoryPool};
use ditto::workloads::{YcsbSpec, YcsbWorkload};

const CAPACITY_OBJECTS: u64 = 700;

/// The request at which, under LRU, one layout's hit rewrites `last_ts` and
/// the other's leaves it.  It moves when the trace, the clock model or the
/// τ rule does.  It moved 3 056 → 3 028 when a fill after its miss came to
/// take one round trip: only when its insert slot shares a node with its
/// object, which on one node is always and on four is not when the slot is
/// in the secondary bucket.  The two clocks drift apart sooner.  It moved
/// 3 028 → 3 054 when a short sample's re-sample came to fly under the next
/// op: a fill that re-samples no longer waits for it, on either layout.  It
/// moved 3 054 → 2 941 when the table came to be sized exactly (320
/// buckets where it had 512) and a hash to map onto it by multiply-shift:
/// other keys share a node with their insert slot, so the clocks drift
/// apart otherwise.
const LRU_TS_DECISIONS_PART_AT: usize = 2_941;

fn spec() -> YcsbSpec {
    YcsbSpec {
        record_count: 2_000,
        request_count: 12_000,
        ..YcsbSpec::default()
    }
    .with_seed(7)
}

/// Encoded size (whole 64-byte blocks) of one trace object: 8-byte header,
/// 8-byte key, fixed-size value, no extension metadata (a single expert).
fn object_bytes(spec: &YcsbSpec) -> u64 {
    object::size_class(8, spec.value_size as usize, false) as u64 * 64
}

fn parity_config(spec: &YcsbSpec, algorithm: &str) -> DittoConfig {
    let mut config = DittoConfig::single_algorithm(CAPACITY_OBJECTS, algorithm);
    // One object per allocator segment and an exact per-object size, so the
    // object capacity of a pool is precisely (free bytes) / (object bytes)
    // regardless of how the bytes are spread over nodes.
    config.avg_object_size = spec.value_size;
    config.alloc_segment_objects = 1;
    config
}

/// Builds a cache over `nodes` memory nodes whose pool fits *exactly*
/// `CAPACITY_OBJECTS` objects beyond the reserved structures, measured by a
/// dry-run deployment (reservations are deterministic per configuration).
fn build(nodes: u16, spec: &YcsbSpec, algorithm: &str) -> DittoCache {
    let dm = DmConfig::default().with_memory_nodes(nodes);
    let generous = vec![64u64 << 20; nodes as usize];
    let dry = DittoCache::new(
        MemoryPool::with_capacities(dm.clone(), &generous),
        parity_config(spec, algorithm),
    )
    .unwrap();
    let per_node = CAPACITY_OBJECTS / nodes as u64;
    let caps: Vec<u64> = (0..nodes)
        .map(|mn| {
            let reserved = dry.pool().node(mn).unwrap().used_bytes();
            reserved + per_node * object_bytes(spec)
        })
        .collect();
    DittoCache::new(
        MemoryPool::with_capacities(dm, &caps),
        parity_config(spec, algorithm),
    )
    .unwrap()
}

/// What a replay observed, request by request, and the cache it left.
struct Replay {
    values: Vec<Option<Vec<u8>>>,
    /// After each request: the hits' `last_ts` WRITEs sent and left out.
    ts_decisions: Vec<(u64, u64)>,
    /// After each request: hits, misses, sets, evictions, bucket evictions.
    evolution: Vec<[u64; 5]>,
    cache: DittoCache,
}

fn evolution(stats: &CacheStatsSnapshot) -> [u64; 5] {
    [
        stats.hits,
        stats.misses,
        stats.sets,
        stats.evictions,
        stats.bucket_evictions,
    ]
}

/// Replays a get-heavy YCSB-C trace (with cache-aside fills on miss) on a
/// cache over `nodes` memory nodes.
fn run(nodes: u16, algorithm: &str) -> Replay {
    let spec = spec();
    let cache = build(nodes, &spec, algorithm);
    let mut client = cache.client();
    let (mut values, mut ts_decisions, mut evolved) = (Vec::new(), Vec::new(), Vec::new());
    let mut value_buf = Vec::new();
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if client.get_into(&key, &mut value_buf) {
            values.push(Some(value_buf.clone()));
        } else {
            values.push(None);
            client.set(&key, &vec![request.key as u8; request.value_size as usize]);
        }
        let stats = cache.stats();
        ts_decisions.push((stats.ts_writes_sent(), stats.ts_writes_skipped()));
        evolved.push(evolution(&stats.snapshot()));
    }
    client.flush();
    Replay {
        values,
        ts_decisions,
        evolution: evolved,
        cache,
    }
}

/// Asserts the two replays identical through request `last` — values, and
/// the cache's evolution — and that the prefix exercised what parity is
/// about.
fn assert_identical_through(single: &Replay, striped: &Replay, last: usize) {
    for i in 0..=last {
        assert_eq!(
            single.values[i], striped.values[i],
            "request {i} diverged between single-node and striped"
        );
        assert_eq!(
            single.evolution[i], striped.evolution[i],
            "[hits, misses, sets, evictions, bucket evictions] diverged at request {i}"
        );
    }
    let [hits, _, _, evictions, _] = single.evolution[last];
    assert!(hits > 0, "trace should produce hits");
    assert!(evictions > 0, "trace should exercise sampling eviction");
}

#[test]
fn striped_and_single_node_caches_are_behaviourally_identical() {
    let single = run(1, "lfu");
    let striped = run(4, "lfu");
    assert_eq!(single.values.len(), striped.values.len());
    assert_identical_through(&single, &striped, single.values.len() - 1);

    // The striped run genuinely used all four nodes.
    let snaps = striped.cache.pool().stats().node_snapshots();
    assert_eq!(snaps.len(), 4);
    for (mn, snap) in snaps.iter().enumerate() {
        assert!(
            snap.messages > 1_000,
            "node {mn} served only {} messages — striping ineffective",
            snap.messages
        );
    }
}

#[test]
fn striped_and_single_node_lru_caches_agree_until_their_last_ts_decisions_part() {
    let single = run(1, "lru");
    let striped = run(4, "lru");
    let parted = single
        .ts_decisions
        .iter()
        .zip(&striped.ts_decisions)
        .position(|(a, b)| a != b);
    assert_eq!(parted, Some(LRU_TS_DECISIONS_PART_AT));
    assert_identical_through(&single, &striped, LRU_TS_DECISIONS_PART_AT);
}

#[test]
fn striping_spreads_the_message_load() {
    let striped = run(4, "lfu");
    let snaps = striped.cache.pool().stats().node_snapshots();
    let total: u64 = snaps.iter().map(|s| s.messages).sum();
    let max = snaps.iter().map(|s| s.messages).max().unwrap();
    // The hottest node carries well under half of a 4-node pool's load
    // (perfect balance would be 25%).
    assert!(
        (max as f64) < 0.40 * total as f64,
        "hottest node carries {max}/{total} messages"
    );
}
