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

use ditto::cache::stats::CacheStatsSnapshot;
use ditto::cache::{object, DittoCache, DittoConfig};
use ditto::dm::{DmConfig, MemoryPool};
use ditto::workloads::{YcsbSpec, YcsbWorkload};

const CAPACITY_OBJECTS: u64 = 700;

fn spec() -> YcsbSpec {
    YcsbSpec {
        record_count: 2_000,
        request_count: 12_000,
        ..YcsbSpec::default()
    }
    .with_seed(7)
}

/// Encoded size (whole 64-byte blocks) of one trace object: 8-byte header,
/// 8-byte key, fixed-size value, no extension metadata (single-expert LRU).
fn object_bytes(spec: &YcsbSpec) -> u64 {
    object::size_class(8, spec.value_size as usize, false) as u64 * 64
}

fn parity_config(spec: &YcsbSpec) -> DittoConfig {
    let mut config = DittoConfig::single_algorithm(CAPACITY_OBJECTS, "lru");
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
fn build(nodes: u16, spec: &YcsbSpec) -> DittoCache {
    let dm = DmConfig::default().with_memory_nodes(nodes);
    let generous = vec![64u64 << 20; nodes as usize];
    let dry = DittoCache::new(
        MemoryPool::with_capacities(dm.clone(), &generous),
        parity_config(spec),
    )
    .unwrap();
    let per_node = CAPACITY_OBJECTS / nodes as u64;
    let caps: Vec<u64> = (0..nodes)
        .map(|mn| {
            let reserved = dry.pool().node(mn).unwrap().used_bytes();
            reserved + per_node * object_bytes(spec)
        })
        .collect();
    DittoCache::new(MemoryPool::with_capacities(dm, &caps), parity_config(spec)).unwrap()
}

/// Replays a get-heavy YCSB-C trace (with cache-aside fills on miss) and
/// returns every observed value plus the cache statistics.
fn run(nodes: u16) -> (Vec<Option<Vec<u8>>>, CacheStatsSnapshot, DittoCache) {
    let spec = spec();
    let cache = build(nodes, &spec);
    let mut client = cache.client();
    let mut observed = Vec::new();
    let mut value_buf = Vec::new();
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if client.get_into(&key, &mut value_buf) {
            observed.push(Some(value_buf.clone()));
        } else {
            observed.push(None);
            client.set(&key, &vec![request.key as u8; request.value_size as usize]);
        }
    }
    client.flush();
    let stats = cache.stats().snapshot();
    (observed, stats, cache)
}

#[test]
fn striped_and_single_node_caches_are_behaviourally_identical() {
    let (single_values, single_stats, _single) = run(1);
    let (striped_values, striped_stats, striped) = run(4);

    // Byte-identical results, request by request.
    assert_eq!(single_values.len(), striped_values.len());
    for (i, (a, b)) in single_values.iter().zip(&striped_values).enumerate() {
        assert_eq!(a, b, "request {i} diverged between single-node and striped");
    }

    // Identical cache evolution.
    assert_eq!(single_stats.hits, striped_stats.hits, "hit counts diverged");
    assert_eq!(
        single_stats.misses, striped_stats.misses,
        "miss counts diverged"
    );
    assert_eq!(single_stats.sets, striped_stats.sets);
    assert_eq!(
        single_stats.evictions, striped_stats.evictions,
        "eviction counts diverged"
    );
    assert_eq!(
        single_stats.bucket_evictions,
        striped_stats.bucket_evictions
    );
    assert!(single_stats.hits > 0, "trace should produce hits");
    assert!(
        single_stats.evictions > 0,
        "trace should exercise sampling eviction, got {single_stats:?}"
    );

    // The striped run genuinely used all four nodes.
    let snaps = striped.pool().stats().node_snapshots();
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
fn striping_spreads_the_message_load() {
    let (_, _, striped) = run(4);
    let snaps = striped.pool().stats().node_snapshots();
    let total: u64 = snaps.iter().map(|s| s.messages).sum();
    let max = snaps.iter().map(|s| s.messages).max().unwrap();
    // The hottest node carries well under half of a 4-node pool's load
    // (perfect balance would be 25%).
    assert!(
        (max as f64) < 0.40 * total as f64,
        "hottest node carries {max}/{total} messages"
    );
}
