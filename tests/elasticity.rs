//! Memory elasticity (paper §5.3, figs 17 and 18), on a message-bound pool.
//!
//! Each memory node's RNIC serves 60 000 messages per simulated second, so a
//! window's length is the client's clock stretched to the busiest node's
//! messages over that rate, as `RunReport` does.  The hash table, history
//! shards and segments are striped over the nodes, so adding a node must
//! lift the ceiling, and a drained node must end empty: no resident bytes,
//! and no bucket or object READ left to serve.

use ditto::cache::slot::{Slot, SLOT_SIZE};
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::DmConfig;
use ditto::workloads::{YcsbSpec, YcsbWorkload};

/// RNIC message budget per node (verbs per simulated second): low enough
/// that one node is message-bound, so more nodes raise the ceiling.
const MESSAGE_RATE: u64 = 60_000;

/// Cache capacity (objects), below the record count: the windows mix hits,
/// cache-aside fills and evictions.
const CAPACITY: u64 = 1_400;

/// The migrating windows pump two stripes every this many requests, so the
/// copy and relocation traffic lands inside the window.
const PUMP_EVERY: usize = 256;

fn spec(request_count: u64) -> YcsbSpec {
    YcsbSpec {
        record_count: 2_000,
        request_count,
        ..YcsbSpec::default()
    }
    .with_seed(42)
}

/// A cache over `nodes` message-bound memory nodes, loaded with every record.
fn loaded(nodes: u16, spec: &YcsbSpec) -> (DittoCache, DittoClient) {
    let dm = DmConfig::default()
        .with_memory_nodes(nodes)
        .with_message_rate(MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(CAPACITY), dm).unwrap();
    let mut client = cache.client();
    let mut value = vec![0u8; spec.value_size as usize];
    for id in 0..spec.record_count {
        value.fill(id as u8);
        client.set(&id.to_le_bytes(), &value);
    }
    (cache, client)
}

/// The node every stripe of the cache's table sits on.
fn stripe_nodes(cache: &DittoCache) -> Vec<u16> {
    let dir = cache.migration().directory();
    (0..dir.num_stripes() as u64)
        .map(|s| dir.current_node(s))
        .collect()
}

/// The stripes that sit elsewhere than in `before`, each checked to have
/// arrived with its objects: every live slot of the stripe points at an
/// object on the stripe's own node — unless that node has no room left (its
/// arena cannot grant one more allocation segment), when an object may stay
/// on the active node it sat on.  Reads node memory directly, so the check
/// sends no verb into the window it runs in.
fn moved_home(cache: &DittoCache, before: &[u16]) -> Vec<u64> {
    let dir = cache.migration().directory();
    let config = DittoConfig::with_capacity(CAPACITY);
    let segment = config.alloc_segment_objects * config.avg_object_blocks() * 64;
    let moved: Vec<u64> = (0..before.len() as u64)
        .filter(|&s| dir.current_node(s) != before[s as usize])
        .collect();
    for &stripe in &moved {
        let base = dir.current(stripe);
        let home = cache.pool().node(base.mn_id).unwrap();
        let full =
            home.capacity() - home.used_bytes() < segment && home.free_range_bytes() < segment;
        let bytes = home.read(base.offset, dir.stripe_bytes() as usize).unwrap();
        for (i, slot) in bytes
            .chunks_exact(SLOT_SIZE)
            .map(Slot::from_bytes)
            .enumerate()
        {
            let node = slot.atomic.object_addr().mn_id;
            assert!(
                !slot.atomic.is_object()
                    || node == base.mn_id
                    || (full && cache.pool().topology().is_active(node)),
                "stripe {stripe} moved to node {} with room, without the object of its slot {i} (on node {node})",
                base.mn_id
            );
        }
    }
    moved
}

/// Replays one YCSB-C window drawn from `seed` (cache-aside fills on a
/// miss), pumping the migration every [`PUMP_EVERY`] requests when `pump`
/// is set, and returns its requests per stretched simulated second with the
/// stripes the in-window pumps moved, each checked by [`moved_home`] as its
/// pump returns.
fn window(
    cache: &DittoCache,
    client: &mut DittoClient,
    spec: &YcsbSpec,
    seed: u64,
    pump: bool,
) -> (f64, Vec<u64>) {
    // Publish before resetting, so the clock stays monotonic with respect to
    // the timestamps already stored in the table.
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    let start_ns = client.dm().now_ns();

    let mut stripes_moved = Vec::new();
    let mut value = Vec::new();
    let requests = spec.run_requests_seeded(YcsbWorkload::C, seed);
    for (served, request) in requests.iter().enumerate() {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value) {
            client.set(&key, &vec![request.key as u8; request.value_size as usize]);
        }
        if pump && (served + 1) % PUMP_EVERY == 0 {
            let before = stripe_nodes(cache);
            let progress = client.pump_migration(2);
            let moved = moved_home(cache, &before);
            assert_eq!(moved.len() as u64, progress.stripes_moved);
            stripes_moved.extend(moved);
        }
    }
    client.flush();

    let client_seconds = (client.dm().now_ns() - start_ns) as f64 / 1e9;
    let stats = cache.pool().stats();
    let busiest = stats.node_snapshots().iter().map(|s| s.messages).max();
    let nic_seconds = busiest.unwrap_or(0) as f64 / MESSAGE_RATE as f64;
    (
        stats.ops() as f64 / client_seconds.max(nic_seconds),
        stripes_moved,
    )
}

/// Fig 17: the same trace on 1, 2, 4 and 8 nodes.  The hottest NIC's
/// message count falls to about `1/n` of the total, so the ceiling rises
/// with every node added.
#[test]
fn a_message_bound_ceiling_rises_with_every_memory_node() {
    let spec = spec(10_000);
    let sweep: Vec<(u16, f64)> = [1u16, 2, 4, 8]
        .into_iter()
        .map(|nodes| {
            let (cache, mut client) = loaded(nodes, &spec);
            (
                nodes,
                window(&cache, &mut client, &spec, spec.seed, false).0,
            )
        })
        .collect();
    for pair in sweep.windows(2) {
        let ((fewer, slower), (more, faster)) = (pair[0], pair[1]);
        assert!(
            faster > slower,
            "req/sim_s must rise from {fewer} to {more} memory nodes: {slower:.0} vs {faster:.0}"
        );
    }
}

/// Every stripe a resize moves, in-window and by the pump to completion
/// that follows it, each checked to have arrived with its objects.
fn resize_moves(
    cache: &DittoCache,
    client: &mut DittoClient,
    spec: &YcsbSpec,
    seed: u64,
) -> Vec<u64> {
    let (_, mut moved) = window(cache, client, spec, seed, true);
    let before = stripe_nodes(cache);
    let progress = cache.pump_migration();
    let finished = moved_home(cache, &before);
    assert_eq!(finished.len() as u64, progress.stripes_moved);
    moved.extend(finished);
    moved.sort_unstable();
    moved
}

/// Fig 18: steady on two nodes → `add_node` with the migration pumped
/// in-window → grown → `drain_node(1)` pumped in-window → drained.  Each
/// resize moves the fewest stripes a balanced placement allows — the joiner
/// takes ⌊S/3⌋, the drain moves exactly node 1's — and every moved stripe
/// arrives with its objects beside it.  The grown pool's ceiling clears the
/// steady one, and the drained node ends with no resident bytes, answering
/// only the fixed history-shard counters it still holds.
#[test]
fn a_pool_grows_past_its_ceiling_and_drains_a_node_empty() {
    let spec = spec(5_000);
    let (cache, mut client) = loaded(2, &spec);
    let stripes = cache.migration().directory().num_stripes() as u64;
    let (steady, _) = window(&cache, &mut client, &spec, 300, false);
    cache.pool().add_node().unwrap();
    let grow = resize_moves(&cache, &mut client, &spec, 301);
    let (grown, _) = window(&cache, &mut client, &spec, 302, false);
    let held_by_1: Vec<u64> = (0..stripes)
        .filter(|&s| cache.migration().directory().current_node(s) == 1)
        .collect();
    cache.pool().drain_node(1).unwrap();
    let shrink = resize_moves(&cache, &mut client, &spec, 303);
    window(&cache, &mut client, &spec, 304, false);

    assert_eq!(
        grow.len() as u64,
        stripes / 3,
        "the joiner must take ⌊S/3⌋ of {stripes} stripes and no stripe else may move"
    );
    assert_eq!(
        shrink, held_by_1,
        "the drain must move exactly node 1's stripes"
    );
    assert!(
        grown > steady * 1.1,
        "the grown pool must lift the message-bound ceiling: {steady:.0} -> {grown:.0}"
    );
    assert_eq!(
        cache.pool().resident_object_bytes(1),
        0,
        "the drained node must hold no object bytes"
    );
    let nodes = cache.pool().stats().node_snapshots();
    let total_reads: u64 = nodes.iter().map(|s| s.reads).sum();
    assert!(
        nodes[1].reads * 20 < total_reads,
        "the drained node still serves {} of {total_reads} READs (must be < 5 %)",
        nodes[1].reads
    );
}
