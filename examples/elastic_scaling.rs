//! Elasticity: adjust compute and memory resources while the cache serves
//! traffic, and compare with a Redis-like cluster of monolithic VMs.
//!
//! On disaggregated memory the number of clients (compute) and the
//! cache capacity (memory) are independent knobs: adding CPU cores raises
//! throughput immediately, and memory nodes join or leave the pool *online*
//! through [`ditto::dm::MemoryPool::add_node`] / `drain_node` — the resize
//! epoch redirects new placements while resident data keeps serving, so no
//! request ever waits on a migration.  The background bucket-range
//! migration (`DittoCache::pump_migration`) then rebalances the *existing*
//! cache: bucket stripes and resident objects move onto joiners, and a
//! drained node empties until `remove_node` can decommission it — all
//! while the cache serves.  The Redis-like baseline has to stop-the-world
//! reshard instead, which delays the benefit by minutes (§2.1, Figures 1
//! and 13).
//!
//! Run with: `cargo run --release --example elastic_scaling`

use ditto::baselines::{RedisLikeCluster, ScaleEvent};
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::{run_clients, DmConfig, RunReport};
use ditto::workloads::{Replay, ReplayOptions, Request, YcsbSpec, YcsbWorkload};

/// Steps `clients` clients round-robin on this thread, each replaying
/// `requests(index)` and flushing its frequency counters at the end.
fn drive<I: IntoIterator<Item = Request>>(
    cache: &DittoCache,
    clients: usize,
    requests: impl Fn(usize) -> I,
) -> RunReport {
    let open = |index| {
        (
            Replay::new(Box::new(cache.client()), ReplayOptions::default()),
            requests(index),
        )
    };
    let flush = |mut client: Replay<Box<DittoClient>>| client.backend.flush();
    run_clients(cache.pool(), clients, open, Replay::issue, flush).0
}

fn ditto_throughput(cache: &DittoCache, spec: &YcsbSpec, clients: usize) -> f64 {
    let report = drive(cache, clients, |index| {
        let requests = spec.run_requests_seeded(YcsbWorkload::C, 77 + index as u64);
        let per_client = requests.len() / clients;
        requests.into_iter().take(per_client)
    });
    report.throughput_mops
}

fn main() {
    let spec = YcsbSpec {
        record_count: 30_000,
        request_count: 40_000,
        ..YcsbSpec::default()
    };
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(30_000), DmConfig::default())
            .expect("cache construction");

    // Load the records once.
    drive(&cache, 8, |index| spec.load_shard(index, 8));

    println!("== Ditto: compute scaling without migration ==");
    for clients in [4, 8, 16, 32] {
        let mops = ditto_throughput(&cache, &spec, clients);
        println!("  {clients:>3} clients -> {mops:.2} Mops (takes effect immediately)");
    }

    println!();
    println!("== Ditto: memory nodes join and leave the pool online ==");
    // A second cache on a message-bound 2-node pool: the RNIC message rate
    // is the throughput ceiling, so growing the pool raises it.
    let elastic = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(20_000),
        DmConfig::default()
            .with_memory_nodes(2)
            .with_message_rate(150_000),
    )
    .expect("elastic cache construction");
    drive(&elastic, 8, |index| spec.load_shard(index, 8));
    let window = |label: &str| {
        let mops = ditto_throughput(&elastic, &spec, 8);
        println!(
            "  {label:<34} epoch={} nodes={} -> {mops:.3} Mops",
            elastic.pool().resize_epoch(),
            elastic.pool().topology().num_active(),
        );
    };
    window("2 memory nodes (steady state)");
    let added = elastic.pool().add_node().expect("add a third memory node");
    window("add_node() -> serving immediately");
    let grow = elastic.pump_migration();
    window("pump_migration() -> load spread");
    elastic
        .pool()
        .drain_node(added)
        .expect("drain the new node");
    window("drain_node() -> resident data serves");
    let shrink = elastic.pump_migration();
    window("pump_migration() -> node empty");
    println!(
        "  grow moved {} stripes / {} objects; shrink moved {} stripes / {} objects; \
         node {} residual = {} bytes",
        grow.stripes_moved,
        grow.objects_relocated,
        shrink.stripes_moved,
        shrink.objects_relocated,
        added,
        elastic.pool().resident_object_bytes(added),
    );
    elastic
        .pool()
        .remove_node(added)
        .expect("drained-to-empty node can be decommissioned");
    println!(
        "  (cutovers piggyback on the resize epoch; node {added} was removed — \
         handle lookups now return DmError::NodeRemoved)"
    );

    println!();
    println!("== Redis-like cluster: scaling 32 -> 64 -> 32 nodes ==");
    let cluster = RedisLikeCluster::new();
    let events = [
        ScaleEvent {
            at_seconds: 180.0,
            target_nodes: 64,
        },
        ScaleEvent {
            at_seconds: 900.0,
            target_nodes: 32,
        },
    ];
    let timeline = cluster.scale_timeline(32, &events, 1_500.0, 60.0);
    for point in &timeline {
        println!(
            "  t={:>5.0}s nodes={:>2} migrating={:<5} throughput={:.2} Mops p99={:.0} us",
            point.seconds,
            point.serving_nodes,
            point.migrating,
            point.throughput_mops,
            point.p99_us
        );
    }
    let migration_secs = cluster.migration_seconds(32, 64);
    println!();
    println!(
        "resharding 32 -> 64 nodes migrates data for {:.1} minutes before the added \
         resources pay off; Ditto's scaling above took effect on the next request",
        migration_secs / 60.0
    );
}
