//! Get-heavy ops microbenchmark of the data path, and of multi-memory-node
//! striping.
//!
//! Replays a seeded YCSB-C trace (gets with cache-aside fills) against a
//! `DittoClient` and reports simulated ops/s, verbs per op, doorbells per
//! op, p50/p99 operation latency, the share of hits a hinted `Get` served
//! from its one slot READ (beside the share of `Get`s whose hint
//! mispredicted) and the READs a `Get` issues on average as JSON in
//! `BENCH_ops.json`, so future changes can track the performance
//! trajectory.  A second section sweeps the pool from 1 to 8 memory nodes
//! under a deliberately message-bound RNIC budget: with the hash table,
//! history shards and segments striped by the topology layer, the per-node
//! message load — and therefore the simulated throughput ceiling — must
//! scale with pool size (the fig 17/18 elasticity claim).  A resize window
//! replays the trace through `add_node` and `drain_node` with the migration
//! pumped in-window, down to a drained node holding zero bytes.
//!
//! The file is written first; then the process exits non-zero if any gate
//! fails — among them a `Get` issuing 2.2 READs or more on average, or a
//! message-bound sweep that is not monotonically increasing from 1 to 4
//! nodes.
//!
//! An observability section prices the flight recorder: a fully armed run
//! (within 10% of disarmed, in practice identical) and a 1-in-16 **sampled**
//! run that must show exactly 0% simulated overhead with identical
//! hit/miss/eviction counts — the deterministic sampling draw never touches
//! the simulated clock.  The armed run also yields a `phase_attribution`
//! section in `BENCH_ops.json`: per-phase p50/p99 from the pool's phase
//! histograms plus critical-path shares from
//! [`ditto_dm::obs::attribution`], gated to sum to ≤ 100% of elapsed op
//! time — and `overlap_saved_us`, the wire time the posted verbs hid behind
//! client work and each other, gated to be positive: what pipelining buys,
//! read off the one run.  With `--trace PATH`, a Chrome-tracing document and a companion
//! `PATH.prom`-style Prometheus exposition page are written for
//! `obs_report` to analyze.
//!
//! A `local_tier` section sweeps Zipf θ ∈ {0.9, 0.99, 1.2} on a read-only
//! trace, replaying each skew remote-only and with the compute-side local
//! tier (`ditto_core::local_tier`) enabled: ops/s, network messages per op
//! and the local hit rate per point, with an FNV checksum over every
//! returned value proving the tier is behaviour-transparent.  The θ=0.99
//! and θ=0.9 points are gated on the tier's claim — at most 0.5× (0.52× at
//! θ=0.9) the remote-only baseline's messages per op — and θ=0.99 on no
//! fewer simulated ops/s.
//!
//! ```text
//! cargo run --release -p ditto-bench --bin ops_bench
//! cargo run --release -p ditto-bench --bin ops_bench -- --trace ditto_trace.json
//! ```

use ditto_bench::jsonv::Json;
use ditto_core::cache::MigrationProgress;
use ditto_core::{DittoCache, DittoClient, DittoConfig};
use ditto_dm::obs::attribution;
use ditto_dm::{AttributionTable, DmConfig, Phase, PoolStats};
use ditto_workloads::{Request, YcsbSpec, YcsbWorkload};

/// Requests in the data-path, recorder and attribution runs; the MN sweep
/// and the local-tier points replay a quarter of that, each resize window
/// an eighth.
const REQUESTS: u64 = 200_000;

/// RNIC message budget (verbs/s per node) for the striping sweep — low
/// enough that a single node is message-bound, so adding nodes raises the
/// ceiling until client compute takes over.
const SWEEP_MESSAGE_RATE: u64 = 60_000;

/// The sampled recorder run keeps one op in this many.
const SAMPLE_ONE_IN: u64 = 16;

/// The resize windows that migrate pump two stripes every this many
/// requests, so the copy/relocation traffic lands inside the window.
const PUMP_EVERY: usize = 256;

/// Local-tier section: per-client tier capacity (objects) and lease floor
/// (simulated ns).  2048 entries cover most of the Zipf hot set at the
/// swept skews without holding the whole key space; 50 µs is what an entry
/// is admitted with, and a read-only trace grows it to milliseconds.
const TIER_CAPACITY: usize = 2_048;
const TIER_LEASE_NS: u64 = 50_000;
/// The most the tier-enabled run's messages per op may be of the
/// remote-only run's, per gated θ (0.409 and 0.500 measured).  θ=0.9 sits
/// on 0.5 since tier hits write `last_ts` like remote ones (0.095 msg/op of
/// its 1.309 in this short window, 0.464 without), hence the margin.
const TIER_MAX_MESSAGE_RATIO: [(f64, f64); 2] = [(0.99, 0.5), (0.9, 0.52)];

/// Load phase (not measured): a `Set` of every record `0..record_count`,
/// keyed by `key(id)`, its value `value_size` copies of the id's low byte.
fn load<K: AsRef<[u8]>>(client: &mut DittoClient, spec: &YcsbSpec, key: impl Fn(u64) -> K) {
    let mut value = vec![0u8; spec.value_size as usize];
    for id in 0..spec.record_count {
        value.fill(id as u8);
        client.set(key(id).as_ref(), &value);
    }
}

/// Starts a measured window: publishes the client's clock before resetting
/// it, so the baseline advances to "now" and simulated time stays monotonic
/// with respect to the timestamps already stored in the table, and resets
/// the pool's interval counters.  Returns the window's start.
fn start_window(cache: &DittoCache, client: &DittoClient) -> u64 {
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    client.dm().now_ns()
}

/// Every section's measured loop: a `Get` of each request's key, then
/// `then(client, request, value)` with the value on a hit — which fills a
/// miss ([`fill_miss`]) or, in the tier trace, checksums what came back.
fn replay(
    client: &mut DittoClient,
    requests: &[Request],
    mut then: impl FnMut(&mut DittoClient, &Request, Option<&[u8]>),
) {
    let mut value = Vec::new();
    for request in requests {
        let hit = client.get_into(&request.key_bytes(), &mut value);
        then(client, request, hit.then_some(&value[..]));
    }
}

/// Cache-aside: a missed key is filled with its value.
fn fill_miss(client: &mut DittoClient, request: &Request, hit: Option<&[u8]>) {
    if hit.is_none() {
        let value = vec![request.key as u8; request.value_size as usize];
        client.set(&request.key_bytes(), &value);
    }
}

/// A window's elapsed simulated seconds under the sweep's RNIC budget —
/// the client's clock stretched to the busiest node's messages over
/// [`SWEEP_MESSAGE_RATE`], exactly like `RunReport` does — and whether the
/// NIC was the bound.
fn stretched_seconds(cache: &DittoCache, client: &DittoClient, baseline_ns: u64) -> (f64, bool) {
    let client_seconds = (client.dm().now_ns() - baseline_ns) as f64 / 1e9;
    let busiest = cache
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|s| s.messages)
        .max();
    let nic_seconds = busiest.unwrap_or(0) as f64 / SWEEP_MESSAGE_RATE as f64;
    (
        client_seconds.max(nic_seconds).max(1e-12),
        nic_seconds > client_seconds,
    )
}

#[derive(Debug, Clone)]
struct ModeReport {
    ops: u64,
    sim_seconds: f64,
    ops_per_sec: f64,
    verbs_per_op: f64,
    doorbells_per_op: f64,
    mean_batch_size: f64,
    p50_us: f64,
    p99_us: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Share of the hits a hinted `Get` served: its one slot READ found the
    /// hinted word (the object READ rode behind it — one round trip).
    hinted_hit_share: f64,
    /// Hints that mispredicted, as a share of all `Get`s.
    spec_wasted_share: f64,
    /// READs per `Get` (the fills' lookups and evictions not counted): 2
    /// for a hinted hit and for a miss, 3 for an unhinted hit.
    reads_per_get: f64,
}

impl ModeReport {
    fn json(&self) -> Json {
        Json::obj([
            ("ops", self.ops.into()),
            ("simulated_seconds", self.sim_seconds.into()),
            ("ops_per_sec", self.ops_per_sec.into()),
            ("verbs_per_op", self.verbs_per_op.into()),
            ("doorbells_per_op", self.doorbells_per_op.into()),
            ("mean_batch_size", self.mean_batch_size.into()),
            ("p50_latency_us", self.p50_us.into()),
            ("p99_latency_us", self.p99_us.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("evictions", self.evictions.into()),
            ("hinted_hit_share", self.hinted_hit_share.into()),
            ("spec_wasted_share", self.spec_wasted_share.into()),
            ("reads_per_get", self.reads_per_get.into()),
        ])
    }
}

/// One phase's row in the `phase_attribution` section of `BENCH_ops.json`:
/// latency quantiles from the pool's per-phase histograms plus raw/critical
/// shares from the retained span window's attribution table.
struct PhaseRow {
    name: &'static str,
    spans: u64,
    hist_count: u64,
    p50_us: f64,
    p99_us: f64,
    critical_share_pct: f64,
    tail_share_pct: f64,
}

/// Per-phase latency + critical-path summary of an armed run.
///
/// Quantiles come from the pool's lifetime [`Phase`] histograms (fed at
/// span close, folded in when the client drops — they cover load *and*
/// measured phases); the shares come from [`attribution`] over the spans
/// the ring retained, which at the benchmark's request counts is the tail
/// window of the measured phase.
struct PhaseBreakdown {
    ops: u64,
    op_p50_us: f64,
    op_p99_us: f64,
    critical_share_total_pct: f64,
    overlap_saved_us: f64,
    rows: Vec<PhaseRow>,
}

impl PhaseBreakdown {
    fn new(table: &AttributionTable, stats: &PoolStats) -> Self {
        let rows = Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let hist = stats.phase_latency(phase);
                let att = &table.phases[phase.index()];
                if hist.count() == 0 && att.spans == 0 {
                    return None;
                }
                let q = hist.quantiles(&[0.5, 0.99]);
                Some(PhaseRow {
                    name: phase.name(),
                    spans: att.spans,
                    hist_count: hist.count(),
                    p50_us: q[0] as f64 / 1e3,
                    p99_us: q[1] as f64 / 1e3,
                    critical_share_pct: 100.0 * att.critical_ns as f64
                        / table.elapsed_ns.max(1) as f64,
                    tail_share_pct: 100.0 * table.tail[phase.index()].critical_ns as f64
                        / table.tail_elapsed_ns.max(1) as f64,
                })
            })
            .collect();
        PhaseBreakdown {
            ops: table.ops,
            op_p50_us: table.op_p50_ns as f64 / 1e3,
            op_p99_us: table.op_p99_ns as f64 / 1e3,
            critical_share_total_pct: 100.0 * table.critical_ns as f64
                / table.elapsed_ns.max(1) as f64,
            overlap_saved_us: table.overlap_saved_ns() as f64 / 1e3,
            rows,
        }
    }

    fn json(&self) -> Json {
        let phases = self.rows.iter().map(|row| {
            Json::obj([
                ("phase", row.name.into()),
                ("spans", row.spans.into()),
                ("hist_count", row.hist_count.into()),
                ("p50_us", row.p50_us.into()),
                ("p99_us", row.p99_us.into()),
                ("critical_share_pct", row.critical_share_pct.into()),
                ("tail_share_pct", row.tail_share_pct.into()),
            ])
        });
        Json::obj([
            ("ops", self.ops.into()),
            ("op_p50_us", self.op_p50_us.into()),
            ("op_p99_us", self.op_p99_us.into()),
            (
                "critical_share_total_pct",
                self.critical_share_total_pct.into(),
            ),
            ("overlap_saved_us", self.overlap_saved_us.into()),
            ("phases", Json::Arr(phases.collect())),
        ])
    }
}

/// Replays the trace with an optional armed flight recorder
/// (`recorder_spans > 0`) sampling one op in `sample_one_in`; returns the
/// report, the obs self-accounting snapshot (span tally, sampling split) and
/// — for armed runs — the per-phase latency/critical-path breakdown.
fn run_recorded(
    spec: &YcsbSpec,
    capacity: u64,
    recorder_spans: usize,
    sample_one_in: u64,
) -> (ModeReport, ditto_dm::ObsSnapshot, Option<PhaseBreakdown>) {
    let config = DittoConfig::with_capacity(capacity);
    let dm = DmConfig::default().with_flight_recorder_sampled(recorder_spans, sample_one_in);
    let cache = DittoCache::with_dedicated_pool(config, dm).unwrap();
    let mut client = cache.client();
    load(&mut client, spec, u64::to_le_bytes);
    let baseline_ns = start_window(&cache, &client);

    // The fills' READs are told apart, so that the rest are the `Get`s'.
    let reads = || cache.pool().stats().node_snapshots()[0].reads;
    let mut fill_reads = 0;
    let requests = spec.run_requests(YcsbWorkload::C);
    replay(&mut client, &requests, |client, request, hit| {
        let before = reads();
        fill_miss(client, request, hit);
        fill_reads += reads() - before;
    });
    client.flush();

    let stats = cache.pool().stats();
    let snap = &stats.node_snapshots()[0];
    let cache_snap = cache.stats().snapshot();
    let ops = stats.ops();
    let sim_seconds = (client.dm().now_ns() - baseline_ns) as f64 / 1e9;
    let quantiles = stats.latency().quantiles(&[0.5, 0.99]);
    let obs = stats.obs();
    // Lifetime counters of a cache whose load phase issued no `Get`.
    let (spec_issued, spec_wasted) = (
        cache.stats().spec_reads_issued(),
        cache.stats().spec_reads_wasted(),
    );
    let gets = cache_snap.hits + cache_snap.misses;
    let report = ModeReport {
        ops,
        sim_seconds,
        ops_per_sec: ops as f64 / sim_seconds,
        verbs_per_op: snap.messages as f64 / ops as f64,
        doorbells_per_op: stats.doorbells() as f64 / ops as f64,
        mean_batch_size: stats.mean_batch_size(),
        p50_us: quantiles[0] as f64 / 1_000.0,
        p99_us: quantiles[1] as f64 / 1_000.0,
        hits: cache_snap.hits,
        misses: cache_snap.misses,
        evictions: cache_snap.evictions + cache_snap.bucket_evictions,
        hinted_hit_share: (spec_issued - spec_wasted) as f64 / cache_snap.hits.max(1) as f64,
        spec_wasted_share: spec_wasted as f64 / gets.max(1) as f64,
        reads_per_get: (snap.reads - fill_reads) as f64 / gets.max(1) as f64,
    };
    // Armed runs: serialize the retained ring into a critical-path table,
    // then drop the client so its per-phase histograms fold into the pool
    // and the quantiles can be read back.
    let breakdown = (recorder_spans > 0).then(|| {
        let spans = client.dm().flight_spans();
        let table = attribution(&[(client.dm().client_id(), spans)]);
        drop(client);
        PhaseBreakdown::new(&table, cache.pool().stats())
    });
    (report, obs, breakdown)
}

#[derive(Debug, Clone)]
struct SweepPoint {
    nodes: u16,
    ops_per_sec: f64,
    sim_seconds: f64,
    total_messages: u64,
    max_node_messages: u64,
    nic_bound: bool,
}

impl SweepPoint {
    fn json(&self) -> Json {
        Json::obj([
            ("nodes", self.nodes.into()),
            ("ops_per_sec", self.ops_per_sec.into()),
            ("simulated_seconds", self.sim_seconds.into()),
            ("messages_total", self.total_messages.into()),
            ("max_node_messages", self.max_node_messages.into()),
            ("nic_bound", self.nic_bound.into()),
        ])
    }
}

/// Runs the trace on a pool of `nodes` memory nodes with a throttled RNIC:
/// the ceiling is `max(client time, per-node messages / rate)`, so striping
/// the message load over more nodes raises throughput.
fn run_sweep_point(nodes: u16, spec: &YcsbSpec, capacity: u64) -> SweepPoint {
    let dm = DmConfig::default()
        .with_memory_nodes(nodes)
        .with_message_rate(SWEEP_MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();
    load(&mut client, spec, u64::to_le_bytes);
    let baseline_ns = start_window(&cache, &client);
    replay(&mut client, &spec.run_requests(YcsbWorkload::C), fill_miss);
    client.flush();

    let (sim_seconds, nic_bound) = stretched_seconds(&cache, &client, baseline_ns);
    let messages: Vec<u64> = cache
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|s| s.messages)
        .collect();
    SweepPoint {
        nodes,
        ops_per_sec: cache.pool().stats().ops() as f64 / sim_seconds,
        sim_seconds,
        total_messages: messages.iter().sum(),
        max_node_messages: messages.iter().copied().max().unwrap_or(0),
        nic_bound,
    }
}

/// One run of the local-tier trace: simulated throughput, network messages
/// per operation, the tier's coherence counters and an FNV checksum over
/// every returned value (hit/miss flags included) so the tier-enabled run
/// can be proven byte-identical to the remote-only run.
#[derive(Debug, Clone)]
struct TierRun {
    ops_per_sec: f64,
    messages_per_op: f64,
    checksum: u64,
    local_hits: u64,
    local_revalidations: u64,
    /// Mean lease a revalidation granted (the floor is [`TIER_LEASE_NS`]).
    mean_lease_ns: u64,
    local_hit_rate: f64,
}

/// One θ point of the `local_tier` section: the same seeded trace replayed
/// remote-only and with the compute-side tier enabled.
#[derive(Debug, Clone)]
struct TierPoint {
    theta: f64,
    remote: TierRun,
    tiered: TierRun,
    speedup: f64,
    message_ratio: f64,
}

impl TierPoint {
    fn json(&self) -> Json {
        Json::obj([
            ("theta", self.theta.into()),
            ("remote_ops_per_sec", self.remote.ops_per_sec.into()),
            ("tiered_ops_per_sec", self.tiered.ops_per_sec.into()),
            ("speedup", self.speedup.into()),
            ("remote_messages_per_op", self.remote.messages_per_op.into()),
            ("tiered_messages_per_op", self.tiered.messages_per_op.into()),
            ("message_ratio", self.message_ratio.into()),
            ("local_hit_rate", self.tiered.local_hit_rate.into()),
            ("local_hits", self.tiered.local_hits.into()),
            (
                "local_revalidations",
                self.tiered.local_revalidations.into(),
            ),
            ("mean_lease_ns", self.tiered.mean_lease_ns.into()),
            (
                "values_match",
                (self.remote.checksum == self.tiered.checksum).into(),
            ),
        ])
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Replays a seeded read-only YCSB-C trace against a cache sized past the
/// record count (every Get hits, neither run evicts — so the remote-only
/// and tier-enabled runs are exactly comparable) and reports simulated
/// ops/s, messages per op and the value checksum.  The tier turns the
/// skew's hot set into zero-message local hits; the remote-only run pays a
/// bucket scan plus an object READ for every single Get.
fn run_tier_trace(spec: &YcsbSpec, tier: Option<(usize, u64)>) -> TierRun {
    let mut config = DittoConfig::with_capacity(spec.record_count * 2);
    if let Some((capacity, lease_ns)) = tier {
        config = config.with_local_tier(capacity, lease_ns);
    }
    let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
    let mut client = cache.client();

    // Load phase populates the run phase's actual key space (unlike the
    // other sections, which deliberately leave the run phase to cache-aside
    // fills): the measured window must be pure Gets so the message counts
    // isolate the read path.
    load(&mut client, spec, Request::key_to_bytes);
    let baseline_ns = start_window(&cache, &client);
    let local_before = cache.stats().snapshot();
    let lease_ns_before = cache.stats().local_lease_ns_granted();

    let mut checksum: u64 = FNV_OFFSET;
    replay(
        &mut client,
        &spec.run_requests(YcsbWorkload::C),
        |_, _, hit| {
            checksum = fnv1a(checksum, &[u8::from(hit.is_some())]);
            checksum = fnv1a(checksum, hit.unwrap_or_default());
        },
    );
    client.flush();

    let sim_seconds = ((client.dm().now_ns() - baseline_ns) as f64 / 1e9).max(1e-12);
    let messages: u64 = cache
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|s| s.messages)
        .sum();
    let local_after = cache.stats().snapshot();
    let local_hits = local_after.local_hits - local_before.local_hits;
    let local_revalidations = local_after.local_revalidations - local_before.local_revalidations;
    let lease_ns = cache.stats().local_lease_ns_granted() - lease_ns_before;
    TierRun {
        ops_per_sec: spec.request_count as f64 / sim_seconds,
        messages_per_op: messages as f64 / spec.request_count as f64,
        checksum,
        local_hits,
        local_revalidations,
        mean_lease_ns: lease_ns / local_revalidations.max(1),
        local_hit_rate: local_hits as f64 / spec.request_count as f64,
    }
}

/// One trip through the online-resize timeline (fig 18 on the ops-bench
/// workload): steady → add_node (pump interleaved with
/// serving) → migrated → drain (pump interleaved) → drained-to-empty.
#[derive(Debug, Clone)]
struct ResizeReport {
    steady_ops_per_sec: f64,
    migrating_ops_per_sec: f64,
    migrated_ops_per_sec: f64,
    draining_ops_per_sec: f64,
    drained_ops_per_sec: f64,
    grow_stripes: u64,
    grow_objects: u64,
    shrink_stripes: u64,
    shrink_objects: u64,
    drained_residual_bytes: u64,
    drained_node_reads: u64,
    total_reads: u64,
}

impl ResizeReport {
    fn json(&self) -> Json {
        Json::obj([
            ("steady_ops_per_sec", self.steady_ops_per_sec.into()),
            ("migrating_ops_per_sec", self.migrating_ops_per_sec.into()),
            ("migrated_ops_per_sec", self.migrated_ops_per_sec.into()),
            ("draining_ops_per_sec", self.draining_ops_per_sec.into()),
            ("drained_ops_per_sec", self.drained_ops_per_sec.into()),
            ("grow_stripes", self.grow_stripes.into()),
            ("grow_objects", self.grow_objects.into()),
            ("shrink_stripes", self.shrink_stripes.into()),
            ("shrink_objects", self.shrink_objects.into()),
            ("drained_residual_bytes", self.drained_residual_bytes.into()),
            ("drained_node_reads", self.drained_node_reads.into()),
            ("total_reads", self.total_reads.into()),
        ])
    }
}

/// Replays one measured window, pumping the migration every
/// [`PUMP_EVERY`] requests when `pump` is set.  Returns simulated ops/s
/// stretched to the most-saturated resource plus the migration progress
/// the in-window pumps made.
fn resize_window(
    cache: &DittoCache,
    client: &mut DittoClient,
    spec: &YcsbSpec,
    seed: u64,
    pump: bool,
) -> (f64, MigrationProgress) {
    let baseline_ns = start_window(cache, client);
    let mut pumped = MigrationProgress::default();
    let mut served = 0;
    let requests = spec.run_requests_seeded(YcsbWorkload::C, seed);
    replay(client, &requests, |client, request, hit| {
        fill_miss(client, request, hit);
        served += 1;
        if pump && served % PUMP_EVERY == 0 {
            let p = client.pump_migration(2);
            pumped.stripes_moved += p.stripes_moved;
            pumped.objects_relocated += p.objects_relocated;
        }
    });
    let (sim_seconds, _) = stretched_seconds(cache, client, baseline_ns);
    (cache.pool().stats().ops() as f64 / sim_seconds, pumped)
}

fn run_resize(spec: &YcsbSpec, capacity: u64) -> ResizeReport {
    let dm = DmConfig::default()
        .with_memory_nodes(2)
        .with_message_rate(SWEEP_MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();
    load(&mut client, spec, u64::to_le_bytes);

    let (steady, _) = resize_window(&cache, &mut client, spec, 300, false);
    cache.pool().add_node().unwrap();
    let (migrating, in_window_grow) = resize_window(&cache, &mut client, spec, 301, true);
    let grow = cache.pump_migration();
    let (migrated, _) = resize_window(&cache, &mut client, spec, 302, false);
    cache.pool().drain_node(1).unwrap();
    let (draining, in_window_shrink) = resize_window(&cache, &mut client, spec, 303, true);
    let shrink = cache.pump_migration();
    let (drained, _) = resize_window(&cache, &mut client, spec, 304, false);
    let snaps = cache.pool().stats().node_snapshots();
    ResizeReport {
        steady_ops_per_sec: steady,
        migrating_ops_per_sec: migrating,
        migrated_ops_per_sec: migrated,
        draining_ops_per_sec: draining,
        drained_ops_per_sec: drained,
        grow_stripes: in_window_grow.stripes_moved + grow.stripes_moved,
        grow_objects: in_window_grow.objects_relocated + grow.objects_relocated,
        shrink_stripes: in_window_shrink.stripes_moved + shrink.stripes_moved,
        shrink_objects: in_window_shrink.objects_relocated + shrink.objects_relocated,
        drained_residual_bytes: cache.pool().resident_object_bytes(1),
        drained_node_reads: snaps[1].reads,
        total_reads: snaps.iter().map(|s| s.reads).sum(),
    }
}

/// Output of `git <args>`, or `None` when git (or the repository) is
/// unavailable or the command fails.
fn git(args: &[&str]) -> Option<Vec<u8>> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| out.stdout)
}

/// What stamps `BENCH_ops.json`, so archived results are attributable to the
/// tree that produced them: the commit (`git describe --always`), and for an
/// uncommitted tree `+` the low 32 bits of an FNV-1a hash of `git diff HEAD`
/// — two runs of one uncommitted tree agree, a clean tree carries the bare
/// commit.  The result file itself is left out of the diff (every run
/// rewrites it).  `"unknown"` without git.
fn git_describe() -> String {
    let commit = git(&["describe", "--always"])
        .and_then(|out| String::from_utf8(out).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(commit) = commit else {
        return "unknown".to_string();
    };
    match git(&[
        "diff",
        "HEAD",
        "--",
        ":(top)",
        ":(top,exclude)BENCH_ops.json",
    ]) {
        Some(diff) if !diff.is_empty() => {
            format!("{commit}+{:08x}", fnv1a(FNV_OFFSET, &diff) as u32)
        }
        _ => commit,
    }
}

/// FNV-1a over the benchmark-relevant configuration, so two result files
/// are comparable exactly when their fingerprints match.
fn config_fingerprint(spec: &YcsbSpec, capacity: u64) -> u64 {
    let text = format!("{spec:?}|capacity={capacity}|sweep_rate={SWEEP_MESSAGE_RATE}");
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// Runs a short seeded pipelined window with the flight recorder armed and
/// writes the spans + event log as a Chrome-tracing JSON document to
/// `path` (open it in `chrome://tracing` or Perfetto).
fn write_trace(path: &str) {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 5_000,
        ..YcsbSpec::default()
    }
    .with_seed(42);
    let capacity = spec.record_count * 7 / 10;
    let dm = DmConfig::default().with_flight_recorder(1 << 17);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();
    load(&mut client, &spec, u64::to_le_bytes);
    // Trace only the measured window: drop the load phase's spans.
    client.dm().clear_flight_recorder();
    replay(&mut client, &spec.run_requests(YcsbWorkload::C), fill_miss);
    client.flush();
    let spans = client.dm().flight_spans();
    let events = cache.pool().events_snapshot();
    eprintln!(
        "ops_bench: writing {} spans and {} events to {path}",
        spans.len(),
        events.len()
    );
    let json = ditto_dm::obs::chrome_trace_json(&[(client.dm().client_id(), spans)], &events);
    std::fs::write(path, &json).expect("write trace file");
    // Companion exposition page for `obs_report`: drop the client so its
    // per-phase histograms fold into the pool, then render the Prometheus
    // text page next to the trace.
    drop(client);
    let prom_path = format!("{}.prom", path.trim_end_matches(".json"));
    std::fs::write(&prom_path, cache.text_exposition()).expect("write exposition page");
    eprintln!("ops_bench: wrote phase exposition to {prom_path}");
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_path = Some(args.next().expect("--trace needs a file path"));
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let spec = YcsbSpec {
        record_count: 10_000,
        request_count: REQUESTS,
        ..YcsbSpec::default()
    }
    .with_seed(42);
    // Capacity below the record count: the get-heavy phase mixes hits,
    // misses with cache-aside fills, and eviction pressure.
    let capacity = spec.record_count * 7 / 10;

    eprintln!(
        "ops_bench: YCSB-C, {REQUESTS} requests, {} records",
        spec.record_count
    );
    let pipelined = run_recorded(&spec, capacity, 0, 1).0;
    eprintln!(
        "  pipelined: {:>12.0} ops/s  {:.2} verbs/op  {:.2} µs p50  {:.2} µs p99",
        pipelined.ops_per_sec, pipelined.verbs_per_op, pipelined.p50_us, pipelined.p99_us
    );

    // Armed flight recorder: recording reads the simulated clock but never
    // advances it, so the armed run must stay within 10% of the disarmed
    // ops/s (in practice: identical).
    let (armed, armed_obs, attribution_table) = run_recorded(&spec, capacity, 1 << 16, 1);
    let armed_spans = armed_obs.spans_recorded;
    let armed_overhead = (pipelined.ops_per_sec - armed.ops_per_sec) / pipelined.ops_per_sec;
    eprintln!(
        "  armed:     {:>12.0} ops/s  ({} spans recorded, {:.2}% overhead)",
        armed.ops_per_sec,
        armed_spans,
        armed_overhead * 100.0
    );

    // Sampled arming: the production "always-on" mode.  The sampling draw
    // is a pure hash off the simulated-clock path, so the run must show
    // **zero** simulated overhead — ops/s exactly equal to the disarmed
    // run — with identical cache behaviour.
    let (sampled, sampled_obs, _) = run_recorded(&spec, capacity, 1 << 16, SAMPLE_ONE_IN);
    eprintln!(
        "  sampled:   {:>12.0} ops/s  (1-in-{SAMPLE_ONE_IN}: {} ops sampled, {} skipped, {} spans)",
        sampled.ops_per_sec,
        sampled_obs.ops_sampled,
        sampled_obs.ops_skipped,
        sampled_obs.spans_recorded
    );

    // Critical-path attribution of the armed run: where op time goes once
    // overlap is serialized.  Exclusive charging means the
    // per-phase shares can never sum past 100% of elapsed op time.
    let attribution_table = attribution_table.expect("armed run must produce a phase breakdown");
    eprintln!(
        "  attribution: {} ops, op p50 {:.2} µs, op p99 {:.2} µs, critical {:.1}%, \
         overlap saved {:.1} µs",
        attribution_table.ops,
        attribution_table.op_p50_us,
        attribution_table.op_p99_us,
        attribution_table.critical_share_total_pct,
        attribution_table.overlap_saved_us,
    );
    for row in &attribution_table.rows {
        eprintln!(
            "    {:<9} {:>7} spans  p50 {:>8.2} µs  p99 {:>8.2} µs  critical {:>5.1}%  tail {:>5.1}%",
            row.name, row.spans, row.p50_us, row.p99_us, row.critical_share_pct,
            row.tail_share_pct,
        );
    }

    if let Some(path) = &trace_path {
        write_trace(path);
    }

    // Multi-memory-node striping sweep under a message-bound RNIC budget.
    let sweep_spec = YcsbSpec {
        request_count: REQUESTS / 4,
        ..spec
    };
    eprintln!(
        "ops_bench: MN sweep, {} requests, {} msg/s per NIC",
        sweep_spec.request_count, SWEEP_MESSAGE_RATE
    );
    let mut sweep = Vec::new();
    for nodes in [1u16, 2, 4, 8] {
        let point = run_sweep_point(nodes, &sweep_spec, capacity);
        eprintln!(
            "  {} MN: {:>12.0} ops/s  max-node {:>8} msgs  ({})",
            point.nodes,
            point.ops_per_sec,
            point.max_node_messages,
            if point.nic_bound {
                "NIC-bound"
            } else {
                "client-bound"
            }
        );
        sweep.push(point);
    }

    // Online-resize window (fig 18 smoke): an add → migrate →
    // drain-to-empty timeline under the message-bound budget, gating that
    // the drained node really reaches zero bytes.
    let resize_spec = YcsbSpec {
        request_count: REQUESTS / 8,
        ..spec
    };
    eprintln!(
        "ops_bench: resize window, {} requests/window, {} msg/s per NIC",
        resize_spec.request_count, SWEEP_MESSAGE_RATE
    );
    let resize = run_resize(&resize_spec, capacity);
    eprintln!(
        "  steady {:>8.0}  migrating {:>8.0}  migrated {:>8.0}  draining {:>8.0}  drained {:>8.0} ops/s  (residual {} B)",
        resize.steady_ops_per_sec,
        resize.migrating_ops_per_sec,
        resize.migrated_ops_per_sec,
        resize.draining_ops_per_sec,
        resize.drained_ops_per_sec,
        resize.drained_residual_bytes,
    );

    // Compute-side local tier: the same seeded read-only trace replayed
    // remote-only vs tier-enabled across three Zipf skews.
    let tier_requests = REQUESTS / 4;
    eprintln!(
        "ops_bench: local tier, {tier_requests} requests per point, {TIER_CAPACITY} entries, \
         {TIER_LEASE_NS} ns lease floor"
    );
    let mut tier_points = Vec::new();
    for theta in [0.9f64, 0.99, 1.2] {
        let tier_spec = YcsbSpec {
            request_count: tier_requests,
            theta,
            ..spec
        };
        let remote = run_tier_trace(&tier_spec, None);
        let tiered = run_tier_trace(&tier_spec, Some((TIER_CAPACITY, TIER_LEASE_NS)));
        let point = TierPoint {
            theta,
            speedup: tiered.ops_per_sec / remote.ops_per_sec,
            message_ratio: tiered.messages_per_op / remote.messages_per_op,
            remote,
            tiered,
        };
        eprintln!(
            "  θ={:<5} {:>11.0} -> {:>11.0} ops/s ({:.2}x)  {:.3} -> {:.3} msgs/op ({:.2}x)  {:.1}% local, {} revalidations, mean lease {} ns",
            point.theta,
            point.remote.ops_per_sec,
            point.tiered.ops_per_sec,
            point.speedup,
            point.remote.messages_per_op,
            point.tiered.messages_per_op,
            point.message_ratio,
            point.tiered.local_hit_rate * 100.0,
            point.tiered.local_revalidations,
            point.tiered.mean_lease_ns,
        );
        tier_points.push(point);
    }

    let describe = git_describe();
    if describe.contains('+') {
        eprintln!(
            "ops_bench: uncommitted tree — BENCH_ops.json is stamped \"{describe}\" \
             (commit + hash of `git diff HEAD`)"
        );
    }
    let report = Json::obj([
        ("benchmark", "ops".into()),
        ("schema_version", 5u64.into()),
        ("git_describe", Json::Str(describe)),
        (
            "config_fingerprint",
            format!("{:016x}", config_fingerprint(&spec, capacity))
                .as_str()
                .into(),
        ),
        ("workload", "ycsb-c".into()),
        ("requests", REQUESTS.into()),
        ("records", spec.record_count.into()),
        ("capacity_objects", capacity.into()),
        ("modes", Json::obj([("pipelined", pipelined.json())])),
        ("armed_recorder_spans", armed_spans.into()),
        (
            "armed_recorder_overhead_pct",
            (armed_overhead * 100.0).into(),
        ),
        ("armed_sampled_one_in", SAMPLE_ONE_IN.into()),
        ("armed_sampled_spans", sampled_obs.spans_recorded.into()),
        ("armed_sampled_ops_sampled", sampled_obs.ops_sampled.into()),
        ("armed_sampled_ops_skipped", sampled_obs.ops_skipped.into()),
        ("phase_attribution", attribution_table.json()),
        ("mn_sweep_message_rate", SWEEP_MESSAGE_RATE.into()),
        (
            "mn_sweep",
            Json::Arr(sweep.iter().map(SweepPoint::json).collect()),
        ),
        (
            "local_tier",
            Json::obj([
                ("tier_capacity", TIER_CAPACITY.into()),
                ("tier_lease_ns", TIER_LEASE_NS.into()),
                ("records", spec.record_count.into()),
                ("requests", tier_requests.into()),
                (
                    "points",
                    Json::Arr(tier_points.iter().map(TierPoint::json).collect()),
                ),
            ]),
        ),
        ("resize_window", resize.json()),
    ]);
    // Written before any gate is checked, so a red run leaves the numbers
    // that failed it.
    let json = format!("{report}\n");
    std::fs::write("BENCH_ops.json", &json).expect("write BENCH_ops.json");
    print!("{json}");

    // Acceptance gates.  Recorder: armed within 10% of disarmed, sampled at
    // exactly 0%, neither changing cache behaviour.
    assert!(armed_spans > 0, "armed recorder must record spans");
    assert!(
        armed.ops_per_sec >= pipelined.ops_per_sec * 0.9,
        "armed flight recorder costs more than 10% simulated ops/s: \
         {:.0} armed vs {:.0} disarmed",
        armed.ops_per_sec,
        pipelined.ops_per_sec
    );
    assert_eq!(
        sampled.ops_per_sec, pipelined.ops_per_sec,
        "sampled arming must cost 0% simulated ops/s (the draw never touches the clock)"
    );
    for (run, name) in [(&armed, "arming"), (&sampled, "sampled arming")] {
        assert_eq!(
            (run.hits, run.misses, run.evictions),
            (pipelined.hits, pipelined.misses, pipelined.evictions),
            "{name} the recorder must not change cache behaviour"
        );
    }
    assert!(
        sampled_obs.ops_sampled > 0 && sampled_obs.ops_skipped > 0,
        "1-in-{SAMPLE_ONE_IN} sampling must both keep and skip ops: {sampled_obs:?}"
    );
    assert!(
        sampled_obs.spans_recorded < armed_spans,
        "sampling must record fewer spans than full arming: {} vs {armed_spans}",
        sampled_obs.spans_recorded
    );
    assert!(
        attribution_table.ops > 0 && !attribution_table.rows.is_empty(),
        "attribution must cover the measured window"
    );
    assert!(
        attribution_table.critical_share_total_pct <= 100.0 + 1e-9,
        "critical-path shares must sum to <= 100% of elapsed op time, got {:.4}%",
        attribution_table.critical_share_total_pct
    );
    // What pipelining buys, read off the one run: wire time that posted
    // verbs spent hidden behind client work and each other.
    assert!(
        attribution_table.overlap_saved_us > 0.0,
        "posted verbs must overlap something"
    );
    assert!(
        pipelined.reads_per_get < 2.2,
        "a Get must issue fewer than 2.2 READs on average, measured {:.4}",
        pipelined.reads_per_get
    );
    // Striping gate: under a message-bound workload, simulated ops/s must
    // increase monotonically from 1 to 4 memory nodes.
    for pair in sweep[..3].windows(2) {
        assert!(
            pair[1].ops_per_sec > pair[0].ops_per_sec,
            "ops/s must increase {} -> {} memory nodes: {:.0} vs {:.0}",
            pair[0].nodes,
            pair[1].nodes,
            pair[0].ops_per_sec,
            pair[1].ops_per_sec
        );
    }
    // Resize-window gates: (a) the pumped drain empties the node completely
    // (and lookup READs leave it), and (b) the migrated pool's message-bound
    // ceiling is higher than the pre-resize steady state — the bucket ranges
    // really spread onto the joiner.
    assert_eq!(
        resize.drained_residual_bytes, 0,
        "drained node must reach zero resident object bytes"
    );
    assert!(
        resize.grow_stripes > 0 && resize.shrink_stripes > 0,
        "both resize phases must actually move stripes (grow {}, shrink {})",
        resize.grow_stripes,
        resize.shrink_stripes
    );
    // >= 95% of READ messages on active nodes: only the (tiny, fixed)
    // history-shard counters still answer from the drained node; every
    // bucket and object READ has left it.
    assert!(
        resize.drained_node_reads * 20 < resize.total_reads,
        "drained node still serves {}/{} READs (must be < 5%)",
        resize.drained_node_reads,
        resize.total_reads
    );
    assert!(
        resize.migrated_ops_per_sec > resize.steady_ops_per_sec * 1.1,
        "migration must raise the message-bound ceiling: {:.0} -> {:.0}",
        resize.steady_ops_per_sec,
        resize.migrated_ops_per_sec
    );
    // Local tier: byte-identical values at every θ (the per-run FNV
    // checksum), the tier actually serving and revalidating.
    for point in &tier_points {
        let theta = point.theta;
        assert_eq!(
            point.remote.checksum, point.tiered.checksum,
            "θ={theta}: tier-enabled run diverged from the remote-only values"
        );
        assert_eq!(
            point.remote.local_hits, 0,
            "θ={theta}: remote-only run used the tier"
        );
        assert!(
            point.tiered.local_hits > 0 && point.tiered.local_revalidations > 0,
            "θ={theta}: the tier must serve local hits and revalidate expired leases \
             (hits {}, revalidations {})",
            point.tiered.local_hits,
            point.tiered.local_revalidations
        );
    }
    let tier_point_at = |theta: f64| {
        tier_points
            .iter()
            .find(|p| (p.theta - theta).abs() < 1e-9)
            .expect("gated tier point")
    };
    // The tier's claim is messages: a hinted remote hit is one round trip
    // now, so against the remote-only path the tier saves far less latency
    // than when that path took two, and its ops/s only has to stay ahead.
    // The message gate is the ratio again: leases that grow with observed
    // stability brought it back under 0.5 (0.55 → 0.41 at θ=0.99, 0.63 →
    // 0.50 at θ=0.9) after the remote path's dropped `last_ts` WRITEs had
    // pushed the fixed-lease tier past it.
    for (theta, max_ratio) in TIER_MAX_MESSAGE_RATIO {
        let point = tier_point_at(theta);
        assert!(
            point.message_ratio <= max_ratio,
            "local tier must cost <={max_ratio}x the remote-only messages per op at θ={theta}: \
             measured {:.3} against {:.3} ({:.3}x)",
            point.tiered.messages_per_op,
            point.remote.messages_per_op,
            point.message_ratio
        );
    }
    assert!(
        tier_point_at(0.99).speedup >= 1.0,
        "local tier must not fall below the remote-only path's simulated ops/s at θ=0.99 \
         (one-round-trip remote hits leave it little latency to save), measured {:.3}x",
        tier_point_at(0.99).speedup
    );
}
