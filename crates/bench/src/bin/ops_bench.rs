//! Get-heavy ops microbenchmark of the data path, and of multi-memory-node
//! striping.
//!
//! Replays a seeded YCSB-C trace (gets with cache-aside fills) against a
//! `DittoClient` and reports simulated ops/s, verbs per op, doorbells per
//! op, p50/p99 operation latency, the share of hits a hinted `Get` served
//! from its one slot READ (beside the share of `Set`s a hint published
//! without a lookup and the share of `Get`s whose hint mispredicted) and the
//! READs a `Get` issues on average as JSON in
//! `BENCH_ops.json`, so future changes can track the performance
//! trajectory.  A second section sweeps the pool from 1 to 8 memory nodes
//! under a deliberately message-bound RNIC budget: with the hash table,
//! history shards and segments striped by the topology layer, the per-node
//! message load — and therefore the simulated throughput ceiling — must
//! scale with pool size (the fig 17/18 elasticity claim).
//!
//! The process exits non-zero if a `Get` issues 2.2 READs or more on
//! average, or if the message-bound sweep is not monotonically increasing
//! from 1 to 4 nodes.
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
//! A degraded-mode section replays the 4-thread concurrency workload under
//! armed verb-fault injection at 0 / 0.1% / 1% and reports ops/s and tail
//! latency per rate, gating that the armed-but-zero row stays within noise
//! of the fault-free concurrency point (fault injection must be free when
//! no faults fire) and that no operations are lost at any rate.
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
//! cargo run --release -p ditto-bench --bin ops_bench -- --requests 500000
//! ```

use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::obs::attribution;
use ditto_dm::{run_clients, AttributionTable, DmConfig, FaultPlan, Phase, PoolStats};
use ditto_workloads::{YcsbSpec, YcsbWorkload};

/// RNIC message budget (verbs/s per node) for the striping sweep — low
/// enough that a single node is message-bound, so adding nodes raises the
/// ceiling until client compute takes over.
const SWEEP_MESSAGE_RATE: u64 = 60_000;

/// Local-tier section: per-client tier capacity (objects) and lease floor
/// (simulated ns).  2048 entries cover most of the Zipf hot set at the
/// swept skews without holding the whole key space; 50 µs is what an entry
/// is admitted with, and a read-only trace grows it to milliseconds.
const TIER_CAPACITY: usize = 2_048;
const TIER_LEASE_NS: u64 = 50_000;
/// The most the tier-enabled run's messages per op may be of the
/// remote-only run's, per gated θ (0.409 and 0.500 measured; ci.yml's
/// local-tier gate repeats the numbers).  θ=0.9 sits on ROADMAP item 9(b)'s
/// 0.5 since tier hits write `last_ts` like remote ones (0.095 msg/op of its
/// 1.309 in this short window, 0.464 without), hence the margin.
const TIER_MAX_MESSAGE_RATIO: [(f64, f64); 2] = [(0.99, 0.5), (0.9, 0.52)];

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
    /// Share of the measured `Set`s a hint published in one round trip, the
    /// CAS posted behind the object WRITE with no lookup (nil on this trace,
    /// whose `Set`s are all fills after a miss and hold no hint).
    hinted_set_share: f64,
    /// Hints that mispredicted, as a share of all `Get`s.
    spec_wasted_share: f64,
    /// READs per `Get` (the fills' lookups and evictions not counted): 2
    /// for a hinted hit and for a miss, 3 for an unhinted hit.
    reads_per_get: f64,
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

    // Load phase: pre-populate every record (not measured).
    let mut value = vec![0u8; spec.value_size as usize];
    for key in 0..spec.record_count {
        value.fill(key as u8);
        client.set(&key.to_le_bytes(), &value);
    }
    // Publish the load-phase clock before resetting so the measurement
    // baseline advances to "now" and simulated time stays monotonic with
    // respect to the timestamps already stored in the table.
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    let baseline_ns = client.dm().now_ns();

    // Measured get-heavy phase with cache-aside fills on miss.  The fills'
    // READs are told apart, so that the rest are the `Get`s'.
    let reads = || cache.pool().stats().node_snapshots()[0].reads;
    let mut fill_reads = 0;
    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value_buf) {
            value.fill(request.key as u8);
            let before = reads();
            client.set(&key, &value);
            fill_reads += reads() - before;
        }
    }
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
    let published = cache.stats().spec_publishes_issued() - cache.stats().spec_publishes_wasted();
    let gets = cache_snap.hits + cache_snap.misses;
    let measured_sets = cache_snap.sets - spec.record_count;
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
        hinted_set_share: published as f64 / measured_sets.max(1) as f64,
        spec_wasted_share: spec_wasted as f64 / gets.max(1) as f64,
        reads_per_get: (snap.reads - fill_reads) as f64 / gets.max(1) as f64,
    };
    // Armed runs: serialize the retained ring into a critical-path table,
    // then drop the client so its per-phase histograms fold into the pool
    // and the quantiles can be read back.
    let breakdown = if recorder_spans > 0 {
        let spans = client.dm().flight_spans();
        let table = attribution(&[(client.dm().client_id(), spans)]);
        drop(client);
        Some(PhaseBreakdown::new(&table, cache.pool().stats()))
    } else {
        None
    };
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

/// Runs the trace on a pool of `nodes` memory nodes with a throttled RNIC
/// and stretches elapsed time to the most-saturated resource, exactly like
/// `RunReport` does — the ceiling is `max(client time, per-node messages /
/// rate)`, so striping the message load over more nodes raises throughput.
fn run_sweep_point(nodes: u16, spec: &YcsbSpec, capacity: u64) -> SweepPoint {
    let dm = DmConfig::default()
        .with_memory_nodes(nodes)
        .with_message_rate(SWEEP_MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();

    let mut value = vec![0u8; spec.value_size as usize];
    for key in 0..spec.record_count {
        value.fill(key as u8);
        client.set(&key.to_le_bytes(), &value);
    }
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    let baseline_ns = client.dm().now_ns();

    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value_buf) {
            value.fill(request.key as u8);
            client.set(&key, &value);
        }
    }
    client.flush();

    let stats = cache.pool().stats();
    let snaps = stats.node_snapshots();
    let ops = stats.ops();
    let client_seconds = (client.dm().now_ns() - baseline_ns) as f64 / 1e9;
    let max_node_messages = snaps.iter().map(|s| s.messages).max().unwrap_or(0);
    let nic_seconds = max_node_messages as f64 / SWEEP_MESSAGE_RATE as f64;
    let sim_seconds = client_seconds.max(nic_seconds).max(1e-12);
    SweepPoint {
        nodes,
        ops_per_sec: ops as f64 / sim_seconds,
        sim_seconds,
        total_messages: snaps.iter().map(|s| s.messages).sum(),
        max_node_messages,
        nic_bound: nic_seconds > client_seconds,
    }
}

/// One point of the concurrency section: `threads` OS threads, each with
/// its own `DittoClient`, hammering **one shared cache**.
#[derive(Debug, Clone)]
struct ConcurrencyPoint {
    threads: usize,
    ops: u64,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    cas_retries: u64,
    lock_acquire_attempts: u64,
    lock_acquisitions: u64,
    lock_wait_retries: u64,
    backoff_ms: f64,
}

/// Runs the get-heavy trace split over `threads` real OS threads sharing
/// one cache (the total request volume is fixed, so more threads mean less
/// work per thread).  Aggregate simulated throughput comes from the
/// harness — elapsed time is the slowest client's clock, stretched to the
/// most saturated resource — and the contention counters are the
/// per-interval delta of the pool's lifetime counters (they survive the
/// harness's stats reset by design).
fn run_concurrency_point(threads: usize, spec: &YcsbSpec, capacity: u64) -> ConcurrencyPoint {
    let cache =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), DmConfig::default())
            .unwrap();
    // Load phase: one client pre-populates every record (not measured).
    {
        let mut client = cache.client();
        let mut value = vec![0u8; spec.value_size as usize];
        for key in 0..spec.record_count {
            value.fill(key as u8);
            client.set(&key.to_le_bytes(), &value);
        }
        client.dm().publish_clock();
    }
    let contention_before = cache.pool().stats().contention();

    let per_thread = YcsbSpec {
        request_count: spec.request_count / threads as u64,
        ..*spec
    };
    let (report, _) = run_clients(cache.pool(), threads, |ctx| {
        let mut client = cache.client();
        client.dm().reset_clock();
        let mut value = vec![0u8; per_thread.value_size as usize];
        let mut value_buf = Vec::with_capacity(per_thread.value_size as usize);
        // Distinct seed per thread: overlapping Zipf key popularity (real
        // slot contention) without identical request order.
        let requests = per_thread.run_requests_seeded(YcsbWorkload::C, 1_000 + ctx.index as u64);
        for request in requests {
            let key = request.key_bytes();
            if !client.get_into(&key, &mut value_buf) {
                value.fill(request.key as u8);
                client.set(&key, &value);
            }
        }
        client.flush();
    });
    let contention = cache.pool().stats().contention().delta(&contention_before);

    ConcurrencyPoint {
        threads,
        ops: report.total_ops,
        ops_per_sec: report.throughput_mops * 1e6,
        p50_us: report.p50_latency_us,
        p99_us: report.p99_latency_us,
        cas_retries: contention.cas_retries,
        lock_acquire_attempts: contention.lock_acquire_attempts,
        lock_acquisitions: contention.lock_acquisitions,
        lock_wait_retries: contention.lock_wait_retries,
        backoff_ms: contention.backoff_ns as f64 / 1e6,
    }
}

/// One point of the degraded-mode section: the 4-thread concurrency
/// workload with an *armed* fault injector delivering `fault_ppm` verb
/// error completions (plus half that rate of verb timeouts) per million
/// verbs.
#[derive(Debug, Clone)]
struct DegradedPoint {
    fault_ppm: u32,
    ops: u64,
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    verb_failures: u64,
    verb_timeouts: u64,
    verb_retries: u64,
    retry_backoff_ms: f64,
}

/// Degraded-mode throughput: the 4-thread shared-cache workload of the
/// concurrency section, replayed on a pool whose fault injector is armed
/// at `fault_ppm`.  The 0-ppm point runs with the injector *armed on an
/// all-zero plan* — it prices the injection plumbing itself, and `main`
/// gates it against the fault-free 4-thread concurrency point.
fn run_degraded_point(fault_ppm: u32, spec: &YcsbSpec, capacity: u64) -> DegradedPoint {
    const THREADS: usize = 4;
    let plan = FaultPlan::seeded(0xBE9C + u64::from(fault_ppm))
        .with_verb_fail_ppm(fault_ppm)
        .with_verb_timeouts(fault_ppm / 2, 20_000);
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(capacity),
        DmConfig::default().with_fault_plan(plan),
    )
    .unwrap();
    let injector = cache.pool().fault_injector();
    injector.set_armed(false);
    {
        let mut client = cache.client();
        let mut value = vec![0u8; spec.value_size as usize];
        for key in 0..spec.record_count {
            value.fill(key as u8);
            client.set(&key.to_le_bytes(), &value);
        }
        client.dm().publish_clock();
    }
    let faults_before = cache.pool().stats().faults();

    injector.set_armed(true);
    let per_thread = YcsbSpec {
        request_count: spec.request_count / THREADS as u64,
        ..*spec
    };
    let (report, _) = run_clients(cache.pool(), THREADS, |ctx| {
        let mut client = cache.client();
        client.dm().reset_clock();
        let mut value = vec![0u8; per_thread.value_size as usize];
        let mut value_buf = Vec::with_capacity(per_thread.value_size as usize);
        let requests = per_thread.run_requests_seeded(YcsbWorkload::C, 1_000 + ctx.index as u64);
        for request in requests {
            let key = request.key_bytes();
            if !client.get_into(&key, &mut value_buf) {
                value.fill(request.key as u8);
                client.set(&key, &value);
            }
        }
        client.flush();
    });
    injector.set_armed(false);
    let faults = cache.pool().stats().faults().delta(&faults_before);

    DegradedPoint {
        fault_ppm,
        ops: report.total_ops,
        ops_per_sec: report.throughput_mops * 1e6,
        p50_us: report.p50_latency_us,
        p99_us: report.p99_latency_us,
        verb_failures: faults.verb_failures,
        verb_timeouts: faults.verb_timeouts,
        verb_retries: faults.verb_retries,
        retry_backoff_ms: faults.retry_backoff_ns as f64 / 1e6,
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
    // mode sections, which deliberately leave the run phase to cache-aside
    // fills): the measured window must be pure Gets so the message counts
    // isolate the read path.
    let mut value = vec![0u8; spec.value_size as usize];
    for request in spec.load_requests() {
        value.fill(request.key as u8);
        client.set(&request.key_bytes(), &value);
    }
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    let baseline_ns = client.dm().now_ns();
    let local_before = cache.stats().snapshot();
    let lease_ns_before = cache.stats().local_lease_ns_granted();

    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    let mut checksum: u64 = FNV_OFFSET;
    for request in spec.run_requests(YcsbWorkload::C) {
        let hit = client.get_into(&request.key_bytes(), &mut value_buf);
        checksum = fnv1a(checksum, &[u8::from(hit)]);
        if hit {
            checksum = fnv1a(checksum, &value_buf);
        }
    }
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

fn tier_point_json(point: &TierPoint) -> String {
    format!(
        concat!(
            "{{ \"theta\": {:.2}, \"remote_ops_per_sec\": {:.1}, ",
            "\"tiered_ops_per_sec\": {:.1}, \"speedup\": {:.4}, ",
            "\"remote_messages_per_op\": {:.4}, \"tiered_messages_per_op\": {:.4}, ",
            "\"message_ratio\": {:.4}, \"local_hit_rate\": {:.4}, ",
            "\"local_hits\": {}, \"local_revalidations\": {}, \"mean_lease_ns\": {}, ",
            "\"values_match\": {} }}"
        ),
        point.theta,
        point.remote.ops_per_sec,
        point.tiered.ops_per_sec,
        point.speedup,
        point.remote.messages_per_op,
        point.tiered.messages_per_op,
        point.message_ratio,
        point.tiered.local_hit_rate,
        point.tiered.local_hits,
        point.tiered.local_revalidations,
        point.tiered.mean_lease_ns,
        point.remote.checksum == point.tiered.checksum,
    )
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

/// Replays one measured window (get-heavy with cache-aside fills),
/// optionally pumping the migration every `pump_every` requests so the
/// copy/relocation traffic lands *inside* the window.  Returns simulated
/// ops/s stretched to the most-saturated resource plus the migration
/// progress the in-window pumps made.
fn resize_window(
    cache: &ditto_core::DittoCache,
    client: &mut ditto_core::DittoClient,
    spec: &YcsbSpec,
    seed: u64,
    pump_every: Option<usize>,
) -> (f64, ditto_core::cache::MigrationProgress) {
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().reset_clock();
    let baseline_ns = client.dm().now_ns();
    let mut value = vec![0u8; spec.value_size as usize];
    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    let mut pumped = ditto_core::cache::MigrationProgress::default();
    for (i, request) in spec
        .run_requests_seeded(YcsbWorkload::C, seed)
        .iter()
        .enumerate()
    {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value_buf) {
            value.fill(request.key as u8);
            client.set(&key, &value);
        }
        if let Some(every) = pump_every {
            if i % every == every - 1 {
                let p = client.pump_migration(2);
                pumped.stripes_moved += p.stripes_moved;
                pumped.objects_relocated += p.objects_relocated;
            }
        }
    }
    let stats = cache.pool().stats();
    let ops = stats.ops();
    let client_seconds = (client.dm().now_ns() - baseline_ns) as f64 / 1e9;
    let max_node_messages = stats
        .node_snapshots()
        .iter()
        .map(|s| s.messages)
        .max()
        .unwrap_or(0);
    let nic_seconds = max_node_messages as f64 / SWEEP_MESSAGE_RATE as f64;
    (
        ops as f64 / client_seconds.max(nic_seconds).max(1e-12),
        pumped,
    )
}

fn run_resize(spec: &YcsbSpec, capacity: u64) -> ResizeReport {
    let dm = DmConfig::default()
        .with_memory_nodes(2)
        .with_message_rate(SWEEP_MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();

    let mut value = vec![0u8; spec.value_size as usize];
    for key in 0..spec.record_count {
        value.fill(key as u8);
        client.set(&key.to_le_bytes(), &value);
    }

    let (steady, _) = resize_window(&cache, &mut client, spec, 300, None);
    cache.pool().add_node().unwrap();
    let (migrating, in_window_grow) = resize_window(&cache, &mut client, spec, 301, Some(256));
    let grow = cache.pump_migration();
    let (migrated, _) = resize_window(&cache, &mut client, spec, 302, None);
    cache.pool().drain_node(1).unwrap();
    let (draining, in_window_shrink) = resize_window(&cache, &mut client, spec, 303, Some(256));
    let shrink = cache.pump_migration();
    let (drained, _) = resize_window(&cache, &mut client, spec, 304, None);
    let snaps = cache.pool().stats().node_snapshots();
    let drained_node_reads = snaps[1].reads;
    let total_reads: u64 = snaps.iter().map(|s| s.reads).sum();
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
        drained_node_reads,
        total_reads,
    }
}

fn resize_json(report: &ResizeReport) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"steady_ops_per_sec\": {:.1},\n",
            "    \"migrating_ops_per_sec\": {:.1},\n",
            "    \"migrated_ops_per_sec\": {:.1},\n",
            "    \"draining_ops_per_sec\": {:.1},\n",
            "    \"drained_ops_per_sec\": {:.1},\n",
            "    \"grow_stripes\": {},\n",
            "    \"grow_objects\": {},\n",
            "    \"shrink_stripes\": {},\n",
            "    \"shrink_objects\": {},\n",
            "    \"drained_residual_bytes\": {},\n",
            "    \"drained_node_reads\": {},\n",
            "    \"total_reads\": {}\n",
            "  }}"
        ),
        report.steady_ops_per_sec,
        report.migrating_ops_per_sec,
        report.migrated_ops_per_sec,
        report.draining_ops_per_sec,
        report.drained_ops_per_sec,
        report.grow_stripes,
        report.grow_objects,
        report.shrink_stripes,
        report.shrink_objects,
        report.drained_residual_bytes,
        report.drained_node_reads,
        report.total_reads,
    )
}

fn concurrency_json(point: &ConcurrencyPoint) -> String {
    format!(
        concat!(
            "{{ \"threads\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, ",
            "\"p50_latency_us\": {:.3}, \"p99_latency_us\": {:.3}, ",
            "\"cas_retries\": {}, \"lock_acquire_attempts\": {}, ",
            "\"lock_acquisitions\": {}, \"lock_wait_retries\": {}, ",
            "\"backoff_ms\": {:.3} }}"
        ),
        point.threads,
        point.ops,
        point.ops_per_sec,
        point.p50_us,
        point.p99_us,
        point.cas_retries,
        point.lock_acquire_attempts,
        point.lock_acquisitions,
        point.lock_wait_retries,
        point.backoff_ms,
    )
}

fn degraded_json(point: &DegradedPoint) -> String {
    format!(
        concat!(
            "{{ \"fault_ppm\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, ",
            "\"p50_latency_us\": {:.3}, \"p99_latency_us\": {:.3}, ",
            "\"verb_failures\": {}, \"verb_timeouts\": {}, ",
            "\"verb_retries\": {}, \"retry_backoff_ms\": {:.3} }}"
        ),
        point.fault_ppm,
        point.ops,
        point.ops_per_sec,
        point.p50_us,
        point.p99_us,
        point.verb_failures,
        point.verb_timeouts,
        point.verb_retries,
        point.retry_backoff_ms,
    )
}

fn sweep_json(point: &SweepPoint) -> String {
    format!(
        concat!(
            "{{ \"nodes\": {}, \"ops_per_sec\": {:.1}, \"simulated_seconds\": {:.6}, ",
            "\"messages_total\": {}, \"max_node_messages\": {}, \"nic_bound\": {} }}"
        ),
        point.nodes,
        point.ops_per_sec,
        point.sim_seconds,
        point.total_messages,
        point.max_node_messages,
        point.nic_bound,
    )
}

fn phase_row_json(row: &PhaseRow) -> String {
    format!(
        "{{\"phase\": \"{}\", \"spans\": {}, \"hist_count\": {}, \"p50_us\": {:.3}, \
         \"p99_us\": {:.3}, \"critical_share_pct\": {:.2}, \"tail_share_pct\": {:.2}}}",
        row.name,
        row.spans,
        row.hist_count,
        row.p50_us,
        row.p99_us,
        row.critical_share_pct,
        row.tail_share_pct,
    )
}

fn mode_json(report: &ModeReport) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"ops\": {},\n",
            "      \"simulated_seconds\": {:.6},\n",
            "      \"ops_per_sec\": {:.1},\n",
            "      \"verbs_per_op\": {:.4},\n",
            "      \"doorbells_per_op\": {:.4},\n",
            "      \"mean_batch_size\": {:.4},\n",
            "      \"p50_latency_us\": {:.3},\n",
            "      \"p99_latency_us\": {:.3},\n",
            "      \"hits\": {},\n",
            "      \"misses\": {},\n",
            "      \"evictions\": {},\n",
            "      \"hinted_hit_share\": {:.4},\n",
            "      \"hinted_set_share\": {:.4},\n",
            "      \"spec_wasted_share\": {:.4},\n",
            "      \"reads_per_get\": {:.4}\n",
            "    }}"
        ),
        report.ops,
        report.sim_seconds,
        report.ops_per_sec,
        report.verbs_per_op,
        report.doorbells_per_op,
        report.mean_batch_size,
        report.p50_us,
        report.p99_us,
        report.hits,
        report.misses,
        report.evictions,
        report.hinted_hit_share,
        report.hinted_set_share,
        report.spec_wasted_share,
        report.reads_per_get,
    )
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
    let mut value = vec![0u8; spec.value_size as usize];
    for key in 0..spec.record_count {
        value.fill(key as u8);
        client.set(&key.to_le_bytes(), &value);
    }
    // Trace only the measured window: drop the load phase's spans.
    client.dm().clear_flight_recorder();
    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value_buf) {
            value.fill(request.key as u8);
            client.set(&key, &value);
        }
    }
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
    let mut requests: u64 = 200_000;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a number");
            }
            "--trace" => {
                trace_path = Some(args.next().expect("--trace needs a file path"));
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let spec = YcsbSpec {
        record_count: 10_000,
        request_count: requests,
        ..YcsbSpec::default()
    }
    .with_seed(42);
    // Capacity below the record count: the get-heavy phase mixes hits,
    // misses with cache-aside fills, and eviction pressure.
    let capacity = spec.record_count * 7 / 10;

    eprintln!(
        "ops_bench: YCSB-C, {requests} requests, {} records",
        spec.record_count
    );
    let pipelined = run_recorded(&spec, capacity, 0, 1).0;
    eprintln!(
        "  pipelined: {:>12.0} ops/s  {:.2} verbs/op  {:.2} µs p50  {:.2} µs p99",
        pipelined.ops_per_sec, pipelined.verbs_per_op, pipelined.p50_us, pipelined.p99_us
    );

    // Armed flight recorder: recording reads the simulated clock but never
    // advances it, so the armed row must stay within 10% of the disarmed
    // ops/s (in practice: identical).
    let (armed, armed_obs, armed_breakdown) = run_recorded(&spec, capacity, 1 << 16, 1);
    let armed_spans = armed_obs.spans_recorded;
    let armed_overhead = (pipelined.ops_per_sec - armed.ops_per_sec) / pipelined.ops_per_sec;
    eprintln!(
        "  armed:     {:>12.0} ops/s  ({} spans recorded, {:.2}% overhead)",
        armed.ops_per_sec,
        armed_spans,
        armed_overhead * 100.0
    );
    assert!(armed_spans > 0, "armed recorder must record spans");
    assert!(
        armed.ops_per_sec >= pipelined.ops_per_sec * 0.9,
        "armed flight recorder costs more than 10% simulated ops/s: \
         {:.0} armed vs {:.0} disarmed",
        armed.ops_per_sec,
        pipelined.ops_per_sec
    );
    assert_eq!(
        (armed.hits, armed.misses, armed.evictions),
        (pipelined.hits, pipelined.misses, pipelined.evictions),
        "arming the recorder must not change cache behaviour"
    );

    // Sampled arming (1-in-16): the production "always-on" mode.  The
    // sampling draw is a pure hash off the simulated-clock path, so the row
    // must show **zero** simulated overhead — ops/s exactly equal to the
    // disarmed pipelined row — with identical cache behaviour.
    let (sampled, sampled_obs, _) = run_recorded(&spec, capacity, 1 << 16, 16);
    eprintln!(
        "  sampled:   {:>12.0} ops/s  (1-in-16: {} ops sampled, {} skipped, {} spans)",
        sampled.ops_per_sec,
        sampled_obs.ops_sampled,
        sampled_obs.ops_skipped,
        sampled_obs.spans_recorded
    );
    assert_eq!(
        sampled.ops_per_sec, pipelined.ops_per_sec,
        "sampled arming must cost 0% simulated ops/s (the draw never touches the clock)"
    );
    assert_eq!(
        (sampled.hits, sampled.misses, sampled.evictions),
        (pipelined.hits, pipelined.misses, pipelined.evictions),
        "sampled arming must not change cache behaviour"
    );
    assert!(
        sampled_obs.ops_sampled > 0 && sampled_obs.ops_skipped > 0,
        "1-in-16 sampling must both keep and skip ops: {sampled_obs:?}"
    );
    assert!(
        sampled_obs.spans_recorded < armed_spans,
        "sampling must record fewer spans than full arming: {} vs {armed_spans}",
        sampled_obs.spans_recorded
    );

    // Critical-path attribution of the armed run: where op time goes once
    // overlap is serialized.  Exclusive charging means the
    // per-phase shares can never sum past 100% of elapsed op time.
    let attribution_table = armed_breakdown.expect("armed run must produce a phase breakdown");
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

    if let Some(path) = &trace_path {
        write_trace(path);
    }

    // Multi-memory-node striping sweep under a message-bound RNIC budget.
    let sweep_spec = YcsbSpec {
        record_count: spec.record_count,
        request_count: (requests / 4).max(20_000),
        ..YcsbSpec::default()
    }
    .with_seed(42);
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
        record_count: spec.record_count,
        request_count: (requests / 8).max(10_000),
        ..YcsbSpec::default()
    }
    .with_seed(42);
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

    // Truly concurrent clients: aggregate throughput and tail latency for
    // 1/2/4/8 OS threads sharing one cache, with the pool's contention
    // counters (CAS retries, lock traffic, backoff) per point.
    let conc_spec = YcsbSpec {
        record_count: spec.record_count,
        request_count: (requests / 4).max(20_000),
        ..YcsbSpec::default()
    }
    .with_seed(42);
    eprintln!(
        "ops_bench: concurrency, {} total requests per point",
        conc_spec.request_count
    );
    let mut concurrency = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let point = run_concurrency_point(threads, &conc_spec, capacity);
        eprintln!(
            "  {:>2} thr: {:>12.0} ops/s  {:.2} µs p50  {:.2} µs p99  {:>6} cas-retries  {:>6} lock-waits",
            point.threads,
            point.ops_per_sec,
            point.p50_us,
            point.p99_us,
            point.cas_retries,
            point.lock_wait_retries,
        );
        concurrency.push(point);
    }

    // Degraded mode: the same 4-thread workload under armed verb-fault
    // injection at 0 / 0.1% / 1%.  The 0-ppm row prices the injection
    // plumbing itself and must stay within noise of the fault-free
    // 4-thread concurrency point above; the faulted rows must actually
    // inject (and retry) faults without losing operations.
    eprintln!(
        "ops_bench: degraded mode, {} total requests per point",
        conc_spec.request_count
    );
    let mut degraded = Vec::new();
    for fault_ppm in [0u32, 1_000, 10_000] {
        let point = run_degraded_point(fault_ppm, &conc_spec, capacity);
        eprintln!(
            "  {:>5} ppm: {:>12.0} ops/s  {:.2} µs p50  {:.2} µs p99  {:>6} faults  {:>6} retries",
            point.fault_ppm,
            point.ops_per_sec,
            point.p50_us,
            point.p99_us,
            point.verb_failures + point.verb_timeouts,
            point.verb_retries,
        );
        degraded.push(point);
    }
    let conc4 = concurrency
        .iter()
        .find(|p| p.threads == 4)
        .expect("4-thread point");
    let fault_free = &degraded[0];
    assert_eq!(fault_free.verb_failures + fault_free.verb_timeouts, 0);
    let drift = (fault_free.ops_per_sec - conc4.ops_per_sec).abs() / conc4.ops_per_sec;
    assert!(
        drift < 0.05,
        "armed-but-zero fault injection must be free: degraded 0-ppm row {:.0} ops/s \
         vs fault-free 4-thread point {:.0} ops/s ({:.2}% drift)",
        fault_free.ops_per_sec,
        conc4.ops_per_sec,
        drift * 100.0,
    );
    for point in &degraded[1..] {
        assert!(
            point.verb_failures > 0 && point.verb_retries > 0,
            "{} ppm row injected no faults",
            point.fault_ppm
        );
        // A faulted Get degrades to a miss and triggers an extra
        // cache-aside fill, so op totals drift slightly upward with the
        // rate — but every request must complete (no wedged clients).
        assert!(
            point.ops >= conc_spec.request_count,
            "{} ppm row wedged: {} ops for {} requests",
            point.fault_ppm,
            point.ops,
            conc_spec.request_count
        );
    }

    // Compute-side local tier: the same seeded read-only trace replayed
    // remote-only vs tier-enabled across three Zipf skews.  Gated at
    // θ=0.99 and θ=0.9 on the ratio of network messages per op, at θ=0.99
    // on no fewer simulated ops/s, everywhere on byte-identical values
    // (checked via the per-run FNV checksum).
    let tier_spec_for = |theta: f64| {
        YcsbSpec {
            record_count: spec.record_count,
            request_count: (requests / 4).max(20_000),
            theta,
            ..YcsbSpec::default()
        }
        .with_seed(42)
    };
    eprintln!(
        "ops_bench: local tier, {} requests per point, {} entries, {} ns lease floor",
        tier_spec_for(0.99).request_count,
        TIER_CAPACITY,
        TIER_LEASE_NS
    );
    let mut tier_points = Vec::new();
    for theta in [0.9f64, 0.99, 1.2] {
        let tier_spec = tier_spec_for(theta);
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
        tier_points.push(point);
    }
    let tier_point_at = |theta: f64| {
        tier_points
            .iter()
            .find(|p| (p.theta - theta).abs() < 1e-9)
            .expect("gated tier point")
    };
    let tier_hot = tier_point_at(0.99);
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
        tier_hot.speedup >= 1.0,
        "local tier must not fall below the remote-only path's simulated ops/s at θ=0.99 \
         (one-round-trip remote hits leave it little latency to save), measured {:.3}x",
        tier_hot.speedup
    );

    let describe = git_describe();
    if describe.contains('+') {
        eprintln!(
            "ops_bench: uncommitted tree — BENCH_ops.json is stamped \"{describe}\" \
             (commit + hash of `git diff HEAD`)"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"ops\",\n",
            "  \"schema_version\": 4,\n",
            "  \"git_describe\": \"{}\",\n",
            "  \"config_fingerprint\": \"{:016x}\",\n",
            "  \"workload\": \"ycsb-c\",\n",
            "  \"requests\": {},\n",
            "  \"records\": {},\n",
            "  \"capacity_objects\": {},\n",
            "  \"modes\": {{\n",
            "    \"pipelined\": {},\n",
            "    \"armed_recorder\": {},\n",
            "    \"armed_sampled\": {}\n",
            "  }},\n",
            "  \"armed_recorder_spans\": {},\n",
            "  \"armed_recorder_overhead_pct\": {:.4},\n",
            "  \"armed_sampled_one_in\": 16,\n",
            "  \"armed_sampled_spans\": {},\n",
            "  \"armed_sampled_ops_sampled\": {},\n",
            "  \"armed_sampled_ops_skipped\": {},\n",
            "  \"phase_attribution\": {{\n",
            "    \"ops\": {},\n",
            "    \"op_p50_us\": {:.3},\n",
            "    \"op_p99_us\": {:.3},\n",
            "    \"critical_share_total_pct\": {:.2},\n",
            "    \"overlap_saved_us\": {:.3},\n",
            "    \"phases\": [\n      {}\n    ]\n",
            "  }},\n",
            "  \"mn_sweep_message_rate\": {},\n",
            "  \"mn_sweep\": [\n    {}\n  ],\n",
            "  \"concurrency\": [\n    {}\n  ],\n",
            "  \"degraded\": [\n    {}\n  ],\n",
            "  \"local_tier\": {{\n",
            "    \"tier_capacity\": {},\n",
            "    \"tier_lease_ns\": {},\n",
            "    \"records\": {},\n",
            "    \"requests\": {},\n",
            "    \"points\": [\n      {}\n    ]\n",
            "  }},\n",
            "  \"resize_window\": {}\n",
            "}}\n"
        ),
        describe,
        config_fingerprint(&spec, capacity),
        requests,
        spec.record_count,
        capacity,
        mode_json(&pipelined),
        mode_json(&armed),
        mode_json(&sampled),
        armed_spans,
        armed_overhead * 100.0,
        sampled_obs.spans_recorded,
        sampled_obs.ops_sampled,
        sampled_obs.ops_skipped,
        attribution_table.ops,
        attribution_table.op_p50_us,
        attribution_table.op_p99_us,
        attribution_table.critical_share_total_pct,
        attribution_table.overlap_saved_us,
        attribution_table
            .rows
            .iter()
            .map(phase_row_json)
            .collect::<Vec<_>>()
            .join(",\n      "),
        SWEEP_MESSAGE_RATE,
        sweep
            .iter()
            .map(sweep_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        concurrency
            .iter()
            .map(concurrency_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        degraded
            .iter()
            .map(degraded_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        TIER_CAPACITY,
        TIER_LEASE_NS,
        tier_spec_for(0.99).record_count,
        tier_spec_for(0.99).request_count,
        tier_points
            .iter()
            .map(tier_point_json)
            .collect::<Vec<_>>()
            .join(",\n      "),
        resize_json(&resize),
    );
    std::fs::write("BENCH_ops.json", &json).expect("write BENCH_ops.json");
    println!("{json}");

    // Acceptance gates.
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
    // Concurrency gates: (a) aggregate simulated ops/s must be monotone
    // non-decreasing from 1 to 4 client threads — more clients on one
    // shared cache must scale until a shared resource saturates; (b) the
    // contention accounting identity holds on every point (each lock
    // acquire attempt either succeeded or was booked as a wait retry).
    for pair in concurrency[..3].windows(2) {
        assert!(
            pair[1].ops_per_sec >= pair[0].ops_per_sec,
            "aggregate ops/s must not drop {} -> {} threads: {:.0} vs {:.0}",
            pair[0].threads,
            pair[1].threads,
            pair[0].ops_per_sec,
            pair[1].ops_per_sec
        );
    }
    for point in &concurrency {
        assert_eq!(
            point.lock_acquire_attempts,
            point.lock_acquisitions + point.lock_wait_retries,
            "{} threads: contention accounting identity violated",
            point.threads
        );
    }
}
