//! Quickstart: deploy Ditto on a simulated disaggregated-memory pool, run a
//! small skewed workload from several clients and print the resulting
//! throughput, latency, adaptive-caching statistics and phase-level latency
//! attribution.
//!
//! Run with: `cargo run --release --example quickstart`

use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::obs::attribution;
use ditto::dm::{run_clients, DmConfig};
use ditto::workloads::{replay, Replay, ReplayOptions, Request, YcsbSpec, YcsbWorkload};

fn main() {
    // A cache holding 20 000 objects of ~256 B on a single memory node with a
    // weak (1-core) controller, exactly like the paper's testbed topology.
    // The flight recorder is armed in its production shape: always on, but
    // sampling 1 op in 8 (a deterministic hash of (client, op sequence), so
    // reruns sample the same ops).  Sampling costs nothing on the simulated
    // timeline and feeds the per-phase histograms on the exposition page.
    let config = DittoConfig::with_capacity(20_000);
    let dm = DmConfig::default().with_flight_recorder_sampled(1 << 15, 8);
    let cache = DittoCache::with_dedicated_pool(config, dm).expect("cache construction");

    // A scaled-down YCSB-B workload (95 % GET / 5 % UPDATE, Zipfian 0.99).
    let spec = YcsbSpec {
        record_count: 40_000,
        request_count: 60_000,
        ..YcsbSpec::default()
    };
    let num_clients = 8;

    // The driver steps every client round-robin on this thread, one request
    // each per round, so a run repeats exactly.  A client issues each request
    // through a `Replay` (a Get, and on a miss the fill) and flushes its
    // buffered frequency counters when its stream ends.
    let run = |requests: &dyn Fn(usize) -> Vec<Request>| {
        let open = |index| {
            (
                Replay::new(Box::new(cache.client()), ReplayOptions::default()),
                requests(index),
            )
        };
        let flush = |mut client: Replay<Box<DittoClient>>| client.backend.flush();
        run_clients(cache.pool(), num_clients, open, Replay::issue, flush).0
    };

    // Load phase: shard the records across clients (not measured).
    run(&|index| spec.load_shard(index, num_clients));
    cache.stats().reset();

    // Run phase: every client replays its own Zipfian request stream.
    let report = run(&|index| {
        let requests = spec.run_requests_seeded(YcsbWorkload::B, 1_000 + index as u64);
        let per_client = requests.len() / num_clients;
        requests[index * per_client..][..per_client].to_vec()
    });

    let cache_stats = cache.stats().snapshot();
    println!("== Ditto quickstart ==");
    println!("clients                : {num_clients}");
    println!(
        "throughput             : {:.2} Mops",
        report.throughput_mops
    );
    println!("median latency         : {:.1} us", report.p50_latency_us);
    println!("p99 latency            : {:.1} us", report.p99_latency_us);
    println!("RNIC messages per op   : {:.2}", report.messages_per_op);
    println!("bottleneck             : {:?}", report.bottleneck);
    println!(
        "hit rate               : {:.1} %",
        cache_stats.hit_rate() * 100.0
    );
    println!(
        "evictions              : {}",
        cache_stats.evictions + cache_stats.bucket_evictions
    );
    println!("regrets collected      : {}", cache_stats.regrets);
    println!("global expert weights  : {:?}", cache.global_weights());
    let obs = cache.pool().stats().obs();
    println!(
        "sampled ops            : {} kept / {} skipped (1-in-8)",
        obs.ops_sampled, obs.ops_skipped
    );

    // Phase-level attribution: replay a short stream on one more client and
    // serialize its sampled spans into a critical-path table.  Reading the
    // table: `critical%` is the share of op time each phase owns once
    // pipelined overlap is charged exclusively (CPU work outranks CQ waits,
    // which outrank wire flight — the shares sum to at most 100 %), and
    // `tail%` is the same share inside the ops at/above the p99, i.e. which
    // phase to blame for the tail.
    let mut tracer = cache.client();
    replay(
        &mut tracer,
        spec.run_requests_seeded(YcsbWorkload::B, 7)
            .into_iter()
            .take(4_000),
        ReplayOptions::default(),
    );
    tracer.flush();
    let table = attribution(&[(tracer.dm().client_id(), tracer.dm().flight_spans())]);
    println!("\n== phase attribution (sampled, one tracer client) ==");
    print!("{}", table.format());

    // The same run, as the unified Prometheus-style exposition: every pool
    // counter group plus the cache-level series on one scrape page — now
    // including the `ditto_phase_latency_seconds{phase=...}` summaries the
    // sampled recorder fed.
    println!("\n== metrics exposition ==");
    print!("{}", cache.text_exposition());
}
