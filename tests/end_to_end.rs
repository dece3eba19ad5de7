//! Cross-crate integration tests: Ditto and the baselines driven by the
//! workload generators over the DM substrate.

use ditto::baselines::{CliqueMapCache, CliqueMapConfig, LockedListCache, LockedListConfig};
use ditto::cache::{DittoCache, DittoClient, DittoConfig};
use ditto::dm::stats::Bottleneck;
use ditto::dm::{run_clients, DmConfig, RunReport};
use ditto::workloads::traces::{lru_friendly, TraceSpec};
use ditto::workloads::{
    replay, Replay, ReplayOptions, ReplayStats, Request, YcsbSpec, YcsbWorkload,
};

/// Steps `clients` Ditto clients round-robin, each replaying
/// `requests(index)` and flushing at the end; returns each client's stats.
fn drive<I: IntoIterator<Item = Request>>(
    cache: &DittoCache,
    clients: usize,
    requests: impl Fn(usize) -> I,
) -> (RunReport, Vec<ReplayStats>) {
    let open = |index| {
        (
            Replay::new(Box::new(cache.client()), ReplayOptions::default()),
            requests(index),
        )
    };
    let finish = |mut client: Replay<Box<DittoClient>>| {
        client.backend.flush();
        client.stats
    };
    run_clients(cache.pool(), clients, open, Replay::issue, finish)
}

fn small_ycsb() -> YcsbSpec {
    YcsbSpec {
        record_count: 5_000,
        request_count: 20_000,
        ..YcsbSpec::default()
    }
}

#[test]
fn ditto_serves_ycsb_from_multiple_clients() {
    let spec = small_ycsb();
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(spec.record_count),
        DmConfig::default(),
    )
    .unwrap();

    // Load phase.
    drive(&cache, 4, |index| spec.load_shard(index, 4));
    cache.stats().reset();

    // Measured run phase.
    let (report, results) = drive(&cache, 4, |index| {
        let requests = spec.run_requests_seeded(YcsbWorkload::C, index as u64);
        let per_client = requests.len() / 4;
        requests.into_iter().take(per_client)
    });

    let total_requests: u64 = results.iter().map(|s| s.requests).sum();
    assert_eq!(total_requests, spec.request_count / 4 * 4);
    assert!(report.throughput_mops > 0.1, "throughput {report:?}");
    // No op is faster than one simulated round trip (a hinted remote hit).
    assert!(report.p50_latency_us >= 2.0 && report.p50_latency_us <= 60.0);
    // Every record fits in the cache, so the Zipfian run phase mostly hits.
    let snap = cache.stats().snapshot();
    assert!(snap.hit_rate() > 0.95, "hit rate {}", snap.hit_rate());
}

#[test]
fn ditto_needs_fewer_mn_cpu_resources_than_cliquemap() {
    // Same write-heavy workload on both systems; CliqueMap must burn
    // controller CPU for every Set while Ditto uses none.
    let requests: Vec<Request> = (0..3_000u64).map(Request::update).collect();

    let ditto =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(5_000), DmConfig::default())
            .unwrap();
    drive(&ditto, 2, |_| requests.iter().copied());
    let ditto_cpu: f64 = ditto
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|n| n.rpc_cpu_ns as f64)
        .sum();

    let cm_pool = ditto::dm::MemoryPool::new(DmConfig::default());
    let cm = CliqueMapCache::new(cm_pool, CliqueMapConfig::lru(5_000));
    let open = |_| {
        (
            Replay::new(Box::new(cm.client()), ReplayOptions::default()),
            requests.iter().copied(),
        )
    };
    run_clients(cm.pool(), 2, open, Replay::issue, drop);
    let cm_cpu: f64 = cm
        .pool()
        .stats()
        .node_snapshots()
        .iter()
        .map(|n| n.rpc_cpu_ns as f64)
        .sum();

    assert!(
        cm_cpu > ditto_cpu * 10.0,
        "CliqueMap should consume far more MN CPU: cm={cm_cpu} ditto={ditto_cpu}"
    );
}

#[test]
fn ditto_uses_fewer_messages_than_shard_lru() {
    let requests: Vec<Request> = (0..2_000u64).map(|i| Request::get(i % 500)).collect();

    let ditto =
        DittoCache::with_dedicated_pool(DittoConfig::with_capacity(2_000), DmConfig::default())
            .unwrap();
    let (ditto_report, _) = drive(&ditto, 2, |_| requests.iter().copied());

    let shard = LockedListCache::new(
        ditto::dm::MemoryPool::new(DmConfig::default()),
        LockedListConfig::shard_lru(2_000),
    );
    let open = |_| {
        let client = Replay::new(Box::new(shard.client()), ReplayOptions::default());
        (client, requests.iter().copied())
    };
    let (shard_report, _) = run_clients(shard.pool(), 2, open, Replay::issue, drop);

    assert!(
        shard_report.messages_per_op > ditto_report.messages_per_op,
        "lock-based LRU maintenance must cost extra messages: shard={} ditto={}",
        shard_report.messages_per_op,
        ditto_report.messages_per_op
    );
    assert!(ditto_report.throughput_mops > shard_report.throughput_mops);
}

#[test]
fn message_rate_is_the_bottleneck_with_many_ditto_clients() {
    let cache = DittoCache::with_dedicated_pool(
        DittoConfig::with_capacity(4_000),
        // Low message rate so even a modest run saturates the RNIC.
        DmConfig::default().with_message_rate(200_000),
    )
    .unwrap();
    let requests: Vec<Request> = (0..1_000u64).map(|i| Request::get(i % 1_000)).collect();
    let (report, _) = drive(&cache, 8, |_| requests.iter().copied());
    assert_eq!(report.bottleneck, Bottleneck::NicMessageRate);
}

#[test]
fn adaptive_ditto_tracks_the_better_expert_end_to_end() {
    // A strongly LFU-friendly trace on the full DM data path (a hot core
    // whose reuse distance exceeds the cache, plus a stream of one-off scan
    // keys): adaptive Ditto should land near Ditto-LFU and clearly above
    // Ditto-LRU.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let mut scan_key = 1_000_000u64;
    let trace: Vec<Request> = (0..60_000)
        .map(|_| {
            if rng.gen::<f64>() < 0.6 {
                Request::get(rng.gen_range(0..600))
            } else {
                scan_key += 1;
                Request::get(scan_key)
            }
        })
        .collect();
    let capacity = 600;

    // The scaled-down trace touches each hot key only ~60 times, so use a
    // small frequency-counter threshold; the paper's default of 10 assumes
    // per-key access counts in the hundreds.
    let hit_rate = |mut config: DittoConfig| {
        config.fc_threshold = 2;
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        let stats = replay(&mut client, trace.iter().copied(), ReplayOptions::default());
        client.flush();
        stats.hit_rate()
    };

    let lru = hit_rate(DittoConfig::single_algorithm(capacity, "lru"));
    let lfu = hit_rate(DittoConfig::single_algorithm(capacity, "lfu"));
    let adaptive = hit_rate(DittoConfig::with_capacity(capacity));

    assert!(
        lfu > lru + 0.02,
        "trace should be LFU-friendly: lfu={lfu} lru={lru}"
    );
    assert!(
        adaptive > lru,
        "adaptive ({adaptive}) should beat the losing expert ({lru})"
    );
}

#[test]
fn lru_friendly_traces_favour_recency_end_to_end() {
    let spec = TraceSpec::new(6_000, 60_000).with_seed(13);
    let trace = lru_friendly(&spec);
    let capacity = 600;

    let hit_rate = |config: DittoConfig| {
        let cache = DittoCache::with_dedicated_pool(config, DmConfig::default()).unwrap();
        let mut client = cache.client();
        let stats = replay(&mut client, trace.iter().copied(), ReplayOptions::default());
        client.flush();
        stats.hit_rate()
    };

    let lru = hit_rate(DittoConfig::single_algorithm(capacity, "lru"));
    let lfu = hit_rate(DittoConfig::single_algorithm(capacity, "lfu"));
    assert!(
        lru > lfu,
        "drifting working set should favour LRU: lru={lru} lfu={lfu}"
    );
}

#[test]
fn all_twelve_algorithms_run_on_the_dm_data_path() {
    for algorithm in [
        "lru",
        "lfu",
        "mru",
        "gds",
        "lirs",
        "fifo",
        "size",
        "gdsf",
        "lrfu",
        "lruk",
        "lfuda",
        "hyperbolic",
    ] {
        let cache = DittoCache::with_dedicated_pool(
            DittoConfig::single_algorithm(300, algorithm),
            DmConfig::default(),
        )
        .unwrap();
        let mut client = cache.client();
        for i in 0..800u64 {
            client.set(format!("{algorithm}-{i}").as_bytes(), &[0u8; 128]);
        }
        let mut hits = 0;
        for i in 700..800u64 {
            if client.get(format!("{algorithm}-{i}").as_bytes()).is_some() {
                hits += 1;
            }
        }
        let snap = cache.stats().snapshot();
        assert!(
            snap.evictions + snap.bucket_evictions > 0,
            "{algorithm}: expected evictions"
        );
        assert!(
            hits > 0 || algorithm == "mru",
            "{algorithm}: no recent key survived"
        );
    }
}
