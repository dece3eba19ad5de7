//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ditto-bench --bin figures -- all
//! cargo run --release -p ditto-bench --bin figures -- fig14 fig16 tab3
//! cargo run --release -p ditto-bench --bin figures -- --scale 0.1 fig17
//! ```
//!
//! The `--scale` flag multiplies workload sizes (default 0.03); absolute
//! numbers are not expected to match the paper's testbed, but the relative
//! ordering and crossover points are (see *Running it* in the README).

use ditto_algorithms::registry;
use ditto_baselines::{RedisLikeCluster, ScaleEvent};
use ditto_bench::{load_phase, measured_phase, print_row, run_trace, SystemKind, SystemUnderTest};
use ditto_core::sim::{simulate_hit_rate, SimConfig};
use ditto_core::{DittoCache, DittoClient, DittoConfig};
use ditto_dm::{run_clients, DmConfig};
use ditto_workloads::corpus::{self, CorpusScale};
use ditto_workloads::mixer::{interleave_clients, mix_applications};
use ditto_workloads::traces::{lfu_friendly, lru_friendly, TraceSpec};
use ditto_workloads::{changing_workload, Replay, ReplayOptions, YcsbSpec, YcsbWorkload};

struct Opts {
    scale: f64,
    figures: Vec<String>,
}

fn parse_args() -> Opts {
    let mut scale = 0.03;
    let mut figures = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Opts { scale, figures }
}

fn main() {
    let opts = parse_args();
    let all = [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "corpus33", "tab3",
    ];
    let selected: Vec<&str> = if opts.figures.iter().any(|f| f == "all") {
        all.to_vec()
    } else {
        opts.figures.iter().map(String::as_str).collect()
    };
    for figure in selected {
        println!();
        println!("================ {figure} ================");
        match figure {
            "fig1" => fig1(),
            "fig2" => fig2(opts.scale),
            "fig3" => fig3(opts.scale),
            "fig4" => fig4(opts.scale),
            "fig5" => fig5(opts.scale),
            "fig13" => fig13(opts.scale),
            "fig14" => fig14(opts.scale),
            "fig15" => fig15(opts.scale),
            "fig16" => {
                fig16(opts.scale, true);
                fig16(opts.scale, false);
            }
            "fig17" => fig17(opts.scale),
            "fig18" => fig18(opts.scale),
            "corpus33" => corpus33(opts.scale),
            "fig19" => fig19(opts.scale),
            "fig20" => fig20(opts.scale),
            "fig21" => fig21(opts.scale),
            "fig22" => fig22(opts.scale),
            "fig23" => fig23(opts.scale),
            "fig24" => fig24(opts.scale),
            "fig25" => fig25(opts.scale),
            "tab3" => tab3(),
            other => println!("unknown figure id: {other}"),
        }
    }
}

fn ycsb_spec(scale: f64) -> YcsbSpec {
    YcsbSpec {
        record_count: ((200_000.0 * scale) as u64).max(5_000),
        request_count: ((400_000.0 * scale) as u64).max(10_000),
        ..YcsbSpec::default()
    }
}

fn corpus_scale(scale: f64) -> CorpusScale {
    CorpusScale(scale)
}

/// Figure 1: the Redis-like cluster's throughput/latency while scaling
/// 32 → 64 → 32 nodes (migration delays every adjustment).
fn fig1() {
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
    println!("Redis-like cluster, YCSB-C, scale 32->64->32 nodes");
    println!(
        "{:>8} {:>7} {:>10} {:>10} {:>10}",
        "t(s)", "nodes", "migrating", "Mops", "p99(us)"
    );
    for p in cluster.scale_timeline(32, &events, 1_500.0, 60.0) {
        println!(
            "{:>8.0} {:>7} {:>10} {:>10.3} {:>10.0}",
            p.seconds, p.serving_nodes, p.migrating, p.throughput_mops, p.p99_us
        );
    }
    println!(
        "migration 32->64 takes {:.1} min (paper: 5.3 min); reclamation after 64->32 takes {:.1} min (paper: 5.6 min)",
        cluster.migration_seconds(32, 64) / 60.0,
        cluster.migration_seconds(64, 32) / 60.0
    );
}

/// Figure 2: the cost of maintaining caching data structures on DM.
fn fig2(scale: f64) {
    let spec = ycsb_spec(scale);
    let keys = spec.record_count;
    let per_client = (spec.request_count / 8).max(2_000) as usize;
    let systems = [SystemKind::Kvc, SystemKind::ShardLru, SystemKind::Kvs];

    println!("(a) single-client performance, read-only YCSB-C");
    for kind in systems {
        let sut = SystemUnderTest::build(kind, keys * 2, DmConfig::default());
        load_phase(&sut, 4, &spec.load_requests());
        let requests = spec.run_requests_seeded(YcsbWorkload::C, 1);
        let run = measured_phase(&sut, kind.name(), 1, ReplayOptions::default(), &|_| {
            requests[..per_client.min(requests.len())].to_vec()
        });
        print_row(
            kind.name(),
            &[
                ("Mops", run.report.throughput_mops),
                ("p50_us", run.report.p50_latency_us),
                ("p99_us", run.report.p99_latency_us),
                ("msgs/op", run.report.messages_per_op),
            ],
        );
    }

    println!("(b) multi-client throughput (Mops)");
    for kind in systems {
        let sut = SystemUnderTest::build(kind, keys * 2, DmConfig::default());
        load_phase(&sut, 8, &spec.load_requests());
        let mut values = Vec::new();
        for clients in [1usize, 4, 8, 16, 32, 64] {
            let run = measured_phase(&sut, kind.name(), clients, ReplayOptions::default(), &|i| {
                let requests = spec.run_requests_seeded(YcsbWorkload::C, 100 + i as u64);
                requests[..(per_client / clients.max(1)).max(500).min(requests.len())].to_vec()
            });
            values.push((clients, run.report.throughput_mops));
        }
        print!("{:<12}", kind.name());
        for (clients, mops) in values {
            print!(" {clients}cl={mops:.3}");
        }
        println!();
    }
}

/// Figure 3: hit rates of LRU/LFU as the client split between an
/// LRU-friendly and an LFU-friendly application changes.
fn fig3(scale: f64) {
    let spec = TraceSpec::new(
        (40_000.0 * scale.sqrt() * 10.0) as u64,
        (600_000.0 * scale) as u64,
    )
    .with_seed(3);
    let lru_app = lru_friendly(&spec);
    let lfu_app = lfu_friendly(&TraceSpec { seed: 33, ..spec });
    let capacity = (spec.num_keys / 8).max(200) as usize;
    println!("hit rate vs. fraction of clients running the LRU-friendly application");
    println!("{:>12} {:>10} {:>10}", "lru-clients", "LRU", "LFU");
    for lru_clients in [0usize, 4, 8, 12, 16] {
        let mixed = mix_applications(
            &[
                (lru_app.clone(), lru_clients),
                (lfu_app.clone(), 16 - lru_clients),
            ],
            7,
        );
        let lru = simulate_hit_rate(&mixed, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&mixed, SimConfig::single(capacity, "lfu")).unwrap();
        println!(
            "{:>12} {:>10.4} {:>10.4}",
            format!("{lru_clients}/16"),
            lru,
            lfu
        );
    }
}

/// Figure 4: LRU vs LFU on the same workload across cache sizes.
fn fig4(scale: f64) {
    let trace = corpus::webmail(corpus_scale(scale));
    println!(
        "workload: {} ({} requests, footprint {})",
        trace.name,
        trace.len(),
        trace.footprint
    );
    println!("{:>14} {:>10} {:>10}", "cache(%fp)", "LRU", "LFU");
    for pct in [1.0, 2.0, 5.0, 10.0, 20.0, 40.0] {
        let capacity = ((trace.footprint as f64) * pct / 100.0).max(16.0) as usize;
        let lru = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lfu")).unwrap();
        println!("{:>14} {:>10.4} {:>10.4}", format!("{pct}%"), lru, lfu);
    }
}

/// Figure 5: effect of concurrent clients on hit rates across the corpus.
fn fig5(scale: f64) {
    let corpus = corpus::corpus_74(corpus_scale(scale));
    let client_counts = [1usize, 8, 64];
    let mut changes_lru = Vec::new();
    let mut changes_lfu = Vec::new();
    let mut best_changed = 0usize;
    for trace in &corpus {
        let capacity = (trace.footprint / 10).max(64) as usize;
        let mut rates_lru = Vec::new();
        let mut rates_lfu = Vec::new();
        for &clients in &client_counts {
            let reordered = interleave_clients(&trace.requests, clients, 5);
            rates_lru
                .push(simulate_hit_rate(&reordered, SimConfig::single(capacity, "lru")).unwrap());
            rates_lfu
                .push(simulate_hit_rate(&reordered, SimConfig::single(capacity, "lfu")).unwrap());
        }
        let change = |rates: &[f64]| {
            let max = rates.iter().cloned().fold(f64::MIN, f64::max);
            let min = rates.iter().cloned().fold(f64::MAX, f64::min);
            if max > 0.0 {
                (max - min) / max
            } else {
                0.0
            }
        };
        changes_lru.push(change(&rates_lru));
        changes_lfu.push(change(&rates_lfu));
        let best_at = |i: usize| rates_lru[i] > rates_lfu[i];
        if best_at(0) != best_at(client_counts.len() - 1) {
            best_changed += 1;
        }
    }
    changes_lru.sort_by(f64::total_cmp);
    changes_lfu.sort_by(f64::total_cmp);
    println!("(a) CDF of relative hit-rate change when varying clients {client_counts:?}");
    println!("{:>12} {:>10} {:>10}", "percentile", "LRU", "LFU");
    for pct in [10, 25, 50, 75, 90] {
        let idx = (pct * changes_lru.len() / 100).min(changes_lru.len() - 1);
        println!(
            "{:>12} {:>10.4} {:>10.4}",
            format!("p{pct}"),
            changes_lru[idx],
            changes_lfu[idx]
        );
    }
    println!(
        "best algorithm changes with client count on {} of {} workloads",
        best_changed,
        corpus.len()
    );
    println!("(b) example trace: hit rate vs clients");
    let example = &corpus[1];
    let capacity = (example.footprint / 10).max(64) as usize;
    println!("{:>10} {:>10} {:>10}", "clients", "LRU", "LFU");
    for clients in [1usize, 4, 16, 64, 256] {
        let reordered = interleave_clients(&example.requests, clients, 5);
        let lru = simulate_hit_rate(&reordered, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&reordered, SimConfig::single(capacity, "lfu")).unwrap();
        println!("{clients:>10} {lru:>10.4} {lfu:>10.4}");
    }
}

/// Figure 13: Ditto's throughput while compute and memory are adjusted.
fn fig13(scale: f64) {
    let spec = ycsb_spec(scale);
    let capacity = spec.record_count;
    let sut = SystemUnderTest::build(SystemKind::Ditto, capacity, DmConfig::default());
    load_phase(&sut, 8, &spec.load_requests());
    println!("phase-by-phase steady state (resource adjustments take effect immediately)");
    println!(
        "{:>26} {:>10} {:>10} {:>10}",
        "phase", "Mops", "p50(us)", "p99(us)"
    );
    let phases = [
        ("8 client cores", 8usize),
        ("16 client cores (+8)", 16),
        ("8 client cores (-8)", 8),
    ];
    for (name, clients) in phases {
        let run = measured_phase(&sut, "Ditto", clients, ReplayOptions::default(), &|i| {
            let requests = spec.run_requests_seeded(YcsbWorkload::C, 7 + i as u64);
            requests[..(4_000).min(requests.len())].to_vec()
        });
        println!(
            "{:>26} {:>10.3} {:>10.1} {:>10.1}",
            name, run.report.throughput_mops, run.report.p50_latency_us, run.report.p99_latency_us
        );
    }
    println!(
        "(memory expansion needs no migration: cached data stays in place, hit rate only grows)"
    );
}

/// Figure 14: YCSB throughput and p99 latency vs number of clients.
fn fig14(scale: f64) {
    let spec = ycsb_spec(scale);
    let capacity = spec.record_count * 2;
    let client_counts = [1usize, 4, 8, 16, 32];
    for workload in YcsbWorkload::all() {
        println!("--- {} ---", workload.name());
        for kind in [SystemKind::ShardLru, SystemKind::CmLru, SystemKind::Ditto] {
            let sut = SystemUnderTest::build(kind, capacity, DmConfig::default());
            load_phase(&sut, 8, &spec.load_requests());
            print!("{:<12}", kind.name());
            for &clients in &client_counts {
                let run =
                    measured_phase(&sut, kind.name(), clients, ReplayOptions::default(), &|i| {
                        let requests = spec.run_requests_seeded(workload, 31 + i as u64);
                        requests[..(2_000).min(requests.len())].to_vec()
                    });
                print!(
                    " {}cl={:.3}Mops/{:.0}us",
                    clients, run.report.throughput_mops, run.report.p99_latency_us
                );
            }
            println!();
        }
    }
}

/// Figure 15: throughput vs number of memory-node CPU cores.
fn fig15(scale: f64) {
    let spec = ycsb_spec(scale);
    let capacity = spec.record_count * 2;
    let clients = 16usize;
    let redis = RedisLikeCluster::new();
    for workload in [YcsbWorkload::A, YcsbWorkload::C] {
        println!("--- {} ({} clients) ---", workload.name(), clients);
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "MN cores", "Ditto", "CM-LRU", "Redis(model)"
        );
        for cores in [1u32, 2, 4, 8, 16, 32] {
            let dm = DmConfig::default().with_mn_cores(cores);
            let mut row = Vec::new();
            for kind in [SystemKind::Ditto, SystemKind::CmLru] {
                let sut = SystemUnderTest::build(kind, capacity, dm.clone());
                load_phase(&sut, 8, &spec.load_requests());
                let run =
                    measured_phase(&sut, kind.name(), clients, ReplayOptions::default(), &|i| {
                        let requests = spec.run_requests_seeded(workload, 77 + i as u64);
                        requests[..(2_000).min(requests.len())].to_vec()
                    });
                row.push(run.report.throughput_mops);
            }
            // The Redis model serves each shard with one core.
            let redis_mops = redis
                .steady_throughput_mops(cores)
                .min(cores as f64 * RedisLikeCluster::PER_CORE_OPS / 1e6);
            println!(
                "{:>10} {:>12.3} {:>12.3} {:>12.3}",
                cores, row[0], row[1], redis_mops
            );
        }
    }
}

/// Figure 16: penalised throughput and hit rate on the five real-world
/// workload stand-ins.
fn fig16(scale: f64, penalized: bool) {
    let workloads = corpus::figure16_workloads(corpus_scale(scale));
    let clients = 8usize;
    let systems = [
        SystemKind::CmLru,
        SystemKind::CmLfu,
        SystemKind::DittoLru,
        SystemKind::DittoLfu,
        SystemKind::Ditto,
    ];
    let opts = if penalized {
        ReplayOptions::penalized()
    } else {
        ReplayOptions::default()
    };
    println!(
        "{} on 5 real-world workload stand-ins (cache = 30% of footprint, {} clients)",
        if penalized {
            "penalised throughput (Mops)"
        } else {
            "hit rate"
        },
        clients
    );
    print!("{:<12}", "system");
    for w in &workloads {
        print!(" {:>18}", w.name);
    }
    println!();
    for kind in systems {
        print!("{:<12}", kind.name());
        for w in &workloads {
            let capacity = (w.footprint * 3 / 10).max(128);
            let run = run_trace(kind, capacity, clients, &w.requests, opts);
            let value = if penalized {
                run.report.throughput_mops
            } else {
                run.hit_rate()
            };
            print!(" {value:>18.4}");
        }
        println!();
    }
}

/// RNIC budget for the elasticity figures: low enough that a single memory
/// node is message-bound at the figure's client count.
const ELASTIC_MESSAGE_RATE: u64 = 100_000;

/// Loads every record into `cache` over `clients` clients (warm-up for the
/// elasticity windows).
fn elastic_load(cache: &DittoCache, spec: &YcsbSpec, clients: usize) {
    let open = |index| (replay_of(cache), spec.load_shard(index, clients));
    run_clients(cache.pool(), clients, open, Replay::issue, drop);
}

/// A fresh client of `cache`, replaying without a miss penalty.
fn replay_of(cache: &DittoCache) -> Replay<Box<DittoClient>> {
    Replay::new(Box::new(cache.client()), ReplayOptions::default())
}

/// One measured window of a YCSB-C replay (with cache-aside fills) over
/// `clients` clients; returns `(Mops, hottest-node message share)`.
fn elastic_window(
    cache: &DittoCache,
    spec: &YcsbSpec,
    workload: YcsbWorkload,
    clients: usize,
    seed: u64,
) -> (f64, f64, ditto_dm::stats::Bottleneck) {
    let open = |index| {
        let requests = spec.run_requests_seeded(workload, seed + index as u64);
        let per_client = (requests.len() / clients).min(4_000);
        (replay_of(cache), requests.into_iter().take(per_client))
    };
    let flush = |mut client: Replay<Box<DittoClient>>| client.backend.flush();
    let (report, _) = run_clients(cache.pool(), clients, open, Replay::issue, flush);
    let total: u64 = report.node_messages.iter().sum::<u64>().max(1);
    let max = report.node_messages.iter().copied().max().unwrap_or(0);
    (
        report.throughput_mops,
        max as f64 / total as f64,
        report.bottleneck,
    )
}

/// Figure 17: elasticity of the throughput ceiling — simulated ops/s vs
/// pool size under a message-bound RNIC budget.  With the hash table,
/// history shards and segments striped by the topology layer, the hottest
/// NIC carries `~1/n` of the messages and throughput scales with the pool.
fn fig17(scale: f64) {
    let spec = ycsb_spec(scale);
    let capacity = spec.record_count;
    let clients = 8usize;
    println!(
        "YCSB-C, {} clients, {} msg/s per NIC (message-bound at 1 MN)",
        clients, ELASTIC_MESSAGE_RATE
    );
    println!(
        "{:>8} {:>10} {:>16} {:>14}",
        "MNs", "Mops", "hottest-NIC(%)", "bottleneck"
    );
    for nodes in [1u16, 2, 4, 8] {
        let dm = DmConfig::default()
            .with_memory_nodes(nodes)
            .with_message_rate(ELASTIC_MESSAGE_RATE);
        let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm)
            .expect("cache construction");
        elastic_load(&cache, &spec, clients);
        let (mops, hottest, bottleneck) =
            elastic_window(&cache, &spec, YcsbWorkload::C, clients, 17);
        println!(
            "{nodes:>8} {mops:>10.4} {:>16.1} {:>14}",
            hottest * 100.0,
            format!("{bottleneck:?}")
        );
    }
}

/// Figure 18: online elasticity — throughput while memory nodes are added
/// to and drained from a serving pool, with the bucket-range migration
/// protocol live-rebalancing the *existing* cache between measurement
/// windows.  The timeline shows the migration dip and recovery, the
/// hottest-NIC share falling as bucket ranges spread onto joiners, and a
/// drained node's resident bytes falling to zero — at which point the node
/// is decommissioned outright with `remove_node`.  Both resizes move the
/// fewest stripes a balanced placement allows, and the run asserts it: the
/// two joiners take ⌊S/4⌋ stripes each, and the drain moves exactly node
/// 3's.
fn fig18(scale: f64) {
    let spec = ycsb_spec(scale);
    // Capacity below the footprint so the run carries eviction pressure:
    // relocating objects onto the shrunken active set must evict, which is
    // the throughput dip the timeline is after.
    let capacity = spec.record_count * 6 / 10;
    let clients = 8usize;
    let dm = DmConfig::default()
        .with_memory_nodes(2)
        .with_message_rate(ELASTIC_MESSAGE_RATE);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm)
        .expect("cache construction");
    elastic_load(&cache, &spec, clients);
    println!(
        "YCSB-A, {} clients, {} msg/s per NIC; pool resized online with bucket-range migration",
        clients, ELASTIC_MESSAGE_RATE
    );
    println!(
        "{:>30} {:>7} {:>10} {:>16} {:>14}",
        "phase", "epoch", "Mops", "hottest-NIC(%)", "mn3 res(KiB)"
    );
    let phase = |name: &str, seed: u64| {
        let (mops, hottest, _) = elastic_window(&cache, &spec, YcsbWorkload::A, clients, seed);
        let mn3 = if cache.pool().num_nodes() > 3 {
            cache.pool().resident_object_bytes(3) / 1024
        } else {
            0
        };
        println!(
            "{name:>30} {:>7} {mops:>10.4} {:>16.1} {mn3:>14}",
            cache.pool().resize_epoch(),
            hottest * 100.0
        );
    };
    phase("2 MNs (steady)", 180);
    cache.pool().add_node().expect("add node 2");
    cache.pool().add_node().expect("add node 3");
    phase("4 MNs (resize window)", 181);
    // Migrate the existing bucket ranges onto the joiners; lookup load
    // spreads immediately instead of waiting for churn.
    let grow = cache.pump_migration();
    phase("4 MNs (migrated)", 182);
    phase("4 MNs (steady)", 183);
    let dir = cache.migration().directory();
    let stripes = dir.num_stripes() as u64;
    let held_by_3 = (0..stripes).filter(|&s| dir.current_node(s) == 3).count() as u64;
    cache.pool().drain_node(3).expect("drain node 3");
    phase("3 MNs (node 3 draining)", 184);
    let shrink = cache.pump_migration();
    phase("3 MNs (node 3 empty)", 185);
    let residual = cache.pool().resident_object_bytes(3);
    println!(
        "grow: {} stripes / {} objects migrated; shrink: {} stripes / {} objects; node 3 residual {} B",
        grow.stripes_moved, grow.objects_relocated,
        shrink.stripes_moved, shrink.objects_relocated,
        residual
    );
    assert_eq!(residual, 0, "fig18 drain must empty node 3");
    assert_eq!(
        grow.stripes_moved,
        2 * (stripes / 4),
        "fig18 grow must move only the joiners' ⌊S/4⌋ stripes each"
    );
    assert_eq!(
        (held_by_3, shrink.stripes_moved),
        (stripes / 4, held_by_3),
        "fig18 drain must move exactly node 3's stripes"
    );
    cache
        .pool()
        .remove_node(3)
        .expect("drained-to-empty node must be removable");
    println!("(node 3 decommissioned: handle lookups now return DmError::NodeRemoved)");
}

/// Relative hit rates over the 33-workload corpus (box-plot data; the
/// adaptive-vs-best/worst comparison that used to be printed as fig18).
fn corpus33(scale: f64) {
    let corpus = corpus::corpus_33(corpus_scale(scale));
    let mut adaptive_rel = Vec::new();
    let mut best_rel = Vec::new();
    let mut worst_rel = Vec::new();
    for trace in &corpus {
        let capacity = (trace.footprint / 10).max(64) as usize;
        let baseline =
            simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "fifo")).unwrap();
        let lru = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lfu")).unwrap();
        let adaptive = simulate_hit_rate(&trace.requests, SimConfig::adaptive(capacity)).unwrap();
        let norm = |x: f64| if baseline > 0.0 { x / baseline } else { 1.0 };
        adaptive_rel.push(norm(adaptive));
        best_rel.push(norm(lru.max(lfu)));
        worst_rel.push(norm(lru.min(lfu)));
    }
    let quartiles = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
        (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
    };
    println!(
        "relative hit rate (normalised to FIFO eviction) over {} workloads",
        corpus.len()
    );
    println!(
        "{:>22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "series", "min", "q1", "median", "q3", "max"
    );
    for (name, values) in [
        ("max(Ditto-LRU,LFU)", best_rel),
        ("Ditto (adaptive)", adaptive_rel),
        ("min(Ditto-LRU,LFU)", worst_rel),
    ] {
        let (min, q1, med, q3, max) = quartiles(values);
        println!("{name:>22} {min:>8.3} {q1:>8.3} {med:>8.3} {q3:>8.3} {max:>8.3}");
    }
}

/// Figure 19: the phase-changing workload.
fn fig19(scale: f64) {
    let spec =
        TraceSpec::new((30_000.0 * scale * 33.0) as u64, (800_000.0 * scale) as u64).with_seed(19);
    let trace = changing_workload(&spec, 4);
    let footprint = ditto_workloads::traces::footprint(&trace);
    let capacity = (footprint * 3 / 10).max(128);
    let clients = 8;
    println!(
        "4-phase LRU/LFU-switching workload ({} requests, footprint {footprint}, cache {capacity})",
        trace.len()
    );
    println!(
        "{:<12} {:>16} {:>10}",
        "system", "penalised Mops", "hit rate"
    );
    for kind in [
        SystemKind::CmLru,
        SystemKind::CmLfu,
        SystemKind::DittoLru,
        SystemKind::DittoLfu,
        SystemKind::Ditto,
    ] {
        let run = run_trace(kind, capacity, clients, &trace, ReplayOptions::penalized());
        println!(
            "{:<12} {:>16.4} {:>10.4}",
            kind.name(),
            run.report.throughput_mops,
            run.hit_rate()
        );
    }
}

/// Figure 20: hit rate vs the proportion of clients assigned to the
/// LRU-friendly vs LFU-friendly application.
fn fig20(scale: f64) {
    let keys = (8_000.0 * (scale * 33.0).max(1.0)) as u64;
    let reqs = (500_000.0 * scale) as u64;
    let lru_app = lru_friendly(&TraceSpec::new(keys, reqs).with_seed(20));
    let lfu_app = lfu_friendly(&TraceSpec::new(keys, reqs).with_seed(21));
    let capacity = (keys / 5).max(200) as usize;
    println!("relative hit rate (normalised to Ditto-LRU) vs LRU-application client share");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "lru share", "Ditto-LRU", "Ditto-LFU", "Ditto"
    );
    for lru_clients in [0usize, 2, 4, 6, 8] {
        let mixed = mix_applications(
            &[
                (lru_app.clone(), lru_clients),
                (lfu_app.clone(), 8 - lru_clients),
            ],
            3,
        );
        let lru = simulate_hit_rate(&mixed, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&mixed, SimConfig::single(capacity, "lfu")).unwrap();
        let adaptive = simulate_hit_rate(&mixed, SimConfig::adaptive(capacity)).unwrap();
        let norm = lru.max(1e-9);
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3}",
            format!("{}/8", lru_clients),
            1.0,
            lfu / norm,
            adaptive / norm
        );
    }
}

/// Figure 21: hit rate while the number of concurrent clients grows.
fn fig21(scale: f64) {
    let trace = corpus::webmail(corpus_scale(scale));
    let capacity = (trace.footprint / 10).max(128) as usize;
    println!("webmail stand-in, hit rate vs concurrent clients (normalised to Ditto-LRU)");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "clients", "Ditto-LRU", "Ditto-LFU", "Ditto"
    );
    for clients in [1usize, 8, 32, 64, 128] {
        let reordered = interleave_clients(&trace.requests, clients, 9);
        let lru = simulate_hit_rate(&reordered, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&reordered, SimConfig::single(capacity, "lfu")).unwrap();
        let adaptive = simulate_hit_rate(&reordered, SimConfig::adaptive(capacity)).unwrap();
        let norm = lru.max(1e-9);
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3}",
            clients,
            1.0,
            lfu / norm,
            adaptive / norm
        );
    }
}

/// Figure 22: hit rate while the cache (memory) size changes.
fn fig22(scale: f64) {
    let trace = corpus::webmail(corpus_scale(scale));
    println!("webmail stand-in, hit rate vs cache size");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "cache(%fp)", "Ditto-LRU", "Ditto-LFU", "Ditto"
    );
    for pct in [5.0, 10.0, 20.0, 30.0, 50.0] {
        let capacity = ((trace.footprint as f64) * pct / 100.0).max(32.0) as usize;
        let lru = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lru")).unwrap();
        let lfu = simulate_hit_rate(&trace.requests, SimConfig::single(capacity, "lfu")).unwrap();
        let adaptive = simulate_hit_rate(&trace.requests, SimConfig::adaptive(capacity)).unwrap();
        println!(
            "{:>12} {lru:>12.4} {lfu:>12.4} {adaptive:>12.4}",
            format!("{pct}%")
        );
    }
}

/// Figure 23: throughput and hit rate of the 12 integrated algorithms.
fn fig23(scale: f64) {
    let trace = corpus::webmail(corpus_scale(scale));
    let capacity = (trace.footprint / 10).max(128);
    let clients = 4;
    println!(
        "webmail stand-in, {} requests, cache {capacity} objects",
        trace.len()
    );
    println!("{:<12} {:>10} {:>10}", "algorithm", "Mops", "hit rate");
    for alg in registry::all_algorithms() {
        let config = DittoConfig::single_algorithm(capacity, alg.name());
        let sut = SystemUnderTest::ditto_with_config(config, DmConfig::default());
        let run = measured_phase(&sut, alg.name(), clients, ReplayOptions::default(), &|i| {
            trace
                .requests
                .iter()
                .skip(i)
                .step_by(clients)
                .copied()
                .collect()
        });
        println!(
            "{:<12} {:>10.4} {:>10.4}",
            alg.name().to_uppercase(),
            run.report.throughput_mops,
            run.hit_rate()
        );
    }
}

/// Figure 24: contribution of each technique (ablation).
fn fig24(scale: f64) {
    let trace = corpus::webmail(corpus_scale(scale));
    let capacity = (trace.footprint / 10).max(128);
    let clients = 8;
    println!("webmail stand-in without miss penalty, {} clients", clients);
    println!("{:<34} {:>10} {:>10}", "configuration", "Mops", "msgs/op");
    type Ablation = (&'static str, Box<dyn Fn(&mut DittoConfig)>);
    let variants: Vec<Ablation> = vec![
        (
            "Ditto (all techniques)",
            Box::new(|_c: &mut DittoConfig| {}),
        ),
        (
            "- sample-friendly hash table",
            Box::new(|c: &mut DittoConfig| c.enable_sample_friendly_table = false),
        ),
        (
            "- lightweight history",
            Box::new(|c: &mut DittoConfig| {
                c.enable_sample_friendly_table = false;
                c.enable_lightweight_history = false;
            }),
        ),
        (
            "- lazy weight update",
            Box::new(|c: &mut DittoConfig| {
                c.enable_sample_friendly_table = false;
                c.enable_lightweight_history = false;
                c.weight_sync_batch = 1;
            }),
        ),
        (
            "- frequency-counter cache",
            Box::new(|c: &mut DittoConfig| {
                c.enable_sample_friendly_table = false;
                c.enable_lightweight_history = false;
                c.weight_sync_batch = 1;
                c.fc_cache_mb = 0.0;
            }),
        ),
    ];
    for (name, tweak) in variants {
        let mut config = DittoConfig::with_capacity(capacity);
        tweak(&mut config);
        let sut = SystemUnderTest::ditto_with_config(config, DmConfig::default());
        let run = measured_phase(&sut, name, clients, ReplayOptions::default(), &|i| {
            trace
                .requests
                .iter()
                .skip(i)
                .step_by(clients)
                .copied()
                .collect()
        });
        println!(
            "{:<34} {:>10.4} {:>10.2}",
            name, run.report.throughput_mops, run.report.messages_per_op
        );
    }
}

/// Figure 25: throughput and p99 latency vs frequency-counter cache size;
/// 0 MB is no FC cache, one FAA per access.
fn fig25(scale: f64) {
    let spec = ycsb_spec(scale);
    let clients = 16usize;
    println!("YCSB-C, {} clients", clients);
    println!("{:>12} {:>10} {:>10}", "FC size(MB)", "Mops", "p99(us)");
    for mb in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let config = DittoConfig {
            fc_cache_mb: mb,
            ..DittoConfig::with_capacity(spec.record_count * 2)
        };
        let sut = SystemUnderTest::ditto_with_config(config, DmConfig::default());
        load_phase(&sut, 8, &spec.load_requests());
        let run = measured_phase(&sut, "Ditto", clients, ReplayOptions::default(), &|i| {
            let requests = spec.run_requests_seeded(YcsbWorkload::C, 55 + i as u64);
            requests[..(3_000).min(requests.len())].to_vec()
        });
        println!(
            "{:>12} {:>10.4} {:>10.1}",
            mb, run.report.throughput_mops, run.report.p99_latency_us
        );
    }
}

/// Table 3: lines of code and access information per algorithm.
fn tab3() {
    println!("{:<12} {:>5}  access information used", "algorithm", "LOC");
    let table = registry::table3();
    for row in &table {
        println!("{:<12} {:>5}  {:?}", row.name, row.loc, row.info);
    }
    let avg: f64 = table.iter().map(|r| r.loc as f64).sum::<f64>() / table.len() as f64;
    println!("average LOC: {avg:.1} (paper: 12.5)");
}
