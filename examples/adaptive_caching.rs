//! Adaptive caching under a changing workload (the Figure 19 scenario).
//!
//! The workload alternates between LRU-friendly and LFU-friendly phases.
//! A fixed algorithm wins in one phase and loses in the other; Ditto's
//! regret-minimisation scheme tracks the better expert in every phase.
//! Each regret is importance-weighted: its penalty is divided by the
//! probability that its victim was drawn, recorded when it was evicted, so
//! an expert's blame does not grow with how often it is drawn.
//!
//! Run with: `cargo run --release --example adaptive_caching`

use ditto::cache::sim::{SimCache, SimConfig};
use ditto::workloads::changing::{changing_workload, phase_boundaries};
use ditto::workloads::traces::TraceSpec;
use ditto::workloads::{replay, CacheBackend, ReplayOptions};

fn run(name: &str, config: SimConfig, phases: &[Vec<ditto::workloads::Request>]) {
    let mut cache = SimCache::new(config).expect("simulator");
    print!("{name:>14}");
    for phase in phases {
        let stats = replay(&mut cache, phase.iter().copied(), ReplayOptions::default());
        print!("  {:5.1}%", stats.hit_rate() * 100.0);
    }
    println!("   (final weights {:?})", trim(cache.weights()));
}

fn trim(weights: &[f64]) -> Vec<f64> {
    weights
        .iter()
        .map(|w| (w * 100.0).round() / 100.0)
        .collect()
}

fn main() {
    let spec = TraceSpec::new(30_000, 400_000).with_seed(19);
    let num_phases = 4;
    let trace = changing_workload(&spec, num_phases);
    let capacity = 3_000;

    // Split the trace back into its phases so per-phase hit rates are visible.
    let mut phases = Vec::new();
    let mut start = 0;
    for boundary in phase_boundaries(trace.len(), num_phases)
        .into_iter()
        .chain([trace.len()])
    {
        phases.push(trace[start..boundary].to_vec());
        start = boundary;
    }

    println!("phase-by-phase hit rates (phases alternate LRU- and LFU-friendly):");
    println!(
        "{:>14}  {:>6} {:>6} {:>6} {:>6}",
        "", "ph1", "ph2", "ph3", "ph4"
    );
    run("Ditto-LRU", SimConfig::single(capacity, "lru"), &phases);
    run("Ditto-LFU", SimConfig::single(capacity, "lfu"), &phases);
    run("Ditto (adaptive)", SimConfig::adaptive(capacity), &phases);

    // The same comparison over the whole trace in one number.
    for (name, config) in [
        ("Ditto-LRU", SimConfig::single(capacity, "lru")),
        ("Ditto-LFU", SimConfig::single(capacity, "lfu")),
        ("Ditto", SimConfig::adaptive(capacity)),
    ] {
        let mut cache = SimCache::new(config).expect("simulator");
        let stats = replay(&mut cache, trace.iter().copied(), ReplayOptions::default());
        println!(
            "overall {name:>16}: hit rate {:.1} %  (evictions {}, regrets {})",
            stats.hit_rate() * 100.0,
            cache.stats().evictions,
            cache.stats().regrets,
        );
        let _ = cache.backend_name();
    }
}
