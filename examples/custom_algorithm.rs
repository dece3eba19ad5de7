//! Integrating a custom caching algorithm with the priority/update
//! interface — the paper's Table 3 shows each algorithm needs only a handful
//! of lines.
//!
//! This example defines a cost-aware variant of LRU ("CL" — cost × recency)
//! in ~15 lines, registers it as an expert next to plain LRU and lets the
//! adaptive scheme pick between them on a skewed workload.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use ditto::algorithms::{AccessContext, CacheAlgorithm, Lru, Metadata};
use ditto::cache::sim::{SimCache, SimConfig};
use ditto::workloads::traces::{lfu_friendly, TraceSpec};
use ditto::workloads::{replay, ReplayOptions};
use std::sync::Arc;

/// A cost-aware recency algorithm: objects that are expensive to re-fetch are
/// kept longer, otherwise behaves like LRU.  The whole integration is the
/// `priority` function below — no caching data structure is needed.
#[derive(Debug, Default)]
struct CostAwareLru;

impl CacheAlgorithm for CostAwareLru {
    fn name(&self) -> &'static str {
        "cost-lru"
    }

    fn priority(&self, m: &Metadata, now: u64) -> f64 {
        // Lower = evicted first: recently used or costly objects score high.
        let idle = now.saturating_sub(m.last_ts) as f64;
        m.cost / (1.0 + idle)
    }

    fn update(&self, m: &mut Metadata, ctx: &AccessContext) {
        // Remember the most recent fetch cost estimate.
        m.cost = ctx.fetch_cost.max(m.cost);
    }

    fn info_used(&self) -> &'static [&'static str] {
        &["last_ts", "cost"]
    }

    fn rule_loc(&self) -> usize {
        15
    }
}

fn hit_rate(experts: Vec<Arc<dyn CacheAlgorithm>>, trace: &[ditto::workloads::Request]) -> f64 {
    // Two experts or more adapt; one runs alone.
    let config = SimConfig {
        experts: experts.iter().map(|e| e.name().to_string()).collect(),
        ..SimConfig::adaptive(2_000)
    };
    let mut cache = SimCache::with_experts(config, experts).expect("simulator");
    let stats = replay(&mut cache, trace.iter().copied(), ReplayOptions::default());
    stats.hit_rate()
}

fn main() {
    let spec = TraceSpec::new(20_000, 200_000).with_seed(5);
    let trace = lfu_friendly(&spec);

    let lru_only = hit_rate(vec![Arc::new(Lru)], &trace);
    let custom_only = hit_rate(vec![Arc::new(CostAwareLru)], &trace);
    let adaptive = hit_rate(vec![Arc::new(Lru), Arc::new(CostAwareLru)], &trace);

    println!("== custom caching algorithm via the priority/update interface ==");
    println!("LRU only            : {:.1} % hit rate", lru_only * 100.0);
    println!(
        "cost-aware LRU only : {:.1} % hit rate",
        custom_only * 100.0
    );
    println!("adaptive (both)     : {:.1} % hit rate", adaptive * 100.0);
    println!();
    println!(
        "the custom algorithm is {} lines of priority/update code — the framework \
         provides sampling, metadata and eviction for free",
        CostAwareLru.rule_loc()
    );
}
