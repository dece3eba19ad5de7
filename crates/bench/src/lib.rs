//! Shared experiment harness for the figure and table reproductions.
//!
//! Every system under test is wrapped behind [`SystemUnderTest`], whose
//! clients are [`CacheBackend`]s, so each experiment can run Ditto and the baselines
//! through exactly the same multi-client replay loop (`ditto_dm::run_clients`
//! stepping one [`Replay`] per client) and report the same
//! metrics (throughput from the DM resource model, hit rate, latency
//! percentiles).

use ditto_baselines::{CliqueMapCache, CliqueMapConfig, LockedListCache, LockedListConfig};
use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::{run_clients, DmConfig, MemoryPool, RunReport};
use ditto_workloads::{CacheBackend, Replay, ReplayOptions, ReplayStats, Request};
use serde::{Deserialize, Serialize};

pub mod jsonv;

/// The systems compared across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// Ditto with adaptive LRU+LFU experts.
    Ditto,
    /// Ditto restricted to a single LRU expert.
    DittoLru,
    /// Ditto restricted to a single LFU expert.
    DittoLfu,
    /// CliqueMap with server-side precise LRU.
    CmLru,
    /// CliqueMap with server-side precise LFU.
    CmLfu,
    /// Shard-LRU: 32 lock-protected LRU lists maintained by clients.
    ShardLru,
    /// KVC: a single lock-protected LRU list (Figure 2).
    Kvc,
    /// KVS: plain key-value store without caching structures (Figure 2).
    Kvs,
}

impl SystemKind {
    /// Display name used in figure rows.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Ditto => "Ditto",
            SystemKind::DittoLru => "Ditto-LRU",
            SystemKind::DittoLfu => "Ditto-LFU",
            SystemKind::CmLru => "CM-LRU",
            SystemKind::CmLfu => "CM-LFU",
            SystemKind::ShardLru => "Shard-LRU",
            SystemKind::Kvc => "KVC",
            SystemKind::Kvs => "KVS",
        }
    }
}

/// A deployed system (remote structures + shared state).
pub enum SystemUnderTest {
    /// Any Ditto configuration.
    Ditto(DittoCache),
    /// CliqueMap.
    CliqueMap(CliqueMapCache),
    /// Lock-based list caches (Shard-LRU / KVC / KVS).
    Locked(LockedListCache),
}

impl SystemUnderTest {
    /// Deploys `kind` with the given object capacity on a fresh pool derived
    /// from `dm`.
    pub fn build(kind: SystemKind, capacity_objects: u64, dm: DmConfig) -> Self {
        match kind {
            SystemKind::Ditto | SystemKind::DittoLru | SystemKind::DittoLfu => {
                let config = match kind {
                    SystemKind::Ditto => DittoConfig::with_capacity(capacity_objects),
                    SystemKind::DittoLru => DittoConfig::single_algorithm(capacity_objects, "lru"),
                    _ => DittoConfig::single_algorithm(capacity_objects, "lfu"),
                };
                SystemUnderTest::Ditto(
                    DittoCache::with_dedicated_pool(config, dm).expect("ditto cache"),
                )
            }
            SystemKind::CmLru | SystemKind::CmLfu => {
                let config = if kind == SystemKind::CmLru {
                    CliqueMapConfig::lru(capacity_objects)
                } else {
                    CliqueMapConfig::lfu(capacity_objects)
                };
                SystemUnderTest::CliqueMap(CliqueMapCache::new(MemoryPool::new(dm), config))
            }
            SystemKind::ShardLru => SystemUnderTest::Locked(LockedListCache::new(
                MemoryPool::new(dm),
                LockedListConfig::shard_lru(capacity_objects),
            )),
            SystemKind::Kvc => SystemUnderTest::Locked(LockedListCache::new(
                MemoryPool::new(dm),
                LockedListConfig::kvc(capacity_objects),
            )),
            SystemKind::Kvs => SystemUnderTest::Locked(LockedListCache::new(
                MemoryPool::new(dm),
                LockedListConfig::kvs(),
            )),
        }
    }

    /// Deploys a Ditto variant from an explicit configuration (used by the
    /// ablation and parameter-sweep figures).
    pub fn ditto_with_config(config: DittoConfig, dm: DmConfig) -> Self {
        SystemUnderTest::Ditto(DittoCache::with_dedicated_pool(config, dm).expect("ditto cache"))
    }

    /// The memory pool backing the system.
    pub fn pool(&self) -> &MemoryPool {
        match self {
            SystemUnderTest::Ditto(c) => c.pool(),
            SystemUnderTest::CliqueMap(c) => c.pool(),
            SystemUnderTest::Locked(c) => c.pool(),
        }
    }

    /// Opens a new client.
    pub fn client(&self) -> Box<dyn CacheBackend> {
        match self {
            SystemUnderTest::Ditto(c) => Box::new(c.client()),
            SystemUnderTest::CliqueMap(c) => Box::new(c.client()),
            SystemUnderTest::Locked(c) => Box::new(c.client()),
        }
    }

    /// Global expert weights (Ditto only).
    pub fn global_weights(&self) -> Option<Vec<f64>> {
        match self {
            SystemUnderTest::Ditto(c) => Some(c.global_weights()),
            _ => None,
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// System name.
    pub system: String,
    /// Number of clients.
    pub clients: usize,
    /// Resource-model report (throughput, latency, bottleneck).
    pub report: RunReport,
    /// Hit/miss statistics aggregated over all clients.
    pub replay: ReplayStats,
}

impl MeasuredRun {
    /// Hit rate over `Get` requests.
    pub fn hit_rate(&self) -> f64 {
        self.replay.hit_rate()
    }
}

/// Pre-loads a system with requests dealt round-robin to `clients` loader
/// clients (not measured).
pub fn load_phase(sut: &SystemUnderTest, clients: usize, requests: &[Request]) {
    measured_phase(sut, "load", clients, ReplayOptions::default(), &|index| {
        requests
            .iter()
            .skip(index)
            .step_by(clients)
            .copied()
            .collect()
    });
    sut.pool().reset_stats();
}

/// Runs a measured phase: `clients` clients, stepped round-robin, each
/// replay the request slice returned by `per_client` and the aggregate
/// report is returned.
pub fn measured_phase(
    sut: &SystemUnderTest,
    system_name: &str,
    clients: usize,
    opts: ReplayOptions,
    per_client: &dyn Fn(usize) -> Vec<Request>,
) -> MeasuredRun {
    let (report, stats) = run_clients(
        sut.pool(),
        clients,
        |index| (Replay::new(sut.client(), opts), per_client(index)),
        Replay::issue,
        |mut client| {
            client.backend.finish();
            client.stats
        },
    );
    let mut replay_total = ReplayStats::default();
    for s in &stats {
        replay_total.merge(s);
    }
    MeasuredRun {
        system: system_name.to_string(),
        clients,
        report,
        replay: replay_total,
    }
}

/// Convenience: replays a whole trace split across clients against a freshly
/// built system, returning the measured run (used by the trace figures).
pub fn run_trace(
    kind: SystemKind,
    capacity_objects: u64,
    clients: usize,
    trace: &[Request],
    opts: ReplayOptions,
) -> MeasuredRun {
    let sut = SystemUnderTest::build(kind, capacity_objects, DmConfig::default());
    measured_phase(&sut, kind.name(), clients, opts, &|index| {
        trace.iter().skip(index).step_by(clients).copied().collect()
    })
}

/// Formats a figure row: pads the label and prints `value` columns.
pub fn print_row(label: &str, values: &[(&str, f64)]) {
    print!("{label:<28}");
    for (name, value) in values {
        print!(" {name}={value:<10.4}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_workloads::{YcsbSpec, YcsbWorkload};
    use std::cell::RefCell;

    #[test]
    fn all_systems_build_and_serve() {
        for kind in [
            SystemKind::Ditto,
            SystemKind::DittoLru,
            SystemKind::CmLru,
            SystemKind::ShardLru,
            SystemKind::Kvs,
        ] {
            let sut = SystemUnderTest::build(kind, 2_000, DmConfig::small());
            let mut client = sut.client();
            client.set(b"k", b"v");
            assert_eq!(
                client.get(b"k").as_deref(),
                Some(&b"v"[..]),
                "{}",
                kind.name()
            );
            client.finish();
        }
    }

    #[test]
    fn measured_phase_reports_all_requests() {
        let sut = SystemUnderTest::build(SystemKind::Ditto, 2_000, DmConfig::default());
        let requests: Vec<Request> = (0..500u64).map(Request::get).collect();
        let run = measured_phase(&sut, "Ditto", 2, ReplayOptions::default(), &|i| {
            requests.iter().skip(i).step_by(2).copied().collect()
        });
        assert_eq!(run.replay.requests, 500);
        assert!(run.report.throughput_mops > 0.0);
    }

    #[test]
    fn run_trace_produces_hit_rates() {
        let trace: Vec<Request> = (0..2_000u64).map(|i| Request::get(i % 100)).collect();
        let run = run_trace(
            SystemKind::DittoLru,
            1_000,
            2,
            &trace,
            ReplayOptions::default(),
        );
        assert!(run.hit_rate() > 0.8, "hit rate {}", run.hit_rate());
    }

    /// A YCSB spec at `figures --scale 0.02` (fig2's CI scale).
    fn ci_scale_ycsb() -> YcsbSpec {
        YcsbSpec {
            record_count: 5_000,
            request_count: 10_000,
            ..YcsbSpec::default()
        }
    }

    /// Loads `kind` with every record and returns a run of `clients`
    /// clients, each replaying `per_client` YCSB requests of its own seed.
    fn ycsb_run(
        kind: SystemKind,
        workload: YcsbWorkload,
        clients: usize,
        per_client: usize,
    ) -> MeasuredRun {
        let spec = ci_scale_ycsb();
        let sut = SystemUnderTest::build(kind, spec.record_count * 2, DmConfig::default());
        load_phase(&sut, 8, &spec.load_requests());
        measured_phase(&sut, kind.name(), clients, ReplayOptions::default(), &|i| {
            let requests = spec.run_requests_seeded(workload, 100 + i as u64);
            requests[..per_client].to_vec()
        })
    }

    #[test]
    fn lock_protected_lists_do_not_scale_and_a_plain_store_does() {
        // Figure 2(b)'s claim: on YCSB-C, 8 clients multiply a lock-free
        // store's throughput almost 8-fold, Shard-LRU's 32 locks give up a
        // part of that, and KVC's one lock serialises nearly all of it.
        let speedup = |kind| {
            let one = ycsb_run(kind, YcsbWorkload::C, 1, 2_000)
                .report
                .throughput_mops;
            let eight = ycsb_run(kind, YcsbWorkload::C, 8, 500)
                .report
                .throughput_mops;
            eight / one
        };
        let (kvs, shard, kvc) = (
            speedup(SystemKind::Kvs),
            speedup(SystemKind::ShardLru),
            speedup(SystemKind::Kvc),
        );
        assert!(kvs >= 7.0, "KVS 8-client speedup {kvs:.2}x");
        assert!(shard >= 3.0, "Shard-LRU 8-client speedup {shard:.2}x");
        assert!(kvc < 2.0, "KVC 8-client speedup {kvc:.2}x");
    }

    #[test]
    fn a_measured_phase_repeats_exactly() {
        for kind in [SystemKind::Ditto, SystemKind::ShardLru] {
            let first = ycsb_run(kind, YcsbWorkload::A, 4, 1_000);
            let second = ycsb_run(kind, YcsbWorkload::A, 4, 1_000);
            assert_eq!(first.report, second.report, "{}", kind.name());
            assert_eq!(first.replay, second.replay, "{}", kind.name());
        }
    }

    /// Records every key it is asked for into a log shared by all clients.
    struct Recorder<'a>(&'a RefCell<Vec<Vec<u8>>>);

    impl CacheBackend for Recorder<'_> {
        fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
            self.0.borrow_mut().push(key.to_vec());
            Some(Vec::new())
        }
        fn set(&mut self, _key: &[u8], _value: &[u8]) {}
    }

    #[test]
    fn a_dealt_out_trace_is_issued_in_its_original_order() {
        let pool = MemoryPool::new(DmConfig::small());
        let trace: Vec<Request> = (0..103u64).map(|k| Request::get(k * 7 % 101)).collect();
        let log = RefCell::new(Vec::new());
        let (clients, opts) = (4, ReplayOptions::default());
        run_clients(
            &pool,
            clients,
            |i| {
                let shard = trace.iter().skip(i).step_by(clients).copied();
                (Replay::new(Box::new(Recorder(&log)), opts), shard)
            },
            Replay::issue,
            drop,
        );
        let keys: Vec<Vec<u8>> = trace.iter().map(Request::key_bytes).collect();
        assert_eq!(log.into_inner(), keys);
    }
}
