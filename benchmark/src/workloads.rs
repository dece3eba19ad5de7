//! The six workloads: what each one is, why it exists, and how its cache,
//! clients, load phase and seeded trace are set up.

use ditto_core::{DittoCache, DittoClient, DittoConfig};
use ditto_dm::DmConfig;
use ditto_workloads::traces::TraceSpec;
use ditto_workloads::{changing_workload, Request, YcsbSpec, YcsbWorkload};
use std::time::Instant;

/// Value size of every object (the paper's 256-byte values; keys are the
/// 8 little-endian bytes of the key id).
pub const VALUE_BYTES: usize = 256;
pub const KEY_BYTES: usize = 8;

/// Local-tier sizing of `tiered_skew`: 2048 entries cover most of the Zipf
/// hot set without holding the key space; the 50 µs lease is the default the
/// ROADMAP's adaptive-lease item wants to beat.
const TIER_CAPACITY: usize = 2_048;
const TIER_LEASE_NS: u64 = 50_000;

/// RNIC budget of `elastic_resize`, low enough that the hottest NIC — not
/// client latency — bounds every window.
const RESIZE_MESSAGE_RATE: u64 = 60_000;

/// Requests between `pump_migration(2)` calls inside a resizing window.
pub const PUMP_EVERY: usize = 256;
pub const PUMP_STRIPES: usize = 2;

/// One in this many requests (and simulated ops) is traced in a traced pass.
pub const TRACE_ONE_IN: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Ycsb(YcsbWorkload),
    /// `changing_workload` over four LRU-/LFU-friendly phases.
    Changing,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub why: &'static str,
    pub records: u64,
    pub capacity: u64,
    pub clients: usize,
    pub trace: TraceKind,
    pub local_tier: bool,
    /// Simulated backing-store latency charged to every Get miss.
    pub miss_penalty_us: u64,
    /// Runs the five-window add/drain timeline on a message-bound 2-MN pool.
    pub elastic: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "read_hot",
        why: "YCSB-C with every record resident: the pure remote Get hit path, bypassing eviction, Set, tier and migration; the no-change control for those PRs",
        records: 100_000,
        capacity: 100_000,
        clients: 1,
        trace: TraceKind::Ycsb(YcsbWorkload::C),
        local_tier: false,
        miss_penalty_us: 0,
        elastic: false,
    },
    Workload {
        name: "read_evict",
        why: "YCSB-C at capacity 20% of records: every miss fills through an evicting Set, so sample/score/victim-CAS/history own the tail",
        records: 100_000,
        capacity: 20_000,
        clients: 1,
        trace: TraceKind::Ycsb(YcsbWorkload::C),
        local_tier: false,
        miss_penalty_us: 0,
        elastic: false,
    },
    Workload {
        name: "update_heavy",
        why: "YCSB-A (50% updates) with room for every record: Set without eviction beside Gets on the same buckets, so a Get gain that taxes Set shows",
        records: 100_000,
        capacity: 120_000,
        clients: 1,
        trace: TraceKind::Ycsb(YcsbWorkload::A),
        local_tier: false,
        miss_penalty_us: 0,
        elastic: false,
    },
    Workload {
        name: "tiered_skew",
        why: "YCSB-B on two clients sharing one cache with the local tier on: zero-message hits, lease revalidations and cross-client invalidations dominate",
        records: 100_000,
        capacity: 120_000,
        clients: 2,
        trace: TraceKind::Ycsb(YcsbWorkload::B),
        local_tier: true,
        miss_penalty_us: 0,
        elastic: false,
    },
    Workload {
        name: "shifting_mix",
        why: "LRU-friendly and LFU-friendly phases alternating at capacity 30% of the footprint with a 500 us miss penalty: hit-rate-driven, exercises the adaptive machinery",
        records: 30_000,
        capacity: 9_000,
        clients: 1,
        trace: TraceKind::Changing,
        local_tier: false,
        miss_penalty_us: 500,
        elastic: false,
    },
    Workload {
        name: "elastic_resize",
        why: "YCSB-C on a message-bound 2-MN pool through add_node and drain_node with live migration: throughput is set by the hottest NIC's message count",
        records: 100_000,
        capacity: 70_000,
        clients: 1,
        trace: TraceKind::Ycsb(YcsbWorkload::C),
        local_tier: false,
        miss_penalty_us: 0,
        elastic: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Measured requests must split evenly into the five resize windows and the
/// four changing phases.
pub const REQUEST_GRANULE: u64 = 20;

impl Workload {
    /// Number of equal measured windows the trace is cut into.
    pub fn windows(&self) -> usize {
        if self.elastic {
            crate::metrics::RESIZE_WINDOWS.len()
        } else {
            1
        }
    }

    fn ditto_config(&self, fixed_expert: Option<&str>) -> DittoConfig {
        let config = match fixed_expert {
            Some(expert) => DittoConfig::single_algorithm(self.capacity, expert),
            None => DittoConfig::with_capacity(self.capacity),
        };
        if self.local_tier {
            config.with_local_tier(TIER_CAPACITY, TIER_LEASE_NS)
        } else {
            config
        }
    }

    fn dm_config(&self, recorder_spans: usize) -> DmConfig {
        let dm =
            DmConfig::default().with_flight_recorder_sampled(recorder_spans, TRACE_ONE_IN as u64);
        if self.elastic {
            dm.with_memory_nodes(2)
                .with_message_rate(RESIZE_MESSAGE_RATE)
        } else {
            dm
        }
    }

    fn generate_trace(&self, seed: u64, requests: u64) -> Vec<Request> {
        match self.trace {
            TraceKind::Changing => {
                changing_workload(&TraceSpec::new(self.records, requests).with_seed(seed), 4)
            }
            TraceKind::Ycsb(mix) => {
                let windows = self.windows() as u64;
                let spec = YcsbSpec {
                    record_count: self.records,
                    request_count: requests / windows,
                    value_size: VALUE_BYTES as u32,
                    theta: 0.99,
                    seed,
                };
                (0..windows)
                    .flat_map(|w| spec.run_requests_seeded(mix, seed.wrapping_add(w * 0x9E37_79B9)))
                    .collect()
            }
        }
    }
}

/// The driver's knowledge of what the cache must return: values are a
/// deterministic fill of (key, version) and the single driver thread knows
/// the latest acknowledged version of every key.
pub struct Oracle {
    versions: Vec<u32>,
    expected: Vec<u8>,
}

impl Oracle {
    fn new(records: u64) -> Self {
        Oracle {
            versions: vec![0; records as usize],
            expected: Vec::with_capacity(VALUE_BYTES),
        }
    }

    /// Writes the value of `key` at `version` into `buf`.
    pub fn fill(buf: &mut Vec<u8>, key: u64, version: u32) {
        buf.clear();
        let base = (key ^ (u64::from(version) << 40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for i in 0..(VALUE_BYTES / 8) as u64 {
            let word = base
                .wrapping_add(i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                .rotate_left(i as u32);
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    pub fn version(&self, key: u64) -> u32 {
        self.versions[key as usize]
    }

    /// Acknowledges a completed update of `key` to `version`.
    pub fn acknowledge(&mut self, key: u64, version: u32) {
        self.versions[key as usize] = version;
    }

    /// Whether `got` is byte-for-byte the latest acknowledged value of `key`.
    pub fn is_latest(&mut self, key: u64, got: &[u8]) -> bool {
        Self::fill(&mut self.expected, key, self.versions[key as usize]);
        got == self.expected.as_slice()
    }
}

/// A populated cache with its clients and measured trace, ready to drive.
pub struct Scenario {
    pub workload: &'static Workload,
    pub cache: DittoCache,
    pub clients: Vec<DittoClient>,
    pub trace: Vec<Request>,
    pub oracle: Oracle,
    /// Host seconds the whole set-up took.
    pub setup_seconds: f64,
    /// Host nanoseconds per request the workload generator took.
    pub generator_ns_per_request: f64,
}

/// Builds pool + cache, loads every record through client 0 and generates
/// the measured trace.  `recorder_spans > 0` arms the 1-in-16 flight
/// recorder; `fixed_expert` swaps the adaptive experts for one algorithm.
pub fn setup(
    workload: &'static Workload,
    seed: u64,
    requests: u64,
    recorder_spans: usize,
    fixed_expert: Option<&str>,
) -> Scenario {
    assert!(
        requests >= REQUEST_GRANULE && requests.is_multiple_of(REQUEST_GRANULE),
        "requests must be a positive multiple of {REQUEST_GRANULE}"
    );
    let started = Instant::now();
    let cache = DittoCache::with_dedicated_pool(
        workload.ditto_config(fixed_expert),
        workload.dm_config(recorder_spans),
    )
    .expect("workload configurations are valid");
    let mut clients: Vec<DittoClient> = (0..workload.clients).map(|_| cache.client()).collect();
    let mut value = Vec::with_capacity(VALUE_BYTES);
    for key in 0..workload.records {
        Oracle::fill(&mut value, key, 0);
        clients[0]
            .try_set(&key.to_le_bytes(), &value)
            .expect("load phase set");
    }
    let generating = Instant::now();
    let trace = workload.generate_trace(seed, requests);
    let generator_ns_per_request = generating.elapsed().as_nanos() as f64 / requests as f64;
    assert_eq!(trace.len() as u64, requests);
    Scenario {
        workload,
        cache,
        clients,
        trace,
        oracle: Oracle::new(workload.records),
        setup_seconds: started.elapsed().as_secs_f64(),
        generator_ns_per_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_differ_by_key_and_version() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        Oracle::fill(&mut a, 7, 0);
        Oracle::fill(&mut b, 7, 1);
        Oracle::fill(&mut c, 8, 0);
        assert_eq!(a.len(), VALUE_BYTES);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut again = Vec::new();
        Oracle::fill(&mut again, 7, 0);
        assert_eq!(a, again);
    }

    #[test]
    fn oracle_rejects_stale_versions() {
        let mut oracle = Oracle::new(10);
        let (mut v0, mut v1) = (Vec::new(), Vec::new());
        Oracle::fill(&mut v0, 3, 0);
        Oracle::fill(&mut v1, 3, 1);
        assert!(oracle.is_latest(3, &v0));
        oracle.acknowledge(3, 1);
        assert!(!oracle.is_latest(3, &v0), "a stale hit must fail");
        assert!(oracle.is_latest(3, &v1));
    }

    #[test]
    fn workload_names_are_unique_and_valid() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::name_is_valid(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
        }
    }
}
