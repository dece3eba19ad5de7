//! The metric registry: every name the benchmark prints, with its unit,
//! direction, clock and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` lists the same names in the same order (a test pins it).

use std::collections::BTreeMap;

/// Which clock or counter a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The simulated RDMA fabric's clock: repeats exactly for a seed.
    Sim,
    /// A counter of the program: repeats exactly for a seed.
    Count,
    /// The host's monotonic clock: noisy, never gated except `setup_s`.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "simulated",
            Clock::Count => "count",
            Clock::Host => "host",
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen before it
    /// counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl MetricDef {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

fn def(name: &str, unit: &'static str, higher: bool, clock: Clock) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: higher,
        clock,
        bound: None,
    }
}

/// Simulated latency in microseconds of the fabric model's clock — a unit of
/// its own so no reader mistakes it for host time.
pub const SIM_US: &str = "sim_us";

/// Windows of the `elastic_resize` timeline, in order.
pub const RESIZE_WINDOWS: [&str; 5] = ["steady", "migrating", "grown", "draining", "drained"];

/// Metrics a user of the cache would see, from the untraced pass.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, higher, clock, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, higher, clock)
    };
    vec![
        bounded("sim_ops_per_sec", "req/sim_s", true, Clock::Sim, 0.01),
        bounded("sim_get_mean_us", SIM_US, false, Clock::Sim, 0.01),
        bounded("sim_get_tail_us", SIM_US, false, Clock::Sim, 0.02),
        bounded("sim_req_tail_us", SIM_US, false, Clock::Sim, 0.02),
        bounded("hit_rate", "ratio", true, Clock::Count, 0.005),
        bounded("messages_per_op", "msg/req", false, Clock::Count, 0.01),
        bounded("wire_bytes_per_op", "B/req", false, Clock::Count, 0.01),
        bounded(
            "pool_bytes_per_user_byte",
            "ratio",
            false,
            Clock::Count,
            0.01,
        ),
        bounded("setup_s", "s", false, Clock::Host, 0.25),
    ]
}

/// Names of the host kernels, in the order they run.
pub const KERNELS: [&str; 14] = [
    "workloads.zipf.host_ns_per_sample",
    "core.hash.hash_key.host_ns",
    "core.hashtable.decode_slots.host_ns",
    "core.object.encode_into.host_ns",
    "core.object.view.host_ns",
    "core.fc_cache.record.host_ns",
    "core.client.evict_once.host_ns",
    "core.sim.host_ns_per_request",
    "dm.wqe.post2_ring_poll2.host_ns",
    "dm.client.read_into_64b.host_ns",
    "dm.client.cas.host_ns",
    "dm.client.faa.host_ns",
    "dm.obs.record_span.host_ns",
    "dm.histogram.record.host_ns",
];

/// Metrics of single layers (layers are the crates' module names).  A value
/// of 0 on a workload means the layer was not exercised there.
pub fn per_layer() -> Vec<MetricDef> {
    use Clock::{Count, Host, Sim};
    let mut defs = vec![
        def("workloads.ycsb.host_ns_per_request", "ns", false, Host),
        def("workloads.changing.host_ns_per_request", "ns", false, Host),
        def("dm.client.reads_per_op", "msg/req", false, Count),
        def("dm.client.writes_per_op", "msg/req", false, Count),
        def("dm.client.cas_per_op", "msg/req", false, Count),
        def("dm.client.faa_per_op", "msg/req", false, Count),
        def("dm.rpc.rpcs_per_op", "msg/req", false, Count),
        def("dm.rpc.mn_cpu_us_per_op", "sim_us/req", false, Sim),
        def("dm.wqe.doorbells_per_op", "1/req", false, Count),
        def("dm.wqe.mean_batch_size", "verbs", true, Count),
        def("dm.wqe.unsignalled_share", "ratio", true, Count),
        def("dm.cq.polls_per_op", "1/req", false, Count),
        def(
            "dm.topology.hottest_node_message_share",
            "ratio",
            false,
            Count,
        ),
        def("dm.stats.nic_seconds_share", "ratio", false, Sim),
        def("dm.stats.client_seconds_share", "ratio", false, Sim),
        def("dm.migration.stripes_moved", "count", false, Count),
        def("dm.migration.objects_relocated", "count", false, Count),
        def("dm.migration.migrated_bytes", "B", false, Count),
        def("dm.migration.residual_bytes", "B", false, Count),
    ];
    for window in RESIZE_WINDOWS {
        let name = format!("dm.migration.window.{window}.sim_ops_per_sec");
        defs.push(def(&name, "req/sim_s", true, Sim));
    }
    for phase in ditto_dm::Phase::ALL {
        let p = phase.name();
        defs.push(def(
            &format!("dm.obs.phase.{p}.critical_share_pct"),
            "%",
            false,
            Sim,
        ));
        defs.push(def(&format!("dm.obs.phase.{p}.p99_us"), SIM_US, false, Sim));
        defs.push(def(
            &format!("dm.obs.phase.{p}.tail_share_pct"),
            "%",
            false,
            Sim,
        ));
    }
    defs.extend([
        def("dm.obs.overlap_saved_us_per_op", "sim_us/req", true, Sim),
        def("dm.obs.spans_dropped", "count", false, Count),
        def("core.client.evictions_per_set", "ratio", false, Count),
        def(
            "core.client.bucket_evictions_per_set",
            "ratio",
            false,
            Count,
        ),
        def("core.history.inserts_per_eviction", "ratio", true, Count),
        def("core.adaptive.regrets_per_kop", "1/kreq", false, Count),
        def("core.adaptive.weight_syncs_per_kop", "1/kreq", false, Count),
        def("core.adaptive.final_weight_lru", "ratio", true, Count),
        def("core.adaptive.hit_rate_lru_only", "ratio", true, Count),
        def("core.adaptive.hit_rate_lfu_only", "ratio", true, Count),
        def("core.adaptive.gain_over_best_fixed", "ratio", true, Count),
        def("core.fc_cache.flushes_per_kop", "1/kreq", false, Count),
        def("core.local_tier.hit_share", "ratio", true, Count),
        def("core.local_tier.revalidate_share", "ratio", false, Count),
        def(
            "core.local_tier.invalidations_per_kop",
            "1/kreq",
            false,
            Count,
        ),
        def(
            "core.local_tier.stale_rejects_per_kop",
            "1/kreq",
            false,
            Count,
        ),
        def("bench.request.sim_p99_us", SIM_US, false, Sim),
        def("core.client.get.sim_p50_us", SIM_US, false, Sim),
        def("core.client.get.sim_p99_us", SIM_US, false, Sim),
        def("core.client.set.sim_p50_us", SIM_US, false, Sim),
        def("core.client.set.sim_p99_us", SIM_US, false, Sim),
        def("core.client.get_hit.sim_p50_us", SIM_US, false, Sim),
        def("core.client.get_miss.sim_p50_us", SIM_US, false, Sim),
        def("core.client.get_local.sim_p50_us", SIM_US, false, Sim),
        def("core.client.set_plain.sim_p50_us", SIM_US, false, Sim),
        def("core.client.set_evicting.sim_p50_us", SIM_US, false, Sim),
        def("core.client.get.host_ns", "ns", false, Host),
        def("core.client.set.host_ns", "ns", false, Host),
        def("core.client.flush.host_ns", "ns", false, Host),
        def("core.client.pump_migration.host_ms", "ms", false, Host),
        def("bench.driver.self_host_ns", "ns", false, Host),
        def("bench.host_ns_per_op", "ns", false, Host),
        def("bench.host_allocs_per_op", "1/req", false, Count),
        def("bench.trace.host_overhead_pct", "%", false, Host),
        def("bench.trace.sim_overhead_pct", "%", false, Sim),
    ]);
    defs.extend(KERNELS.iter().map(|name| def(name, "ns", false, Host)));
    defs
}

/// One measured value with what is needed to print it honestly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Samples the value was computed from (calls, spans, chunks, requests).
    pub samples: u64,
    /// First and third quartile, for host timings reported as a median.
    pub quartiles: Option<(f64, f64)>,
}

/// The values of one pass, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, Measured>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.insert(name, value, samples, None);
    }

    /// A median with its quartiles and sample count.
    pub fn set_median(&mut self, name: &str, (q1, median, q3): (f64, f64, f64), samples: u64) {
        self.insert(name, median, samples, Some((q1, q3)));
    }

    fn insert(&mut self, name: &str, value: f64, samples: u64, quartiles: Option<(f64, f64)>) {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        let previous = self.0.insert(
            name.to_string(),
            Measured {
                value,
                samples,
                quartiles,
            },
        );
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// Panics if a value was recorded under a name the registry lacks — a
    /// typo would otherwise silently print as "not exercised".
    pub fn assert_all_defined(&self, defs: &[MetricDef]) {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "value recorded for unregistered metric {name}"
            );
        }
    }
}

/// Whether `name` uses only the characters the benchmark contract allows.
#[cfg(test)]
pub fn name_is_valid(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(name_is_valid(&d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok));
        }
        for d in &e2e {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let largest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
    }

    #[test]
    fn name_charset() {
        assert!(name_is_valid("dm.obs.phase.local_hit.p99_us"));
        assert!(name_is_valid("9lives"));
        assert!(!name_is_valid(""));
        assert!(!name_is_valid(".hidden"));
        assert!(!name_is_valid("has space"));
        assert!(!name_is_valid("slash/name"));
        assert!(!name_is_valid(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn unregistered_values_are_caught() {
        let mut values = Values::default();
        values.set("core.client.typo", 1.0, 1);
        values.assert_all_defined(&per_layer());
    }
}
