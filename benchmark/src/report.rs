//! Turns what the passes measured into named metric values, and prints them.

use crate::driver::{Outcome, Pass};
use crate::metrics::{MetricDef, Values, RESIZE_WINDOWS};
use crate::spans::{durations_ns, self_times_ns};
use crate::stats::{
    highest_supported_percentile, median, percentile_sorted, quartiles, supports_p99,
    tail_mean_sorted,
};
use crate::workloads::{Workload, KEY_BYTES, VALUE_BYTES};
use ditto_dm::Phase;

/// Share of the slowest calls a `*_tail_us` metric averages: the calls at
/// and beyond p99.
const TAIL_SHARE: f64 = 0.01;

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The end-to-end metrics of one untraced pass.  `setup_seconds` holds the
/// host time of every set-up the run made; its median is reported.
pub fn end_to_end(workload: &Workload, pass: &Pass, setup_seconds: &[f64]) -> Values {
    let mut values = Values::default();
    let requests = pass.requests;
    values.set(
        "sim_ops_per_sec",
        requests as f64 / pass.sim_seconds(),
        requests,
    );
    let gets = &pass.get_ns;
    assert!(
        supports_p99(gets.len()),
        "{}: {} Gets cannot carry a p99",
        workload.name,
        gets.len()
    );
    let calls = gets.len() as u64;
    values.set("sim_get_mean_us", tail_mean_sorted(gets, 1.0) / 1e3, calls);
    values.set(
        "sim_get_tail_us",
        tail_mean_sorted(gets, TAIL_SHARE) / 1e3,
        calls,
    );
    values.set(
        "sim_req_tail_us",
        tail_mean_sorted(&pass.req_ns, TAIL_SHARE) / 1e3,
        requests,
    );
    values.set(
        "hit_rate",
        ratio(pass.cache.hits, pass.cache.hits + pass.cache.misses),
        calls,
    );
    let nodes = || pass.windows.iter().flat_map(|w| &w.nodes);
    let messages: u64 = nodes().map(|n| n.messages).sum();
    let bytes: u64 = nodes().map(|n| n.bytes).sum();
    values.set("messages_per_op", ratio(messages, requests), requests);
    values.set("wire_bytes_per_op", ratio(bytes, requests), requests);
    let user_bytes = workload.capacity * (KEY_BYTES + VALUE_BYTES) as u64;
    values.set(
        "pool_bytes_per_user_byte",
        ratio(pass.used_bytes, user_bytes),
        1,
    );
    let mut setups = setup_seconds.to_vec();
    values.set("setup_s", median(&mut setups), setups.len() as u64);
    values
}

/// Whether two passes agree on every simulated and counted end-to-end
/// metric — the host clock (`setup_s`) is the only one allowed to differ.
pub fn simulated_metrics_agree(defs: &[MetricDef], a: &Values, b: &Values) -> bool {
    defs.iter()
        .filter(|d| d.clock != crate::metrics::Clock::Host)
        .all(|d| a.get(&d.name).map(|m| m.value) == b.get(&d.name).map(|m| m.value))
}

/// What a traced run adds to the two passes' own measurements.
pub struct LayerInputs<'a> {
    pub untraced: &'a Pass,
    pub traced: &'a Pass,
    /// Host ns per request the workload generator took, one per set-up.
    pub generator_ns_per_request: Vec<f64>,
    /// Hit rates of the trace replayed with LRU only and with LFU only
    /// (`shifting_mix` only).
    pub fixed_expert_hit_rates: Option<(f64, f64)>,
    pub kernels: Values,
}

/// The per-layer metrics of one traced run.  Counts come from the untraced
/// pass, simulated phases and host spans from the traced one.
pub fn per_layer(workload: &Workload, inputs: LayerInputs<'_>) -> Values {
    let LayerInputs {
        untraced,
        traced,
        mut generator_ns_per_request,
        fixed_expert_hit_rates,
        kernels,
    } = inputs;
    let mut values = kernels;
    let requests = untraced.requests;
    let per_op = |count: u64| ratio(count, requests);
    let per_kop = |count: u64| 1e3 * ratio(count, requests);

    let generator = match workload.trace {
        crate::workloads::TraceKind::Ycsb(_) => "workloads.ycsb.host_ns_per_request",
        crate::workloads::TraceKind::Changing => "workloads.changing.host_ns_per_request",
    };
    let setups = generator_ns_per_request.len() as u64;
    values.set_median(generator, quartiles(&mut generator_ns_per_request), setups);

    // ditto-dm counts.
    let nodes = || untraced.windows.iter().flat_map(|w| &w.nodes);
    let windows = || untraced.windows.iter();
    values.set(
        "dm.client.reads_per_op",
        per_op(nodes().map(|n| n.reads).sum()),
        requests,
    );
    values.set(
        "dm.client.writes_per_op",
        per_op(nodes().map(|n| n.writes).sum()),
        requests,
    );
    values.set(
        "dm.client.cas_per_op",
        per_op(nodes().map(|n| n.cas).sum()),
        requests,
    );
    values.set(
        "dm.client.faa_per_op",
        per_op(nodes().map(|n| n.faa).sum()),
        requests,
    );
    values.set(
        "dm.rpc.rpcs_per_op",
        per_op(nodes().map(|n| n.rpcs).sum()),
        requests,
    );
    values.set(
        "dm.rpc.mn_cpu_us_per_op",
        per_op(nodes().map(|n| n.rpc_cpu_ns).sum()) / 1e3,
        requests,
    );
    let doorbells: u64 = windows().map(|w| w.doorbells).sum();
    let batched: u64 = windows().map(|w| w.batched_verbs).sum();
    let signalled: u64 = windows().map(|w| w.signalled_wqes).sum();
    let unsignalled: u64 = windows().map(|w| w.unsignalled_wqes).sum();
    values.set("dm.wqe.doorbells_per_op", per_op(doorbells), requests);
    values.set(
        "dm.wqe.mean_batch_size",
        ratio(batched, doorbells),
        doorbells,
    );
    values.set(
        "dm.wqe.unsignalled_share",
        ratio(unsignalled, signalled + unsignalled),
        signalled + unsignalled,
    );
    values.set(
        "dm.cq.polls_per_op",
        per_op(windows().map(|w| w.cq_polls).sum()),
        requests,
    );
    let messages: u64 = nodes().map(|n| n.messages).sum();
    let hottest: u64 = windows()
        .map(|w| w.nodes.iter().map(|n| n.messages).max().unwrap_or(0))
        .sum();
    values.set(
        "dm.topology.hottest_node_message_share",
        ratio(hottest, messages),
        messages,
    );
    let elapsed = untraced.sim_seconds();
    let nic: f64 = windows().map(|w| w.stretch.nic_seconds).sum();
    let client: f64 = windows().map(|w| w.stretch.client_seconds).sum();
    values.set("dm.stats.nic_seconds_share", nic / elapsed, requests);
    values.set("dm.stats.client_seconds_share", client / elapsed, requests);

    // ditto-dm migration.
    if workload.elastic {
        let m = &untraced.migration;
        values.set("dm.migration.stripes_moved", m.stripes_moved as f64, 1);
        values.set(
            "dm.migration.objects_relocated",
            m.objects_relocated as f64,
            1,
        );
        values.set("dm.migration.migrated_bytes", m.migrated_bytes as f64, 1);
        values.set("dm.migration.residual_bytes", m.residual_bytes as f64, 1);
        for (name, window) in RESIZE_WINDOWS.iter().zip(&untraced.windows) {
            values.set(
                &format!("dm.migration.window.{name}.sim_ops_per_sec"),
                window.sim_ops_per_sec(),
                window.requests,
            );
        }
    }

    // ditto-dm simulated phases, over the traced pass's measured windows.
    let trace = traced
        .traced
        .as_ref()
        .expect("the traced pass carries a trace");
    let table = &trace.attribution;
    for phase in Phase::ALL {
        let (all, tail) = (&table.phases[phase.index()], &table.tail[phase.index()]);
        let p = phase.name();
        values.set(
            &format!("dm.obs.phase.{p}.critical_share_pct"),
            100.0 * ratio(all.critical_ns, table.elapsed_ns),
            all.spans,
        );
        values.set(
            &format!("dm.obs.phase.{p}.p99_us"),
            all.p99_ns as f64 / 1e3,
            all.spans,
        );
        values.set(
            &format!("dm.obs.phase.{p}.tail_share_pct"),
            100.0 * ratio(tail.critical_ns, table.tail_elapsed_ns),
            table.tail_ops,
        );
    }
    values.set(
        "dm.obs.overlap_saved_us_per_op",
        ratio(table.overlap_saved_ns(), table.ops) / 1e3,
        table.ops,
    );
    values.set(
        "dm.obs.spans_dropped",
        trace.obs.spans_dropped as f64,
        trace.obs.spans_recorded,
    );

    // ditto-core counts.
    let cache = &untraced.cache;
    let evictions = cache.evictions + cache.bucket_evictions;
    values.set(
        "core.client.evictions_per_set",
        ratio(cache.evictions, cache.sets),
        cache.sets,
    );
    values.set(
        "core.client.bucket_evictions_per_set",
        ratio(cache.bucket_evictions, cache.sets),
        cache.sets,
    );
    values.set(
        "core.history.inserts_per_eviction",
        ratio(cache.history_inserts, evictions),
        evictions,
    );
    values.set(
        "core.adaptive.regrets_per_kop",
        per_kop(cache.regrets),
        requests,
    );
    values.set(
        "core.adaptive.weight_syncs_per_kop",
        per_kop(cache.weight_syncs),
        requests,
    );
    values.set(
        "core.adaptive.final_weight_lru",
        untraced.final_weight_lru,
        1,
    );
    values.set(
        "core.fc_cache.flushes_per_kop",
        per_kop(cache.fc_flushes),
        requests,
    );
    let gets = cache.hits + cache.misses;
    values.set(
        "core.local_tier.hit_share",
        ratio(cache.local_hits, gets),
        gets,
    );
    values.set(
        "core.local_tier.revalidate_share",
        ratio(cache.local_revalidations, gets),
        gets,
    );
    values.set(
        "core.local_tier.invalidations_per_kop",
        per_kop(cache.local_invalidations),
        requests,
    );
    values.set(
        "core.local_tier.stale_rejects_per_kop",
        per_kop(cache.local_stale_rejects),
        requests,
    );
    if let Some((lru_only, lfu_only)) = fixed_expert_hit_rates {
        let adaptive = ratio(cache.hits, gets);
        values.set("core.adaptive.hit_rate_lru_only", lru_only, gets);
        values.set("core.adaptive.hit_rate_lfu_only", lfu_only, gets);
        values.set(
            "core.adaptive.gain_over_best_fixed",
            adaptive - lru_only.max(lfu_only),
            gets,
        );
    }

    // Simulated latency percentiles: requests, Gets, Sets, then calls by
    // outcome.  A family too small to have ten samples beyond p99 is left out.
    values.set(
        "bench.request.sim_p99_us",
        us(percentile_sorted(&untraced.req_ns, 0.99)),
        requests,
    );
    for (family, calls) in [("get", &untraced.get_ns), ("set", &untraced.set_ns)] {
        if supports_p99(calls.len()) {
            for (name, p) in [("p50", 0.5), ("p99", 0.99)] {
                values.set(
                    &format!("core.client.{family}.sim_{name}_us"),
                    us(percentile_sorted(calls, p)),
                    calls.len() as u64,
                );
            }
        }
    }
    for outcome in Outcome::ALL {
        let calls = &trace.outcome_ns[outcome as usize];
        if highest_supported_percentile(calls.len()).is_some() {
            values.set(
                &format!("core.client.{}.sim_p50_us", outcome.name()),
                us(percentile_sorted(calls, 0.5)),
                calls.len() as u64,
            );
        }
    }

    // Host spans around client calls (traced pass) and whole-pass host time.
    let spans = trace.spans.spans();
    let mut span_median = |metric: &str, span: &str, scale: f64| {
        let mut ns: Vec<f64> = durations_ns(spans, span)
            .iter()
            .map(|d| d * scale)
            .collect();
        if !ns.is_empty() {
            let count = ns.len() as u64;
            values.set_median(metric, quartiles(&mut ns), count);
        }
    };
    span_median("core.client.get.host_ns", "core.client.get", 1.0);
    span_median("core.client.set.host_ns", "core.client.set", 1.0);
    span_median("core.client.flush.host_ns", "core.client.flush", 1.0);
    span_median(
        "core.client.pump_migration.host_ms",
        "core.client.pump_migration",
        1e-6,
    );
    let mut driver_self: Vec<f64> = self_times_ns(spans)
        .iter()
        .zip(spans)
        .filter(|(_, span)| span.name == "bench.driver.request")
        .map(|(own, _)| *own as f64)
        .collect();
    let sampled = driver_self.len() as u64;
    values.set_median(
        "bench.driver.self_host_ns",
        quartiles(&mut driver_self),
        sampled,
    );
    let mut chunks = untraced.chunk_ns_per_op.clone();
    let chunk_count = chunks.len() as u64;
    values.set_median("bench.host_ns_per_op", quartiles(&mut chunks), chunk_count);
    values.set(
        "bench.host_allocs_per_op",
        per_op(untraced.allocations),
        requests,
    );
    values.set(
        "bench.trace.host_overhead_pct",
        100.0 * (traced.host_seconds / untraced.host_seconds - 1.0),
        requests,
    );
    values.set(
        "bench.trace.sim_overhead_pct",
        100.0 * (traced.sim_seconds() / untraced.sim_seconds() - 1.0),
        requests,
    );
    values
}

/// Prints every metric of `defs` by name with value, unit, clock, sample
/// count and bound; a metric without a value prints as 0 ("not exercised").
pub fn print_table(title: &str, defs: &[MetricDef], values: &Values) {
    eprintln!("== {title}");
    for d in defs {
        let m = values.get(&d.name);
        let value = m.map_or(0.0, |m| m.value);
        let spread = match m.and_then(|m| m.quartiles) {
            Some((q1, q3)) => format!("  q1 {q1:.4} q3 {q3:.4}"),
            None => String::new(),
        };
        let bound = match d.bound {
            Some(b) => format!("  bound {:.1}%", b * 100.0),
            None => String::new(),
        };
        eprintln!(
            "{:<46} {:>16.6} {:<10} {:<9} n={}{spread}{bound}",
            d.name,
            value,
            d.unit,
            d.clock.name(),
            m.map_or(0, |m| m.samples),
        );
    }
}

/// Prints the highest percentile each latency family supports — beyond the
/// named p99 — so the tail the sample size can resolve is on record.
pub fn print_highest_percentiles(pass: &Pass) {
    for (family, samples) in [
        ("get_into", &pass.get_ns),
        ("set", &pass.set_ns),
        ("request", &pass.req_ns),
    ] {
        if let Some(p) = highest_supported_percentile(samples.len()) {
            eprintln!(
                "   sim {family} p{}: {:.3} sim_us over {} samples (highest percentile with >= 10 beyond)",
                (p * 1e5).round() / 1e3,
                us(percentile_sorted(samples, p)),
                samples.len(),
            );
        }
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value printed with all its digits.
pub fn result_json(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = values.get(&d.name).map_or(0.0, |m| m.value);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", "),
    )
}
