//! Offline phase-level latency-attribution analyzer.
//!
//! Ingests the artifacts `trace_smoke` writes from its armed run — the
//! Chrome-tracing JSON document and the companion Prometheus exposition
//! page — re-parses them with the hand-rolled reader in
//! [`ditto_bench::jsonv`] (no third-party parser in the tree), and prints:
//!
//! 1. the **critical-path attribution table** ([`ditto_dm::obs::attribution`]
//!    over the reconstructed spans): the share of elapsed op time the phases
//!    cover, per-phase span counts, p50/p99 raw span durations, the share of
//!    serialized op time each phase owns, and which phase dominates the p99
//!    tail;
//! 2. the **overlap savings** the pipelined data path hid (raw span time
//!    minus serialized time);
//! 3. an **event-rate table** of the instant markers in the trace;
//! 4. the **per-phase histogram quantiles** from the exposition page.
//!
//! Gates (process exits non-zero on violation): the trace must attribute at
//! least one op, the attributed share (per-phase critical shares summed)
//! must be ≤ 100% of elapsed op time, the always-on data-path phases (translate/post/flight/poll/decode)
//! must appear on the exposition page with non-empty histograms, and every
//! *other* phase histogram is gated non-empty only if the page names it —
//! configuration-dependent phases (lock, evict, relocate, the local tier's
//! local_hit/revalidate) are legitimately absent when the feature that
//! feeds them never ran.
//!
//! ```text
//! cargo run --release -p ditto-bench --bin trace_smoke
//! cargo run --release -p ditto-bench --bin obs_report -- ditto_trace.json ditto_trace.prom
//! ```

use ditto_bench::jsonv::{self, Json};
use ditto_dm::obs::{attribution, Phase, Span};
use std::collections::BTreeMap;

/// Phases every armed get/set trace must exercise: the one-sided data path
/// itself.  All other phases are configuration-dependent — publish needs
/// Sets in the window, lock needs a lock-based baseline, evict needs
/// pressure, relocate needs a migration, local_hit/revalidate need the
/// compute-side local tier — and
/// are gated only when the exposition page actually names them.
const REQUIRED_PHASES: [Phase; 5] = [
    Phase::Translate,
    Phase::Post,
    Phase::Flight,
    Phase::Poll,
    Phase::Decode,
];

/// Reconstructs per-client span collections (and the instant-marker tally)
/// from a Chrome-tracing document emitted by
/// [`ditto_dm::obs::chrome_trace_json`].
#[allow(clippy::type_complexity)]
fn read_trace(label: &str, text: &str) -> (Vec<(u32, Vec<Span>)>, BTreeMap<String, u64>, f64) {
    let doc =
        jsonv::parse(text).unwrap_or_else(|e| panic!("{label}: trace is not valid JSON: {e}"));
    let Some(Json::Arr(entries)) = doc.get("traceEvents") else {
        panic!("{label}: missing traceEvents array");
    };
    let mut traces: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut span_ts_max = 0f64;
    let mut span_ts_min = f64::INFINITY;
    for entry in entries {
        let ph = entry.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "X" => {
                let name = entry.get("name").and_then(Json::as_str).expect("span name");
                let phase = Phase::from_name(name)
                    .unwrap_or_else(|| panic!("{label}: unknown phase {name:?}"));
                let ts = entry.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = entry.get("dur").and_then(Json::as_f64).expect("dur");
                let tid = entry.get("tid").and_then(Json::as_f64).expect("tid") as u32;
                let op_id = entry
                    .get("args")
                    .and_then(|a| a.get("op"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0) as u64;
                // Timestamps are microseconds with 3 decimals: exact ns.
                let start_ns = (ts * 1_000.0).round() as u64;
                let end_ns = ((ts + dur) * 1_000.0).round() as u64;
                span_ts_min = span_ts_min.min(ts);
                span_ts_max = span_ts_max.max(ts + dur);
                traces.entry(tid).or_default().push(Span {
                    op_id,
                    phase,
                    start_ns,
                    end_ns,
                    detail: 0,
                });
            }
            "i" => {
                // Event names render as "KIND detail…": tally by kind.
                let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
                let kind = name.split_whitespace().next().unwrap_or("?").to_string();
                *instants.entry(kind).or_insert(0) += 1;
            }
            // Metadata rows ("M") carry no timing; trace_smoke gates them.
            _ => {}
        }
    }
    let window_s = if span_ts_min.is_finite() {
        (span_ts_max - span_ts_min) / 1e6
    } else {
        0.0
    };
    (traces.into_iter().collect(), instants, window_s)
}

/// One phase's summary scraped off the Prometheus exposition page.
#[derive(Debug, Default, Clone, Copy)]
struct PagePhase {
    count: u64,
    sum_s: f64,
    p50_s: f64,
    p99_s: f64,
}

/// Scrapes the `ditto_phase_latency_seconds` family from a text exposition
/// page into per-phase summaries.
fn read_exposition(label: &str, text: &str) -> BTreeMap<String, PagePhase> {
    let mut phases: BTreeMap<String, PagePhase> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("ditto_phase_latency_seconds") else {
            continue;
        };
        let (labels, value) = rest
            .split_once("} ")
            .unwrap_or_else(|| panic!("{label}: malformed metric line {line:?}"));
        let phase = labels
            .split_once("phase=\"")
            .and_then(|(_, p)| p.split('"').next())
            .unwrap_or_else(|| panic!("{label}: metric line without phase label: {line:?}"));
        assert!(
            Phase::from_name(phase).is_some(),
            "{label}: exposition names unknown phase {phase:?}"
        );
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{label}: bad metric value {line:?}: {e}"));
        let entry = phases.entry(phase.to_string()).or_default();
        if rest.starts_with("_count") {
            entry.count = value as u64;
        } else if rest.starts_with("_sum") {
            entry.sum_s = value;
        } else if labels.contains("quantile=\"0.5\"") {
            entry.p50_s = value;
        } else if labels.contains("quantile=\"0.99\"") {
            entry.p99_s = value;
        }
    }
    phases
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, prom_path) = match args.as_slice() {
        [trace] => (trace.clone(), None),
        [trace, prom] => (trace.clone(), Some(prom.clone())),
        _ => {
            eprintln!("usage: obs_report TRACE.json [EXPOSITION.prom]");
            std::process::exit(2);
        }
    };

    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("cannot read {trace_path}: {e}"));
    let (traces, instants, window_s) = read_trace(&trace_path, &text);
    let span_total: usize = traces.iter().map(|(_, s)| s.len()).sum();
    println!(
        "obs_report: {trace_path} — {span_total} spans on {} client(s), {:.3} ms window",
        traces.len(),
        window_s * 1e3
    );

    // Critical-path attribution: serialize the pipelined overlap and show
    // where op time actually goes, overall and in the p99 tail.
    let table = attribution(&traces);
    println!();
    print!("{}", table.format());
    println!(
        "raw span time {:.1} us, serialized {:.1} us -> the pipeline hid {:.1} us ({:.1}% of raw)",
        table.raw_ns as f64 / 1e3,
        table.critical_ns as f64 / 1e3,
        table.overlap_saved_ns() as f64 / 1e3,
        100.0 * table.overlap_saved_ns() as f64 / table.raw_ns.max(1) as f64,
    );
    assert!(table.ops > 0, "{trace_path}: trace attributes no ops");
    assert!(
        table.attributed_pct() <= 100.0,
        "{trace_path}: serialized time exceeds elapsed op time ({} > {} ns)",
        table.critical_ns,
        table.elapsed_ns
    );

    // Event-rate table: instant markers per kind over the span window.
    if !instants.is_empty() {
        println!("\nevent                    count      per-second");
        for (kind, count) in &instants {
            let rate = *count as f64 / window_s.max(1e-9);
            println!("{kind:<22} {count:>8} {rate:>15.1}");
        }
    } else {
        println!("\n(no instant events in the trace window)");
    }

    // Exposition page: per-phase histogram quantiles, gated non-empty.
    if let Some(prom_path) = prom_path {
        let page = std::fs::read_to_string(&prom_path)
            .unwrap_or_else(|e| panic!("cannot read {prom_path}: {e}"));
        let phases = read_exposition(&prom_path, &page);
        assert!(
            !phases.is_empty(),
            "{prom_path}: armed run's exposition page names no phase histograms"
        );
        for phase in REQUIRED_PHASES {
            assert!(
                phases.get(phase.name()).is_some_and(|p| p.count > 0),
                "{prom_path}: always-on phase {:?} is missing or empty — the span → \
                 histogram plumbing broke",
                phase.name()
            );
        }
        println!("\nexposition phase histograms ({prom_path}):");
        println!("phase          count    p50_us    p99_us     mean_us");
        for (name, p) in &phases {
            // Configuration-dependent phases may be absent entirely, but a
            // histogram the page *names* must have fills behind it.
            assert!(
                p.count > 0,
                "{prom_path}: phase histogram {name:?} is named on the page but empty"
            );
            println!(
                "{name:<11} {:>8} {:>9.2} {:>9.2} {:>11.2}",
                p.count,
                p.p50_s * 1e6,
                p.p99_s * 1e6,
                p.sum_s * 1e6 / p.count as f64,
            );
        }
    }

    println!("\nobs_report: OK");
}
