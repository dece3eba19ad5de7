//! Trace smoke: the flight-recorder pipeline, validated end to end, and the
//! trace artifacts `obs_report` reads.
//!
//! Runs a short, seeded, pipelined YCSB-C window with the flight recorder
//! armed, then gates the whole observability path:
//!
//! 1. **In-memory invariants** — zero span drops at this ring size, every
//!    pool op left at least one span (distinct non-zero op ids == the
//!    pool's op counter; op id 0 marks spans recorded between ops),
//!    per-phase record order is clock-ordered, and the pipelined lookup
//!    produced **≥ 2 overlapping `flight` spans on one client**
//!    (both bucket READs of a lookup share a doorbell, so their flight
//!    windows must overlap — the signature of the posted-WQE data path).
//! 2. **Emitted document** — the Chrome-tracing JSON written by
//!    [`ditto_dm::obs::chrome_trace_json`] re-parses with the hand-rolled
//!    JSON reader in [`ditto_bench::jsonv`] (no third-party parser in the
//!    tree), carries exactly one complete event per span and one instant
//!    per log event, keeps per-client `flight` spans timestamp-ordered,
//!    and leads with the Perfetto row-label metadata (`"ph":"M"`
//!    process/thread names) so trace viewers label rows `client-<id>`.
//!
//! It then writes the document to `ditto_trace.json` (open it in Perfetto)
//! and, once the client has dropped and folded its per-phase histograms into
//! the pool, the Prometheus exposition page to `ditto_trace.prom` — both in
//! the working directory, for `obs_report`.  Exits non-zero on any violation.
//!
//! ```text
//! cargo run --release -p ditto-bench --bin trace_smoke
//! cargo run --release -p ditto-bench --bin obs_report -- ditto_trace.json ditto_trace.prom
//! ```

use ditto_bench::jsonv::{self, Json};
use ditto_core::{DittoCache, DittoConfig};
use ditto_dm::obs::{chrome_trace_json, Phase, Span};
use ditto_dm::DmConfig;
use ditto_workloads::{YcsbSpec, YcsbWorkload};
use std::collections::BTreeMap;

/// Where the Chrome-tracing document and the exposition page are written.
const TRACE_PATH: &str = "ditto_trace.json";
const PROM_PATH: &str = "ditto_trace.prom";

/// Parses `text` as a Chrome trace and gates the document invariants.
/// Returns (complete events, instant events, overlapping-flight-pair
/// count, metadata records) for the caller's own assertions.
fn validate_trace_document(text: &str) -> (usize, usize, usize, usize) {
    let doc = jsonv::parse(text).unwrap_or_else(|e| panic!("emitted trace is not valid JSON: {e}"));
    let events = doc.get("traceEvents").expect("missing traceEvents");
    let Json::Arr(entries) = events else {
        panic!("traceEvents is not an array");
    };
    let mut complete = 0usize;
    let mut instants = 0usize;
    let mut metadata = 0usize;
    // Per-tid flight spans as (ts, ts+dur), in document order.
    let mut flights: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    for entry in entries {
        let ph = entry
            .get("ph")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("trace entry without ph: {entry:?}"));
        let tid = entry
            .get("tid")
            .and_then(Json::as_f64)
            .expect("trace entry without tid") as i64;
        match ph {
            "X" => {
                complete += 1;
                let ts = entry.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = entry.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(dur >= 0.0, "negative span duration");
                let name = entry.get("name").and_then(Json::as_str).expect("name");
                if name == "flight" {
                    flights.entry(tid).or_default().push((ts, ts + dur));
                }
            }
            "i" => instants += 1,
            "M" => {
                // Perfetto row-label metadata: a process_name for the pool
                // and one thread_name per client, each naming itself in
                // args.name.
                metadata += 1;
                let kind = entry.get("name").and_then(Json::as_str).expect("name");
                assert!(
                    kind == "process_name" || kind == "thread_name",
                    "unknown metadata record {kind:?}"
                );
                let named = entry
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("metadata record without args.name");
                assert!(!named.is_empty(), "empty metadata name");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    let mut overlapping_pairs = 0usize;
    for (tid, spans) in &flights {
        for pair in spans.windows(2) {
            // Flight spans of one client are recorded in ring order, so
            // their start timestamps must never regress…
            assert!(
                pair[1].0 >= pair[0].0,
                "client {tid} flight spans out of order: {pair:?}"
            );
            // …and two spans posted behind one doorbell share their start,
            // making them overlap (strictly, when both have width).
            if pair[0].0 < pair[1].1 && pair[1].0 < pair[0].1 {
                overlapping_pairs += 1;
            }
        }
    }
    (complete, instants, overlapping_pairs, metadata)
}

fn main() {
    let spec = YcsbSpec {
        record_count: 2_000,
        request_count: 5_000,
        ..YcsbSpec::default()
    }
    .with_seed(42);
    let capacity = spec.record_count * 7 / 10;
    let dm = DmConfig::default().with_flight_recorder(1 << 18);
    let cache = DittoCache::with_dedicated_pool(DittoConfig::with_capacity(capacity), dm).unwrap();
    let mut client = cache.client();

    let mut value = vec![0u8; spec.value_size as usize];
    for key in 0..spec.record_count {
        value.fill(key as u8);
        client.set(&key.to_le_bytes(), &value);
    }
    client.dm().publish_clock();
    cache.pool().reset_stats();
    client.dm().clear_flight_recorder();
    let obs_before = cache.pool().stats().obs();

    let mut value_buf = Vec::with_capacity(spec.value_size as usize);
    for request in spec.run_requests(YcsbWorkload::C) {
        let key = request.key_bytes();
        if !client.get_into(&key, &mut value_buf) {
            value.fill(request.key as u8);
            client.set(&key, &value);
        }
    }
    client.flush();

    let ops = cache.pool().stats().ops();
    let obs = cache.pool().stats().obs().delta(&obs_before);
    let spans: Vec<Span> = client.dm().flight_spans();
    let events = cache.pool().events_snapshot();
    eprintln!(
        "trace_smoke: {ops} ops, {} spans ({} dropped), {} events",
        spans.len(),
        obs.spans_dropped,
        events.len()
    );

    // Gate 1: the ring was sized for the window — nothing dropped, and the
    // recorder view is complete.
    assert_eq!(obs.spans_dropped, 0, "ring too small for the smoke window");
    assert_eq!(
        spans.len() as u64,
        obs.spans_recorded,
        "recorder/stats span tally diverged"
    );

    // Gate 2: every pool op left at least one span, and no spans invented
    // ops — distinct non-zero op ids must match the pool's op counter
    // exactly (op id 0 marks spans recorded between ops: a deferred
    // re-sample's READ, the final flush).
    let mut op_ids: Vec<u64> = spans
        .iter()
        .map(|s| s.op_id)
        .filter(|&id| id != 0)
        .collect();
    op_ids.sort_unstable();
    op_ids.dedup();
    assert_eq!(
        op_ids.len() as u64,
        ops,
        "distinct op ids in the flight recorder must equal the pool's op count"
    );

    // Gate 3: record order within each phase follows the simulated clock.
    let mut last_start: BTreeMap<Phase, u64> = BTreeMap::new();
    for span in &spans {
        let last = last_start.entry(span.phase).or_insert(0);
        assert!(
            span.start_ns >= *last,
            "{:?} span start regressed: {} after {}",
            span.phase,
            span.start_ns,
            last
        );
        *last = span.start_ns;
        assert!(span.end_ns >= span.start_ns, "span ends before it starts");
    }

    // Gate 4: the pipelined data path visibly overlapped verbs — at least
    // two flight spans of this client share wire time.
    let flight: Vec<&Span> = spans.iter().filter(|s| s.phase == Phase::Flight).collect();
    let overlapping = flight
        .windows(2)
        .filter(|pair| pair[0].overlaps(pair[1]))
        .count();
    assert!(
        overlapping >= 1,
        "pipelined lookups must produce >=2 overlapping flight spans on one client \
         ({} flight spans, none overlapping)",
        flight.len()
    );

    // Gate 5: the emitted Chrome document re-parses and preserves counts,
    // including the Perfetto row-label metadata (one process_name plus one
    // thread_name per client).
    let json = chrome_trace_json(&[(client.dm().client_id(), spans.clone())], &events);
    let (complete, instants, file_overlaps, metadata) = validate_trace_document(&json);
    assert_eq!(complete, spans.len(), "one complete event per span");
    assert_eq!(instants, events.len(), "one instant per log event");
    assert_eq!(
        metadata, 2,
        "one process_name plus one thread_name for the single client"
    );
    assert!(
        file_overlaps >= 1,
        "the emitted document must preserve the overlapping flight spans"
    );
    std::fs::write(TRACE_PATH, &json).expect("write trace file");
    eprintln!(
        "trace_smoke: OK — {complete} spans, {instants} events, {file_overlaps} overlapping \
         flight pairs ({TRACE_PATH})"
    );

    // The companion exposition page: dropping the client folds its
    // per-phase histograms into the pool.
    drop(client);
    std::fs::write(PROM_PATH, cache.text_exposition()).expect("write exposition page");
    eprintln!("trace_smoke: wrote the exposition page to {PROM_PATH}");
}
