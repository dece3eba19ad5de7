//! The repo benchmark: six deterministic workloads driven closed-loop by one
//! thread over the simulated RDMA fabric.  See `README.md` beside this crate
//! for the metric glossary and `BENCHMARK.json` at the repo root for the
//! contract the driver checks.

mod alloc;
mod driver;
mod kernels;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use driver::{run_pass, Pass};
use metrics::{MetricDef, Values};
use std::process::ExitCode;
use workloads::{setup, Workload, REQUEST_GRANULE, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Measured requests per second of `--seconds` budget.  The request count —
/// not a host deadline — ends a run, so a seed gives the same inputs, the
/// same simulated metrics and the same counts on any machine; this rate is
/// what the reference 2-core host replays, so a run there measures for about
/// the budget.
const REQUESTS_PER_BUDGET_SECOND: u64 = 250_000;

/// `--seconds` when neither it nor `--requests` is given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 8;

/// Set-ups an untraced run makes; `setup_s` is the median of their times.
const SETUPS_PER_RUN: usize = 5;

/// Flight-recorder ring slots per measured request: a sampled op records at
/// most a few dozen spans and one op in sixteen is sampled, so this retains
/// every span of the measured windows (`dm.obs.spans_dropped` checks it).
const RECORDER_SPANS_PER_REQUEST: usize = 2;

/// Extra ring slots on `elastic_resize`: the completion pumps between
/// windows run on a client of their own that records every span of moving
/// the table (about a million, whatever the request count).
const RECORDER_SPANS_FOR_MIGRATION: usize = 1 << 21;

const USAGE: &str =
    "usage: ditto-benchmark [--workload NAME] [--seed N] [--seconds N | --requests N] \
[--trace 0|1] [--repeat K] [--list]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    requests: u64,
    trace: Option<bool>,
    repeat: usize,
    list: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        requests: DEFAULT_SECONDS * REQUESTS_PER_BUDGET_SECOND,
        trace: None,
        repeat: 1,
        list: false,
    };
    let mut seconds = None;
    let mut requests = None;
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            args.list = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(workloads::by_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--requests" => requests = Some(number()?),
            "--repeat" => args.repeat = number()? as usize,
            "--trace" => {
                args.trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(seconds) = seconds {
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds must be 1..=600, got {seconds}"));
        }
        args.requests = seconds * REQUESTS_PER_BUDGET_SECOND;
    }
    if let Some(requests) = requests {
        args.requests = requests / REQUEST_GRANULE * REQUEST_GRANULE;
    }
    if !(REQUEST_GRANULE * 1_000..=200_000_000).contains(&args.requests) {
        return Err(format!(
            "requests must be {}..=200000000, got {}",
            REQUEST_GRANULE * 1_000,
            args.requests
        ));
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    Ok(args)
}

/// Every name of the registry as one tab-separated line, in
/// `BENCHMARK.json` order: what `--list` prints.
fn registry_lines() -> Vec<String> {
    let mut lines: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("workload\t{}\t{}", w.name, w.why))
        .collect();
    for (section, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| format!("\t{b}"));
            lines.push(format!(
                "{section}\t{}\t{}\t{}{bound}",
                d.name,
                d.unit,
                d.better()
            ));
        }
    }
    lines
}

/// What one (workload, trace mode) run produced.
struct RunResult {
    workload: &'static Workload,
    traced: bool,
    defs: Vec<MetricDef>,
    values: Values,
    attempted: u64,
    failed: u64,
}

impl RunResult {
    fn json(&self) -> String {
        report::result_json(&self.defs, &self.values, self.attempted, self.failed)
    }
}

/// The untraced run: `setups` timed set-ups, one pass over the last.
fn run_untraced(
    workload: &'static Workload,
    seed: u64,
    requests: u64,
    setups: usize,
) -> (RunResult, Pass) {
    let mut scenario = setup(workload, seed, requests, 0, None);
    let mut setup_seconds = vec![scenario.setup_seconds];
    for _ in 1..setups {
        // Dropped first, so two pools are never alive at once.
        drop(scenario);
        scenario = setup(workload, seed, requests, 0, None);
        setup_seconds.push(scenario.setup_seconds);
    }
    let pass = run_pass(&mut scenario, false);
    let defs = metrics::end_to_end();
    let values = report::end_to_end(workload, &pass, &setup_seconds);
    values.assert_all_defined(&defs);
    let result = RunResult {
        workload,
        traced: false,
        defs,
        values,
        attempted: pass.requests,
        failed: pass.failed,
    };
    (result, pass)
}

/// Hit rate of the trace replayed with one fixed eviction algorithm.
fn fixed_expert_hit_rate(
    workload: &'static Workload,
    seed: u64,
    requests: u64,
    expert: &str,
) -> f64 {
    let mut scenario = setup(workload, seed, requests, 0, Some(expert));
    let pass = run_pass(&mut scenario, false);
    pass.cache.hits as f64 / (pass.cache.hits + pass.cache.misses) as f64
}

/// The traced run: an untraced pass for counts and host baseline, a traced
/// pass with the flight recorder armed, the host kernels, and — on the
/// adaptive workload — the two fixed-expert replays.
fn run_traced(workload: &'static Workload, seed: u64, requests: u64) -> RunResult {
    let mut scenario = setup(workload, seed, requests, 0, None);
    let mut generator_ns_per_request = vec![scenario.generator_ns_per_request];
    let untraced = run_pass(&mut scenario, false);
    drop(scenario);

    let recorder_spans = requests as usize * RECORDER_SPANS_PER_REQUEST
        + usize::from(workload.elastic) * RECORDER_SPANS_FOR_MIGRATION;
    let mut scenario = setup(workload, seed, requests, recorder_spans, None);
    generator_ns_per_request.push(scenario.generator_ns_per_request);
    let traced = run_pass(&mut scenario, true);
    let kernels = kernels::run(&mut scenario, seed);
    drop(scenario);

    let fixed_expert_hit_rates = (workload.trace == workloads::TraceKind::Changing).then(|| {
        (
            fixed_expert_hit_rate(workload, seed, requests, "lru"),
            fixed_expert_hit_rate(workload, seed, requests, "lfu"),
        )
    });

    let trace = traced.traced.as_ref().expect("traced pass");
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let trace_path = out_dir.join(format!("{}.host_trace.json", workload.name));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_path, spans::chrome_trace_json(trace.spans.spans())));
    match written {
        Ok(()) => eprintln!(
            "   wrote {} host spans to {}",
            trace.spans.spans().len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("   could not write {}: {e}", trace_path.display()),
    }

    // Tracing must change nothing simulated, and the ring must have kept
    // every sampled span; otherwise the per-layer numbers describe another
    // run than the end-to-end ones.
    let e2e = metrics::end_to_end();
    let agree = report::simulated_metrics_agree(
        &e2e,
        &report::end_to_end(workload, &untraced, &[0.0]),
        &report::end_to_end(workload, &traced, &[0.0]),
    );
    if !agree {
        eprintln!("   FAILED: the traced pass's simulated metrics differ from the untraced pass's");
    }
    if trace.obs.spans_dropped != 0 {
        eprintln!(
            "   FAILED: the flight recorder dropped {} spans",
            trace.obs.spans_dropped
        );
    }
    let failed = untraced.failed.max(traced.failed)
        + u64::from(!agree)
        + u64::from(trace.obs.spans_dropped != 0);

    let defs = metrics::per_layer();
    let values = report::per_layer(
        workload,
        report::LayerInputs {
            untraced: &untraced,
            traced: &traced,
            generator_ns_per_request,
            fixed_expert_hit_rates,
            kernels,
        },
    );
    values.assert_all_defined(&defs);
    RunResult {
        workload,
        traced: true,
        defs,
        values,
        attempted: untraced.requests,
        failed,
    }
}

/// `--repeat K`: the untraced run K times in this process; every simulated
/// and counted end-to-end metric must be identical across repeats and
/// `setup_s` must stay inside its bound of the first repeat's.
fn run_untraced_repeated(
    workload: &'static Workload,
    seed: u64,
    requests: u64,
    repeat: usize,
) -> (RunResult, bool) {
    let (first, pass) = run_untraced(workload, seed, requests, SETUPS_PER_RUN);
    report::print_table(
        &format!(
            "{} end-to-end (untraced pass, seed {seed}, {requests} requests)",
            workload.name
        ),
        &first.defs,
        &first.values,
    );
    report::print_highest_percentiles(&pass);
    drop(pass);
    let mut agree = true;
    let setup = |r: &RunResult| r.values.get("setup_s").expect("setup_s").value;
    let setup_bound = first
        .defs
        .iter()
        .find(|d| d.name == "setup_s")
        .and_then(|d| d.bound)
        .expect("setup_s is bounded");
    for k in 1..repeat {
        let (again, _) = run_untraced(workload, seed, requests, SETUPS_PER_RUN);
        if !report::simulated_metrics_agree(&first.defs, &first.values, &again.values) {
            eprintln!("   FAILED: repeat {k} disagrees on a simulated or counted metric");
            report::print_table("disagreeing repeat", &again.defs, &again.values);
            agree = false;
        }
        let worsening = setup(&again) / setup(&first) - 1.0;
        if worsening > setup_bound {
            eprintln!(
                "   FAILED: repeat {k} set up {:.1}% slower",
                worsening * 100.0
            );
            agree = false;
        }
    }
    if repeat > 1 && agree {
        eprintln!("   {repeat} repeats agree on every simulated and counted metric");
    }
    (first, agree)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for line in registry_lines() {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    let mut repeats_agree = true;
    for workload in selected {
        if args.trace != Some(true) {
            let (result, agree) =
                run_untraced_repeated(workload, args.seed, args.requests, args.repeat);
            repeats_agree &= agree;
            results.push(result);
        }
        if args.trace != Some(false) {
            let result = run_traced(workload, args.seed, args.requests);
            report::print_table(
                &format!(
                    "{} per-layer (traced run, seed {}, {} requests)",
                    workload.name, args.seed, args.requests
                ),
                &result.defs,
                &result.values,
            );
            results.push(result);
        }
    }

    // One run (the driver's way of calling) prints the contract's object;
    // several print one document holding each run's object.
    if let [only] = results.as_slice() {
        println!("{}", only.json());
    } else {
        let runs: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                    r.workload.name,
                    u8::from(r.traced),
                    r.json()
                )
            })
            .collect();
        println!(
            "{{\"seed\": {}, \"requests\": {}, \"runs\": [{}]}}",
            args.seed,
            args.requests,
            runs.join(", ")
        );
    }

    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if failed > 0 || !repeats_agree {
        eprintln!(
            "FAILED: {failed} failed operations or invariants; repeats agree: {repeats_agree}"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
