//! Tests that need the whole binary: the registry against `BENCHMARK.json`,
//! the command line, and a small run of every workload.

use super::*;

/// Just enough JSON to read `BENCHMARK.json` and the result line back.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Self::value(&mut chars);
        assert!(chars.all(char::is_whitespace), "trailing text after JSON");
        value
    }

    fn value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        while chars.next_if(|c| c.is_whitespace()).is_some() {}
        match chars.next().expect("unexpected end of JSON") {
            '{' => Json::Obj(Self::items(chars, '}', |chars| {
                let Json::Str(key) = Self::value(chars) else {
                    panic!("object key must be a string")
                };
                while chars.next_if(|c| c.is_whitespace()).is_some() {}
                assert_eq!(chars.next(), Some(':'));
                (key, Self::value(chars))
            })),
            '[' => Json::Arr(Self::items(chars, ']', Self::value)),
            '"' => {
                let mut out = String::new();
                loop {
                    match chars.next().expect("unterminated string") {
                        '"' => break,
                        '\\' => out.push(chars.next().expect("dangling escape")),
                        c => out.push(c),
                    }
                }
                Json::Str(out)
            }
            't' => Self::literal(chars, "rue", Json::Bool(true)),
            'f' => Self::literal(chars, "alse", Json::Bool(false)),
            first => {
                let mut number = String::from(first);
                while let Some(c) = chars.next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c)) {
                    number.push(c);
                }
                Json::Num(number.parse().expect("a JSON number"))
            }
        }
    }

    fn literal(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        rest: &str,
        value: Json,
    ) -> Json {
        for expected in rest.chars() {
            assert_eq!(chars.next(), Some(expected));
        }
        value
    }

    fn items<T>(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        close: char,
        mut item: impl FnMut(&mut std::iter::Peekable<std::str::Chars<'_>>) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            while chars.next_if(|c| c.is_whitespace() || *c == ',').is_some() {}
            if chars.next_if_eq(&close).is_some() {
                return out;
            }
            out.push(item(chars));
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("not an object: {self:?}")
        };
        &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn keys(&self) -> Vec<&str> {
        let Json::Obj(fields) = self else {
            panic!("not an object: {self:?}")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn arr(&self) -> &[Json] {
        let Json::Arr(items) = self else {
            panic!("not an array: {self:?}")
        };
        items
    }

    fn str(&self) -> &str {
        let Json::Str(s) = self else {
            panic!("not a string: {self:?}")
        };
        s
    }

    fn num(&self) -> f64 {
        let Json::Num(n) = self else {
            panic!("not a number: {self:?}")
        };
        *n
    }
}

#[test]
fn list_output_equals_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"));
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let mut lines = Vec::new();
    for w in doc.get("workloads").arr() {
        assert_eq!(w.keys(), ["name", "why"]);
        lines.push(format!(
            "workload\t{}\t{}",
            w.get("name").str(),
            w.get("why").str()
        ));
    }
    for (section, keys) in [
        ("end_to_end", &["name", "unit", "better", "bound"][..]),
        ("per_layer", &["name", "unit", "better"][..]),
    ] {
        for m in doc.get(section).arr() {
            assert_eq!(m.keys(), keys);
            let mut line = format!(
                "{section}\t{}\t{}\t{}",
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str()
            );
            if section == "end_to_end" {
                line.push_str(&format!("\t{}", m.get("bound").num()));
            }
            lines.push(line);
        }
    }
    assert_eq!(lines, registry_lines());

    assert_eq!(doc.get("run_seconds").num(), DEFAULT_SECONDS as f64);
    let paths: Vec<&str> = doc.get("paths").arr().iter().map(Json::str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"benchmark/Cargo.toml") && command.last() == Some(&"--"));
}

fn args(line: &str) -> Result<Args, String> {
    parse_args(line.split_whitespace().map(String::from))
}

#[test]
fn command_line_defaults_and_budget() {
    let a = args("").unwrap();
    assert_eq!((a.seed, a.repeat, a.trace, a.list), (42, 1, None, false));
    assert!(a.workload.is_none());
    assert_eq!(a.requests, DEFAULT_SECONDS * REQUESTS_PER_BUDGET_SECOND);

    // The driver's way of calling.
    let a = args("--workload read_evict --seed 7 --seconds 3 --trace 1").unwrap();
    assert_eq!(a.workload.unwrap().name, "read_evict");
    assert_eq!((a.seed, a.trace), (7, Some(true)));
    assert_eq!(a.requests, 3 * REQUESTS_PER_BUDGET_SECOND);

    // --requests wins over --seconds and is cut to whole windows and phases.
    let a = args("--seconds 3 --requests 20019 --repeat 2").unwrap();
    assert_eq!((a.requests, a.repeat), (20_000, 2));
    assert!(args("--list").unwrap().list);
}

#[test]
fn command_line_rejects_what_it_does_not_know() {
    for bad in [
        "--workload nope",
        "--trace 2",
        "--seed",
        "--seed x",
        "--requests 10",
        "--seconds 0",
        "--repeat 0",
        "--frobnicate 1",
    ] {
        assert!(args(bad).is_err(), "{bad:?} must be rejected");
    }
}

/// Both runs of one workload at the smallest size: the oracle holds, tracing
/// changes nothing simulated, no span is lost, and the result lines carry
/// exactly the registry's names.
fn smoke(name: &str) {
    const REQUESTS: u64 = 20_000;
    let workload = workloads::by_name(name).expect("workload exists");

    let (untraced, _) = run_untraced(workload, 42, REQUESTS, 1);
    assert_eq!((untraced.attempted, untraced.failed), (REQUESTS, 0));
    let line = Json::parse(&untraced.json());
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), &Json::Bool(true));
    let e2e = metrics::end_to_end();
    let names: Vec<&str> = e2e.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(line.get("metrics").keys(), names);
    for d in &e2e {
        let m = line.get("metrics").get(&d.name);
        assert_eq!(m.keys(), ["value", "unit"]);
        assert_eq!(m.get("unit").str(), d.unit);
        assert!(m.get("value").num() > 0.0, "{} must never be 0", d.name);
    }

    let traced = run_traced(workload, 42, REQUESTS);
    assert_eq!((traced.attempted, traced.failed), (REQUESTS, 0));
    let value = |metric: &str| traced.values.get(metric).map_or(0.0, |m| m.value);
    assert_eq!(value("bench.trace.sim_overhead_pct"), 0.0);
    assert_eq!(value("dm.obs.spans_dropped"), 0.0);
    let critical: f64 = ditto_dm::Phase::ALL
        .iter()
        .map(|p| value(&format!("dm.obs.phase.{}.critical_share_pct", p.name())))
        .sum();
    assert!(
        critical > 0.0 && critical <= 100.0 + 1e-9,
        "critical shares sum to {critical}"
    );
    let line = Json::parse(&traced.json());
    let layers = metrics::per_layer();
    let names: Vec<&str> = layers.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(line.get("metrics").keys(), names);

    // Another seed is another input (that the same seed repeats exactly is
    // what the traced run's agreement check above already proved).
    let (other_seed, _) = run_untraced(workload, 43, REQUESTS, 1);
    assert_eq!(other_seed.failed, 0);
    assert!(!report::simulated_metrics_agree(
        &e2e,
        &untraced.values,
        &other_seed.values
    ));
}

#[test]
fn smoke_read_hot() {
    smoke("read_hot");
}

#[test]
fn smoke_read_evict() {
    smoke("read_evict");
}

#[test]
fn smoke_update_heavy() {
    smoke("update_heavy");
}

#[test]
fn smoke_tiered_skew() {
    smoke("tiered_skew");
}

#[test]
fn smoke_shifting_mix() {
    smoke("shifting_mix");
}

#[test]
fn smoke_elastic_resize() {
    smoke("elastic_resize");
}
