//! Smoke-sized checks of the benchmark itself: every workload at a tiny
//! size passes its correctness checks, traced and untraced, the traced
//! run accounts operation wall time, and `BENCHMARK.json` carries only
//! the fixed fields, in step with the metrics the code prints.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use perfbench::spans::{Kind, Span};
use perfbench::{Args, RunOutcome, Scale};

fn smoke(workload: &str, trace: bool) -> RunOutcome {
    let args = Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0,
        trace,
    };
    let outcome = if workload == "serve" {
        perfbench::serve::run(
            &args,
            Scale::SMOKE,
            Instant::now(),
            Path::new(env!("CARGO_BIN_EXE_pathmark")),
        )
    } else {
        perfbench::run(&args, Scale::SMOKE, Instant::now())
    };
    let outcome = outcome.unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.correct, "{workload}: {:?}", outcome.problems);
    assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0, "{workload}: no operations");
    outcome
}

fn value(outcome: &RunOutcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_workload_passes_its_checks_at_a_tiny_size() {
    for workload in perfbench::WORKLOADS {
        let untraced = smoke(workload, false);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = perfbench::END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want, "{workload}");
        for m in &untraced.metrics {
            if m.name != "op_p50_ms" && m.name != "op_p99_ms" {
                assert!(m.value > 0.0, "{workload}: {} reads {}", m.name, m.value);
            }
        }

        let traced = smoke(workload, true);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = perfbench::per_layer_metrics()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, want, "{workload}");
        assert!(value(&traced, "op.tracing_overhead") > 0.0, "{workload}");
        let mean_root_ms = assert_accounted(workload, &traced.spans);
        if workload != "serve" {
            // On serve the residual is the client's own protocol work.
            let residual_ms = value(&traced, "op.residual_ms");
            assert!(
                residual_ms <= 0.05 * mean_root_ms,
                "{workload}: residual {residual_ms} ms of a {mean_root_ms} ms operation"
            );
        }
    }
}

/// Checks a traced run's span accounting from the raw spans: every
/// child span belongs to a root and starts and ends inside it, and a
/// root's children together take no longer than it, so its layer self
/// times and residual add up to its wall time. Returns the mean root
/// duration in ms.
fn assert_accounted(workload: &str, spans: &[Span]) -> f64 {
    let roots: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::Root)
        .map(|s| (s.op, s))
        .collect();
    assert!(!roots.is_empty(), "{workload}: no root spans");
    let mut inside: BTreeMap<u64, u64> = BTreeMap::new();
    for child in spans.iter().filter(|s| s.kind == Kind::Child) {
        let root = roots
            .get(&child.op)
            .unwrap_or_else(|| panic!("{workload}: {} has no root", child.name));
        assert!(
            child.start_ns >= root.start_ns
                && child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns,
            "{workload}: {} {child:?} outside its root {root:?}",
            child.name
        );
        *inside.entry(child.op).or_insert(0) += child.dur_ns;
    }
    for (op, root) in &roots {
        let children = inside.get(op).copied().unwrap_or(0);
        assert!(
            children <= root.dur_ns,
            "{workload}: children {children} ns exceed root {root:?}"
        );
    }
    roots.values().map(|r| r.dur_ns as f64).sum::<f64>() / roots.len() as f64 / 1e6
}

#[test]
fn traced_recognition_is_fully_attributed() {
    let traced = smoke("recognize", true);
    for layer in [
        "stackvm.codec.decode_ms",
        "core.session.derive_ms",
        "core.scanner.fused_ms",
        "core.recognize.decrypt_ms",
        "math.crt.combine_ms",
    ] {
        assert!(value(&traced, layer) > 0.0, "{layer}");
    }
    assert_eq!(value(&traced, "core.session.derives_per_op"), 1.0);
    assert!(value(&traced, "stackvm.insns_per_op") > 0.0);
    assert_eq!(value(&traced, "core.scanner.failed"), 0.0);
}

/// A minimal JSON reader: enough to hold `BENCHMARK.json` to its shape.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn parse(text: &str) -> Json {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let json = value_at(&chars, &mut pos);
    skip_ws(&chars, &mut pos);
    assert_eq!(pos, chars.len(), "trailing characters");
    json
}

fn skip_ws(s: &[char], pos: &mut usize) {
    while *pos < s.len() && s[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn value_at(s: &[char], pos: &mut usize) -> Json {
    skip_ws(s, pos);
    match s[*pos] {
        '"' => {
            *pos += 1;
            let start = *pos;
            while s[*pos] != '"' {
                assert_ne!(s[*pos], '\\', "no escapes expected");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(s[start..*pos - 1].iter().collect())
        }
        '[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(s, pos);
                if s[*pos] == ']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(value_at(s, pos));
                skip_ws(s, pos);
                if s[*pos] == ',' {
                    *pos += 1;
                }
            }
        }
        '{' => {
            *pos += 1;
            let mut fields = BTreeMap::new();
            loop {
                skip_ws(s, pos);
                if s[*pos] == '}' {
                    *pos += 1;
                    return Json::Obj(fields);
                }
                let Json::Str(key) = value_at(s, pos) else {
                    panic!("object key must be a string")
                };
                skip_ws(s, pos);
                assert_eq!(s[*pos], ':');
                *pos += 1;
                assert!(
                    fields.insert(key.clone(), value_at(s, pos)).is_none(),
                    "duplicate key {key}"
                );
                skip_ws(s, pos);
                if s[*pos] == ',' {
                    *pos += 1;
                }
            }
        }
        _ => {
            let start = *pos;
            while *pos < s.len() && (s[*pos].is_ascii_digit() || s[*pos] == '.' || s[*pos] == '-') {
                *pos += 1;
            }
            Json::Num(
                s[start..*pos]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .expect("a number"),
            )
        }
    }
}

fn obj(json: &Json) -> &BTreeMap<String, Json> {
    match json {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn arr(json: &Json) -> &[Json] {
    match json {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn str_of(json: &Json) -> &str {
    match json {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn keys(json: &Json) -> Vec<&str> {
    obj(json).keys().map(String::as_str).collect()
}

#[test]
fn benchmark_json_carries_only_the_fixed_fields() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json =
        parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"));
    let mut top = keys(&json);
    top.sort_unstable();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let root = obj(&json);

    let workloads: Vec<&str> = arr(&root["workloads"])
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            str_of(&obj(w)["name"])
        })
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);

    let end_to_end: Vec<(&str, &str)> = arr(&root["end_to_end"])
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
            let Json::Num(bound) = obj(m)["bound"] else {
                panic!("bound must be a number")
            };
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            (str_of(&obj(m)["name"]), str_of(&obj(m)["unit"]))
        })
        .collect();
    assert_eq!(end_to_end, perfbench::END_TO_END);

    let per_layer: Vec<(String, String, String)> = arr(&root["per_layer"])
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["better", "name", "unit"]);
            let f = obj(m);
            (
                str_of(&f["name"]).to_string(),
                str_of(&f["unit"]).to_string(),
                str_of(&f["better"]).to_string(),
            )
        })
        .collect();
    let want: Vec<(String, String, String)> = perfbench::per_layer_metrics()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    if per_layer != want {
        let lines: Vec<String> = want
            .iter()
            .map(|(n, u, b)| {
                format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
            })
            .collect();
        panic!(
            "per_layer differs from the code; expected:\n{}",
            lines.join(",\n")
        );
    }
}
