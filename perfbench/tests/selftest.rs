//! Self-test of the benchmark: short (`--quick`) runs of every workload.
//!
//! Checks that every metric `BENCHMARK.json` declares is emitted, with its
//! declared unit, by untraced and traced runs; and that a corrupted
//! expected answer in the oracle shows up as failed operations (a lower
//! `ok_rate`, `correct: false`) instead of aborting the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use ctxform_server::Json;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, key: &str) -> BTreeMap<String, String> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn workloads(bench: &Json) -> Vec<String> {
    bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

/// Runs a shortened workload and returns the parsed result line.
fn run(workload: &str, trace: u8, oracle: Option<&Path>) -> Json {
    let mut cmd = Command::new(BIN);
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--quick"]);
    if let Some(path) = oracle {
        cmd.arg("--oracle").arg(path);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).expect("value");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), (value, unit.to_owned()))
            })
            .collect(),
        _ => panic!("result has no metrics object"),
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = benchmark();
    let lists = [
        (0u8, declared(&bench, "end_to_end")),
        (1, declared(&bench, "per_layer")),
    ];
    for workload in workloads(&bench) {
        for (trace, expected) in &lists {
            let result = run(&workload, *trace, None);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let got = metrics(&result);
            let names: Vec<&String> = got.keys().collect();
            let want: Vec<&String> = expected.keys().collect();
            assert_eq!(names, want, "{workload} trace {trace}: metric names");
            for (name, (value, unit)) in &got {
                assert_eq!(unit, &expected[name], "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} is not finite");
                if *trace == 0 {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} is zero");
                }
            }
        }
    }
}

/// Rewrites one hex digest field so it can no longer match.
fn corrupt(value: &mut Json) {
    if let Json::Str(s) = value {
        let flipped = if s.starts_with('0') { '1' } else { '0' };
        s.replace_range(0..1, &flipped.to_string());
    }
}

fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("field").1,
        _ => panic!("not an object"),
    }
}

fn items_mut(j: &mut Json) -> &mut Vec<Json> {
    match j {
        Json::Arr(items) => items,
        _ => panic!("not an array"),
    }
}

/// The checked-in oracle with, at the quick-run scale, every expected
/// answer of `workload` corrupted.
fn corrupted_oracle(workload: &str) -> PathBuf {
    let text = std::fs::read_to_string(manifest_dir().join("oracle.json")).expect("oracle");
    let mut oracle = Json::parse(&text).expect("oracle is JSON");
    let quick = |j: &Json| j.get("scale").and_then(Json::as_u64) == Some(quick_scale());
    match workload {
        "batch" => {
            for entry in items_mut(field_mut(&mut oracle, "batch")) {
                if quick(entry) {
                    corrupt(field_mut(entry, "ci_digest"));
                }
            }
        }
        "edit_session" => {
            for entry in items_mut(field_mut(&mut oracle, "sessions")) {
                if quick(entry) {
                    for edit in items_mut(field_mut(entry, "edits")) {
                        let last = items_mut(edit).last_mut().expect("retraction");
                        corrupt(field_mut(last, "fact_digest"));
                    }
                }
            }
        }
        "cold_query" => {
            for entry in items_mut(field_mut(&mut oracle, "cold")) {
                if quick(entry) {
                    for root in items_mut(field_mut(entry, "roots")) {
                        corrupt(field_mut(root, "answer"));
                    }
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("oracle-{workload}.json"));
    std::fs::write(&path, oracle.to_pretty()).expect("write corrupted oracle");
    path
}

/// The scale `--quick` runs use: the smallest scale the oracle covers.
fn quick_scale() -> u64 {
    let text = std::fs::read_to_string(manifest_dir().join("oracle.json")).expect("oracle");
    let oracle = Json::parse(&text).expect("oracle is JSON");
    oracle
        .get("batch")
        .and_then(Json::as_arr)
        .expect("batch entries")
        .iter()
        .filter_map(|b| b.get("scale").and_then(Json::as_u64))
        .min()
        .expect("a batch scale")
}

#[test]
fn a_corrupted_expected_digest_raises_the_error_rate() {
    for workload in workloads(&benchmark()) {
        let path = corrupted_oracle(&workload);
        let result = run(&workload, 0, Some(&path));
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}: a wrong answer must make the run incorrect"
        );
        let failed = result.get("failed").and_then(Json::as_u64).expect("failed");
        let attempted = result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted");
        assert!(
            failed > 0 && failed <= attempted,
            "{workload}: {failed}/{attempted}"
        );
        let (ok_rate, _) = metrics(&result)["ok_rate"].clone();
        assert!(ok_rate < 1.0, "{workload}: ok_rate {ok_rate} did not drop");
    }
}
