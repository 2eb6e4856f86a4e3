//! Runs every workload through the real binary at `--scale smoke`, with and
//! without the traced run, and holds the result line to `BENCHMARK.json`:
//! every named metric present, finite and tagged with its unit, every
//! output check green.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_copydet_benchmark");

/// `(name, unit)` of the entries of one list of `BENCHMARK.json`, which
/// `--print-manifest` writes one entry a line.
fn manifest_list(manifest: &str, list: &str) -> Vec<(String, Option<String>)> {
    let field = |line: &str, key: &str| {
        let rest = line.split_once(&format!("\"{key}\": \""))?.1;
        Some(rest.split_once('"')?.0.to_owned())
    };
    manifest
        .split_once(&format!("\"{list}\": ["))
        .expect("the list is in the manifest")
        .1
        .lines()
        .skip(1)
        .take_while(|line| line.trim_start().starts_with('{'))
        .map(|line| (field(line, "name").expect("a name"), field(line, "unit")))
        .collect()
}

fn manifest() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The number after `"name": {"value": ` in a result line, if the entry is
/// there and carries `unit`.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}")).then(|| value.parse().ok())?
}

fn run(workload: &str, trace: &str, out: &str) -> (bool, String, String) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .args(["--scale", "smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), stdout, stderr)
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let manifest = manifest();
    let workloads = manifest_list(&manifest, "workloads");
    assert_eq!(workloads.len(), 4);
    for (workload, _) in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout, stderr) = run(workload, trace, &format!("{workload}-{trace}"));
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}\n{stderr}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains(", \"failed\": 0, \"metrics\": {"),
                "{workload} --trace {trace}: {line}"
            );
            let metrics = manifest_list(&manifest, list);
            for (name, unit) in &metrics {
                let unit = unit.as_deref().expect("metrics carry units");
                let value = metric(line, name, unit)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {line}"));
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload} {name} = {value}: end-to-end is never 0");
                }
                // The human table names the same metric with its unit.
                assert!(
                    stdout.lines().any(|l| l.starts_with(&format!("{name} {workload} "))
                        && l.contains(&format!(" {unit} (n="))),
                    "{workload} --trace {trace}: no table line for {name}"
                );
            }
            assert_eq!(
                line.matches("\"unit\": ").count(),
                metrics.len(),
                "no metric beyond the list"
            );
        }
    }
}

#[test]
fn the_traced_run_writes_its_spans_and_the_environment() {
    let (ok, _, stderr) = run("dense_rounds", "1", "trace-files");
    assert!(ok, "{stderr}");
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-files");
    let trace = std::fs::read_to_string(out_dir.join("trace.json")).expect("trace.json");
    for name in ["replay.detect", "detect.scan", "fusion.vote", "detect.merge", "wire.detect"] {
        assert!(trace.contains(&format!("\"name\": \"{name}\"")), "no {name} span");
    }
    let json = std::fs::read_to_string(out_dir.join("dense_rounds.layers.json")).expect("json");
    for key in
        ["\"nproc\"", "\"available_parallelism\"", "\"merge_workers\"", "\"rustc\"", "\"seed\": 7"]
    {
        assert!(json.contains(key), "environment lacks {key}: {json}");
    }
}

#[test]
fn a_bad_invocation_exits_non_zero_without_a_result() {
    for args in [&["--workload", "no_such_workload"][..], &["--trace", "2"], &["--frobnicate"]] {
        let output = Command::new(BIN).args(args).output().expect("the binary runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""), "{args:?}");
    }
}
