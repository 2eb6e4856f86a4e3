//! `copydet_benchmark`: the repository's wire-level benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path wirebench/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds X] [--trace 0|1] [--repeat N] \
//!     [--scale full|smoke] [--out DIR]
//! ```
//!
//! Runs the workloads of `BENCHMARK.json` against the real server path: the
//! binary re-executes itself as a `serve-child` process holding a durable
//! four-shard fleet behind `serve_with_config`, and this process is the
//! load generator, speaking the wire protocol through `frontend::Client`
//! over loopback. Prints every metric as `name workload value unit
//! (n=samples)`, checks the outputs against a single-store baseline, writes
//! the same as JSON, ends its standard output with the one-line result, and
//! exits non-zero when a check failed. See `README.md`.

mod layers;
mod load;
mod oracle;
mod report;
mod rng;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use report::{RunResult, RUN_SECONDS, WORKLOADS};
use run::{Plan, Scale, Workdir};
use stats::Sample;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The paper's publication date, as the issue fixes it.
const DEFAULT_SEED: u64 = 20150301;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        repeat: 1,
        scale: Scale::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds {} is out of range", parsed.seconds));
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if parsed.repeat == 0 {
                    return Err("--repeat 0 runs nothing".to_owned());
                }
            }
            "--scale" => {
                parsed.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Where the built binary lives: inside the checkout's build directory, so
/// everything a run writes stays inside the checkout and under an ignored
/// path.
fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent().map(Path::to_path_buf).ok_or_else(|| "the binary has no directory".to_owned())
}

/// First line a helper command prints, `unknown` if it cannot be run (the
/// driver's checkout is not a git repository).
fn first_line_of(command: &str, args: &[&str]) -> String {
    std::process::Command::new(command)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type `path` lives on: the longest mount point that is a
/// prefix of it in `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// The environment block: enough that a one-core run can never be read as
/// a scaling result.
fn environment_json(args: &Args, workdir: &Path) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let commit = first_line_of("git", &["rev-parse", "HEAD"]);
    format!(
        "{{\"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \
         \"merge_workers\": {}, \"shards\": {}, \
         \"connections\": {{\"dense_rounds\": 1, \"zipf_rounds\": 1, \"ingest_durable\": {}, \
         \"mixed_serve\": 2}}, \
         \"store_config\": {{\"seal_threshold\": 4096, \"max_sealed_segments\": 4, \
         \"wal_fsync_per_append\": {}}}, \
         \"mixed_rate_claims_per_s\": {}, \"frame_claims\": {}, \
         \"workdir_filesystem\": \"{}\", \"seed\": {}, \"seconds\": {}, \"scale\": \"{:?}\", \
         \"git_commit\": \"{commit}\", \"rustc\": \"{}\"}}",
        copydet_serve::ShardedDetector::new().merge_parallelism(),
        server::SHARDS,
        run::stream_connections(),
        server::STORE_CONFIG.wal_fsync_per_append,
        run::MIXED_RATE_CLAIMS_PER_S,
        workload::FRAME_CLAIMS,
        filesystem_of(workdir),
        args.seed,
        args.seconds,
        args.scale,
        first_line_of("rustc", &["--version"]),
    )
}

/// Across `--repeat` runs: per-metric median, quartiles and relative
/// spread, flagging an end-to-end metric whose spread exceeds its bound.
fn repeat_summary(results: &[RunResult]) -> String {
    let mut out = String::new();
    let Some(first) = results.first() else { return out };
    for def in first.table() {
        let values: Vec<f64> =
            results.iter().filter_map(|r| r.metrics.get(def.name)).map(|(v, _)| v).collect();
        let sample = Sample::new(values);
        let Some((q1, q3)) = sample.quartiles() else { continue };
        let spread = sample.relative_spread().unwrap_or(0.0);
        let flag = if !first.traced && spread > def.bound {
            "  SPREAD EXCEEDS BOUND"
        } else if !first.traced && spread > def.bound / 3.0 {
            "  (over a third of the bound)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{} {} median {} q1 {} q3 {} {} spread {:.4} (runs={}){flag}",
            def.name,
            first.workload,
            sample.median(),
            q1,
            q3,
            def.unit,
            spread,
            sample.len()
        );
    }
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let build = build_dir()?;
    let workdir = Workdir(build.join("wirebench-tmp").join(std::process::id().to_string()));
    let out_dir = args.out.clone().unwrap_or_else(|| build.join("wirebench-out"));
    std::fs::create_dir_all(&workdir.0).map_err(|e| format!("create {:?}: {e}", workdir.0))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
    let environment = environment_json(args, &workdir.0);
    let mut all_correct = true;
    for name in names {
        let mut last_line = String::new();
        let plan = Plan::new(name, args.seconds, args.scale)?;
        let mut results = Vec::new();
        for repeat in 0..args.repeat {
            let seed = args.seed + repeat as u64;
            let result = if args.trace {
                let (result, tracer) = run::run_traced(&plan, seed, &workdir)?;
                let path = out_dir.join("trace.json");
                std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path:?}: {e}"))?;
                eprintln!("wrote {} spans to {}", tracer.spans.len(), path.display());
                result
            } else {
                run::run_end_to_end(&plan, seed, &workdir)?
            };
            print!("{}", result.human());
            for failure in &result.failures {
                eprintln!("FAILED {name}: {failure}");
            }
            println!(
                "checks {name} {} failed of {} operations (seed {seed})",
                result.failed, result.attempted
            );
            all_correct &= result.failed == 0;
            last_line = result.result_line()?;
            let kind = if args.trace { "layers" } else { "end_to_end" };
            let path = out_dir.join(format!("{name}.{kind}.json"));
            let json = format!(
                "{{\"workload\": \"{name}\", \"seed\": {seed}, \"result\": {last_line}, \
                 \"environment\": {environment}}}\n"
            );
            std::fs::write(&path, json).map_err(|e| format!("{path:?}: {e}"))?;
            results.push(result);
        }
        print!("{}", repeat_summary(&results));
        // The driver reads the last line of standard output.
        println!("{last_line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => {
            let Some(dir) = args.get(1) else {
                eprintln!("serve-child needs a directory");
                return ExitCode::from(2);
            };
            return match server::child_main(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve-child: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--print-manifest") => {
            print!("{}", report::manifest_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let outcome = parse_args(&args).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("copydet_benchmark: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("copydet_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
