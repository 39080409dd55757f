//! End-to-end and per-layer benchmark of the shipped `monilog` binary.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hdfs-file|hdfs-syslog|cloud-tail|hdfs-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark builds `monilog` from the
//! repository (`cargo build --release -p monilog-core --bin monilog`),
//! generates the workload's corpora from the seed, and drives the real
//! processes. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the traced in-process pass and prints the per-layer metrics. The last
//! line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Every other line is a human-readable report. Scratch files live under
//! `<cargo target dir>/perfbench/`, and each run appends its host and raw
//! values to `trajectory.jsonl` there.
//!
//! `BENCHMARK.json` gates `hdfs-file` and `hdfs-fleet`. The other two
//! workloads run by hand and are left out of it: `hdfs-syslog` because its
//! throughput spread over ten seeds (IQR/median 0.26 with 36 s runs on a
//! 2-vCPU host) exceeds the largest bound a metric may have; `cloud-tail`
//! because the tail source strands the lines still buffered after a
//! full-queue pause once it reaches the end of a file that no longer
//! grows, so a trial can stall short of its last lines (the run then
//! reports them as failed).
//!
//! On `hdfs-file`, which is bound by one core and its memory system,
//! `lines_per_s` is each trial's throughput scaled by the host-speed probe
//! run right after it (see `probe`), so that the host's drift over minutes
//! does not read as a change of the program. The unscaled throughput and
//! the probe's speed are printed and recorded beside it. The other
//! workloads report unscaled throughput.

mod corpus;
mod host;
mod keys;
mod probe;
mod procs;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("invalid {flag} {value:?}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Cargo's target directory for the repository build.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Build the shipped binary from source and return its path.
fn build_monilog(root: &Path) -> Result<PathBuf, String> {
    let status = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "monilog-core",
            "--bin",
            "monilog",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building monilog failed ({status})"));
    }
    let bin = target_dir(root).join("release").join("monilog");
    if !bin.exists() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_f64(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The end-to-end metrics of an untraced run, with the log lines that
/// describe their samples.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    // A series without samples (every trial stalled) reads 0; such a run
    // has failed lines and is not correct.
    let median = |name: &str| out.samples.get(name).map_or(0.0, |v| stats::median(v));
    vec![
        Metric {
            name: "lines_per_s",
            value: median("lines_per_s"),
            unit: "lines/s",
        },
        Metric {
            name: "setup_s",
            value: median("setup_s"),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: median("peak_rss_mb"),
            unit: "MiB",
        },
        Metric {
            name: "detect_f1",
            value: out.f1,
            unit: "ratio",
        },
    ]
}

/// Human-readable report of every sample series.
fn describe(out: &Outcome) {
    let unit = |name: &str| match name {
        "lines_per_s" | "lines_per_s_raw" => "lines/s",
        "probe_mb_s" => "MB/s",
        "peak_rss_mb" => "MiB",
        n if n.ends_with("_ms") => "ms",
        _ => "s",
    };
    for (name, v) in &out.samples {
        println!("{name:<20} {}", stats::summarise(v).describe(unit(name)));
    }
    // Report delay by the names of its percentiles: the median, and the
    // highest percentile with ten samples beyond it.
    if let Some(v) = out.samples.get("report_delay_ms") {
        let s = stats::summarise(v);
        println!("report_delay_p50_ms  {:.4} ms (n={})", s.median, s.n);
        if let Some((p, value)) = s.tail {
            println!("report_delay_p{p}_ms  {value:.4} ms (n={})", s.n);
        }
    }
    if out.invalid_paced > 0 {
        println!(
            "paced phases invalid: {} (generator p99 lateness above {} ms; not averaged in)",
            out.invalid_paced,
            workloads::GEN_LATE_BOUND_MS
        );
    }
    println!(
        "detect_f1            {:.4} (precision {:.4}, recall {:.4}, reference run)",
        out.f1, out.precision, out.recall
    );
    let ratio = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    println!(
        "failed_ratio         {ratio:.6} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    for (name, v) in &out.counters {
        println!("{name:<20} {v}");
    }
    if out.failed > 0 {
        for d in out.diverging.iter().take(20) {
            println!("diverging: {d}");
        }
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>, String), String> {
    let root = repo_root();
    let bin = build_monilog(&root)?;
    let base = target_dir(&root).join("perfbench");
    let work = procs::fresh_dir(base.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )))?;
    let ctx = Ctx {
        bin,
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        let t = traced::run(&args.workload, &ctx)?;
        for (name, value, unit) in &t.metrics {
            println!("{name:<30} {value:.6} {unit}");
        }
        let metrics = t
            .metrics
            .iter()
            .map(|&(name, value, unit)| Metric { name, value, unit })
            .collect();
        (t.correct, t.attempted, t.failed, metrics, t.record)
    } else {
        let out = workloads::run(&args.workload, &ctx)?;
        describe(&out);
        let metrics = end_to_end(&out);
        let record = host::samples_json(&out);
        (out.failed == 0, out.attempted, out.failed, metrics, record)
    };
    let _ = std::fs::remove_dir_all(&work);
    Ok(result)
}

fn main() -> ExitCode {
    // `--probe <file>`: one host-speed probe pass in a fresh process (see
    // `probe`), spawned by the `hdfs-file` workload after each trial.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--probe") {
        return match argv.get(2).map(|f| probe::run_file(Path::new(f))) {
            Some(Ok(mb_s)) => {
                println!("{mb_s}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("perfbench: probe: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("perfbench: --probe needs a file");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics, samples) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();
    let record = host::record(&root, &args.workload, args.seed, args.trace, &samples);
    println!("record: {record}");
    host::append_trajectory(&target_dir(&root).join("perfbench"), &record);
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric {
                name: "lines_per_s",
                value: 1234.5,
                unit: "lines/s",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"lines_per_s":{"value":1234.5,"unit":"lines/s"}}}"#
        );
        assert_eq!(json_f64(f64::NAN), "0");
    }
}
