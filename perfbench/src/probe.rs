//! Host-speed probe for CPU-bound workloads.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! minutes as neighbours load the memory system, and an in-memory
//! `monitor` run slows with it. The probe is a fixed piece of benchmark
//! code with a similar profile (split lines into tokens, intern them in
//! hash maps, count line shapes) run over the workload's own corpus, in a
//! fresh process like the trial, right after each timed trial.
//! `hdfs-file` scales its throughput by [`REF_MB_S`] over the probe's
//! speed, so that host drift between runs cancels while a change to the
//! program does not: the probe calls no program code.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The probe's speed on the host the benchmark was written on (2-vCPU
/// Xeon container): the scale `lines_per_s` is normalised to.
pub const REF_MB_S: f64 = 30.0;

/// Run one probe pass over `file` in a child process (this binary with
/// `--probe`); returns its speed in MB/s.
pub fn spawn(file: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let out = Command::new(exe)
        .arg("--probe")
        .arg(file)
        .output()
        .map_err(|e| format!("spawn probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(v) if out.status.success() => Ok(v),
        _ => Err(format!("probe failed ({}): {text:?}", out.status)),
    }
}

/// The probe pass itself: read `file`, then time [`mb_per_s`] on it.
pub fn run_file(file: &Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    Ok(mb_per_s(&text))
}

/// One probe pass over the lines of `text`; returns its speed in MB/s.
pub fn mb_per_s(text: &str) -> f64 {
    let t = Instant::now();
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut counts: HashMap<&str, u32> = HashMap::new();
    let mut shapes: HashMap<Vec<u32>, u32> = HashMap::new();
    for line in text.lines() {
        let mut shape = Vec::new();
        for tok in line.split_whitespace() {
            *counts.entry(tok).or_default() += 1;
            let next = ids.len() as u32;
            let id = *ids.entry(tok).or_insert(next);
            let variable = tok.bytes().any(|b| b.is_ascii_digit());
            shape.push(if variable { u32::MAX } else { id });
        }
        *shapes.entry(shape).or_default() += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    // Keep the maps observable so the work is not optimised away.
    std::hint::black_box((ids.len(), counts.len(), shapes.len()));
    text.len() as f64 / 1e6 / secs
}
