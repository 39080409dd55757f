//! The host and trajectory record every run carries: git sha, CPU count
//! and model, kernel, seed, corpus sizes and the raw value of every
//! sample, so results from different hosts and commits are never compared
//! blind.

use crate::workloads::Outcome;
use std::io::Write as _;
use std::path::Path;

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

/// The commit under test: `git rev-parse HEAD` when the tree is a git
/// checkout, else `unknown`.
fn git_sha(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Raw samples and reference quality of an end-to-end run, as JSON.
pub fn samples_json(out: &Outcome) -> String {
    let series: Vec<String> = out
        .samples
        .iter()
        .map(|(name, v)| format!("{}:{}", json_str(name), json_list(v)))
        .collect();
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(name, v)| format!("{}:{v:?}", json_str(name)))
        .collect();
    format!(
        "{{\"corpus_lines\":{{\"train\":{},\"live\":{}}},\"samples\":{{{}}},\
         \"counters\":{{{}}},\"precision\":{:?},\"recall\":{:?},\"detect_f1\":{:?},\
         \"attempted\":{},\"failed\":{},\"invalid_paced\":{}}}",
        out.corpus_lines.0,
        out.corpus_lines.1,
        series.join(","),
        counters.join(","),
        out.precision,
        out.recall,
        out.f1,
        out.attempted,
        out.failed,
        out.invalid_paced,
    )
}

/// One trajectory line: host, commit, run parameters and `result`.
pub fn record(root: &Path, workload: &str, seed: u64, trace: bool, result: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_sha\":{},\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\
         \"workload\":{},\"seed\":{seed},\"trace\":{trace},\"result\":{result}}}",
        json_str(&git_sha(root)),
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(workload),
    )
}

/// Append `record` to `<dir>/trajectory.jsonl` (best effort: a read-only
/// tree still gets its result line).
pub fn append_trajectory(dir: &Path, record: &str) {
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("trajectory.jsonl"))
    {
        let _ = writeln!(f, "{record}");
    }
}
