//! Experiment D9 — distributed fleet: node kill, rebalance, replay.
//!
//! Drives the real `monilog` binary as a three-process fleet — one router
//! partitioning file-backed sources across two monitor nodes over the
//! cluster wire protocol — and proves the distributed run loses and
//! duplicates nothing even when a node dies mid-stream:
//!
//! 1. **Reference**: each source file is run through an uninterrupted
//!    single-process monitor; the union of their anomaly sets is the
//!    ground truth.
//! 2. **Fleet with node kill**: router + two joined monitors; the monitor
//!    that owns sources is SIGKILLed mid-stream, the router detects the
//!    dead node, rebalances its sources to the survivor and replays them
//!    from line one; the killed node restarts, rejoins, and takes its
//!    sources back. The union of both monitors' anomaly sets must be
//!    *identical* to the reference.
//!
//! Anomaly identity is canonical — `(kind, detector, score, sorted event
//! timestamps)` — deliberately excluding report ids (per-process
//! counters), source ids (the reference ingests as source 0, the fleet as
//! router sources), and template ids (independent discovery may number
//! novel templates differently before reconciliation converges).
//!
//! Run: `cargo run --release -p monilog-bench --bin exp_d9_cluster`
//! (build the workspace in release first so `monilog` exists).
//!
//! All assertions are hard gates — the binary exits non-zero on any
//! violation. With `--check` the results artifact is not rewritten.

use monilog_loggen::{GenLog, HdfsWorkload, HdfsWorkloadConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for any single child process or poll condition.
const WAIT_BUDGET: Duration = Duration::from_secs(180);
/// Journal bytes that count as "real progress" before the kill.
const KILL_THRESHOLD: u64 = 16_384;
/// Number of file-backed sources the router partitions.
const N_SOURCES: usize = 4;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// The `monilog` binary next to this experiment binary.
fn monilog_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let mut dir = exe.parent().expect("exe dir").to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("monilog");
    if !bin.exists() {
        fail(&format!(
            "{} not found — build it first: cargo build --release -p monilog-core",
            bin.display()
        ));
    }
    bin
}

fn write_workload(path: &Path, logs: &[GenLog]) {
    let text: Vec<String> = logs.iter().map(|l| l.record.to_line()).collect();
    std::fs::write(path, text.join("\n")).expect("workload file writable");
}

/// Spawn a monilog process with a drainer thread for its stdout (the
/// report is printed in one burst at exit; draining keeps the pipe from
/// blocking).
fn spawn(args: &[String], envs: &[(&str, &str)]) -> (Child, std::thread::JoinHandle<String>) {
    let mut cmd = Command::new(monilog_bin());
    cmd.args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn monilog: {e}")));
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        use std::io::Read as _;
        let mut buf = String::new();
        let _ = stdout.read_to_string(&mut buf);
        buf
    });
    (child, reader)
}

/// Wait for a child to exit cleanly, with a hard budget.
fn wait_exit(mut child: Child, reader: std::thread::JoinHandle<String>, label: &str) -> String {
    let deadline = Instant::now() + WAIT_BUDGET;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let out = reader.join().expect("reader thread");
                if !status.success() {
                    fail(&format!("{label} exited with {status}:\n{out}"));
                }
                return out;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                fail(&format!("{label} did not exit within the wait budget"));
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Run a monilog invocation to completion, returning its stdout.
fn run_to_completion(args: &[String], label: &str) -> String {
    let (child, reader) = spawn(args, &[]);
    wait_exit(child, reader, label)
}

/// Total bytes under the journal directory of a state dir.
fn journal_bytes(state: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(state.join("journal")) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Poll `<state>/listen-addrs` for the router's bound cluster address.
fn cluster_addr(state: &Path) -> String {
    let path = state.join("listen-addrs");
    let deadline = Instant::now() + WAIT_BUDGET;
    loop {
        if let Ok(body) = std::fs::read_to_string(&path) {
            if let Some(line) = body.lines().find(|l| l.starts_with("cluster ")) {
                return line["cluster ".len()..].to_string();
            }
        }
        if Instant::now() > deadline {
            fail("router never published its cluster address");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Canonical anomaly key for one `anomalies.jsonl` line: process-local
/// report ids, source ids, template ids, and trace ids are all excluded
/// (see the module docs).
fn canonical_key(line: &str) -> Option<String> {
    let field = |marker: &str| -> Option<String> {
        let at = line.find(marker)? + marker.len();
        let end = line[at..].find('"')? + at;
        Some(line[at..end].to_string())
    };
    let kind = field("\"kind\":\"")?;
    let detector = field("\"detector\":\"")?;
    let score = {
        let at = line.find("\"score\":")? + 8;
        let end = line[at..].find(',')? + at;
        line[at..end].to_string()
    };
    let ev_start = line.find("\"events\":[")? + 10;
    let ev_end = line[ev_start..].find("],\"provenance\"")? + ev_start;
    let mut rest = &line[ev_start..ev_end];
    let mut ts: Vec<u64> = Vec::new();
    while let Some(at) = rest.find("\"ts_ms\":") {
        let s = &rest[at + 8..];
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        ts.push(s[..end].parse().ok()?);
        rest = &s[end..];
    }
    ts.sort_unstable();
    Some(format!("{kind}|{detector}|{score}|{ts:?}"))
}

/// The canonical anomaly set of one monitor's sink file. A missing file
/// is an empty set (a node that served no sources reports nothing).
fn canonical_set(sink: &Path) -> BTreeSet<String> {
    let Ok(body) = std::fs::read_to_string(sink) else {
        return BTreeSet::new();
    };
    body.lines()
        .map(|l| {
            canonical_key(l).unwrap_or_else(|| {
                fail(&format!("unparseable sink line in {}: {l}", sink.display()))
            })
        })
        .collect()
}

/// Numbers in the first stdout line containing `marker`.
fn stat_line(out: &str, marker: &str) -> Vec<u64> {
    let line = out
        .lines()
        .find(|l| l.contains(marker))
        .unwrap_or_else(|| fail(&format!("no `{marker}` line in output:\n{out}")));
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("digits"))
        .collect()
}

fn fleet_monitor_args(ckpt: &Path, state: &Path, addr: &str, node: &str) -> Vec<String> {
    vec![
        "monitor".into(),
        "--checkpoint".into(),
        ckpt.display().to_string(),
        "--state-dir".into(),
        state.display().to_string(),
        "--join".into(),
        addr.to_string(),
        "--node-id".into(),
        node.into(),
        // fsync every line: worst-case durability, and it slows the run
        // enough that the kill lands mid-stream.
        "--journal-fsync-ms".into(),
        "0".into(),
        "--checkpoint-interval-ms".into(),
        "100".into(),
    ]
}

fn main() {
    println!("# D9 — distributed fleet: node kill, rebalance, replay\n");
    let check = std::env::args().any(|a| a == "--check");
    let bin = monilog_bin();
    println!("driving {}", bin.display());

    let dir = std::env::temp_dir().join(format!("monilog-exp-d9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let train_file = dir.join("train.log");
    let ckpt = dir.join("model.mlcp");

    let training = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 200,
        sequential_anomaly_rate: 0.0,
        quantitative_anomaly_rate: 0.0,
        seed: 6,
        start_ms: 1_600_000_000_000,
    })
    .generate();
    write_workload(&train_file, &training);

    // One live workload partitioned into N_SOURCES files by whole
    // session. A single generation keeps session keys globally unique —
    // independent workloads would all emit blk_1..blk_n, and a fleet
    // monitor serving several sources would merge same-key sessions the
    // per-file reference keeps apart. One shared start_ms also keeps the
    // windower's single event-time watermark consistent: hour-separated
    // sources at one node would idle-close each other's sessions.
    let live = HdfsWorkload::new(HdfsWorkloadConfig {
        n_sessions: 800 * N_SOURCES,
        sequential_anomaly_rate: 0.15,
        quantitative_anomaly_rate: 0.0,
        seed: 40,
        start_ms: 1_600_000_000_000 + 3_600_000,
    })
    .generate();
    let mut partitions: Vec<Vec<GenLog>> = (0..N_SOURCES).map(|_| Vec::new()).collect();
    for line in live {
        let shard = match &line.truth.session {
            Some(key) => {
                key.bytes()
                    .fold(0usize, |h, b| h.wrapping_mul(31).wrapping_add(b as usize))
                    % N_SOURCES
            }
            None => 0,
        };
        partitions[shard].push(line);
    }
    let mut live_files = Vec::new();
    let mut live_lines = 0usize;
    for (i, part) in partitions.iter().enumerate() {
        let path = dir.join(format!("live-{i}.log"));
        write_workload(&path, part);
        live_lines += part.len();
        live_files.push(path);
    }
    println!("live stream: {live_lines} lines across {N_SOURCES} sources");

    let status = Command::new(&bin)
        .args([
            "train",
            &train_file.display().to_string(),
            "--checkpoint",
            &ckpt.display().to_string(),
        ])
        .stdout(Stdio::null())
        .status()
        .expect("run train");
    if !status.success() {
        fail("training run failed");
    }

    // 1. Reference: one uninterrupted single-process run per source file.
    let mut reference = BTreeSet::new();
    for (i, live) in live_files.iter().enumerate() {
        let state = dir.join(format!("state-ref-{i}"));
        let args = vec![
            "monitor".to_string(),
            live.display().to_string(),
            "--checkpoint".into(),
            ckpt.display().to_string(),
            "--state-dir".into(),
            state.display().to_string(),
        ];
        run_to_completion(&args, &format!("reference monitor {i}"));
        reference.extend(canonical_set(&state.join("anomalies.jsonl")));
    }
    if reference.is_empty() {
        fail("reference runs found no anomalies — nothing to compare");
    }
    println!("reference: {} canonical anomalies", reference.len());

    // 2. Fleet: router + two monitors, SIGKILL one mid-stream, restart it.
    let router_state = dir.join("state-router");
    let mut router_args: Vec<String> = vec!["router".into()];
    router_args.extend(live_files.iter().map(|p| p.display().to_string()));
    router_args.extend(
        [
            "--state-dir",
            &router_state.display().to_string(),
            "--listen-cluster",
            "127.0.0.1:0",
            "--expect-nodes",
            "2",
            "--heartbeat-ms",
            "100",
            "--dead-after-ms",
            "800",
            "--rebalance-grace-ms",
            "200",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    let (router_child, router_reader) = spawn(&router_args, &[]);
    let addr = cluster_addr(&router_state);
    println!("router listening on {addr}");

    let idle_guard = [("MONILOG_IDLE_EXIT_MS", "30000")];
    let states = [dir.join("state-n1"), dir.join("state-n2")];
    let args_n1 = fleet_monitor_args(&ckpt, &states[0], &addr, "n1");
    let args_n2 = fleet_monitor_args(&ckpt, &states[1], &addr, "n2");
    let mut nodes = vec![
        Some(spawn(&args_n1, &idle_guard)),
        Some(spawn(&args_n2, &idle_guard)),
    ];

    // Pick the victim dynamically: the first node whose journal shows
    // real progress provably owns sources, so killing it exercises the
    // rebalance path no matter how rendezvous split the assignment.
    let victim = {
        let deadline = Instant::now() + WAIT_BUDGET;
        loop {
            let grown: Vec<u64> = states.iter().map(|s| journal_bytes(s)).collect();
            if let Some(i) = (0..2).find(|&i| grown[i] >= KILL_THRESHOLD) {
                break i;
            }
            if Instant::now() > deadline {
                fail("no monitor made journal progress within the wait budget");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let (mut victim_child, victim_reader) = nodes[victim].take().expect("victim running");
    victim_child.kill().expect("SIGKILL victim");
    let _ = victim_child.wait();
    drop(victim_reader);
    println!("killed node n{} mid-stream (SIGKILL)", victim + 1);

    // Hold the node down past the dead-node timeout so the router must
    // detect the death and rebalance to the survivor — a too-fast restart
    // would be absorbed by the rejoin path alone.
    std::thread::sleep(Duration::from_millis(2_000));
    let restart_args = if victim == 0 { &args_n1 } else { &args_n2 };
    nodes[victim] = Some(spawn(restart_args, &idle_guard));
    println!("restarted node n{} on the same state dir", victim + 1);

    let router_out = wait_exit(router_child, router_reader, "router");
    print!("{router_out}");
    let routed = stat_line(&router_out, "lines replayed");
    let fleet = stat_line(&router_out, "rebalances");
    let (lines_routed, lines_replayed) = (routed[0], routed[routed.len() - 1]);
    let (rebalances, rejoins) = (fleet[0], fleet[1]);
    if lines_routed != live_lines as u64 {
        fail(&format!(
            "router routed {lines_routed} of {live_lines} lines"
        ));
    }
    if rebalances < 1 {
        fail("the dead node was never rebalanced away");
    }
    if rejoins < 1 {
        fail("the restarted node never rejoined");
    }
    if lines_replayed == 0 {
        fail("rebalance must replay the dead node's sources from line one");
    }

    let mut outs = Vec::new();
    for (i, node) in nodes.into_iter().enumerate() {
        let (child, reader) = node.expect("node spawned");
        let out = wait_exit(child, reader, &format!("monitor n{}", i + 1));
        // Keep each node's transcript next to its state dir: the temp dir
        // survives a failed run, and fleet bugs are undebuggable without
        // the monitors' own view of revokes, replays, and recovery.
        let _ = std::fs::write(dir.join(format!("n{}.out", i + 1)), &out);
        outs.push(out);
    }
    let restart_out = &outs[victim];
    if !restart_out.contains("recovery: replayed") {
        fail(&format!(
            "restarted node reported no recovery:\n{restart_out}"
        ));
    }
    // The survivor must stop on the router's `Fin`, not on the idle-exit
    // guard: a node that misses its `Fin` runs until an operator kills it.
    let survivor_out = &outs[1 - victim];
    if !survivor_out.contains("cluster: router finished the run") {
        fail(&format!(
            "surviving node n{} never saw the router's Fin (exited through \
             MONILOG_IDLE_EXIT_MS):\n{survivor_out}",
            2 - victim
        ));
    }

    // The merged fleet anomaly set must be identical to the reference.
    let mut merged = BTreeSet::new();
    for state in &states {
        merged.extend(canonical_set(&state.join("anomalies.jsonl")));
    }
    if merged != reference {
        let missing: Vec<&String> = reference.difference(&merged).take(5).collect();
        let extra: Vec<&String> = merged.difference(&reference).take(5).collect();
        fail(&format!(
            "fleet anomaly set diverged from the reference: {} vs {} \
             (missing e.g. {missing:?}; extra e.g. {extra:?})",
            merged.len(),
            reference.len()
        ));
    }
    println!(
        "fleet: merged anomaly set identical to reference ({} reports); \
         {rebalances} rebalances, {rejoins} rejoins, {lines_replayed} lines replayed",
        merged.len()
    );

    println!("\nall fleet invariants hold");
    if !check {
        let json = format!(
            "{{\"experiment\":\"d9_cluster\",\"live_lines\":{live_lines},\
             \"sources\":{N_SOURCES},\"reports\":{},\"lines_routed\":{lines_routed},\
             \"lines_replayed\":{lines_replayed},\"rebalances\":{rebalances},\
             \"rejoins\":{rejoins}}}\n",
            reference.len(),
        );
        let out_path = Path::new("results/exp_d9_cluster.json");
        match monilog_bench::write_json_atomic(out_path, &json) {
            Ok(()) => println!("wrote {}", out_path.display()),
            Err(e) => println!("could not write {}: {e}", out_path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
