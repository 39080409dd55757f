//! Child processes of the benchmark: spawn, signal, reap with resource
//! usage, and poll the files and endpoints a `monilog` process publishes.
//!
//! Every [`Proc`] is reaped: dropping one that is still running kills it
//! and waits for it, so no error path leaves a process behind.
//!
//! A process started straight from the benchmark would report the
//! benchmark's own peak resident set as its `ru_maxrss`: the kernel
//! records the pre-`exec` memory of the spawning (vfork) child, which is
//! the benchmark's. So `monilog` is started by a small `sh` that forks it
//! in the background, prints its pid and exits; the benchmark, a child
//! subreaper, adopts and reaps it, and `ru_maxrss` is the program's alone.

use std::fs::File;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const WNOHANG: i32 = 1;
const PR_SET_CHILD_SUBREAPER: i32 = 36;

/// `struct rusage` on Linux: two `timeval`s, then fourteen longs of which
/// `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
    /// Spawn to reap.
    pub wall: Duration,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A running `monilog` process.
pub struct Proc {
    pub label: String,
    pid: i32,
    pub spawned: Instant,
    reaped: bool,
}

/// Spawn `bin args...` with stdout written to the file `stdout` and
/// stderr discarded.
pub fn spawn(bin: &Path, args: &[String], stdout: &Path, label: &str) -> Result<Proc, String> {
    static SUBREAPER: std::sync::Once = std::sync::Once::new();
    // SAFETY: `prctl` with this option only sets a flag on this process.
    SUBREAPER.call_once(|| unsafe {
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
    });
    let out = File::create(stdout).map_err(|e| format!("create {}: {e}", stdout.display()))?;
    let spawned = Instant::now();
    let mut launcher = Command::new("/bin/sh")
        .arg("-c")
        .arg("\"$0\" \"$@\" 2>/dev/null </dev/null & echo $! >&2")
        .arg(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {label}: {e}"))?;
    let mut line = String::new();
    let read =
        BufReader::new(launcher.stderr.take().expect("stderr is piped")).read_line(&mut line);
    // The launcher exits right after printing; once it is reaped, the
    // program is this process's child.
    let status = launcher
        .wait()
        .map_err(|e| format!("wait for {label} launcher: {e}"))?;
    read.map_err(|e| format!("read {label} pid: {e}"))?;
    let pid = line
        .trim()
        .parse()
        .map_err(|_| format!("spawn {label}: launcher printed {line:?} ({status})"))?;
    Ok(Proc {
        label: label.to_string(),
        pid,
        spawned,
        reaped: false,
    })
}

impl Proc {
    fn signal(&self, sig: i32) {
        if !self.reaped {
            // SAFETY: `kill` has no memory-safety preconditions; the pid
            // is our unreaped child, so it cannot have been recycled.
            unsafe { kill(self.pid, sig) };
        }
    }

    pub fn sigterm(&self) {
        self.signal(SIGTERM);
    }

    pub fn sigkill(&self) {
        self.signal(SIGKILL);
    }

    /// Reap the process if it has ended.
    pub fn try_wait(&mut self) -> Option<Exit> {
        self.wait4(WNOHANG)
    }

    fn wait4(&mut self, options: i32) -> Option<Exit> {
        if self.reaped {
            return None;
        }
        let mut status = 0i32;
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: both pointers are to live, properly sized locals for the
        // duration of the call; `RUsage` matches the kernel's layout.
        let r = unsafe { wait4(self.pid, &mut status, options, &mut usage) };
        if r != self.pid {
            return None;
        }
        self.reaped = true;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Some(Exit {
            code,
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
            wall: self.spawned.elapsed(),
        })
    }

    /// Wait for the process to end on its own within `budget`.
    pub fn wait(&mut self, budget: Duration) -> Result<Exit, String> {
        let deadline = Instant::now() + budget;
        loop {
            if let Some(exit) = self.try_wait() {
                return Ok(exit);
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not exit within {budget:?}", self.label));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait for a clean exit (status 0).
    pub fn wait_ok(&mut self, budget: Duration) -> Result<Exit, String> {
        let exit = self.wait(budget)?;
        if !exit.success() {
            return Err(format!("{} exited with {:?}", self.label, exit.code));
        }
        Ok(exit)
    }

    /// Kill the process and reap it.
    pub fn kill_and_reap(&mut self) -> Option<Exit> {
        self.sigkill();
        self.wait4(0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            self.kill_and_reap();
        }
    }
}

/// Poll `<state>/listen-addrs` until it names every key in `keys`.
/// Returns the addresses in `keys` order. Delete the file before a
/// restart to wait for the new process's addresses.
pub fn wait_addrs(
    state: &Path,
    keys: &[&str],
    proc: &mut Proc,
    budget: Duration,
) -> Result<Vec<String>, String> {
    let path = state.join("listen-addrs");
    let deadline = Instant::now() + budget;
    loop {
        if let Ok(body) = std::fs::read_to_string(&path) {
            let found: Vec<Option<String>> = keys
                .iter()
                .map(|k| {
                    body.lines()
                        .find_map(|l| l.strip_prefix(&format!("{k} ")))
                        .map(str::to_string)
                })
                .collect();
            if found.iter().all(Option::is_some) {
                return Ok(found.into_iter().flatten().collect());
            }
        }
        if let Some(exit) = proc.try_wait() {
            return Err(format!(
                "{} exited ({:?}) before publishing its addresses",
                proc.label, exit.code
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("{} published no addresses in time", proc.label));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One HTTP GET on a fresh connection; returns the body.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write GET {path}: {e}"))?;
    let mut resp = String::new();
    conn.read_to_string(&mut resp)
        .map_err(|e| format!("read GET {path}: {e}"))?;
    Ok(resp
        .split_once("\r\n\r\n")
        .map_or(resp.as_str(), |(_, b)| b)
        .to_string())
}

/// Value of an unlabelled Prometheus sample in a scrape body.
pub fn prom_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Value of a numeric JSON field (`"name":123`) in a `/status` body.
pub fn json_number(body: &str, name: &str) -> Option<f64> {
    let marker = format!("\"{name}\":");
    let at = body.find(&marker)? + marker.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Total size of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// A fresh, empty directory.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}
