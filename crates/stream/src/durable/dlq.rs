//! Persistent dead-letter log: quarantined lines as replayable JSONL.
//!
//! Under `--state-dir` every line the sources divert under the
//! `dead-letter` overload policy is appended here, one JSON object per
//! line, so diverted lines survive restarts and can be replayed once the
//! pipeline catches up. The file is size-capped via [`RotatingLog`]:
//! past the cap it rotates to `<name>.1` (older generations shift up, a
//! bounded number are retained), and every byte deleted by rotation is
//! reported back so the caller can account it (`dlq_bytes_dropped`). Loading tolerates a torn final line — a crash
//! mid-append loses at most that line.

use super::rotate::RotatingLog;
use super::DurabilityError;
use monilog_model::trace::json_string;
use std::path::{Path, PathBuf};

/// Why a line ended up in the dead-letter log. `Panic` and `WorkerCrash`
/// are only ever read back from logs written by earlier releases; the
/// shipped sources write `Overload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Every parse attempt (original + retries) panicked.
    Panic,
    /// The ingest queue was saturated under the `DeadLetter` overload
    /// policy.
    Overload,
    /// The line was in flight when its worker crashed.
    WorkerCrash,
}

/// A quarantined line with enough context to triage or replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    pub seq: u64,
    /// The shard that was handling the line; `None` when it never entered
    /// the pipeline (overload diversion happens before routing).
    pub shard: Option<usize>,
    /// Materialized from the arena-backed line at quarantine time: dead
    /// letters outlive arrival buffers (they are persisted and replayed),
    /// so they own their bytes.
    pub line: String,
    pub reason: FailureReason,
    /// Parse attempts made (0 when the line was never attempted).
    pub attempts: u32,
}

/// Rotated generations kept by default (matches the old one-previous-file
/// behaviour).
pub const DEFAULT_DLQ_RETAIN: usize = 1;

/// Append-side handle to the JSONL dead-letter file.
pub struct DeadLetterLog {
    file: RotatingLog,
}

impl DeadLetterLog {
    /// Open (creating parent directories if needed) the log at `path`,
    /// retaining [`DEFAULT_DLQ_RETAIN`] rotated generations.
    pub fn open(
        path: impl Into<PathBuf>,
        cap_bytes: u64,
    ) -> Result<DeadLetterLog, DurabilityError> {
        Self::open_with_retain(path, cap_bytes, DEFAULT_DLQ_RETAIN)
    }

    /// Open with an explicit retained-generation cap.
    pub fn open_with_retain(
        path: impl Into<PathBuf>,
        cap_bytes: u64,
        retain: usize,
    ) -> Result<DeadLetterLog, DurabilityError> {
        Ok(DeadLetterLog {
            file: RotatingLog::open(path, cap_bytes, retain)?,
        })
    }

    /// Append letters, rotating first if the file is over its cap. Each
    /// append is fsync'd — quarantine is rare and must survive a crash.
    /// Returns the bytes rotation deleted during this call (0 almost
    /// always); callers surface it as the `dlq_bytes_dropped` counter.
    pub fn append(&self, letters: &[DeadLetter]) -> Result<u64, DurabilityError> {
        if letters.is_empty() {
            return Ok(0);
        }
        let mut buf = String::new();
        for l in letters {
            buf.push_str(&render(l));
            buf.push('\n');
        }
        self.file.append_text(&buf)
    }

    /// Everything replayable: retained generations oldest-first, then the
    /// current file. Unparseable lines — a torn tail, hand-edited damage —
    /// are skipped, never fatal.
    pub fn load(&self) -> Result<Vec<DeadLetter>, DurabilityError> {
        let text = self.file.load_text()?;
        Ok(text.lines().filter_map(parse).collect())
    }

    /// The current (non-rotated) file path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }
}

fn reason_str(reason: FailureReason) -> &'static str {
    match reason {
        FailureReason::Panic => "panic",
        FailureReason::Overload => "overload",
        FailureReason::WorkerCrash => "worker_crash",
    }
}

fn render(l: &DeadLetter) -> String {
    let shard = match l.shard {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"seq\":{},\"shard\":{},\"line\":{},\"reason\":\"{}\",\"attempts\":{}}}",
        l.seq,
        shard,
        json_string(&l.line),
        reason_str(l.reason),
        l.attempts
    )
}

/// Parse one rendered line back. Fields are consumed in writing order, so
/// a `line` body containing `"reason":` look-alikes can't confuse it.
fn parse(text: &str) -> Option<DeadLetter> {
    let mut rest = text.trim();
    rest = rest.strip_prefix('{')?;
    rest = rest.strip_prefix("\"seq\":")?;
    let (seq, r) = take_u64(rest)?;
    rest = r.strip_prefix(",\"shard\":")?;
    let shard = if let Some(r) = rest.strip_prefix("null") {
        rest = r;
        None
    } else {
        let (s, r) = take_u64(rest)?;
        rest = r;
        Some(s as usize)
    };
    rest = rest.strip_prefix(",\"line\":\"")?;
    let (line, r) = take_json_string(rest)?;
    rest = r.strip_prefix(",\"reason\":\"")?;
    let end = rest.find('"')?;
    let reason = match &rest[..end] {
        "panic" => FailureReason::Panic,
        "overload" => FailureReason::Overload,
        "worker_crash" => FailureReason::WorkerCrash,
        _ => return None,
    };
    rest = rest[end + 1..].strip_prefix(",\"attempts\":")?;
    let (attempts, r) = take_u64(rest)?;
    if r != "}" {
        return None;
    }
    Some(DeadLetter {
        seq,
        shard,
        line,
        reason,
        attempts: attempts as u32,
    })
}

fn take_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Consume a JSON string body (opening quote already stripped) up to its
/// closing quote, unescaping [`json_string`]'s escapes.
fn take_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            _ => out.push(c),
        }
    }
    None // unterminated: a torn tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monilog-dlq-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir.join("dead_letters.jsonl")
    }

    fn letter(seq: u64, line: &str) -> DeadLetter {
        DeadLetter {
            seq,
            shard: if seq.is_multiple_of(2) {
                Some(seq as usize % 4)
            } else {
                None
            },
            line: line.to_string(),
            reason: match seq % 3 {
                0 => FailureReason::Panic,
                1 => FailureReason::Overload,
                _ => FailureReason::WorkerCrash,
            },
            attempts: seq as u32 % 5,
        }
    }

    #[test]
    fn append_load_round_trips_including_nasty_lines() {
        let path = tmp_path("roundtrip");
        let log = DeadLetterLog::open(&path, 1 << 20).unwrap();
        let letters: Vec<DeadLetter> = vec![
            letter(1, "plain poison"),
            letter(2, "embedded \"quotes\" and \\backslashes\\"),
            letter(3, "looks like json: {\"reason\":\"panic\",\"attempts\":9}"),
            letter(4, "newline\nand\ttab and control\u{1}char"),
            letter(5, "unicode: héllo wörld — ☃"),
        ];
        log.append(&letters).unwrap();
        assert_eq!(log.load().unwrap(), letters);
        // A second process appends more; both batches load.
        let log2 = DeadLetterLog::open(&path, 1 << 20).unwrap();
        log2.append(&[letter(6, "later")]).unwrap();
        assert_eq!(log2.load().unwrap().len(), 6);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_skipped() {
        let path = tmp_path("torn");
        let log = DeadLetterLog::open(&path, 1 << 20).unwrap();
        log.append(&[letter(1, "ok one"), letter(2, "ok two")])
            .unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":3,\"shard\":null,\"line\":\"cut of")
            .unwrap();
        drop(f);
        let loaded = log.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].line, "ok two");
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rotation_caps_disk_and_counts_dropped_bytes() {
        let path = tmp_path("rotate");
        let log = DeadLetterLog::open(&path, 200).unwrap();
        let mut dropped = 0;
        for batch in 0..20u64 {
            dropped += log
                .append(&[letter(
                    batch,
                    &format!("poison batch {batch} {}", "x".repeat(40)),
                )])
                .unwrap();
        }
        let current = fs::metadata(&path).unwrap().len();
        assert!(current <= 400, "current file stays near the cap: {current}");
        assert!(
            path.with_file_name("dead_letters.jsonl.1").exists(),
            "one rotated generation retained"
        );
        assert!(dropped > 0, "rotation past the cap reported dropped bytes");
        let loaded = log.load().unwrap();
        assert!(!loaded.is_empty());
        assert!(loaded.len() < 20, "rotation dropped the oldest records");
        let last = loaded.last().unwrap();
        assert_eq!(last.seq, 19);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn retain_cap_bounds_generations() {
        let path = tmp_path("retain");
        let log = DeadLetterLog::open_with_retain(&path, 150, 3).unwrap();
        for batch in 0..40u64 {
            log.append(&[letter(batch, &format!("p{batch} {}", "y".repeat(40)))])
                .unwrap();
        }
        for g in 1..=3 {
            assert!(
                path.with_file_name(format!("dead_letters.jsonl.{g}"))
                    .exists(),
                "generation {g} retained"
            );
        }
        assert!(!path.with_file_name("dead_letters.jsonl.4").exists());
        // Ordering across generations holds: seqs load ascending.
        let seqs: Vec<u64> = log.load().unwrap().iter().map(|l| l.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(*seqs.last().unwrap(), 39);
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
