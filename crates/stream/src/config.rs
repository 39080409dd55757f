//! Shared configuration types for the streaming layer: the overload
//! policy vocabulary applied at the source boundary and surfaced through
//! the `monilog` CLI, and the retry schedule of the delivery layer.

use std::fmt;
use std::time::Duration;

/// What a network source does when the ingest queue is full (see
/// [`crate::sources`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Stop reading until space frees up — end-to-end backpressure, the
    /// historical behaviour. Sources that cannot pause (UDP) drop and
    /// count instead.
    #[default]
    Block,
    /// Drop the line and count it (`sources_lines_shed`).
    ShedToCatchAll,
    /// Divert the line to the dead-letter queue with an overload marker so
    /// it can be replayed once the pipeline catches up.
    DeadLetter,
}

impl OverloadPolicy {
    /// Parse a CLI-style policy name (`block` | `shed` | `dead-letter`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "shed" => Ok(OverloadPolicy::ShedToCatchAll),
            "dead-letter" => Ok(OverloadPolicy::DeadLetter),
            other => Err(format!(
                "unknown overload policy {other:?} (expected block, shed, or dead-letter)"
            )),
        }
    }

    /// The CLI-style name (inverse of [`OverloadPolicy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedToCatchAll => "shed",
            OverloadPolicy::DeadLetter => "dead-letter",
        }
    }
}

impl fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Backoff schedule between failed delivery attempts: exponential with
/// deterministic per-batch jitter. There is no attempt cap: delivery never
/// gives up on retryable errors (the breaker and spill grace handle
/// persistent failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before retry `k` (1-based) is `base * 2^(k-1)` plus jitter.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based), jittered by up to
    /// +50% keyed on `seq` so co-failing lines don't retry in lockstep.
    pub fn backoff(&self, attempt: u32, seq: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        // SplitMix64-style scramble of (seq, attempt) → jitter fraction.
        let mut z = seq
            .wrapping_add(attempt as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter_num = (z >> 32) % 512; // 0..512 of 1024 → up to +50%
        capped + capped.mul_f64(jitter_num as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            OverloadPolicy::Block,
            OverloadPolicy::ShedToCatchAll,
            OverloadPolicy::DeadLetter,
        ] {
            assert_eq!(OverloadPolicy::parse(p.name()), Ok(p));
        }
        assert!(OverloadPolicy::parse("drop-everything").is_err());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let r = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        };
        let b1 = r.backoff(1, 7);
        let b3 = r.backoff(3, 7);
        let b7 = r.backoff(7, 7);
        assert!(b1 >= Duration::from_millis(2));
        assert!(b1 <= Duration::from_millis(3));
        assert!(b3 >= Duration::from_millis(8));
        // Cap plus at most +50% jitter.
        assert!(b7 <= Duration::from_millis(30));
        // Deterministic per (attempt, seq).
        assert_eq!(r.backoff(2, 9), r.backoff(2, 9));
    }
}
