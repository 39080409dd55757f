//! Summary statistics under the benchmark's reporting rule: a timing is
//! reported as its median plus the highest percentile that still has at
//! least ten samples beyond it, with the sample count.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even counts).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, in exact
/// integer arithmetic on tenths of a percent.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0..100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples above its rank, and its value. `None` when even the median has
/// fewer than ten samples beyond it.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
        .map(|&p| (p, percentile(v, p)))
}

/// One timing, summarised for the human-readable report.
pub struct Summary {
    pub median: f64,
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

pub fn summarise(v: &[f64]) -> Summary {
    Summary {
        median: median(v),
        tail: tail(v),
        n: v.len(),
    }
}

impl Summary {
    /// `median 1.23 ms, p90 1.50 ms, n=120` (the tail is omitted when the
    /// samples cannot support any percentile above the median).
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, value)) => format!(
                "median {:.4} {unit}, p{p} {value:.4} {unit}, n={}",
                self.median, self.n
            ),
            None => format!("median {:.4} {unit}, n={}", self.median, self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 999 samples: p99 has nine beyond, so p95 is the highest.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(95.0));
        // 10000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        // 20 samples: only the median has ten beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 19 samples support nothing.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarise(&v).describe("ms");
        assert!(s.contains("p95 190.0000 ms"), "{s}");
        assert!(s.ends_with("n=200"), "{s}");
    }
}
