//! Typed variable generators.
//!
//! Each wildcard position of a generated template carries a [`VarSpec`]
//! describing its value distribution. Quantitative anomalies (Table I, L3:
//! an absurd byte count in an otherwise normal line) are produced by
//! sampling from [`VarSpec::sample_anomalous`] instead of
//! [`VarSpec::sample`].

use rand::{Rng, RngExt};

/// The value domain of one variable position.
#[derive(Debug, Clone, PartialEq)]
pub enum VarKind {
    /// Uniform integer in `[lo, hi]`. Anomalous values are drawn far above
    /// `hi` (×100 to ×10000), like L3's 745675869-byte send.
    Int { lo: i64, hi: i64 },
    /// Fixed-precision float in `[lo, hi)`; anomalous values exceed the
    /// range by 10–1000×.
    Float { lo: f64, hi: f64 },
    /// IPv4 address within a /16 (e.g. `10.250.x.y`). Anomalous addresses
    /// fall outside the expected subnet.
    Ip { prefix: [u8; 2] },
    /// TCP/UDP port from the given list of usual ports; anomalous ports are
    /// random ephemeral ports.
    Port { usual: Vec<u16> },
    /// Fixed-length lowercase-hex identifier (never anomalous by itself).
    Hex { len: usize },
    /// A word drawn from a closed set (enum-like variables: user names,
    /// operation names). Anomalous draws produce a word outside the set.
    Word { choices: Vec<String> },
    /// A unix-ish path with `depth` random segments.
    Path { depth: usize },
    /// A duration in milliseconds, log-uniform in `[lo, hi]`; anomalous
    /// durations exceed `hi` by 10–1000×.
    DurationMs { lo: u64, hi: u64 },
    /// An identifier like `x92` / `proc-17`: fixed prefix + small int.
    PrefixedId { prefix: String, max: u32 },
}

/// A named variable slot of a template.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSpec {
    /// Field name, used when the variable is rendered into a JSON payload.
    pub name: String,
    pub kind: VarKind,
}

impl VarSpec {
    pub fn new(name: impl Into<String>, kind: VarKind) -> Self {
        VarSpec {
            name: name.into(),
            kind,
        }
    }

    /// Sample a value from the normal distribution of this variable.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        match &self.kind {
            VarKind::Int { lo, hi } => rng.random_range(*lo..=*hi).to_string(),
            VarKind::Float { lo, hi } => {
                let v = rng.random_range(*lo..*hi);
                format!("{v:.2}")
            }
            VarKind::Ip { prefix } => format!(
                "{}.{}.{}.{}",
                prefix[0],
                prefix[1],
                rng.random_range(0..=255),
                rng.random_range(1..=254)
            ),
            VarKind::Port { usual } => {
                debug_assert!(!usual.is_empty());
                usual[rng.random_range(0..usual.len())].to_string()
            }
            VarKind::Hex { len } => {
                let mut s = String::with_capacity(*len);
                for _ in 0..*len {
                    let d = rng.random_range(0..16u32);
                    s.push(char::from_digit(d, 16).expect("digit < 16"));
                }
                // Guarantee at least one decimal digit so id-shaped tokens
                // stay recognizable as variables (all-letter hex like
                // "eaabdb" would otherwise masquerade as a word).
                if !s.bytes().any(|b| b.is_ascii_digit()) && *len > 0 {
                    let pos = rng.random_range(0..*len);
                    let d = rng.random_range(0..10u32);
                    s.replace_range(pos..pos + 1, &d.to_string());
                }
                s
            }
            VarKind::Word { choices } => {
                debug_assert!(!choices.is_empty());
                choices[rng.random_range(0..choices.len())].clone()
            }
            VarKind::Path { depth } => {
                let mut s = String::new();
                for _ in 0..*depth {
                    s.push('/');
                    let seg_len = rng.random_range(3..8);
                    for _ in 0..seg_len {
                        s.push((b'a' + rng.random_range(0..26u8)) as char);
                    }
                }
                if s.is_empty() {
                    s.push('/');
                }
                s
            }
            VarKind::DurationMs { lo, hi } => {
                let lo_f = (*lo.max(&1) as f64).ln();
                let hi_f = (*hi.max(&2) as f64).ln();
                let v = rng.random_range(lo_f..hi_f).exp();
                (v as u64).to_string()
            }
            VarKind::PrefixedId { prefix, max } => {
                format!("{prefix}{}", rng.random_range(0..*max))
            }
        }
    }

    /// Sample a value from the *anomalous* distribution: same syntax, wrong
    /// magnitude or wrong domain — the quantitative anomalies of Section III.
    pub fn sample_anomalous<R: Rng + ?Sized>(&self, rng: &mut R) -> String {
        match &self.kind {
            VarKind::Int { hi, .. } => {
                let factor = rng.random_range(100..10_000) as i64;
                (hi.saturating_mul(factor).max(hi + 1_000_000)).to_string()
            }
            VarKind::Float { hi, .. } => {
                let factor = rng.random_range(10.0..1_000.0);
                format!("{:.2}", hi * factor + 1_000.0)
            }
            VarKind::Ip { prefix } => format!(
                "{}.{}.{}.{}",
                // An address outside the expected subnet.
                (prefix[0] as u16 + 77) % 224 + 1,
                rng.random_range(0..=255),
                rng.random_range(0..=255),
                rng.random_range(1..=254)
            ),
            VarKind::Port { .. } => rng.random_range(49_152..=65_535u16).to_string(),
            VarKind::Hex { len } => {
                // Hex ids are opaque; an "anomalous" one is just fresh.
                VarSpec::new("", VarKind::Hex { len: *len }).sample(rng)
            }
            VarKind::Word { .. } => {
                let mut s = String::from("zz");
                for _ in 0..5 {
                    s.push((b'a' + rng.random_range(0..26u8)) as char);
                }
                s
            }
            VarKind::Path { depth } => {
                VarSpec::new("", VarKind::Path { depth: depth + 4 }).sample(rng)
            }
            VarKind::DurationMs { hi, .. } => {
                let factor = rng.random_range(10..1_000);
                (hi.saturating_mul(factor)).to_string()
            }
            VarKind::PrefixedId { prefix, max } => {
                format!("{prefix}{}", max + rng.random_range(1_000_000..2_000_000))
            }
        }
    }

    /// True if normal samples of this variable parse as numbers — only
    /// numeric variables can host detectable quantitative anomalies.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self.kind,
            VarKind::Int { .. } | VarKind::Float { .. } | VarKind::DurationMs { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn int_samples_stay_in_range() {
        let spec = VarSpec::new("bytes", VarKind::Int { lo: 10, hi: 500 });
        let mut r = rng();
        for _ in 0..200 {
            let v: i64 = spec.sample(&mut r).parse().unwrap();
            assert!((10..=500).contains(&v));
        }
    }

    #[test]
    fn int_anomalies_leave_the_range() {
        let spec = VarSpec::new("bytes", VarKind::Int { lo: 10, hi: 500 });
        let mut r = rng();
        for _ in 0..200 {
            let v: i64 = spec.sample_anomalous(&mut r).parse().unwrap();
            assert!(v > 500, "anomalous value {v} inside normal range");
        }
    }

    #[test]
    fn ip_samples_match_prefix() {
        let spec = VarSpec::new("src", VarKind::Ip { prefix: [10, 250] });
        let mut r = rng();
        for _ in 0..50 {
            let v = spec.sample(&mut r);
            assert!(v.starts_with("10.250."), "{v}");
            assert_eq!(v.split('.').count(), 4);
        }
    }

    #[test]
    fn ip_anomalies_leave_subnet() {
        let spec = VarSpec::new("src", VarKind::Ip { prefix: [10, 250] });
        let mut r = rng();
        for _ in 0..50 {
            let v = spec.sample_anomalous(&mut r);
            assert!(!v.starts_with("10.250."), "{v}");
        }
    }

    #[test]
    fn hex_has_fixed_length_and_charset() {
        let spec = VarSpec::new("id", VarKind::Hex { len: 12 });
        let mut r = rng();
        for _ in 0..50 {
            let v = spec.sample(&mut r);
            assert_eq!(v.len(), 12);
            assert!(v.bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn word_anomaly_is_outside_choices() {
        let choices = vec!["read".to_string(), "write".to_string()];
        let spec = VarSpec::new(
            "op",
            VarKind::Word {
                choices: choices.clone(),
            },
        );
        let mut r = rng();
        for _ in 0..50 {
            assert!(choices.contains(&spec.sample(&mut r)));
            assert!(!choices.contains(&spec.sample_anomalous(&mut r)));
        }
    }

    #[test]
    fn samples_are_single_tokens() {
        // Every variable value must be one whitespace token, otherwise it
        // would change the token count of the message and break Eq. 1 truth.
        let specs = [
            VarSpec::new("a", VarKind::Int { lo: -5, hi: 5 }),
            VarSpec::new("b", VarKind::Float { lo: 0.0, hi: 1.0 }),
            VarSpec::new("c", VarKind::Ip { prefix: [192, 168] }),
            VarSpec::new(
                "d",
                VarKind::Port {
                    usual: vec![80, 443],
                },
            ),
            VarSpec::new("e", VarKind::Hex { len: 8 }),
            VarSpec::new(
                "f",
                VarKind::Word {
                    choices: vec!["x".into()],
                },
            ),
            VarSpec::new("g", VarKind::Path { depth: 3 }),
            VarSpec::new("h", VarKind::DurationMs { lo: 1, hi: 1000 }),
            VarSpec::new(
                "i",
                VarKind::PrefixedId {
                    prefix: "x".into(),
                    max: 100,
                },
            ),
        ];
        let mut r = rng();
        for spec in &specs {
            for _ in 0..20 {
                let normal = spec.sample(&mut r);
                let anom = spec.sample_anomalous(&mut r);
                assert_eq!(
                    normal.split_whitespace().count(),
                    1,
                    "{spec:?} -> {normal:?}"
                );
                assert_eq!(anom.split_whitespace().count(), 1, "{spec:?} -> {anom:?}");
            }
        }
    }

    #[test]
    fn numeric_classification() {
        assert!(VarSpec::new("a", VarKind::Int { lo: 0, hi: 1 }).is_numeric());
        assert!(VarSpec::new("a", VarKind::DurationMs { lo: 1, hi: 2 }).is_numeric());
        assert!(!VarSpec::new("a", VarKind::Ip { prefix: [1, 2] }).is_numeric());
    }

    #[test]
    fn duration_log_uniform_within_bounds() {
        let spec = VarSpec::new("lat", VarKind::DurationMs { lo: 5, hi: 2_000 });
        let mut r = rng();
        for _ in 0..200 {
            let v: u64 = spec.sample(&mut r).parse().unwrap();
            assert!((4..=2_000).contains(&v), "{v}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Int sampling respects arbitrary ranges.
        #[test]
        fn int_range_respected(lo in -1000i64..1000, span in 0i64..1000, seed: u64) {
            let hi = lo + span;
            let spec = VarSpec::new("v", VarKind::Int { lo, hi });
            let mut rng = StdRng::seed_from_u64(seed);
            let v: i64 = spec.sample(&mut rng).parse().unwrap();
            prop_assert!((lo..=hi).contains(&v));
        }

        /// Anomalous ints always exceed the normal maximum.
        #[test]
        fn int_anomaly_exceeds_hi(lo in 0i64..100, span in 1i64..1000, seed: u64) {
            let hi = lo + span;
            let spec = VarSpec::new("v", VarKind::Int { lo, hi });
            let mut rng = StdRng::seed_from_u64(seed);
            let v: i64 = spec.sample_anomalous(&mut rng).parse().unwrap();
            prop_assert!(v > hi);
        }
    }
}
