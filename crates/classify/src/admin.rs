//! Simulated administrator.
//!
//! The paper's classifier learns from real operators moving alerts between
//! pools. No operators ship with this repository, so experiments D2 and the
//! end-to-end examples use a **scripted administrator** holding a hidden
//! ground-truth policy: a deterministic mapping from a report's dominant
//! source and kind to the pool the team *would* route it to, plus a
//! criticality rule, with optional label noise (humans mislabel too). The
//! substitution preserves the signal type the classifier sees — pool moves
//! and criticality edits, one at a time.

use crate::pools::PoolId;
use monilog_model::{AnomalyKind, AnomalyReport, Criticality};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The hidden routing policy of the simulated operations team.
#[derive(Debug, Clone)]
pub struct AdminPolicy {
    /// Pool per source-group: `pool_of[source % pool_count]`-style routing
    /// is configured explicitly as (source id range → pool).
    pub source_pools: Vec<(u16, u16, PoolId)>,
    /// Pool for quantitative anomalies that beats source routing, if set
    /// (capacity teams often own "numbers look wrong" alerts).
    pub quantitative_pool: Option<PoolId>,
    /// Fallback pool.
    pub default_pool: PoolId,
    /// Fraction of feedback actions that are wrong (label noise).
    pub noise: f64,
}

impl AdminPolicy {
    /// The pool this policy truly wants for a report.
    pub fn true_pool(&self, report: &AnomalyReport) -> PoolId {
        if report.kind == AnomalyKind::Quantitative {
            if let Some(p) = self.quantitative_pool {
                return p;
            }
        }
        let dominant = dominant_source(report);
        for &(lo, hi, pool) in &self.source_pools {
            if (lo..=hi).contains(&dominant) {
                return pool;
            }
        }
        self.default_pool
    }

    /// The criticality this policy truly wants: error-heavy multi-source
    /// reports are high, single-source warnings moderate, the rest low.
    pub fn true_criticality(&self, report: &AnomalyReport) -> Criticality {
        let n = report.events.len().max(1) as f64;
        let errorlike = report
            .events
            .iter()
            .filter(|e| e.level.is_errorlike())
            .count() as f64
            / n;
        let multi_source = report.sources().len() >= 2;
        if errorlike > 0.3 || (multi_source && errorlike > 0.1) {
            Criticality::High
        } else if errorlike > 0.0 || multi_source {
            Criticality::Moderate
        } else {
            Criticality::Low
        }
    }
}

fn dominant_source(report: &AnomalyReport) -> u16 {
    let mut counts: std::collections::HashMap<u16, usize> = Default::default();
    for e in &report.events {
        *counts.entry(e.source.0).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(src, n)| (n, u16::MAX - src)) // deterministic tie-break
        .map(|(src, _)| src)
        .unwrap_or(0)
}

/// Replays the hidden policy as a stream of feedback actions.
#[derive(Debug)]
pub struct AdminSimulator {
    pub policy: AdminPolicy,
    rng: StdRng,
}

impl AdminSimulator {
    pub fn new(policy: AdminPolicy, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&policy.noise));
        AdminSimulator {
            policy,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// What the administrator *does* for this report: the true pool and
    /// criticality, or (with probability `noise`) a perturbed answer. The
    /// `pools` slice lists the active pools noise can scatter into.
    pub fn act(&mut self, report: &AnomalyReport, pools: &[PoolId]) -> (PoolId, Criticality) {
        let mut pool = self.policy.true_pool(report);
        let mut level = self.policy.true_criticality(report);
        if self.policy.noise > 0.0 && self.rng.random_bool(self.policy.noise) {
            if !pools.is_empty() {
                pool = pools[self.rng.random_range(0..pools.len())];
            }
            let shifted = (level.ordinal() as i16 + if self.rng.random_bool(0.5) { 1 } else { -1 })
                .clamp(0, 2) as u8;
            level = Criticality::from_ordinal(shifted);
        }
        (pool, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::{EventId, LogEvent, Severity, SourceId, TemplateId, Timestamp};

    fn report(kind: AnomalyKind, sources: &[u16], errors: usize) -> AnomalyReport {
        let events = sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                LogEvent::new(
                    EventId(i as u64),
                    Timestamp::from_millis(i as u64),
                    SourceId(s),
                    if i < errors {
                        Severity::Error
                    } else {
                        Severity::Info
                    },
                    TemplateId(0),
                    vec![],
                    None,
                )
            })
            .collect();
        AnomalyReport {
            id: 0,
            kind,
            score: 1.0,
            detector: "t".into(),
            events,
            explanation: String::new(),
            provenance: Default::default(),
        }
    }

    fn policy() -> AdminPolicy {
        AdminPolicy {
            source_pools: vec![(0, 3, PoolId(1)), (4, 7, PoolId(2))],
            quantitative_pool: Some(PoolId(3)),
            default_pool: PoolId(0),
            noise: 0.0,
        }
    }

    #[test]
    fn routes_by_dominant_source() {
        let p = policy();
        assert_eq!(
            p.true_pool(&report(AnomalyKind::Sequential, &[1, 1, 5], 0)),
            PoolId(1)
        );
        assert_eq!(
            p.true_pool(&report(AnomalyKind::Sequential, &[6, 6, 1], 0)),
            PoolId(2)
        );
        assert_eq!(
            p.true_pool(&report(AnomalyKind::Sequential, &[99], 0)),
            PoolId(0)
        );
    }

    #[test]
    fn quantitative_override() {
        let p = policy();
        assert_eq!(
            p.true_pool(&report(AnomalyKind::Quantitative, &[1, 1], 0)),
            PoolId(3)
        );
    }

    #[test]
    fn criticality_rules() {
        let p = policy();
        // Error-heavy: high.
        assert_eq!(
            p.true_criticality(&report(AnomalyKind::Sequential, &[1, 1, 1], 2)),
            Criticality::High
        );
        // Multi-source, no errors: moderate.
        assert_eq!(
            p.true_criticality(&report(AnomalyKind::Sequential, &[1, 5, 6], 0)),
            Criticality::Moderate
        );
        // Quiet single-source: low.
        assert_eq!(
            p.true_criticality(&report(AnomalyKind::Sequential, &[1, 1, 1], 0)),
            Criticality::Low
        );
    }

    #[test]
    fn noiseless_simulator_matches_policy() {
        let mut sim = AdminSimulator::new(policy(), 1);
        let r = report(AnomalyKind::Sequential, &[2, 2], 0);
        let (pool, level) = sim.act(&r, &[PoolId(0), PoolId(1), PoolId(2)]);
        assert_eq!(pool, sim.policy.true_pool(&r));
        assert_eq!(level, sim.policy.true_criticality(&r));
    }

    #[test]
    fn noise_perturbs_roughly_at_rate() {
        let mut p = policy();
        p.noise = 0.3;
        let mut sim = AdminSimulator::new(p, 2);
        let r = report(AnomalyKind::Sequential, &[2, 2], 0);
        let pools = [PoolId(0), PoolId(1), PoolId(2), PoolId(3)];
        let mut wrong = 0;
        for _ in 0..500 {
            let (pool, _) = sim.act(&r, &pools);
            if pool != sim.policy.true_pool(&r) {
                wrong += 1;
            }
        }
        // noise 0.3 × (3/4 chance the random pool differs) ≈ 0.22.
        let rate = wrong as f64 / 500.0;
        assert!((0.1..=0.35).contains(&rate), "wrong-pool rate {rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let r = report(AnomalyKind::Sequential, &[2], 0);
        let pools = [PoolId(0), PoolId(1)];
        let mut p = policy();
        p.noise = 0.5;
        let mut a = AdminSimulator::new(p.clone(), 9);
        let mut b = AdminSimulator::new(p, 9);
        for _ in 0..50 {
            assert_eq!(a.act(&r, &pools), b.act(&r, &pools));
        }
    }
}
