//! Sharded Drain — the paper's planned contribution.
//!
//! "Regarding the distribution, Drain method, which shows the best
//! performances, is not distributable. We plan to provide a distributed
//! version of research tree-based log parsing method as we already have
//! some encouraging results." (Section IV)
//!
//! Strategy: partition the stream across `n_shards` independent Drain
//! trees behind a [`BalancedRouter`]: per-key sticky routing on the first
//! stable token (the first level of Drain's own tree), with
//! power-of-two-choices placement and hot-key splitting so one heavy
//! template cannot cap the load balance. Shards share no state, so they
//! can run on separate threads/machines; a thin mapping layer translates
//! (shard, local template) pairs into one global template space by
//! interning the *rendered pattern* — which is what keeps grouping exact
//! when a hot key splits: replicas re-discover the same masked template
//! and collapse onto one global id.
//!
//! Experiment D1 measures the claims: identical accuracy, load balance,
//! and near-linear throughput scaling (the parallel harness lives in
//! `monilog-stream`; this type is the sequential core).

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::parsers::drain::{Drain, DrainConfig};
use crate::route::{BalancedRouter, SplitEvent};
use monilog_model::{TemplateId, TemplateStore, TemplateToken};
use std::collections::HashMap;

/// Sharded-Drain configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedDrainConfig {
    pub n_shards: usize,
    /// Per-shard Drain configuration.
    pub drain: DrainConfig,
}

impl Default for ShardedDrainConfig {
    fn default() -> Self {
        ShardedDrainConfig {
            n_shards: 4,
            drain: DrainConfig::default(),
        }
    }
}

/// A set of independent Drain trees behind a deterministic router.
#[derive(Debug)]
pub struct ShardedDrain {
    config: ShardedDrainConfig,
    shards: Vec<Drain>,
    router: BalancedRouter,
    /// (shard, local template id) → global template id.
    global_ids: HashMap<(usize, TemplateId), TemplateId>,
    store: TemplateStore,
}

impl ShardedDrain {
    pub fn new(config: ShardedDrainConfig) -> Self {
        assert!(config.n_shards >= 1, "need at least one shard");
        ShardedDrain {
            shards: (0..config.n_shards)
                .map(|_| Drain::new(config.drain))
                .collect(),
            router: BalancedRouter::new(config.n_shards),
            config,
            global_ids: HashMap::new(),
            store: TemplateStore::new(),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// Shard for the next occurrence of `message`'s routing key.
    /// Stateful: the router tracks per-key and per-shard load to place
    /// new keys and split hot ones — see [`BalancedRouter`]. Deterministic
    /// in the input sequence, so a parallel deployment feeding its router
    /// the same lines in the same order routes identically.
    pub fn route(&mut self, message: &str) -> usize {
        self.router.route(message)
    }

    /// The router state (load and split diagnostics for D1).
    pub fn router(&self) -> &BalancedRouter {
        &self.router
    }

    /// Lines parsed by each shard — the load-balance diagnostic for D1.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lines_parsed()).collect()
    }

    /// Template handoff when a hot key splits: copy the key's templates
    /// from the rendezvous-primary replica into the newly added one,
    /// bound to the *same global ids*. Without this, the new replica
    /// re-discovers the key's templates from scratch and its early lines
    /// intern under pre-widening patterns — a second global id for the
    /// same template, which strict grouping accuracy punishes. In a
    /// deployed cluster this is the split protocol message: the
    /// coordinator ships the key's current template set to the adopting
    /// worker.
    fn handoff(&mut self, key: &str, ev: SplitEvent) {
        if ev.source == ev.added {
            return;
        }
        let templates: Vec<(TemplateId, Vec<TemplateToken>)> = self.shards[ev.source]
            .store()
            .iter()
            .filter(|t| match t.tokens.first() {
                Some(TemplateToken::Static(s)) => s == key,
                Some(TemplateToken::Wildcard) => key == "<*>",
                None => false,
            })
            .map(|t| (t.id, t.tokens.clone()))
            .collect();
        for (src_local, tokens) in templates {
            if let Some(&gid) = self.global_ids.get(&(ev.source, src_local)) {
                let new_local = self.shards[ev.added].adopt(&tokens);
                self.global_ids.entry((ev.added, new_local)).or_insert(gid);
            }
        }
    }
}

impl OnlineParser for ShardedDrain {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (shard_idx, split) = self.router.route_detailed(message);
        if let Some(ev) = split {
            self.handoff(BalancedRouter::key_token(message), ev);
        }
        let local = self.shards[shard_idx].parse(message);
        let local_tokens = &self.shards[shard_idx]
            .store()
            .get(local.template)
            .expect("shard returned a valid id")
            .tokens;
        let gid = match self.global_ids.get(&(shard_idx, local.template)) {
            Some(&gid) => {
                // Sync the global view only when the shard actually
                // widened its template — the warm path is a comparison,
                // not a clone + re-render per line.
                let stale = self
                    .store
                    .get(gid)
                    .is_some_and(|global| &global.tokens != local_tokens);
                if stale {
                    let tokens = local_tokens.clone();
                    self.store.update(gid, tokens);
                }
                gid
            }
            None => {
                let gid = self.store.intern(local_tokens.clone());
                self.global_ids.insert((shard_idx, local.template), gid);
                gid
            }
        };
        ParseOutcome {
            template: gid,
            is_new: local.is_new,
            variables: local.variables,
        }
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::ShardedDrain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_loggen::corpus;
    use std::collections::HashMap;

    #[test]
    fn single_shard_matches_drain_exactly() {
        let corpus = corpus::cloud_mixed(20, 5);
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards: 1,
            drain: DrainConfig::default(),
        });
        let mut plain = Drain::new(DrainConfig::default());
        for log in &corpus.logs {
            let a = sharded.parse(&log.record.message);
            let b = plain.parse(&log.record.message);
            assert_eq!(a.variables, b.variables);
            assert_eq!(a.is_new, b.is_new);
        }
        assert_eq!(sharded.store().len(), plain.store().len());
    }

    #[test]
    fn routing_is_deterministic_and_template_stable() {
        let mut sharded = ShardedDrain::new(ShardedDrainConfig::default());
        // Same template, different variable values → same shard (sticky
        // until the key is hot enough to split, which 3 lines is not).
        let a = sharded.route("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2");
        let b = sharded.route("Sending 999 bytes src: 10.9.9.9 dest: /10.0.0.1");
        assert_eq!(a, b);
        assert_eq!(
            a,
            sharded.route("Sending 138 bytes src: 10.0.0.1 dest: /10.0.0.2")
        );
    }

    #[test]
    fn hot_key_splitting_keeps_global_ids_collapsed() {
        // Push one template hard enough to split its routing key across
        // shards; the global intern layer must keep every line on one id.
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards: 4,
            drain: DrainConfig::default(),
        });
        let mut ids = std::collections::HashSet::new();
        for i in 0..2_000u64 {
            let out = sharded.parse(&format!(
                "Forwarded connection {:08} to backend be{} weight {}",
                i * 2654435761 % 99_999_999,
                i % 60,
                i % 40
            ));
            ids.insert(out.template);
        }
        assert!(
            sharded.router().split_key_count() >= 1,
            "a single-key stream at 2000 lines must split"
        );
        assert!(
            sharded.shard_loads().iter().filter(|&&l| l > 0).count() > 1,
            "split key must actually use several shards: {:?}",
            sharded.shard_loads()
        );
        assert_eq!(ids.len(), 1, "replicas must collapse to one global id");
    }

    #[test]
    fn sharding_preserves_grouping_quality() {
        // Every line of a truth template must land in exactly one parsed
        // template, same as plain Drain, because routing is template-stable.
        let corpus = corpus::hdfs_like(150, 9);
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards: 8,
            drain: DrainConfig::default(),
        });
        let mut truth_to_parsed: HashMap<u32, std::collections::HashSet<u32>> = HashMap::new();
        for log in &corpus.logs {
            let out = sharded.parse(&log.record.message);
            truth_to_parsed
                .entry(log.truth.template.0)
                .or_default()
                .insert(out.template.0);
        }
        for (truth, parsed) in truth_to_parsed {
            assert!(
                parsed.len() <= 2,
                "truth template {truth} scattered across {} parsed templates",
                parsed.len()
            );
        }
    }

    #[test]
    fn shards_share_the_load() {
        let corpus = corpus::cloud_mixed(30, 13);
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards: 4,
            drain: DrainConfig::default(),
        });
        for log in &corpus.logs {
            sharded.parse(&log.record.message);
        }
        let loads = sharded.shard_loads();
        assert_eq!(loads.iter().sum::<u64>() as usize, corpus.logs.len());
        let active = loads.iter().filter(|&&l| l > 0).count();
        assert!(
            active >= 3,
            "load concentrated on {active} shards: {loads:?}"
        );
    }

    #[test]
    fn global_ids_are_distinct_across_shards() {
        let mut sharded = ShardedDrain::new(ShardedDrainConfig {
            n_shards: 4,
            drain: DrainConfig::default(),
        });
        let corpus = corpus::cloud_mixed(10, 17);
        let mut seen = std::collections::HashSet::new();
        for log in &corpus.logs {
            seen.insert(sharded.parse(&log.record.message).template);
        }
        // All returned ids resolve in the global store.
        for id in seen {
            assert!(sharded.store().get(id).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        ShardedDrain::new(ShardedDrainConfig {
            n_shards: 0,
            drain: DrainConfig::default(),
        });
    }
}
