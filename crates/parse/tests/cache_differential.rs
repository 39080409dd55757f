//! Differential proof that the Drain match cache is output-invisible.
//!
//! The cache in `parsers/drain.rs` memoizes tree walks; its correctness
//! argument (install only on pure matches, flush on any mutation, verify
//! keys, re-extract variables per line) is stated there. This test checks
//! the argument empirically: a cache-enabled Drain and a cache-disabled
//! Drain fed the *same* line sequence must emit identical
//! `(template_id, variables)` for every line — over random interleavings
//! of every loggen corpus, and across a simulated crash/respawn
//! (`Drain::warm_start` from a snapshot of the template store, the
//! recovery path the supervised service uses).

use monilog_parse::{Drain, DrainConfig, OnlineParser};
use proptest::prelude::*;

fn cached_config() -> DrainConfig {
    let config = DrainConfig::default();
    assert!(config.cache_capacity > 0, "default must enable the cache");
    config
}

fn uncached_config() -> DrainConfig {
    DrainConfig {
        cache_capacity: 0,
        ..DrainConfig::default()
    }
}

/// All corpora mixed: every loggen generator contributes lines, then the
/// shuffle below interleaves the sources arbitrarily.
fn corpus_lines(seed: u64) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for corpus in [
        monilog_loggen::corpus::hdfs_like(8, seed),
        monilog_loggen::corpus::cloud_mixed(3, seed ^ 0xA5),
        monilog_loggen::corpus::api_json(3, seed ^ 0x5A),
        monilog_loggen::corpus::unstable(3, seed ^ 0xC3),
    ] {
        lines.extend(corpus.messages().map(str::to_owned));
    }
    lines
}

/// Parse `lines` with both parsers, crashing and respawning each from a
/// template-store snapshot at `cut` (0 disables the respawn). Returns the
/// cached parser's final `(hits, misses)`.
fn run_differential(lines: &[String], cut: usize) -> (u64, u64) {
    let mut cached = Drain::new(cached_config());
    let mut uncached = Drain::new(uncached_config());
    for (i, line) in lines.iter().enumerate() {
        if cut > 0 && i == cut {
            // Crash/respawn: both parsers restart from their persisted
            // stores, exactly as a restarted monitor warm-starts its Drain.
            cached = Drain::warm_start(cached_config(), cached.store().clone());
            uncached = Drain::warm_start(uncached_config(), uncached.store().clone());
        }
        let c = cached.parse(line);
        let u = uncached.parse(line);
        assert_eq!(
            (c.template, &c.variables),
            (u.template, &u.variables),
            "cache changed output at line {i}: {line:?}"
        );
    }
    assert_eq!(uncached.cache_stats(), (0, 0));
    cached.cache_stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_drain_matches_uncached_on_corpus_interleavings(
        seed in 0u64..1_000,
        shuffle_seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut lines = corpus_lines(seed);
        // Fisher–Yates with a splitmix64 stream: arbitrary interleaving of
        // the corpus sources, fully determined by the proptest inputs.
        let mut state = shuffle_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..lines.len()).rev() {
            lines.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let shuffled = lines;
        // Exercise the crash path in the middle of the stream (cut 0 on a
        // fraction of cases covers the no-crash baseline too).
        let cut = (cut_frac * shuffled.len() as f64) as usize;
        let (hits, misses) = run_differential(&shuffled, cut);
        // The comparison is only meaningful if the cache actually worked:
        // corpus lines repeat templates, so hits must occur.
        prop_assert!(hits > 0, "cache never hit (misses={misses})");
    }
}

/// Deterministic regression shape: a straight pass over every corpus with
/// a respawn halfway — cheap enough to run under `--test`-style smoke.
#[test]
fn straight_corpus_pass_with_respawn_is_identical() {
    let lines = corpus_lines(42);
    let (hits, misses) = run_differential(&lines, lines.len() / 2);
    assert!(hits > 0);
    assert!(misses > 0, "first sighting of each template must miss");
}
