//! StackOverflow-like stream generator.
//!
//! The real SO graph (§7.1.2) has one vertex class (users), three
//! timestamped edge labels (answer-to-question `a2q`, comment-to-question
//! `c2q`, comment-to-answer `c2a`), heavy-tailed activity, and is dense
//! and cyclic — "its cyclic nature causes a high number of intermediate
//! results and resulting paths". This generator reproduces those drivers:
//!
//! * endpoints are drawn by preferential attachment over past
//!   participants (heavy-tailed degrees, high clustering of activity);
//! * direction is random per edge, so label graphs are cyclic;
//! * timestamps increase uniformly over the configured span.

use crate::workloads::{RawEvent, RawStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`so_stream`].
#[derive(Debug, Clone)]
pub struct SoConfig {
    /// Number of users (vertex ids `0..users`).
    pub users: u64,
    /// Number of edges to generate.
    pub edges: usize,
    /// Timestamps are spread over `[0, span)`.
    pub span: u64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Probability of preferential (vs. uniform) endpoint choice.
    pub preferential: f64,
    /// Zipf exponent over the three labels. `0.0` (default) keeps the
    /// measured SO mix; `> 0.0` replaces it with normalized Zipf weights
    /// `w_i ∝ 1/(i+1)^skew` in declaration order (`a2q` heaviest).
    pub skew: f64,
}

impl SoConfig {
    /// A laptop-scale default roughly preserving the SO label mix.
    pub fn new(users: u64, edges: usize) -> Self {
        SoConfig {
            users,
            edges,
            span: edges as u64,
            seed: 0x005e_ed50,
            preferential: 0.6,
            skew: 0.0,
        }
    }

    /// Overrides the time span.
    pub fn with_span(mut self, span: u64) -> Self {
        self.span = span;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the measured label mix with Zipf weights of exponent
    /// `skew`.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }
}

/// Label mix measured on the real SO graph: answers dominate, comments on
/// questions and answers split the rest.
const LABELS: [(&str, f64); 3] = [("a2q", 0.45), ("c2q", 0.30), ("c2a", 0.25)];

/// Generates an SO-like ordered raw stream.
pub fn so_stream(cfg: &SoConfig) -> RawStream {
    assert!(cfg.users >= 2, "need at least two users");
    // One threshold draw per event regardless of skew, so the
    // default configuration stays byte-identical to earlier releases.
    let cum = if cfg.skew > 0.0 {
        crate::zipf::cumulative(&crate::zipf::zipf_weights(LABELS.len(), cfg.skew))
    } else {
        crate::zipf::cumulative(&LABELS.map(|(_, w)| w))
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Pool of past endpoints for preferential attachment: every
    // participation appends, so sampling uniformly from the pool is
    // degree-proportional.
    let mut pool: Vec<u64> = Vec::with_capacity(cfg.edges * 2);
    let mut events: Vec<RawEvent> = Vec::with_capacity(cfg.edges);

    let pick = |rng: &mut SmallRng, pool: &Vec<u64>| -> u64 {
        if !pool.is_empty() && rng.gen_bool(cfg.preferential) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            rng.gen_range(0..cfg.users)
        }
    };

    for i in 0..cfg.edges {
        let src = pick(&mut rng, &pool);
        let mut trg = pick(&mut rng, &pool);
        if trg == src {
            trg = (src + 1 + rng.gen_range(0..cfg.users - 1)) % cfg.users;
        }
        let label = LABELS[crate::zipf::pick_index(rng.gen(), &cum)].0;
        let ts = (i as u64) * cfg.span / cfg.edges.max(1) as u64;
        events.push((src, trg, label, ts));
        pool.push(src);
        pool.push(trg);
    }
    RawStream { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::FxHashMap;

    #[test]
    fn deterministic_per_seed() {
        let a = so_stream(&SoConfig::new(100, 1000));
        let b = so_stream(&SoConfig::new(100, 1000));
        assert_eq!(a.events, b.events);
        let c = so_stream(&SoConfig::new(100, 1000).with_seed(7));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn ordered_and_sized() {
        let s = so_stream(&SoConfig::new(50, 500).with_span(100));
        assert_eq!(s.len(), 500);
        assert!(s.events.windows(2).all(|w| w[0].3 <= w[1].3));
        assert!(s.events.iter().all(|e| e.3 < 100));
    }

    #[test]
    fn no_self_loops_and_valid_ids() {
        let s = so_stream(&SoConfig::new(20, 300));
        for &(a, b, _, _) in &s.events {
            assert_ne!(a, b);
            assert!(a < 20 && b < 20);
        }
    }

    #[test]
    fn label_mix_roughly_matches() {
        let s = so_stream(&SoConfig::new(200, 10_000));
        let mut counts: FxHashMap<&str, usize> = FxHashMap::default();
        for &(_, _, l, _) in &s.events {
            *counts.entry(l).or_default() += 1;
        }
        let frac = |l: &str| counts[l] as f64 / s.len() as f64;
        assert!((frac("a2q") - 0.45).abs() < 0.05);
        assert!((frac("c2q") - 0.30).abs() < 0.05);
        assert!((frac("c2a") - 0.25).abs() < 0.05);
    }

    #[test]
    fn skew_zero_is_the_measured_mix() {
        // The skew knob draws the same RNG sequence, so the default
        // configuration must keep producing the exact historical stream.
        let a = so_stream(&SoConfig::new(100, 1000));
        let b = so_stream(&SoConfig::new(100, 1000).with_skew(0.0));
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn skew_concentrates_label_mass() {
        let s = so_stream(&SoConfig::new(200, 10_000).with_skew(2.0));
        let mut counts: FxHashMap<&str, usize> = FxHashMap::default();
        for &(_, _, l, _) in &s.events {
            *counts.entry(l).or_default() += 1;
        }
        // Zipf(2) over three ranks puts ~73% of mass on the head label.
        assert!(counts["a2q"] > 2 * (counts["c2q"] + counts["c2a"]));
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        // Preferential attachment: the max degree should far exceed the
        // mean (a uniform graph would concentrate near the mean).
        let s = so_stream(&SoConfig::new(500, 20_000));
        let mut deg: FxHashMap<u64, usize> = FxHashMap::default();
        for &(a, b, _, _) in &s.events {
            *deg.entry(a).or_default() += 1;
            *deg.entry(b).or_default() += 1;
        }
        let mean = (2 * s.len()) as f64 / 500.0;
        let max = *deg.values().max().unwrap() as f64;
        assert!(max > 4.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn graph_is_cyclic() {
        // With random direction and dense reuse of endpoints, the a2q
        // subgraph alone should contain a directed cycle; verify by
        // checking that a topological sort fails (some SCC of size > 1 or
        // a back edge exists). Cheap proxy: some pair (u,v) has edges in
        // both directions.
        let s = so_stream(&SoConfig::new(50, 5_000));
        let pairs: sgq_types::FxHashSet<(u64, u64)> =
            s.events.iter().map(|&(a, b, _, _)| (a, b)).collect();
        assert!(pairs.iter().any(|&(a, b)| pairs.contains(&(b, a))));
    }
}
