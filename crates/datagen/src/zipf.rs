//! Zipf-skewed label selection.
//!
//! Tests that want a few labels to carry most of a stream's mass need a
//! skew knob. This module provides the shared machinery: normalized Zipf
//! weights, a cumulative-threshold picker that costs exactly one `f64`
//! draw per event (so adding skew to a generator never changes its RNG
//! draw count, keeping default outputs byte-identical), and a many-label
//! [`zipf_stream`] generator for when the 3–4 labels of the SO/SNB
//! generators are too few.

use crate::workloads::{RawEvent, RawStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Normalized Zipf weights over `n` ranks: `w_i ∝ 1/(i+1)^skew`.
///
/// `skew = 0.0` is uniform; `skew = 1.0` is classic Zipf; larger values
/// concentrate mass on the first ranks harder.
pub fn zipf_weights(n: usize, skew: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one rank");
    let raw: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Cumulative thresholds for [`pick_index`]: `cum[i] = w_0 + … + w_i`.
pub fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Maps one uniform draw `r ∈ [0,1)` to an index via cumulative
/// thresholds. The last bucket absorbs floating-point slack.
pub fn pick_index(r: f64, cum: &[f64]) -> usize {
    cum.iter().position(|&t| r < t).unwrap_or(cum.len() - 1)
}

/// Configuration for [`zipf_stream`].
#[derive(Debug, Clone)]
pub struct ZipfConfig {
    /// Edge labels, in rank order (index 0 gets the most mass).
    pub labels: Vec<&'static str>,
    /// Number of vertices (ids `0..vertices`).
    pub vertices: u64,
    /// Number of edges to generate.
    pub edges: usize,
    /// Timestamps are spread over `[0, span)`.
    pub span: u64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
    /// Zipf exponent over the labels (`0.0` = uniform).
    pub skew: f64,
}

impl ZipfConfig {
    /// A skew-1.0 configuration.
    pub fn new(labels: Vec<&'static str>, vertices: u64, edges: usize) -> Self {
        ZipfConfig {
            labels,
            vertices,
            edges,
            span: edges as u64,
            seed: 0x21bf_5eed,
            skew: 1.0,
        }
    }

    /// Overrides the Zipf exponent.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the time span.
    pub fn with_span(mut self, span: u64) -> Self {
        self.span = span;
        self
    }
}

/// Generates a Zipf-skewed ordered raw stream.
///
/// Endpoints are uniform (no self-loops); the label is Zipf-ranked over
/// `cfg.labels`.
pub fn zipf_stream(cfg: &ZipfConfig) -> RawStream {
    assert!(cfg.vertices >= 2 && !cfg.labels.is_empty());
    let cum = cumulative(&zipf_weights(cfg.labels.len(), cfg.skew));
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut events: Vec<RawEvent> = Vec::with_capacity(cfg.edges);
    for i in 0..cfg.edges {
        let s = rng.gen_range(0..cfg.vertices);
        let mut t = rng.gen_range(0..cfg.vertices);
        if t == s {
            t = (s + 1) % cfg.vertices;
        }
        let idx = pick_index(rng.gen(), &cum);
        let ts = (i as u64) * cfg.span / cfg.edges.max(1) as u64;
        events.push((s, t, cfg.labels[idx], ts));
    }
    RawStream { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::FxHashMap;

    const LABELS: [&str; 6] = ["l0", "l1", "l2", "l3", "l4", "l5"];

    fn histogram(events: &[RawEvent]) -> FxHashMap<&'static str, usize> {
        let mut counts: FxHashMap<&'static str, usize> = FxHashMap::default();
        for &(_, _, l, _) in events {
            *counts.entry(l).or_default() += 1;
        }
        counts
    }

    #[test]
    fn weights_are_normalized_and_monotone() {
        let w = zipf_weights(5, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        let u = zipf_weights(4, 0.0);
        assert!(u.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn picker_covers_all_buckets() {
        let cum = cumulative(&zipf_weights(3, 1.0));
        assert_eq!(pick_index(0.0, &cum), 0);
        assert_eq!(pick_index(0.9999, &cum), 2);
        // Out-of-range slack lands in the last bucket, never panics.
        assert_eq!(pick_index(1.0, &cum), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ZipfConfig::new(LABELS.to_vec(), 100, 2_000);
        assert_eq!(zipf_stream(&cfg).events, zipf_stream(&cfg).events);
        assert_ne!(
            zipf_stream(&cfg).events,
            zipf_stream(&cfg.clone().with_seed(7)).events
        );
    }

    #[test]
    fn skew_concentrates_mass_on_head_labels() {
        let cfg = ZipfConfig::new(LABELS.to_vec(), 200, 20_000).with_skew(1.5);
        let counts = histogram(&zipf_stream(&cfg).events);
        let head = counts["l0"];
        let tail = counts.get("l5").copied().unwrap_or(0);
        assert!(head > 5 * tail.max(1), "head {head} vs tail {tail}");
    }
}
