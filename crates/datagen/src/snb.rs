//! LDBC SNB-like stream generator.
//!
//! Mirrors the paper's SNB update-stream extraction (§7.1.2): persons and
//! messages as vertices; `knows` edges between persons (community-biased,
//! cyclic), `likes` edges person→message, `hasCreator` message→person, and
//! `replyOf` message→message forming a **forest** (every message replies
//! to at most one earlier message) — the structural property behind the
//! paper's observation that PATH-specific optimizations do not pay off on
//! SNB ("there is only one path between a pair of vertices").
//!
//! Vertex id spaces are disjoint: persons are `0..persons`, messages are
//! `persons..persons+messages`.

use crate::workloads::{RawEvent, RawStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`snb_stream`].
#[derive(Debug, Clone)]
pub struct SnbConfig {
    /// Number of persons.
    pub persons: u64,
    /// Number of communities the `knows` graph clusters into.
    pub communities: u64,
    /// Number of events (edges) to generate.
    pub edges: usize,
    /// Timestamps are spread over `[0, span)`.
    pub span: u64,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a new message is a reply to an earlier message.
    pub reply_prob: f64,
}

impl SnbConfig {
    /// Laptop-scale defaults preserving the SNB interaction mix.
    pub fn new(persons: u64, edges: usize) -> Self {
        SnbConfig {
            persons,
            communities: (persons / 50).max(1),
            edges,
            span: edges as u64,
            seed: 0x5eed_051b,
            reply_prob: 0.6,
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
}

/// Event-class mix measured on the SNB update stream: `knows`, `likes`,
/// and new-message (hasCreator + maybe replyOf) events.
const CLASSES: [f64; 3] = [0.20, 0.35, 0.45];

/// Generates an SNB-like ordered raw stream.
pub fn snb_stream(cfg: &SnbConfig) -> RawStream {
    assert!(cfg.persons >= 2, "need at least two persons");
    let cum = crate::mix::cumulative(&CLASSES);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut events: Vec<RawEvent> = Vec::with_capacity(cfg.edges + cfg.edges / 2);
    // Messages created so far: (message id, creator).
    let mut messages: Vec<(u64, u64)> = Vec::new();
    let mut next_message = cfg.persons;

    let person_in_community = |rng: &mut SmallRng, c: u64, persons: u64, communities: u64| -> u64 {
        let size = (persons / communities).max(1);
        let base = c * size;
        base + rng.gen_range(0..size.min(persons - base))
    };

    let mut i = 0usize;
    while events.len() < cfg.edges {
        let ts = (i as u64) * cfg.span / cfg.edges.max(1) as u64;
        i += 1;
        let class = crate::mix::pick_index(rng.gen(), &cum);
        if class == 0 {
            // knows: person-person, 85% intra-community (cyclic cluster).
            let c = rng.gen_range(0..cfg.communities);
            let a = person_in_community(&mut rng, c, cfg.persons, cfg.communities);
            let b = if rng.gen_bool(0.85) {
                person_in_community(&mut rng, c, cfg.persons, cfg.communities)
            } else {
                rng.gen_range(0..cfg.persons)
            };
            if a != b {
                events.push((a, b, "knows", ts));
            }
        } else if class == 1 && !messages.is_empty() {
            // likes: person → recent message (recency-biased).
            let p = rng.gen_range(0..cfg.persons);
            let m = recency_pick(&mut rng, messages.len());
            events.push((p, messages[m].0, "likes", ts));
        } else {
            // New message: hasCreator, and usually a replyOf to a recent
            // message — each message has at most ONE replyOf out-edge, so
            // the replyOf graph is a forest.
            let creator = rng.gen_range(0..cfg.persons);
            let m = next_message;
            next_message += 1;
            events.push((m, creator, "hasCreator", ts));
            if !messages.is_empty() && rng.gen_bool(cfg.reply_prob) && events.len() < cfg.edges {
                let parent = recency_pick(&mut rng, messages.len());
                events.push((m, messages[parent].0, "replyOf", ts));
            }
            messages.push((m, creator));
        }
    }
    events.truncate(cfg.edges);
    RawStream { events }
}

/// Picks an index biased towards the end of the range (recent items).
fn recency_pick(rng: &mut SmallRng, len: usize) -> usize {
    let a: f64 = rng.gen();
    let b: f64 = rng.gen();
    let frac = a.max(b); // triangular distribution towards 1.0
    ((frac * len as f64) as usize).min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::{FxHashMap, FxHashSet};

    fn cfg() -> SnbConfig {
        SnbConfig::new(200, 5_000)
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(snb_stream(&cfg()).events, snb_stream(&cfg()).events);
    }

    #[test]
    fn ordered_and_sized() {
        let s = snb_stream(&cfg());
        assert_eq!(s.len(), 5_000);
        assert!(s.events.windows(2).all(|w| w[0].3 <= w[1].3));
    }

    #[test]
    fn reply_of_is_a_forest() {
        // Every message has at most one outgoing replyOf, and replies point
        // to strictly earlier messages: a forest, hence a single path
        // between any vertex pair.
        let s = snb_stream(&cfg());
        let mut out_deg: FxHashMap<u64, usize> = FxHashMap::default();
        for &(a, b, l, _) in &s.events {
            if l == "replyOf" {
                *out_deg.entry(a).or_default() += 1;
                assert!(b < a, "replies point to earlier messages");
            }
        }
        assert!(out_deg.values().all(|&d| d == 1));
        assert!(!out_deg.is_empty(), "stream contains replies");
    }

    #[test]
    fn has_creator_targets_persons() {
        let s = snb_stream(&cfg());
        for &(m, p, l, _) in &s.events {
            match l {
                "hasCreator" => {
                    assert!(m >= 200, "source is a message");
                    assert!(p < 200, "target is a person");
                }
                "likes" => {
                    assert!(m < 200);
                    assert!(p >= 200);
                }
                "knows" => {
                    assert!(m < 200 && p < 200);
                }
                "replyOf" => {
                    assert!(m >= 200 && p >= 200);
                }
                other => panic!("unexpected label {other}"),
            }
        }
    }

    #[test]
    fn knows_is_community_clustered() {
        let s = snb_stream(&SnbConfig::new(400, 20_000));
        let communities = 400u64 / 50;
        let size = 400 / communities;
        let mut intra = 0usize;
        let mut total = 0usize;
        for &(a, b, l, _) in &s.events {
            if l == "knows" {
                total += 1;
                if a / size == b / size {
                    intra += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            intra as f64 / total as f64 > 0.7,
            "knows edges cluster within communities"
        );
    }

    #[test]
    fn all_four_labels_present() {
        let s = snb_stream(&cfg());
        let labels: FxHashSet<&str> = s.events.iter().map(|e| e.2).collect();
        for l in ["knows", "likes", "hasCreator", "replyOf"] {
            assert!(labels.contains(l), "missing {l}");
        }
    }
}
