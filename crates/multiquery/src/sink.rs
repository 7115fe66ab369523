//! Per-root shared result sinks and the subsuming family dedup.
//!
//! The route-once emission design keeps **one** sink per shared dataflow
//! root: every query subscribed to that root reads the same emission log
//! (a slice view from its join point), and per-query projection — window
//! clip via `answer_at`, answer-label tagging — happens lazily at
//! `drain`/`process`-collect time. The old design sank every root batch
//! once *per subscriber*, which is exactly the per-query tax that made
//! shared-fleet throughput collapse as fleets grew.
//!
//! Duplicate-suppression state comes in two shapes:
//!
//! * [`SinkDedup::Private`] — the classic per-root
//!   `(src, trg) → IntervalSet` map, identical to a dedicated engine's.
//! * [`SinkDedup::Family`] — **subsuming dedup** for window variants of
//!   the same canonical structure. All variants share one pair table
//!   ([`FamilyDedup`]): each `(src, trg)` entry holds a `subsume` set (the
//!   union coverage of every variant — a wider window's intervals subsume
//!   narrower ones, so this is ≈ the widest variant's set) plus small
//!   exact per-variant sets. A probe first consults `subsume`: if it does
//!   **not** cover the interval, no variant can (variant coverage is
//!   always a subset of the union), so the accept path skips the
//!   per-variant `covers` probe entirely; only intervals inside the union
//!   coverage pay the per-variant clipping check. Accepted intervals merge
//!   through the *variant's own exact set*, so emitted merged intervals —
//!   and therefore result logs — are bit-identical to a private sink's.
//!
//! Because every variant keeps its exact set, family membership is purely
//! an optimization: joining, leaving, and the demotion back to a private
//! sink when a family shrinks to one member (the widest-variant-leaves
//! handover) all preserve per-variant state exactly.

use sgq_core::algebra::SgaExpr;
use sgq_core::engine::{CoverageEntry, PairDedup};
use sgq_types::{FxHashMap, Interval, IntervalSet, Label, Sgt, Timestamp, VertexId};

/// One emission log of a root sink: append-only at the tail, releasable
/// at the head.
///
/// Positions are **absolute** — entry `i` is the `i`-th sgt this log ever
/// accepted — so the cursors registrations hold (`base`, `drained`,
/// `obs_*`) stay valid across a release. [`ResultLog::release_to`] only
/// moves the logical head; the released prefix is physically removed once
/// it is at least as long as the live remainder, so every compaction moves
/// no more entries than it frees (amortised O(1) per released result, and
/// never a per-epoch memmove of the live window).
#[derive(Default)]
pub(crate) struct ResultLog {
    buf: Vec<Sgt>,
    /// Absolute position of the first retained entry (= entries released).
    head: usize,
    /// Released entries still physically at the front of `buf`.
    dead: usize,
}

impl ResultLog {
    /// Absolute position of the first retained entry.
    pub fn head(&self) -> usize {
        self.head
    }

    /// Absolute position one past the last entry (= entries ever accepted).
    pub fn end(&self) -> usize {
        self.head + self.buf.len() - self.dead
    }

    /// The retained entries at absolute positions `from..`; positions
    /// before the head are gone, so the view starts at the head instead.
    pub fn from(&self, from: usize) -> &[Sgt] {
        &self.buf[self.dead + from.saturating_sub(self.head)..]
    }

    /// The append end, for the sink delivery loops (which push only).
    pub fn tail(&mut self) -> &mut Vec<Sgt> {
        &mut self.buf
    }

    /// Releases every entry before absolute position `upto`.
    pub fn release_to(&mut self, upto: usize) {
        debug_assert!(upto <= self.end(), "release past the log end");
        if upto <= self.head {
            return;
        }
        self.dead += upto - self.head;
        self.head = upto;
        if self.dead >= self.buf.len() - self.dead {
            self.buf.drain(..self.dead);
            self.dead = 0;
            // A burst (catch-up, a lagging subscriber) must not pin its
            // high-water allocation for the life of the host.
            if self.buf.capacity() > 4 * self.buf.len().max(MIN_LOG_CAPACITY) {
                self.buf.shrink_to(2 * self.buf.len().max(MIN_LOG_CAPACITY));
            }
        }
    }
}

/// Log allocations at or below this many entries are never shrunk.
const MIN_LOG_CAPACITY: usize = 1024;

/// One shared result sink per subscribed dataflow root: the emission log
/// every subscriber of that root reads through its own cursors.
pub(crate) struct RootSink {
    /// Emitted result inserts, in emission order, tagged with the root's
    /// canonical output label (per-query answer tags are applied lazily).
    pub results: ResultLog,
    /// Emitted negative result tuples.
    pub deleted: ResultLog,
    /// Duplicate-suppression state (private map or family membership).
    pub dedup: SinkDedup,
    /// `(query id, answer label)` per subscriber, registration order —
    /// drives `process`-style emission collection.
    pub subscribers: Vec<(u64, Label)>,
    /// Window-erased structure key (see `Canonicalizer::family_key`);
    /// `None` when duplicate suppression is off (families never form).
    pub family_key: Option<SgaExpr>,
}

impl RootSink {
    pub fn new(subscriber: (u64, Label), family_key: Option<SgaExpr>) -> RootSink {
        RootSink {
            results: ResultLog::default(),
            deleted: ResultLog::default(),
            dedup: SinkDedup::Private(FxHashMap::default()),
            subscribers: vec![subscriber],
            family_key,
        }
    }
}

/// A root sink's duplicate-suppression backing store.
pub(crate) enum SinkDedup {
    /// Per-root pair map, exactly a dedicated engine's sink state.
    Private(FxHashMap<(VertexId, VertexId), IntervalSet>),
    /// Member of the family at this index in the registry's family table;
    /// the variant slot is the root's node id.
    Family(usize),
}

/// One `(src, trg)` pair's coverage across a family of window variants.
#[derive(Debug, Default, Clone)]
pub(crate) struct PairEntry {
    /// Union coverage over all variants: the single shared probe. Not
    /// covered here ⇒ not covered by any variant.
    subsume: IntervalSet,
    /// Exact per-variant sets, keyed by variant slot (root node id).
    /// Families are small (window variants of one structure), so a linear
    /// scan beats a nested map.
    variants: Vec<(u32, IntervalSet)>,
}

impl PairEntry {
    fn variant_mut(&mut self, slot: u32) -> &mut IntervalSet {
        let idx = match self.variants.iter().position(|(s, _)| *s == slot) {
            Some(i) => i,
            None => {
                self.variants.push((slot, IntervalSet::default()));
                self.variants.len() - 1
            }
        };
        &mut self.variants[idx].1
    }

    /// The accept decision for one variant: identical to probing the
    /// variant's private `IntervalSet` (same `covers` check, same merged
    /// interval from `insert`), with the subsume set as a shared
    /// short-circuit. Inserting an interval the subsume set already covers
    /// would be a no-op, so `subsume` is only updated on the uncovered
    /// path — its coverage stays the exact union of variant coverage.
    fn accept(&mut self, slot: u32, interval: Interval) -> Option<Interval> {
        if self.subsume.covers(&interval) {
            let set = self.variant_mut(slot);
            if set.covers(&interval) {
                return None;
            }
            Some(set.insert(interval).expect("non-empty"))
        } else {
            let merged = self.variant_mut(slot).insert(interval).expect("non-empty");
            self.subsume.insert(interval);
            Some(merged)
        }
    }
}

/// The shared pair table for one family of window variants.
#[derive(Debug, Default)]
pub(crate) struct FamilyDedup {
    pairs: FxHashMap<(VertexId, VertexId), PairEntry>,
}

impl FamilyDedup {
    /// Folds a member's private pair map into the family (exact sets are
    /// kept per variant; the subsume sets absorb its coverage).
    pub fn migrate(&mut self, slot: u32, private: FxHashMap<(VertexId, VertexId), IntervalSet>) {
        for (key, set) in private {
            let entry = self.pairs.entry(key).or_default();
            for iv in set.intervals() {
                entry.subsume.insert(*iv);
            }
            entry.variants.push((slot, set));
        }
    }

    /// Extracts a leaving member's exact pair map and rebuilds the subsume
    /// sets from the remaining variants (coverage must stay the exact
    /// union, or the not-covered short-circuit would go stale).
    pub fn remove_variant(&mut self, slot: u32) -> FxHashMap<(VertexId, VertexId), IntervalSet> {
        let mut extracted = FxHashMap::default();
        self.pairs.retain(|&key, entry| {
            if let Some(i) = entry.variants.iter().position(|(s, _)| *s == slot) {
                let (_, set) = entry.variants.swap_remove(i);
                if !set.is_empty() {
                    extracted.insert(key, set);
                }
                entry.subsume = IntervalSet::default();
                for (_, set) in &entry.variants {
                    for iv in set.intervals() {
                        entry.subsume.insert(*iv);
                    }
                }
            }
            !entry.variants.is_empty()
        });
        extracted
    }

    /// Purges expired intervals from every variant and subsume set at one
    /// watermark. Coverage containment (variant ⊆ subsume) survives: any
    /// variant interval alive past the watermark lies inside a subsume
    /// interval with an expiry at least as late.
    pub fn purge(&mut self, watermark: Timestamp) {
        self.pairs.retain(|_, entry| {
            entry.subsume.purge_expired(watermark);
            entry.variants.retain_mut(|(_, set)| {
                set.purge_expired(watermark);
                !set.is_empty()
            });
            !entry.subsume.is_empty() || !entry.variants.is_empty()
        });
    }

    #[cfg(test)]
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }
}

/// One family member's view of the shared pair table: the [`PairDedup`]
/// backend the generic sink delivery runs against when a root sink is in a
/// family.
pub(crate) struct FamilyVariant<'f> {
    pub family: &'f mut FamilyDedup,
    pub slot: u32,
}

impl PairDedup for FamilyVariant<'_> {
    type Entry<'a>
        = FamilyPairEntry<'a>
    where
        Self: 'a;

    fn entry(&mut self, key: (VertexId, VertexId)) -> FamilyPairEntry<'_> {
        FamilyPairEntry {
            entry: self.family.pairs.entry(key).or_default(),
            slot: self.slot,
        }
    }
}

/// Borrowed `(pair entry, variant slot)` handle for one per-pair run.
pub(crate) struct FamilyPairEntry<'a> {
    entry: &'a mut PairEntry,
    slot: u32,
}

impl CoverageEntry for FamilyPairEntry<'_> {
    fn accept(&mut self, interval: Interval) -> Option<Interval> {
        self.entry.accept(self.slot, interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(from: Timestamp, to: Timestamp) -> Interval {
        Interval::new(from, to)
    }

    fn key(a: u64, b: u64) -> (VertexId, VertexId) {
        (VertexId(a), VertexId(b))
    }

    /// Positions stay absolute across releases, views never reach behind
    /// the head, and the dead prefix is compacted away before it outgrows
    /// the live entries.
    #[test]
    fn result_log_releases_its_prefix_in_place() {
        let entry = |i: u64| Sgt::edge(VertexId(i), VertexId(i), Label(0), iv(i, i + 1));
        let mut log = ResultLog::default();
        for i in 0..10 {
            log.tail().push(entry(i));
        }
        assert_eq!((log.head(), log.end()), (0, 10));

        log.release_to(3); // 3 dead < 7 live: logical only
        assert_eq!((log.head(), log.end(), log.buf.len()), (3, 10, 10));
        assert_eq!(log.from(0), log.from(3), "nothing before the head");
        assert_eq!(log.from(5)[0], entry(5));
        log.release_to(2); // behind the head: no-op
        assert_eq!(log.head(), 3);

        log.release_to(6); // 6 dead >= 4 live: compacted
        assert_eq!((log.head(), log.end(), log.buf.len()), (6, 10, 4));
        log.tail().push(entry(10));
        assert_eq!(log.end(), 11);
        assert_eq!(log.from(9), &[entry(9), entry(10)]);

        // A long run: the physical log never exceeds twice the live part.
        for i in 11..5_000u64 {
            log.tail().push(entry(i));
            log.release_to(log.end().saturating_sub(100));
            assert!(log.buf.len() <= 2 * (log.end() - log.head()).max(1));
        }
        assert_eq!(log.from(0).first(), Some(&entry(4_900)));
        log.release_to(log.end());
        assert!(log.from(0).is_empty() && log.buf.is_empty());

        // A burst's allocation is given back once the burst is released.
        for i in 0..100_000 {
            log.tail().push(entry(i));
        }
        assert!(log.buf.capacity() >= 100_000);
        log.release_to(log.end() - 10);
        assert_eq!(log.from(0).len(), 10);
        assert!(log.buf.capacity() <= 4 * MIN_LOG_CAPACITY);
    }

    /// A family accept sequence matches the same sequence against a
    /// private `IntervalSet`, per variant — bit-identical merged results.
    #[test]
    fn family_accepts_match_private_sets() {
        let mut fam = FamilyDedup::default();
        let mut wide = IntervalSet::default(); // slot 1 (wider window)
        let mut narrow = IntervalSet::default(); // slot 2

        let seq: &[(u32, Interval)] = &[
            (1, iv(0, 100)),
            (2, iv(0, 40)),
            (1, iv(50, 160)),
            (2, iv(10, 30)), // covered for the narrow variant
            (2, iv(90, 120)),
            (1, iv(20, 80)), // covered for the wide variant
        ];
        for &(slot, interval) in seq {
            let private = if slot == 1 { &mut wide } else { &mut narrow };
            let expect = if private.covers(&interval) {
                None
            } else {
                Some(private.insert(interval).expect("non-empty"))
            };
            let mut variant = FamilyVariant {
                family: &mut fam,
                slot,
            };
            let got = variant.entry(key(1, 2)).accept(interval);
            assert_eq!(got, expect, "slot {slot} interval {interval:?}");
        }
    }

    /// Removing a variant returns its exact sets and the survivor keeps
    /// answering identically after demotion to a private map.
    #[test]
    fn remove_variant_extracts_exact_state() {
        let mut fam = FamilyDedup::default();
        let mut reference = IntervalSet::default();
        for interval in [iv(0, 50), iv(100, 150)] {
            reference.insert(interval);
            let mut v = FamilyVariant {
                family: &mut fam,
                slot: 7,
            };
            v.entry(key(3, 4)).accept(interval);
        }
        // A second variant with wider coverage pollutes the subsume set.
        let mut v = FamilyVariant {
            family: &mut fam,
            slot: 9,
        };
        v.entry(key(3, 4)).accept(iv(0, 400));

        let extracted = fam.remove_variant(7);
        assert_eq!(extracted.len(), 1);
        assert_eq!(
            extracted[&key(3, 4)].intervals(),
            reference.intervals(),
            "exact per-variant state survives extraction"
        );
        // Survivor's subsume was rebuilt: an interval outside the wide
        // variant's coverage is accepted.
        let mut v = FamilyVariant {
            family: &mut fam,
            slot: 9,
        };
        assert!(v.entry(key(3, 4)).accept(iv(500, 600)).is_some());
        assert!(v.entry(key(3, 4)).accept(iv(510, 590)).is_none());
    }

    /// Purging at one watermark keeps variant coverage inside subsume
    /// coverage (the short-circuit stays sound) and drops dead pairs.
    #[test]
    fn purge_preserves_containment() {
        let mut fam = FamilyDedup::default();
        for (slot, interval) in [(1, iv(0, 10)), (2, iv(0, 200)), (1, iv(150, 220))] {
            let mut v = FamilyVariant {
                family: &mut fam,
                slot,
            };
            v.entry(key(5, 6)).accept(interval);
        }
        let mut v = FamilyVariant {
            family: &mut fam,
            slot: 1,
        };
        v.entry(key(7, 8)).accept(iv(0, 10));

        fam.purge(100);
        assert_eq!(fam.pair_count(), 1, "fully expired pair dropped");
        // Still-covered interval suppressed, fresh one accepted.
        let mut v = FamilyVariant {
            family: &mut fam,
            slot: 2,
        };
        assert!(v.entry(key(5, 6)).accept(iv(160, 190)).is_none());
        // Covered by subsume (the other variant's coverage) but not by
        // slot 1's own surviving interval: the per-variant probe decides.
        let mut v = FamilyVariant {
            family: &mut fam,
            slot: 1,
        };
        assert!(v.entry(key(5, 6)).accept(iv(105, 140)).is_some());
    }
}
