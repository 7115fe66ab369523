//! The windowed snapshot-graph adjacency maintained by PATH operators.
//!
//! PATH traverses the snapshot graph `G_t` during `Expand`/`Propagate`
//! (Algorithm S-PATH lines 8–12), so the operator keeps its input window
//! content as adjacency lists. Per edge `(u, l, v)` a single coalesced
//! max-expiry interval is stored: inputs arrive in timestamp order, so an
//! older disjoint interval is necessarily expired and can be replaced
//! (§6.2.4, coalescing with `max` aggregation over expiry).
//!
//! # Layout
//!
//! Each stored edge is **one row** of an arena with a free list: its two
//! ends, its label, its interval — held once — and two pairs of links.
//! The links chain the row into the **out-chain** of `(src, label)` and
//! the **in-chain** of `(trg, label)`, circular and doubly linked, and two
//! open-addressing indexes over row ids (`physical/row_index.rs`) map each
//! key to the first row of its chain; a hit is always checked against the
//! row. [`Adjacency::out`] and [`Adjacency::inc`] walk a chain. Nothing is
//! allocated per edge or per key.
//!
//! Chains keep insertion order, and traversal order is part of the
//! operator's deterministic output, so removals keep the orders a list
//! per key would: a purge unlinks in place (survivors keep their order),
//! and an edge an explicit deletion drops takes the last row of each of
//! its chains into its place — a list's `swap_remove`, in each direction.
//!
//! # What the window bounds
//!
//! The rows hold what the window holds; bytes follow the most edges it
//! has held at once (a freed row or index slot is reused, never
//! returned): a 56-byte row per edge, an 8-byte slot per live key and
//! direction at most 3/4 full, and a 4-byte expiry handle per interval
//! write not yet popped. Every write of an edge's interval — insert,
//! coalesce, replace, and the truncation of an explicit deletion — files
//! its row id under the new expiry in an `ExpiryIndex` (see
//! [`super::forest`]); [`Adjacency::purge`] pops the due keys and visits
//! those rows only. A popped id is honoured iff its row is stored and
//! expired *now*, so the id of a row that was extended, dropped or reused
//! costs one check. A key whose chain loses its last row leaves its index
//! at once, whether a purge or a deletion emptied it.

use super::forest::ExpiryIndex;
use super::row_index::{hash_words, RowIndex, NIL};
use sgq_types::{Edge, FxHashMap, Interval, Label, Timestamp, VertexId};
use std::mem::size_of;

// One row per window edge, its interval held once.
const _: () = assert!(size_of::<EdgeRow>() <= 56);

/// Operator-owned scratch for one epoch's bulk adjacency load: the
/// admitted epoch edges (those whose stored interval actually changed)
/// with their **final** coalesced intervals, in first-arrival order.
///
/// Iterating [`EpochLoad::edges`] is the epoch-scoped incident-edge scan
/// used to seed the bulk frontier: every tree node incident to one of
/// these edges is a candidate expansion, and everything an epoch edge can
/// reach transitively is discovered by the traversal itself (which walks
/// the already-complete [`Adjacency`]).
#[derive(Debug, Default)]
pub struct EpochLoad {
    edges: Vec<(Edge, Interval)>,
    index: FxHashMap<Edge, u32>,
}

impl EpochLoad {
    /// Clears the scratch, keeping allocations.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.index.clear();
    }

    /// The admitted epoch edges with their final stored intervals, in
    /// first-arrival order.
    pub fn edges(&self) -> &[(Edge, Interval)] {
        &self.edges
    }
}

/// One stored edge as a traversal meets it from one of its ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbour vertex.
    pub other: VertexId,
    /// Coalesced validity.
    pub interval: Interval,
}

/// The direction whose chain a row's `ends[OUT]`, the source, keys.
const OUT: usize = 0;
/// The direction whose chain a row's `ends[INC]`, the target, keys.
const INC: usize = 1;

/// A row's place in one chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    next: u32,
    prev: u32,
}

const UNLINKED: Link = Link {
    next: NIL,
    prev: NIL,
};

/// One stored edge and its links: `links[d]` places it in the chain of
/// `(ends[d], label)`, circular in insertion order, so a chain's first
/// row's `prev` is its last. A free row has no `prev` in its out-link and
/// links the free list through `next`.
#[derive(Debug, Clone)]
struct EdgeRow {
    /// `[src, trg]`.
    ends: [VertexId; 2],
    /// Coalesced validity.
    interval: Interval,
    label: Label,
    links: [Link; 2],
}

impl EdgeRow {
    fn is_free(&self) -> bool {
        self.links[OUT].prev == NIL
    }
}

fn key_hash(v: VertexId, l: Label) -> u64 {
    hash_words([v.0, u64::from(l.0)])
}

/// Occupancy of an [`Adjacency`], for asserting that it tracks the window
/// (`tests/bounded_state.rs`). Computed by a full scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjacencyCensus {
    /// Stored edges ([`Adjacency::size`]).
    pub edges: usize,
    /// Row slots ever allocated (stored + free).
    pub row_slots: usize,
    /// `(src, label)` keys of the out index.
    pub out_keys: usize,
    /// `(trg, label)` keys of the in index.
    pub inc_keys: usize,
    /// Rows the out-chains reach (equals `edges`).
    pub out_rows: usize,
    /// Rows the in-chains reach (equals `edges`).
    pub inc_rows: usize,
    /// Expiry handles not yet popped by a purge.
    pub expiry_handles: usize,
    /// Heap bytes reserved by the rows, both indexes and the expiry index.
    pub reserved_bytes: usize,
}

#[cfg(test)]
impl AdjacencyCensus {
    /// The census without its byte count (see `ForestCensus::occupancy`).
    pub(crate) fn occupancy(self) -> Self {
        AdjacencyCensus {
            reserved_bytes: 0,
            ..self
        }
    }
}

/// Outgoing and incoming adjacency with per-edge coalesced intervals.
#[derive(Debug)]
pub struct Adjacency {
    rows: Vec<EdgeRow>,
    /// Head of the free list of rows.
    free: u32,
    /// Per direction, `(end, label)` → the first row of its chain.
    index: [RowIndex; 2],
    /// Stored edges (a maintained count).
    edges: usize,
    expiry: ExpiryIndex<u32>,
}

impl Default for Adjacency {
    fn default() -> Self {
        Adjacency {
            rows: Vec::new(),
            free: NIL,
            index: Default::default(),
            edges: 0,
            expiry: ExpiryIndex::default(),
        }
    }
}

impl Adjacency {
    /// Creates an empty adjacency.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index slot of the chain of `(v, l)` in direction `d`.
    fn head(&self, d: usize, v: VertexId, l: Label) -> Option<usize> {
        self.index[d].find(key_hash(v, l), |r| {
            let row = &self.rows[r as usize];
            row.ends[d] == v && row.label == l
        })
    }

    /// The rows of `(v, l)`'s chain in direction `d`, in order.
    fn chain(&self, d: usize, v: VertexId, l: Label) -> impl Iterator<Item = u32> + '_ {
        let first = self.head(d, v, l).map_or(NIL, |s| self.index[d].row(s));
        let mut cur = first;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let r = cur;
            cur = self.rows[r as usize].links[d].next;
            if cur == first {
                cur = NIL;
            }
            Some(r)
        })
    }

    fn entries(&self, d: usize, v: VertexId, l: Label) -> impl Iterator<Item = AdjEntry> + '_ {
        self.chain(d, v, l).map(move |r| {
            let row = &self.rows[r as usize];
            AdjEntry {
                other: row.ends[1 - d],
                interval: row.interval,
            }
        })
    }

    /// The row of edge `(src, l, trg)`.
    fn find(&self, src: VertexId, l: Label, trg: VertexId) -> Option<u32> {
        self.chain(OUT, src, l)
            .find(|&r| self.rows[r as usize].ends[INC] == trg)
    }

    /// Inserts (or coalesces) an edge occurrence. Returns the stored
    /// interval if it changed, or `None` when the new interval is covered
    /// (nothing new can be derived from it).
    pub fn insert(
        &mut self,
        src: VertexId,
        label: Label,
        trg: VertexId,
        iv: Interval,
    ) -> Option<Interval> {
        if let Some(r) = self.find(src, label, trg) {
            let stored = &mut self.rows[r as usize].interval;
            if iv.ts >= stored.ts && iv.exp <= stored.exp {
                return None; // covered
            }
            let old_exp = stored.exp;
            *stored = if stored.meets(&iv) {
                stored.hull(&iv) // coalesce (Def. 11)
            } else {
                iv // the old disjoint interval is expired: replace
            };
            let stored = *stored;
            if stored.exp != old_exp {
                self.expiry.register(stored.exp, r);
            }
            return Some(stored);
        }
        let r = self.alloc(EdgeRow {
            ends: [src, trg],
            interval: iv,
            label,
            links: [UNLINKED; 2],
        });
        self.link_last(OUT, r);
        self.link_last(INC, r);
        self.edges += 1;
        self.expiry.register(iv.exp, r);
        Some(iv)
    }

    /// A slot for `row`, the free list first.
    fn alloc(&mut self, row: EdgeRow) -> u32 {
        if self.free != NIL {
            let r = self.free;
            self.free = self.rows[r as usize].links[OUT].next;
            self.rows[r as usize] = row;
            return r;
        }
        let r = u32::try_from(self.rows.len())
            .ok()
            .filter(|&r| r != NIL)
            .expect("an adjacency holds fewer than 2^32 - 1 edges");
        self.rows.push(row);
        r
    }

    /// Puts the unchained row `r` on the free list.
    fn free_row(&mut self, r: u32) {
        self.rows[r as usize].links[OUT] = Link {
            next: self.free,
            prev: NIL,
        };
        self.free = r;
        self.edges -= 1;
    }

    /// Appends row `r` to its chain in direction `d`.
    fn link_last(&mut self, d: usize, r: u32) {
        let (v, l) = (self.rows[r as usize].ends[d], self.rows[r as usize].label);
        let Some(slot) = self.head(d, v, l) else {
            self.index[d].insert(key_hash(v, l), r);
            self.rows[r as usize].links[d] = Link { next: r, prev: r };
            return;
        };
        let first = self.index[d].row(slot);
        let last = self.rows[first as usize].links[d].prev;
        self.rows[last as usize].links[d].next = r;
        self.rows[first as usize].links[d].prev = r;
        self.rows[r as usize].links[d] = Link {
            next: first,
            prev: last,
        };
    }

    /// Takes row `r` out of its chain in direction `d`, keeping the order
    /// of the rest, and drops the key with its last row.
    fn unlink(&mut self, d: usize, r: u32) {
        let row = &self.rows[r as usize];
        let (Link { next, prev }, v, l) = (row.links[d], row.ends[d], row.label);
        if let Some(slot) = self.index[d].find(key_hash(v, l), |x| x == r) {
            if next == r {
                self.index[d].remove(slot);
                return;
            }
            self.index[d].set_row(slot, next);
        }
        self.rows[prev as usize].links[d].next = next;
        self.rows[next as usize].links[d].prev = prev;
    }

    /// Takes row `r` out of its chain in direction `d` the way a list's
    /// `swap_remove` would: the chain's last row takes its place.
    fn swap_out(&mut self, d: usize, r: u32) {
        let (v, l) = (self.rows[r as usize].ends[d], self.rows[r as usize].label);
        let slot = self.head(d, v, l).expect("stored rows are chained");
        let first = self.index[d].row(slot);
        let last = self.rows[first as usize].links[d].prev;
        if last == r {
            self.unlink(d, r);
            return;
        }
        // `last` is not the first row (the chain holds `r` too), so
        // unlinking it leaves the index alone.
        self.unlink(d, last);
        let Link { next, prev } = self.rows[r as usize].links[d];
        let (next, prev) = if next == r {
            (last, last)
        } else {
            (next, prev)
        };
        self.rows[last as usize].links[d] = Link { next, prev };
        self.rows[prev as usize].links[d].next = last;
        self.rows[next as usize].links[d].prev = last;
        if first == r {
            self.index[d].set_row(slot, last);
        }
    }

    /// Bulk-loads one epoch's insert run **before any traversal**, so the
    /// bulk frontier pass sees the complete epoch graph. Admitted edges
    /// (stored interval changed) are recorded in `load`; a re-arrival of
    /// an already-recorded edge updates its recorded interval in place, so
    /// each distinct edge seeds the frontier once, with its final
    /// coalesced interval. Covered re-inserts are dropped exactly as in
    /// [`Adjacency::insert`].
    pub fn bulk_insert(
        &mut self,
        edges: impl IntoIterator<Item = (VertexId, Label, VertexId, Interval)>,
        load: &mut EpochLoad,
    ) {
        for (src, label, trg, iv) in edges {
            let Some(stored) = self.insert(src, label, trg, iv) else {
                continue;
            };
            let edge = Edge::new(src, trg, label);
            match load.index.get(&edge) {
                Some(&i) => load.edges[i as usize].1 = stored,
                None => {
                    load.index.insert(edge, load.edges.len() as u32);
                    load.edges.push((edge, stored));
                }
            }
        }
    }

    /// Removes `iv` from the stored edge (explicit deletion). The stored
    /// interval is truncated; if nothing remains the edge is dropped.
    pub fn remove(&mut self, src: VertexId, label: Label, trg: VertexId, iv: Interval) {
        let Some(r) = self.find(src, label, trg) else {
            return;
        };
        let stored = self.rows[r as usize].interval;
        // Keep the part of the stored interval outside [iv.ts, iv.exp);
        // keep the later piece if split.
        let left = Interval::new(stored.ts, iv.ts.min(stored.exp));
        let right = Interval::new(iv.exp.max(stored.ts), stored.exp);
        let keep = if !right.is_empty() { right } else { left };
        if keep.is_empty() {
            self.swap_out(OUT, r);
            self.swap_out(INC, r);
            self.free_row(r);
            return;
        }
        self.rows[r as usize].interval = keep;
        if keep.exp != stored.exp {
            self.expiry.register(keep.exp, r);
        }
    }

    /// Outgoing edges of `v` with label `l`, in insertion order.
    pub fn out(&self, v: VertexId, l: Label) -> impl Iterator<Item = AdjEntry> + '_ {
        self.entries(OUT, v, l)
    }

    /// Incoming edges of `v` with label `l`, in insertion order.
    pub fn inc(&self, v: VertexId, l: Label) -> impl Iterator<Item = AdjEntry> + '_ {
        self.entries(INC, v, l)
    }

    /// The stored interval of edge `(src, l, trg)`, if present.
    pub fn interval_of(&self, src: VertexId, l: Label, trg: VertexId) -> Option<Interval> {
        self.find(src, l, trg)
            .map(|r| self.rows[r as usize].interval)
    }

    /// Iterates over all live edges as `(src, label, trg, interval)`.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Label, VertexId, Interval)> + '_ {
        self.rows
            .iter()
            .filter(|row| !row.is_free())
            .map(|row| (row.ends[OUT], row.label, row.ends[INC], row.interval))
    }

    /// Drops expired edges (direct approach), visiting only the rows filed
    /// at or below `watermark`.
    pub fn purge(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for r in due {
                let row = &self.rows[r as usize];
                if row.is_free() || !row.interval.expired_at(watermark) {
                    continue; // extended, dropped, or reused by a later edge
                }
                self.drop_row(r);
            }
        }
        debug_assert_eq!(
            self.chained(OUT),
            self.edges,
            "maintained edge count drifted"
        );
        debug_assert_eq!(
            self.chained(INC),
            self.edges,
            "out and in chains mirror each other"
        );
    }

    /// Rows the chains of direction `d` reach (a full scan).
    fn chained(&self, d: usize) -> usize {
        self.index[d]
            .rows()
            .map(|first| {
                let row = &self.rows[first as usize];
                self.chain(d, row.ends[d], row.label).count()
            })
            .sum()
    }

    /// Drops row `r`, keeping the order of both its chains.
    fn drop_row(&mut self, r: u32) {
        self.unlink(OUT, r);
        self.unlink(INC, r);
        self.free_row(r);
    }

    /// Number of stored edges.
    pub fn size(&self) -> usize {
        self.edges
    }

    /// Counts keys, chained rows, pending handles and reserved bytes (full
    /// scan).
    pub fn census(&self) -> AdjacencyCensus {
        AdjacencyCensus {
            edges: self.edges,
            row_slots: self.rows.len(),
            out_keys: self.index[OUT].len(),
            inc_keys: self.index[INC].len(),
            out_rows: self.chained(OUT),
            inc_rows: self.chained(INC),
            expiry_handles: self.expiry.pending(),
            reserved_bytes: self.rows.capacity() * size_of::<EdgeRow>()
                + self.index[OUT].reserved_bytes()
                + self.index[INC].reserved_bytes()
                + self.expiry.reserved_bytes(),
        }
    }

    /// The purge this module replaced: a scan of every row. Kept as the
    /// reference of the differential tests.
    #[cfg(test)]
    pub(crate) fn purge_by_retain(&mut self, watermark: Timestamp) {
        for r in 0..self.rows.len() as u32 {
            let row = &self.rows[r as usize];
            if !row.is_free() && row.interval.expired_at(watermark) {
                self.drop_row(r);
            }
        }
        while self.expiry.pop_due(watermark).is_some() {}
    }

    /// Both directions' chains in stored order, keys sorted.
    #[cfg(test)]
    pub(crate) fn buckets(
        &self,
    ) -> [std::collections::BTreeMap<(VertexId, Label), Vec<AdjEntry>>; 2] {
        [OUT, INC].map(|d| {
            self.index[d]
                .rows()
                .map(|first| {
                    let row = &self.rows[first as usize];
                    let key = (row.ends[d], row.label);
                    (key, self.entries(d, key.0, key.1).collect())
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    const L: Label = Label(0);

    #[test]
    fn insert_and_lookup() {
        let mut a = Adjacency::new();
        assert_eq!(
            a.insert(v(1), L, v(2), Interval::new(0, 10)),
            Some(Interval::new(0, 10))
        );
        assert_eq!(a.out(v(1), L).count(), 1);
        assert_eq!(a.inc(v(2), L).count(), 1);
        assert_eq!(a.interval_of(v(1), L, v(2)), Some(Interval::new(0, 10)));
    }

    #[test]
    fn covered_reinsert_is_noop() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        assert_eq!(a.insert(v(1), L, v(2), Interval::new(2, 8)), None);
    }

    #[test]
    fn overlapping_reinsert_coalesces() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        assert_eq!(
            a.insert(v(1), L, v(2), Interval::new(5, 20)),
            Some(Interval::new(0, 20))
        );
        assert_eq!(a.interval_of(v(1), L, v(2)), Some(Interval::new(0, 20)));
    }

    #[test]
    fn disjoint_reinsert_replaces() {
        // The old interval is necessarily expired when a disjoint one
        // arrives (in-order streams), so it is replaced.
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 5));
        assert_eq!(
            a.insert(v(1), L, v(2), Interval::new(8, 12)),
            Some(Interval::new(8, 12))
        );
        assert_eq!(a.interval_of(v(1), L, v(2)), Some(Interval::new(8, 12)));
    }

    #[test]
    fn purge_drops_expired() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 5));
        a.insert(v(1), L, v(3), Interval::new(0, 9));
        a.purge(5);
        assert!(a.interval_of(v(1), L, v(2)).is_none());
        assert!(a.interval_of(v(1), L, v(3)).is_some());
        assert_eq!(a.size(), 1);
    }

    #[test]
    fn bulk_insert_records_final_intervals_once() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        let mut load = EpochLoad::default();
        a.bulk_insert(
            [
                (v(1), L, v(2), Interval::new(2, 8)), // covered: dropped
                (v(1), L, v(3), Interval::new(4, 14)),
                (v(1), L, v(3), Interval::new(6, 16)), // re-arrival: updates in place
                (v(2), L, v(4), Interval::new(5, 15)),
            ],
            &mut load,
        );
        assert_eq!(
            load.edges(),
            &[
                (Edge::new(v(1), v(3), L), Interval::new(4, 16)),
                (Edge::new(v(2), v(4), L), Interval::new(5, 15)),
            ]
        );
        assert_eq!(a.interval_of(v(1), L, v(3)), Some(Interval::new(4, 16)));
        load.clear();
        assert!(load.edges().is_empty());
    }

    #[test]
    fn size_is_a_maintained_count_of_stored_edges() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        a.insert(v(1), L, v(3), Interval::new(0, 6));
        a.insert(v(4), L, v(2), Interval::new(1, 6));
        assert_eq!(a.size(), 3);
        a.insert(v(1), L, v(2), Interval::new(5, 20)); // coalesce
        a.insert(v(1), L, v(2), Interval::new(6, 8)); // covered
        assert_eq!(a.size(), 3);
        a.remove(v(1), L, v(2), Interval::new(0, 4)); // truncate
        assert_eq!(a.size(), 3);
        a.remove(v(1), L, v(2), Interval::new(0, 100)); // drop
        assert_eq!(a.size(), 2);
        a.remove(v(1), L, v(2), Interval::new(0, 100)); // absent
        assert_eq!(a.size(), 2);
        a.purge(6);
        assert_eq!(a.size(), 0);
        a.insert(v(1), L, v(3), Interval::new(7, 17)); // re-arrival
        assert_eq!(a.size(), 1);
        assert_eq!(a.census().edges, a.iter().count());
    }

    #[test]
    fn emptied_chains_leave_the_indexes_at_once() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        a.insert(v(3), L, v(4), Interval::new(0, 5));
        a.remove(v(1), L, v(2), Interval::new(0, 10));
        let c = a.census();
        assert_eq!(
            (c.out_keys, c.inc_keys, c.out_rows, c.inc_rows),
            (1, 1, 1, 1)
        );
        a.purge(5);
        let c = a.census();
        assert_eq!((c.out_keys, c.inc_keys, c.expiry_handles), (0, 0, 1));
        a.purge(10);
        assert_eq!(a.census().expiry_handles, 0, "the deleted edge's handle");
    }

    #[test]
    fn purge_honours_a_handle_only_if_the_edge_is_expired_now() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 5));
        a.insert(v(1), L, v(2), Interval::new(3, 9)); // coalesced past 5
        a.insert(v(1), L, v(3), Interval::new(0, 5));
        a.remove(v(1), L, v(3), Interval::new(0, 5));
        a.insert(v(1), L, v(3), Interval::new(4, 12)); // gone and back
        a.insert(v(1), L, v(4), Interval::new(2, 20));
        a.remove(v(1), L, v(4), Interval::new(4, 20)); // truncated to [2, 4)
        a.purge(5);
        assert_eq!(a.interval_of(v(1), L, v(2)), Some(Interval::new(0, 9)));
        assert_eq!(a.interval_of(v(1), L, v(3)), Some(Interval::new(4, 12)));
        assert_eq!(a.interval_of(v(1), L, v(4)), None);
        assert_eq!(a.size(), 2);
    }

    #[test]
    fn index_purge_equals_retain_bucket_for_bucket() {
        let build = || {
            let mut a = Adjacency::new();
            for (s, t, ts, exp) in [
                (1, 2, 0, 4),
                (1, 3, 0, 8),
                (1, 4, 1, 4),
                (1, 5, 1, 12),
                (2, 5, 2, 8),
                (3, 5, 2, 4),
                (1, 3, 3, 12),
            ] {
                a.insert(v(s), L, v(t), Interval::new(ts, exp));
            }
            a.remove(v(1), L, v(5), Interval::new(6, 12));
            a
        };
        let (mut by_index, mut by_retain) = (build(), build());
        for w in [4, 6, 8, 12] {
            by_index.purge(w);
            by_retain.purge_by_retain(w);
            assert_eq!(by_index.buckets(), by_retain.buckets(), "watermark {w}");
            assert_eq!(
                by_index.census().occupancy(),
                by_retain.census().occupancy(),
                "watermark {w}"
            );
        }
        assert_eq!(by_index.size(), 0);
    }

    #[test]
    fn remove_truncates_or_drops() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        a.remove(v(1), L, v(2), Interval::new(0, 4));
        assert_eq!(a.interval_of(v(1), L, v(2)), Some(Interval::new(4, 10)));
        a.remove(v(1), L, v(2), Interval::new(0, 100));
        assert!(a.interval_of(v(1), L, v(2)).is_none());
        assert!(a.inc(v(2), L).next().is_none());
    }

    /// The layout this module replaced, as the model of the chains: one
    /// list per `(end, label)` and direction, appended to in arrival
    /// order; a purge removes in place, a dropping deletion swap-removes.
    #[derive(Default)]
    struct Lists([BTreeMap<(VertexId, Label), Vec<AdjEntry>>; 2]);

    impl Lists {
        fn position(&self, d: usize, key: (VertexId, Label), other: VertexId) -> Option<usize> {
            self.0[d].get(&key)?.iter().position(|e| e.other == other)
        }

        fn set(&mut self, src: VertexId, l: Label, trg: VertexId, iv: Interval) {
            for (d, key, other) in [(0, (src, l), trg), (1, (trg, l), src)] {
                let p = self.position(d, key, other).expect("stored");
                self.0[d].get_mut(&key).unwrap()[p].interval = iv;
            }
        }

        fn insert(
            &mut self,
            src: VertexId,
            l: Label,
            trg: VertexId,
            iv: Interval,
        ) -> Option<Interval> {
            let Some(p) = self.position(0, (src, l), trg) else {
                for (d, key, other) in [(0, (src, l), trg), (1, (trg, l), src)] {
                    let interval = iv;
                    self.0[d]
                        .entry(key)
                        .or_default()
                        .push(AdjEntry { other, interval });
                }
                return Some(iv);
            };
            let stored = self.0[0][&(src, l)][p].interval;
            if iv.ts >= stored.ts && iv.exp <= stored.exp {
                return None;
            }
            let new = if stored.meets(&iv) {
                stored.hull(&iv)
            } else {
                iv
            };
            self.set(src, l, trg, new);
            Some(new)
        }

        fn remove(&mut self, src: VertexId, l: Label, trg: VertexId, iv: Interval) {
            let Some(p) = self.position(0, (src, l), trg) else {
                return;
            };
            let stored = self.0[0][&(src, l)][p].interval;
            let left = Interval::new(stored.ts, iv.ts.min(stored.exp));
            let right = Interval::new(iv.exp.max(stored.ts), stored.exp);
            let keep = if !right.is_empty() { right } else { left };
            if !keep.is_empty() {
                self.set(src, l, trg, keep);
                return;
            }
            for (d, key, other) in [(0, (src, l), trg), (1, (trg, l), src)] {
                let p = self.position(d, key, other).expect("stored");
                let list = self.0[d].get_mut(&key).unwrap();
                list.swap_remove(p);
                if list.is_empty() {
                    self.0[d].remove(&key);
                }
            }
        }

        fn purge(&mut self, watermark: Timestamp) {
            for dir in &mut self.0 {
                dir.retain(|_, list| {
                    list.retain(|e| !e.interval.expired_at(watermark));
                    !list.is_empty()
                });
            }
        }
    }

    #[test]
    fn chains_keep_list_order_under_deletions_purges_and_row_reuse() {
        // Two hubs with a window's worth of neighbours each way, so every
        // chain is long; explicit deletions of random edges (truncating or
        // dropping them) and purges run between inserts, and dropped rows
        // are reused by later edges.
        let (a_label, b_label) = (Label(0), Label(1));
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut a, mut lists) = (Adjacency::new(), Lists::default());
        let (mut now, mut made, mut dropped, mut longest) = (0u64, 0usize, 0usize, 0);
        for step in 0..4_000 {
            match next(10) {
                0..=5 => {
                    let hub = v(next(2));
                    let spoke = v(10 + next(40));
                    let (src, trg) = if next(2) == 0 {
                        (hub, spoke)
                    } else {
                        (spoke, hub)
                    };
                    let l = if next(8) == 0 { b_label } else { a_label };
                    let iv = Interval::new(now, now + 1 + next(80));
                    made += usize::from(a.interval_of(src, l, trg).is_none());
                    assert_eq!(
                        a.insert(src, l, trg, iv),
                        lists.insert(src, l, trg, iv),
                        "step {step}"
                    );
                }
                6 => {
                    let stored: Vec<_> = a.iter().collect();
                    if stored.is_empty() {
                        continue;
                    }
                    let (src, l, trg, iv) = stored[next(stored.len() as u64) as usize];
                    // Mostly the whole interval (a drop), else a piece of it.
                    let cut = if next(3) == 0 {
                        Interval::new(iv.ts, iv.ts + 1 + next(iv.exp - iv.ts))
                    } else {
                        iv
                    };
                    let edges = a.size();
                    a.remove(src, l, trg, cut);
                    lists.remove(src, l, trg, cut);
                    dropped += edges - a.size();
                }
                _ => {
                    now += 1 + next(3);
                    a.purge(now);
                    lists.purge(now);
                }
            }
            assert_eq!(a.buckets(), lists.0, "step {step}");
            let c = a.census();
            assert_eq!(
                (c.out_rows, c.inc_rows),
                (c.edges, c.edges),
                "step {step}: {c:?}"
            );
            assert_eq!(c.edges, a.iter().count(), "step {step}");
            assert_eq!(c.out_keys, lists.0[0].len(), "step {step}");
            assert_eq!(c.inc_keys, lists.0[1].len(), "step {step}");
            let chains = lists.0.iter().flat_map(|d| d.values());
            longest = chains.map(Vec::len).fold(longest, usize::max);
        }
        assert!(dropped > 200, "{dropped} dropped by deletions");
        assert!(a.census().row_slots * 8 < made, "rows reused: {made} made");
        assert!(longest >= 12, "a hub's chain grew to {longest}");
    }

    #[test]
    fn keys_with_equal_hashes_keep_distinct_chains() {
        // `(a, l)` and `(b, m)` hash alike (see the forest's test of the
        // same name for the construction); each is used as the source key
        // of two edges and the target key of one.
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut k_inv = K;
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(k_inv)));
        }
        let (x, l, m) = (3u64, Label(1), Label(2));
        let y = ((x.wrapping_mul(K)).rotate_left(5) ^ u64::from(l.0) ^ u64::from(m.0))
            .rotate_right(5)
            .wrapping_mul(k_inv);
        assert_eq!(
            key_hash(v(x), l),
            key_hash(v(y), m),
            "constructed collision"
        );

        let mut a = Adjacency::new();
        let iv = |exp| Interval::new(0, exp);
        a.insert(v(x), l, v(7), iv(10));
        a.insert(v(y), m, v(8), iv(20));
        a.insert(v(x), l, v(9), iv(20));
        a.insert(v(y), m, v(9), iv(10));
        a.insert(v(5), l, v(x), iv(10));
        a.insert(v(6), m, v(y), iv(20));
        let others =
            |it: &mut dyn Iterator<Item = AdjEntry>| it.map(|e| e.other.0).collect::<Vec<_>>();
        assert_eq!(others(&mut a.out(v(x), l)), [7, 9]);
        assert_eq!(others(&mut a.out(v(y), m)), [8, 9]);
        assert_eq!(others(&mut a.inc(v(x), l)), [5]);
        assert_eq!(others(&mut a.inc(v(y), m)), [6]);
        assert!(a.out(v(x), m).next().is_none() && a.out(v(y), l).next().is_none());
        // Dropping `x`'s first edge leaves `y`'s chain whole.
        a.remove(v(x), l, v(7), iv(10));
        assert_eq!(others(&mut a.out(v(x), l)), [9]);
        assert_eq!(others(&mut a.out(v(y), m)), [8, 9]);
        a.purge(10);
        assert_eq!(others(&mut a.out(v(x), l)), [9]);
        assert_eq!(others(&mut a.out(v(y), m)), [8]);
        assert_eq!(others(&mut a.inc(v(x), l)), Vec::<u64>::new());
        assert_eq!(others(&mut a.inc(v(y), m)), [6]);
        a.purge(20);
        let c = a.census();
        assert_eq!((c.edges, c.out_keys, c.inc_keys), (0, 0, 0), "{c:?}");
    }
}
