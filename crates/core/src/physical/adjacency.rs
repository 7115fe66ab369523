//! The windowed snapshot-graph adjacency maintained by PATH operators.
//!
//! PATH traverses the snapshot graph `G_t` during `Expand`/`Propagate`
//! (Algorithm S-PATH lines 8–12), so the operator keeps its input window
//! content as adjacency lists. Per edge `(u, l, v)` a single coalesced
//! max-expiry interval is stored: inputs arrive in timestamp order, so an
//! older disjoint interval is necessarily expired and can be replaced
//! (§6.2.4, coalescing with `max` aggregation over expiry).
//!
//! Each `(vertex, label)` bucket holds its one entry inline — most
//! buckets have one — and moves to a heap list only from the second, so a
//! singleton costs its hash slot and no allocation. Buckets keep
//! insertion order; a purge removes in order, and survivors keep their
//! order — traversal order is part of the operator's deterministic output.
//!
//! The maps hold what the window holds. Every write of an entry's
//! interval — insert, coalesce, replace, and the truncation of an explicit
//! deletion — files the edge under its new expiry in an
//! `ExpiryIndex` (see [`super::forest`]); [`Adjacency::purge`] pops the
//! due keys and visits those edges only, under the same stale-handle
//! rule as the forest (a popped edge is dropped iff it is stored and
//! expired *now*). A bucket that loses its last entry leaves its map at
//! once, whether a purge or a deletion emptied it, and one left with a
//! single entry moves it back inline.

use super::forest::{table_bytes, ExpiryIndex};
use sgq_types::{Edge, FxHashMap, Interval, Label, Timestamp, VertexId};
use std::collections::hash_map::Entry;
use std::mem::size_of;

// Send audit: PATH-operator window state (owned hash maps of Copy entries).
const _: () = super::assert_send::<Adjacency>();
const _: () = super::assert_send::<EpochLoad>();

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

/// One stored edge occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbour vertex.
    pub other: VertexId,
    /// Coalesced validity.
    pub interval: Interval,
}

/// The entries of one `(vertex, label)`, in insertion order: inline
/// while there is one.
#[derive(Debug, Clone)]
enum Bucket {
    One(AdjEntry),
    Many(Vec<AdjEntry>),
}

impl Bucket {
    fn as_slice(&self) -> &[AdjEntry] {
        match self {
            Bucket::One(e) => std::slice::from_ref(e),
            Bucket::Many(es) => es,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [AdjEntry] {
        match self {
            Bucket::One(e) => std::slice::from_mut(e),
            Bucket::Many(es) => es,
        }
    }

    fn push(&mut self, e: AdjEntry) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, e]),
            Bucket::Many(es) => es.push(e),
        }
    }

    /// Removes entry `p` — by swapping the last one into its place when
    /// `swap`, else keeping the order. Says whether the bucket is empty.
    fn remove(&mut self, p: usize, swap: bool) -> bool {
        let Bucket::Many(es) = self else {
            return true;
        };
        if swap {
            es.swap_remove(p);
        } else {
            es.remove(p);
        }
        if let [last] = es[..] {
            *self = Bucket::One(last);
        }
        false
    }

    /// Heap bytes beyond the bucket's hash slot.
    fn heap_bytes(&self) -> usize {
        match self {
            Bucket::One(_) => 0,
            Bucket::Many(es) => es.capacity() * size_of::<AdjEntry>(),
        }
    }
}

type Buckets = FxHashMap<(VertexId, Label), Bucket>;

/// Occupancy of an [`Adjacency`], for asserting that it tracks the window
/// (`tests/bounded_state.rs`). Computed by a full scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjacencyCensus {
    /// Stored edges ([`Adjacency::size`]).
    pub edges: usize,
    /// `(vertex, label)` buckets of the outgoing map.
    pub out_buckets: usize,
    /// `(vertex, label)` buckets of the incoming map.
    pub inc_buckets: usize,
    /// Buckets holding no entry, both maps (always zero).
    pub empty_buckets: usize,
    /// Expiry handles not yet popped by a purge.
    pub expiry_handles: usize,
    /// Heap bytes reserved by both maps (`(K, V)` plus one control byte
    /// per bucket), their entry lists and the expiry index.
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
#[derive(Debug, Default)]
pub struct Adjacency {
    out: Buckets,
    inc: Buckets,
    /// Stored edges (= entries of `out` = entries of `inc`).
    edges: usize,
    expiry: ExpiryIndex<Edge>,
}

impl Adjacency {
    /// Creates an empty adjacency.
    pub fn new() -> Self {
        Self::default()
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
        let (stored, old_exp) = Self::upsert(&mut self.out, (src, label), trg, iv)?;
        Self::upsert(&mut self.inc, (trg, label), src, iv);
        if old_exp.is_none() {
            self.edges += 1;
        }
        if old_exp != Some(stored.exp) {
            self.expiry.register(stored.exp, Edge::new(src, trg, label));
        }
        Some(stored)
    }

    /// Returns the stored interval and the expiry it replaced (`None` for
    /// a new entry), or `None` if `iv` is covered.
    fn upsert(
        map: &mut Buckets,
        key: (VertexId, Label),
        other: VertexId,
        iv: Interval,
    ) -> Option<(Interval, Option<Timestamp>)> {
        let new = AdjEntry {
            other,
            interval: iv,
        };
        let bucket = match map.entry(key) {
            Entry::Occupied(b) => b.into_mut(),
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(new));
                return Some((iv, None));
            }
        };
        if let Some(e) = bucket.as_mut_slice().iter_mut().find(|e| e.other == other) {
            if iv.ts >= e.interval.ts && iv.exp <= e.interval.exp {
                return None; // covered
            }
            let old_exp = e.interval.exp;
            e.interval = if e.interval.meets(&iv) {
                e.interval.hull(&iv) // coalesce (Def. 11)
            } else {
                iv // the old disjoint interval is expired: replace
            };
            return Some((e.interval, Some(old_exp)));
        }
        bucket.push(new);
        Some((iv, None))
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
        let Some((old_exp, kept)) = Self::truncate(&mut self.out, (src, label), trg, iv) else {
            return;
        };
        Self::truncate(&mut self.inc, (trg, label), src, iv);
        match kept {
            None => self.edges -= 1,
            Some(k) if k.exp != old_exp => {
                self.expiry.register(k.exp, Edge::new(src, trg, label));
            }
            Some(_) => {}
        }
    }

    /// Cuts `iv` out of the entry `key → other`. Returns the entry's old
    /// expiry and what is left of it (`None`: dropped), or `None` if there
    /// is no such entry.
    fn truncate(
        map: &mut Buckets,
        key: (VertexId, Label),
        other: VertexId,
        iv: Interval,
    ) -> Option<(Timestamp, Option<Interval>)> {
        let bucket = map.get_mut(&key)?;
        let entries = bucket.as_mut_slice();
        let p = entries.iter().position(|e| e.other == other)?;
        let stored = entries[p].interval;
        // Keep the part of the stored interval outside [iv.ts, iv.exp);
        // keep the later piece if split.
        let left = Interval::new(stored.ts, iv.ts.min(stored.exp));
        let right = Interval::new(iv.exp.max(stored.ts), stored.exp);
        let keep = if !right.is_empty() { right } else { left };
        if keep.is_empty() {
            if bucket.remove(p, true) {
                map.remove(&key);
            }
            return Some((stored.exp, None));
        }
        entries[p].interval = keep;
        Some((stored.exp, Some(keep)))
    }

    /// Outgoing edges of `v` with label `l`.
    pub fn out(&self, v: VertexId, l: Label) -> &[AdjEntry] {
        self.out.get(&(v, l)).map_or(&[], Bucket::as_slice)
    }

    /// Incoming edges of `v` with label `l`.
    pub fn inc(&self, v: VertexId, l: Label) -> &[AdjEntry] {
        self.inc.get(&(v, l)).map_or(&[], Bucket::as_slice)
    }

    /// The stored interval of edge `(src, l, trg)`, if present.
    pub fn interval_of(&self, src: VertexId, l: Label, trg: VertexId) -> Option<Interval> {
        self.out(src, l)
            .iter()
            .find(|e| e.other == trg)
            .map(|e| e.interval)
    }

    /// Iterates over all live edges as `(src, label, trg, interval)`.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, Label, VertexId, Interval)> + '_ {
        self.out.iter().flat_map(|(&(src, l), bucket)| {
            bucket
                .as_slice()
                .iter()
                .map(move |e| (src, l, e.other, e.interval))
        })
    }

    /// Drops expired entries (direct approach), visiting only the edges
    /// filed at or below `watermark`.
    pub fn purge(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for edge in due {
                let (out, inc) = ((edge.src, edge.label), (edge.trg, edge.label));
                if Self::drop_if_expired(&mut self.out, out, edge.trg, watermark) {
                    let mirrored = Self::drop_if_expired(&mut self.inc, inc, edge.src, watermark);
                    debug_assert!(mirrored, "out and inc mirror each other");
                    self.edges -= 1;
                }
            }
        }
        debug_assert_eq!(
            self.edges,
            self.out.values().map(|b| b.as_slice().len()).sum::<usize>(),
            "maintained edge count drifted"
        );
    }

    /// Removes the entry `key → other` if it is stored and expired at
    /// `watermark`, keeping the bucket's order; says whether it did.
    fn drop_if_expired(
        map: &mut Buckets,
        key: (VertexId, Label),
        other: VertexId,
        watermark: Timestamp,
    ) -> bool {
        let Entry::Occupied(mut bucket) = map.entry(key) else {
            return false;
        };
        let Some(p) = bucket
            .get()
            .as_slice()
            .iter()
            .position(|e| e.other == other && e.interval.expired_at(watermark))
        else {
            return false;
        };
        if bucket.get_mut().remove(p, false) {
            bucket.remove();
        }
        true
    }

    /// Number of stored edges.
    pub fn size(&self) -> usize {
        self.edges
    }

    /// Counts buckets, pending handles and reserved bytes (full scan).
    pub fn census(&self) -> AdjacencyCensus {
        let empty = |m: &Buckets| m.values().filter(|b| b.as_slice().is_empty()).count();
        let bytes = |m: &Buckets| {
            table_bytes::<(VertexId, Label), Bucket>(m.capacity())
                + m.values().map(Bucket::heap_bytes).sum::<usize>()
        };
        AdjacencyCensus {
            edges: self.edges,
            out_buckets: self.out.len(),
            inc_buckets: self.inc.len(),
            empty_buckets: empty(&self.out) + empty(&self.inc),
            expiry_handles: self.expiry.pending(),
            reserved_bytes: bytes(&self.out) + bytes(&self.inc) + self.expiry.reserved_bytes(),
        }
    }

    /// The purge this module replaced: `retain` over both whole maps.
    /// Kept as the reference of the differential tests.
    #[cfg(test)]
    pub(crate) fn purge_by_retain(&mut self, watermark: Timestamp) {
        for map in [&mut self.out, &mut self.inc] {
            map.retain(|_, bucket| match bucket {
                Bucket::One(e) => !e.interval.expired_at(watermark),
                Bucket::Many(es) => {
                    es.retain(|e| !e.interval.expired_at(watermark));
                    if let [one] = es[..] {
                        *bucket = Bucket::One(one);
                    }
                    !bucket.as_slice().is_empty()
                }
            });
        }
        self.edges = self.out.values().map(|b| b.as_slice().len()).sum();
        while self.expiry.pop_due(watermark).is_some() {}
    }

    /// Both maps with buckets in stored order, keys sorted.
    #[cfg(test)]
    pub(crate) fn buckets(
        &self,
    ) -> [std::collections::BTreeMap<(VertexId, Label), Vec<AdjEntry>>; 2] {
        [&self.out, &self.inc].map(|m| m.iter().map(|(k, b)| (*k, b.as_slice().to_vec())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.out(v(1), L).len(), 1);
        assert_eq!(a.inc(v(2), L).len(), 1);
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
    fn emptied_buckets_leave_the_maps_at_once() {
        let mut a = Adjacency::new();
        a.insert(v(1), L, v(2), Interval::new(0, 10));
        a.insert(v(3), L, v(4), Interval::new(0, 5));
        a.remove(v(1), L, v(2), Interval::new(0, 10));
        let c = a.census();
        assert_eq!((c.out_buckets, c.inc_buckets, c.empty_buckets), (1, 1, 0));
        a.purge(5);
        let c = a.census();
        assert_eq!((c.out_buckets, c.inc_buckets, c.expiry_handles), (0, 0, 1));
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
        assert!(a.inc(v(2), L).is_empty());
    }
}
