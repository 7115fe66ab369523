//! PATTERN (Def. 19): a join over the windows of its inputs (§6.2.2).
//!
//! The logical PATTERN is binary-in/binary-out, but rule bodies bind more
//! than two variables, so internally the operator works on *binding
//! tuples* (vectors of vertex ids over variable equivalence classes),
//! projected to `(src, trg, d)` for output.
//!
//! State follows the direct approach: per stored binding the operator
//! keeps an [`IntervalSet`]; expired intervals are skipped naturally
//! (interval intersection with a live probe tuple is empty) and reclaimed
//! by `purge`. Fully-covered re-insertions are suppressed (set semantics /
//! coalescing, Def. 11). Negative tuples (§6.2.5) remove intervals and
//! probe the other inputs symmetrically, which cancels prior emissions
//! exactly; a binding they leave with no validity is freed at once.
//!
//! # Two join orders
//!
//! [`PatternImpl`] picks how the inputs are joined; either way a keyed
//! leaf is read from the edge store of the node behind its port and every
//! result goes through one output dedup. The **hash-join tree** (the
//! default, as in the paper's prototype) carries binding tuples through a
//! left-deep tree of symmetric hash joins in the predicate order of the
//! PATTERN (Figure 8, right), storing each stage's intermediate bindings.
//! The **generic join** is the worst-case-optimal alternative §6.2.2 leaves
//! to future work (\[55\]; Ammar et al., \[5\] in the paper, evaluate
//! streaming subgraph patterns this way): an arriving tuple binds its
//! port's variables, and the other ports are resolved one at a time — one
//! with both ends bound first (a verification), else the one with the
//! fewest candidates — so no intermediate binding is stored at all. `repro
//! ablations` compares the two on the cyclic Q5 and Q6, where the tree's
//! intermediate tables are largest.
//!
//! # Layout
//!
//! What the operator stores — an intermediate side of the tree, or a leaf
//! without a join key (a disconnected pattern) — is one flat `Table` of
//! fixed-width rows: a row is one binding's values in that side's
//! variable layout, held in one arena per table, with its validity
//! alongside (inline while it is a single interval) and a free list of
//! row slots. Two open-addressing indexes over row ids
//! (`physical/row_index.rs`, which PATH's forest and adjacency use too)
//! hash the values where they lie in the arena: the **key index** maps a
//! join key to the first of that key's rows, which are chained in
//! insertion order, and the **binding index** maps a row's values to its
//! slot, for coalescing and negative tuples. A hash is never trusted
//! alone — every hit is checked against the arena — and nothing is
//! allocated per binding or per key. A probe walks the key's chain, so
//! its output order is the order rows arrived in, whatever slots they
//! happen to occupy.
//!
//! # Purge
//!
//! Every write of a row's validity files the row id under the merged
//! interval's expiry in an `ExpiryIndex`; [`PatternOp::purge`] pops the
//! due ids and looks at nothing else. A popped id is a hint: the row's own
//! validity, after dropping what has expired, decides whether the row
//! goes, so ids of extended, freed or reused slots are harmless. Output
//! dedup pairs are filed and purged the same way. A purge therefore costs
//! what expires, not what is held.

use super::adjacency::{Chain, EdgeStore, View};
use super::forest::ExpiryIndex;
use super::row_index::{hash_words, RowIndex, NIL};
use super::{Delta, DeltaBatch, PhysicalOp};
use crate::algebra::{Pos, Side};
use crate::engine::PatternImpl;
use sgq_types::{Edge, FxHashMap, Interval, IntervalSet, Label, Payload, Sgt, Timestamp, VertexId};
use std::mem::size_of;

/// A variable equivalence class (dense id).
pub type VarId = u32;

/// The compiled form of a logical PATTERN: variable classes per input and
/// the projection for the output sgt.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// `(src-class, trg-class)` for each input stream.
    pub input_vars: Vec<(VarId, VarId)>,
    /// Variable classes of the output `(src, trg)`.
    pub output: (VarId, VarId),
    /// Output label `d`.
    pub label: Label,
}

impl CompiledPattern {
    /// Builds the compiled pattern from the logical operator's positions
    /// and equality conditions using union–find over positions.
    pub fn compile(
        n_inputs: usize,
        conditions: &[(Pos, Pos)],
        output: (Pos, Pos),
        label: Label,
    ) -> CompiledPattern {
        let idx = |p: Pos| -> usize {
            p.input * 2
                + match p.side {
                    Side::Src => 0,
                    Side::Trg => 1,
                }
        };
        let mut parent: Vec<usize> = (0..2 * n_inputs).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for &(a, b) in conditions {
            let (ra, rb) = (find(&mut parent, idx(a)), find(&mut parent, idx(b)));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Dense class ids in position order.
        let mut class_of_root: FxHashMap<usize, VarId> = FxHashMap::default();
        let mut class = |parent: &mut Vec<usize>, pos: usize| -> VarId {
            let r = find(parent, pos);
            let next = class_of_root.len() as VarId;
            *class_of_root.entry(r).or_insert(next)
        };
        let mut input_vars = Vec::with_capacity(n_inputs);
        for i in 0..n_inputs {
            let s = class(&mut parent, 2 * i);
            let t = class(&mut parent, 2 * i + 1);
            input_vars.push((s, t));
        }
        let out = (
            class(&mut parent, idx(output.0)),
            class(&mut parent, idx(output.1)),
        );
        CompiledPattern {
            input_vars,
            output: out,
            label,
        }
    }
}

/// One stage of the hash-join tree: its two sides, which know where their
/// join keys sit, and how a joined binding is laid out.
#[derive(Debug)]
struct Stage {
    left: JoinSide,
    right: JoinSide,
    /// For each output var: (from_left, index in that side's layout).
    out_from: Vec<(bool, usize)>,
}

/// How a [`PatternOp`] joins its inputs (see the module docs).
#[derive(Debug)]
enum Join {
    /// The left-deep hash-join tree: one stage per input after the first,
    /// and where the output `(src, trg)` sits in the last stage's layout.
    Tree {
        stages: Vec<Stage>,
        out_pos: (usize, usize),
    },
    /// The generic join: each port's side, and the number of variables.
    Generic { sides: Vec<JoinSide>, vars: usize },
}

/// Fx over a key's or a row's values, in order. A stage's two tables
/// list their key positions in the same variable order, so one hash of a
/// key locates it in either table.
fn hash_vals(vals: impl IntoIterator<Item = VertexId>) -> u64 {
    hash_words(vals.into_iter().map(|v| v.0))
}

/// Bytes a hash table with `capacity` reserves: one `(K, V)` slot and one
/// control byte per bucket. Buckets are a power of two at most 7/8 full;
/// tombstones lower the capacity a table reports, so this is a floor.
pub fn table_bytes<K, V>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => 0,
        c if c < 8 => (c + 1).next_power_of_two(),
        c => (c * 8 / 7).next_power_of_two(),
    };
    buckets * (size_of::<(K, V)>() + 1)
}

/// A row slot's validity and its links in its key's chain: a circular
/// doubly-linked list in insertion order, so the first row's `prev` is
/// the last. A free slot has an empty set and links the free list
/// through `next`.
#[derive(Debug)]
struct Row {
    set: IntervalSet,
    next: u32,
    prev: u32,
}

/// One side of a symmetric hash join: fixed-width rows in one arena,
/// chained per join key (see the module docs).
#[derive(Debug)]
struct Table {
    /// Values per row, and the positions of the join key within a row.
    width: usize,
    key_pos: Vec<usize>,
    /// Row `r`'s values: `vals[r * width..][..width]`.
    vals: Vec<VertexId>,
    rows: Vec<Row>,
    /// Head of the free list of row slots.
    free: u32,
    /// Join key → the key's first row.
    keys: RowIndex,
    /// Row values → row.
    bindings: RowIndex,
    expiry: ExpiryIndex<u32>,
    /// Live rows (a maintained count).
    live: usize,
    /// Expiry handles ever filed.
    writes: usize,
}

impl Table {
    fn new(width: usize, key_pos: Vec<usize>) -> Self {
        Table {
            width,
            key_pos,
            vals: Vec::new(),
            rows: Vec::new(),
            free: NIL,
            keys: RowIndex::default(),
            bindings: RowIndex::default(),
            expiry: ExpiryIndex::default(),
            live: 0,
            writes: 0,
        }
    }

    fn vals(&self, r: u32) -> &[VertexId] {
        &self.vals[r as usize * self.width..][..self.width]
    }

    fn key_words(&self, r: u32) -> impl Iterator<Item = VertexId> + '_ {
        let vals = self.vals(r);
        self.key_pos.iter().map(move |&p| vals[p])
    }

    /// The first row of `key` (hash `hk`), or [`NIL`].
    fn first(&self, key: &[VertexId], hk: u64) -> u32 {
        self.keys
            .find(hk, |r| self.key_words(r).eq(key.iter().copied()))
            .map_or(NIL, |s| self.keys.row(s))
    }

    /// The slot of the binding index holding `vals` (hash `hb`).
    fn binding(&self, vals: &[VertexId], hb: u64) -> Option<usize> {
        self.bindings.find(hb, |r| self.vals(r) == vals)
    }

    fn file(&mut self, exp: Timestamp, r: u32) {
        self.expiry.register(exp, r);
        self.writes += 1;
    }

    /// Adds `iv` to the binding `vals`, whose key is `key` (hash `hk`):
    /// extends its row, or takes a slot for a new row at the end of the
    /// key's chain. Returns the interval now covering `iv`, or `None` if
    /// it was covered already and `suppress` is on.
    fn insert(
        &mut self,
        key: &[VertexId],
        hk: u64,
        vals: &[VertexId],
        iv: Interval,
        suppress: bool,
    ) -> Option<Interval> {
        let hb = hash_vals(vals.iter().copied());
        if let Some(slot) = self.binding(vals, hb) {
            let r = self.bindings.row(slot);
            let set = &mut self.rows[r as usize].set;
            let covered = set.covers(&iv);
            if suppress && covered {
                return None;
            }
            let merged = set.insert(iv).expect("non-empty interval");
            if !covered {
                self.file(merged.exp, r);
            }
            return Some(merged);
        }
        let first = self.first(key, hk);
        let r = self.alloc(vals, iv);
        self.bindings.insert(hb, r);
        if first == NIL {
            self.keys.insert(hk, r);
        } else {
            let last = self.rows[first as usize].prev;
            self.rows[last as usize].next = r;
            self.rows[first as usize].prev = r;
            let row = &mut self.rows[r as usize];
            (row.prev, row.next) = (last, first);
        }
        self.file(iv.exp, r);
        Some(iv)
    }

    /// A slot for a new row holding `vals` valid over `iv`, linked to
    /// itself alone.
    fn alloc(&mut self, vals: &[VertexId], iv: Interval) -> u32 {
        self.live += 1;
        let reuse = self.free != NIL;
        let r = if reuse {
            self.free
        } else {
            u32::try_from(self.rows.len())
                .ok()
                .filter(|&r| r != NIL)
                .expect("a table holds fewer than 2^32 - 1 rows")
        };
        let row = Row {
            set: IntervalSet::from_interval(iv),
            next: r,
            prev: r,
        };
        if reuse {
            self.free = self.rows[r as usize].next;
            self.rows[r as usize] = row;
            self.vals[r as usize * self.width..][..self.width].copy_from_slice(vals);
        } else {
            self.rows.push(row);
            self.vals.extend_from_slice(vals);
        }
        r
    }

    /// Removes `iv` from the binding `vals` (negative tuple), freeing its
    /// row if nothing is left.
    fn remove(&mut self, hk: u64, vals: &[VertexId], iv: Interval) {
        let hb = hash_vals(vals.iter().copied());
        if let Some(slot) = self.binding(vals, hb) {
            let r = self.bindings.row(slot);
            self.rows[r as usize].set.remove(iv);
            if self.rows[r as usize].set.is_empty() {
                self.drop_row(r, slot, hk);
            }
        }
    }

    /// Unindexes the emptied row `r` (binding slot `slot`, key hash `hk`),
    /// unlinks it from its key's chain — dropping the key with its last
    /// row — and puts its slot on the free list.
    fn drop_row(&mut self, r: u32, slot: usize, hk: u64) {
        self.bindings.remove(slot);
        let Row { next, prev, .. } = self.rows[r as usize];
        self.rows[prev as usize].next = next;
        self.rows[next as usize].prev = prev;
        if let Some(first) = self.keys.find(hk, |x| x == r) {
            if next == r {
                self.keys.remove(first);
            } else {
                self.keys.set_row(first, next);
            }
        }
        self.rows[r as usize].next = self.free;
        self.free = r;
        self.live -= 1;
    }

    /// Calls `f(values, overlap)` for every interval overlapping `iv` of
    /// every row in the chain that starts at `first`, in insertion order.
    fn probe(&self, first: u32, iv: Interval, mut f: impl FnMut(&[VertexId], Interval)) {
        if first == NIL {
            return;
        }
        let mut r = first;
        loop {
            let row = &self.rows[r as usize];
            for stored in row.set.overlapping(&iv) {
                let meet = stored.intersect(&iv);
                if !meet.is_empty() {
                    f(self.vals(r), meet);
                }
            }
            r = row.next;
            if r == first {
                break;
            }
        }
    }

    /// Drops what expired at `watermark` from every row a due handle
    /// names, and frees the rows left empty.
    fn purge(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for r in due {
                let set = &mut self.rows[r as usize].set;
                if set.is_empty() {
                    continue; // a free slot
                }
                set.purge_expired(watermark);
                if !set.is_empty() {
                    continue; // extended, or reused by a later binding
                }
                let hb = hash_vals(self.vals(r).iter().copied());
                let hk = hash_vals(self.key_words(r));
                let slot = self
                    .bindings
                    .find(hb, |x| x == r)
                    .expect("live rows are indexed");
                self.drop_row(r, slot, hk);
            }
        }
    }

    /// Adds this table's occupancy and bytes to `c` (walks every chain);
    /// `leaf` if it holds a leaf's rows.
    fn census(&self, c: &mut PatternCensus, leaf: bool) {
        let rows = c.rows;
        for first in self.keys.rows() {
            let mut r = first;
            loop {
                let row = &self.rows[r as usize];
                c.rows += 1;
                c.empty_rows += usize::from(row.set.is_empty());
                c.reserved_bytes += row.set.heap_bytes();
                r = row.next;
                if r == first {
                    break;
                }
            }
        }
        if leaf {
            c.leaf_rows += c.rows - rows;
        }
        c.row_slots += self.rows.len();
        c.keys += self.keys.len();
        c.expiry_handles += self.expiry.pending();
        c.interval_writes += self.writes;
        c.reserved_bytes += self.vals.capacity() * size_of::<VertexId>()
            + self.rows.capacity() * size_of::<Row>()
            + self.keys.reserved_bytes()
            + self.bindings.reserved_bytes()
            + self.key_pos.capacity() * size_of::<usize>()
            + self.expiry.reserved_bytes();
    }
}

/// A leaf read from the edge store behind its port: where its join key
/// sits on the input edge.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    port: usize,
    /// Position in the key of the edge's source, if the key holds it.
    src_at: Option<usize>,
    /// Position in the key of the edge's target, if the key holds it.
    trg_at: Option<usize>,
    /// A same-variable leaf `a(x, x)`: one value, self-loops only.
    self_loop: bool,
}

impl Leaf {
    /// Positions of the join key in the leaf's layout (`[src, trg]`, or
    /// `[x]` for a same-variable leaf).
    fn key_pos(&self) -> &'static [usize] {
        match (self.src_at, self.trg_at) {
            _ if self.self_loop => &[0],
            (Some(0), Some(1)) => &[0, 1],
            (Some(1), Some(0)) => &[1, 0],
            (Some(_), None) => &[0],
            (None, Some(_)) => &[1],
            _ => unreachable!("a leaf without a join key keeps a table"),
        }
    }

    /// This leaf keyed on whichever of its edge's ends `src` and `trg` are
    /// bound, source first, with that key: how the generic join reads it.
    fn bound(self, src: Option<VertexId>, trg: Option<VertexId>) -> (Leaf, [VertexId; 2], usize) {
        let (key, len) = match (src, trg) {
            (Some(s), Some(t)) if !self.self_loop => ([s, t], 2),
            (Some(s), _) => ([s, s], 1),
            (None, Some(t)) => ([t, t], 1),
            (None, None) => unreachable!("the generic join reads a leaf with an end bound"),
        };
        let leaf = Leaf {
            src_at: src.map(|_| 0),
            trg_at: trg.map(|_| len - 1),
            ..self
        };
        (leaf, key, len)
    }

    /// The chain of `store` holding `key`'s edges: the out-chain of a key
    /// on the source (filtered by target when the key holds both), else
    /// the in-chain.
    fn chain(&self, store: &EdgeStore, key: &[VertexId]) -> Chain {
        match (self.src_at, self.trg_at) {
            (Some(i), _) => store.out_chain(key[i]),
            (None, Some(i)) => store.in_chain(key[i]),
            (None, None) => unreachable!("a leaf without a join key keeps a table"),
        }
    }

    /// Calls `f(values, overlap)` for every edge of `chain` with `key`
    /// whose interval in `view` overlaps `iv`, in chain order.
    fn probe(
        &self,
        store: &EdgeStore,
        chain: Chain,
        view: View,
        key: &[VertexId],
        iv: Interval,
        mut f: impl FnMut(&[VertexId], Interval),
    ) {
        // An out-chain holds every target of the source.
        let trg = self.src_at.and(self.trg_at).map(|i| key[i]);
        for (src, t, stored) in store.walk(chain, view) {
            if trg.is_some_and(|trg| trg != t) {
                continue;
            }
            let meet = stored.intersect(&iv);
            if meet.is_empty() {
                continue;
            }
            if self.self_loop {
                f(&[src], meet);
            } else {
                f(&[src, t], meet);
            }
        }
    }
}

/// One side of a join stage.
#[derive(Debug)]
enum JoinSide {
    /// Bindings the operator holds: an intermediate side, or a leaf
    /// without a join key.
    Table(Table),
    /// A leaf read from its port's edge store.
    Leaf(Leaf),
}

impl JoinSide {
    /// The side of input `port` with layout width `width` and join key
    /// positions `key_pos`.
    fn leaf(port: usize, width: usize, key_pos: Vec<usize>) -> JoinSide {
        if key_pos.is_empty() {
            return JoinSide::Table(Table::new(width, key_pos));
        }
        let at = |end: usize| key_pos.iter().position(|&p| p == end.min(width - 1));
        JoinSide::Leaf(Leaf {
            port,
            src_at: at(0),
            trg_at: at(1),
            self_loop: width == 1,
        })
    }

    fn key_pos(&self) -> &[usize] {
        match self {
            JoinSide::Table(t) => &t.key_pos,
            JoinSide::Leaf(l) => l.key_pos(),
        }
    }

    /// Takes the binding `w` (values in `buf`, join key `key`, hash `hk`)
    /// arriving on this side: a table stores it, or removes it for a
    /// negative tuple; a leaf's store holds it already. Returns whether it
    /// can derive anything new: not an insert that `suppress` finds
    /// covered.
    fn arrive(
        &mut self,
        key: &[VertexId],
        hk: u64,
        w: &Work,
        buf: &[VertexId],
        suppress: bool,
        leaves: &dyn LeafStores,
    ) -> bool {
        let vals = w.vals(buf);
        match self {
            JoinSide::Table(t) if w.delete => {
                t.remove(hk, vals, w.iv);
                true
            }
            JoinSide::Table(t) => t.insert(key, hk, vals, w.iv, suppress).is_some(),
            JoinSide::Leaf(_) if w.delete => true,
            JoinSide::Leaf(l) => {
                let (src, trg) = (vals[0], vals[vals.len() - 1]);
                !suppress || !leaves.store(l.port).was_covered(src, trg, w.iv)
            }
        }
    }

    /// Calls `f(src, trg, overlap)` for every edge of this port side with
    /// the ends `src` and `trg` where they are bound, and an interval
    /// overlapping `iv`: a generic-join step. A table (no join key) is
    /// scanned whole.
    fn read(
        &self,
        leaves: &dyn LeafStores,
        src: Option<VertexId>,
        trg: Option<VertexId>,
        iv: Interval,
        mut f: impl FnMut(VertexId, VertexId, Interval),
    ) {
        let ends = |vals: &[VertexId]| (vals[0], vals[vals.len() - 1]);
        match self {
            JoinSide::Table(t) => t.probe(t.first(&[], hash_vals([])), iv, |vals, meet| {
                let (s, d) = ends(vals);
                if src.is_none_or(|x| x == s) && trg.is_none_or(|x| x == d) {
                    f(s, d, meet);
                }
            }),
            JoinSide::Leaf(l) => {
                let (leaf, key, len) = l.bound(src, trg);
                let store = leaves.store(l.port);
                let chain = leaf.chain(store, &key[..len]);
                let view = leaves.view(l.port);
                leaf.probe(store, chain, view, &key[..len], iv, |vals, meet| {
                    let (s, d) = ends(vals);
                    f(s, d, meet);
                });
            }
        }
    }

    /// How many edges [`JoinSide::read`] walks for these bound ends,
    /// counted up to `limit`.
    fn candidates(
        &self,
        leaves: &dyn LeafStores,
        src: Option<VertexId>,
        trg: Option<VertexId>,
        limit: usize,
    ) -> usize {
        match self {
            JoinSide::Table(t) => t.live.min(limit),
            JoinSide::Leaf(l) => {
                let (leaf, key, len) = l.bound(src, trg);
                let store = leaves.store(l.port);
                let chain = leaf.chain(store, &key[..len]);
                store.walk(chain, leaves.view(l.port)).take(limit).count()
            }
        }
    }
}

/// The other side of a stage, located for one join key: a table's first
/// row of the key, or a leaf's chain in its store and the view it is read
/// in.
enum Probe<'a> {
    Rows(&'a Table, u32),
    Edges(&'a Leaf, &'a EdgeStore, Chain, View),
}

impl Probe<'_> {
    /// Locates `key` (hash `hk`) on `side`.
    fn locate<'a>(
        side: &'a JoinSide,
        key: &[VertexId],
        hk: u64,
        leaves: &'a dyn LeafStores,
    ) -> Probe<'a> {
        match side {
            JoinSide::Table(t) => Probe::Rows(t, t.first(key, hk)),
            JoinSide::Leaf(l) => {
                let store = leaves.store(l.port);
                Probe::Edges(l, store, l.chain(store, key), leaves.view(l.port))
            }
        }
    }

    /// Calls `f(values, overlap)` for every binding of `key` overlapping
    /// `iv`, in arrival order.
    fn run(&self, key: &[VertexId], iv: Interval, f: impl FnMut(&[VertexId], Interval)) {
        match *self {
            Probe::Rows(t, first) => t.probe(first, iv, f),
            Probe::Edges(l, store, chain, view) => l.probe(store, chain, view, key, iv, f),
        }
    }
}

/// The edge stores a PATTERN's leaves read, by input port, and how each
/// is read now (see the module docs).
pub(crate) trait LeafStores {
    /// The store of the node behind `port`.
    fn store(&self, port: usize) -> &EdgeStore;
    /// Which state of `port`'s store a probe sees.
    fn view(&self, port: usize) -> View;
}

/// The stores of a pattern whose leaves all keep tables (one input, or
/// no join key): there are none to read.
struct NoStores;

impl LeafStores for NoStores {
    fn store(&self, _port: usize) -> &EdgeStore {
        unreachable!("a keyed leaf reads its port's edge store (PatternOp::consume)")
    }

    fn view(&self, _port: usize) -> View {
        View::New
    }
}

/// What a PATTERN operator holds: its tables and its output dedup. Leaf
/// rows are in the edge stores, which the dataflow counts
/// (`Dataflow::store_censuses`). Counted by a full scan — what
/// `tests/bounded_state.rs` holds against the window, not a metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternCensus {
    /// Rows reachable from the key indexes of all tables (equals
    /// [`PhysicalOp::state_size`]).
    pub rows: usize,
    /// Of `rows`, those of leaf tables: only a leaf without a join key
    /// keeps one, so zero for every connected pattern.
    pub leaf_rows: usize,
    /// Row slots ever allocated (live + free).
    pub row_slots: usize,
    /// Distinct join keys over all tables.
    pub keys: usize,
    /// Reachable rows with an empty validity (always zero).
    pub empty_rows: usize,
    /// Output `(src, trg)` pairs held for coalescing.
    pub dedup_pairs: usize,
    /// Dedup pairs with an empty set (always zero).
    pub dedup_empty: usize,
    /// Expiry handles not yet popped by a purge (tables and dedup).
    pub expiry_handles: usize,
    /// Expiry handles ever filed: one per interval write.
    pub interval_writes: usize,
    /// Heap bytes reserved by every container the operator owns: capacity
    /// times slot size, hash tables at `(K, V)` plus one control byte per
    /// bucket.
    pub reserved_bytes: usize,
}

/// A pending binding tuple inside the join tree (its stage is tracked by
/// the level loop). Values live in the level's flat buffer as a
/// `[start, start + len)` range, so tuples flow between stages without a
/// per-tuple heap allocation; a new binding is copied into a table's
/// arena when it is stored.
struct Work {
    start: u32,
    len: u32,
    iv: Interval,
    delete: bool,
}

impl Work {
    fn vals<'b>(&self, buf: &'b [VertexId]) -> &'b [VertexId] {
        &buf[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One arrival's generic join: the side and the variables of every port,
/// read through `leaves`.
struct Generic<'a> {
    sides: &'a [JoinSide],
    ports: &'a [(VarId, VarId)],
    output: (VarId, VarId),
    leaves: &'a dyn LeafStores,
}

impl Generic<'_> {
    /// Binds the ports in `pending` one at a time, in the order
    /// [`Generic::next_port`] picks, and pushes the output pair of each
    /// complete binding to `results` with its validity: the intersection
    /// over all of its ports.
    fn join(
        &self,
        bindings: &mut [Option<VertexId>],
        iv: Interval,
        pending: &mut Vec<usize>,
        results: &mut Vec<(VertexId, VertexId, Interval)>,
    ) {
        if iv.is_empty() {
            return;
        }
        let Some(pos) = self.next_port(bindings, pending) else {
            let (s, t) = self.output;
            let src = bindings[s as usize].expect("output src bound");
            let trg = bindings[t as usize].expect("output trg bound");
            results.push((src, trg, iv));
            return;
        };
        let port = pending.swap_remove(pos);
        let (sv, tv) = (self.ports[port].0 as usize, self.ports[port].1 as usize);
        let (sb, tb) = (bindings[sv], bindings[tv]);
        self.sides[port].read(self.leaves, sb, tb, iv, |s, t, meet| {
            bindings[sv] = Some(s);
            bindings[tv] = Some(t);
            let mut sub = pending.clone();
            self.join(bindings, meet, &mut sub, results);
            (bindings[sv], bindings[tv]) = (sb, tb);
        });
        pending.push(port); // restore for the caller's sibling branches
    }

    /// The position in `pending` of the port to bind next: one with both
    /// ends bound (a verification, cheapest), else the one with the fewest
    /// candidates for its bound end (the first of equals), else a port
    /// that keeps a table — in a disconnected pattern, nothing pending may
    /// touch a bound variable — to be scanned whole. `None` when nothing
    /// is pending.
    fn next_port(&self, bindings: &[Option<VertexId>], pending: &[usize]) -> Option<usize> {
        let ends = |port: usize| {
            let (s, t) = self.ports[port];
            (bindings[s as usize], bindings[t as usize])
        };
        let mut scan = None;
        let mut half_bound = false;
        for (i, &port) in pending.iter().enumerate() {
            match ends(port) {
                (Some(_), Some(_)) => return Some(i),
                (None, None) => {
                    if scan.is_none() && matches!(self.sides[port], JoinSide::Table(_)) {
                        scan = Some(i);
                    }
                }
                _ => half_bound = true,
            }
        }
        if !half_bound {
            return scan;
        }
        // A store keeps no chain lengths, so candidates are counted up to
        // a cap that doubles until some port has fewer: the count costs
        // about what walking the shortest chain costs, not the longest.
        let mut limit = 4;
        loop {
            let mut best: Option<(usize, usize)> = None; // (pos, candidates)
            for (i, &port) in pending.iter().enumerate() {
                let (sb, tb) = ends(port);
                if sb.is_some() == tb.is_some() {
                    continue;
                }
                let cost = self.sides[port].candidates(self.leaves, sb, tb, limit);
                if cost < limit && best.is_none_or(|(_, c)| cost < c) {
                    best = Some((i, cost));
                }
            }
            if let Some((i, _)) = best {
                return Some(i);
            }
            limit *= 2;
        }
    }
}

/// The PATTERN physical operator.
pub struct PatternOp {
    spec: CompiledPattern,
    join: Join,
    /// Output coalescing state (set semantics); bypassed for deletes.
    out_dedup: FxHashMap<(VertexId, VertexId), IntervalSet>,
    dedup_expiry: ExpiryIndex<(VertexId, VertexId)>,
    dedup_writes: usize,
    suppress: bool,
}

impl Join {
    /// The hash-join tree: its left-deep stages and their sides.
    fn tree(spec: &CompiledPattern) -> Join {
        let n = spec.input_vars.len();
        let leaf_layout = |i: usize| -> Vec<VarId> {
            let (s, t) = spec.input_vars[i];
            if s == t {
                vec![s]
            } else {
                vec![s, t]
            }
        };

        let mut stages = Vec::new();
        let mut layout = leaf_layout(0);
        for i in 1..n {
            let right_layout = leaf_layout(i);
            let shared: Vec<VarId> = layout
                .iter()
                .copied()
                .filter(|v| right_layout.contains(v))
                .collect();
            let left_key: Vec<usize> = shared
                .iter()
                .map(|v| layout.iter().position(|x| x == v).unwrap())
                .collect();
            let right_key: Vec<usize> = shared
                .iter()
                .map(|v| right_layout.iter().position(|x| x == v).unwrap())
                .collect();
            let mut out_layout = layout.clone();
            for &v in &right_layout {
                if !out_layout.contains(&v) {
                    out_layout.push(v);
                }
            }
            let out_from: Vec<(bool, usize)> = out_layout
                .iter()
                .map(|v| match layout.iter().position(|x| x == v) {
                    Some(p) => (true, p),
                    None => (false, right_layout.iter().position(|x| x == v).unwrap()),
                })
                .collect();
            let left = if i == 1 {
                JoinSide::leaf(0, layout.len(), left_key)
            } else {
                JoinSide::Table(Table::new(layout.len(), left_key))
            };
            stages.push(Stage {
                left,
                right: JoinSide::leaf(i, right_layout.len(), right_key),
                out_from,
            });
            layout = out_layout;
        }

        let out_pos = (
            layout
                .iter()
                .position(|&v| v == spec.output.0)
                .expect("output src var bound"),
            layout
                .iter()
                .position(|&v| v == spec.output.1)
                .expect("output trg var bound"),
        );
        Join::Tree { stages, out_pos }
    }

    /// The generic join: every port a leaf keyed on its whole edge, except
    /// that in a disconnected pattern the first port of each connected
    /// part keeps a table, for an arrival in another part to scan.
    fn generic(spec: &CompiledPattern) -> Join {
        let ports = &spec.input_vars;
        let shares = |p: usize, q: usize| {
            let ((a, b), (c, d)) = (ports[p], ports[q]);
            a == c || a == d || b == c || b == d
        };
        // The first port of each port's connected part.
        let mut part: Vec<usize> = (0..ports.len()).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for p in 0..ports.len() {
                for q in 0..ports.len() {
                    if part[q] < part[p] && shares(p, q) {
                        part[p] = part[q];
                        changed = true;
                    }
                }
            }
        }
        let connected = part.iter().all(|&first| first == 0);
        let sides = (0..ports.len())
            .map(|p| {
                let width = if ports[p].0 == ports[p].1 { 1 } else { 2 };
                let keyless = !connected && part[p] == p;
                let key_pos = if keyless {
                    vec![]
                } else {
                    (0..width).collect()
                };
                JoinSide::leaf(p, width, key_pos)
            })
            .collect();
        let vars = ports.iter().flat_map(|&(s, t)| [s, t]).max();
        Join::Generic {
            sides,
            vars: vars.map_or(0, |m| m as usize + 1),
        }
    }
}

impl PatternOp {
    /// Builds the operator in join order `order` (see the module docs). A
    /// one-input pattern is a projection, the same in either order.
    pub fn new(spec: CompiledPattern, suppress: bool, order: PatternImpl) -> Self {
        let join = match order {
            PatternImpl::Wcoj if spec.input_vars.len() > 1 => Join::generic(&spec),
            _ => Join::tree(&spec),
        };
        PatternOp {
            spec,
            join,
            out_dedup: FxHashMap::default(),
            dedup_expiry: ExpiryIndex::default(),
            dedup_writes: 0,
            suppress,
        }
    }

    /// Whether input `port` is read from the edge store of the node behind
    /// it: every leaf with a join key. A one-input pattern has no leaves.
    pub(crate) fn reads_store(&self, port: usize) -> bool {
        let side = match &self.join {
            Join::Tree { stages, .. } => match port {
                0 => stages.first().map(|s| &s.left),
                p => stages.get(p - 1).map(|s| &s.right),
            },
            Join::Generic { sides, .. } => sides.get(port),
        };
        matches!(side, Some(JoinSide::Leaf(_)))
    }

    fn emit(
        &mut self,
        src: VertexId,
        trg: VertexId,
        iv: Interval,
        delete: bool,
        out: &mut Vec<Delta>,
    ) {
        let mk = |iv: Interval| {
            Sgt::with_payload(
                src,
                trg,
                self.spec.label,
                iv,
                Payload::Edge(Edge::new(src, trg, self.spec.label)),
            )
        };
        if delete {
            // A pair never emitted (suppression off) or already purged
            // has nothing to retract from.
            if let Some(set) = self.out_dedup.get_mut(&(src, trg)) {
                set.remove(iv);
                if set.is_empty() {
                    self.out_dedup.remove(&(src, trg));
                }
            }
            out.push(Delta::Delete(mk(iv)));
            return;
        }
        if self.suppress {
            let set = self.out_dedup.entry((src, trg)).or_default();
            if set.covers(&iv) {
                return;
            }
            // Emit the coalesced interval (Def. 11).
            let merged = set.insert(iv).expect("non-empty interval");
            self.dedup_expiry.register(merged.exp, (src, trg));
            self.dedup_writes += 1;
            out.push(Delta::Insert(mk(merged)));
        } else {
            out.push(Delta::Insert(mk(iv)));
        }
    }

    /// Runs a level of binding tuples entering stage `stage`'s **left**
    /// side (and every stage above) to completion, and emits what leaves
    /// the last stage. Within each level the tuples are grouped by join
    /// key, so the hash tables are touched once per distinct key instead
    /// of once per tuple — the batched form of the symmetric-hash-join
    /// probe.
    fn run_levels(
        &mut self,
        mut stage: usize,
        mut works: Vec<Work>,
        mut buf: Vec<VertexId>,
        leaves: &dyn LeafStores,
        out: &mut Vec<Delta>,
    ) {
        let Join::Tree { stages, out_pos } = &self.join else {
            unreachable!("only the hash-join tree has levels")
        };
        let (depth, (src, trg)) = (stages.len(), *out_pos);
        while !works.is_empty() {
            if stage == depth {
                for w in &works {
                    let vals = w.vals(&buf);
                    self.emit(vals[src], vals[trg], w.iv, w.delete, out);
                }
                return;
            }
            (works, buf) = self.level(stage, true, &works, &buf, leaves);
            stage += 1;
        }
    }

    /// Processes one level of arrivals into stage `stage` — the left side
    /// when `from_left`, the right side otherwise (a right-port input
    /// batch) — and returns the joined tuples for the next stage in a
    /// fresh flat buffer.
    ///
    /// Tuples are grouped by join key with a stable sort (same-key
    /// arrivals keep their relative order, so insert/delete runs on one
    /// binding stay meaningful); each group hashes its key once and
    /// locates the opposite side's chain once.
    fn level(
        &mut self,
        stage: usize,
        from_left: bool,
        works: &[Work],
        buf: &[VertexId],
        leaves: &dyn LeafStores,
    ) -> (Vec<Work>, Vec<VertexId>) {
        let suppress = self.suppress;
        let Join::Tree { stages, .. } = &mut self.join else {
            unreachable!("only the hash-join tree has levels")
        };
        let Stage {
            left,
            right,
            out_from,
        } = &mut stages[stage];
        let (own, other) = if from_left {
            (left, right)
        } else {
            (right, left)
        };
        // Flat key buffer: key `i` lives at `key_buf[i*klen..(i+1)*klen]`.
        let own_key = own.key_pos();
        let klen = own_key.len();
        let mut key_buf: Vec<VertexId> = Vec::with_capacity(works.len() * klen);
        for w in works {
            let vals = w.vals(buf);
            key_buf.extend(own_key.iter().map(|&ki| vals[ki]));
        }
        let key_of = |i: usize| &key_buf[i * klen..(i + 1) * klen];
        let mut order: Vec<u32> = (0..works.len() as u32).collect();
        order.sort_by(|&a, &b| key_of(a as usize).cmp(key_of(b as usize)));

        let mut next: Vec<Work> = Vec::new();
        let mut next_buf: Vec<VertexId> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let key = key_of(order[i] as usize);
            let mut j = i + 1;
            while j < order.len() && key_of(order[j] as usize) == key {
                j += 1;
            }
            let hk = hash_vals(key.iter().copied());
            let probe = Probe::locate(other, key, hk, leaves);
            for &w_idx in &order[i..j] {
                let w = &works[w_idx as usize];
                // A negative tuple still probes the other side for its
                // negative results (a leaf's store has removed the edge
                // already).
                if !own.arrive(key, hk, w, buf, suppress, leaves) {
                    continue; // fully covered: no new results possible
                }
                let vals = w.vals(buf);
                let join =
                    |ovals: &[VertexId], meet: Interval| {
                        let (lvals, rvals) = if from_left {
                            (vals, ovals)
                        } else {
                            (ovals, vals)
                        };
                        let start = next_buf.len() as u32;
                        next_buf.extend(out_from.iter().map(|&(ls, pos)| {
                            if ls {
                                lvals[pos]
                            } else {
                                rvals[pos]
                            }
                        }));
                        next.push(Work {
                            start,
                            len: out_from.len() as u32,
                            iv: meet,
                            delete: w.delete,
                        });
                    };
                probe.run(key, w.iv, join);
            }
            i = j;
        }
        (next, next_buf)
    }

    /// Runs the generic join once per arrival on `port`, in arrival
    /// order: the arrival binds the port's variables, and
    /// [`Generic::join`] binds every other port's.
    fn generic(
        &mut self,
        port: usize,
        works: &[Work],
        buf: &[VertexId],
        leaves: &dyn LeafStores,
        out: &mut Vec<Delta>,
    ) {
        let Join::Generic { sides, vars } = &mut self.join else {
            unreachable!("only the generic join enumerates")
        };
        let (sv, tv) = self.spec.input_vars[port];
        let others: Vec<usize> = (0..sides.len()).filter(|&p| p != port).collect();
        let mut bindings: Vec<Option<VertexId>> = vec![None; *vars];
        let mut pending = Vec::with_capacity(others.len());
        let (mut results, mut emitted) = (Vec::new(), Vec::new());
        let hk = hash_vals([]);
        for w in works {
            if !sides[port].arrive(&[], hk, w, buf, self.suppress, leaves) {
                continue; // fully covered: no new results possible
            }
            let vals = w.vals(buf);
            bindings.fill(None);
            bindings[sv as usize] = Some(vals[0]);
            bindings[tv as usize] = Some(vals[vals.len() - 1]);
            pending.clear();
            pending.extend_from_slice(&others);
            let generic = Generic {
                sides,
                ports: &self.spec.input_vars,
                output: self.spec.output,
                leaves,
            };
            generic.join(&mut bindings, w.iv, &mut pending, &mut results);
            emitted.extend(results.drain(..).map(|(s, t, iv)| (s, t, iv, w.delete)));
        }
        for (src, trg, iv, delete) in emitted {
            self.emit(src, trg, iv, delete, out);
        }
    }

    /// Processes `deltas` arriving on `port`, in arrival order: one
    /// delivered batch, or one run of a batch that deletes. A leaf port's
    /// store must already hold them, and `leaves` say how every store is
    /// read (see the module docs).
    pub(crate) fn consume(
        &mut self,
        port: usize,
        deltas: &[Delta],
        leaves: &dyn LeafStores,
        out: &mut Vec<Delta>,
    ) {
        // Convert the port's deltas to leaf binding tuples in arrival
        // order, packed into one flat value buffer.
        let (sv, tv) = self.spec.input_vars[port];
        let leaf_len: u32 = if sv == tv { 1 } else { 2 };
        let mut works: Vec<Work> = Vec::with_capacity(deltas.len());
        let mut buf: Vec<VertexId> = Vec::with_capacity(deltas.len() * leaf_len as usize);
        for d in deltas {
            let s = d.sgt();
            if s.interval.is_empty() {
                continue;
            }
            let start = buf.len() as u32;
            if sv == tv {
                // Same-variable leaf `a(x, x)`: only self-loops bind.
                if s.src != s.trg {
                    continue;
                }
                buf.push(s.src);
            } else {
                buf.push(s.src);
                buf.push(s.trg);
            }
            works.push(Work {
                start,
                len: leaf_len,
                iv: s.interval,
                delete: d.is_delete(),
            });
        }
        if works.is_empty() {
            return;
        }

        match (&self.join, port) {
            (Join::Generic { .. }, _) => self.generic(port, &works, &buf, leaves, out),
            // Left arrivals, or the one input of a projection.
            (Join::Tree { .. }, 0) => self.run_levels(0, works, buf, leaves, out),
            (Join::Tree { .. }, _) => {
                // Right arrivals at stage `port - 1`: probe the left side
                // (key-grouped), then run the joined tuples upward.
                let stage = port - 1;
                let (joined, jbuf) = self.level(stage, false, &works, &buf, leaves);
                self.run_levels(stage + 1, joined, jbuf, leaves, out);
            }
        }
    }

    /// Every side with whether it holds a leaf: the tree's first left side
    /// and its right sides, or every port of the generic join.
    fn sides(&self) -> impl Iterator<Item = (&JoinSide, bool)> {
        let (stages, ports): (&[Stage], &[JoinSide]) = match &self.join {
            Join::Tree { stages, .. } => (stages, &[]),
            Join::Generic { sides, .. } => (&[], sides),
        };
        let tree = stages.iter().enumerate();
        tree.flat_map(|(stage, s)| [(&s.left, stage == 0), (&s.right, true)])
            .chain(ports.iter().map(|side| (side, true)))
    }

    fn tables(&self) -> impl Iterator<Item = (&Table, bool)> {
        self.sides().filter_map(|(side, leaf)| match side {
            JoinSide::Table(t) => Some((t, leaf)),
            JoinSide::Leaf(_) => None,
        })
    }
}

impl PhysicalOp for PatternOp {
    fn name(&self) -> String {
        let order = match self.join {
            Join::Tree { .. } => "",
            Join::Generic { .. } => "-WCOJ",
        };
        format!(
            "PATTERN{order}[{} inputs → {:?}]",
            self.spec.input_vars.len(),
            self.spec.label
        )
    }

    /// Drives a pattern without keyed leaves (one input, or no join key);
    /// the dataflow drives any other through `PatternOp::consume`.
    fn on_batch(&mut self, port: usize, batch: &DeltaBatch, _now: Timestamp, out: &mut DeltaBatch) {
        self.consume(port, batch.as_slice(), &NoStores, out.as_mut_vec());
    }

    fn purge(&mut self, watermark: Timestamp, _out: &mut Vec<Delta>) {
        let (stages, ports): (&mut [Stage], &mut [JoinSide]) = match &mut self.join {
            Join::Tree { stages, .. } => (stages, Default::default()),
            Join::Generic { sides, .. } => (Default::default(), sides),
        };
        let sides = stages.iter_mut().flat_map(|s| [&mut s.left, &mut s.right]);
        for side in sides.chain(ports) {
            if let JoinSide::Table(t) = side {
                t.purge(watermark);
            }
        }
        while let Some(due) = self.dedup_expiry.pop_due(watermark) {
            for pair in due {
                if let Some(set) = self.out_dedup.get_mut(&pair) {
                    set.purge_expired(watermark);
                    if set.is_empty() {
                        self.out_dedup.remove(&pair);
                    }
                }
            }
        }
    }

    fn state_size(&self) -> usize {
        self.tables().map(|(t, _)| t.live).sum()
    }

    fn pattern_census(&self) -> Option<PatternCensus> {
        let mut c = PatternCensus {
            dedup_pairs: self.out_dedup.len(),
            dedup_empty: self.out_dedup.values().filter(|s| s.is_empty()).count(),
            expiry_handles: self.dedup_expiry.pending(),
            interval_writes: self.dedup_writes,
            reserved_bytes: table_bytes::<(VertexId, VertexId), IntervalSet>(
                self.out_dedup.capacity(),
            ) + self
                .out_dedup
                .values()
                .map(IntervalSet::heap_bytes)
                .sum::<usize>()
                + self.dedup_expiry.reserved_bytes(),
            ..Default::default()
        };
        for (t, leaf) in self.tables() {
            t.census(&mut c, leaf);
        }
        Some(c)
    }

    fn as_pattern_mut(&mut self) -> Option<&mut PatternOp> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::adjacency::{runs, Run};
    use super::super::push_one;
    use super::*;
    use crate::algebra::Pos;

    /// A PATTERN and one edge store per input (input `i` publishing label
    /// `i`), driven the way the dataflow drives a store and its reader: a
    /// batch is applied to its port's store run by run, and the operator
    /// reads each run before the next, every other store in its new view.
    struct Solo {
        op: PatternOp,
        stores: Vec<EdgeStore>,
    }

    impl Solo {
        fn new(spec: CompiledPattern, suppress: bool, order: PatternImpl) -> Solo {
            let stores = (0..spec.input_vars.len())
                .map(|i| EdgeStore::new(Label(i as u32)))
                .collect();
            Solo {
                op: PatternOp::new(spec, suppress, order),
                stores,
            }
        }
    }

    struct Stored<'a>(&'a [EdgeStore]);

    impl LeafStores for Stored<'_> {
        fn store(&self, port: usize) -> &EdgeStore {
            &self.0[port]
        }

        fn view(&self, _port: usize) -> View {
            View::New
        }
    }

    impl PhysicalOp for Solo {
        fn name(&self) -> String {
            self.op.name()
        }

        fn on_batch(
            &mut self,
            port: usize,
            batch: &DeltaBatch,
            _now: Timestamp,
            out: &mut DeltaBatch,
        ) {
            let (batch, out) = (batch.as_slice(), out.as_mut_vec());
            let mut at = 0;
            for run in runs(batch) {
                let len = match run {
                    Run::Inserts(run) => {
                        self.stores[port].load(run);
                        run.len()
                    }
                    Run::Delete(s) => {
                        self.stores[port].remove(s);
                        1
                    }
                };
                let leaves = Stored(&self.stores);
                self.op.consume(port, &batch[at..at + len], &leaves, out);
                at += len;
            }
        }

        fn purge(&mut self, watermark: Timestamp, out: &mut Vec<Delta>) {
            for store in &mut self.stores {
                store.purge(watermark);
            }
            self.op.purge(watermark, out);
        }

        fn state_size(&self) -> usize {
            self.op.state_size() + self.stores.iter().map(EdgeStore::size).sum::<usize>()
        }

        fn pattern_census(&self) -> Option<PatternCensus> {
            self.op.pattern_census()
        }
    }

    fn sgt(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(
            VertexId(src),
            VertexId(trg),
            Label(l),
            Interval::new(ts, exp),
        )
    }

    /// Both join orders over one spec and its stores: every case that
    /// takes them pins the hash-join tree and the generic join to the same
    /// output.
    fn both(spec: CompiledPattern, suppress: bool) -> [Solo; 2] {
        [PatternImpl::HashTree, PatternImpl::Wcoj]
            .map(|order| Solo::new(spec.clone(), suppress, order))
    }

    /// Two-input join: d(x, z) ← a(x, y), b(y, z).
    fn two_way(suppress: bool) -> [Solo; 2] {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            Label(9),
        );
        both(spec, suppress)
    }

    /// Feeds `(port, delta, now)` inputs in order; returns the emissions.
    fn feed(op: &mut dyn PhysicalOp, inputs: Vec<(usize, Delta, u64)>) -> Vec<Delta> {
        let mut out = Vec::new();
        for (port, delta, now) in inputs {
            push_one(op, port, delta, now, &mut out);
        }
        out
    }

    fn ins(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Delta {
        Delta::Insert(sgt(src, trg, l, ts, exp))
    }

    fn inserts(out: &[Delta]) -> Vec<(u64, u64, Interval)> {
        out.iter()
            .filter(|d| !d.is_delete())
            .map(|d| {
                let s = d.sgt();
                (s.src.0, s.trg.0, s.interval)
            })
            .collect()
    }

    #[test]
    fn compile_assigns_shared_classes() {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            Label(9),
        );
        let (a_s, a_t) = spec.input_vars[0];
        let (b_s, b_t) = spec.input_vars[1];
        assert_eq!(a_t, b_s);
        assert_ne!(a_s, b_t);
        assert_eq!(spec.output, (a_s, b_t));
    }

    #[test]
    fn symmetric_join_both_arrival_orders() {
        for mut op in two_way(true) {
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert!(out.is_empty(), "{}", op.name());
            let out = feed(&mut op, vec![(1, ins(2, 3, 1, 2, 12), 2)]);
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(2, 10))]);
        }
        // Reverse order in fresh operators.
        for mut op in two_way(true) {
            let out = feed(
                &mut op,
                vec![(1, ins(2, 3, 1, 2, 12), 2), (0, ins(1, 2, 0, 0, 10), 3)],
            );
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(2, 10))]);
        }
    }

    #[test]
    fn disjoint_intervals_do_not_join() {
        for mut op in two_way(true) {
            let out = feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 5), 0), (1, ins(2, 3, 1, 7, 12), 7)],
            );
            assert!(
                out.is_empty(),
                "{}: validity intervals must intersect (Def. 19)",
                op.name()
            );
        }
    }

    #[test]
    fn covered_duplicate_is_suppressed() {
        for mut op in two_way(true) {
            let out = feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            assert_eq!(out.len(), 1, "{}", op.name());
            // Same edge again with a covered validity: no output, no state
            // blowup.
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 3, 8), 3)]);
            assert!(out.is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn extension_bounded_by_partner_is_suppressed() {
        for mut op in two_way(true) {
            feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            // Re-insert of `a` with a longer validity — but the result is
            // still capped by `b`'s [0,10), which was already emitted.
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 5, 20), 5)]);
            assert!(out.is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn interval_extension_reemits_coalesced() {
        for mut op in two_way(true) {
            feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 30), 0)],
            );
            // `b` is valid until 30, so extending `a` extends the result;
            // the emission carries the coalesced interval (Def. 11).
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 5, 20), 5)]);
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(0, 20))]);
        }
    }

    #[test]
    fn example6_triangle() {
        // recentLiker: RL(u1, u2) ← likes(u1, m1), posts(u2, m1), FP(u1, u2)
        // with Φ = (trg1 = trg2 ∧ src1 = src3 ∧ src2 = trg3).
        let spec = CompiledPattern::compile(
            3,
            &[
                (Pos::trg(0), Pos::trg(1)),
                (Pos::src(0), Pos::src(2)),
                (Pos::src(1), Pos::trg(2)),
            ],
            (Pos::src(0), Pos::src(1)),
            Label(10),
        );
        for mut op in both(spec, true) {
            // Vertices: u=0, v=1, b=2, y=3, c=4, a=5 (Figure 3 with 24h
            // window).
            // likes (label 0): (y,a)@[28,52), (u,b)@[29,53), (u,c)@[30,54)
            // posts (label 1): (v,b)@[10,34), (v,c)@[17,41), (u,a)@[22,46)
            // FP    (label 2): follows path (u,v)@[7,31), (y,u)@[13,37),
            //                  (y,v)@[13,31) (two-hop path).
            let out = feed(
                &mut op,
                vec![
                    (1, ins(1, 2, 1, 10, 34), 0),
                    (2, ins(0, 1, 2, 7, 31), 0),
                    (2, ins(3, 0, 2, 13, 37), 0),
                    (2, ins(3, 1, 2, 13, 31), 0),
                    (1, ins(1, 4, 1, 17, 41), 0),
                    (1, ins(0, 5, 1, 22, 46), 0),
                    (0, ins(3, 5, 0, 28, 52), 0),
                    (0, ins(0, 2, 0, 29, 53), 0),
                    (0, ins(0, 4, 0, 30, 54), 0),
                ],
            );
            // Example 6 expects (y,RL,u)@[28,37) and (u,RL,v)@[29,31) after
            // coalescing the two (u,v) derivations [29,31) and [30,31).
            let res = inserts(&out);
            assert!(res.contains(&(3, 0, Interval::new(28, 37))), "{res:?}");
            assert!(res.contains(&(0, 1, Interval::new(29, 31))), "{res:?}");
            // The second (u,v) derivation [30,31) is covered ⇒ suppressed.
            assert_eq!(res.len(), 2, "{}: {res:?}", op.name());
        }
    }

    #[test]
    fn negative_tuple_cancels_result() {
        // Suppression off, as in deletion pipelines.
        for mut op in two_way(false) {
            let out = feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            assert_eq!(inserts(&out).len(), 1, "{}", op.name());
            let out = feed(&mut op, vec![(0, Delta::Delete(sgt(1, 2, 0, 0, 10)), 5)]);
            assert_eq!(out.len(), 1, "{}", op.name());
            assert!(out[0].is_delete());
            assert_eq!(out[0].sgt().src, VertexId(1));
            assert_eq!(out[0].sgt().trg, VertexId(3));
        }
    }

    #[test]
    fn purge_reclaims_expired_state() {
        for mut op in two_way(true) {
            feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(5, 6, 1, 0, 10), 0)],
            );
            assert_eq!(op.state_size(), 2, "{}", op.name());
            op.purge(10, &mut Vec::new());
            assert_eq!(op.state_size(), 0, "{}", op.name());
        }
    }

    #[test]
    fn single_input_projection() {
        // d(y, x) ← a(x, y): swap endpoints via a 1-input pattern.
        let spec = CompiledPattern::compile(1, &[], (Pos::trg(0), Pos::src(0)), Label(9));
        for mut op in both(spec, true) {
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert_eq!(inserts(&out), vec![(2, 1, Interval::new(0, 10))]);
        }
    }

    #[test]
    fn self_loop_constraint() {
        // d(x, x) ← a(x, x).
        let spec = CompiledPattern::compile(
            1,
            &[(Pos::src(0), Pos::trg(0))],
            (Pos::src(0), Pos::trg(0)),
            Label(9),
        );
        for mut op in both(spec, true) {
            let out = feed(&mut op, vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert!(out.is_empty(), "{}", op.name());
            let out = feed(&mut op, vec![(0, ins(3, 3, 0, 0, 10), 0)]);
            assert_eq!(inserts(&out), vec![(3, 3, Interval::new(0, 10))]);
        }
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        // d(x, w) ← a(x, y), b(z, w): no join key.
        let spec = CompiledPattern::compile(2, &[], (Pos::src(0), Pos::trg(1)), Label(9));
        for mut op in both(spec, true) {
            let out = feed(
                &mut op,
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(7, 8, 1, 0, 10), 0)],
            );
            assert_eq!(inserts(&out), vec![(1, 8, Interval::new(0, 10))]);
        }
    }

    /// `d(x, y) ← a(x, y), b(x, y), c(x, y)`: stage 1's left table holds
    /// the bindings `a` and `b` share, keyed on the whole row, so a
    /// collision of row hashes is a collision of key hashes too.
    fn same_pair(suppress: bool) -> Solo {
        let spec = CompiledPattern::compile(
            3,
            &[
                (Pos::src(0), Pos::src(1)),
                (Pos::trg(0), Pos::trg(1)),
                (Pos::src(0), Pos::src(2)),
                (Pos::trg(0), Pos::trg(2)),
            ],
            (Pos::src(0), Pos::trg(0)),
            Label(9),
        );
        Solo::new(spec, suppress, PatternImpl::HashTree)
    }

    fn census(op: &Solo) -> PatternCensus {
        op.op.pattern_census().expect("a PATTERN has a census")
    }

    fn pairs(out: &[Delta]) -> Vec<(bool, u64, u64, Interval)> {
        out.iter()
            .map(|d| {
                let s = d.sgt();
                (d.is_delete(), s.src.0, s.trg.0, s.interval)
            })
            .collect()
    }

    #[test]
    fn bindings_with_equal_fx_hashes_stay_distinct_rows() {
        // One Fx step is `h' = (rotl(h, 5) ^ w) · K` with K odd, so two
        // 2-word rows hash alike iff `rotl(a0·K, 5) ^ a1 == rotl(b0·K, 5) ^
        // b1`: pick `b0`, solve for `b1`.
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let (a0, a1, b0) = (3u64, 4u64, 5u64);
        let b1 = (a0.wrapping_mul(K)).rotate_left(5) ^ a1 ^ (b0.wrapping_mul(K)).rotate_left(5);
        let (a, b) = ([VertexId(a0), VertexId(a1)], [VertexId(b0), VertexId(b1)]);
        assert_eq!(hash_vals(a), hash_vals(b), "constructed collision");
        assert_ne!(a, b);

        let mut op = same_pair(false);
        let out = feed(
            &mut op,
            vec![
                (0, ins(a0, a1, 0, 0, 10), 0),
                (0, ins(b0, b1, 0, 0, 20), 0),
                (1, ins(a0, a1, 1, 0, 10), 0),
                (1, ins(b0, b1, 1, 0, 20), 0),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        let c = census(&op);
        assert_eq!(
            (c.rows, c.keys, c.empty_rows, c.leaf_rows),
            (2, 2, 0, 0),
            "{c:?}"
        );
        // Probed: each binding meets only itself.
        let out = feed(
            &mut op,
            vec![(2, ins(a0, a1, 2, 0, 10), 0), (2, ins(b0, b1, 2, 5, 20), 5)],
        );
        assert_eq!(
            pairs(&out),
            vec![
                (false, a0, a1, Interval::new(0, 10)),
                (false, b0, b1, Interval::new(5, 20)),
            ]
        );
        // Coalesced: a binding met again lands in its own row.
        let out = feed(&mut op, vec![(1, ins(a0, a1, 1, 5, 15), 5)]);
        assert_eq!(pairs(&out), vec![(false, a0, a1, Interval::new(5, 10))]);
        assert_eq!(census(&op).rows, 2);
        // A negative tuple on `b` retracts b's result and frees b's row only.
        let out = feed(&mut op, vec![(0, Delta::Delete(sgt(b0, b1, 0, 0, 20)), 6)]);
        assert_eq!(pairs(&out), vec![(true, b0, b1, Interval::new(5, 20))]);
        let c = census(&op);
        assert_eq!((c.rows, c.keys, c.row_slots), (1, 1, 2), "{c:?}");
        let out = feed(&mut op, vec![(2, ins(a0, a1, 2, 6, 30), 6)]);
        assert_eq!(pairs(&out), vec![(false, a0, a1, Interval::new(6, 10))]);
        // Purged: a's row expires at 10.
        op.purge(10, &mut Vec::new());
        assert_eq!((census(&op).rows, op.op.state_size()), (0, 0));
        op.purge(30, &mut Vec::new());
        let c = census(&op);
        assert_eq!((c.rows, c.keys, c.expiry_handles), (0, 0, 0), "{c:?}");
    }

    #[test]
    fn equal_live_content_emits_equal_sequences_whatever_the_slot_history() {
        for order in [PatternImpl::HashTree, PatternImpl::Wcoj] {
            equal_live_content_emits_equal_sequences(order);
        }
    }

    fn equal_live_content_emits_equal_sequences(order: PatternImpl) {
        // `fresh` has only ever held the live rows; `recycled` held and
        // purged others first, so the same rows sit in other slots.
        let [mut fresh, mut recycled] = [0, 1].map(|_| {
            let spec = CompiledPattern::compile(
                2,
                &[(Pos::trg(0), Pos::src(1))],
                (Pos::src(0), Pos::trg(1)),
                Label(9),
            );
            Solo::new(spec, true, order)
        });
        for (i, x) in [7u64, 1, 4, 9, 2].into_iter().enumerate() {
            let exp = 10 + 10 * (i as u64 % 2);
            feed(&mut recycled, vec![(0, ins(x, 50 + x % 2, 0, 0, exp), 0)]);
        }
        recycled.purge(10, &mut Vec::new());
        recycled.purge(20, &mut Vec::new());
        assert_eq!(recycled.state_size(), 0);
        assert_eq!(recycled.stores[0].census().row_slots, 5);

        let live: Vec<_> = [3u64, 8, 5, 1, 6, 2]
            .into_iter()
            .map(|x| (0, ins(x, 77, 0, 20, 40), 20))
            .collect();
        let probe = vec![(1, ins(77, 99, 1, 21, 40), 21)];
        let mut outs = Vec::new();
        for op in [&mut fresh, &mut recycled] {
            feed(op, live.clone());
            outs.push(pairs(&feed(op, probe.clone())));
        }
        assert_eq!(outs[0], outs[1]);
        // A probe meets its key's rows in the order they arrived.
        let srcs: Vec<u64> = outs[0].iter().map(|&(_, s, _, _)| s).collect();
        assert_eq!(srcs, vec![3, 8, 5, 1, 6, 2]);
    }

    /// Five inserts that join one partner, then negative tuples for them
    /// and for as many bindings never stored on the left (which still
    /// retract their join with the partner) and ten never stored on the
    /// right (which meet nothing): ten retractions, five of pairs never
    /// emitted. Suppression off, as in deletion pipelines.
    fn retractions() -> [Vec<(usize, Delta, u64)>; 2] {
        let inserts = (0..5u64)
            .map(|k| (0, ins(k, 100, 0, 0, 30), 0))
            .chain([(1, ins(100, 7, 1, 0, 30), 0)])
            .collect();
        let deletes = (0..10u64)
            .flat_map(|k| {
                [
                    (0, Delta::Delete(sgt(k, 100, 0, 0, 30)), 1),
                    (1, Delta::Delete(sgt(200 + k, k, 1, 0, 30)), 1),
                ]
            })
            .collect();
        [inserts, deletes]
    }

    #[test]
    fn negative_tuples_leave_no_dedup_pairs_without_suppression() {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            Label(9),
        );
        for mut op in both(spec, false) {
            let [inserts, deletes] = retractions();
            assert_eq!(feed(&mut op, inserts).len(), 5, "{}", op.name());
            let out = feed(&mut op, deletes);
            assert!(out.iter().all(Delta::is_delete));
            assert_eq!(out.len(), 10, "{}", op.name());
            // Before any purge: no retraction left a slot behind.
            let c = census(&op);
            assert_eq!(
                (c.dedup_pairs, c.rows, op.stores[1].size()),
                (0, 0, 1),
                "{}: {c:?}",
                op.name()
            );
        }
    }

    #[test]
    fn four_clique_path_pattern() {
        // d(x, w) ← a(x, y), a(y, z), a(z, w), a(w, x): a 4-cycle; the
        // generic join binds intermediate variables in both directions.
        let spec = CompiledPattern::compile(
            4,
            &[
                (Pos::trg(0), Pos::src(1)),
                (Pos::trg(1), Pos::src(2)),
                (Pos::trg(2), Pos::src(3)),
                (Pos::trg(3), Pos::src(0)),
            ],
            (Pos::src(0), Pos::trg(2)),
            Label(9),
        );
        for mut op in both(spec, true) {
            // Cycle 1 → 2 → 3 → 4 → 1, closing edge last.
            let out = feed(
                &mut op,
                vec![
                    (0, ins(1, 2, 0, 0, 10), 0),
                    (1, ins(2, 3, 1, 0, 10), 0),
                    (2, ins(3, 4, 2, 0, 10), 0),
                ],
            );
            assert!(out.is_empty(), "{}", op.name());
            let out = feed(&mut op, vec![(3, ins(4, 1, 3, 0, 10), 0)]);
            // One edge per port, so exactly one result.
            assert_eq!(inserts(&out), vec![(1, 4, Interval::new(0, 10))]);
        }
    }
}
