//! S-PATH (§6.2.4): the direct-approach physical PATH operator.
//!
//! S-PATH maintains the Δ-PATH spanning forest under arrivals with two
//! primitives (Algorithms Expand and Propagate) and exploits validity
//! intervals so that *window expirations need no processing at all*: a
//! node whose expiry timestamp has passed is simply ignored and reclaimed
//! by a background purge. Each node materialises the max-expiry path
//! segment, so an expired node proves no alternative valid path exists
//! (the guarantee of Def. 22).
//!
//! Explicit deletions (§6.2.5) disconnect spanning-tree edges; affected
//! subtrees are re-derived with the shared maximin-expiry Dijkstra of
//! [`super::rederive`], and invalidated results are emitted as negative
//! tuples.
//!
//! The operator owns its forest only. The window graph it walks is the
//! [`EdgeStore`](super::adjacency::EdgeStore)s of its inputs, which the
//! dataflow loads once per epoch and shares with every other S-PATH over
//! the same input; the dataflow calls [`SPathOp::insert_pass`] and
//! [`SPathOp::delete`] with them.

use super::adjacency::{EpochLoad, WindowGraph};
use super::forest::{Forest, NodeIdx, TreeId};
use super::rederive::{rederive_in, RederiveScratch, RevDfa};
use super::{Delta, DeltaBatch, PathCensus, PhysicalOp};
use crate::obs::FrontierStats;
use sgq_automata::{Dfa, Regex, StateId};
use sgq_types::{Edge, FxHashSet, Interval, Label, Payload, Sgt, Timestamp, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The S-PATH physical operator for `P^d_R`.
pub struct SPathOp {
    dfa: Dfa,
    rev: RevDfa,
    label: Label,
    forest: Forest,
    /// Materialise full path payloads (R3). When false, results carry the
    /// derived edge `(root, v, label)` itself, as PATTERN and UNION
    /// results do — the path-materialisation ablation, and every host
    /// that forwards answer pairs only.
    emit_paths: bool,
    /// Retract an improved node's earlier claim before emitting the new
    /// one: on hosts without duplicate suppression every claim counts, so
    /// the narrower one would otherwise outlive the node's last
    /// derivation under explicit deletions.
    retract: bool,
    /// Accepting nodes improved during the current insert run, in
    /// first-improvement order (kept ordered for deterministic output),
    /// each with its unexpired interval before the run. They are emitted
    /// when the run ends, so a node improved several times within one run
    /// emits **once**, with its final coalesced interval (and one path
    /// materialisation).
    dirty: Vec<(TreeId, NodeIdx, Option<Interval>)>,
    dirty_set: FxHashSet<(TreeId, NodeIdx)>,
    /// The bulk pass's priority frontier (max candidate expiry, ties on
    /// larger span then `(node, edge)` for determinism).
    frontier: BinaryHeap<BulkCand>,
    /// Nodes already settled by the current per-tree pass (stats only —
    /// settle-once is enforced by the monotone heap order).
    settled: FxHashSet<NodeIdx>,
    /// Seed candidates of the current insert run, grouped by tree.
    seeds: Vec<(TreeId, BulkCand)>,
    /// Scratch for deletion-triggered re-derivation passes.
    rescratch: RederiveScratch,
    /// The trees one deletion disconnects, in root-vertex order.
    cut: Vec<(VertexId, TreeId, NodeIdx)>,
    /// Always-on traversal counters (see [`FrontierStats`]).
    stats: FrontierStats,
}

/// A bulk-pass candidate: a potential derivation of `(v, state)` through
/// `edge` from parent node `parent`, with the derived interval computed at
/// push time. Parents only *widen* after a candidate is pushed (settling
/// is monotone), and every widening re-scans its successors, so a
/// stale-narrow candidate is sound — the wider derivation arrives as a
/// fresh candidate.
#[derive(Clone, Debug)]
struct BulkCand {
    iv: Interval,
    parent: NodeIdx,
    v: VertexId,
    state: StateId,
    edge: Edge,
}

impl PartialEq for BulkCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for BulkCand {}
impl PartialOrd for BulkCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BulkCand {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap keyed on candidate expiry (monotone maximin order),
        // ties on larger span, then `(node, edge)` so the pop sequence is
        // a pure function of the candidate set.
        self.iv
            .exp
            .cmp(&other.iv.exp)
            .then_with(|| other.iv.ts.cmp(&self.iv.ts))
            .then_with(|| other.v.cmp(&self.v))
            .then_with(|| other.state.cmp(&self.state))
            .then_with(|| other.edge.cmp(&self.edge))
    }
}

impl SPathOp {
    /// Builds the operator from the PATH operator's regex (`ConstructDFA`,
    /// Algorithm S-PATH line 1).
    pub fn new(regex: &Regex, label: Label) -> Self {
        // Start-separated so cycle results never collide with tree roots.
        let dfa = Dfa::from_regex(regex).start_separated();
        let rev = RevDfa::build(&dfa);
        let forest = Forest::new(dfa.start());
        SPathOp {
            dfa,
            rev,
            label,
            forest,
            emit_paths: true,
            retract: false,
            dirty: Vec::new(),
            dirty_set: FxHashSet::default(),
            frontier: BinaryHeap::new(),
            settled: FxHashSet::default(),
            seeds: Vec::new(),
            rescratch: RederiveScratch::default(),
            cut: Vec::new(),
            stats: FrontierStats::default(),
        }
    }

    /// Disables path-payload materialisation (ablation).
    pub fn without_path_payloads(mut self) -> Self {
        self.emit_paths = false;
        self
    }

    /// Retracts each improved node's earlier claim (a negative tuple)
    /// before emitting the improved one when `retract` is set: what a
    /// host without duplicate suppression needs.
    pub fn retracting(mut self, retract: bool) -> Self {
        self.retract = retract;
        self
    }

    /// Read access to the Δ-PATH forest (used by tests to check the tree
    /// states of Examples 9 and 10).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    fn emit(&self, tree: TreeId, node: NodeIdx, out: &mut Vec<Delta>) {
        let t = self.forest.tree(tree);
        let n = t.node(node);
        let payload = if self.emit_paths {
            Payload::Path(t.path_to(node))
        } else {
            Payload::Edge(Edge::new(t.root, n.v, self.label))
        };
        out.push(Delta::Insert(Sgt::with_payload(
            t.root, n.v, self.label, n.interval, payload,
        )));
    }

    /// Records an accepting-node improvement of the current insert run,
    /// and the first time the run touches the node its unexpired interval
    /// before the run (`before`); [`SPathOp::flush_dirty`] emits it when
    /// the run ends.
    ///
    /// Emitting once per run is sound because within an epoch a node's
    /// interval only grows by coalescing (Propagate merges `[min ts, max
    /// exp)` of meeting intervals), so the final emission covers every
    /// intermediate claim — and in-epoch intervals cannot expire (window
    /// expiries are slide-grid-aligned and epochs never cross a boundary).
    /// Dirty nodes are never removed mid-run: `remove_subtree` only claims
    /// expired nodes, and an improved node's expiry lies beyond the epoch.
    fn mark_dirty(&mut self, tree: TreeId, node: NodeIdx, before: Option<Interval>) {
        if self.dirty_set.insert((tree, node)) {
            self.dirty.push((tree, node, before));
        }
    }

    /// Emits every node the insert run improved once, with its final
    /// interval — when retracting, after a negative tuple for the claim
    /// it replaces.
    fn flush_dirty(&mut self, out: &mut Vec<Delta>) {
        for i in 0..self.dirty.len() {
            let (tree, node, before) = self.dirty[i];
            let t = self.forest.tree(tree);
            let n = t.node(node);
            match before {
                Some(old) if self.retract && old != n.interval => {
                    out.push(Delta::Delete(Sgt::edge(t.root, n.v, self.label, old)));
                }
                _ => {}
            }
            self.emit(tree, node, out);
        }
        self.dirty.clear();
        self.dirty_set.clear();
    }

    /// Frontier-at-once execution of one epoch's inserts, after the
    /// stores of `graph` have loaded them: (1) trees for the
    /// start-transition edges of every load; (2) one max-expiry priority
    /// frontier per affected tree, seeded from all loaded edges incident to
    /// current tree nodes; (3) one monotone maximin-Dijkstra pass per tree,
    /// settling each product-graph node at most once per epoch at its final
    /// (widest) expiry; (4) each improved accepting node emitted once.
    /// `loads` are the [`EpochLoad`]s of the inputs that published this
    /// epoch, in arrival order; a load of one edge is the paper's
    /// Expand/Propagate for that edge.
    ///
    /// The result does not depend on where a stream is cut into epochs or
    /// how an epoch's edges are split among inputs: within one epoch every
    /// window-assigned interval shares the same grid-aligned expiry, and a
    /// node's canonical interval is the least fixpoint of the merge lattice
    /// (min ts over meeting derivations, max exp — the ts-widening arm of
    /// `SPathOp::bulk_expand_tree`), which the tests hold against the
    /// paper's per-tuple algorithm.
    pub fn insert_pass<'l>(
        &mut self,
        graph: &impl WindowGraph,
        loads: impl Iterator<Item = &'l EpochLoad> + Clone,
        now: Timestamp,
        out: &mut Vec<Delta>,
    ) {
        // (1) Trees for start-transition edges, before any seeding, so
        // the probe below finds them. Which slot a tree gets (a recycled
        // one if any) shows in nothing the operator emits.
        for &(edge, _) in loads.clone().flat_map(EpochLoad::edges) {
            if self
                .dfa
                .transitions_on(edge.label)
                .iter()
                .any(|&(f, _)| f == self.dfa.start())
            {
                self.forest.ensure_tree(edge.src);
            }
        }

        // (2) Seed: every loaded edge incident to a current tree node is a
        // candidate extension of that tree. Nodes the epoch creates deeper
        // in a tree need no seeds — the traversal discovers their epoch
        // edges in its successor scans over the complete window graph.
        let mut seeds = std::mem::take(&mut self.seeds);
        seeds.clear();
        for &(edge, stored) in loads.flat_map(EpochLoad::edges) {
            for &(from, to) in self.dfa.transitions_on(edge.label) {
                for (tree, parent) in self.forest.trees_with(edge.src, from) {
                    let iv = self
                        .forest
                        .tree(tree)
                        .node(parent)
                        .interval
                        .intersect(&stored);
                    if iv.is_empty() || iv.expired_at(now) {
                        continue;
                    }
                    seeds.push((
                        tree,
                        BulkCand {
                            iv,
                            parent,
                            v: edge.trg,
                            state: to,
                            edge,
                        },
                    ));
                }
            }
        }
        // Trees in root-vertex order — a function of the input alone,
        // whichever recycled slot a tree sits in; the stable sort keeps
        // each tree's seeds in arrival order.
        seeds.sort_by_key(|&(t, _)| self.forest.tree(t).root);
        let mut i = 0;
        while i < seeds.len() {
            let tree = seeds[i].0;
            let mut j = i + 1;
            while j < seeds.len() && seeds[j].0 == tree {
                j += 1;
            }
            self.bulk_expand_tree(graph, tree, &seeds[i..j], now);
            i = j;
        }
        seeds.clear();
        self.seeds = seeds;
        self.flush_dirty(out);
    }

    /// One monotone maximin-Dijkstra pass over `tree`: candidates pop in
    /// decreasing-expiry order, so a node's expiry settles at most once
    /// per epoch; equal-or-smaller-expiry follow-ups can still widen its
    /// ts leftwards (coalescing), which cascades without reparenting.
    fn bulk_expand_tree(
        &mut self,
        graph: &impl WindowGraph,
        tree: TreeId,
        seeds: &[(TreeId, BulkCand)],
        now: Timestamp,
    ) {
        let mut heap = std::mem::take(&mut self.frontier);
        let mut settled = std::mem::take(&mut self.settled);
        heap.clear();
        settled.clear();
        for (_, c) in seeds {
            self.stats.heap_pushes += 1;
            heap.push(c.clone());
        }
        while let Some(c) = heap.pop() {
            // Re-validate against the node's *current* interval — it may
            // have settled (or widened) since this candidate was pushed.
            let existing = self.forest.tree(tree).get(c.v, c.state);
            let cur = existing.map(|idx| self.forest.tree(tree).node(idx).interval);
            let before = cur.filter(|cur| !cur.expired_at(now));
            let applied = match existing.zip(cur) {
                Some((idx, cur)) => {
                    if cur.expired_at(now) {
                        // Expired nodes are treated as absent (§6.2.4):
                        // reclaim the stale subtree, then expand fresh.
                        self.forest.remove_subtree(tree, idx);
                        Some(self.forest.insert_child(
                            tree,
                            c.parent,
                            c.v,
                            c.state,
                            c.edge.label,
                            c.iv,
                        ))
                    } else if c.iv.exp > cur.exp {
                        // Settle: Propagate with the final expiry.
                        let merged = if cur.meets(&c.iv) {
                            Interval::new(cur.ts.min(c.iv.ts), c.iv.exp)
                        } else {
                            c.iv
                        };
                        self.forest.set_interval(tree, idx, merged);
                        self.forest.reparent(tree, idx, c.parent, c.edge.label);
                        Some(idx)
                    } else if cur.meets(&c.iv) && c.iv.ts < cur.ts {
                        // ts-widen only: the settled max-expiry derivation
                        // stays (no reparent); the coalesced claim grows
                        // leftwards and cascades to successors.
                        self.forest
                            .set_interval(tree, idx, Interval::new(c.iv.ts, cur.exp));
                        Some(idx)
                    } else {
                        None // no improvement — prune (line 18)
                    }
                }
                // Expand.
                None => {
                    Some(
                        self.forest
                            .insert_child(tree, c.parent, c.v, c.state, c.edge.label, c.iv),
                    )
                }
            };
            let Some(idx) = applied else {
                continue;
            };
            self.stats.nodes_improved += 1;
            if settled.insert(idx) {
                self.stats.nodes_settled += 1;
            }
            if self.dfa.is_accepting(c.state) {
                self.mark_dirty(tree, idx, before);
            }
            // Successor scan over the complete epoch graph.
            let node_iv = self.forest.tree(tree).node(idx).interval;
            for (l2, q) in self.dfa.transitions_from(c.state) {
                for entry in graph.out(c.v, l2) {
                    self.stats.edges_scanned += 1;
                    let iv = node_iv.intersect(&entry.interval);
                    if iv.is_empty() || iv.expired_at(now) {
                        continue;
                    }
                    // Push-time prune against the target's current claim
                    // (pure optimisation — the pop re-validates).
                    if let Some(tgt) = self.forest.tree(tree).get(entry.other, q) {
                        let tcur = self.forest.tree(tree).node(tgt).interval;
                        if !tcur.expired_at(now)
                            && iv.exp <= tcur.exp
                            && !(tcur.meets(&iv) && iv.ts < tcur.ts)
                        {
                            continue;
                        }
                    }
                    self.stats.heap_pushes += 1;
                    heap.push(BulkCand {
                        iv,
                        parent: idx,
                        v: entry.other,
                        state: q,
                        edge: Edge::new(c.v, entry.other, l2),
                    });
                }
            }
        }
        settled.clear();
        self.frontier = heap;
        self.settled = settled;
    }

    /// Explicit deletion (§6.2.5), after the input's store has removed
    /// `s`: disconnect affected tree edges and re-derive with the maximin
    /// Dijkstra over `graph`; emit negative tuples for lost results and
    /// refreshed tuples for re-derived ones.
    pub fn delete(
        &mut self,
        graph: &impl WindowGraph,
        s: &Sgt,
        now: Timestamp,
        out: &mut Vec<Delta>,
    ) {
        let (u, v, l) = (s.src, s.trg, s.label);
        let edge = Edge::new(u, v, l);
        // The trees whose node at `v` hangs on this edge (anywhere else it
        // is a non-tree edge — no structural change), in root-vertex
        // order. Trees re-derive independently, so the list is complete
        // before the first pass.
        let mut cut = std::mem::take(&mut self.cut);
        for &(_, to) in self.dfa.transitions_on(l) {
            cut.clear();
            cut.extend(self.forest.trees_with(v, to).filter_map(|(tree, idx)| {
                let t = self.forest.tree(tree);
                (t.edge(idx) == Some(edge)).then_some((t.root, tree, idx))
            }));
            cut.sort_unstable();
            for &(_, tree, idx) in &cut {
                let changes = rederive_in(
                    &mut self.rescratch,
                    &mut self.stats,
                    &mut self.forest,
                    tree,
                    &[idx],
                    graph,
                    &self.dfa,
                    &self.rev,
                    now,
                );
                let root = self.forest.tree(tree).root;
                for ch in changes {
                    if !self.dfa.is_accepting(ch.state) {
                        continue;
                    }
                    match ch.new_interval {
                        None => out.push(Delta::Delete(Sgt::edge(
                            root,
                            ch.v,
                            self.label,
                            ch.old_interval,
                        ))),
                        Some(niv) if niv != ch.old_interval => {
                            out.push(Delta::Delete(Sgt::edge(
                                root,
                                ch.v,
                                self.label,
                                ch.old_interval,
                            )));
                            let nidx = self
                                .forest
                                .tree(tree)
                                .get(ch.v, ch.state)
                                .expect("re-derived node exists");
                            self.emit(tree, nidx, out);
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        self.cut = cut;
    }
}

impl PhysicalOp for SPathOp {
    fn name(&self) -> String {
        format!("S-PATH[→{:?}]", self.label)
    }

    /// Never called: the dataflow drives S-PATH through
    /// [`PhysicalOp::as_spath_mut`], with the edge stores of its inputs.
    fn on_batch(&mut self, _port: usize, _batch: &DeltaBatch, _now: Timestamp, _: &mut DeltaBatch) {
        unreachable!("S-PATH reads its input from edge stores (PhysicalOp::as_spath_mut)")
    }

    /// Direct approach: expired nodes are dropped with no traversal or
    /// re-derivation (the whole point of S-PATH vs. \[57\]); the input
    /// stores are purged by the dataflow.
    fn purge(&mut self, watermark: Timestamp, _out: &mut Vec<Delta>) {
        self.forest.purge(watermark);
    }

    fn state_size(&self) -> usize {
        self.forest.size()
    }

    fn frontier_stats(&self) -> Option<FrontierStats> {
        Some(self.stats)
    }

    fn path_census(&self) -> Option<PathCensus> {
        Some(PathCensus {
            forest: self.forest.census(),
            adjacency: None,
        })
    }

    fn as_spath_mut(&mut self) -> Option<&mut SPathOp> {
        Some(self)
    }
}

/// Test harness: an S-PATH and one edge store holding all of its input,
/// driven the way the dataflow drives a store and its reader.
#[cfg(test)]
pub(crate) struct Solo {
    pub(crate) op: SPathOp,
    pub(crate) store: super::adjacency::EdgeStore,
}

#[cfg(test)]
impl Solo {
    pub(crate) fn new(regex: &Regex, label: Label) -> Solo {
        Solo {
            op: SPathOp::new(regex, label),
            store: super::adjacency::EdgeStore::new(Label(0)),
        }
    }

    pub(crate) fn forest(&self) -> &Forest {
        self.op.forest()
    }
}

#[cfg(test)]
impl PhysicalOp for Solo {
    fn name(&self) -> String {
        self.op.name()
    }

    fn on_batch(&mut self, _port: usize, batch: &DeltaBatch, now: Timestamp, out: &mut DeltaBatch) {
        use super::adjacency::{runs, Run};
        let out = out.as_mut_vec();
        for run in runs(batch.as_slice()) {
            match run {
                Run::Inserts(run) => {
                    self.store.load(run);
                    let load = std::iter::once(self.store.epoch_load());
                    self.op.insert_pass(&self.store, load, now, out);
                }
                Run::Delete(s) => {
                    self.store.remove(s);
                    self.op.delete(&self.store, s, now, out);
                }
            }
        }
    }

    fn purge(&mut self, watermark: Timestamp, out: &mut Vec<Delta>) {
        self.store.purge(watermark);
        self.op.purge(watermark, out);
    }

    fn state_size(&self) -> usize {
        self.store.size() + self.op.state_size()
    }

    fn frontier_stats(&self) -> Option<FrontierStats> {
        self.op.frontier_stats()
    }
}

/// Helper used by tests and the negative-tuple operator: a `Change` is
/// re-exported for emission decisions.
pub use super::rederive::Change as PathChange;

#[cfg(test)]
mod tests {
    use super::super::forest::ForestCensus;
    use super::super::push_one;
    use super::*;
    use sgq_automata::Regex;
    use sgq_types::{time::window_interval, IntervalSet};
    use std::collections::BTreeMap;

    /// A pending tree extension (the explicit-stack form of the paper's
    /// recursive Expand/Propagate).
    struct Ext {
        parent: NodeIdx,
        v: VertexId,
        state: StateId,
        edge: Edge,
        edge_iv: Interval,
    }

    /// The paper's per-tuple algorithm as printed (§6.2.4, Algorithms
    /// S-PATH, Expand and Propagate): one depth-first fixpoint per arriving
    /// edge, emitting at every improvement. Nothing outside this module
    /// runs it; it is the reference [`SPathOp::bulk_insert_run`] is
    /// compared against.
    impl Solo {
        fn reference_insert(&mut self, s: &Sgt, now: Timestamp, out: &mut Vec<Delta>) {
            let (u, v, l) = (s.src, s.trg, s.label);
            if self.op.dfa.transitions_on(l).is_empty() {
                return;
            }
            // Adjacency upsert with max-expiry coalescing; a covered
            // re-insert cannot produce new derivations.
            let adj = self.store.adjacency_mut();
            let Some(stored_iv) = adj.insert(u, l, v, s.interval) else {
                return;
            };
            let transitions: Vec<(StateId, StateId)> = self.op.dfa.transitions_on(l).to_vec();
            for (from, to) in transitions {
                if from == self.op.dfa.start() {
                    // Lines 7–8: make sure T_u exists so the probe finds it.
                    self.op.forest.ensure_tree(u);
                }
                // Lines 14–19: every tree containing (u, from) can extend.
                for (tree, parent) in self.op.forest.trees_with(u, from).collect::<Vec<_>>() {
                    self.extend_all(
                        tree,
                        vec![Ext {
                            parent,
                            v,
                            state: to,
                            edge: Edge::new(u, v, l),
                            edge_iv: stored_iv,
                        }],
                        now,
                        out,
                    );
                }
            }
        }

        /// Processes all pending extensions of one tree to fixpoint.
        fn extend_all(
            &mut self,
            tree: TreeId,
            mut stack: Vec<Ext>,
            now: Timestamp,
            out: &mut Vec<Delta>,
        ) {
            while let Some(ext) = stack.pop() {
                let parent_iv = self.op.forest.tree(tree).node(ext.parent).interval;
                let child_iv = parent_iv.intersect(&ext.edge_iv);
                if child_iv.is_empty() || child_iv.expired_at(now) {
                    continue;
                }
                let existing = self.op.forest.tree(tree).get(ext.v, ext.state);
                let node = match existing {
                    Some(idx) => {
                        let cur = self.op.forest.tree(tree).node(idx).interval;
                        if cur.expired_at(now) {
                            // Expired nodes are treated as absent (§6.2.4):
                            // reclaim the stale subtree, then expand fresh.
                            self.op.forest.remove_subtree(tree, idx);
                            self.op.forest.insert_child(
                                tree,
                                ext.parent,
                                ext.v,
                                ext.state,
                                ext.edge.label,
                                child_iv,
                            )
                        } else if child_iv.exp <= cur.exp {
                            // No expiry improvement. A meeting derivation
                            // that starts earlier still widens the coalesced
                            // claim leftwards: the canonical node interval is
                            // the least fixpoint (min ts over meeting
                            // candidates, max exp), which makes the final
                            // tree state independent of arrival order. The
                            // derivation edge is *not* reparented: the
                            // max-expiry segment is unchanged. Anything else:
                            // line 18, prune.
                            if cur.meets(&child_iv) && child_iv.ts < cur.ts {
                                self.op.forest.set_interval(
                                    tree,
                                    idx,
                                    Interval::new(child_iv.ts, cur.exp),
                                );
                                idx
                            } else {
                                continue;
                            }
                        } else {
                            // Propagate: coalesce (min ts, max exp) and
                            // reparent. In append-only streams the live node
                            // always meets the new derivation; after explicit
                            // deletions the intervals may be disjoint, in
                            // which case the new derivation replaces the old
                            // claim (a hull would over-claim the gap).
                            let merged = if cur.meets(&child_iv) {
                                Interval::new(cur.ts.min(child_iv.ts), child_iv.exp)
                            } else {
                                child_iv
                            };
                            self.op.forest.set_interval(tree, idx, merged);
                            self.op
                                .forest
                                .reparent(tree, idx, ext.parent, ext.edge.label);
                            idx
                        }
                    }
                    // Expand: create the node as a child of the parent.
                    None => self.op.forest.insert_child(
                        tree,
                        ext.parent,
                        ext.v,
                        ext.state,
                        ext.edge.label,
                        child_iv,
                    ),
                };
                if self.op.dfa.is_accepting(ext.state) {
                    self.op.emit(tree, node, out);
                }
                // Traverse the snapshot graph onwards (Expand/Propagate
                // lines 8+).
                let node_iv = self.op.forest.tree(tree).node(node).interval;
                for (l2, q) in self.op.dfa.transitions_from(ext.state) {
                    for entry in self.store.out(ext.v, l2) {
                        let e_iv = entry.interval;
                        if node_iv.intersect(&e_iv).is_empty() {
                            continue;
                        }
                        stack.push(Ext {
                            parent: node,
                            v: entry.other,
                            state: q,
                            edge: Edge::new(ext.v, entry.other, l2),
                            edge_iv: e_iv,
                        });
                    }
                }
            }
        }
    }

    impl Solo {
        /// `purge` as it was before the expiry index: walks every tree,
        /// `retain`s both adjacency maps.
        fn purge_by_walk(&mut self, watermark: Timestamp) {
            self.store.adjacency_mut().purge_by_retain(watermark);
            self.op.forest.purge_by_walk(watermark);
        }

        /// `purge` with tree retirement left out (the mutation).
        fn purge_keeping_empty_trees(&mut self, watermark: Timestamp) {
            self.store.purge(watermark);
            self.op.forest.purge_keeping_empty_trees(watermark);
        }
    }

    const RLP: Label = Label(0);

    fn sgt(src: u64, trg: u64, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(VertexId(src), VertexId(trg), RLP, Interval::new(ts, exp))
    }

    fn plus_op() -> Solo {
        Solo::new(&Regex::plus(Regex::label(RLP)), Label(9))
    }

    fn results(out: &[Delta]) -> Vec<(u64, u64, Interval)> {
        out.iter()
            .filter(|d| !d.is_delete())
            .map(|d| {
                let s = d.sgt();
                (s.src.0, s.trg.0, s.interval)
            })
            .collect()
    }

    #[test]
    fn single_edge_result() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 5, 15)), 5, &mut out);
        assert_eq!(results(&out), vec![(1, 2, Interval::new(5, 15))]);
    }

    #[test]
    fn two_hop_path_materialised() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 10)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 3, 2, 12)), 2, &mut out);
        let res = results(&out);
        // (1,2)@[0,10), then (2,3)@[2,12) and (1,3)@[2,10).
        assert!(res.contains(&(1, 3, Interval::new(2, 10))), "{res:?}");
        // The (1,3) result carries the full two-edge path (R3).
        let path_sgt = out
            .iter()
            .map(Delta::sgt)
            .find(|s| s.src == VertexId(1) && s.trg == VertexId(3))
            .unwrap();
        match &path_sgt.payload {
            Payload::Path(p) => {
                assert_eq!(p.len(), 2);
                assert_eq!(p.src(), VertexId(1));
                assert_eq!(p.dst(), VertexId(3));
            }
            other => panic!("expected a path payload, got {other:?}"),
        }
    }

    #[test]
    fn example9_tree_evolution() {
        // Figure 9: streaming graph S_RLP into P_{RL+}; checks the spanning
        // tree T_x at t=27 and t=30 (direct approach).
        // Vertices: x=0, z=1, u=2, y=3, w=4, t=5, v=6, s=7.
        let mut op = plus_op();
        let mut out = Vec::new();
        let feed = |op: &mut Solo, out: &mut Vec<Delta>, s, t, ts, exp| {
            push_one(op, 0, Delta::Insert(sgt(s, t, ts, exp)), ts, out);
        };
        feed(&mut op, &mut out, 0, 1, 23, 31); // x→z
        feed(&mut op, &mut out, 1, 2, 24, 32); // z→u
        feed(&mut op, &mut out, 0, 3, 25, 35); // x→y
        feed(&mut op, &mut out, 3, 4, 26, 33); // y→w
        feed(&mut op, &mut out, 1, 5, 27, 40); // z→t

        // t = 27 (Figure 9b): nodes y[25,35), w[26,33), z[23,31),
        // u[24,31), t[27,31).
        let tx = op.forest().tree_of_root(VertexId(0)).unwrap();
        let tree = op.forest().tree(tx);
        let iv = |v: u64| tree.node(tree.get(VertexId(v), 1).unwrap()).interval;
        assert_eq!(iv(3), Interval::new(25, 35));
        assert_eq!(iv(4), Interval::new(26, 33));
        assert_eq!(iv(1), Interval::new(23, 31));
        assert_eq!(iv(2), Interval::new(24, 31));
        assert_eq!(iv(5), Interval::new(27, 31));

        feed(&mut op, &mut out, 3, 2, 28, 37); // y→u (Propagate improves u)
        feed(&mut op, &mut out, 2, 6, 29, 41); // u→v
        feed(&mut op, &mut out, 2, 7, 30, 38); // u→s
        feed(&mut op, &mut out, 4, 6, 30, 39); // w→v (no improvement: 33<35 keeps v)

        // t = 30 (Figure 9c): u[24→ coalesced ts, 35) via y; children follow.
        let tree = op.forest().tree(tx);
        let iv = |v: u64| tree.node(tree.get(VertexId(v), 1).unwrap()).interval;
        // u merged: ts = min(24, 28) = 24? Paper shows [28,35); our coalesce
        // keeps min-ts 24 from the prior derivation (still-valid interval
        // union) — exp is what matters for the direct approach.
        assert_eq!(iv(2).exp, 35);
        assert_eq!(iv(6), Interval::new(29, 35));
        assert_eq!(iv(7), Interval::new(30, 35));
        // z and t untouched: expire at 31.
        assert_eq!(iv(1), Interval::new(23, 31));
        assert_eq!(iv(5), Interval::new(27, 31));
        // u's parent is now y.
        let u_idx = tree.get(VertexId(2), 1).unwrap();
        let parent_idx = tree.node(u_idx).parent;
        assert_eq!(tree.node(parent_idx).v, VertexId(3));

        // After t = 31, purge drops z and t without any traversal.
        op.purge(31, &mut Vec::new());
        let tree = op.forest().tree(tx);
        assert!(tree.get(VertexId(1), 1).is_none());
        assert!(tree.get(VertexId(5), 1).is_none());
        assert!(tree.get(VertexId(2), 1).is_some());
    }

    #[test]
    fn no_improvement_is_pruned() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 20)), 0, &mut out);
        out.clear();
        // Alternative derivation with smaller expiry: ignored entirely.
        push_one(&mut op, 0, Delta::Insert(sgt(3, 2, 1, 5)), 1, &mut out);
        // Creates T_3 and (3,2) result, but does not touch T_1's node for 2.
        let t1 = op.forest().tree_of_root(VertexId(1)).unwrap();
        let tree = op.forest().tree(t1);
        assert_eq!(
            tree.node(tree.get(VertexId(2), 1).unwrap()).interval,
            Interval::new(0, 20)
        );
    }

    #[test]
    fn cycle_terminates_and_reports_self_pairs() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 10)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 1, 1, 11)), 1, &mut out);
        let res = results(&out);
        assert!(res.contains(&(1, 1, Interval::new(1, 10))), "{res:?}");
        assert!(res.contains(&(2, 2, Interval::new(1, 10))), "{res:?}");
    }

    #[test]
    fn concat_regex_requires_order() {
        // a·b: only paths reading a then b.
        let a = Label(0);
        let b = Label(1);
        let re = Regex::concat(vec![Regex::label(a), Regex::label(b)]);
        let mut op = Solo::new(&re, Label(9));
        let mut out = Vec::new();
        let mk = |s: u64, t: u64, l: Label, ts: u64| {
            Sgt::edge(VertexId(s), VertexId(t), l, Interval::new(ts, ts + 10))
        };
        push_one(&mut op, 0, Delta::Insert(mk(1, 2, a, 0)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(mk(2, 3, b, 1)), 1, &mut out);
        push_one(&mut op, 0, Delta::Insert(mk(3, 4, b, 2)), 2, &mut out);
        let res = results(&out);
        assert_eq!(res, vec![(1, 3, Interval::new(1, 10))]);
    }

    #[test]
    fn explicit_deletion_rederives_alternative() {
        let mut op = plus_op();
        let mut out = Vec::new();
        // Two parallel 2-hop routes 1→2→4 and 1→3→4; tree picks max expiry.
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 30)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 4, 1, 25)), 1, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(1, 3, 2, 40)), 2, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(3, 4, 3, 35)), 3, &mut out);
        out.clear();
        // Node (4,·) in T_1 now has exp 35 via 3. Delete edge 3→4.
        push_one(&mut op, 0, Delta::Delete(sgt(3, 4, 3, 35)), 4, &mut out);
        // Re-derived through 2→4 with exp 25; emits delete+insert for (1,4).
        let t1 = op.forest().tree_of_root(VertexId(1)).unwrap();
        let tree = op.forest().tree(t1);
        let n4 = tree.get(VertexId(4), 1).unwrap();
        assert_eq!(tree.node(n4).interval.exp, 25);
        assert!(out
            .iter()
            .any(|d| d.is_delete() && d.sgt().trg == VertexId(4)));
        assert!(out
            .iter()
            .any(|d| !d.is_delete() && d.sgt().trg == VertexId(4) && d.sgt().interval.exp == 25));
    }

    #[test]
    fn deletion_without_alternative_removes_node() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 30)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 3, 1, 25)), 1, &mut out);
        out.clear();
        push_one(&mut op, 0, Delta::Delete(sgt(1, 2, 0, 30)), 2, &mut out);
        let t1 = op.forest().tree_of_root(VertexId(1)).unwrap();
        let tree = op.forest().tree(t1);
        assert!(tree.get(VertexId(2), 1).is_none());
        assert!(tree.get(VertexId(3), 1).is_none());
        // Negative tuples for both lost results.
        assert_eq!(out.iter().filter(|d| d.is_delete()).count(), 2);
    }

    #[test]
    fn alternation_regex_accepts_either_label() {
        // (a | b)+ over two labels: mixed-label paths qualify.
        let a = Label(0);
        let b = Label(1);
        let re = Regex::plus(Regex::alt(vec![Regex::label(a), Regex::label(b)]));
        let mut op = Solo::new(&re, Label(9));
        let mut out = Vec::new();
        let e = |s: u64, t: u64, l: Label, ts: u64| {
            Sgt::edge(VertexId(s), VertexId(t), l, Interval::new(ts, ts + 50))
        };
        push_one(&mut op, 0, Delta::Insert(e(1, 2, a, 0)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(e(2, 3, b, 1)), 1, &mut out);
        let pairs: Vec<(u64, u64)> = results(&out).iter().map(|&(s, t, _)| (s, t)).collect();
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 3)));
        assert!(pairs.contains(&(1, 3)), "{pairs:?}");
    }

    #[test]
    fn optional_factor_regex() {
        // a b? : both `a` and `a·b` words; a bare `b` is not a result.
        let a = Label(0);
        let b = Label(1);
        let re = Regex::concat(vec![Regex::label(a), Regex::optional(Regex::label(b))]);
        let mut op = Solo::new(&re, Label(9));
        let mut out = Vec::new();
        let e = |s: u64, t: u64, l: Label, ts: u64| {
            Sgt::edge(VertexId(s), VertexId(t), l, Interval::new(ts, ts + 50))
        };
        push_one(&mut op, 0, Delta::Insert(e(5, 6, b, 0)), 0, &mut out);
        assert!(results(&out).is_empty(), "bare b is not in L(a b?)");
        push_one(&mut op, 0, Delta::Insert(e(1, 2, a, 1)), 1, &mut out);
        push_one(&mut op, 0, Delta::Insert(e(2, 3, b, 2)), 2, &mut out);
        let pairs: Vec<(u64, u64)> = results(&out).iter().map(|&(s, t, _)| (s, t)).collect();
        assert_eq!(pairs, vec![(1, 2), (1, 3)]);
    }

    #[test]
    fn self_loop_edge_in_closure() {
        // A self-loop produces the (v, v) pair and composes with others.
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(2, 2, 0, 50)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 1, 40)), 1, &mut out);
        let pairs: Vec<(u64, u64)> = results(&out).iter().map(|&(s, t, _)| (s, t)).collect();
        assert!(pairs.contains(&(2, 2)), "{pairs:?}");
        assert!(pairs.contains(&(1, 2)), "{pairs:?}");
        // 1 →(loop) 2: same pair (1,2); arbitrary-path semantics coalesces.
        assert_eq!(pairs.iter().filter(|&&p| p == (1, 2)).count(), 1);
    }

    #[test]
    fn purge_is_traversal_free_state_cleanup() {
        let mut op = plus_op();
        let mut out = Vec::new();
        for i in 0..50u64 {
            push_one(
                &mut op,
                0,
                Delta::Insert(sgt(i, i + 1, i, i + 20)),
                i,
                &mut out,
            );
        }
        let before = op.state_size();
        op.purge(60, &mut Vec::new());
        assert!(op.state_size() < before);
    }

    #[test]
    fn coalesced_interval_not_arrival_order_determines_emission() {
        // The hand-written case of the differential below: node 4's
        // canonical interval is the least fixpoint of the merge lattice
        // (min ts over meeting derivations, max exp) — NOT a function of
        // which derivation arrived last. Pre-epoch, 2→4@[1,30) offers node
        // 4 (cur [8,20)) no expiry improvement but an earlier meeting ts,
        // so the claim widens to [2,20). The epoch then raises the expiry
        // through BOTH the 1→2→4 chain (exp 30) and the fresh 3→4 edge
        // (exp 36); the reference sees them in arrival order, the frontier
        // pass settles max-expiry-first — both must end at exactly [2,36).
        let pre = [
            sgt(1, 2, 2, 20),
            sgt(1, 3, 9, 30),
            sgt(1, 4, 8, 20),
            sgt(2, 4, 1, 30),
        ];
        let epoch = [sgt(1, 2, 12, 36), sgt(1, 3, 13, 36), sgt(3, 4, 15, 36)];

        let mut reference = plus_op();
        let mut bulk = plus_op();
        let mut r_out = Vec::new();
        let mut b_out = Vec::new();
        for s in &pre {
            reference.reference_insert(s, s.interval.ts, &mut r_out);
            push_one(
                &mut bulk,
                0,
                Delta::Insert(s.clone()),
                s.interval.ts,
                &mut b_out,
            );
        }
        r_out.clear();
        for s in &epoch {
            reference.reference_insert(s, 12, &mut r_out);
        }
        let mut batch = DeltaBatch::default();
        for s in &epoch {
            batch.push(Delta::Insert(s.clone()));
        }
        let mut b_batch = DeltaBatch::default();
        bulk.on_batch(0, &batch, 12, &mut b_batch);

        let node4 = |op: &Solo| {
            let t1 = op.forest().tree_of_root(VertexId(1)).unwrap();
            let tree = op.forest().tree(t1);
            tree.node(tree.get(VertexId(4), 1).unwrap()).interval
        };
        assert_eq!(node4(&reference), Interval::new(2, 36));
        assert_eq!(node4(&bulk), Interval::new(2, 36));
        // The reference's last (1,4) claim and the frontier pass's single
        // emission carry the same coalesced interval.
        let last_14 = |out: &[Delta]| {
            out.iter()
                .rev()
                .find(|d| {
                    !d.is_delete() && d.sgt().src == VertexId(1) && d.sgt().trg == VertexId(4)
                })
                .map(|d| d.sgt().interval)
                .unwrap()
        };
        assert_eq!(last_14(&r_out), Interval::new(2, 36));
        assert_eq!(last_14(b_batch.as_slice()), Interval::new(2, 36));
        assert_eq!(
            b_batch
                .iter()
                .filter(|d| !d.is_delete()
                    && d.sgt().src == VertexId(1)
                    && d.sgt().trg == VertexId(4))
                .count(),
            1,
            "an insert run emits each improved node once"
        );
        // Counter invariant: each node settles at most once per
        // improvement chain.
        let f = bulk.frontier_stats().unwrap();
        assert!(f.nodes_settled <= f.nodes_improved, "{f:?}");
        assert!(f.nodes_settled > 0);
    }

    /// Live tree state as `(root, v, state) → interval`. Nodes expired at
    /// `now` are skipped: both algorithms treat them as absent, and which
    /// of them still physically lingers depends on traversal order.
    fn live_nodes(op: &Solo, now: Timestamp) -> BTreeMap<(u64, u64, StateId), Interval> {
        let mut nodes = BTreeMap::new();
        for id in op.forest().tree_ids() {
            let tree = op.forest().tree(id);
            for i in tree.iter_live() {
                let n = tree.node(i);
                if !n.interval.expired_at(now) {
                    nodes.insert((tree.root.0, n.v.0, n.state), n.interval);
                }
            }
        }
        nodes
    }

    /// Per-pair coalesced coverage of the emitted insertions.
    fn emitted_coverage(out: &[Delta]) -> BTreeMap<(u64, u64), Vec<Interval>> {
        let mut map: BTreeMap<(u64, u64), IntervalSet> = BTreeMap::new();
        for d in out {
            assert!(!d.is_delete(), "append-only input emits no negatives");
            let s = d.sgt();
            map.entry((s.src.0, s.trg.0))
                .or_default()
                .insert(s.interval);
        }
        map.into_iter()
            .map(|(k, set)| (k, set.intervals().to_vec()))
            .collect()
    }

    #[test]
    fn frontier_pass_matches_per_tuple_reference_on_random_epochs() {
        // Operator-level differential: random edge sequences × random epoch
        // cuts (never across a slide boundary, as the engines guarantee),
        // the paper's per-tuple reference vs `on_batch`. After every epoch
        // the live tree nodes carry equal intervals, and at the end every
        // pair's emitted coverage is equal.
        const WINDOW: u64 = 12;
        const SLIDE: u64 = 4;
        let (a, b) = (Label(0), Label(1));
        let regexes = [
            Regex::plus(Regex::label(a)),
            Regex::concat(vec![Regex::label(a), Regex::star(Regex::label(b))]),
            Regex::plus(Regex::alt(vec![Regex::label(a), Regex::label(b)])),
        ];
        // Runs one epoch through `on_batch`, opening at its first edge.
        let flush = |op: &mut Solo, epoch: DeltaBatch, out: &mut Vec<Delta>| {
            let now = epoch.as_slice()[0].sgt().interval.ts;
            let mut emitted = DeltaBatch::new();
            op.on_batch(0, &epoch, now, &mut emitted);
            out.extend(emitted);
        };
        for seed in 0..120u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let regex = &regexes[(seed % 3) as usize];
            let mut reference = Solo::new(regex, Label(9));
            let mut bulk = Solo::new(regex, Label(9));
            let (mut r_out, mut b_out) = (Vec::new(), Vec::new());
            let mut epoch = DeltaBatch::new();
            let mut t = 0u64;
            for _ in 0..60 {
                let advanced = t + next(3);
                // Close the epoch at a slide boundary (always) or at a
                // random cut; purge on about half of the boundaries, as
                // reclamation is amortised in the engines.
                let crosses = advanced / SLIDE != t / SLIDE;
                if !epoch.is_empty() && (crosses || next(3) == 0) {
                    flush(&mut bulk, std::mem::take(&mut epoch), &mut b_out);
                    assert_eq!(
                        live_nodes(&reference, t),
                        live_nodes(&bulk, t),
                        "seed {seed} t {t}"
                    );
                }
                if crosses && next(2) == 0 {
                    let boundary = advanced / SLIDE * SLIDE;
                    reference.purge(boundary, &mut Vec::new());
                    bulk.purge(boundary, &mut Vec::new());
                }
                t = advanced;
                let label = if next(3) == 0 { b } else { a };
                let s = Sgt::edge(
                    VertexId(next(7)),
                    VertexId(next(7)),
                    label,
                    window_interval(t, WINDOW, SLIDE),
                );
                reference.reference_insert(&s, t, &mut r_out);
                epoch.push(Delta::Insert(s));
            }
            flush(&mut bulk, epoch, &mut b_out);
            assert_eq!(
                live_nodes(&reference, t),
                live_nodes(&bulk, t),
                "seed {seed}"
            );
            assert_eq!(
                emitted_coverage(&r_out),
                emitted_coverage(&b_out),
                "seed {seed}"
            );
        }
    }
    /// Every node slot that is alive, expired or not:
    /// `(root, v, state) → interval`.
    fn all_nodes(op: &Solo) -> BTreeMap<(u64, u64, StateId), Interval> {
        live_nodes(op, 0)
    }

    #[test]
    fn a_tree_emptied_by_a_deletion_is_retired_by_the_next_purge_not_before() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 30)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 3, 1, 30)), 1, &mut out);
        op.purge(1, &mut Vec::new());
        let t1 = op.forest().tree_of_root(VertexId(1)).unwrap();
        push_one(&mut op, 0, Delta::Delete(sgt(1, 2, 0, 30)), 2, &mut out);
        // T_1 is root-only now, and still there: the same epoch may refill it.
        assert_eq!(op.forest().tree(t1).live_nodes(), 0);
        assert_eq!(op.forest().tree_of_root(VertexId(1)), Some(t1));
        assert_eq!(op.forest().census().root_only_trees, 1);
        op.purge(2, &mut Vec::new());
        assert_eq!(op.forest().tree_of_root(VertexId(1)), None);
        assert_eq!(op.forest().census().root_only_trees, 0);
        // T_2 (2→3) is untouched; the root's return starts from nothing.
        assert!(op.forest().tree_of_root(VertexId(2)).is_some());
        out.clear();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 3, 30)), 3, &mut out);
        let pairs: Vec<(u64, u64)> = results(&out).iter().map(|&(s, t, _)| (s, t)).collect();
        assert_eq!(pairs, vec![(1, 2), (1, 3)]);
        assert_eq!(op.state_size(), 2 + 3);
    }

    #[test]
    fn index_purge_matches_the_walk_it_replaced_on_random_streams() {
        // Twin operators fed the same random epochs (random cuts, never
        // across a slide boundary), append-only and with explicit
        // deletions; one purges through the expiry indexes, the other by
        // the full walk / `retain`. After every purge the two hold the
        // same nodes, sizes and adjacency buckets, entry for entry, and
        // they emit the same deltas in the same order throughout.
        const WINDOW: u64 = 12;
        const SLIDE: u64 = 4;
        let (a, b) = (Label(0), Label(1));
        let regexes = [
            Regex::plus(Regex::label(a)),
            Regex::concat(vec![Regex::label(a), Regex::star(Regex::label(b))]),
            Regex::plus(Regex::alt(vec![Regex::label(a), Regex::label(b)])),
        ];
        let (mut purges, mut slots, mut minted) = (0, 0, 0);
        for seed in 0..160u64 {
            let deletions = seed % 2 == 1;
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let regex = &regexes[(seed % 3) as usize];
            let mut live = Solo::new(regex, Label(9));
            let mut twin = Solo::new(regex, Label(9));
            let (mut l_out, mut t_out) = (DeltaBatch::new(), DeltaBatch::new());
            let mut epoch = DeltaBatch::new();
            let mut inserted: Vec<Sgt> = Vec::new();
            let mut t = 0u64;
            // Fresh vertex ids arrive all along, so trees retire and
            // their slots are reused within one run.
            let mut fresh = 100u64;
            for step in 0..90 {
                let advanced = t + next(3);
                let crosses = advanced / SLIDE != t / SLIDE;
                if !epoch.is_empty() && (crosses || next(3) == 0) {
                    let now = epoch.as_slice()[0].sgt().interval.ts.max(t / SLIDE * SLIDE);
                    live.on_batch(0, &epoch, now, &mut l_out);
                    twin.on_batch(0, &epoch, now, &mut t_out);
                    epoch = DeltaBatch::new();
                }
                if crosses && next(3) != 0 {
                    let boundary = advanced / SLIDE * SLIDE;
                    live.purge(boundary, &mut Vec::new());
                    twin.purge_by_walk(boundary);
                    purges += 1;
                    let at = format!("seed {seed} step {step} purge({boundary})");
                    assert_eq!(all_nodes(&live), all_nodes(&twin), "{at}");
                    assert_eq!(live.op.forest.size(), twin.op.forest.size(), "{at}");
                    assert_eq!(live.store.size(), twin.store.size(), "{at}");
                    assert_eq!(
                        live.store.adjacency_mut().buckets(),
                        twin.store.adjacency_mut().buckets(),
                        "{at}"
                    );
                    let (lf, tf) = (live.op.forest.census(), twin.op.forest.census());
                    assert_eq!(lf.occupancy(), tf.occupancy(), "{at}");
                    let (la, ta) = (live.store.census(), twin.store.census());
                    assert_eq!(la.occupancy(), ta.occupancy(), "{at}");
                    assert_eq!(live.op.forest.census().root_only_trees, 0, "{at}");
                }
                t = advanced;
                if deletions && !inserted.is_empty() && next(4) == 0 {
                    let victim = inserted.swap_remove(next(inserted.len() as u64) as usize);
                    epoch.push(Delta::Delete(victim));
                    continue;
                }
                let src = if next(4) == 0 {
                    fresh += 1;
                    fresh
                } else {
                    next(7)
                };
                let label = if next(3) == 0 { b } else { a };
                let s = Sgt::edge(
                    VertexId(src),
                    VertexId(next(7)),
                    label,
                    window_interval(t, WINDOW, SLIDE),
                );
                inserted.push(s.clone());
                epoch.push(Delta::Insert(s));
            }
            live.on_batch(0, &epoch, t, &mut l_out);
            twin.on_batch(0, &epoch, t, &mut t_out);
            assert_eq!(l_out.as_slice(), t_out.as_slice(), "seed {seed}");
            assert_eq!(all_nodes(&live), all_nodes(&twin), "seed {seed}");
            if seed % 3 == 2 {
                // Under `(a|b)+` every minted source roots a tree of its own.
                slots += live.op.forest.census().tree_slots as u64;
                minted += fresh - 100;
            }
        }
        assert!(purges > 1000, "{purges}");
        assert!(slots < minted, "slots were recycled: {slots} for {minted}");
    }

    #[test]
    fn skipping_retirement_breaks_the_window_bound() {
        // The mutation `tests/bounded_state.rs` must catch, run where it
        // can be compiled in: k fresh roots per slide, 40 windows. With
        // retirement the forest's slots and maps stop growing after the
        // first window; without it they grow with the stream.
        const WINDOW: u64 = 40;
        const SLIDE: u64 = 10;
        const FRESH: u64 = 5;
        let run = |retire: bool| {
            let mut op = plus_op();
            let mut sizes = Vec::new();
            for slide in 0..(40 * WINDOW / SLIDE) {
                let now = slide * SLIDE;
                if retire {
                    op.purge(now, &mut Vec::new());
                } else {
                    op.purge_keeping_empty_trees(now);
                }
                sizes.push(op.forest().census());
                let mut epoch = DeltaBatch::new();
                for k in 0..FRESH {
                    let iv = window_interval(now + k, WINDOW, SLIDE);
                    let fresh = 1_000 + slide * FRESH + k;
                    epoch.push(Delta::Insert(Sgt::edge(
                        VertexId(fresh),
                        VertexId(k),
                        RLP,
                        iv,
                    )));
                }
                op.on_batch(0, &epoch, now, &mut DeltaBatch::new());
            }
            sizes
        };
        let bounded = |sizes: &[ForestCensus]| {
            let live_window = (FRESH * WINDOW / SLIDE) as usize;
            sizes.iter().all(|c| {
                c.tree_slots <= 2 * live_window
                    && c.roots <= live_window
                    && c.keys <= 2 * live_window + FRESH as usize
                    && c.root_only_trees == 0
            })
        };
        assert!(bounded(&run(true)));
        let kept = run(false);
        assert!(!bounded(&kept));
        let last = kept.last().unwrap();
        assert_eq!(last.tree_slots as u64, 40 * WINDOW / SLIDE * FRESH - FRESH);
        assert_eq!(last.live_nodes as u64, FRESH * WINDOW / SLIDE - FRESH);
    }
}
