//! The negative-tuple PATH operator (§6.2.3) — the streaming RPQ algorithm
//! of Pacaci et al. SIGMOD'20 (\[57\] in the paper), used as the baseline
//! physical implementation that S-PATH is compared against (Table 3,
//! Example 10).
//!
//! Differences from S-PATH:
//!
//! * **Arrivals never propagate improvements**: if a `(vertex, state)` node
//!   already exists in a tree, the arrival is ignored (Example 10: "the
//!   negative tuple approach … does not update T_x as (u,1) is already in
//!   T_x").
//! * **Expirations are processed like explicit deletions**: at every window
//!   movement, each expired edge is turned into a negative tuple; affected
//!   subtrees are marked and re-derived by traversing the snapshot graph
//!   (the DRed-style machinery in [`super::rederive`]). This is the cost
//!   S-PATH's direct approach avoids.

use super::adjacency::{Adjacency, WindowGraph};
use super::forest::{Forest, NodeIdx, TreeId, NO_PARENT};
use super::rederive::{rederive_in, RederiveScratch, RevDfa};
use super::{Delta, PathCensus, PhysicalOp};
use crate::obs::FrontierStats;
use sgq_automata::{Dfa, Regex, StateId};
use sgq_types::{Edge, Interval, Label, Payload, Sgt, Timestamp, VertexId};

/// The negative-tuple PATH physical operator.
pub struct NegPathOp {
    dfa: Dfa,
    rev: RevDfa,
    label: Label,
    adj: Adjacency,
    forest: Forest,
    emit_paths: bool,
    /// Re-derivation scratch (heap, marked set, …) reused across
    /// invalidations instead of reallocated.
    rescratch: RederiveScratch,
    /// Always-on traversal counters (see [`FrontierStats`]).
    stats: FrontierStats,
}

struct Ext {
    parent: NodeIdx,
    v: VertexId,
    state: StateId,
    edge: Edge,
    edge_iv: Interval,
}

impl NegPathOp {
    /// Builds the operator from the PATH regex.
    pub fn new(regex: &Regex, label: Label) -> Self {
        // Start-separated so cycle results never collide with tree roots.
        let dfa = Dfa::from_regex(regex).start_separated();
        let rev = RevDfa::build(&dfa);
        let forest = Forest::new(dfa.start());
        NegPathOp {
            dfa,
            rev,
            label,
            adj: Adjacency::new(),
            forest,
            emit_paths: true,
            rescratch: RederiveScratch::default(),
            stats: FrontierStats::default(),
        }
    }

    /// Read access to the Δ-tree forest (tests of Example 10).
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

    /// Expansion without Propagate: only absent (or expired) nodes are
    /// (re-)inserted.
    fn extend_all(
        &mut self,
        tree: TreeId,
        mut stack: Vec<Ext>,
        now: Timestamp,
        out: &mut Vec<Delta>,
    ) {
        while let Some(ext) = stack.pop() {
            let parent_iv = self.forest.tree(tree).node(ext.parent).interval;
            let child_iv = parent_iv.intersect(&ext.edge_iv);
            if child_iv.is_empty() || child_iv.expired_at(now) {
                continue;
            }
            let node = match self.forest.tree(tree).get(ext.v, ext.state) {
                Some(idx) => {
                    if self.forest.tree(tree).node(idx).interval.expired_at(now) {
                        self.forest.remove_subtree(tree, idx);
                        self.forest.insert_child(
                            tree,
                            ext.parent,
                            ext.v,
                            ext.state,
                            ext.edge.label,
                            child_iv,
                        )
                    } else {
                        continue; // present ⇒ skip (no Propagate in [57])
                    }
                }
                None => self.forest.insert_child(
                    tree,
                    ext.parent,
                    ext.v,
                    ext.state,
                    ext.edge.label,
                    child_iv,
                ),
            };
            self.stats.nodes_improved += 1;
            if self.dfa.is_accepting(ext.state) {
                self.emit(tree, node, out);
            }
            let node_iv = self.forest.tree(tree).node(node).interval;
            for (l2, q) in self.dfa.transitions_from(ext.state) {
                for entry in self.adj.out(ext.v, l2) {
                    self.stats.edges_scanned += 1;
                    if node_iv.intersect(&entry.interval).is_empty() {
                        continue;
                    }
                    stack.push(Ext {
                        parent: node,
                        v: entry.other,
                        state: q,
                        edge: Edge::new(ext.v, entry.other, l2),
                        edge_iv: entry.interval,
                    });
                }
            }
        }
    }

    fn on_insert(&mut self, s: &Sgt, now: Timestamp, out: &mut Vec<Delta>) {
        let (u, v, l) = (s.src, s.trg, s.label);
        if self.dfa.transitions_on(l).is_empty() {
            return;
        }
        let Some(stored_iv) = self.adj.insert(u, l, v, s.interval) else {
            return;
        };
        let transitions: Vec<(StateId, StateId)> = self.dfa.transitions_on(l).to_vec();
        for (from, to) in transitions {
            if from == self.dfa.start() {
                self.forest.ensure_tree(u);
            }
            for (tree, parent) in self.forest.trees_with(u, from).collect::<Vec<_>>() {
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

    /// Processes one invalidated edge (expiry or explicit deletion) the
    /// \[57\] way: mark affected subtrees and re-derive by graph traversal.
    /// Returns refreshed results for re-derived accepting nodes.
    fn invalidate_edge(
        &mut self,
        edge: Edge,
        now: Timestamp,
        out: &mut Vec<Delta>,
        emit_deletes: bool,
    ) {
        let transitions: Vec<(StateId, StateId)> = self.dfa.transitions_on(edge.label).to_vec();
        for (_, to) in transitions {
            // Trees re-derive independently: a pass over one frees slots
            // of that tree only, and inserts none, so the list holds.
            for (tree, idx) in self.forest.trees_with(edge.trg, to).collect::<Vec<_>>() {
                if self.forest.tree(tree).edge(idx) != Some(edge) {
                    continue; // non-tree edge: "does not require any modification"
                }
                let changes = rederive_in(
                    &mut self.rescratch,
                    &mut self.stats,
                    &mut self.forest,
                    tree,
                    &[idx],
                    &self.adj,
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
                        Some(niv) if niv != ch.old_interval => {
                            // Re-derived with a different validity: retract
                            // the invalidated derivation (its constituent
                            // edge is gone for the *whole* old interval),
                            // then emit the alternative as a continuation so
                            // downstream snapshots stay exact.
                            if emit_deletes {
                                out.push(Delta::Delete(Sgt::edge(
                                    root,
                                    ch.v,
                                    self.label,
                                    ch.old_interval,
                                )));
                            }
                            let nidx = self
                                .forest
                                .tree(tree)
                                .get(ch.v, ch.state)
                                .expect("re-derived node exists");
                            self.emit(tree, nidx, out);
                        }
                        None if emit_deletes => {
                            out.push(Delta::Delete(Sgt::edge(
                                root,
                                ch.v,
                                self.label,
                                ch.old_interval,
                            )));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

impl PhysicalOp for NegPathOp {
    fn name(&self) -> String {
        format!("PATH-NT[→{:?}]", self.label)
    }

    fn needs_timely_purge(&self) -> bool {
        true // expiry processing at window movement is the [57] algorithm
    }

    fn on_batch(
        &mut self,
        _port: usize,
        batch: &super::DeltaBatch,
        now: Timestamp,
        out: &mut super::DeltaBatch,
    ) {
        // Arrival-order loop over the borrowed batch. Unlike S-PATH, runs
        // of value-equivalent inserts must NOT be pre-merged: the [57]
        // algorithm skips present nodes instead of propagating
        // improvements, so a merged interval would overstate coverage.
        let out = out.as_mut_vec();
        for d in batch.iter() {
            match d {
                Delta::Insert(s) => self.on_insert(s, now, out),
                Delta::Delete(s) => {
                    self.adj.remove(s.src, s.label, s.trg, s.interval);
                    self.invalidate_edge(Edge::new(s.src, s.trg, s.label), now, out, true);
                }
            }
        }
    }

    /// Window movement: every expired derivation is processed like a
    /// negative tuple — the affected subtrees are marked and re-derived by
    /// traversing the snapshot graph (the extra work S-PATH avoids).
    /// Re-derived accepting segments emit their continuation results so
    /// downstream snapshots stay exact (the \[57\] algorithm reports
    /// re-derived answers when it undoes expirations).
    fn purge(&mut self, watermark: Timestamp, out: &mut Vec<Delta>) {
        self.adj.purge(watermark);
        // Top-most expired nodes — their whole subtrees re-derive — in
        // `(root, v, state)` order: a function of the live window, not of
        // which slots its trees and nodes happen to occupy.
        let mut expired: Vec<(VertexId, VertexId, StateId, TreeId, NodeIdx)> = Vec::new();
        for tree in self.forest.tree_ids() {
            let t = self.forest.tree(tree);
            expired.extend(t.iter_live().filter_map(|i| {
                let n = t.node(i);
                (n.parent != NO_PARENT
                    && n.interval.expired_at(watermark)
                    && !t.node(n.parent).interval.expired_at(watermark))
                .then_some((t.root, n.v, n.state, tree, i))
            }));
        }
        expired.sort_unstable();
        let mut roots = Vec::new();
        for of_tree in expired.chunk_by(|a, b| a.3 == b.3) {
            let tree = of_tree[0].3;
            roots.clear();
            roots.extend(of_tree.iter().map(|e| e.4));
            // One seeded maximin pass re-derives all m invalidated
            // subtree roots together (shared frontier, shared scratch).
            let changes = rederive_in(
                &mut self.rescratch,
                &mut self.stats,
                &mut self.forest,
                tree,
                &roots,
                &self.adj,
                &self.dfa,
                &self.rev,
                watermark,
            );
            for ch in changes {
                if !self.dfa.is_accepting(ch.state) {
                    continue;
                }
                // Expired results need no negative tuples (their intervals
                // ended on their own); only continuations are emitted.
                if let Some(niv) = ch.new_interval {
                    if niv != ch.old_interval {
                        if let Some(nidx) = self.forest.tree(tree).get(ch.v, ch.state) {
                            self.emit(tree, nidx, out);
                        }
                    }
                }
            }
        }
        self.forest.purge(watermark);
    }

    fn state_size(&self) -> usize {
        self.adj.size() + self.forest.size()
    }

    fn frontier_stats(&self) -> Option<FrontierStats> {
        Some(self.stats)
    }

    fn path_census(&self) -> Option<PathCensus> {
        Some(PathCensus {
            forest: self.forest.census(),
            adjacency: Some(self.adj.census()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::push_one;
    use super::*;

    const RLP: Label = Label(0);

    fn sgt(src: u64, trg: u64, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(VertexId(src), VertexId(trg), RLP, Interval::new(ts, exp))
    }

    fn plus_op() -> NegPathOp {
        NegPathOp::new(&Regex::plus(Regex::label(RLP)), Label(9))
    }

    #[test]
    fn example10_no_propagate_on_arrival() {
        // Figure 9d: at t=30 the [57] tree keeps u@[24,31) (derived through
        // z) even though the y→u edge at t=28 offers expiry 35.
        let mut op = plus_op();
        let mut out = Vec::new();
        let feed = |op: &mut NegPathOp, out: &mut Vec<Delta>, s, t, ts, exp| {
            push_one(op, 0, Delta::Insert(sgt(s, t, ts, exp)), ts, out);
        };
        // x=0, z=1, u=2, y=3, w=4, t=5, v=6, s=7 (as in the S-PATH test).
        feed(&mut op, &mut out, 0, 1, 23, 31);
        feed(&mut op, &mut out, 1, 2, 24, 32);
        feed(&mut op, &mut out, 0, 3, 25, 35);
        feed(&mut op, &mut out, 3, 4, 26, 33);
        feed(&mut op, &mut out, 1, 5, 27, 40);
        feed(&mut op, &mut out, 3, 2, 28, 37); // y→u: ignored, u present
        feed(&mut op, &mut out, 2, 6, 29, 41);
        feed(&mut op, &mut out, 2, 7, 30, 38);

        let tx = op.forest().tree_of_root(VertexId(0)).unwrap();
        let tree = op.forest().tree(tx);
        let iv = |v: u64| tree.node(tree.get(VertexId(v), 1).unwrap()).interval;
        // u still derived through z: interval [24, 31) (paper Figure 9d).
        assert_eq!(iv(2), Interval::new(24, 31));
        // Its children inherit the small expiry.
        assert_eq!(iv(6), Interval::new(29, 31));
        assert_eq!(iv(7), Interval::new(30, 31));
        // Parent of u is z (vertex 1).
        let u_idx = tree.get(VertexId(2), 1).unwrap();
        assert_eq!(tree.node(tree.node(u_idx).parent).v, VertexId(1));
    }

    #[test]
    fn expiry_rederives_through_surviving_path() {
        // Same scenario: at t=31 the x→z edge expires; [57] re-derives u,v,s
        // through y with a snapshot traversal.
        let mut op = plus_op();
        let mut out = Vec::new();
        let feed = |op: &mut NegPathOp, out: &mut Vec<Delta>, s, t, ts, exp| {
            push_one(op, 0, Delta::Insert(sgt(s, t, ts, exp)), ts, out);
        };
        feed(&mut op, &mut out, 0, 1, 23, 31);
        feed(&mut op, &mut out, 1, 2, 24, 32);
        feed(&mut op, &mut out, 0, 3, 25, 35);
        feed(&mut op, &mut out, 3, 2, 28, 37);
        feed(&mut op, &mut out, 2, 6, 29, 41);
        op.purge(31, &mut Vec::new());
        let tx = op.forest().tree_of_root(VertexId(0)).unwrap();
        let tree = op.forest().tree(tx);
        // z is gone; u survives re-derived through y with exp 35.
        assert!(tree.get(VertexId(1), 1).is_none());
        let u = tree.get(VertexId(2), 1).unwrap();
        assert_eq!(tree.node(u).interval.exp, 35);
        assert_eq!(tree.node(tree.node(u).parent).v, VertexId(3));
        // v re-derived under u.
        let v6 = tree.get(VertexId(6), 1).unwrap();
        assert_eq!(tree.node(v6).interval.exp, 35);
    }

    #[test]
    fn results_match_spath_on_append_only_prefix() {
        use crate::physical::spath::Solo;
        // Both operators must emit the same result *pairs* while the window
        // has no expirations (intervals may differ in ts).
        let edges = [
            (1u64, 2u64, 0u64),
            (2, 3, 1),
            (3, 1, 2),
            (1, 4, 3),
            (4, 5, 4),
            (2, 4, 5),
        ];
        let mut neg = plus_op();
        let mut spa = Solo::new(&Regex::plus(Regex::label(RLP)), Label(9));
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        for &(s, t, ts) in &edges {
            push_one(
                &mut neg,
                0,
                Delta::Insert(sgt(s, t, ts, ts + 100)),
                ts,
                &mut o1,
            );
            push_one(
                &mut spa,
                0,
                Delta::Insert(sgt(s, t, ts, ts + 100)),
                ts,
                &mut o2,
            );
        }
        let pairs = |v: &Vec<Delta>| {
            let mut p: Vec<(VertexId, VertexId)> = v
                .iter()
                .filter(|d| !d.is_delete())
                .map(|d| (d.sgt().src, d.sgt().trg))
                .collect();
            p.sort();
            p.dedup();
            p
        };
        assert_eq!(pairs(&o1), pairs(&o2));
    }

    #[test]
    fn delete_with_alternative_retracts_then_reasserts() {
        // 1→2→4 and 1→3→4 both derive (1,4); deleting edge (1,2) must
        // retract the old-interval result and re-emit the alternative's —
        // otherwise the emitted multiset over-counts (regression test).
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 100)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 4, 1, 101)), 1, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(1, 3, 2, 102)), 2, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(3, 4, 3, 103)), 3, &mut out);
        out.clear();
        push_one(&mut op, 0, Delta::Delete(sgt(1, 2, 0, 100)), 4, &mut out);
        // Count (1,4) emissions: one retraction of [1,100), one insert of
        // the re-derivation [3,102).
        let of_14: Vec<&Delta> = out
            .iter()
            .filter(|d| d.sgt().src == VertexId(1) && d.sgt().trg == VertexId(4))
            .collect();
        assert_eq!(of_14.len(), 2, "{of_14:?}");
        assert!(of_14[0].is_delete());
        assert_eq!(of_14[0].sgt().interval, Interval::new(1, 100));
        assert!(!of_14[1].is_delete());
        assert_eq!(of_14[1].sgt().interval, Interval::new(3, 102));
    }

    #[test]
    fn purge_output_does_not_depend_on_slot_history() {
        // `recycled` first grows and retires five trees on roots that never
        // return, so the shared roots below land in recycled tree and node
        // slots, in another order than `fresh` gives them. Each shared tree
        // loses two subtrees at t = 40 that re-derive through a longer-lived
        // sibling; the continuations must come out in one order.
        let (mut fresh, mut recycled) = (plus_op(), plus_op());
        let mut sink = Vec::new();
        for r in 100..105 {
            push_one(
                &mut recycled,
                0,
                Delta::Insert(sgt(r, r + 50, r - 100, 10)),
                r - 100,
                &mut sink,
            );
        }
        recycled.purge(10, &mut sink);
        assert_eq!(recycled.forest().census().live_trees, 0);
        let (mut f_out, mut r_out) = (Vec::new(), Vec::new());
        let mut ts = 10;
        for root in [500, 200, 400] {
            // root → a → b and root → d → e expire at 40; root → c → b and
            // root → f → e hold to 60 but arrive after b and e exist.
            let [a, b, c, d, e, f] = [1, 2, 3, 4, 5, 6].map(|k| root + k);
            for (s, t, exp) in [
                (root, d, 40),
                (d, e, 60),
                (root, a, 40),
                (a, b, 60),
                (root, c, 60),
                (c, b, 60),
                (root, f, 60),
                (f, e, 60),
            ] {
                push_one(
                    &mut fresh,
                    0,
                    Delta::Insert(sgt(s, t, ts, exp)),
                    ts,
                    &mut f_out,
                );
                push_one(
                    &mut recycled,
                    0,
                    Delta::Insert(sgt(s, t, ts, exp)),
                    ts,
                    &mut r_out,
                );
                ts += 1;
            }
        }
        assert_eq!(f_out, r_out);
        f_out.clear();
        r_out.clear();
        fresh.purge(40, &mut f_out);
        recycled.purge(40, &mut r_out);
        let pairs: Vec<(u64, u64)> = f_out
            .iter()
            .map(|d| (d.sgt().src.0, d.sgt().trg.0))
            .collect();
        // Roots ascending; within a tree, the order one pass over the
        // expired subtree roots `[a, d]` (sorted by vertex) settles them in.
        assert_eq!(
            pairs,
            [
                (200, 205),
                (200, 202),
                (400, 405),
                (400, 402),
                (500, 505),
                (500, 502)
            ]
        );
        assert_eq!(f_out, r_out);
    }

    #[test]
    fn explicit_delete_emits_negative_results() {
        let mut op = plus_op();
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 30)), 0, &mut out);
        push_one(&mut op, 0, Delta::Insert(sgt(2, 3, 1, 25)), 1, &mut out);
        out.clear();
        push_one(&mut op, 0, Delta::Delete(sgt(1, 2, 0, 30)), 2, &mut out);
        let dels: Vec<_> = out.iter().filter(|d| d.is_delete()).collect();
        assert_eq!(dels.len(), 2); // (1,2) and (1,3) invalidated
    }
}
