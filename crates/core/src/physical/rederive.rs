//! Subtree re-derivation: the Dijkstra-based traversal of §6.2.5.
//!
//! When a spanning-tree edge disappears (explicit deletion in S-PATH, or
//! window expiry in the negative-tuple PATH of \[57\]), the disconnected
//! subtree's nodes may still be reachable through alternative paths. This
//! module marks the subtree and runs a maximin-expiry Dijkstra over the
//! snapshot graph: candidates are popped in decreasing expiry order, so
//! each node is settled with the alternative path of **largest expiry** —
//! re-establishing the Δ-PATH invariant of Def. 22. Unsettled nodes are
//! removed.

use super::adjacency::WindowGraph;
use super::forest::{Forest, NodeIdx, TreeId};
use crate::obs::FrontierStats;
use sgq_automata::{Dfa, StateId};
use sgq_types::{Edge, FxHashMap, FxHashSet, Interval, Label, Timestamp, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reverse DFA transitions: target state → `(label, source state)` pairs.
/// Needed to find candidate parents of a disconnected node.
#[derive(Debug, Clone, Default)]
pub struct RevDfa {
    map: FxHashMap<StateId, Vec<(Label, StateId)>>,
}

impl RevDfa {
    /// Builds the reverse index from a DFA. Per-state entries are sorted
    /// by `(label, source)` so re-derivation traversal order is invariant
    /// under order-preserving label renamings (like
    /// `Dfa::transitions_from`).
    pub fn build(dfa: &Dfa) -> RevDfa {
        let mut map: FxHashMap<StateId, Vec<(Label, StateId)>> = FxHashMap::default();
        for l in dfa.alphabet().collect::<Vec<_>>() {
            for &(s, t) in dfa.transitions_on(l) {
                map.entry(t).or_default().push((l, s));
            }
        }
        for v in map.values_mut() {
            v.sort_unstable();
        }
        RevDfa { map }
    }

    /// Transitions entering `q`.
    pub fn into_state(&self, q: StateId) -> &[(Label, StateId)] {
        self.map.get(&q).map_or(&[], Vec::as_slice)
    }
}

/// The outcome for one node affected by a re-derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// The node's vertex.
    pub v: VertexId,
    /// The node's DFA state.
    pub state: StateId,
    /// Validity before the re-derivation.
    pub old_interval: Interval,
    /// Validity after (`None` if the node was removed).
    pub new_interval: Option<Interval>,
}

#[derive(Debug)]
struct Candidate {
    iv: Interval,
    child: NodeIdx,
    /// The child's DFA state: with `edge` (whose target is the child's
    /// vertex) it names the child without its slab index.
    state: StateId,
    parent: NodeIdx,
    edge: Edge,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.iv == other.iv
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on expiry (the maximin objective), ties on larger span,
        // then on (edge, child state) so pop order — and with it the
        // settled parent/edge choice among equal-expiry alternatives — is
        // a pure function of the candidate set: not of heap insertion
        // order, nor of which slab slots the nodes occupy.
        self.iv
            .exp
            .cmp(&other.iv.exp)
            .then_with(|| other.iv.ts.cmp(&self.iv.ts))
            .then_with(|| other.edge.cmp(&self.edge))
            .then_with(|| other.state.cmp(&self.state))
    }
}

/// Operator-owned scratch for re-derivation passes: the candidate heap
/// and the marked-subtree bookkeeping are cleared, not reallocated, each
/// pass (the `sink_scratch` pattern applied to the expansion core).
#[derive(Debug, Default)]
pub struct RederiveScratch {
    heap: BinaryHeap<Candidate>,
    marked: FxHashSet<NodeIdx>,
    order: Vec<NodeIdx>,
    old: Vec<(NodeIdx, VertexId, StateId, Interval)>,
}

/// Re-derives the subtrees rooted at `roots` in tree `tree` after their
/// derivation edges were invalidated. Returns one [`Change`] per affected
/// node. `now` bounds liveness: candidates already expired are not used.
///
/// Convenience wrapper over [`rederive_in`] with throwaway scratch;
/// operators on the hot path hold a [`RederiveScratch`] and a
/// [`FrontierStats`] instead.
pub fn rederive(
    forest: &mut Forest,
    tree: TreeId,
    roots: Vec<NodeIdx>,
    adj: &impl WindowGraph,
    dfa: &Dfa,
    rev: &RevDfa,
    now: Timestamp,
) -> Vec<Change> {
    let mut scratch = RederiveScratch::default();
    let mut stats = FrontierStats::default();
    rederive_in(
        &mut scratch,
        &mut stats,
        forest,
        tree,
        &roots,
        adj,
        dfa,
        rev,
        now,
    )
}

/// [`rederive`] with operator-owned scratch and frontier accounting: one
/// seeded maximin-Dijkstra pass re-derives **all** invalidated subtrees of
/// `roots` together (m roots, one heap), settling each node at most once.
#[allow(clippy::too_many_arguments)]
pub fn rederive_in(
    scratch: &mut RederiveScratch,
    stats: &mut FrontierStats,
    forest: &mut Forest,
    tree: TreeId,
    roots: &[NodeIdx],
    adj: &impl WindowGraph,
    dfa: &Dfa,
    rev: &RevDfa,
    now: Timestamp,
) -> Vec<Change> {
    // --- Mark the disconnected subtrees --------------------------------
    scratch.heap.clear();
    scratch.marked.clear();
    scratch.order.clear();
    scratch.old.clear();
    let RederiveScratch {
        heap,
        marked,
        order,
        old,
    } = scratch;
    {
        let t = forest.tree(tree);
        let mut stack = roots.to_vec();
        while let Some(i) = stack.pop() {
            if !t.node(i).alive() || !marked.insert(i) {
                continue;
            }
            order.push(i);
            stack.extend(t.children(i));
        }
    }
    old.extend(order.iter().map(|&i| {
        let n = forest.tree(tree).node(i);
        (i, n.v, n.state, n.interval)
    }));

    // --- Seed candidates from the unmarked frontier ---------------------
    for &(idx, v, state, _) in old.iter() {
        for &(l, s) in rev.into_state(state) {
            for entry in adj.inc(v, l) {
                stats.edges_scanned += 1;
                let Some(pidx) = forest.tree(tree).get(entry.other, s) else {
                    continue;
                };
                if marked.contains(&pidx) {
                    continue;
                }
                let cand = forest
                    .tree(tree)
                    .node(pidx)
                    .interval
                    .intersect(&entry.interval);
                if !cand.is_empty() && !cand.expired_at(now) {
                    stats.heap_pushes += 1;
                    heap.push(Candidate {
                        iv: cand,
                        child: idx,
                        state,
                        parent: pidx,
                        edge: Edge::new(entry.other, v, l),
                    });
                }
            }
        }
    }

    // --- Maximin Dijkstra ------------------------------------------------
    while let Some(c) = heap.pop() {
        if !marked.contains(&c.child) {
            continue; // already settled with a better (or equal) expiry
        }
        marked.remove(&c.child);
        stats.nodes_settled += 1;
        stats.nodes_improved += 1;
        forest.set_interval(tree, c.child, c.iv);
        forest.reparent(tree, c.child, c.parent, c.edge.label);
        // The settled node can now parent its still-marked out-neighbours.
        let (v, state, iv) = {
            let n = forest.tree(tree).node(c.child);
            (n.v, n.state, n.interval)
        };
        for (l2, q) in dfa.transitions_from(state).collect::<Vec<_>>() {
            for entry in adj.out(v, l2) {
                stats.edges_scanned += 1;
                let Some(cidx) = forest.tree(tree).get(entry.other, q) else {
                    continue;
                };
                if !marked.contains(&cidx) {
                    continue;
                }
                let cand = iv.intersect(&entry.interval);
                if !cand.is_empty() && !cand.expired_at(now) {
                    stats.heap_pushes += 1;
                    heap.push(Candidate {
                        iv: cand,
                        child: cidx,
                        state: q,
                        parent: c.child,
                        edge: Edge::new(v, entry.other, l2),
                    });
                }
            }
        }
    }

    // --- Remove unsettled nodes -----------------------------------------
    for &(idx, _, _, _) in old.iter() {
        if marked.contains(&idx) && forest.tree(tree).node(idx).alive() {
            forest.remove_subtree(tree, idx);
        }
    }

    // Settled nodes are back in the index; removed ones are not (no
    // insertions happen during re-derivation, so a lookup is authoritative).
    old.iter()
        .map(|&(_, v, state, old_iv)| {
            let new_interval = forest
                .tree(tree)
                .get(v, state)
                .map(|i| forest.tree(tree).node(i).interval);
            Change {
                v,
                state,
                old_interval: old_iv,
                new_interval,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::adjacency::Adjacency;
    use super::*;
    use sgq_automata::Regex;

    const L: Label = Label(0);

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    /// Builds a (l+)-DFA, a diamond 1→{2,3}→4 adjacency, and a tree that
    /// currently derives 4 through 3.
    fn setup() -> (Forest, Adjacency, Dfa, RevDfa, TreeId) {
        let dfa = Dfa::from_regex(&Regex::plus(Regex::label(L)));
        let rev = RevDfa::build(&dfa);
        let mut adj = Adjacency::new();
        adj.insert(v(1), L, v(2), Interval::new(0, 30));
        adj.insert(v(2), L, v(4), Interval::new(1, 25));
        adj.insert(v(1), L, v(3), Interval::new(2, 40));
        adj.insert(v(3), L, v(4), Interval::new(3, 35));
        let mut forest = Forest::new(dfa.start());
        let t = forest.ensure_tree(v(1));
        let root = forest.tree(t).root_idx();
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        forest.insert_child(t, root, v(2), s1, L, Interval::new(0, 30));
        let n3 = forest.insert_child(t, root, v(3), s1, L, Interval::new(2, 40));
        forest.insert_child(t, n3, v(4), s1, L, Interval::new(3, 35));
        (forest, adj, dfa, rev, t)
    }

    #[test]
    fn rederives_through_alternative_parent() {
        let (mut forest, mut adj, dfa, rev, t) = setup();
        // Delete the tree edge 3→4.
        adj.remove(v(3), L, v(4), Interval::new(3, 35));
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        let n4 = forest.tree(t).get(v(4), s1).unwrap();
        let changes = rederive(&mut forest, t, vec![n4], &adj, &dfa, &rev, 5);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].new_interval, Some(Interval::new(1, 25)));
        // Node reparented under 2.
        let tree = forest.tree(t);
        let n4 = tree.get(v(4), s1).unwrap();
        assert_eq!(tree.node(tree.node(n4).parent).v, v(2));
    }

    #[test]
    fn removes_when_no_alternative() {
        let (mut forest, mut adj, dfa, rev, t) = setup();
        adj.remove(v(3), L, v(4), Interval::new(3, 35));
        adj.remove(v(2), L, v(4), Interval::new(1, 25));
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        let n4 = forest.tree(t).get(v(4), s1).unwrap();
        let changes = rederive(&mut forest, t, vec![n4], &adj, &dfa, &rev, 5);
        assert_eq!(changes[0].new_interval, None);
        assert!(forest.tree(t).get(v(4), s1).is_none());
    }

    #[test]
    fn picks_largest_expiry_alternative() {
        let (mut forest, mut adj, dfa, rev, t) = setup();
        // A third route with even larger expiry: 1→5→4.
        adj.insert(v(1), L, v(5), Interval::new(0, 50));
        adj.insert(v(5), L, v(4), Interval::new(0, 45));
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        let root = forest.tree(t).root_idx();
        forest.insert_child(t, root, v(5), s1, L, Interval::new(0, 50));
        adj.remove(v(3), L, v(4), Interval::new(3, 35));
        let n4 = forest.tree(t).get(v(4), s1).unwrap();
        let changes = rederive(&mut forest, t, vec![n4], &adj, &dfa, &rev, 5);
        // Maximin: via 5 gives exp 45 > via 2's 25.
        assert_eq!(changes[0].new_interval.unwrap().exp, 45);
    }

    #[test]
    fn equal_interval_ties_do_not_depend_on_slab_slots() {
        // M = 5 hangs on the deleted edge 1→5 with children A = 3 and
        // B = 7. A re-derives through 2; B through 4 or through A (3→7),
        // every candidate at the same interval. B's new parent must not
        // depend on which of A and B sits in the lower slab slot.
        let dfa = Dfa::from_regex(&Regex::plus(Regex::label(L)));
        let rev = RevDfa::build(&dfa);
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        let iv = Interval::new(0, 50);
        let mut adj = Adjacency::new();
        for (s, t) in [(1, 2), (1, 4), (2, 3), (4, 7), (3, 7), (5, 3), (5, 7)] {
            adj.insert(v(s), L, v(t), iv);
        }
        let parents = |children: [u64; 2]| {
            let mut forest = Forest::new(dfa.start());
            let t = forest.ensure_tree(v(1));
            let root = forest.tree(t).root_idx();
            forest.insert_child(t, root, v(2), s1, L, iv);
            forest.insert_child(t, root, v(4), s1, L, iv);
            let m = forest.insert_child(t, root, v(5), s1, L, iv);
            for c in children {
                forest.insert_child(t, m, v(c), s1, L, iv);
            }
            rederive(&mut forest, t, vec![m], &adj, &dfa, &rev, 5);
            let tree = forest.tree(t);
            let parent_of = |x| tree.node(tree.node(tree.get(v(x), s1).unwrap()).parent).v;
            (parent_of(3), parent_of(7))
        };
        assert_eq!(parents([3, 7]), (v(2), v(3)));
        assert_eq!(parents([7, 3]), (v(2), v(3)));
    }

    #[test]
    fn cascading_rederivation_of_descendants() {
        let (mut forest, mut adj, dfa, rev, t) = setup();
        let s1 = dfa.delta(dfa.start(), L).unwrap();
        // Extend: 4→6 as a child of 4.
        adj.insert(v(4), L, v(6), Interval::new(4, 28));
        let n4 = forest.tree(t).get(v(4), s1).unwrap();
        forest.insert_child(t, n4, v(6), s1, L, Interval::new(4, 28));
        // Delete 3→4: both 4 and 6 must re-derive through 2.
        adj.remove(v(3), L, v(4), Interval::new(3, 35));
        let changes = rederive(&mut forest, t, vec![n4], &adj, &dfa, &rev, 5);
        assert_eq!(changes.len(), 2);
        let tree = forest.tree(t);
        let n4 = tree.get(v(4), s1).unwrap();
        let n6 = tree.get(v(6), s1).unwrap();
        assert_eq!(tree.node(n4).interval, Interval::new(1, 25));
        assert_eq!(tree.node(n6).interval, Interval::new(4, 25));
        assert_eq!(tree.node(n6).parent, n4);
    }
}
