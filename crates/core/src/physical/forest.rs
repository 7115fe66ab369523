//! The Δ-PATH index (Def. 22): a forest of spanning trees over
//! (vertex, DFA-state) pairs, with an inverted index for the arrival probe.
//!
//! Each tree `T_x` (Def. 21) compactly represents all valid path segments
//! from vertex `x` under the PATH operator's RPQ: node `(u, s)` is present
//! iff some path `x → u` spells a word `w` with `δ*(s₀, w) = s`. Among the
//! (possibly infinitely many) such paths, the node materialises the one
//! with the **largest expiry timestamp**, whose edges are recovered by
//! following parent pointers. Both PATH implementations (S-PATH §6.2.4 and
//! the negative-tuple variant of \[57\] §6.2.3) share this structure.
//!
//! # What the window bounds
//!
//! Every structure here is sized by what the window holds, not by what
//! the stream has ever carried:
//!
//! * **Purge costs what expires.** Every write of a node interval goes
//!   through [`Forest::insert_child`] or [`Forest::set_interval`], which
//!   file a `(tree, node)` handle under the new expiry in an
//!   `ExpiryIndex`. [`Forest::purge`] pops the keys at or below the
//!   watermark and looks at nothing else. Handles are never cancelled:
//!   one is honoured only if its slot holds a live node that is expired
//!   *now*. A handle whose node was improved, removed, or whose slot (or
//!   whose whole tree slot) was reused therefore costs one check — and if
//!   the slot's new occupant happens to be expired as well, reclaiming it
//!   is correct for that occupant. No generation counter is needed, and
//!   the purge reclaims exactly the nodes a top-down walk of every tree
//!   would (children never outlive parents, so the expired nodes and
//!   their subtrees are the same set).
//! * **Empty trees are retired, their slots recycled.** A tree left with
//!   nothing but its root loses its `by_root` and inverted-index entries
//!   and its slot goes on a free list that [`Forest::ensure_tree`] pops
//!   first (arena allocations travel with the slot). After any purge no
//!   root-only tree exists. Retirement happens **only inside
//!   [`Forest::purge`]**: between purges operators hold `TreeId`s in
//!   their seed and dirty lists, and a tree emptied mid-epoch (explicit
//!   deletion, stale-subtree reclaim) is routinely refilled by the same
//!   epoch. Such a tree — and every newly created one, which may never
//!   receive a child — is noted on a candidate list the next purge
//!   drains, so finding the empty trees never means visiting all trees.
//!   A root that returns after retirement gets a fresh tree.

use sgq_automata::StateId;
use sgq_types::{Edge, FxHashMap, FxHashSet, Interval, PathSeq, Timestamp, VertexId};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

// Send audit: the forest arena is PATH-operator state and travels with its
// operator onto worker-pool threads. `PathSeq` payloads are `Arc`-shared
// (`Send + Sync`), tree/node links and expiry handles are plain indexes.
const _: () = super::assert_send::<Forest>();

/// Index of a node inside its tree's arena.
pub type NodeIdx = u32;

/// Sentinel parent for roots.
pub const NO_PARENT: NodeIdx = u32::MAX;

/// Sentinel for absent sibling/child links.
const NIL: NodeIdx = u32::MAX;

/// A tree identifier (index into the forest arena). Slots are recycled:
/// an id is only meaningful until the next [`Forest::purge`].
pub type TreeId = u32;

/// Handles filed under the expiry they were written with: what a purge
/// has to look at. Window expiries sit on the slide grid, so the map holds
/// at most `W/β + 1` keys; a purge pops the due ones and touches nothing
/// else. Handles are never cancelled — the owner re-checks each popped
/// handle against the live state (see the module docs).
#[derive(Debug)]
pub(super) struct ExpiryIndex<H> {
    due: BTreeMap<Timestamp, Vec<H>>,
}

impl<H> Default for ExpiryIndex<H> {
    fn default() -> Self {
        ExpiryIndex {
            due: BTreeMap::new(),
        }
    }
}

impl<H> ExpiryIndex<H> {
    /// Files `handle` under `exp`.
    pub(super) fn register(&mut self, exp: Timestamp, handle: H) {
        self.due.entry(exp).or_default().push(handle);
    }

    /// Pops the handles of the earliest expiry if it is `<= watermark`.
    pub(super) fn pop_due(&mut self, watermark: Timestamp) -> Option<Vec<H>> {
        let first = self.due.first_entry()?;
        (*first.key() <= watermark).then(|| first.remove())
    }

    /// Handles not yet popped.
    pub(super) fn pending(&self) -> usize {
        self.due.values().map(Vec::len).sum()
    }
}

/// A spanning-tree node `(v, state)` with its materialised path segment's
/// validity and tree links.
///
/// Children are an intrusive doubly-linked sibling list
/// (`first_child`/`next_sib`/`prev_sib`) rather than a per-node `Vec`, so
/// Expand/Propagate never touch the allocator and `reparent` unlinks in
/// O(1) instead of scanning the old parent's child list.
#[derive(Debug, Clone)]
pub struct Node {
    /// Graph vertex.
    pub v: VertexId,
    /// DFA state `δ*(s₀, path label)`.
    pub state: StateId,
    /// Validity of the materialised (max-expiry) path segment.
    pub interval: Interval,
    /// Parent node, or [`NO_PARENT`] for the root.
    pub parent: NodeIdx,
    /// The edge from the parent's vertex to `v` (None for the root).
    pub edge: Option<Edge>,
    /// Head of the intrusive child list.
    first_child: NodeIdx,
    /// Next sibling under the same parent.
    next_sib: NodeIdx,
    /// Previous sibling under the same parent.
    prev_sib: NodeIdx,
    /// False once removed (arena slots are recycled via the free list).
    pub alive: bool,
}

/// One spanning tree `T_x`. Read-only from outside: every mutation goes
/// through [`Forest`], which keeps the inverted index, the size counter
/// and the expiry index in step.
#[derive(Debug)]
pub struct Tree {
    /// The root vertex `x`.
    pub root: VertexId,
    /// Node arena; empty while the tree's slot is retired.
    nodes: Vec<Node>,
    index: FxHashMap<(VertexId, StateId), NodeIdx>,
    free: Vec<NodeIdx>,
}

impl Tree {
    fn new(root: VertexId, start_state: StateId) -> Self {
        let mut tree = Tree {
            root,
            nodes: Vec::new(),
            index: FxHashMap::default(),
            free: Vec::new(),
        };
        tree.reset(root, start_state);
        tree
    }

    /// Re-roots a retired (or new) slot at `root`, keeping allocations.
    fn reset(&mut self, root: VertexId, start_state: StateId) {
        self.clear();
        self.root = root;
        self.nodes.push(Node {
            v: root,
            state: start_state,
            // The root is the empty path at x: always valid (Def. 21).
            interval: Interval::new(0, sgq_types::TS_MAX),
            parent: NO_PARENT,
            edge: None,
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
            alive: true,
        });
        self.index.insert((root, start_state), 0);
    }

    /// Empties the arena (a retired slot holds no node, so every stale
    /// expiry handle into it fails its liveness check).
    fn clear(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.free.clear();
    }

    /// The root node index (always 0).
    pub fn root_idx(&self) -> NodeIdx {
        0
    }

    /// Looks up the node for `(v, state)`.
    pub fn get(&self, v: VertexId, state: StateId) -> Option<NodeIdx> {
        self.index.get(&(v, state)).copied()
    }

    /// Borrowed node access.
    pub fn node(&self, i: NodeIdx) -> &Node {
        &self.nodes[i as usize]
    }

    /// Links `idx` at the head of `parent`'s child list.
    fn link_child(&mut self, parent: NodeIdx, idx: NodeIdx) {
        let head = self.nodes[parent as usize].first_child;
        self.nodes[idx as usize].next_sib = head;
        self.nodes[idx as usize].prev_sib = NIL;
        if head != NIL {
            self.nodes[head as usize].prev_sib = idx;
        }
        self.nodes[parent as usize].first_child = idx;
    }

    /// Unlinks `idx` from its parent's child list in O(1).
    fn unlink_child(&mut self, idx: NodeIdx) {
        let (parent, prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.parent, n.prev_sib, n.next_sib)
        };
        if prev != NIL {
            self.nodes[prev as usize].next_sib = next;
        } else if parent != NO_PARENT {
            self.nodes[parent as usize].first_child = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sib = prev;
        }
        let n = &mut self.nodes[idx as usize];
        n.prev_sib = NIL;
        n.next_sib = NIL;
    }

    /// Iterates over the direct children of `node`.
    pub fn children(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        let mut cur = self.nodes[node as usize].first_child;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let out = cur;
            cur = self.nodes[cur as usize].next_sib;
            Some(out)
        })
    }

    fn insert_child(
        &mut self,
        parent: NodeIdx,
        v: VertexId,
        state: StateId,
        edge: Edge,
        interval: Interval,
    ) -> NodeIdx {
        debug_assert!(self.get(v, state).is_none(), "node already present");
        let node = Node {
            v,
            state,
            interval,
            parent,
            edge: Some(edge),
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
            alive: true,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as NodeIdx
            }
        };
        self.link_child(parent, idx);
        self.index.insert((v, state), idx);
        idx
    }

    fn reparent(&mut self, node: NodeIdx, new_parent: NodeIdx, edge: Edge) {
        self.unlink_child(node);
        self.nodes[node as usize].parent = new_parent;
        self.nodes[node as usize].edge = Some(edge);
        self.link_child(new_parent, node);
    }

    /// Removes the subtree rooted at `node`, appending every removed
    /// `(vertex, state)` pair to `removed`. `stack` is caller-owned
    /// scratch, left empty.
    fn remove_subtree(
        &mut self,
        node: NodeIdx,
        removed: &mut Vec<(VertexId, StateId)>,
        stack: &mut Vec<NodeIdx>,
    ) {
        // Detach from the parent first.
        self.unlink_child(node);
        stack.push(node);
        while let Some(i) = stack.pop() {
            if !self.nodes[i as usize].alive {
                continue;
            }
            let mut c = self.nodes[i as usize].first_child;
            while c != NIL {
                stack.push(c);
                c = self.nodes[c as usize].next_sib;
            }
            let n = &mut self.nodes[i as usize];
            n.alive = false;
            n.first_child = NIL;
            let key = (n.v, n.state);
            self.index.remove(&key);
            removed.push(key);
            self.free.push(i);
        }
    }

    /// Reconstructs the materialised path from the root to `node` by
    /// following parent pointers (cost O(path length), §6.2.4).
    pub fn path_to(&self, node: NodeIdx) -> PathSeq {
        let mut edges = Vec::new();
        let mut cur = node;
        while cur != NO_PARENT {
            let n = &self.nodes[cur as usize];
            if let Some(e) = n.edge {
                edges.push(e);
            }
            cur = n.parent;
        }
        edges.reverse();
        PathSeq::new(edges)
    }

    /// Live non-root node count.
    pub fn live_nodes(&self) -> usize {
        self.index.len().saturating_sub(1)
    }

    /// Iterates over live node indexes (including the root).
    pub fn iter_live(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.index.values().copied()
    }
}

/// Occupancy of a [`Forest`]'s slots and indexes, for asserting that they
/// track the window and not the stream (`tests/bounded_state.rs`).
/// Computed by a full scan: a test and diagnostics surface, not a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestCensus {
    /// Tree slots ever allocated (live + retired).
    pub tree_slots: usize,
    /// Trees with a root (`tree_slots` minus the free list).
    pub live_trees: usize,
    /// Live trees holding nothing but their root — zero after a purge.
    pub root_only_trees: usize,
    /// Arena slots across live trees, roots and freed slots included.
    pub node_slots: usize,
    /// Live non-root nodes ([`Forest::size`]).
    pub live_nodes: usize,
    /// Entries of the root → tree map (equals `live_trees`).
    pub by_root: usize,
    /// Keys of the inverted index.
    pub inverted_keys: usize,
    /// Inverted-index keys whose tree set is empty (always zero).
    pub inverted_empty: usize,
    /// Expiry handles not yet popped by a purge.
    pub expiry_handles: usize,
    /// Trees noted for the next purge's retirement check.
    pub retire_candidates: usize,
}

/// The Δ-PATH forest with its inverted index from `(vertex, state)` to the
/// trees containing that node (Def. 22: "a hash-based inverted index …
/// enabling quick look-up to locate all spanning trees that contain a
/// particular vertex-state pair").
#[derive(Debug, Default)]
pub struct Forest {
    /// Tree slab; a retired slot holds an empty arena and sits in
    /// `free_trees`.
    trees: Vec<Tree>,
    free_trees: Vec<TreeId>,
    by_root: FxHashMap<VertexId, TreeId>,
    inverted: FxHashMap<(VertexId, StateId), FxHashSet<TreeId>>,
    start_state: StateId,
    /// Live non-root nodes across all trees.
    live_nodes: usize,
    expiry: ExpiryIndex<(TreeId, NodeIdx)>,
    /// Trees that were root-only at some point since the last purge.
    maybe_empty: Vec<TreeId>,
    /// Scratch of `remove_subtree`.
    removed: Vec<(VertexId, StateId)>,
    stack: Vec<NodeIdx>,
}

impl Forest {
    /// Creates an empty forest for a DFA with the given start state.
    pub fn new(start_state: StateId) -> Self {
        Forest {
            start_state,
            ..Default::default()
        }
    }

    /// Returns the tree rooted at `x`, creating it if absent (Algorithm
    /// S-PATH lines 7–8). A new tree takes a retired slot if there is one.
    pub fn ensure_tree(&mut self, x: VertexId) -> TreeId {
        if let Some(&t) = self.by_root.get(&x) {
            return t;
        }
        let id = match self.free_trees.pop() {
            Some(id) => {
                self.trees[id as usize].reset(x, self.start_state);
                id
            }
            None => {
                self.trees.push(Tree::new(x, self.start_state));
                (self.trees.len() - 1) as TreeId
            }
        };
        self.by_root.insert(x, id);
        self.inverted
            .entry((x, self.start_state))
            .or_default()
            .insert(id);
        // It may never get a child (a late, already expired edge).
        self.maybe_empty.push(id);
        id
    }

    /// The tree rooted at `x`, if any.
    pub fn tree_of_root(&self, x: VertexId) -> Option<TreeId> {
        self.by_root.get(&x).copied()
    }

    /// Trees containing node `(v, state)` — the `ExpandableTrees` probe.
    /// The order is the inverted index's and carries no meaning; callers
    /// whose output order matters sort by root vertex.
    pub fn trees_with(&self, v: VertexId, state: StateId) -> impl Iterator<Item = TreeId> + '_ {
        self.inverted
            .get(&(v, state))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Borrowed tree access.
    pub fn tree(&self, t: TreeId) -> &Tree {
        &self.trees[t as usize]
    }

    /// Inserts `(v, state)` into tree `t` as a child of `parent` with the
    /// given derivation edge and interval (Algorithm Expand), returning
    /// its index.
    pub fn insert_child(
        &mut self,
        t: TreeId,
        parent: NodeIdx,
        v: VertexId,
        state: StateId,
        edge: Edge,
        interval: Interval,
    ) -> NodeIdx {
        let idx = self.trees[t as usize].insert_child(parent, v, state, edge, interval);
        self.inverted.entry((v, state)).or_default().insert(t);
        self.live_nodes += 1;
        self.expiry.register(interval.exp, (t, idx));
        idx
    }

    /// Overwrites the interval of a non-root node. The node's earlier
    /// handle stays filed under the old expiry and will fail its check.
    pub fn set_interval(&mut self, t: TreeId, node: NodeIdx, interval: Interval) {
        let n = &mut self.trees[t as usize].nodes[node as usize];
        debug_assert!(n.alive && n.parent != NO_PARENT, "live non-root node");
        let moved = n.interval.exp != interval.exp;
        n.interval = interval;
        // A ts-only widening is already filed under this expiry.
        if moved {
            self.expiry.register(interval.exp, (t, node));
        }
    }

    /// Re-attaches `node` under `new_parent` with a new derivation edge
    /// (Algorithm Propagate line 2).
    pub fn reparent(&mut self, t: TreeId, node: NodeIdx, new_parent: NodeIdx, edge: Edge) {
        self.trees[t as usize].reparent(node, new_parent, edge);
    }

    /// Removes the subtree at the non-root `node` of tree `t`, maintaining
    /// the inverted index. Returns the number of nodes removed. A tree
    /// this leaves root-only is retired by the next [`Forest::purge`],
    /// not here.
    pub fn remove_subtree(&mut self, t: TreeId, node: NodeIdx) -> usize {
        debug_assert!(node != self.trees[t as usize].root_idx(), "roots retire");
        let mut removed = std::mem::take(&mut self.removed);
        self.trees[t as usize].remove_subtree(node, &mut removed, &mut self.stack);
        for key in &removed {
            self.unindex(*key, t);
        }
        let count = removed.len();
        self.live_nodes -= count;
        removed.clear();
        self.removed = removed;
        if self.trees[t as usize].live_nodes() == 0 {
            self.maybe_empty.push(t);
        }
        count
    }

    /// Drops `t` from the inverted entry of `key`, and the entry with its
    /// last tree.
    fn unindex(&mut self, key: (VertexId, StateId), t: TreeId) {
        if let Entry::Occupied(mut trees) = self.inverted.entry(key) {
            trees.get_mut().remove(&t);
            if trees.get().is_empty() {
                trees.remove();
            }
        }
    }

    /// Reclaims every node whose interval expired at `watermark` (the
    /// direct approach of S-PATH: children expire no later than parents,
    /// so whole subtrees go at once), in time proportional to the handles
    /// filed at or below `watermark`; then retires the trees left with
    /// nothing but their root. Afterwards no root-only tree exists,
    /// `by_root` has one entry per live tree and no inverted entry is
    /// empty. See the module docs for the stale-handle rule and for why
    /// retirement happens only here.
    pub fn purge(&mut self, watermark: Timestamp) {
        self.reclaim_expired(watermark);
        self.retire_empty();
        debug_assert_eq!(
            self.live_nodes,
            self.trees.iter().map(Tree::live_nodes).sum::<usize>(),
            "maintained node count drifted"
        );
    }

    fn reclaim_expired(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for (t, i) in due {
                let expired = self.trees[t as usize]
                    .nodes
                    .get(i as usize)
                    .is_some_and(|n| n.alive && n.interval.expired_at(watermark));
                if expired {
                    self.remove_subtree(t, i);
                }
            }
        }
    }

    /// Retires the candidates that are still root-only: drops their
    /// `by_root` and inverted entries and frees their slots.
    fn retire_empty(&mut self) {
        while let Some(t) = self.maybe_empty.pop() {
            let tree = &mut self.trees[t as usize];
            // Retired already (0 nodes) or refilled since it was noted.
            if tree.index.len() != 1 {
                continue;
            }
            let root = tree.root;
            tree.clear();
            self.by_root.remove(&root);
            self.unindex((root, self.start_state), t);
            self.free_trees.push(t);
        }
    }

    /// Total live (non-root) nodes across all trees.
    pub fn size(&self) -> usize {
        self.live_nodes
    }

    /// Iterates over the ids of live trees, ascending.
    pub fn tree_ids(&self) -> impl Iterator<Item = TreeId> + '_ {
        (0..self.trees.len() as TreeId).filter(|&t| !self.trees[t as usize].nodes.is_empty())
    }

    /// Counts slots and index entries (full scan).
    pub fn census(&self) -> ForestCensus {
        let live = || self.trees.iter().filter(|t| !t.nodes.is_empty());
        ForestCensus {
            tree_slots: self.trees.len(),
            live_trees: live().count(),
            root_only_trees: live().filter(|t| t.live_nodes() == 0).count(),
            node_slots: live().map(|t| t.nodes.len()).sum(),
            live_nodes: self.live_nodes,
            by_root: self.by_root.len(),
            inverted_keys: self.inverted.len(),
            inverted_empty: self.inverted.values().filter(|s| s.is_empty()).count(),
            expiry_handles: self.expiry.pending(),
            retire_candidates: self.maybe_empty.len(),
        }
    }

    /// The purge this module replaced: a top-down walk of every live tree.
    /// Kept as the reference of the differential tests.
    #[cfg(test)]
    pub(crate) fn purge_by_walk(&mut self, watermark: Timestamp) {
        for t in self.tree_ids().collect::<Vec<_>>() {
            let mut expired: Vec<NodeIdx> = Vec::new();
            let tree = &self.trees[t as usize];
            let mut stack = vec![tree.root_idx()];
            while let Some(i) = stack.pop() {
                if tree.node(i).interval.expired_at(watermark) {
                    expired.push(i);
                } else {
                    stack.extend(tree.children(i));
                }
            }
            for i in expired {
                self.remove_subtree(t, i);
            }
        }
        while self.expiry.pop_due(watermark).is_some() {}
        self.retire_empty();
    }

    /// The mutation the bounded-state tests must catch: expired nodes are
    /// reclaimed, empty trees are kept.
    #[cfg(test)]
    pub(crate) fn purge_keeping_empty_trees(&mut self, watermark: Timestamp) {
        self.reclaim_expired(watermark);
        self.maybe_empty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::Label;

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    fn e(s: u64, t: u64) -> Edge {
        Edge::new(v(s), v(t), Label(0))
    }

    fn iv(ts: u64, exp: u64) -> Interval {
        Interval::new(ts, exp)
    }

    /// A tree rooted at `root` with one child `(child, 1)`.
    fn tree_with_child(f: &mut Forest, root: u64, child: u64, interval: Interval) -> TreeId {
        let t = f.ensure_tree(v(root));
        f.insert_child(t, 0, v(child), 1, e(root, child), interval);
        t
    }

    #[test]
    fn ensure_tree_is_idempotent() {
        let mut f = Forest::new(0);
        let a = f.ensure_tree(v(1));
        let b = f.ensure_tree(v(1));
        assert_eq!(a, b);
        assert_eq!(f.trees_with(v(1), 0).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn insert_and_path_reconstruction() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let root = f.tree(t).root_idx();
        let n2 = f.insert_child(t, root, v(2), 1, e(1, 2), iv(0, 10));
        let n3 = f.insert_child(t, n2, v(3), 1, e(2, 3), iv(2, 8));
        let p = f.tree(t).path_to(n3);
        assert_eq!(p.edges(), &[e(1, 2), e(2, 3)]);
        assert_eq!(p.src(), v(1));
        assert_eq!(p.dst(), v(3));
        assert_eq!(f.trees_with(v(3), 1).collect::<Vec<_>>(), vec![t]);
    }

    #[test]
    fn remove_subtree_cleans_index() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let n2 = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 10));
        f.insert_child(t, n2, v(3), 1, e(2, 3), iv(0, 10));
        assert_eq!(f.remove_subtree(t, n2), 2);
        assert!(f.tree(t).get(v(2), 1).is_none());
        assert!(f.tree(t).get(v(3), 1).is_none());
        assert_eq!(f.trees_with(v(3), 1).count(), 0);
        assert_eq!(f.size(), 0);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let n2 = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 10));
        f.remove_subtree(t, n2);
        let n3 = f.insert_child(t, 0, v(3), 1, e(1, 3), iv(0, 10));
        assert_eq!(n2, n3, "freed slot reused");
    }

    #[test]
    fn reparent_moves_children_lists() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 10));
        let b = f.insert_child(t, 0, v(3), 1, e(1, 3), iv(0, 10));
        let c = f.insert_child(t, a, v(4), 1, e(2, 4), iv(0, 10));
        f.reparent(t, c, b, e(3, 4));
        assert_eq!(f.tree(t).children(a).count(), 0);
        assert_eq!(f.tree(t).children(b).collect::<Vec<_>>(), vec![c]);
        assert_eq!(f.tree(t).node(c).edge, Some(e(3, 4)));
        let p = f.tree(t).path_to(c);
        assert_eq!(p.edges(), &[e(1, 3), e(3, 4)]);
    }

    #[test]
    fn purge_removes_expired_subtrees() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 5));
        f.insert_child(t, a, v(3), 1, e(2, 3), iv(0, 4));
        let c = f.insert_child(t, 0, v(4), 1, e(1, 4), iv(0, 9));
        f.purge(5);
        assert!(f.tree(t).get(v(2), 1).is_none());
        assert!(f.tree(t).get(v(3), 1).is_none());
        assert_eq!(f.tree(t).get(v(4), 1), Some(c));
        assert_eq!(f.size(), 1);
        assert_eq!(f.census().expiry_handles, 1, "only the live node's handle");
    }

    #[test]
    fn a_root_with_live_children_is_never_retired() {
        let mut f = Forest::new(0);
        let t = tree_with_child(&mut f, 1, 2, iv(0, 2_000_000));
        f.insert_child(t, 0, v(3), 1, e(1, 3), iv(0, 10));
        f.purge(1_000_000);
        assert_eq!(f.tree_of_root(v(1)), Some(t));
        assert!(f.tree(t).get(v(1), 0).is_some());
        assert!(f.tree(t).get(v(2), 1).is_some());
        assert!(f.tree(t).get(v(3), 1).is_none());
        assert_eq!(f.tree_ids().collect::<Vec<_>>(), vec![t]);
    }

    #[test]
    fn purge_retires_root_only_trees_and_recycles_their_slots() {
        let mut f = Forest::new(0);
        let t1 = tree_with_child(&mut f, 1, 2, iv(0, 5));
        let t2 = tree_with_child(&mut f, 3, 4, iv(0, 50));
        f.purge(5);
        assert_eq!(f.tree_of_root(v(1)), None);
        assert_eq!(f.trees_with(v(1), 0).count(), 0, "root left the index");
        assert_eq!(f.tree_ids().collect::<Vec<_>>(), vec![t2]);
        let c = f.census();
        assert_eq!((c.tree_slots, c.live_trees, c.by_root), (2, 1, 1));
        assert_eq!((c.root_only_trees, c.inverted_empty), (0, 0));
        // The next new root takes the retired slot instead of a third one.
        let t3 = tree_with_child(&mut f, 7, 8, iv(6, 60));
        assert_eq!(t3, t1);
        assert_eq!(f.census().tree_slots, 2);
        assert_eq!(f.tree(t3).root, v(7));
    }

    #[test]
    fn a_returning_root_gets_a_fresh_empty_tree() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 5));
        f.insert_child(t, a, v(3), 1, e(2, 3), iv(0, 5));
        f.purge(5);
        assert_eq!(f.tree_of_root(v(1)), None);
        let again = f.ensure_tree(v(1));
        let tree = f.tree(again);
        assert_eq!(tree.root, v(1));
        assert_eq!(tree.live_nodes(), 0);
        assert_eq!(tree.iter_live().collect::<Vec<_>>(), vec![tree.root_idx()]);
        assert_eq!(tree.children(tree.root_idx()).count(), 0);
        assert!(tree.get(v(2), 1).is_none());
    }

    #[test]
    fn a_tree_that_never_gets_a_child_is_retired_by_the_next_purge() {
        let mut f = Forest::new(0);
        f.ensure_tree(v(1));
        assert_eq!(f.census().root_only_trees, 1);
        f.purge(0);
        let c = f.census();
        assert_eq!((c.live_trees, c.by_root, c.inverted_keys), (0, 0, 0));
    }

    #[test]
    fn a_tree_emptied_between_purges_keeps_its_id_until_the_next_one() {
        let mut f = Forest::new(0);
        let t = tree_with_child(&mut f, 1, 2, iv(0, 50));
        f.purge(1);
        let n = f.tree(t).get(v(2), 1).unwrap();
        f.remove_subtree(t, n);
        // Emptied mid-epoch: still addressable, still probed.
        assert_eq!(f.tree_of_root(v(1)), Some(t));
        assert_eq!(f.trees_with(v(1), 0).collect::<Vec<_>>(), vec![t]);
        // Refilled before the purge: the candidate note is void.
        f.insert_child(t, 0, v(5), 1, e(1, 5), iv(2, 60));
        f.purge(2);
        assert_eq!(f.tree_of_root(v(1)), Some(t));
        let n = f.tree(t).get(v(5), 1).unwrap();
        f.remove_subtree(t, n);
        f.purge(3);
        assert_eq!(f.tree_of_root(v(1)), None);
    }

    #[test]
    fn stale_handles_cost_one_check_and_reclaim_nothing_live() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        // Improved: the handle under 5 is stale, the node lives to 20.
        let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 5));
        f.set_interval(t, a, iv(0, 20));
        // Removed and its slot reused by a longer-lived node.
        let b = f.insert_child(t, 0, v(3), 1, e(1, 3), iv(0, 5));
        f.remove_subtree(t, b);
        let c = f.insert_child(t, 0, v(4), 1, e(1, 4), iv(0, 30));
        assert_eq!(b, c);
        // A whole tree retired, its slot reused with a longer-lived node.
        let t2 = tree_with_child(&mut f, 8, 9, iv(0, 4));
        f.purge(4);
        assert_eq!(f.tree_of_root(v(8)), None);
        assert_eq!(tree_with_child(&mut f, 10, 11, iv(4, 40)), t2);
        f.purge(5);
        assert_eq!(f.size(), 3);
        assert_eq!(f.tree(t).node(a).interval, iv(0, 20));
        assert!(f.tree(t).get(v(4), 1).is_some());
        assert!(f.tree(t2).get(v(11), 1).is_some());
        assert_eq!(f.census().expiry_handles, 3);
        // A ts-only widening files nothing new.
        f.set_interval(t, a, iv(0, 20));
        assert_eq!(f.census().expiry_handles, 3);
    }

    #[test]
    fn size_is_a_maintained_count_of_live_non_root_nodes() {
        let mut f = Forest::new(0);
        assert_eq!(f.size(), 0);
        let t = f.ensure_tree(v(1));
        assert_eq!(f.size(), 0, "roots do not count");
        let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 10));
        let b = f.insert_child(t, a, v(3), 1, e(2, 3), iv(0, 6));
        f.insert_child(t, b, v(4), 1, e(3, 4), iv(0, 6));
        assert_eq!(f.size(), 3);
        f.set_interval(t, a, iv(0, 12));
        assert_eq!(f.size(), 3, "an improvement is not a new entry");
        tree_with_child(&mut f, 5, 6, iv(0, 8));
        assert_eq!(f.size(), 4);
        f.purge(6);
        assert_eq!(f.size(), 2, "b and its child expired");
        f.remove_subtree(t, a);
        assert_eq!(f.size(), 1);
        f.purge(8);
        assert_eq!(f.size(), 0);
        assert_eq!(f.tree_of_root(v(5)), None);
        assert_eq!(f.census().live_nodes, 0);
    }

    #[test]
    fn index_purge_equals_the_walk() {
        // Same operations on two forests; one purges through the expiry
        // index, the other by the top-down walk.
        let build = || {
            let mut f = Forest::new(0);
            let t = f.ensure_tree(v(1));
            let a = f.insert_child(t, 0, v(2), 1, e(1, 2), iv(0, 9));
            let b = f.insert_child(t, a, v(3), 1, e(2, 3), iv(1, 6));
            f.insert_child(t, b, v(4), 1, e(3, 4), iv(2, 6));
            f.insert_child(t, a, v(5), 1, e(2, 5), iv(2, 9));
            tree_with_child(&mut f, 6, 7, iv(0, 3));
            f.set_interval(t, b, iv(1, 7));
            f
        };
        let live = |f: &Forest| {
            let mut nodes = Vec::new();
            for t in f.tree_ids() {
                let tree = f.tree(t);
                for i in tree.iter_live() {
                    let n = tree.node(i);
                    nodes.push((tree.root, n.v, n.state, n.interval));
                }
            }
            nodes.sort();
            nodes
        };
        let (mut by_index, mut by_walk) = (build(), build());
        for w in [3, 6, 7, 9] {
            by_index.purge(w);
            by_walk.purge_by_walk(w);
            assert_eq!(live(&by_index), live(&by_walk), "watermark {w}");
            assert_eq!(by_index.census(), by_walk.census(), "watermark {w}");
        }
        assert_eq!(by_index.census().live_trees, 0);
    }
}
