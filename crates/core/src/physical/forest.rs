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
//! # Layout
//!
//! Every tree's nodes live in **one node slab** per forest, with an
//! intrusive free list. One open-addressing index over slab ids
//! (`physical/row_index.rs`) maps each `(vertex, state)` to the first of its
//! nodes, and the nodes of one `(vertex, state)` — one per tree holding it
//! — are chained through a link inside the node, in ascending tree id.
//! That chain is the paper's inverted index: [`Forest::trees_with`] walks
//! it and hands out each tree's node with its tree, and
//! [`TreeView::get`] is the same walk, stopped at the tree asked for.
//! Roots are nodes `(x, s₀)` like any other, so [`Forest::tree_of_root`]
//! is a walk of the `(x, s₀)` chain. A lookup, a link and an unlink
//! therefore cost a walk of at most the trees holding their key: a hub
//! vertex that K trees reach costs O(K) per probe. On the SO-like `a2q*`
//! stream (3 000 users, W = 2 000, one DFA state, so every root shares
//! its chain) the longest chain seen was 30 nodes and the chain a node
//! sits in held 2.2 on average ([`ForestCensus::longest_chain`] reports
//! the first). A tree slot is its root's slab id
//! and nothing else, so it never keeps capacity one of its former
//! occupants needed. Nothing is allocated per node, per key or per tree.
//!
//! # What the window bounds
//!
//! Entries follow the window; bytes follow the most the window has held
//! at once, across the whole forest (a freed slab slot or index slot is
//! reused by the next node of *any* tree, never returned): a 56-byte slab
//! node per live node or root, an 8-byte index slot per live
//! `(vertex, state)` at most 3/4 full, a 4-byte tree slot per live tree,
//! and an 8-byte expiry handle per interval write not yet popped.
//! [`ForestCensus::reserved_bytes`] counts them.
//!
//! * **Purge costs what expires.** Every write of a node interval goes
//!   through [`Forest::insert_child`] or [`Forest::set_interval`], which
//!   file a `(tree, node)` handle under the new expiry in an
//!   `ExpiryIndex`. [`Forest::purge`] pops the keys at or below the
//!   watermark and looks at nothing else. Handles are never cancelled:
//!   one is honoured only if its slab slot holds a live node *of that
//!   tree* that is expired *now*. A handle whose node was improved,
//!   removed, or whose slot (or whose whole tree slot) was reused
//!   therefore costs one check — and if the slot's new occupant in the
//!   same tree happens to be expired as well, reclaiming it is correct for
//!   that occupant. No generation counter is needed, and the purge
//!   reclaims exactly the nodes a top-down walk of every tree would
//!   (children never outlive parents, so the expired nodes and their
//!   subtrees are the same set).
//! * **Empty trees are retired, their slots recycled.** A tree left with
//!   nothing but its root loses its root node — and with it its entry in
//!   the `(x, s₀)` chain — and its tree slot goes on a free list that
//!   [`Forest::ensure_tree`] pops first. After any purge no root-only
//!   tree exists. Retirement happens **only inside [`Forest::purge`]**:
//!   between purges operators hold `TreeId`s in their seed and dirty
//!   lists, and a tree emptied mid-epoch (explicit deletion, stale-subtree
//!   reclaim) is routinely refilled by the same epoch. Such a tree — and
//!   every newly created one, which may never receive a child — is noted
//!   on a candidate list the next purge drains, so finding the empty trees
//!   never means visiting all trees. A root that returns after retirement
//!   gets a fresh tree.

use super::row_index::{hash_words, RowIndex, NIL};
use sgq_automata::StateId;
use sgq_types::{Edge, Interval, Label, PathSeq, Timestamp, VertexId};
use std::collections::BTreeMap;
use std::mem::size_of;

// Send audit: the forest is PATH-operator state and travels with its
// operator onto worker-pool threads. Everything in it is owned; tree and
// node links and expiry handles are plain indexes.
const _: () = super::assert_send::<Forest>();

// The layout's point: a node, its `(vertex, state)` chain link included,
// is 56 bytes.
const _: () = assert!(size_of::<Node>() <= 56);

/// Index of a node in its forest's node slab.
pub type NodeIdx = u32;

/// Sentinel parent for roots.
pub const NO_PARENT: NodeIdx = u32::MAX;

/// A tree identifier (index into the forest's tree slots). Slots are
/// recycled: an id is only meaningful until the next [`Forest::purge`].
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

    /// Bytes reserved: one `(key, list)` per key (B-tree node overhead
    /// not counted) plus each list's capacity.
    pub(super) fn reserved_bytes(&self) -> usize {
        self.due.len() * size_of::<(Timestamp, Vec<H>)>()
            + self
                .due
                .values()
                .map(|hs| hs.capacity() * size_of::<H>())
                .sum::<usize>()
    }
}

/// A spanning-tree node `(v, state)` with its materialised path segment's
/// validity and tree links: one slot of the forest's node slab.
///
/// Children are an intrusive doubly-linked sibling list
/// (`first_child`/`next_sib`/`prev_sib`) rather than a per-node `Vec`, so
/// Expand/Propagate never touch the allocator and `reparent` unlinks in
/// O(1) instead of scanning the old parent's child list. A free slot has
/// no tree and links the slab's free list through `next_sib`.
#[derive(Debug, Clone)]
pub struct Node {
    /// Graph vertex.
    pub v: VertexId,
    /// Validity of the materialised (max-expiry) path segment.
    pub interval: Interval,
    /// DFA state `δ*(s₀, path label)`.
    pub state: StateId,
    /// Label of the derivation edge `(parent.v, v)`; meaningless for a
    /// root. [`TreeView::edge`] rebuilds the edge.
    pub label: Label,
    /// Parent node, or [`NO_PARENT`] for the root.
    pub parent: NodeIdx,
    /// The tree the slot belongs to, or [`NIL`] while it is free.
    tree: TreeId,
    /// Head of the intrusive child list.
    first_child: NodeIdx,
    /// Next sibling under the same parent (next free slot when freed).
    next_sib: NodeIdx,
    /// Previous sibling under the same parent.
    prev_sib: NodeIdx,
    /// The next node of the same `(v, state)`, in ascending tree id.
    next_same: NodeIdx,
}

impl Node {
    /// False once removed (the slot is on the free list).
    pub fn alive(&self) -> bool {
        self.tree != NIL
    }
}

/// A borrowed, read-only view of one tree of a [`Forest`]. Every mutation
/// goes through [`Forest`], which keeps the index, the size counter and
/// the expiry index in step.
#[derive(Clone, Copy)]
pub struct TreeView<'a> {
    /// The root vertex `x`.
    pub root: VertexId,
    id: TreeId,
    root_idx: NodeIdx,
    forest: &'a Forest,
}

impl<'a> TreeView<'a> {
    /// The root's node index.
    pub fn root_idx(&self) -> NodeIdx {
        self.root_idx
    }

    /// Looks up the node for `(v, state)`: a walk of that key's chain up
    /// to this tree.
    pub fn get(&self, v: VertexId, state: StateId) -> Option<NodeIdx> {
        let nodes = &self.forest.nodes;
        self.forest
            .chain(v, state)
            .take_while(|&i| nodes[i as usize].tree <= self.id)
            .find(|&i| nodes[i as usize].tree == self.id)
    }

    /// Borrowed node access.
    pub fn node(&self, i: NodeIdx) -> &'a Node {
        &self.forest.nodes[i as usize]
    }

    /// The derivation edge of node `i`: from its parent's vertex to its
    /// own (`None` for the root).
    pub fn edge(&self, i: NodeIdx) -> Option<Edge> {
        let n = self.node(i);
        (n.parent != NO_PARENT).then(|| Edge::new(self.node(n.parent).v, n.v, n.label))
    }

    /// Iterates over the direct children of `node`.
    pub fn children(&self, node: NodeIdx) -> impl Iterator<Item = NodeIdx> + 'a {
        let nodes = &self.forest.nodes;
        let mut cur = nodes[node as usize].first_child;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let out = cur;
            cur = nodes[cur as usize].next_sib;
            Some(out)
        })
    }

    /// Reconstructs the materialised path from the root to `node` by
    /// following parent pointers (cost O(path length), §6.2.4).
    pub fn path_to(&self, node: NodeIdx) -> PathSeq {
        let mut edges = Vec::new();
        let mut cur = node;
        while let Some(e) = self.edge(cur) {
            edges.push(e);
            cur = self.node(cur).parent;
        }
        edges.reverse();
        PathSeq::new(edges)
    }

    /// Live non-root node count (a walk of the tree).
    pub fn live_nodes(&self) -> usize {
        self.iter_live().count() - 1
    }

    /// Whether the tree holds nothing but its root.
    fn is_root_only(&self) -> bool {
        self.node(self.root_idx).first_child == NIL
    }

    /// Iterates over live node indexes in pre-order, root first, by
    /// threading through parent and sibling links (no allocation).
    pub fn iter_live(&self) -> impl Iterator<Item = NodeIdx> + 'a {
        let (nodes, root) = (&self.forest.nodes, self.root_idx);
        std::iter::successors(Some(root), move |&i| {
            let first = nodes[i as usize].first_child;
            if first != NIL {
                return Some(first);
            }
            let mut cur = i;
            while cur != root {
                let n = &nodes[cur as usize];
                if n.next_sib != NIL {
                    return Some(n.next_sib);
                }
                cur = n.parent;
            }
            None
        })
    }
}

/// Occupancy of a [`Forest`]'s slots and index, for asserting that they
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
    /// Node slab slots, roots and free slots included.
    pub node_slots: usize,
    /// Live non-root nodes ([`Forest::size`]).
    pub live_nodes: usize,
    /// Live trees [`Forest::tree_of_root`] finds by their root vertex
    /// (equals `live_trees`).
    pub roots: usize,
    /// `(vertex, state)` keys of the node index.
    pub keys: usize,
    /// Nodes the index's chains reach, roots included (equals
    /// `live_nodes + live_trees`).
    pub indexed_nodes: usize,
    /// Nodes of the longest chain: the most trees holding one
    /// `(vertex, state)`.
    pub longest_chain: usize,
    /// Expiry handles not yet popped by a purge.
    pub expiry_handles: usize,
    /// Trees noted for the next purge's retirement check.
    pub retire_candidates: usize,
    /// Heap bytes reserved by every container the forest owns: capacity
    /// times slot size.
    pub reserved_bytes: usize,
}

#[cfg(test)]
impl ForestCensus {
    /// The census without its byte count, which also depends on the order
    /// entries were written and removed in: what twins fed the same
    /// operations but purged differently compare.
    pub(crate) fn occupancy(self) -> Self {
        ForestCensus {
            reserved_bytes: 0,
            ..self
        }
    }
}

/// The Δ-PATH forest with its inverted index from `(vertex, state)` to the
/// trees containing that node (Def. 22: "a hash-based inverted index …
/// enabling quick look-up to locate all spanning trees that contain a
/// particular vertex-state pair").
#[derive(Debug)]
pub struct Forest {
    /// Tree slots: each live tree's root node, [`NIL`] for a retired slot
    /// (which sits in `free_trees`).
    trees: Vec<NodeIdx>,
    free_trees: Vec<TreeId>,
    /// The node slab shared by all trees, and its free list's head.
    nodes: Vec<Node>,
    free_nodes: NodeIdx,
    /// `(vertex, state)` → the first node of its chain.
    index: RowIndex,
    start_state: StateId,
    /// Live non-root nodes across all trees.
    live_nodes: usize,
    expiry: ExpiryIndex<(TreeId, NodeIdx)>,
    /// Trees that were root-only at some point since the last purge.
    maybe_empty: Vec<TreeId>,
    /// Scratch of `remove_subtree`.
    stack: Vec<NodeIdx>,
}

fn key_hash(v: VertexId, state: StateId) -> u64 {
    hash_words([v.0, u64::from(state)])
}

impl Forest {
    /// Creates an empty forest for a DFA with the given start state.
    pub fn new(start_state: StateId) -> Self {
        Forest {
            trees: Vec::new(),
            free_trees: Vec::new(),
            nodes: Vec::new(),
            free_nodes: NIL,
            index: RowIndex::default(),
            start_state,
            live_nodes: 0,
            expiry: ExpiryIndex::default(),
            maybe_empty: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The index slot of `(v, state)`'s chain.
    fn head(&self, v: VertexId, state: StateId) -> Option<usize> {
        self.index.find(key_hash(v, state), |i| {
            let n = &self.nodes[i as usize];
            n.v == v && n.state == state
        })
    }

    /// The nodes of `(v, state)`, in ascending tree id.
    fn chain(&self, v: VertexId, state: StateId) -> impl Iterator<Item = NodeIdx> + '_ {
        self.chain_from(self.head(v, state).map(|s| self.index.row(s)))
    }

    /// The chain that starts at node `first`.
    fn chain_from(&self, first: Option<NodeIdx>) -> impl Iterator<Item = NodeIdx> + '_ {
        std::iter::successors(first, |&i| {
            Some(self.nodes[i as usize].next_same).filter(|&n| n != NIL)
        })
    }

    /// The length of every chain of the index (a full scan).
    fn chain_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.index
            .rows()
            .map(|first| self.chain_from(Some(first)).count())
    }

    /// Returns the tree rooted at `x`, creating it if absent (Algorithm
    /// S-PATH lines 7–8). A new tree takes a retired slot if there is one.
    pub fn ensure_tree(&mut self, x: VertexId) -> TreeId {
        if let Some(t) = self.tree_of_root(x) {
            return t;
        }
        let id = self.free_trees.pop().unwrap_or_else(|| {
            self.trees.push(NIL);
            (self.trees.len() - 1) as TreeId
        });
        // The root is the empty path at x: always valid (Def. 21).
        let always = Interval::new(0, sgq_types::TS_MAX);
        self.trees[id as usize] =
            self.alloc_node(id, NO_PARENT, x, self.start_state, Label(0), always);
        // It may never get a child (a late, already expired edge).
        self.maybe_empty.push(id);
        id
    }

    /// The tree rooted at `x`, if any: the root among `(x, s₀)`'s nodes.
    pub fn tree_of_root(&self, x: VertexId) -> Option<TreeId> {
        self.chain(x, self.start_state)
            .map(|i| &self.nodes[i as usize])
            .find(|n| n.parent == NO_PARENT)
            .map(|n| n.tree)
    }

    /// The trees containing node `(v, state)`, with that node — the
    /// `ExpandableTrees` probe — in ascending slot order, which carries no
    /// meaning: callers whose output order matters sort by root vertex.
    pub fn trees_with(
        &self,
        v: VertexId,
        state: StateId,
    ) -> impl Iterator<Item = (TreeId, NodeIdx)> + '_ {
        self.chain(v, state)
            .map(|i| (self.nodes[i as usize].tree, i))
    }

    /// Borrowed view of tree `t`.
    pub fn tree(&self, t: TreeId) -> TreeView<'_> {
        let root_idx = self.trees[t as usize];
        debug_assert!(root_idx != NIL, "tree {t} is retired");
        TreeView {
            root: self.nodes[root_idx as usize].v,
            id: t,
            root_idx,
            forest: self,
        }
    }

    /// Takes a slab slot (the free list first) for a new node of tree `t`
    /// under `parent`, and indexes it.
    fn alloc_node(
        &mut self,
        t: TreeId,
        parent: NodeIdx,
        v: VertexId,
        state: StateId,
        label: Label,
        interval: Interval,
    ) -> NodeIdx {
        let node = Node {
            v,
            interval,
            state,
            label,
            parent,
            tree: t,
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
            next_same: NIL,
        };
        let idx = if self.free_nodes != NIL {
            let idx = self.free_nodes;
            self.free_nodes = self.nodes[idx as usize].next_sib;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("a forest holds fewer than 2^32 - 1 nodes");
            self.nodes.push(node);
            idx
        };
        self.link_same(idx);
        if parent != NO_PARENT {
            self.link_child(parent, idx);
        }
        idx
    }

    /// Files node `idx` in its `(v, state)` chain, before the first node
    /// of a higher tree.
    fn link_same(&mut self, idx: NodeIdx) {
        let Node { v, state, tree, .. } = self.nodes[idx as usize];
        let Some(slot) = self.head(v, state) else {
            self.index.insert(key_hash(v, state), idx);
            return;
        };
        let first = self.index.row(slot);
        if tree < self.nodes[first as usize].tree {
            self.nodes[idx as usize].next_same = first;
            self.index.set_row(slot, idx);
            return;
        }
        let mut prev = first;
        loop {
            let next = self.nodes[prev as usize].next_same;
            if next == NIL || self.nodes[next as usize].tree > tree {
                break;
            }
            prev = next;
        }
        debug_assert!(
            self.nodes[prev as usize].tree < tree,
            "node already present"
        );
        self.nodes[idx as usize].next_same = self.nodes[prev as usize].next_same;
        self.nodes[prev as usize].next_same = idx;
    }

    /// Takes node `idx` out of its `(v, state)` chain, dropping the key
    /// with its last node.
    fn unlink_same(&mut self, idx: NodeIdx) {
        let Node {
            v,
            state,
            next_same,
            ..
        } = self.nodes[idx as usize];
        let slot = self.head(v, state).expect("live nodes are indexed");
        let first = self.index.row(slot);
        if first == idx {
            if next_same == NIL {
                self.index.remove(slot);
            } else {
                self.index.set_row(slot, next_same);
            }
            return;
        }
        let mut prev = first;
        while self.nodes[prev as usize].next_same != idx {
            prev = self.nodes[prev as usize].next_same;
        }
        self.nodes[prev as usize].next_same = next_same;
    }

    /// Unindexes a node and puts its slot on the free list.
    fn free_node(&mut self, i: NodeIdx) {
        self.unlink_same(i);
        let n = &mut self.nodes[i as usize];
        n.tree = NIL;
        n.first_child = NIL;
        n.next_sib = self.free_nodes;
        self.free_nodes = i;
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

    /// Inserts `(v, state)` into tree `t` as a child of `parent`, derived
    /// through an edge labelled `label` with the given interval (Algorithm
    /// Expand), returning its index.
    pub fn insert_child(
        &mut self,
        t: TreeId,
        parent: NodeIdx,
        v: VertexId,
        state: StateId,
        label: Label,
        interval: Interval,
    ) -> NodeIdx {
        debug_assert!(self.nodes[parent as usize].tree == t, "parent in tree");
        let idx = self.alloc_node(t, parent, v, state, label, interval);
        self.live_nodes += 1;
        self.expiry.register(interval.exp, (t, idx));
        idx
    }

    /// Overwrites the interval of a non-root node. The node's earlier
    /// handle stays filed under the old expiry and will fail its check.
    pub fn set_interval(&mut self, t: TreeId, node: NodeIdx, interval: Interval) {
        let n = &mut self.nodes[node as usize];
        debug_assert!(n.tree == t && n.parent != NO_PARENT);
        let moved = n.interval.exp != interval.exp;
        n.interval = interval;
        // A ts-only widening is already filed under this expiry.
        if moved {
            self.expiry.register(interval.exp, (t, node));
        }
    }

    /// Re-attaches `node` under `new_parent`, derived through an edge
    /// labelled `label` (Algorithm Propagate line 2).
    pub fn reparent(&mut self, t: TreeId, node: NodeIdx, new_parent: NodeIdx, label: Label) {
        debug_assert!(self.nodes[node as usize].tree == t);
        debug_assert!(self.nodes[new_parent as usize].tree == t);
        self.unlink_child(node);
        let n = &mut self.nodes[node as usize];
        n.parent = new_parent;
        n.label = label;
        self.link_child(new_parent, node);
    }

    /// Removes the subtree at the non-root `node` of tree `t`, maintaining
    /// the index. Returns the number of nodes removed. A tree this leaves
    /// root-only is retired by the next [`Forest::purge`], not here.
    pub fn remove_subtree(&mut self, t: TreeId, node: NodeIdx) -> usize {
        debug_assert!(
            self.nodes[node as usize].parent != NO_PARENT,
            "roots retire"
        );
        debug_assert!(self.nodes[node as usize].tree == t);
        self.unlink_child(node);
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(node);
        let mut count = 0;
        while let Some(i) = stack.pop() {
            // Children are pushed before their parent's slot is freed, so
            // the sibling links read here are still the tree's.
            let mut c = self.nodes[i as usize].first_child;
            while c != NIL {
                stack.push(c);
                c = self.nodes[c as usize].next_sib;
            }
            self.free_node(i);
            count += 1;
        }
        self.stack = stack;
        self.live_nodes -= count;
        if self.tree(t).is_root_only() {
            self.maybe_empty.push(t);
        }
        count
    }

    /// Reclaims every node whose interval expired at `watermark` (the
    /// direct approach of S-PATH: children expire no later than parents,
    /// so whole subtrees go at once), in time proportional to the handles
    /// filed at or below `watermark`; then retires the trees left with
    /// nothing but their root. Afterwards no root-only tree exists and
    /// every live tree is found by its root. See the module docs for the
    /// stale-handle rule and for why retirement happens only here.
    pub fn purge(&mut self, watermark: Timestamp) {
        self.reclaim_expired(watermark);
        self.retire_empty();
        debug_assert_eq!(
            self.chain_lengths().sum::<usize>(),
            self.live_nodes + self.tree_ids().count(),
            "maintained node count drifted"
        );
    }

    fn reclaim_expired(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for (t, i) in due {
                // A free slot has no tree, so it fails the first test.
                let expired = self
                    .nodes
                    .get(i as usize)
                    .is_some_and(|n| n.tree == t && n.interval.expired_at(watermark));
                if expired {
                    self.remove_subtree(t, i);
                }
            }
        }
    }

    /// Retires the candidates that are still root-only: frees their root's
    /// slab slot (which takes it out of the `(x, s₀)` chain) and their
    /// tree slot.
    fn retire_empty(&mut self) {
        while let Some(t) = self.maybe_empty.pop() {
            let root = self.trees[t as usize];
            // Retired already, or refilled since it was noted.
            if root == NIL || !self.tree(t).is_root_only() {
                continue;
            }
            self.free_node(root);
            self.trees[t as usize] = NIL;
            self.free_trees.push(t);
        }
    }

    /// Total live (non-root) nodes across all trees.
    pub fn size(&self) -> usize {
        self.live_nodes
    }

    /// Iterates over the ids of live trees, ascending.
    pub fn tree_ids(&self) -> impl Iterator<Item = TreeId> + '_ {
        (0..self.trees.len() as TreeId).filter(|&t| self.trees[t as usize] != NIL)
    }

    /// Counts slots, index entries and reserved bytes (full scan).
    pub fn census(&self) -> ForestCensus {
        let live = || self.tree_ids().map(|t| self.tree(t));
        let lists = self.trees.capacity()
            + self.free_trees.capacity()
            + self.maybe_empty.capacity()
            + self.stack.capacity();
        ForestCensus {
            tree_slots: self.trees.len(),
            live_trees: live().count(),
            root_only_trees: live().filter(TreeView::is_root_only).count(),
            node_slots: self.nodes.len(),
            live_nodes: self.live_nodes,
            roots: live()
                .filter(|t| self.tree_of_root(t.root) == Some(t.id))
                .count(),
            keys: self.index.len(),
            indexed_nodes: self.chain_lengths().sum(),
            longest_chain: self.chain_lengths().max().unwrap_or(0),
            expiry_handles: self.expiry.pending(),
            retire_candidates: self.maybe_empty.len(),
            reserved_bytes: self.nodes.capacity() * size_of::<Node>()
                + lists * size_of::<u32>()
                + self.index.reserved_bytes()
                + self.expiry.reserved_bytes(),
        }
    }

    /// The purge this module replaced: a top-down walk of every live tree.
    /// Kept as the reference of the differential tests.
    #[cfg(test)]
    pub(crate) fn purge_by_walk(&mut self, watermark: Timestamp) {
        for t in self.tree_ids().collect::<Vec<_>>() {
            let mut expired: Vec<NodeIdx> = Vec::new();
            let tree = self.tree(t);
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

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }

    const L: Label = Label(0);

    fn e(s: u64, t: u64) -> Edge {
        Edge::new(v(s), v(t), L)
    }

    fn root(f: &Forest, t: TreeId) -> NodeIdx {
        f.tree(t).root_idx()
    }

    /// The trees `trees_with` names for `(x, state)`.
    fn trees(f: &Forest, x: u64, state: StateId) -> Vec<TreeId> {
        f.trees_with(v(x), state).map(|(t, _)| t).collect()
    }

    fn iv(ts: u64, exp: u64) -> Interval {
        Interval::new(ts, exp)
    }

    /// A tree rooted at `r` with one child `(child, 1)`.
    fn tree_with_child(f: &mut Forest, r: u64, child: u64, interval: Interval) -> TreeId {
        let t = f.ensure_tree(v(r));
        f.insert_child(t, root(f, t), v(child), 1, L, interval);
        t
    }

    #[test]
    fn ensure_tree_is_idempotent() {
        let mut f = Forest::new(0);
        let a = f.ensure_tree(v(1));
        let b = f.ensure_tree(v(1));
        assert_eq!(a, b);
        assert_eq!(trees(&f, 1, 0), vec![a]);
    }

    #[test]
    fn insert_and_path_reconstruction() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let root = f.tree(t).root_idx();
        let n2 = f.insert_child(t, root, v(2), 1, L, iv(0, 10));
        let n3 = f.insert_child(t, n2, v(3), 1, L, iv(2, 8));
        let p = f.tree(t).path_to(n3);
        assert_eq!(p.edges(), &[e(1, 2), e(2, 3)]);
        assert_eq!(p.src(), v(1));
        assert_eq!(p.dst(), v(3));
        assert_eq!(f.trees_with(v(3), 1).collect::<Vec<_>>(), vec![(t, n3)]);
    }

    #[test]
    fn remove_subtree_cleans_index() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let n2 = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 10));
        f.insert_child(t, n2, v(3), 1, L, iv(0, 10));
        assert_eq!(f.remove_subtree(t, n2), 2);
        assert!(f.tree(t).get(v(2), 1).is_none());
        assert!(f.tree(t).get(v(3), 1).is_none());
        assert_eq!(trees(&f, 3, 1), vec![]);
        assert_eq!(f.size(), 0);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let n2 = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 10));
        f.remove_subtree(t, n2);
        let n3 = f.insert_child(t, root(&f, t), v(3), 1, L, iv(0, 10));
        assert_eq!(n2, n3, "freed slot reused");
    }

    #[test]
    fn reparent_moves_children_lists() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 10));
        let b = f.insert_child(t, root(&f, t), v(3), 1, L, iv(0, 10));
        let c = f.insert_child(t, a, v(4), 1, L, iv(0, 10));
        f.reparent(t, c, b, L);
        assert_eq!(f.tree(t).children(a).count(), 0);
        assert_eq!(f.tree(t).children(b).collect::<Vec<_>>(), vec![c]);
        assert_eq!(f.tree(t).edge(c), Some(e(3, 4)));
        let p = f.tree(t).path_to(c);
        assert_eq!(p.edges(), &[e(1, 3), e(3, 4)]);
    }

    #[test]
    fn purge_removes_expired_subtrees() {
        let mut f = Forest::new(0);
        let t = f.ensure_tree(v(1));
        let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 5));
        f.insert_child(t, a, v(3), 1, L, iv(0, 4));
        let c = f.insert_child(t, root(&f, t), v(4), 1, L, iv(0, 9));
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
        f.insert_child(t, root(&f, t), v(3), 1, L, iv(0, 10));
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
        assert_eq!(trees(&f, 1, 0), vec![], "root left the index");
        assert_eq!(f.tree_ids().collect::<Vec<_>>(), vec![t2]);
        let c = f.census();
        assert_eq!((c.tree_slots, c.live_trees, c.roots), (2, 1, 1));
        assert_eq!((c.root_only_trees, c.indexed_nodes), (0, 2));
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
        let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 5));
        f.insert_child(t, a, v(3), 1, L, iv(0, 5));
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
        assert_eq!((c.live_trees, c.roots, c.keys), (0, 0, 0));
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
        assert_eq!(trees(&f, 1, 0), vec![t]);
        // Refilled before the purge: the candidate note is void.
        f.insert_child(t, root(&f, t), v(5), 1, L, iv(2, 60));
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
        let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 5));
        f.set_interval(t, a, iv(0, 20));
        // Removed and its slot reused by a longer-lived node.
        let b = f.insert_child(t, root(&f, t), v(3), 1, L, iv(0, 5));
        f.remove_subtree(t, b);
        let c = f.insert_child(t, root(&f, t), v(4), 1, L, iv(0, 30));
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
        let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 10));
        let b = f.insert_child(t, a, v(3), 1, L, iv(0, 6));
        f.insert_child(t, b, v(4), 1, L, iv(0, 6));
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
            let a = f.insert_child(t, root(&f, t), v(2), 1, L, iv(0, 9));
            let b = f.insert_child(t, a, v(3), 1, L, iv(1, 6));
            f.insert_child(t, b, v(4), 1, L, iv(2, 6));
            f.insert_child(t, a, v(5), 1, L, iv(2, 9));
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
            assert_eq!(
                by_index.census().occupancy(),
                by_walk.census().occupancy(),
                "watermark {w}"
            );
        }
        assert_eq!(by_index.census().live_trees, 0);
    }

    #[test]
    fn keys_with_equal_hashes_keep_distinct_chains() {
        // One Fx step is `h' = (rotl(h, 5) ^ w) · K` with K odd, so keys
        // `(a, s)` and `(b, s2)` hash alike iff `rotl(a·K, 5) ^ s ==
        // rotl(b·K, 5) ^ s2`: pick `a`, `s`, `s2` and solve for `b` with the
        // inverse of K modulo 2^64 (Newton's iteration).
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut k_inv = K;
        for _ in 0..6 {
            k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(k_inv)));
        }
        assert_eq!(K.wrapping_mul(k_inv), 1);
        let (a, s, s2) = (3u64, 1, 2);
        let b = ((a.wrapping_mul(K)).rotate_left(5) ^ u64::from(s) ^ u64::from(s2))
            .rotate_right(5)
            .wrapping_mul(k_inv);
        assert_eq!(
            key_hash(v(a), s),
            key_hash(v(b), s2),
            "constructed collision"
        );

        let mut f = Forest::new(0);
        let [t1, t2, t3] = [1, 2, 4].map(|x| f.ensure_tree(v(x)));
        let a1 = f.insert_child(t1, root(&f, t1), v(a), s, L, iv(0, 10));
        let b1 = f.insert_child(t1, a1, v(b), s2, L, iv(0, 20));
        let b2 = f.insert_child(t2, root(&f, t2), v(b), s2, L, iv(0, 30));
        let a3 = f.insert_child(t3, root(&f, t3), v(a), s, L, iv(0, 30));
        assert_eq!(
            f.trees_with(v(a), s).collect::<Vec<_>>(),
            [(t1, a1), (t3, a3)]
        );
        assert_eq!(
            f.trees_with(v(b), s2).collect::<Vec<_>>(),
            [(t1, b1), (t2, b2)]
        );
        assert_eq!(f.tree(t2).get(v(a), s), None);
        assert_eq!(f.tree(t3).get(v(b), s2), None);
        assert_eq!(f.census().keys, 5, "three roots and the two keys");
        // Removing `(a, s)` from T_1 takes its child along, and nothing of
        // the other key's chain but that child.
        f.remove_subtree(t1, a1);
        assert_eq!(f.trees_with(v(a), s).collect::<Vec<_>>(), [(t3, a3)]);
        assert_eq!(f.trees_with(v(b), s2).collect::<Vec<_>>(), [(t2, b2)]);
        f.purge(30);
        assert_eq!((trees(&f, a, s), trees(&f, b, s2)), (vec![], vec![]));
        let c = f.census();
        assert_eq!((c.keys, c.indexed_nodes, c.live_trees), (0, 0, 0), "{c:?}");
    }

    #[test]
    fn a_hub_every_tree_holds_keeps_one_ascending_chain() {
        // `(HUB, s₀)` sits in 500 trees, and HUB also roots a tree made
        // halfway through: `tree_of_root` has to pick that root out of a
        // 501-node chain, and `get` has to stop at the tree asked for,
        // while nodes leave the chain's middle, trees retire and new trees
        // take their slots (and so their places in the chain).
        const HUB: u64 = 1_000_000;
        let mut f = Forest::new(0);
        let mut want: BTreeMap<TreeId, NodeIdx> = BTreeMap::new();
        let mut exp_of: BTreeMap<TreeId, u64> = BTreeMap::new();
        let mut hub_tree = NIL;
        for x in 0..500 {
            if x == 250 {
                hub_tree = f.ensure_tree(v(HUB));
                want.insert(hub_tree, root(&f, hub_tree));
                f.insert_child(hub_tree, root(&f, hub_tree), v(HUB + 1), 1, L, iv(0, 99));
            }
            let t = f.ensure_tree(v(x));
            let exp = 10 + 10 * (x % 3);
            want.insert(t, f.insert_child(t, root(&f, t), v(HUB), 0, L, iv(0, exp)));
            exp_of.insert(t, exp);
        }
        let check = |f: &Forest, want: &BTreeMap<TreeId, NodeIdx>, at: &str| {
            let got: Vec<(TreeId, NodeIdx)> = f.trees_with(v(HUB), 0).collect();
            assert_eq!(
                got,
                want.iter().map(|(&t, &i)| (t, i)).collect::<Vec<_>>(),
                "{at}"
            );
            for (&t, &i) in want {
                assert_eq!(f.tree(t).get(v(HUB), 0), Some(i), "{at}: tree {t}");
            }
            assert_eq!(f.tree_of_root(v(HUB)), Some(hub_tree), "{at}");
            let c = f.census();
            assert_eq!(c.longest_chain, want.len(), "{at}: {c:?}");
            assert_eq!(c.indexed_nodes, c.live_nodes + c.live_trees, "{at}: {c:?}");
        };
        check(&f, &want, "built");
        // Every fourth tree loses its hub node mid-epoch.
        let gone: Vec<TreeId> = want
            .keys()
            .copied()
            .filter(|&t| t != hub_tree)
            .step_by(4)
            .collect();
        for t in gone {
            f.remove_subtree(t, want.remove(&t).unwrap());
        }
        check(&f, &want, "removed");
        // The purge retires them and every tree whose hub node expired at 10.
        f.purge(10);
        want.retain(|t, _| *t == hub_tree || exp_of[t] > 10);
        assert!(f.census().live_trees < 350, "{:?}", f.census());
        check(&f, &want, "purged");
        // New roots reuse the retired slots, so they join the chain at
        // their slot's place, not at its end.
        for x in 2_000..2_200 {
            let t = f.ensure_tree(v(x));
            want.insert(t, f.insert_child(t, root(&f, t), v(HUB), 0, L, iv(11, 50)));
        }
        assert_eq!(
            f.census().tree_slots,
            501,
            "every new tree took a retired slot"
        );
        check(&f, &want, "refilled");
        f.purge(99);
        assert_eq!(f.tree_of_root(v(HUB)), None);
        let c = f.census();
        assert_eq!((c.live_trees, c.keys, c.longest_chain), (0, 0, 0), "{c:?}");
    }

    /// A node of the model forest: its interval and its parent's key
    /// (`None` for the root).
    type Key = (u64, StateId);
    type ModelNodes = BTreeMap<Key, (Interval, Option<Key>)>;

    /// Removes `key` and its descendants from a model tree.
    fn model_remove(nodes: &mut ModelNodes, key: Key) {
        let mut gone = vec![key];
        while let Some(k) = gone.pop() {
            nodes.remove(&k);
            gone.extend(
                nodes
                    .iter()
                    .filter(|(_, (_, p))| *p == Some(k))
                    .map(|(&c, _)| c),
            );
        }
    }

    /// Holds the forest against the model: every key's `trees_with` lists
    /// exactly the model's trees holding it, in strictly ascending id,
    /// each with the node `get` finds, carrying the model's interval and
    /// parent.
    fn check_against_model(
        f: &Forest,
        model: &BTreeMap<u64, (TreeId, ModelNodes)>,
        keys: &[Key],
        at: &str,
    ) {
        let mut held: BTreeMap<Key, Vec<TreeId>> = BTreeMap::new();
        let mut by_id = BTreeMap::new();
        for (&x, (t, nodes)) in model {
            assert_eq!(f.tree_of_root(v(x)), Some(*t), "{at}: root {x}");
            by_id.insert(*t, nodes);
            for &k in nodes.keys() {
                held.entry(k).or_default().push(*t);
            }
        }
        for &k in keys {
            let got: Vec<(TreeId, NodeIdx)> = f.trees_with(v(k.0), k.1).collect();
            let ids: Vec<TreeId> = got.iter().map(|&(t, _)| t).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "{at}: {k:?} in {ids:?}"
            );
            let mut want = held.get(&k).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(ids, want, "{at}: trees holding {k:?}");
            for (t, i) in got {
                let tree = f.tree(t);
                let n = tree.node(i);
                assert_eq!((n.v, n.state), (v(k.0), k.1), "{at}");
                assert_eq!(tree.get(v(k.0), k.1), Some(i), "{at}");
                let (interval, parent) = by_id[&t][&k];
                assert_eq!(n.interval, interval, "{at}: {k:?} in tree {t}");
                let p = (n.parent != NO_PARENT).then(|| {
                    let p = tree.node(n.parent);
                    (p.v.0, p.state)
                });
                assert_eq!(p, parent, "{at}: parent of {k:?} in tree {t}");
            }
        }
        let size: usize = model.values().map(|(_, nodes)| nodes.len() - 1).sum();
        assert_eq!(f.size(), size, "{at}");
        let c = f.census();
        assert_eq!((c.live_trees, c.roots), (model.len(), model.len()), "{at}");
        assert_eq!(c.indexed_nodes, size + model.len(), "{at}: {c:?}");
        assert_eq!(c.live_nodes, size, "{at}");
    }

    #[test]
    fn trees_with_stays_ascending_and_complete_under_random_operations() {
        // Six non-root keys and forty roots: every key is held by many
        // trees at once. Roots come and go, so trees retire and their
        // slots — and freed node slots — are reused by others.
        const ROOTS: u64 = 40;
        let inner: [Key; 6] = [(100, 1), (100, 2), (101, 1), (101, 2), (102, 1), (103, 2)];
        let keys: Vec<Key> = inner
            .iter()
            .copied()
            .chain((0..ROOTS).map(|x| (x, 0)))
            .collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut f = Forest::new(0);
        let mut model: BTreeMap<u64, (TreeId, ModelNodes)> = BTreeMap::new();
        let (mut now, mut trees_made, mut nodes_made, mut purges) = (0u64, 0, 0, 0);
        for step in 0..3_000 {
            let at = format!("step {step}");
            let pick = |model: &BTreeMap<u64, (TreeId, ModelNodes)>, r: u64| {
                model
                    .values()
                    .nth(r as usize % model.len().max(1))
                    .map(|(t, n)| (*t, n.clone()))
            };
            match next(10) {
                0..=4 => {
                    let x = next(ROOTS);
                    let t = f.ensure_tree(v(x));
                    let (id, nodes) = model.entry(x).or_insert_with(|| {
                        trees_made += 1;
                        (
                            t,
                            BTreeMap::from([((x, 0), (iv(0, sgq_types::TS_MAX), None))]),
                        )
                    });
                    assert_eq!(*id, t, "{at}");
                    let k = inner[next(6) as usize];
                    if nodes.contains_key(&k) {
                        continue;
                    }
                    let parents: Vec<Key> = nodes.keys().copied().collect();
                    let pk = parents[next(parents.len() as u64) as usize];
                    let interval = iv(now, now + 1 + next(30));
                    let p = f.tree(t).get(v(pk.0), pk.1).expect("parent held");
                    f.insert_child(t, p, v(k.0), k.1, L, interval);
                    nodes.insert(k, (interval, Some(pk)));
                    nodes_made += 1;
                }
                5..=6 => {
                    let Some((t, nodes)) = pick(&model, next(64)) else {
                        continue;
                    };
                    let inner_keys: Vec<Key> = nodes.keys().copied().filter(|k| k.1 != 0).collect();
                    if inner_keys.is_empty() {
                        continue;
                    }
                    let k = inner_keys[next(inner_keys.len() as u64) as usize];
                    let old = nodes[&k].0;
                    let better = iv(old.ts, old.exp + 1 + next(10));
                    let i = f.tree(t).get(v(k.0), k.1).expect("held");
                    f.set_interval(t, i, better);
                    let root = f.tree(t).root.0;
                    model.get_mut(&root).unwrap().1.get_mut(&k).unwrap().0 = better;
                }
                7 => {
                    let Some((t, nodes)) = pick(&model, next(64)) else {
                        continue;
                    };
                    let inner_keys: Vec<Key> = nodes.keys().copied().filter(|k| k.1 != 0).collect();
                    if inner_keys.is_empty() {
                        continue;
                    }
                    let k = inner_keys[next(inner_keys.len() as u64) as usize];
                    let i = f.tree(t).get(v(k.0), k.1).expect("held");
                    f.remove_subtree(t, i);
                    let root = f.tree(t).root.0;
                    model_remove(&mut model.get_mut(&root).unwrap().1, k);
                }
                _ => {
                    now += 1 + next(4);
                    f.purge(now);
                    purges += 1;
                    for (_, nodes) in model.values_mut() {
                        let expired: Vec<Key> = nodes
                            .iter()
                            .filter(|(_, (i, _))| i.expired_at(now))
                            .map(|(&k, _)| k)
                            .collect();
                        for k in expired {
                            model_remove(nodes, k);
                        }
                    }
                    model.retain(|_, (_, nodes)| nodes.len() > 1);
                    assert_eq!(f.census().root_only_trees, 0, "{at}");
                }
            }
            check_against_model(&f, &model, &keys, &at);
            for x in 0..ROOTS {
                if !model.contains_key(&x) {
                    assert_eq!(f.tree_of_root(v(x)), None, "{at}: root {x}");
                }
            }
        }
        let c = f.census();
        assert!(purges > 200, "{purges}");
        assert!(
            c.tree_slots * 4 < trees_made,
            "tree slots reused: {c:?}, {trees_made} made"
        );
        assert!(
            c.node_slots * 4 < nodes_made,
            "node slots reused: {c:?}, {nodes_made} made"
        );
    }
}
