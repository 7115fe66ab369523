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
//! intrusive free list; one hash map from `(tree, vertex, state)` to slab
//! index replaces a per-tree index. A tree is a root vertex and its root
//! node's slot, nothing else, so a tree slot never keeps capacity that
//! one of its former occupants needed. The inverted index maps each
//! `(vertex, state)` to a sorted tree list held inline while it has one
//! tree — nearly all of them — so a singleton costs no allocation.
//!
//! # What the window bounds
//!
//! Entries follow the window; bytes follow the most the window has held
//! at once, across the whole forest (a freed slab slot or hash bucket is
//! reused by the next node of *any* tree, never returned).
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
//!   nothing but its root loses its `by_root` and inverted-index entries
//!   and its root's slab slot, and its tree slot goes on a free list that
//!   [`Forest::ensure_tree`] pops first. After any purge no root-only
//!   tree exists. Retirement happens **only inside [`Forest::purge`]**:
//!   between purges operators hold `TreeId`s in their seed and dirty
//!   lists, and a tree emptied mid-epoch (explicit deletion, stale-subtree
//!   reclaim) is routinely refilled by the same epoch. Such a tree — and
//!   every newly created one, which may never receive a child — is noted
//!   on a candidate list the next purge drains, so finding the empty trees
//!   never means visiting all trees. A root that returns after retirement
//!   gets a fresh tree.

use sgq_automata::StateId;
use sgq_types::{Edge, FxHashMap, Interval, Label, PathSeq, Timestamp, VertexId};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::mem::size_of;

// Send audit: the forest is PATH-operator state and travels with its
// operator onto worker-pool threads. Everything in it is owned; tree and
// node links and expiry handles are plain indexes.
const _: () = super::assert_send::<Forest>();

// The layout's point: a node is 56 bytes (it was 80 while it carried its
// derivation edge), a tree slot 16 (88 while it owned an arena).
const _: () = assert!(size_of::<Node>() <= 56);
const _: () = assert!(size_of::<Tree>() <= 16);

/// Index of a node in its forest's node slab.
pub type NodeIdx = u32;

/// Sentinel parent for roots.
pub const NO_PARENT: NodeIdx = u32::MAX;

/// Sentinel for absent sibling/child links and the end of the free list.
const NIL: NodeIdx = u32::MAX;

/// A tree identifier (index into the forest's tree slots). Slots are
/// recycled: an id is only meaningful until the next [`Forest::purge`].
pub type TreeId = u32;

/// Bytes a hash table with `capacity` reserves: one `(K, V)` slot and one
/// control byte per bucket. Buckets are a power of two at most 7/8 full;
/// tombstones lower the capacity a table reports, so this is a floor.
pub(super) fn table_bytes<K, V>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => 0,
        c if c < 8 => (c + 1).next_power_of_two(),
        c => (c * 8 / 7).next_power_of_two(),
    };
    buckets * (size_of::<(K, V)>() + 1)
}

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
/// O(1) instead of scanning the old parent's child list. A free slot links
/// the slab's free list through `next_sib`.
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
    /// The tree the slot belongs to while it is alive.
    tree: TreeId,
    /// Head of the intrusive child list.
    first_child: NodeIdx,
    /// Next sibling under the same parent (next free slot when freed).
    next_sib: NodeIdx,
    /// Previous sibling under the same parent.
    prev_sib: NodeIdx,
    /// False once removed (the slot is on the free list).
    pub alive: bool,
}

/// One spanning tree `T_x` in its slot: the root vertex and the root's
/// slab index ([`NIL`] while the slot is retired).
#[derive(Debug, Clone, Copy)]
struct Tree {
    root: VertexId,
    root_node: NodeIdx,
}

/// A borrowed, read-only view of one tree of a [`Forest`]. Every mutation
/// goes through [`Forest`], which keeps the indexes, the size counter and
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

    /// Looks up the node for `(v, state)`.
    pub fn get(&self, v: VertexId, state: StateId) -> Option<NodeIdx> {
        self.forest.index.get(&(self.id, v, state)).copied()
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

/// The trees holding one `(vertex, state)`: ascending, inline while there
/// is one.
#[derive(Debug)]
enum TreeSet {
    One(TreeId),
    Many(Vec<TreeId>),
}

impl TreeSet {
    fn as_slice(&self) -> &[TreeId] {
        match self {
            TreeSet::One(t) => std::slice::from_ref(t),
            TreeSet::Many(ts) => ts,
        }
    }

    fn insert(&mut self, t: TreeId) {
        match self {
            TreeSet::One(u) if *u == t => {}
            TreeSet::One(u) => {
                *self = TreeSet::Many(if *u < t { vec![*u, t] } else { vec![t, *u] });
            }
            TreeSet::Many(ts) => {
                if let Err(at) = ts.binary_search(&t) {
                    ts.insert(at, t);
                }
            }
        }
    }

    /// Drops `t`; says whether the set is empty now.
    fn remove(&mut self, t: TreeId) -> bool {
        match self {
            TreeSet::One(u) => *u == t,
            TreeSet::Many(ts) => {
                if let Ok(at) = ts.binary_search(&t) {
                    ts.remove(at);
                }
                if let [last] = ts[..] {
                    *self = TreeSet::One(last);
                }
                false
            }
        }
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
    /// Node slab slots, roots and free slots included.
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
    /// Heap bytes reserved by every container the forest owns: capacity
    /// times slot size, hash tables at `(K, V)` plus one control byte per
    /// bucket.
    pub reserved_bytes: usize,
}

#[cfg(test)]
impl ForestCensus {
    /// The census without its byte count, which also depends on the order
    /// entries were removed in (hash tombstones): what twins fed the same
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
    /// Tree slots; a retired one has no root node and sits in
    /// `free_trees`.
    trees: Vec<Tree>,
    free_trees: Vec<TreeId>,
    by_root: FxHashMap<VertexId, TreeId>,
    /// The node slab shared by all trees, and its free list's head.
    nodes: Vec<Node>,
    free_nodes: NodeIdx,
    /// `(tree, vertex, state)` → slab index, for every live node.
    index: FxHashMap<(TreeId, VertexId, StateId), NodeIdx>,
    inverted: FxHashMap<(VertexId, StateId), TreeSet>,
    start_state: StateId,
    /// Live non-root nodes across all trees.
    live_nodes: usize,
    expiry: ExpiryIndex<(TreeId, NodeIdx)>,
    /// Trees that were root-only at some point since the last purge.
    maybe_empty: Vec<TreeId>,
    /// Scratch of `remove_subtree`.
    stack: Vec<NodeIdx>,
}

impl Forest {
    /// Creates an empty forest for a DFA with the given start state.
    pub fn new(start_state: StateId) -> Self {
        Forest {
            trees: Vec::new(),
            free_trees: Vec::new(),
            by_root: FxHashMap::default(),
            nodes: Vec::new(),
            free_nodes: NIL,
            index: FxHashMap::default(),
            inverted: FxHashMap::default(),
            start_state,
            live_nodes: 0,
            expiry: ExpiryIndex::default(),
            maybe_empty: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Returns the tree rooted at `x`, creating it if absent (Algorithm
    /// S-PATH lines 7–8). A new tree takes a retired slot if there is one.
    pub fn ensure_tree(&mut self, x: VertexId) -> TreeId {
        if let Some(&t) = self.by_root.get(&x) {
            return t;
        }
        let id = self.free_trees.pop().unwrap_or_else(|| {
            self.trees.push(Tree {
                root: x,
                root_node: NIL,
            });
            (self.trees.len() - 1) as TreeId
        });
        // The root is the empty path at x: always valid (Def. 21).
        let always = Interval::new(0, sgq_types::TS_MAX);
        let root = self.alloc_node(id, NO_PARENT, x, self.start_state, Label(0), always);
        self.trees[id as usize] = Tree {
            root: x,
            root_node: root,
        };
        self.by_root.insert(x, id);
        // It may never get a child (a late, already expired edge).
        self.maybe_empty.push(id);
        id
    }

    /// The tree rooted at `x`, if any.
    pub fn tree_of_root(&self, x: VertexId) -> Option<TreeId> {
        self.by_root.get(&x).copied()
    }

    /// Trees containing node `(v, state)` — the `ExpandableTrees` probe —
    /// in ascending slot order, which carries no meaning: callers whose
    /// output order matters sort by root vertex.
    pub fn trees_with(&self, v: VertexId, state: StateId) -> impl Iterator<Item = TreeId> + '_ {
        self.inverted
            .get(&(v, state))
            .map_or(&[][..], TreeSet::as_slice)
            .iter()
            .copied()
    }

    /// Borrowed view of tree `t`.
    pub fn tree(&self, t: TreeId) -> TreeView<'_> {
        let tree = self.trees[t as usize];
        debug_assert!(tree.root_node != NIL, "tree {t} is retired");
        TreeView {
            root: tree.root,
            id: t,
            root_idx: tree.root_node,
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
            alive: true,
        };
        let idx = if self.free_nodes != NIL {
            let idx = self.free_nodes;
            self.free_nodes = self.nodes[idx as usize].next_sib;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeIdx
        };
        let fresh = self.index.insert((t, v, state), idx).is_none();
        debug_assert!(fresh, "node already present");
        match self.inverted.entry((v, state)) {
            Entry::Occupied(mut trees) => trees.get_mut().insert(t),
            Entry::Vacant(slot) => {
                slot.insert(TreeSet::One(t));
            }
        }
        if parent != NO_PARENT {
            self.link_child(parent, idx);
        }
        idx
    }

    /// Unindexes a node and puts its slot on the free list.
    fn free_node(&mut self, t: TreeId, i: NodeIdx) {
        let n = &mut self.nodes[i as usize];
        let key = (n.v, n.state);
        n.alive = false;
        n.first_child = NIL;
        n.next_sib = self.free_nodes;
        self.free_nodes = i;
        self.index.remove(&(t, key.0, key.1));
        if let Entry::Occupied(mut trees) = self.inverted.entry(key) {
            if trees.get_mut().remove(t) {
                trees.remove();
            }
        }
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
        debug_assert!(n.alive && n.tree == t && n.parent != NO_PARENT);
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
    /// the indexes. Returns the number of nodes removed. A tree this
    /// leaves root-only is retired by the next [`Forest::purge`], not
    /// here.
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
            self.free_node(t, i);
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
    /// nothing but their root. Afterwards no root-only tree exists,
    /// `by_root` has one entry per live tree and no inverted entry is
    /// empty. See the module docs for the stale-handle rule and for why
    /// retirement happens only here.
    pub fn purge(&mut self, watermark: Timestamp) {
        self.reclaim_expired(watermark);
        self.retire_empty();
        debug_assert_eq!(
            self.live_nodes + self.by_root.len(),
            self.index.len(),
            "maintained node count drifted"
        );
    }

    fn reclaim_expired(&mut self, watermark: Timestamp) {
        while let Some(due) = self.expiry.pop_due(watermark) {
            for (t, i) in due {
                let expired = self
                    .nodes
                    .get(i as usize)
                    .is_some_and(|n| n.alive && n.tree == t && n.interval.expired_at(watermark));
                if expired {
                    self.remove_subtree(t, i);
                }
            }
        }
    }

    /// Retires the candidates that are still root-only: drops their
    /// `by_root` and inverted entries, frees their root's slab slot and
    /// their tree slot.
    fn retire_empty(&mut self) {
        while let Some(t) = self.maybe_empty.pop() {
            let Tree { root, root_node } = self.trees[t as usize];
            // Retired already, or refilled since it was noted.
            if root_node == NIL || !self.tree(t).is_root_only() {
                continue;
            }
            self.free_node(t, root_node);
            self.trees[t as usize].root_node = NIL;
            self.by_root.remove(&root);
            self.free_trees.push(t);
        }
    }

    /// Total live (non-root) nodes across all trees.
    pub fn size(&self) -> usize {
        self.live_nodes
    }

    /// Iterates over the ids of live trees, ascending.
    pub fn tree_ids(&self) -> impl Iterator<Item = TreeId> + '_ {
        (0..self.trees.len() as TreeId).filter(|&t| self.trees[t as usize].root_node != NIL)
    }

    /// Counts slots, index entries and reserved bytes (full scan).
    pub fn census(&self) -> ForestCensus {
        let live = || self.tree_ids().map(|t| self.tree(t));
        let inverted_lists: usize = self
            .inverted
            .values()
            .map(|s| match s {
                TreeSet::One(_) => 0,
                TreeSet::Many(ts) => ts.capacity() * size_of::<TreeId>(),
            })
            .sum();
        let lists =
            self.free_trees.capacity() + self.maybe_empty.capacity() + self.stack.capacity();
        ForestCensus {
            tree_slots: self.trees.len(),
            live_trees: live().count(),
            root_only_trees: live().filter(TreeView::is_root_only).count(),
            node_slots: self.nodes.len(),
            live_nodes: self.live_nodes,
            by_root: self.by_root.len(),
            inverted_keys: self.inverted.len(),
            inverted_empty: self
                .inverted
                .values()
                .filter(|s| s.as_slice().is_empty())
                .count(),
            expiry_handles: self.expiry.pending(),
            retire_candidates: self.maybe_empty.len(),
            reserved_bytes: self.trees.capacity() * size_of::<Tree>()
                + self.nodes.capacity() * size_of::<Node>()
                + lists * size_of::<u32>()
                + table_bytes::<VertexId, TreeId>(self.by_root.capacity())
                + table_bytes::<(TreeId, VertexId, StateId), NodeIdx>(self.index.capacity())
                + table_bytes::<(VertexId, StateId), TreeSet>(self.inverted.capacity())
                + inverted_lists
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
        assert_eq!(f.trees_with(v(1), 0).collect::<Vec<_>>(), vec![a]);
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
        assert_eq!(f.trees_with(v(3), 1).collect::<Vec<_>>(), vec![t]);
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
        assert_eq!(f.trees_with(v(3), 1).count(), 0);
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
}
