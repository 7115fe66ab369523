//! Reusable physical-dataflow machinery: plan lowering with structural
//! deduplication, epoch-batched delta delivery, and operator retirement.
//!
//! The multi-query host ([`crate::multiquery`], which the single-query
//! [`Engine`](crate::engine::Engine) is one registration of) manages
//! **many** plans over one operator graph through this lowering,
//! memoization, and push-based delivery:
//!
//! * [`Dataflow::lower`] turns an [`SgaExpr`] into physical operators,
//!   memoizing on structural equality so equal subexpressions — whether
//!   they recur *within* one plan (Figure 8) or *across* separately
//!   lowered plans — are instantiated once and fanned out.
//! * [`Dataflow::ingest_epoch`] / [`Dataflow::ingest`] /
//!   [`Dataflow::emit_from`] run the data-driven delivery loop (§6.1) in
//!   **epochs**: input deltas are seeded into source inboxes and the node
//!   arena is swept once in topological (creation-id) order, each operator
//!   consuming its accumulated per-port [`DeltaBatch`]es and publishing
//!   one output batch that successors receive by `Arc` reference — no
//!   per-successor deep clone, no per-tuple queue traffic. A sink
//!   callback observes every operator's emission batches so callers
//!   decide which nodes are observable roots.
//! * [`Dataflow::retire`] removes operators no longer referenced by any
//!   plan (the node arena is monotonic: slots are tombstoned, not reused,
//!   so node ids held by other plans stay valid).
//!
//! ## The epoch schedule
//!
//! The sweep runs off an explicit **level decomposition** of the operator
//! graph (recomputed whenever `lower`/`retire` change it): level 0 holds
//! the sources, and every other node sits one past its deepest producer.
//! Nodes inside one level never exchange data within an epoch — a dataflow
//! edge always crosses to a strictly higher level — so when a level runs,
//! every input its nodes will see this epoch has already arrived. The
//! sweep runs each level's ready nodes (those holding unconsumed
//! deliveries) in ascending node-id order on the calling thread and
//! publishes their outputs in that order; that order is the determinism
//! contract (sink call order, inbox arrival order, [`ExecStats`]).
//!
//! Level computation relies on the lowering invariant that children are
//! created before parents: every edge points from a lower node id to a
//! higher one, so one ascending pass settles all depths.
//!
//! ## Edge stores
//!
//! S-PATH walks the window of its inputs (paper §6, Def. 22), and a
//! hash-join PATTERN probes the window of each leaf input (§6.2.2). Every
//! reader over the same input reads the same window, so the window content
//! is kept **once per input node**, in an [`EdgeStore`] that exists while
//! at least one S-PATH, or one PATTERN leaf with a join key, reads that
//! node:
//!
//! * **Load.** When the node publishes an insert-only batch, its store
//!   loads the batch and records the admitted edges, with their intervals
//!   from before ([`EpochLoad`]). Each S-PATH reader, at its own turn in
//!   the sweep, runs **one** frontier pass over the loads of every input
//!   that published this epoch (load → ensure trees → seed → expand). Each
//!   PATTERN reader consumes its delivered batches in arrival order and
//!   probes its leaves in the stores.
//! * **Old and new views.** A PATTERN probes a port's store as stored
//!   (`View::New`) once it has consumed that port's batch of the epoch,
//!   and as before the store's last write (`View::Old`) while the batch
//!   is still pending, so each join result is found once, when the last of
//!   its inputs is consumed. Ports are taken in inbox arrival order, not
//!   port order, and two ports over one store have separate views.
//! * **Deletions.** A batch that also deletes (only a deletion epoch makes
//!   one) is applied to the store run by run at publish time, and every
//!   reader reads each run before the next is applied — after first
//!   reading the inputs that reached it earlier in the epoch, so each
//!   reader sees its inputs in arrival order. A PATTERN reads a run on
//!   each of its ports over the store in port order, the later ports in
//!   their old view. Readers' output is held and published at their turn,
//!   as usual.
//! * **Purge.** A store is purged with its node in the purge walk.
//! * **Lifetime.** A store is dropped with its last reader, of either kind.
//!
//! Input `i` of a PATH or PATTERN feeds its port `i`, which names the
//! store a delivered batch was loaded into. A one-input PATTERN (a
//! projection), a PATTERN leaf without a join key, the WCOJ PATTERN and
//! the negative-tuple PATH read no store.
//!
//! There is one execution path: this serial sweep for epochs and a serial
//! walk in node order for purges. [`EngineOptions::workers`],
//! [`EngineOptions::shards`] and [`EngineOptions::adaptive`] are accepted
//! and ignored.

use crate::algebra::SgaExpr;
use crate::engine::{EngineOptions, PathImpl, PatternImpl};
use crate::metrics::ExecStats;
use crate::obs::{fmt_nanos, ObsLevel, OpStats, OperatorSnapshot, TraceEvent, TraceSink};
use crate::physical::adjacency::{
    runs, AdjEntry, AdjacencyCensus, EdgeStore, EpochLoad, Run, View, WindowGraph,
};
use crate::physical::pattern::{CompiledPattern, LeafStores, PatternOp};
use crate::physical::simple::{FilterOp, UnionOp, WScanOp};
use crate::physical::wcoj::WcojPatternOp;
use crate::physical::{negpath::NegPathOp, spath::SPathOp, Delta, DeltaBatch, PhysicalOp};
use sgq_types::{FxHashMap, FxHashSet, Label, SharedDeltaBatch, Timestamp, VertexId};
use std::time::Instant;

/// A node in the physical dataflow: an operator plus its fan-out edges
/// `(successor node, input port)`.
pub struct DataflowNode {
    /// The physical operator.
    pub op: Box<dyn PhysicalOp>,
    /// Downstream edges as `(node, port)`.
    pub succs: Vec<(usize, usize)>,
    /// For an S-PATH or a PATTERN, by port, the node whose edge store the
    /// port reads (`None` for a PATTERN leaf kept in a table); empty for
    /// every other operator, and for a PATTERN that reads no store.
    pub reads: Vec<Option<usize>>,
}

/// The store node `u`'s port reads.
fn read_store(stores: &[Option<EdgeStore>], u: Option<usize>) -> &EdgeStore {
    stores[u.expect("the port reads a store")]
        .as_ref()
        .expect("a read node keeps its store")
}

/// The window graph of one S-PATH node: the stores of the nodes it reads,
/// each read for the label its node publishes.
struct Inputs<'a> {
    stores: &'a [Option<EdgeStore>],
    reads: &'a [Option<usize>],
}

impl Inputs<'_> {
    fn store(&self, l: Label) -> Option<&EdgeStore> {
        self.reads
            .iter()
            .filter_map(|&u| self.stores[u?].as_ref())
            .find(|s| s.label() == l)
    }

    /// The load the batch on `port` left in its store.
    fn load(&self, port: usize) -> &EpochLoad {
        read_store(self.stores, self.reads[port]).epoch_load()
    }
}

/// The leaves of one PATTERN node: the stores of the nodes it reads, by
/// port, each read in its old view while `pending` says the port's batch
/// is not consumed yet.
struct Leaves<'a, P> {
    stores: &'a [Option<EdgeStore>],
    reads: &'a [Option<usize>],
    pending: P,
}

impl<P: Fn(usize) -> bool> LeafStores for Leaves<'_, P> {
    fn store(&self, port: usize) -> &EdgeStore {
        read_store(self.stores, self.reads[port])
    }

    fn view(&self, port: usize) -> View {
        if (self.pending)(port) {
            View::Old
        } else {
            View::New
        }
    }
}

impl WindowGraph for Inputs<'_> {
    fn out(&self, v: VertexId, l: Label) -> impl Iterator<Item = AdjEntry> + '_ {
        self.store(l).into_iter().flat_map(move |s| s.out(v, l))
    }

    fn inc(&self, v: VertexId, l: Label) -> impl Iterator<Item = AdjEntry> + '_ {
        self.store(l).into_iter().flat_map(move |s| s.inc(v, l))
    }
}

/// The S-PATH behind a node that reads edge stores.
fn spath(op: &mut Box<dyn PhysicalOp>) -> &mut SPathOp {
    op.as_spath_mut()
        .expect("a store reader other than a PATTERN is an S-PATH")
}

/// A shared physical operator graph.
///
/// Multiple plans can be lowered into one `Dataflow`; structurally equal
/// subplans resolve to the same node. Node ids are stable for the lifetime
/// of the dataflow.
pub struct Dataflow {
    nodes: Vec<DataflowNode>,
    /// `true` at `i` iff node `i` was retired (no plan references it).
    retired: Vec<bool>,
    /// Input label → WSCAN source nodes fed by that label.
    sources: FxHashMap<Label, Vec<usize>>,
    /// Per-node edge stores (parallel to `nodes`): `Some` while an S-PATH
    /// or a PATTERN leaf reads the node (see the module docs).
    stores: Vec<Option<EdgeStore>>,
    /// Output of store readers that read a batch with deletions at its
    /// publish, held until their turn in the sweep. Empty between epochs.
    held: FxHashMap<usize, DeltaBatch>,
    /// Structural-deduplication table: lowered expression → node.
    memo: FxHashMap<SgaExpr, usize>,
    opts: EngineOptions,
    /// Per-node epoch inboxes (parallel to `nodes`): batches delivered but
    /// not yet consumed, as `(port, batch)` segments in arrival order.
    /// Empty between epochs; kept allocated across epochs.
    inboxes: Vec<Vec<(usize, SharedDeltaBatch)>>,
    /// Recycled output batches (consumed epoch segments whose `Arc` became
    /// unique), so steady-state epochs allocate nothing.
    spare: Vec<DeltaBatch>,
    /// Scratch: per-source seed batches for the epoch being assembled.
    seeds: FxHashMap<usize, DeltaBatch>,
    /// Topological depth of each node (parallel to `nodes`; stale entries
    /// for retired nodes are never consulted). Rebuilt with the schedule.
    level_of: Vec<usize>,
    /// The level decomposition: `levels[d]` holds the live nodes at depth
    /// `d`, ascending by id. Rebuilt on `lower`/`retire`/`take_op`.
    levels: Vec<Vec<usize>>,
    /// Per-level ready lists: nodes holding an unconsumed delivery for the
    /// epoch in flight (pushed on an inbox's empty→non-empty transition).
    /// Empty between epochs, so a singleton ingest touching one small
    /// subplan stays proportional to that subplan even in a large
    /// multi-plan host.
    ready: Vec<Vec<usize>>,
    /// Whether the level schedule must be rebuilt before the next sweep.
    schedule_dirty: bool,
    stats: ExecStats,
    /// Per-node observability stats (parallel to `nodes`); written only at
    /// [`ObsLevel::Counters`] and above, never read back into [`ExecStats`].
    op_stats: Vec<OpStats>,
    /// Scratch log of `(node, batch_nanos)` samples accumulated since the
    /// last [`Dataflow::take_epoch_profile`] drain; filled only when
    /// `profile_epochs` is set *and* the level is [`ObsLevel::Timing`].
    epoch_profile: Vec<(usize, u64)>,
    /// Whether per-node timing samples are logged into `epoch_profile`
    /// (opted into by hosts that attribute cost per query).
    profile_epochs: bool,
    /// Structured lifecycle-event sink, when installed.
    trace: Option<Box<dyn TraceSink>>,
}

impl Dataflow {
    /// An empty dataflow lowering with `opts`.
    pub fn new(opts: EngineOptions) -> Dataflow {
        Dataflow {
            nodes: Vec::new(),
            retired: Vec::new(),
            sources: FxHashMap::default(),
            stores: Vec::new(),
            held: FxHashMap::default(),
            memo: FxHashMap::default(),
            opts,
            inboxes: Vec::new(),
            spare: Vec::new(),
            seeds: FxHashMap::default(),
            level_of: Vec::new(),
            levels: Vec::new(),
            ready: Vec::new(),
            schedule_dirty: false,
            stats: ExecStats::default(),
            op_stats: Vec::new(),
            epoch_profile: Vec::new(),
            profile_epochs: false,
            trace: None,
        }
    }

    /// Executor dispatch counters accumulated since construction.
    pub fn exec_stats(&self) -> ExecStats {
        self.stats
    }

    /// The options plans are lowered with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Total node slots, including retired ones.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes were ever created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live (non-retired) operators.
    pub fn live_count(&self) -> usize {
        self.retired.iter().filter(|&&r| !r).count()
    }

    /// Whether node `n` has been retired.
    pub fn is_retired(&self, n: usize) -> bool {
        self.retired[n]
    }

    /// Names of the live operators, in creation order.
    pub fn operator_names(&self) -> Vec<String> {
        self.nodes
            .iter()
            .zip(&self.retired)
            .filter(|(_, &r)| !r)
            .map(|(n, _)| n.op.name())
            .collect()
    }

    /// Total state entries held by live operators and edge stores.
    pub fn state_size(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n])
            .map(|n| self.node_state(n))
            .sum()
    }

    /// State entries of node `n`: its operator's and its edge store's.
    fn node_state(&self, n: usize) -> usize {
        self.nodes[n].op.state_size() + self.stores[n].as_ref().map_or(0, EdgeStore::size)
    }

    /// Whether any live WSCAN reads `label`.
    pub fn has_source(&self, label: Label) -> bool {
        self.sources.get(&label).is_some_and(|s| !s.is_empty())
    }

    /// The node already lowered for `expr`, if any.
    pub fn lookup(&self, expr: &SgaExpr) -> Option<usize> {
        self.memo.get(expr).copied()
    }

    /// Lowers `expr` into physical operators, returning its root node.
    /// Structurally equal (sub)expressions — across *all* `lower` calls on
    /// this dataflow — share one node. The level schedule is recomputed to
    /// cover any newly created nodes.
    pub fn lower(&mut self, expr: &SgaExpr) -> usize {
        let n = self.lower_rec(expr);
        self.ensure_schedule();
        n
    }

    fn lower_rec(&mut self, expr: &SgaExpr) -> usize {
        if let Some(&n) = self.memo.get(expr) {
            return n;
        }
        let n = match expr {
            SgaExpr::WScan {
                label,
                window,
                slide,
            } => {
                let n = self.add(Box::new(WScanOp::new(*window, *slide)));
                self.sources.entry(*label).or_default().push(n);
                n
            }
            SgaExpr::Filter { input, preds } => {
                let child = self.lower_rec(input);
                let n = self.add(Box::new(FilterOp::new(preds.clone())));
                self.connect(child, n, 0);
                n
            }
            SgaExpr::Union { inputs, label } => {
                let children: Vec<usize> = inputs.iter().map(|i| self.lower_rec(i)).collect();
                let n = self.add(Box::new(UnionOp::new(*label)));
                for c in children {
                    self.connect(c, n, 0);
                }
                n
            }
            SgaExpr::Pattern {
                inputs,
                conditions,
                output,
                label,
            } => {
                let children: Vec<usize> = inputs.iter().map(|i| self.lower_rec(i)).collect();
                let spec = CompiledPattern::compile(inputs.len(), conditions, *output, *label);
                let suppress = self.opts.suppress_duplicates;
                let (op, reads): (Box<dyn PhysicalOp>, Vec<Option<usize>>) =
                    match self.opts.pattern_impl {
                        PatternImpl::HashTree => {
                            let op = PatternOp::new(spec, suppress);
                            let reads = (children.iter().enumerate())
                                .map(|(port, &c)| op.reads_store(port).then_some(c))
                                .collect();
                            (Box::new(op), reads)
                        }
                        PatternImpl::Wcoj => (Box::new(WcojPatternOp::new(spec, suppress)), vec![]),
                    };
                let n = self.add(op);
                for (port, &c) in children.iter().enumerate() {
                    self.connect(c, n, port);
                }
                self.read_stores(n, inputs, reads);
                n
            }
            SgaExpr::Path {
                inputs,
                regex,
                label,
            } => {
                let children: Vec<usize> = inputs.iter().map(|i| self.lower_rec(i)).collect();
                let op: Box<dyn PhysicalOp> = match self.opts.path_impl {
                    PathImpl::Direct => {
                        let op =
                            SPathOp::new(regex, *label).retracting(!self.opts.suppress_duplicates);
                        Box::new(if self.opts.materialize_paths {
                            op
                        } else {
                            op.without_path_payloads()
                        })
                    }
                    PathImpl::NegativeTuple => Box::new(NegPathOp::new(regex, *label)),
                };
                let n = self.add(op);
                // PATH reads a merged stream; input `i` feeds port `i`.
                for (port, &c) in children.iter().enumerate() {
                    self.connect(c, n, port);
                }
                if self.opts.path_impl == PathImpl::Direct {
                    self.read_stores(n, inputs, children.into_iter().map(Some).collect());
                }
                n
            }
        };
        self.memo.insert(expr.clone(), n);
        n
    }

    /// Makes node `n` read, by port, the edge stores of `reads` (`None`
    /// for a port it does not read from a store), creating each missing
    /// store for the label its input publishes. A node with no such port
    /// reads none.
    fn read_stores(&mut self, n: usize, inputs: &[SgaExpr], reads: Vec<Option<usize>>) {
        if reads.iter().all(Option::is_none) {
            return;
        }
        for (input, &u) in inputs.iter().zip(&reads) {
            if let Some(u) = u {
                self.stores[u].get_or_insert_with(|| EdgeStore::new(input.output_label()));
            }
        }
        self.nodes[n].reads = reads;
    }

    /// The set of nodes implementing `expr` (every subexpression's node).
    /// `expr` must have been lowered and not retired.
    pub fn nodes_of(&self, expr: &SgaExpr) -> FxHashSet<usize> {
        let mut out = FxHashSet::default();
        expr.visit(&mut |e| {
            let n = *self
                .memo
                .get(e)
                .expect("nodes_of: expression was not lowered into this dataflow");
            out.insert(n);
        });
        out
    }

    /// Retires `dead` nodes: drops their memo and source entries, severs
    /// every edge touching them, replaces their operators with inert
    /// tombstones, and rebuilds the level schedule (which additionally
    /// prunes *any* edge still pointing at a retired node — `take_op`
    /// retires in place without severing — so the sweep can never enqueue
    /// a retired node). Node ids of surviving nodes are unchanged.
    ///
    /// The caller is responsible for ensuring no live plan references the
    /// retired nodes (the multi-query host refcounts per registration).
    pub fn retire(&mut self, dead: &FxHashSet<usize>) {
        if dead.is_empty() {
            return;
        }
        self.memo.retain(|_, n| !dead.contains(n));
        for starts in self.sources.values_mut() {
            starts.retain(|n| !dead.contains(n));
        }
        self.sources.retain(|_, starts| !starts.is_empty());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if dead.contains(&i) {
                node.op = Box::new(Tombstone);
                node.succs.clear();
                node.reads.clear();
                self.inboxes[i].clear();
                self.retired[i] = true;
            } else {
                node.succs.retain(|(succ, _)| !dead.contains(succ));
            }
        }
        // A store goes with its last reader.
        let mut read = vec![false; self.nodes.len()];
        for u in self
            .nodes
            .iter()
            .flat_map(|node| node.reads.iter().flatten())
        {
            read[*u] = true;
        }
        for (store, read) in self.stores.iter_mut().zip(read) {
            if !read {
                *store = None;
            }
        }
        self.schedule_dirty = true;
        self.ensure_schedule();
    }

    fn add(&mut self, op: Box<dyn PhysicalOp>) -> usize {
        self.nodes.push(DataflowNode {
            op,
            succs: Vec::new(),
            reads: Vec::new(),
        });
        self.stores.push(None);
        self.retired.push(false);
        self.inboxes.push(Vec::new());
        self.op_stats.push(OpStats::default());
        self.schedule_dirty = true;
        self.nodes.len() - 1
    }

    fn connect(&mut self, from: usize, to: usize, port: usize) {
        self.nodes[from].succs.push((to, port));
        self.schedule_dirty = true;
    }

    /// Rebuilds the level schedule if the graph changed since the last
    /// build. Runs only between epochs (all inboxes and ready lists
    /// empty), so no in-flight delivery can reference a stale level.
    fn ensure_schedule(&mut self) {
        if !self.schedule_dirty {
            return;
        }
        let Dataflow {
            nodes,
            retired,
            level_of,
            levels,
            ready,
            ..
        } = self;
        // Prune dangling edges into retired slots: `retire` severs its own
        // edges eagerly, but `take_op` tombstones a node in place and
        // leaves its producers pointing at it. A pruned graph is what
        // makes "ready ⇒ live" an invariant of the dispatch loop.
        for node in nodes.iter_mut() {
            node.succs.retain(|&(succ, _)| !retired[succ]);
        }
        // One ascending pass settles every depth: each edge points to a
        // higher node id, so a producer's level is final when visited.
        level_of.clear();
        level_of.resize(nodes.len(), 0);
        let mut depth = 0usize;
        for n in 0..nodes.len() {
            if retired[n] {
                continue;
            }
            let ln = level_of[n];
            depth = depth.max(ln + 1);
            for &(succ, _) in &nodes[n].succs {
                level_of[succ] = level_of[succ].max(ln + 1);
            }
        }
        levels.clear();
        levels.resize_with(depth, Vec::new);
        for n in 0..nodes.len() {
            if !retired[n] {
                levels[level_of[n]].push(n); // ascending: n is monotonic
            }
        }
        // Ready lists must cover every level; `resize_with` truncates or
        // extends as needed, carrying existing allocations over.
        debug_assert!(ready.iter().all(Vec::is_empty), "rebuild between epochs");
        ready.resize_with(depth, Vec::new);
        self.schedule_dirty = false;
    }

    /// Number of levels in the current schedule (the epoch's critical-path
    /// length in operator rounds).
    pub fn level_count(&self) -> usize {
        debug_assert!(!self.schedule_dirty);
        self.levels.len()
    }

    /// Live nodes per level, in level order — the schedule's shape.
    pub fn level_widths(&self) -> Vec<usize> {
        debug_assert!(!self.schedule_dirty);
        self.levels.iter().map(Vec::len).collect()
    }

    /// The topological depth of node `n` in the current schedule.
    pub fn level_of(&self, n: usize) -> usize {
        debug_assert!(!self.schedule_dirty && !self.retired[n]);
        self.level_of[n]
    }

    /// Pushes one input delta to every WSCAN reading `label` and runs a
    /// singleton epoch. `sink` observes every operator's emissions as
    /// `(node, batch)` — callers filter for the nodes they treat as roots.
    /// Returns `false` (without work) when no live WSCAN reads `label`.
    pub fn ingest(
        &mut self,
        label: Label,
        delta: Delta,
        now: Timestamp,
        sink: impl FnMut(usize, &DeltaBatch),
    ) -> bool {
        self.ingest_epoch(std::iter::once((label, delta)), now, sink) > 0
    }

    /// Seeds a whole **epoch** of input deltas — a timestamp-ordered chunk
    /// that crosses no slide boundary — into the source inboxes and sweeps
    /// the dataflow once. Deltas whose label no live WSCAN reads are
    /// discarded. Returns the number of deltas delivered to sources.
    ///
    /// `now` is the event-time watermark the epoch opened at (the
    /// timestamp of its first delta): callers advance time *before*
    /// ingesting, so within the epoch no grid-aligned interval changes its
    /// expired-ness.
    pub fn ingest_epoch(
        &mut self,
        epoch: impl IntoIterator<Item = (Label, Delta)>,
        now: Timestamp,
        sink: impl FnMut(usize, &DeltaBatch),
    ) -> usize {
        debug_assert!(self.seeds.is_empty());
        self.ensure_schedule();
        let mut delivered = 0usize;
        for (label, delta) in epoch {
            let Some(starts) = self.sources.get(&label) else {
                continue; // labels no plan references are discarded
            };
            match starts[..] {
                [] => continue,
                [n] => {
                    Self::seed(&mut self.seeds, &mut self.spare, n).push(delta);
                }
                [first, ref rest @ ..] => {
                    for &n in rest {
                        Self::seed(&mut self.seeds, &mut self.spare, n).push(delta.clone());
                    }
                    Self::seed(&mut self.seeds, &mut self.spare, first).push(delta);
                }
            }
            delivered += 1;
        }
        if delivered == 0 {
            return 0;
        }
        for (n, batch) in self.seeds.drain() {
            if self.inboxes[n].is_empty() {
                self.ready[self.level_of[n]].push(n);
            }
            self.inboxes[n].push((0, batch.into_shared()));
        }
        self.stats.epochs += 1;
        self.stats.input_deltas += delivered as u64;
        self.stats.max_epoch_input = self.stats.max_epoch_input.max(delivered);
        // An installed sink opts into epoch open/close timing regardless of
        // the `ObsLevel` — tracing is already a per-epoch cost commitment.
        let started = self.trace.is_some().then(Instant::now);
        self.emit_trace(TraceEvent::EpochOpen {
            epoch: self.stats.epochs,
            now,
            input_deltas: delivered,
        });
        self.run_epoch(now, sink);
        if let Some(started) = started {
            let nanos = started.elapsed().as_nanos() as u64;
            self.emit_trace(TraceEvent::EpochClose {
                epoch: self.stats.epochs,
                nanos,
            });
        }
        delivered
    }

    /// Replaces node `n`'s operator, returning the previous one. Used by
    /// the multi-query host to adopt state warmed in a private replay
    /// instance (see [`crate::multiquery`]); the caller is responsible for the
    /// replacement being an equivalent operator for the node's expression.
    pub fn replace_op(&mut self, n: usize, op: Box<dyn PhysicalOp>) -> Box<dyn PhysicalOp> {
        std::mem::replace(&mut self.nodes[n].op, op)
    }

    /// Removes and returns node `n`'s operator, leaving a tombstone (used
    /// to move warmed state out of a throwaway replay dataflow). The level
    /// schedule is rebuilt, pruning every edge still pointing at `n`, so a
    /// later sweep can never enqueue the tombstone.
    pub fn take_op(&mut self, n: usize) -> Box<dyn PhysicalOp> {
        self.retired[n] = true;
        self.nodes[n].reads.clear();
        self.schedule_dirty = true;
        let op = std::mem::replace(&mut self.nodes[n].op, Box::new(Tombstone));
        self.ensure_schedule();
        op
    }

    /// The S-PATH and PATTERN nodes reading node `u`'s edge store, in
    /// fan-out order, once per port (none if `u` has no store).
    pub(crate) fn store_readers(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes[u]
            .succs
            .iter()
            .map(|&(s, _)| s)
            .filter(move |&s| self.nodes[s].reads.contains(&Some(u)))
    }

    /// Removes and returns node `u`'s edge store (used to move a warmed
    /// store out of a throwaway replay dataflow).
    pub(crate) fn take_store(&mut self, u: usize) -> Option<EdgeStore> {
        self.stores[u].take()
    }

    /// Replaces node `u`'s edge store with `store`, warmed elsewhere for
    /// the same input. `u` must have a store (a reader reads it).
    pub(crate) fn adopt_store(&mut self, u: usize, store: EdgeStore) {
        let live = self.stores[u].as_mut().expect("adopting into a read node");
        debug_assert_eq!(live.label(), store.label());
        *live = store;
    }

    /// Reports `batch` as an emission of `origin` (through `sink`) and
    /// propagates it to `origin`'s successors. Used for operator outputs
    /// produced outside the delivery loop, e.g. purge continuations.
    pub fn emit_from(
        &mut self,
        origin: usize,
        batch: DeltaBatch,
        now: Timestamp,
        mut sink: impl FnMut(usize, &DeltaBatch),
    ) {
        if batch.is_empty() {
            return;
        }
        self.ensure_schedule();
        self.stats.epochs += 1;
        self.publish(origin, batch, now, &mut sink);
        self.run_epoch(now, sink);
    }

    /// Shares `batch` into every successor inbox of `n` and reports it to
    /// `sink`. Successors whose inbox was empty join their level's ready
    /// list (levels are strictly increasing along edges, so a publish
    /// during the sweep always targets a level not yet reached). If S-PATHs
    /// or PATTERNs read `n`, its store loads the batch first; a batch with
    /// deletions is read by them here, run by run
    /// ([`Dataflow::step_readers`]).
    fn publish(
        &mut self,
        n: usize,
        batch: DeltaBatch,
        now: Timestamp,
        sink: &mut impl FnMut(usize, &DeltaBatch),
    ) {
        self.stats.deltas_emitted += batch.len() as u64;
        let stepped = self.stores[n].is_some() && !batch.is_insert_only();
        if stepped {
            self.step_readers(n, &batch, now);
        } else if let Some(store) = &mut self.stores[n] {
            let started = self.opts.obs.timing().then(Instant::now);
            store.load(batch.as_slice());
            self.charge(n, started);
        }
        if self.nodes[n].succs.is_empty() {
            sink(n, &batch);
            self.recycle(batch);
            return;
        }
        let shared = batch.into_shared();
        for i in 0..self.nodes[n].succs.len() {
            let (succ, port) = self.nodes[n].succs[i];
            self.stats.fanout_deliveries += 1;
            if stepped && self.nodes[succ].reads.contains(&Some(n)) {
                continue; // read in the step
            }
            self.enqueue(succ);
            self.inboxes[succ].push((port, shared.clone()));
        }
        sink(n, &shared);
    }

    /// Puts `n` on its level's ready list unless it is there already.
    fn enqueue(&mut self, n: usize) {
        if self.inboxes[n].is_empty() && !self.held.contains_key(&n) {
            self.ready[self.level_of[n]].push(n);
        }
    }

    /// Applies `batch`, which deletes, to `n`'s store run by run: each run
    /// is applied once and read by every reader of `n` before the next run
    /// is applied — by a PATTERN on each of its ports over `n`, in port
    /// order. Each reader first reads what reached it earlier in the
    /// epoch, so it sees its inputs in arrival order. The readers' output
    /// is held for their turn in the sweep.
    fn step_readers(&mut self, n: usize, batch: &DeltaBatch, now: Timestamp) {
        let mut readers: Vec<usize> = self.store_readers(n).collect();
        readers.sort_unstable();
        readers.dedup();
        let mut outs = Vec::with_capacity(readers.len());
        let mut ports = Vec::with_capacity(readers.len());
        for &r in &readers {
            self.enqueue(r);
            let mut out = match self.held.remove(&r) {
                Some(out) => out,
                None => self.spare.pop().unwrap_or_default(),
            };
            let mut segs = std::mem::take(&mut self.inboxes[r]);
            if !segs.is_empty() {
                let started = self.opts.obs.timing().then(Instant::now);
                self.consume(r, &segs, now, &mut out);
                self.charge(r, started);
                for (_, seg) in segs.drain(..) {
                    self.recycle_shared(seg);
                }
            }
            self.inboxes[r] = segs; // keep the allocation
            outs.push(out);
            let succs = self.nodes[n].succs.iter();
            ports.push(
                succs
                    .filter(|&&(s, _)| s == r)
                    .map(|&(_, p)| p)
                    .collect::<Vec<_>>(),
            );
        }
        let mut at = 0;
        for run in runs(batch.as_slice()) {
            let started = self.opts.obs.timing().then(Instant::now);
            let store = self.stores[n].as_mut().expect("stepped nodes keep a store");
            let len = match run {
                Run::Inserts(run) => {
                    store.load(run);
                    run.len()
                }
                Run::Delete(s) => {
                    store.remove(s);
                    1
                }
            };
            let deltas = &batch.as_slice()[at..at + len];
            at += len;
            self.charge(n, started);
            for ((&r, out), ports) in readers.iter().zip(&mut outs).zip(&ports) {
                let started = self.opts.obs.timing().then(Instant::now);
                let DataflowNode { op, reads, .. } = &mut self.nodes[r];
                let out = out.as_mut_vec();
                if let Some(pattern) = op.as_pattern_mut() {
                    for (i, &port) in ports.iter().enumerate() {
                        let later = &ports[i + 1..];
                        let leaves = Leaves {
                            stores: &self.stores,
                            reads,
                            pending: |p| later.contains(&p),
                        };
                        pattern.consume(port, deltas, &leaves, out);
                    }
                } else {
                    let graph = Inputs {
                        stores: &self.stores,
                        reads,
                    };
                    match run {
                        Run::Inserts(_) => {
                            let load = graph.stores[n].as_ref().map(EdgeStore::epoch_load);
                            spath(op).insert_pass(&graph, load.into_iter(), now, out);
                        }
                        Run::Delete(s) => spath(op).delete(&graph, s, now, out),
                    }
                }
                self.charge(r, started);
            }
        }
        for (r, out) in readers.into_iter().zip(outs) {
            self.count_invocations(r, 1, batch.len() as u64);
            self.held.insert(r, out);
        }
    }

    /// Runs node `n` on delivered segments, appending to `out`: an
    /// operator once per segment, a store-reading PATTERN once per segment
    /// with the ports of later segments in their old view, an S-PATH once
    /// over all of them.
    fn consume(
        &mut self,
        n: usize,
        segs: &[(usize, SharedDeltaBatch)],
        now: Timestamp,
        out: &mut DeltaBatch,
    ) {
        let DataflowNode { op, reads, .. } = &mut self.nodes[n];
        if reads.is_empty() {
            for (port, batch) in segs {
                op.on_batch(*port, batch, now, out);
            }
        } else if let Some(pattern) = op.as_pattern_mut() {
            for (i, (port, batch)) in segs.iter().enumerate() {
                let later = &segs[i + 1..];
                let leaves = Leaves {
                    stores: &self.stores,
                    reads,
                    pending: |p| later.iter().any(|&(q, _)| q == p),
                };
                pattern.consume(*port, batch.as_slice(), &leaves, out.as_mut_vec());
            }
        } else if !segs.is_empty() {
            let graph = Inputs {
                stores: &self.stores,
                reads,
            };
            let loads = segs.iter().map(|&(port, _)| graph.load(port));
            spath(op).insert_pass(&graph, loads, now, out.as_mut_vec());
        }
        let dispatched = segs.iter().map(|(_, b)| b.len() as u64).sum();
        self.count_invocations(n, segs.len() as u64, dispatched);
    }

    /// Counts `invocations` of node `n` on `dispatched` deltas.
    fn count_invocations(&mut self, n: usize, invocations: u64, dispatched: u64) {
        self.stats.deltas_dispatched += dispatched;
        self.stats.operator_invocations += invocations;
        if self.opts.obs.counting() {
            let os = &mut self.op_stats[n];
            os.invocations += invocations;
            os.deltas_in += dispatched;
        }
    }

    /// Charges the time since `started` (taken at [`ObsLevel::Timing`]
    /// only) to node `n`'s batch time.
    fn charge(&mut self, n: usize, started: Option<Instant>) {
        if let Some(started) = started {
            let nanos = started.elapsed().as_nanos() as u64;
            self.op_stats[n].batch_nanos += nanos;
            if self.profile_epochs {
                self.epoch_profile.push((n, nanos));
            }
        }
    }

    /// The epoch sweep, driven by the explicit level schedule: levels run
    /// in depth order, and within a level the ready nodes run in ascending
    /// node-id order on the calling thread. Every edge crosses to a
    /// strictly higher level, so when a level runs all of its inputs for
    /// this epoch are present. Each node consumes its inbox
    /// segments in arrival order, one [`PhysicalOp::on_batch`] call per
    /// segment, and publishes a single combined output batch that each
    /// successor receives by reference.
    fn run_epoch(&mut self, now: Timestamp, mut sink: impl FnMut(usize, &DeltaBatch)) {
        debug_assert!(!self.schedule_dirty);
        for lvl in 0..self.ready.len() {
            if self.ready[lvl].is_empty() {
                continue;
            }
            let mut nodes = std::mem::take(&mut self.ready[lvl]);
            // Ready order is publish order, not id order; restore the
            // deterministic schedule order.
            nodes.sort_unstable();
            self.stats.levels_run += 1;
            self.stats.max_level_width = self.stats.max_level_width.max(nodes.len());
            if self.trace.is_some() {
                self.emit_trace(TraceEvent::LevelDispatch {
                    epoch: self.stats.epochs,
                    level: lvl,
                    width: nodes.len(),
                });
            }
            for &n in &nodes {
                self.run_node(n, now, &mut sink);
            }
            nodes.clear();
            self.ready[lvl] = nodes; // keep the allocation
        }
    }

    /// Runs one ready node on the calling thread: consume inbox segments,
    /// publish the combined output (after any output held for it).
    fn run_node(&mut self, n: usize, now: Timestamp, sink: &mut impl FnMut(usize, &DeltaBatch)) {
        let mut segs = std::mem::take(&mut self.inboxes[n]);
        let mut out = match self.held.remove(&n) {
            Some(out) => out,
            None => self.spare.pop().unwrap_or_default(),
        };
        // The serial hot path stays clock-free below `ObsLevel::Timing`.
        let started = self.opts.obs.timing().then(Instant::now);
        self.consume(n, &segs, now, &mut out);
        for (_, batch) in segs.drain(..) {
            self.recycle_shared(batch);
        }
        if self.opts.obs.counting() {
            self.op_stats[n].deltas_out += out.len() as u64;
        }
        self.charge(n, started);
        self.inboxes[n] = segs; // keep the allocation
        if out.is_empty() {
            self.spare.push(out);
        } else {
            self.publish(n, out, now, sink);
        }
    }

    /// The seed batch under assembly for source `n`, drawing recycled
    /// allocations from the pool.
    fn seed<'a>(
        seeds: &'a mut FxHashMap<usize, DeltaBatch>,
        spare: &mut Vec<DeltaBatch>,
        n: usize,
    ) -> &'a mut DeltaBatch {
        seeds
            .entry(n)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Returns a consumed batch to the allocation pool.
    fn recycle(&mut self, mut batch: DeltaBatch) {
        if self.spare.len() < 32 {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Returns a consumed shared batch to the pool if this was the last
    /// reference (fan-out peers may still hold it).
    fn recycle_shared(&mut self, batch: SharedDeltaBatch) {
        if let Some(batch) = std::sync::Arc::into_inner(batch) {
            self.recycle(batch);
        }
    }

    /// Purges operator state expired at `watermark` and propagates any
    /// continuation results (the negative-tuple PATH emits during window
    /// movement). When `reclaim_all` is false, only operators whose
    /// algorithm *reacts* to window movement are purged
    /// ([`PhysicalOp::needs_timely_purge`]); direct-approach reclamation is
    /// amortised by the caller.
    ///
    /// `now` is the event-time watermark continuation deltas are delivered
    /// under — the caller's *current* time, which lags `watermark` when
    /// several crossed boundaries are purged before time advances.
    ///
    /// Operators are purged one at a time in ascending node order, and a
    /// continuation is propagated before the next operator purges.
    pub fn purge(
        &mut self,
        watermark: Timestamp,
        now: Timestamp,
        reclaim_all: bool,
        mut sink: impl FnMut(usize, &DeltaBatch),
    ) {
        self.ensure_schedule();
        let purge_started = self.trace.is_some().then(Instant::now);
        let mut purged_ops = 0usize;
        for n in 0..self.nodes.len() {
            if self.retired[n] || (!reclaim_all && !self.nodes[n].op.needs_timely_purge()) {
                continue;
            }
            purged_ops += 1;
            let started = self.opts.obs.timing().then(Instant::now);
            let mut outs = self.spare.pop().unwrap_or_default();
            self.nodes[n].op.purge(watermark, outs.as_mut_vec());
            if let Some(store) = self.stores[n].as_mut().filter(|_| reclaim_all) {
                store.purge(watermark);
            }
            if self.opts.obs.counting() {
                let os = &mut self.op_stats[n];
                os.purges += 1;
                os.deltas_out += outs.len() as u64;
                if let Some(started) = started {
                    os.purge_nanos += started.elapsed().as_nanos() as u64;
                }
            }
            if outs.is_empty() {
                self.spare.push(outs);
            } else {
                // Continuation results (negative-tuple PATH window
                // movement) propagate as one epoch from their origin.
                self.emit_from(n, outs, now, &mut sink);
            }
        }
        if let Some(started) = purge_started {
            let nanos = started.elapsed().as_nanos() as u64;
            self.emit_trace(TraceEvent::Purge {
                watermark,
                reclaim_all,
                ops: purged_ops,
                nanos,
            });
        }
    }

    /// Forwards `ev` to the installed trace sink, if any.
    fn emit_trace(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.event(&ev);
        }
    }

    /// Installs a structured lifecycle-event sink. Installing a sink opts
    /// into epoch open/close wall-clock timing regardless of
    /// [`EngineOptions::obs`] (tracing is already a per-epoch cost
    /// commitment); all other timing still requires [`ObsLevel::Timing`].
    /// Tracing never affects results or [`ExecStats`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Forwards a host-originated event (query registration churn and the
    /// like) to the installed trace sink, if any — hosts share the
    /// dataflow's sink instead of threading their own.
    pub fn trace_event(&mut self, ev: &TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.event(ev);
        }
    }

    /// The observability collection level this dataflow runs at.
    pub fn obs_level(&self) -> ObsLevel {
        self.opts.obs
    }

    /// Node `n`'s accumulated observability stats (all-zero below
    /// [`ObsLevel::Counters`]).
    pub fn op_stats(&self, n: usize) -> OpStats {
        self.op_stats[n]
    }

    /// Opts into per-node timing samples: at [`ObsLevel::Timing`] every
    /// `(node, batch_nanos)` sample is additionally logged for
    /// [`Dataflow::take_epoch_profile`] to drain. Hosts that attribute
    /// shared-operator cost to subscriber queries (the multi-query
    /// engine) enable this; the log grows until drained, so enabling it
    /// without draining leaks.
    pub fn enable_epoch_profile(&mut self) {
        self.profile_epochs = true;
    }

    /// Drains the timing samples accumulated since the last drain into
    /// `into` (appending; existing contents are kept).
    pub fn take_epoch_profile(&mut self, into: &mut Vec<(usize, u64)>) {
        into.append(&mut self.epoch_profile);
    }

    /// A point-in-time snapshot of every live operator: identity (node,
    /// name, level), accumulated [`OpStats`], and retained state
    /// entries, in ascending node order.
    pub fn operator_snapshots(&self) -> Vec<OperatorSnapshot> {
        debug_assert!(!self.schedule_dirty);
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n])
            .map(|n| OperatorSnapshot {
                node: n,
                name: self.nodes[n].op.name(),
                level: self.level_of[n],
                stats: self.op_stats[n],
                state_entries: self.node_state(n),
                frontier: self.nodes[n].op.frontier_stats(),
            })
            .collect()
    }

    /// The [`PathCensus`](crate::physical::PathCensus) of every live PATH
    /// operator, by node id.
    pub fn path_censuses(&self) -> Vec<(usize, crate::physical::PathCensus)> {
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n])
            .filter_map(|n| Some((n, self.nodes[n].op.path_census()?)))
            .collect()
    }

    /// The census of every edge store, by the node whose output it holds.
    pub fn store_censuses(&self) -> Vec<(usize, AdjacencyCensus)> {
        (0..self.nodes.len())
            .filter_map(|u| Some((u, self.stores[u].as_ref()?.census())))
            .collect()
    }

    /// The [`PatternCensus`](crate::physical::PatternCensus) of every live
    /// hash-join PATTERN operator, by node id.
    pub fn pattern_censuses(&self) -> Vec<(usize, crate::physical::PatternCensus)> {
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n])
            .filter_map(|n| Some((n, self.nodes[n].op.pattern_census()?)))
            .collect()
    }

    /// Sums the frontier traversal counters of every live PATH operator
    /// (nodes settled / improved, heap pushes, edges scanned). Zero when
    /// the flow holds no traversal operator.
    pub fn frontier_totals(&self) -> crate::obs::FrontierStats {
        let mut total = crate::obs::FrontierStats::default();
        for n in 0..self.nodes.len() {
            if self.retired[n] {
                continue;
            }
            if let Some(f) = self.nodes[n].op.frontier_stats() {
                total.merge(&f);
            }
        }
        total
    }

    /// Renders `expr`'s lowered operator tree with live counters — the
    /// explain-analyze body shared by [`Engine`](crate::engine::Engine)
    /// and the multi-query host. Counter fields read zero below
    /// [`ObsLevel::Counters`]; timing fields appear only once non-zero
    /// (i.e. under [`ObsLevel::Timing`]). A PATH or hash-join PATTERN
    /// operator's line also carries `bytes=`, the heap its state reserves
    /// (a census scan, at every level).
    pub fn explain_expr(&self, expr: &SgaExpr) -> String {
        let mut out = String::new();
        self.explain_rec(expr, 0, &mut out);
        out
    }

    fn explain_rec(&self, expr: &SgaExpr, depth: usize, out: &mut String) {
        use std::fmt::Write;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self.lookup(expr).filter(|&n| !self.retired[n]) {
            Some(n) => {
                let node = &self.nodes[n];
                let os = self.op_stats[n];
                let _ = write!(out, "#{n} {} level={}", node.op.name(), self.level_of[n]);
                let _ = write!(
                    out,
                    " inv={} in={} out={} sel={:.3} state={}",
                    os.invocations,
                    os.deltas_in,
                    os.deltas_out,
                    os.selectivity(),
                    self.node_state(n),
                );
                let bytes = match (node.op.path_census(), node.op.pattern_census()) {
                    (Some(c), _) => Some(c.reserved_bytes()),
                    (_, Some(c)) => Some(c.reserved_bytes),
                    _ => None,
                };
                if let Some(bytes) = bytes {
                    let _ = write!(out, " bytes={bytes}");
                }
                if let Some(store) = &self.stores[n] {
                    let _ = write!(out, " store_bytes={}", store.census().reserved_bytes);
                }
                if os.batch_nanos > 0 {
                    let _ = write!(out, " time={}", fmt_nanos(os.batch_nanos));
                }
                if os.purges > 0 {
                    let _ = write!(out, " purge={}x/{}", os.purges, fmt_nanos(os.purge_nanos));
                }
                if let Some(f) = node.op.frontier_stats().filter(|f| !f.is_zero()) {
                    let _ = write!(
                        out,
                        " settled={} improved={} pushes={} scanned={} ratio={:.3}",
                        f.nodes_settled,
                        f.nodes_improved,
                        f.heap_pushes,
                        f.edges_scanned,
                        f.settle_ratio(),
                    );
                }
            }
            None => out.push_str("<not lowered>"),
        }
        out.push('\n');
        for child in expr.children() {
            self.explain_rec(child, depth + 1, out);
        }
    }
}

/// Inert operator occupying a retired node slot.
struct Tombstone;

impl PhysicalOp for Tombstone {
    fn name(&self) -> String {
        "RETIRED".to_string()
    }

    fn on_batch(
        &mut self,
        _port: usize,
        _batch: &DeltaBatch,
        _now: Timestamp,
        _out: &mut DeltaBatch,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_canonical;
    use sgq_query::{parse_program, SgqQuery, WindowSpec};

    fn plan(text: &str) -> crate::planner::Plan {
        let p = parse_program(text).unwrap();
        plan_canonical(&SgqQuery::new(p, WindowSpec::sliding(10)))
    }

    #[test]
    fn lowering_is_memoized_across_plans() {
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let r1 = flow.lower(&p.expr);
        let before = flow.len();
        let r2 = flow.lower(&p.expr);
        assert_eq!(r1, r2);
        assert_eq!(flow.len(), before, "second lowering adds no nodes");
    }

    #[test]
    fn nodes_of_collects_the_subgraph() {
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let root = flow.lower(&p.expr);
        let nodes = flow.nodes_of(&p.expr);
        assert!(nodes.contains(&root));
        assert_eq!(nodes.len(), 3, "two WSCANs and a PATTERN");
    }

    #[test]
    fn level_schedule_tracks_topological_depth() {
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let root = flow.lower(&p.expr);
        // Two WSCANs at level 0, the PATTERN above them.
        assert_eq!(flow.level_count(), 2);
        assert_eq!(flow.level_widths(), vec![2, 1]);
        assert_eq!(flow.level_of(root), 1);
        // A second plan deepens the schedule without disturbing the first:
        // both WSCANs are shared, its PATH sits above `a`'s WSCAN at level
        // 1 (beside the first plan's PATTERN), its own PATTERN at level 2.
        let p2 = plan("Ans(x, y) <- a+(x, m), b(m, y).");
        let root2 = flow.lower(&p2.expr);
        assert_eq!(flow.level_count(), 3);
        assert_eq!(flow.level_widths(), vec![2, 2, 1]);
        assert_eq!(flow.level_of(root2), 2);
        assert_eq!(flow.level_of(root), 1, "existing depths unchanged");
    }

    #[test]
    fn retire_rebuilds_schedule() {
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a+(x, m), c(m, y).");
        let _ = flow.lower(&p.expr);
        assert_eq!(flow.level_count(), 3);
        flow.retire(&flow.nodes_of(&p.expr));
        assert_eq!(flow.level_count(), 0, "no live nodes, no levels");
        assert_eq!(flow.level_widths(), Vec::<usize>::new());
    }

    #[test]
    fn take_op_prunes_dangling_successor_edges() {
        // `take_op` retires a node in place without severing the edges
        // pointing at it; the schedule rebuild must prune them so the
        // sweep never enqueues (and dispatches) the tombstone.
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let root = flow.lower(&p.expr);
        let _ = flow.take_op(root);
        assert!(flow.is_retired(root));
        for n in 0..flow.len() {
            if !flow.is_retired(n) {
                assert!(
                    !flow.nodes[n].succs.iter().any(|&(s, _)| s == root),
                    "node {n} still points at the taken root"
                );
            }
        }
        // The WSCANs survive at level 0 and an ingest completes without
        // ever delivering to the tombstone.
        assert_eq!(flow.level_widths(), vec![2]);
        let a = p.labels.get("a").unwrap();
        let delivered = flow.ingest(
            a,
            Delta::Insert(sgq_types::Sgt::edge(
                sgq_types::VertexId(1),
                sgq_types::VertexId(2),
                a,
                sgq_types::Interval::new(0, 10),
            )),
            0,
            |n, _| assert_ne!(n, root, "tombstone must not emit"),
        );
        assert!(delivered);
    }

    /// `a+` and `a b*` over one WSCAN of `a` (window 10), and the scan.
    fn two_paths_over_one_scan() -> (SgaExpr, SgaExpr, SgaExpr) {
        use sgq_automata::Regex;
        let (a, b) = (Label(0), Label(1));
        let scan = |label| SgaExpr::WScan {
            label,
            window: 10,
            slide: 1,
        };
        let plus = SgaExpr::Path {
            inputs: vec![scan(a)],
            regex: Regex::plus(Regex::label(a)),
            label: Label(5),
        };
        let tail = SgaExpr::Path {
            inputs: vec![scan(a), scan(b)],
            regex: Regex::concat(vec![Regex::label(a), Regex::star(Regex::label(b))]),
            label: Label(6),
        };
        (plus, tail, scan(a))
    }

    fn edge(delete: bool, src: u64, trg: u64, label: u32, t: u64) -> (Label, Delta) {
        let s = sgq_types::Sgt::edge(
            sgq_types::VertexId(src),
            sgq_types::VertexId(trg),
            Label(label),
            sgq_types::Interval::new(t, t + 10),
        );
        let d = if delete {
            Delta::Delete(s)
        } else {
            Delta::Insert(s)
        };
        (Label(label), d)
    }

    #[test]
    fn spaths_over_one_input_share_its_store_until_the_last_reader_retires() {
        let (plus, tail, scan) = two_paths_over_one_scan();
        let mut flow = Dataflow::new(EngineOptions::default());
        let (p, t) = (flow.lower(&plus), flow.lower(&tail));
        let a = flow.lookup(&scan).unwrap();
        let stores: Vec<usize> = flow.store_censuses().iter().map(|&(u, _)| u).collect();
        assert_eq!(stores.len(), 2, "one store per scan read: {stores:?}");
        assert!(stores.contains(&a));
        assert_eq!(flow.store_readers(a).collect::<Vec<_>>(), vec![p, t]);
        let epoch = [edge(false, 1, 2, 0, 0), edge(false, 2, 3, 0, 0)];
        flow.ingest_epoch(epoch, 0, |_, _| {});
        let census = |flow: &Dataflow, u| {
            flow.store_censuses()
                .into_iter()
                .find(|&(n, _)| n == u)
                .map(|(_, c)| c)
        };
        assert_eq!(census(&flow, a).unwrap().edges, 2, "loaded once");
        // Bytes once per store, on the line of the node it belongs to.
        let text = flow.explain_expr(&plus);
        assert_eq!(text.matches("store_bytes=").count(), 1, "{text}");
        let scan_line = text.lines().find(|l| l.contains("WSCAN")).unwrap();
        assert!(scan_line.contains("store_bytes="), "{text}");
        // The store outlives one reader and goes with the last.
        flow.retire(&[p].into_iter().collect());
        assert_eq!(census(&flow, a).unwrap().edges, 2);
        flow.retire(&flow.nodes_of(&tail));
        assert!(flow.store_censuses().is_empty());
    }

    /// `d(x, z) <- a(x, y), b(y, z)` over WSCANs of `a` and `b` (window 10).
    fn chain_pattern(a: Label, b: Label) -> SgaExpr {
        use crate::algebra::Pos;
        let scan = |label| SgaExpr::WScan {
            label,
            window: 10,
            slide: 1,
        };
        SgaExpr::Pattern {
            inputs: vec![scan(a), scan(b)],
            conditions: vec![(Pos::trg(0), Pos::src(1))],
            output: (Pos::src(0), Pos::trg(1)),
            label: Label(7),
        }
    }

    /// The census of node `u`'s store, if it has one.
    fn store_census(flow: &Dataflow, u: usize) -> Option<AdjacencyCensus> {
        flow.store_censuses()
            .into_iter()
            .find(|&(n, _)| n == u)
            .map(|(_, c)| c)
    }

    #[test]
    fn an_spath_and_a_pattern_over_one_input_share_its_store() {
        let (plus, _, scan) = two_paths_over_one_scan();
        let join = chain_pattern(Label(0), Label(1));
        let mut flow = Dataflow::new(EngineOptions::default());
        let (p, j) = (flow.lower(&plus), flow.lower(&join));
        let a = flow.lookup(&scan).unwrap();
        assert_eq!(flow.store_readers(a).collect::<Vec<_>>(), vec![p, j]);
        assert_eq!(flow.store_censuses().len(), 2, "a's store and b's");
        let epoch = [
            edge(false, 1, 2, 0, 0),
            edge(false, 2, 3, 0, 0),
            edge(false, 2, 5, 1, 0),
        ];
        let mut joined = Vec::new();
        flow.ingest_epoch(epoch, 0, |n, batch| {
            if n == j {
                joined.extend(batch.iter().map(|d| (d.sgt().src.0, d.sgt().trg.0)));
            }
        });
        assert_eq!(joined, vec![(1, 5)]);
        assert_eq!(store_census(&flow, a).unwrap().edges, 2, "loaded once");
        let pattern = flow.pattern_censuses();
        assert_eq!(pattern.len(), 1);
        assert_eq!((pattern[0].1.rows, pattern[0].1.leaf_rows), (0, 0));
        let text = flow.explain_expr(&join);
        assert_eq!(text.matches("store_bytes=").count(), 2, "{text}");
        // The store goes with its last reader, whichever kind that is.
        flow.retire(&[p].into_iter().collect());
        assert_eq!(store_census(&flow, a).unwrap().edges, 2);
        flow.retire(&flow.nodes_of(&join));
        assert!(flow.store_censuses().is_empty());
        flow.lower(&plus);
        let j = flow.lower(&join);
        let a = flow.lookup(&scan).unwrap();
        flow.retire(&[j].into_iter().collect());
        assert!(store_census(&flow, a).is_some(), "the S-PATH still reads a");
        flow.retire(&flow.nodes_of(&plus));
        assert!(flow.store_censuses().is_empty());
    }

    #[test]
    fn a_one_input_pattern_and_a_union_read_no_store() {
        let mut flow = Dataflow::new(EngineOptions::default());
        for (text, op) in [
            ("Ans(y, x) <- a(x, y).", "PATTERN[1 inputs"),
            ("Ans(x, y) <- a(x, y). Ans(x, y) <- b(x, y).", "UNION"),
        ] {
            let root = flow.lower(&plan(text).expr);
            assert!(flow.nodes[root].op.name().starts_with(op), "{text}");
            assert!(flow.nodes[root].reads.is_empty(), "{text}");
        }
        assert!(flow.store_censuses().is_empty());
    }

    #[test]
    fn q5s_two_has_creator_ports_read_one_store() {
        let p = plan(
            "Ans(m1, m2) <- knows(x, y), hasCreator(m1, x), hasCreator(m2, y), \
             replyOf(m2, m1).",
        );
        let mut flow = Dataflow::new(EngineOptions::default());
        let root = flow.lower(&p.expr);
        let hc = p.labels.get("hasCreator").unwrap();
        let scan = (0..flow.len())
            .find(|&n| flow.sources.get(&hc).is_some_and(|s| s.contains(&n)))
            .unwrap();
        let reads = &flow.nodes[root].reads;
        assert_eq!(reads.len(), 4);
        assert_eq!(reads.iter().filter(|&&u| u == Some(scan)).count(), 2);
        assert_eq!(flow.store_censuses().len(), 3, "knows, hasCreator, replyOf");
        assert_eq!(flow.store_readers(scan).collect::<Vec<_>>(), [root, root]);
    }

    /// `d(m1, m2) <- k(x, y), h(m1, x), h(m2, y), r(m2, m1)` — SNB Q5, with
    /// two ports over the WSCAN of `h`.
    fn q5(window: u64) -> SgaExpr {
        use crate::algebra::Pos;
        let scan = |label| SgaExpr::WScan {
            label,
            window,
            slide: 1,
        };
        SgaExpr::Pattern {
            inputs: vec![
                scan(Label(0)),
                scan(Label(1)),
                scan(Label(1)),
                scan(Label(2)),
            ],
            conditions: vec![
                (Pos::src(0), Pos::trg(1)),
                (Pos::trg(0), Pos::trg(2)),
                (Pos::src(2), Pos::src(3)),
                (Pos::src(1), Pos::trg(3)),
            ],
            output: (Pos::src(1), Pos::src(2)),
            label: Label(7),
        }
    }

    #[test]
    fn store_backed_pattern_answers_like_wcoj_under_twin_ports_and_deletions() {
        // Four vertices, so self-loops join one `h` edge with itself across
        // the two ports; epochs mix inserts and deletes of live edges.
        const W: u64 = 12;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for suppress in [false, true] {
            let mut live: Vec<sgq_types::Sgt> = Vec::new();
            let mut epochs: Vec<(u64, Vec<(Label, Delta)>)> = Vec::new();
            for now in 0..120u64 {
                live.retain(|s| s.interval.exp > now);
                let mut epoch = Vec::new();
                for _ in 0..1 + next(6) {
                    if !suppress && !live.is_empty() && next(4) == 0 {
                        let s = live.swap_remove(next(live.len() as u64) as usize);
                        epoch.push((s.label, Delta::Delete(s)));
                        continue;
                    }
                    let label = Label(next(3) as u32);
                    let (src, trg) = (sgq_types::VertexId(next(4)), sgq_types::VertexId(next(4)));
                    if !suppress
                        && live
                            .iter()
                            .any(|s| (s.src, s.trg, s.label) == (src, trg, label))
                    {
                        continue; // one live occurrence per edge
                    }
                    let s = sgq_types::Sgt::edge(
                        src,
                        trg,
                        label,
                        sgq_types::Interval::new(now, now + W),
                    );
                    if !suppress {
                        live.push(s.clone());
                    }
                    epoch.push((label, Delta::Insert(s)));
                }
                epochs.push((now, epoch));
            }
            let answers = |pattern_impl| {
                let mut flow = Dataflow::new(EngineOptions {
                    suppress_duplicates: suppress,
                    pattern_impl,
                    ..Default::default()
                });
                let root = flow.lower(&q5(W));
                let mut emitted: Vec<Delta> = Vec::new();
                let mut out = Vec::new();
                for (now, epoch) in &epochs {
                    flow.ingest_epoch(epoch.iter().cloned(), *now, |n, batch| {
                        if n == root {
                            emitted.extend(batch.iter().cloned());
                        }
                    });
                    let mut net: FxHashMap<(u64, u64), i64> = FxHashMap::default();
                    for d in &emitted {
                        let s = d.sgt();
                        if s.interval.contains(*now) {
                            *net.entry((s.src.0, s.trg.0)).or_default() +=
                                if d.is_delete() { -1 } else { 1 };
                        }
                    }
                    let mut at: Vec<(u64, u64)> = net
                        .into_iter()
                        .filter(|&(_, c)| c > 0)
                        .map(|(p, _)| p)
                        .collect();
                    at.sort_unstable();
                    out.push(at);
                }
                out
            };
            let (tree, wcoj) = (answers(PatternImpl::HashTree), answers(PatternImpl::Wcoj));
            assert!(tree.iter().any(|a| !a.is_empty()), "suppress={suppress}");
            assert!(
                tree.iter().any(|a| a.iter().any(|&(m1, m2)| m1 == m2)),
                "a self-join of one edge answers: suppress={suppress}"
            );
            assert_eq!(tree, wcoj, "suppress={suppress}");
        }
    }

    #[test]
    fn readers_of_a_batch_with_deletions_see_it_run_by_run() {
        // Both S-PATHs read one store; each must emit exactly what it
        // emits as the only reader of a store of its own.
        let (plus, tail, _) = two_paths_over_one_scan();
        let epochs = [
            vec![edge(false, 1, 2, 0, 0), edge(false, 2, 3, 1, 0)],
            vec![
                edge(false, 2, 4, 0, 1),
                edge(true, 1, 2, 0, 0),
                edge(false, 4, 5, 0, 1),
                edge(true, 2, 3, 1, 0),
                edge(false, 1, 4, 0, 1),
            ],
        ];
        let run = |exprs: &[&SgaExpr]| {
            let mut flow = Dataflow::new(EngineOptions {
                suppress_duplicates: false,
                ..Default::default()
            });
            let roots: Vec<usize> = exprs.iter().map(|e| flow.lower(e)).collect();
            let mut out: Vec<Vec<Delta>> = vec![Vec::new(); roots.len()];
            for (now, epoch) in epochs.iter().enumerate() {
                flow.ingest_epoch(epoch.iter().cloned(), now as u64, |n, batch| {
                    if let Some(i) = roots.iter().position(|&r| r == n) {
                        out[i].extend(batch.iter().cloned());
                    }
                });
            }
            out
        };
        let shared = run(&[&plus, &tail]);
        assert_eq!(shared[0], run(&[&plus])[0]);
        assert_eq!(shared[1], run(&[&tail])[0]);
        assert!(shared[0].iter().any(Delta::is_delete), "{:?}", shared[0]);
        assert!(shared[1].iter().any(Delta::is_delete), "{:?}", shared[1]);
    }

    #[test]
    fn retire_tombstones_and_severs_edges() {
        let mut flow = Dataflow::new(EngineOptions::default());
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let _root = flow.lower(&p.expr);
        let nodes = flow.nodes_of(&p.expr);
        assert_eq!(flow.live_count(), 3);
        flow.retire(&nodes);
        assert_eq!(flow.live_count(), 0);
        assert_eq!(flow.lookup(&p.expr), None);
        // Ingest after retirement delivers nowhere.
        let a = p.labels.get("a").unwrap();
        let delivered = flow.ingest(
            a,
            Delta::Insert(sgq_types::Sgt::edge(
                sgq_types::VertexId(1),
                sgq_types::VertexId(2),
                a,
                sgq_types::Interval::new(0, 10),
            )),
            0,
            |_, _| panic!("no emissions from retired graph"),
        );
        assert!(!delivered);
        // Relowering after retirement builds fresh nodes.
        let root2 = flow.lower(&p.expr);
        assert!(!flow.is_retired(root2));
        assert_eq!(flow.live_count(), 3);
    }
}
