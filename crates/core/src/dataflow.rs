//! Reusable physical-dataflow machinery: plan lowering with structural
//! deduplication, epoch-batched delta delivery, and operator retirement.
//!
//! [`Engine`](crate::engine::Engine) historically owned this logic
//! privately; it is factored out so hosts that manage **many** plans over
//! one operator graph (the `sgq_multiquery` crate) can reuse the same
//! lowering, memoization, and push-based delivery:
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
//! serial sweep runs each level's ready nodes (those holding unconsumed
//! deliveries) in ascending node-id order on the calling thread and
//! publishes their outputs in that order; that order *is* the determinism
//! contract every other execution shape reproduces.
//!
//! Level computation relies on the lowering invariant that children are
//! created before parents: every edge points from a lower node id to a
//! higher one, so one ascending pass settles all depths.
//!
//! ## Label-sharded execution
//!
//! With [`EngineOptions::shards`] > 1 the WSCAN leaves are partitioned
//! **by edge label** into shard groups, and each shard's
//! **shard-subgraph** — the closure of operators reachable *only* from
//! its labels, computed over the same pruned successor lists the schedule
//! rebuild maintains — executes a whole epoch (all of its levels, no
//! inter-shard barrier) as one `ShardJob`: inline on the calling thread,
//! or with [`EngineOptions::workers`] > 1 on a persistent worker pool
//! (the private `pool` module). Operators whose inputs span shards are
//! explicit **merge points**: they sit at known levels, so after the
//! shard jobs complete the scheduler thread replays the recorded shard
//! emissions and executes the merge points interleaved in the serial
//! schedule order (levels ascending, node ids ascending within a level).
//! Sink call order, inbox arrival orders, and the deterministic
//! [`ExecStats`] counters are therefore **bit-identical at any `(shards,
//! workers)` combination** — the sharding-determinism proptests and the
//! CI matrix enforce exactly that. Epochs too small to be worth the job
//! assembly (or active on fewer than two shards) take the serial sweep.
//!
//! The pool's only other client is [`Dataflow::purge`], which reclaims
//! runs of direct-approach operators in parallel when `workers > 1`.

use crate::algebra::SgaExpr;
use crate::engine::{DispatchMode, EngineOptions, PathImpl, PatternImpl};
use crate::metrics::ExecStats;
use crate::obs::{fmt_nanos, ObsLevel, OpStats, OperatorSnapshot, TraceEvent, TraceSink};
use crate::physical::pattern::{CompiledPattern, PatternOp};
use crate::physical::simple::{FilterOp, UnionOp, WScanOp};
use crate::physical::wcoj::WcojPatternOp;
use crate::physical::{negpath::NegPathOp, spath::SPathOp, Delta, DeltaBatch, PhysicalOp};
use crate::pool::{PurgeJob, ShardJob, ShardPlan, WorkerPool};
use crate::sketch::{self, Rebalancer, StreamSketch};
use sgq_types::{FxHashMap, FxHashSet, Label, SharedDeltaBatch, Timestamp};
use std::sync::Arc;
use std::time::Instant;

/// Minimum deltas seeded into an epoch before it is routed through the
/// shard-subgraph executor; below this, assembling the jobs (and, with a
/// pool, the queue round-trip and thread wake-ups) costs more than the
/// operator work and the epoch takes the serial sweep. Purely a
/// performance gate — results are identical either way, so any value
/// preserves determinism.
const SHARD_MIN_DELTAS: u64 = 16;

/// One completed shard job's replay state: the shard topology plus a
/// cursor over its recorded emissions, consumed strictly in (level, id)
/// order by the merge replay.
type ShardReplay = (
    Arc<ShardPlan>,
    std::iter::Peekable<std::vec::IntoIter<(usize, SharedDeltaBatch)>>,
);

/// A node in the physical dataflow: an operator plus its fan-out edges
/// `(successor node, input port)`.
pub struct DataflowNode {
    /// The physical operator.
    pub op: Box<dyn PhysicalOp>,
    /// Downstream edges as `(node, port)`.
    pub succs: Vec<(usize, usize)>,
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
    /// Shard owning each node when label sharding is enabled
    /// (`opts.shards > 1`): `Some(s)` iff the node is reachable **only**
    /// from shard `s`'s WSCAN labels, `None` for cross-shard merge points.
    /// Parallel to `nodes`; empty when sharding is disabled. Rebuilt with
    /// the level schedule on `lower`/`retire`/`take_op`.
    shard_of: Vec<Option<usize>>,
    /// Per-shard execution plans (member nodes in topological order plus
    /// in-shard fan-out), indexed by shard id; empty when sharding is
    /// disabled. `Arc`-shared into each epoch's [`ShardJob`]s.
    shard_plans: Vec<Arc<ShardPlan>>,
    /// Label → shard override adopted by the adaptive rebalancer (or set
    /// explicitly via [`Dataflow::set_shard_assignment`]). Labels absent
    /// here take the round-robin default; consulted by `rebuild_shards`,
    /// so an adopted assignment survives schedule rebuilds.
    assign_override: FxHashMap<Label, usize>,
    /// The label → shard assignment actually in force (override merged
    /// over round-robin), recorded by the last `rebuild_shards`. Empty
    /// when sharding is disabled.
    label_shard: FxHashMap<Label, usize>,
    /// Per-label input-frequency sketch, updated inline by `ingest_epoch`
    /// when [`EngineOptions::adaptive`] is set.
    sketch: StreamSketch,
    /// The epoch-boundary rebalance controller (hysteresis + cooldown).
    rebalancer: Rebalancer,
    /// Per-label sketch masses at the previous rebalance check: the
    /// check plans from the *delta* since this snapshot, so proposals
    /// track the live label rate instead of the full-history average
    /// (which lags arbitrarily far behind a drifted stream).
    sketch_prev: FxHashMap<Label, u64>,
    /// Per-shard sweep nanos accumulated since the last rebalance check —
    /// the measured hot-shard signal. Reset after every check.
    shard_nanos_window: Vec<u64>,
    /// Per-shard sweep nanos of the most recent epoch (feeds the
    /// explain-analyze shard-share column): all zeros when that epoch
    /// took the serial sweep.
    shard_nanos_last: Vec<u64>,
    /// Cumulative per-shard sweep nanos since construction.
    shard_nanos_total: Vec<u64>,
    /// Worker threads for shard jobs and parallel purge runs, spawned
    /// lazily on the first dispatch that uses them (`None` until then,
    /// and always `None` when `opts.workers <= 1`).
    pool: Option<WorkerPool>,
    stats: ExecStats,
    /// Per-node observability stats (parallel to `nodes`); written only at
    /// [`ObsLevel::Counters`] and above, never part of the determinism
    /// fingerprint.
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
            memo: FxHashMap::default(),
            opts,
            inboxes: Vec::new(),
            spare: Vec::new(),
            seeds: FxHashMap::default(),
            level_of: Vec::new(),
            levels: Vec::new(),
            ready: Vec::new(),
            schedule_dirty: false,
            shard_of: Vec::new(),
            shard_plans: Vec::new(),
            assign_override: FxHashMap::default(),
            label_shard: FxHashMap::default(),
            sketch: StreamSketch::default(),
            rebalancer: Rebalancer::default(),
            sketch_prev: FxHashMap::default(),
            shard_nanos_window: Vec::new(),
            shard_nanos_last: Vec::new(),
            shard_nanos_total: Vec::new(),
            pool: None,
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

    /// Total state entries held by live operators.
    pub fn state_size(&self) -> usize {
        self.nodes
            .iter()
            .zip(&self.retired)
            .filter(|(_, &r)| !r)
            .map(|(n, _)| n.op.state_size())
            .sum()
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
                let op: Box<dyn PhysicalOp> = match self.opts.pattern_impl {
                    PatternImpl::HashTree => {
                        Box::new(PatternOp::new(spec, self.opts.suppress_duplicates))
                    }
                    PatternImpl::Wcoj => {
                        Box::new(WcojPatternOp::new(spec, self.opts.suppress_duplicates))
                    }
                };
                let n = self.add(op);
                for (port, c) in children.into_iter().enumerate() {
                    self.connect(c, n, port);
                }
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
                        let op = SPathOp::new(regex, *label);
                        Box::new(if self.opts.materialize_paths {
                            op
                        } else {
                            op.without_path_payloads()
                        })
                    }
                    PathImpl::NegativeTuple => Box::new(NegPathOp::new(regex, *label)),
                };
                let n = self.add(op);
                // PATH reads a merged stream: all inputs feed port 0.
                for c in children {
                    self.connect(c, n, 0);
                }
                n
            }
        };
        self.memo.insert(expr.clone(), n);
        n
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
                self.inboxes[i].clear();
                self.retired[i] = true;
            } else {
                node.succs.retain(|(succ, _)| !dead.contains(succ));
            }
        }
        self.schedule_dirty = true;
        self.ensure_schedule();
    }

    fn add(&mut self, op: Box<dyn PhysicalOp>) -> usize {
        self.nodes.push(DataflowNode {
            op,
            succs: Vec::new(),
        });
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
        self.rebuild_shards();
        self.schedule_dirty = false;
    }

    /// Rebuilds the label-shard decomposition alongside the level schedule
    /// (no-op when `opts.shards <= 1`). Runs on every `lower`/`retire`/
    /// `take_op`, so shard closures survive query registration churn the
    /// same way the level schedule does.
    ///
    /// Live source labels are assigned to shard groups round-robin in
    /// ascending label order (deterministic for a given graph). Each
    /// node's **shard mask** then accumulates every shard whose WSCANs
    /// reach it — one ascending pass over the pruned successor lists
    /// settles all masks, by the same lowering invariant the level pass
    /// uses (edges point from lower node ids to higher ones). Single-bit
    /// nodes form the shard-subgraphs; multi-bit nodes are the explicit
    /// cross-shard merge points the scheduler thread executes during the
    /// ordered replay. Which shard a label lands in never affects results
    /// (any partition yields the same serial-order replay), only load
    /// balance.
    fn rebuild_shards(&mut self) {
        self.shard_plans.clear();
        self.shard_of.clear();
        self.label_shard.clear();
        if self.opts.shards <= 1 {
            self.shard_nanos_window.clear();
            self.shard_nanos_last.clear();
            self.shard_nanos_total.clear();
            return;
        }
        // The mask is a u64, so shard groups cap at 64 — far beyond any
        // host's core count, and label counts beyond that simply wrap.
        let nshards = self.opts.shards.min(64);
        let mut labels: Vec<Label> = self.sources.keys().copied().collect();
        labels.sort_unstable();
        let mut mask = vec![0u64; self.nodes.len()];
        for (i, label) in labels.iter().enumerate() {
            // An adaptive (or explicitly set) override wins; otherwise
            // labels spread round-robin in ascending label order.
            let shard = match self.assign_override.get(label) {
                Some(&s) => s % nshards,
                None => i % nshards,
            };
            self.label_shard.insert(*label, shard);
            let bit = 1u64 << shard;
            for &n in &self.sources[label] {
                mask[n] |= bit;
            }
        }
        self.shard_nanos_window.resize(nshards, 0);
        self.shard_nanos_last.resize(nshards, 0);
        self.shard_nanos_total.resize(nshards, 0);
        for n in 0..self.nodes.len() {
            if self.retired[n] || mask[n] == 0 {
                continue;
            }
            for &(succ, _) in &self.nodes[n].succs {
                mask[succ] |= mask[n];
            }
        }
        self.shard_of = mask
            .iter()
            .map(|&m| (m.count_ones() == 1).then(|| m.trailing_zeros() as usize))
            .collect();
        // Member lists in (level, id) order — iterating the freshly built
        // levels yields exactly that, and it is a topological order of
        // each shard-subgraph (edges only ever cross to higher levels).
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nshards];
        for level in &self.levels {
            for &n in level {
                if let Some(s) = self.shard_of[n] {
                    members[s].push(n);
                }
            }
        }
        for nodes in members {
            // Shards left empty by the label wrap stay as empty plans so
            // plan indices keep matching shard ids.
            let mut local: FxHashMap<usize, usize> = FxHashMap::default();
            for (i, &n) in nodes.iter().enumerate() {
                local.insert(n, i);
            }
            let levels = nodes.iter().map(|&n| self.level_of[n]).collect();
            let succs = nodes
                .iter()
                .map(|&n| {
                    self.nodes[n]
                        .succs
                        .iter()
                        // A successor inside `local` shares this shard (a
                        // successor's mask is a superset of the producer's,
                        // so a single-bit successor has the same bit);
                        // everything else is a merge point, fed at replay.
                        .filter_map(|&(succ, port)| local.get(&succ).map(|&ls| (ls, port)))
                        .collect()
                })
                .collect();
            self.shard_plans.push(Arc::new(ShardPlan {
                nodes,
                levels,
                succs,
            }));
        }
    }

    /// Number of levels in the current schedule (the epoch's critical-path
    /// length in operator rounds).
    pub fn level_count(&self) -> usize {
        debug_assert!(!self.schedule_dirty);
        self.levels.len()
    }

    /// Live nodes per level, in level order — the schedule's shape. The
    /// maximum entry bounds how many workers one epoch can occupy at once.
    pub fn level_widths(&self) -> Vec<usize> {
        debug_assert!(!self.schedule_dirty);
        self.levels.iter().map(Vec::len).collect()
    }

    /// The topological depth of node `n` in the current schedule.
    pub fn level_of(&self, n: usize) -> usize {
        debug_assert!(!self.schedule_dirty && !self.retired[n]);
        self.level_of[n]
    }

    /// Member operators per shard-subgraph, indexed by shard id — the
    /// shard decomposition's shape. Empty when sharding is disabled
    /// (`opts.shards <= 1`); merge points belong to no shard and are not
    /// counted.
    pub fn shard_widths(&self) -> Vec<usize> {
        debug_assert!(!self.schedule_dirty);
        self.shard_plans.iter().map(|p| p.nodes.len()).collect()
    }

    /// The shard owning node `n`: `None` for cross-shard merge points and
    /// whenever sharding is disabled.
    pub fn shard_of(&self, n: usize) -> Option<usize> {
        debug_assert!(!self.schedule_dirty);
        self.shard_of.get(n).copied().flatten()
    }

    /// Live operators whose inputs span shards (the explicit merge points
    /// executed on the scheduler thread). Zero when sharding is disabled.
    pub fn merge_point_count(&self) -> usize {
        debug_assert!(!self.schedule_dirty);
        if self.shard_plans.is_empty() {
            return 0;
        }
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n] && self.shard_of[n].is_none())
            .count()
    }

    /// Per-shard sweep nanos of the most recent epoch, indexed by shard id
    /// (all zeros when that epoch took the serial sweep; empty when
    /// sharding is disabled). Wall-clock observability — never part of
    /// the determinism contract.
    pub fn shard_nanos_last(&self) -> &[u64] {
        &self.shard_nanos_last
    }

    /// Cumulative per-shard sweep nanos since construction, indexed by
    /// shard id. Empty when sharding is disabled.
    pub fn shard_nanos_by_shard(&self) -> &[u64] {
        &self.shard_nanos_total
    }

    /// The label → shard assignment currently in force (empty when
    /// sharding is disabled).
    pub fn shard_assignment(&self) -> &FxHashMap<Label, usize> {
        debug_assert!(!self.schedule_dirty);
        &self.label_shard
    }

    /// Overrides the label → shard assignment and rebuilds the shard
    /// closures immediately (must be called between epochs). Labels
    /// absent from `assign` keep the round-robin default; shard ids wrap
    /// modulo the shard count. Any assignment is semantics-preserving —
    /// the merge replay restores serial publish order regardless of
    /// grouping — which the adaptive-determinism proptests exercise by
    /// calling this at random stream positions.
    pub fn set_shard_assignment(&mut self, assign: FxHashMap<Label, usize>) {
        self.assign_override = assign;
        self.schedule_dirty = true;
        self.ensure_schedule();
    }

    /// The input-frequency sketch (updated only when
    /// [`EngineOptions::adaptive`] is set).
    pub fn sketch(&self) -> &StreamSketch {
        &self.sketch
    }

    /// Adaptive rebalances adopted so far (mirrors
    /// [`ExecStats::rebalances`]).
    pub fn rebalances(&self) -> u64 {
        self.stats.rebalances
    }

    /// Per-shard sketch-mass loads under the current assignment — the
    /// deterministic balance signal (a pure function of the ingested
    /// stream and the assignment, unlike the wall-clock `shard_nanos`).
    pub fn shard_mass_loads(&self) -> Vec<u64> {
        debug_assert!(!self.schedule_dirty);
        let mut loads = vec![0u64; self.shard_plans.len()];
        for (label, &s) in &self.label_shard {
            if let Some(v) = loads.get_mut(s) {
                *v += self.sketch.estimate(*label);
            }
        }
        loads
    }

    /// The adaptive epoch-boundary rebalance check: a no-op unless
    /// [`EngineOptions::adaptive`] is set and at least two shard groups
    /// exist. Every [`sketch::REBALANCE_CHECK_EPOCHS`] epochs the current
    /// shard imbalance — measured per-shard sweep nanos when the check
    /// window cleared [`sketch::SHARD_NANOS_FLOOR`], else the
    /// deterministic sketch-mass fallback — is compared against the
    /// imbalance the LPT assignment over the check window's sketch-mass
    /// deltas predicts (recent rate, so proposals track drift), and the
    /// [`Rebalancer`] hysteresis decides whether to adopt it.
    /// Adoption rewires only the label → shard grouping (operator state
    /// never moves; arena slots stay put), so results and the
    /// determinism fingerprint are bit-identical under any rebalance
    /// schedule — even a wall-clock-driven, nondeterministic one.
    fn maybe_rebalance(&mut self) {
        if !self.opts.adaptive || self.shard_plans.len() <= 1 {
            return;
        }
        if !self.rebalancer.on_epoch() {
            return;
        }
        let nshards = self.shard_plans.len();
        let mut labels: Vec<Label> = self
            .sources
            .iter()
            .filter(|(_, starts)| !starts.is_empty())
            .map(|(&l, _)| l)
            .collect();
        if labels.len() < 2 {
            return;
        }
        labels.sort_unstable();
        let cumulative = self.sketch.masses(&labels);
        // Plan from the mass accrued since the previous check — the live
        // label rate — so the proposal follows a drifted distribution
        // instead of the full-history average. A quiet window (no new
        // mass, e.g. the very first check) falls back to cumulative mass.
        let mut masses: Vec<(Label, u64)> = cumulative
            .iter()
            .map(|&(l, m)| {
                (
                    l,
                    m.saturating_sub(self.sketch_prev.get(&l).copied().unwrap_or(0)),
                )
            })
            .collect();
        if masses.iter().all(|&(_, m)| m == 0) {
            masses = cumulative.clone();
        }
        self.sketch_prev = cumulative.into_iter().collect();
        let measured: u64 = self.shard_nanos_window.iter().sum();
        let current_loads: Vec<u64> = if measured >= sketch::SHARD_NANOS_FLOOR {
            self.shard_nanos_window.clone()
        } else {
            // Static fallback (the chooser's discipline): below the floor
            // the wall clock is noise, so fall back to the deterministic
            // sketch mass per shard under the current assignment.
            let mut loads = vec![0u64; nshards];
            for &(label, m) in &masses {
                if let Some(&s) = self.label_shard.get(&label) {
                    loads[s] += m;
                }
            }
            loads
        };
        let current_milli = sketch::imbalance_milli(&current_loads);
        let proposal = sketch::plan_assignment(&masses, nshards);
        let mut predicted = vec![0u64; nshards];
        for &(label, m) in &masses {
            predicted[proposal[&label]] += m;
        }
        let predicted_milli = sketch::imbalance_milli(&predicted);
        if self.rebalancer.decide(current_milli, predicted_milli) {
            let moved_labels = proposal
                .iter()
                .filter(|(l, &s)| self.label_shard.get(l) != Some(&s))
                .count();
            self.assign_override = proposal;
            self.schedule_dirty = true;
            self.stats.rebalances += 1;
            self.emit_trace(TraceEvent::Rebalance {
                epoch: self.stats.epochs,
                shards: nshards,
                moved_labels,
                imbalance_milli: current_milli,
                predicted_milli,
            });
            // Rewire now — inboxes and ready lists are empty between
            // epochs — so accessors never observe a dirty schedule.
            self.ensure_schedule();
        }
        // Either way the window is consumed: each check sees one
        // check-window's worth of signal.
        for v in &mut self.shard_nanos_window {
            *v = 0;
        }
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
    ///
    /// Under [`DispatchMode::Tuple`] every input delta is swept as its own
    /// epoch, in arrival order — the same thing as calling
    /// [`Dataflow::ingest`] once per delta.
    pub fn ingest_epoch(
        &mut self,
        epoch: impl IntoIterator<Item = (Label, Delta)>,
        now: Timestamp,
        mut sink: impl FnMut(usize, &DeltaBatch),
    ) -> usize {
        if self.opts.dispatch == DispatchMode::Tuple {
            return epoch
                .into_iter()
                .map(|input| self.sweep(std::iter::once(input), now, &mut sink))
                .sum();
        }
        self.sweep(epoch, now, &mut sink)
    }

    /// Seeds `epoch` into the source inboxes and runs one sweep.
    fn sweep(
        &mut self,
        epoch: impl IntoIterator<Item = (Label, Delta)>,
        now: Timestamp,
        sink: &mut impl FnMut(usize, &DeltaBatch),
    ) -> usize {
        debug_assert!(self.seeds.is_empty());
        self.ensure_schedule();
        let mut delivered = 0usize;
        let adaptive = self.opts.adaptive;
        for (label, delta) in epoch {
            let Some(starts) = self.sources.get(&label) else {
                continue; // labels no plan references are discarded
            };
            if adaptive {
                // Inline sketch update: two multiply-shift hashes and a
                // handful of counter bumps per delivered delta.
                let sgt = delta.sgt();
                self.sketch.observe(label, sgt.src.0, sgt.trg.0);
            }
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
        self.maybe_rebalance();
        delivered
    }

    /// Replaces node `n`'s operator, returning the previous one. Used by
    /// the multi-query host to adopt state warmed in a private replay
    /// instance (see `sgq_multiquery`); the caller is responsible for the
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
        self.schedule_dirty = true;
        let op = std::mem::replace(&mut self.nodes[n].op, Box::new(Tombstone));
        self.ensure_schedule();
        op
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
        self.publish(origin, batch, &mut sink);
        self.run_epoch(now, sink);
    }

    /// Shares `batch` into every successor inbox of `n` and reports it to
    /// `sink`. Successors whose inbox was empty join their level's ready
    /// list (levels are strictly increasing along edges, so a publish
    /// during the sweep always targets a level not yet reached).
    fn publish(&mut self, n: usize, batch: DeltaBatch, sink: &mut impl FnMut(usize, &DeltaBatch)) {
        self.stats.deltas_emitted += batch.len() as u64;
        if self.nodes[n].succs.is_empty() {
            sink(n, &batch);
            self.recycle(batch);
            return;
        }
        let shared = batch.into_shared();
        for i in 0..self.nodes[n].succs.len() {
            let (succ, port) = self.nodes[n].succs[i];
            if self.inboxes[succ].is_empty() {
                self.ready[self.level_of[succ]].push(succ);
            }
            self.inboxes[succ].push((port, shared.clone()));
            self.stats.fanout_deliveries += 1;
        }
        sink(n, &shared);
    }

    /// The epoch sweep, driven by the explicit level schedule: levels run
    /// in depth order, and within a level the ready nodes run in ascending
    /// node-id order on the calling thread (unless the epoch qualifies for
    /// the shard-subgraph executor, which reproduces the same order). Every
    /// edge crosses to a strictly higher level, so when a level runs all of
    /// its inputs for this epoch are present. Each node consumes its inbox
    /// segments in arrival order, one [`PhysicalOp::on_batch`] call per
    /// segment, and publishes a single combined output batch that each
    /// successor receives by reference.
    fn run_epoch(&mut self, now: Timestamp, mut sink: impl FnMut(usize, &DeltaBatch)) {
        debug_assert!(!self.schedule_dirty);
        if self.try_run_epoch_sharded(now, &mut sink) {
            return;
        }
        // A serial epoch has no per-shard split to report (the slice is
        // empty when sharding is disabled).
        self.shard_nanos_last.fill(0);
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

    /// Routes the epoch through the shard-subgraph executor when label
    /// sharding is enabled and the epoch is worth it: at least two shards
    /// hold ready work (otherwise there is nothing to overlap) and the
    /// seeded delta volume clears [`SHARD_MIN_DELTAS`] (trickle epochs
    /// stay on the plain level sweep). Pure dispatch policy — both paths
    /// produce bit-identical observable effects — so any gate preserves
    /// determinism. Returns whether the sharded path ran.
    fn try_run_epoch_sharded(
        &mut self,
        now: Timestamp,
        sink: &mut impl FnMut(usize, &DeltaBatch),
    ) -> bool {
        if self.shard_plans.is_empty() {
            return false;
        }
        let mut active = 0u64;
        let mut deltas = 0u64;
        for lvl in &self.ready {
            for &n in lvl {
                if let Some(s) = self.shard_of[n] {
                    active |= 1u64 << s;
                }
                deltas += self.inboxes[n]
                    .iter()
                    .map(|(_, b)| b.len() as u64)
                    .sum::<u64>();
            }
        }
        if active.count_ones() < 2 || deltas < SHARD_MIN_DELTAS {
            return false;
        }
        self.run_epoch_sharded(now, sink);
        true
    }

    /// The shard-subgraph epoch executor. Phase 1 moves every active
    /// shard's operators and inboxes into a [`ShardJob`] and runs the
    /// jobs — each sweeps **all of its levels** internally, with no
    /// inter-shard barrier — on the worker pool (inline when `workers <=
    /// 1`). Phase 2, the **merge replay** on the scheduler thread, walks
    /// the global schedule: per level, recorded shard emissions and ready
    /// merge points interleave in ascending node order, emissions feed
    /// the cross-shard inboxes and the sink, and merge points execute in
    /// place. That is exactly the serial sweep's publish order, so sink
    /// call order, every inbox arrival order, and the deterministic
    /// counters are bit-identical at any `(shards, workers)` combination.
    ///
    /// A merge point's successors are themselves merge points (a
    /// successor's shard mask is a superset of its producer's, so a
    /// multi-shard producer makes every transitive successor
    /// multi-shard), which is why the replay never has to touch shard
    /// state again after phase 1.
    fn run_epoch_sharded(&mut self, now: Timestamp, sink: &mut impl FnMut(usize, &DeltaBatch)) {
        let depth = self.ready.len();
        // Phase 1: peel shard members off the ready lists (merge points
        // keep their entries for the replay) and assemble one job per
        // shard with work.
        let mut shard_has_work = vec![false; self.shard_plans.len()];
        for lvl in 0..depth {
            self.ready[lvl].retain(|&n| match self.shard_of[n] {
                Some(s) => {
                    shard_has_work[s] = true;
                    false
                }
                None => true,
            });
        }
        let mut jobs: Vec<ShardJob> = Vec::new();
        let tracing = self.trace.is_some();
        let mut dispatches: Vec<TraceEvent> = Vec::new();
        for (s, plan) in self.shard_plans.iter().enumerate() {
            if !shard_has_work[s] {
                continue;
            }
            let mut ops = Vec::with_capacity(plan.nodes.len());
            let mut inboxes = Vec::with_capacity(plan.nodes.len());
            let mut seeded = 0u64;
            for &n in &plan.nodes {
                // Box<Tombstone> is a ZST box: no allocation per swap.
                ops.push(std::mem::replace(
                    &mut self.nodes[n].op,
                    Box::new(Tombstone),
                ));
                let inbox = std::mem::take(&mut self.inboxes[n]);
                if tracing {
                    seeded += inbox.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
                }
                inboxes.push(inbox);
            }
            // Hand the job a slice of the recycled-buffer pool so member
            // outputs reuse allocations like the serial sweep does.
            let mut spare = Vec::new();
            while spare.len() < plan.nodes.len() {
                match self.spare.pop() {
                    Some(b) => spare.push(b),
                    None => break,
                }
            }
            if tracing {
                dispatches.push(TraceEvent::ShardJob {
                    epoch: self.stats.epochs,
                    shard: s,
                    members: plan.nodes.len(),
                    seeded,
                });
            }
            jobs.push(ShardJob {
                idx: jobs.len(),
                shard: s,
                plan: Arc::clone(plan),
                ops,
                inboxes,
                spare,
                now,
                emissions: Vec::new(),
                ready_per_level: vec![0; depth],
                invocations: 0,
                dispatched: 0,
                emitted: 0,
                fanout: 0,
                node_obs: if self.opts.obs.counting() {
                    vec![OpStats::default(); plan.nodes.len()]
                } else {
                    Vec::new()
                },
                timed: self.opts.obs.timing(),
                nanos: 0,
                panic: None,
            });
        }
        for ev in dispatches {
            self.emit_trace(ev);
        }
        self.stats.shard_epochs += 1;
        self.stats.shard_subgraph_runs += jobs.len() as u64;
        let started = Instant::now();
        let done = if self.opts.workers > 1 && jobs.len() > 1 {
            if self.pool.is_none() {
                self.pool = Some(WorkerPool::new(self.opts.workers));
            }
            self.pool
                .as_ref()
                .expect("pool just ensured")
                .run_shards(jobs)
        } else {
            for job in &mut jobs {
                job.run();
            }
            jobs
        };
        self.stats.shard_nanos += started.elapsed().as_nanos() as u64;
        // Merge pass 1: restore every operator and inbox allocation and
        // accumulate counters before anything can unwind, so a panicking
        // operator leaves the arena structurally intact.
        self.shard_nanos_last.fill(0);
        let mut shard_ready = vec![0u64; depth];
        let mut replays: Vec<ShardReplay> = Vec::with_capacity(done.len());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for mut job in done {
            for (i, &n) in job.plan.nodes.iter().enumerate() {
                self.nodes[n].op = std::mem::replace(&mut job.ops[i], Box::new(Tombstone));
                self.inboxes[n] = std::mem::take(&mut job.inboxes[i]);
            }
            while let Some(b) = job.spare.pop() {
                self.recycle(b);
            }
            self.stats.operator_invocations += job.invocations;
            self.stats.deltas_dispatched += job.dispatched;
            self.stats.deltas_emitted += job.emitted;
            self.stats.fanout_deliveries += job.fanout;
            if let Some(v) = self.shard_nanos_last.get_mut(job.shard) {
                *v = job.nanos;
            }
            if let Some(v) = self.shard_nanos_window.get_mut(job.shard) {
                *v += job.nanos;
            }
            if let Some(v) = self.shard_nanos_total.get_mut(job.shard) {
                *v += job.nanos;
            }
            if !job.node_obs.is_empty() {
                // Per-shard attribution came free: the job owned its
                // member operators, so these samples are exact.
                for (i, os) in job.node_obs.iter().enumerate() {
                    if os.is_zero() {
                        continue;
                    }
                    let n = job.plan.nodes[i];
                    self.op_stats[n].absorb(os);
                    if self.profile_epochs && os.batch_nanos > 0 {
                        self.epoch_profile.push((n, os.batch_nanos));
                    }
                }
            }
            for (lvl, &c) in job.ready_per_level.iter().enumerate() {
                shard_ready[lvl] += c as u64;
            }
            if let Some(p) = job.panic.take() {
                panic.get_or_insert(p);
            } else {
                replays.push((job.plan, job.emissions.into_iter().peekable()));
            }
        }
        if let Some(p) = panic {
            // Abandon the epoch cleanly before unwinding: drop every
            // pending delivery, so a host that catches the panic and
            // keeps the engine cannot replay half an epoch into the next.
            for lvl in 0..depth {
                self.ready[lvl].clear();
            }
            for inbox in &mut self.inboxes {
                inbox.clear();
            }
            std::panic::resume_unwind(p);
        }
        // Phase 2: the merge replay, in the serial schedule order.
        let mut replayed = 0usize;
        let mut merges = 0usize;
        let mut work: Vec<(usize, Option<SharedDeltaBatch>)> = Vec::new();
        for (lvl, &ready_in_shards) in shard_ready.iter().enumerate() {
            work.clear();
            for (plan, emissions) in replays.iter_mut() {
                while let Some(&(local, _)) = emissions.peek() {
                    if plan.levels[local] != lvl {
                        break;
                    }
                    let (local, batch) = emissions.next().expect("peeked");
                    work.push((plan.nodes[local], Some(batch)));
                }
            }
            let mut resid = std::mem::take(&mut self.ready[lvl]);
            let width = ready_in_shards as usize + resid.len();
            if width == 0 {
                debug_assert!(work.is_empty(), "emission implies a ready node");
                self.ready[lvl] = resid;
                continue;
            }
            self.stats.levels_run += 1;
            self.stats.max_level_width = self.stats.max_level_width.max(width);
            for &n in &resid {
                work.push((n, None));
            }
            resid.clear();
            self.ready[lvl] = resid; // keep the allocation
                                     // A node appears at most once (shard emission XOR merge
                                     // point), so ascending node order is a total order.
            work.sort_unstable_by_key(|&(n, _)| n);
            for (n, batch) in work.drain(..) {
                match batch {
                    Some(batch) => {
                        replayed += 1;
                        self.replay_emission(n, batch, sink);
                    }
                    None => {
                        merges += 1;
                        self.run_node(n, now, sink);
                    }
                }
            }
        }
        if tracing {
            self.emit_trace(TraceEvent::MergeReplay {
                epoch: self.stats.epochs,
                replayed,
                merges,
            });
        }
    }

    /// Replays one shard emission on the scheduler thread: deliver to the
    /// cross-shard (merge point) successors — the in-shard fan-out already
    /// happened inside the job — and report the batch to `sink`, exactly
    /// as [`Dataflow::publish`] would have at this node's schedule slot.
    fn replay_emission(
        &mut self,
        n: usize,
        batch: SharedDeltaBatch,
        sink: &mut impl FnMut(usize, &DeltaBatch),
    ) {
        // `deltas_emitted` and the in-shard `fanout_deliveries` were
        // counted by the job; only the merge deliveries remain.
        for i in 0..self.nodes[n].succs.len() {
            let (succ, port) = self.nodes[n].succs[i];
            if self.shard_of[succ].is_some() {
                continue; // delivered inside the shard job
            }
            if self.inboxes[succ].is_empty() {
                self.ready[self.level_of[succ]].push(succ);
            }
            self.inboxes[succ].push((port, batch.clone()));
            self.stats.fanout_deliveries += 1;
            self.stats.cross_shard_deliveries += 1;
        }
        sink(n, &batch);
        self.recycle_shared(batch);
    }

    /// Runs one ready node on the calling thread: consume inbox segments,
    /// publish the combined output.
    fn run_node(&mut self, n: usize, now: Timestamp, sink: &mut impl FnMut(usize, &DeltaBatch)) {
        let mut segs = std::mem::take(&mut self.inboxes[n]);
        let mut out = self.spare.pop().unwrap_or_default();
        // The serial hot path stays clock-free below `ObsLevel::Timing`.
        let obs = self.opts.obs;
        let started = obs.timing().then(Instant::now);
        let invocations = segs.len() as u64;
        let mut dispatched = 0u64;
        for (port, batch) in segs.drain(..) {
            dispatched += batch.len() as u64;
            self.nodes[n].op.on_batch(port, &batch, now, &mut out);
            self.recycle_shared(batch);
        }
        self.stats.deltas_dispatched += dispatched;
        self.stats.operator_invocations += invocations;
        if obs.counting() {
            let os = &mut self.op_stats[n];
            os.invocations += invocations;
            os.deltas_in += dispatched;
            os.deltas_out += out.len() as u64;
            if let Some(started) = started {
                let nanos = started.elapsed().as_nanos() as u64;
                os.batch_nanos += nanos;
                if self.profile_epochs {
                    self.epoch_profile.push((n, nanos));
                }
            }
        }
        self.inboxes[n] = segs; // keep the allocation
        if out.is_empty() {
            self.spare.push(out);
        } else {
            self.publish(n, out, sink);
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
    /// With `workers > 1`, direct-approach reclamation runs on the worker
    /// pool: direct purges emit no continuations and touch only their own
    /// state, so **maximal runs of consecutive direct operators** between
    /// timely (continuation-emitting) ones are embarrassingly parallel.
    /// Each run flushes — a barrier — before the next timely operator
    /// purges, so every continuation cascade still observes exactly the
    /// operator states the serial walk would have (reclamation order
    /// *within* a run is unobservable: expired state is skipped by
    /// interval intersection either way).
    pub fn purge(
        &mut self,
        watermark: Timestamp,
        now: Timestamp,
        reclaim_all: bool,
        mut sink: impl FnMut(usize, &DeltaBatch),
    ) {
        self.ensure_schedule();
        let parallel = self.opts.workers > 1 && reclaim_all;
        let purge_started = self.trace.is_some().then(Instant::now);
        let mut purged_ops = 0usize;
        let mut pending: Vec<PurgeJob> = Vec::new();
        for n in 0..self.nodes.len() {
            if self.retired[n] || (!reclaim_all && !self.nodes[n].op.needs_timely_purge()) {
                continue;
            }
            purged_ops += 1;
            if parallel && !self.nodes[n].op.needs_timely_purge() {
                // Work gate: an operator holding no state has nothing to
                // reclaim — run its (no-op) purge inline rather than pay
                // a pool round-trip per slide for it.
                if self.nodes[n].op.state_size() == 0 {
                    let mut outs = self.spare.pop().unwrap_or_default();
                    self.nodes[n].op.purge(watermark, outs.as_mut_vec());
                    debug_assert!(outs.is_empty(), "stateless purge emitted");
                    self.recycle(outs);
                    if self.opts.obs.counting() {
                        self.op_stats[n].purges += 1;
                    }
                    continue;
                }
                let op = std::mem::replace(&mut self.nodes[n].op, Box::new(Tombstone));
                pending.push(PurgeJob {
                    idx: pending.len(),
                    node: n,
                    op,
                    watermark,
                    out: Vec::new(),
                    timed: self.opts.obs.timing(),
                    nanos: 0,
                    panic: None,
                });
                continue;
            }
            // A timely operator: flush the pending direct run first (its
            // continuations may cascade into operators the run borrowed),
            // then purge serially and propagate the continuations.
            self.flush_purge_jobs(&mut pending, now, &mut sink);
            let started = self.opts.obs.timing().then(Instant::now);
            let mut outs = self.spare.pop().unwrap_or_default();
            self.nodes[n].op.purge(watermark, outs.as_mut_vec());
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
        self.flush_purge_jobs(&mut pending, now, &mut sink);
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

    /// Runs a pending batch of direct-approach reclamations on the worker
    /// pool (inline for a single job) and restores the operators. Every
    /// operator is back in the arena before a captured panic resumes.
    fn flush_purge_jobs(
        &mut self,
        pending: &mut Vec<PurgeJob>,
        now: Timestamp,
        sink: &mut impl FnMut(usize, &DeltaBatch),
    ) {
        if pending.is_empty() {
            return;
        }
        let mut jobs = std::mem::take(pending);
        let done = if jobs.len() > 1 {
            self.stats.parallel_purge_ops += jobs.len() as u64;
            if self.pool.is_none() {
                self.pool = Some(WorkerPool::new(self.opts.workers));
            }
            self.pool
                .as_ref()
                .expect("pool just ensured")
                .run_purges(jobs)
        } else {
            for job in &mut jobs {
                job.run();
            }
            jobs
        };
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut outs: Vec<(usize, Vec<Delta>)> = Vec::new();
        for mut job in done {
            self.nodes[job.node].op = job.op;
            if self.opts.obs.counting() {
                let os = &mut self.op_stats[job.node];
                os.purges += 1;
                os.purge_nanos += job.nanos;
            }
            if let Some(p) = job.panic.take() {
                panic.get_or_insert(p);
            } else if !job.out.is_empty() {
                outs.push((job.node, job.out));
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        // Direct-approach purges never emit (that is what makes the run
        // order-free); if an operator ever starts to, propagate in node
        // order rather than lose results — and fail the debug build so
        // the operator gets reclassified as timely.
        debug_assert!(
            outs.is_empty(),
            "direct-approach purge emitted continuations"
        );
        for (n, out) in outs {
            let mut batch = self.spare.pop().unwrap_or_default();
            *batch.as_mut_vec() = out;
            self.emit_from(n, batch, now, &mut *sink);
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
    /// Tracing never affects results or the determinism fingerprint.
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
    /// name, level, shard), accumulated [`OpStats`], and retained state
    /// entries, in ascending node order.
    pub fn operator_snapshots(&self) -> Vec<OperatorSnapshot> {
        debug_assert!(!self.schedule_dirty);
        (0..self.nodes.len())
            .filter(|&n| !self.retired[n])
            .map(|n| OperatorSnapshot {
                node: n,
                name: self.nodes[n].op.name(),
                level: self.level_of[n],
                shard: self.shard_of.get(n).copied().flatten(),
                stats: self.op_stats[n],
                state_entries: self.nodes[n].op.state_size(),
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
                if let Some(s) = self.shard_of.get(n).copied().flatten() {
                    let _ = write!(out, " shard={s}");
                    // Last-epoch share of the sweep spent in this node's
                    // shard (all shards, not just this plan's) — the
                    // at-a-glance balance readout.
                    let total: u64 = self.shard_nanos_last.iter().sum();
                    let nanos = self.shard_nanos_last.get(s).copied().unwrap_or(0);
                    if let Some(share) = (nanos * 100).checked_div(total) {
                        let _ = write!(out, " shard_share={share}%");
                    }
                }
                let _ = write!(
                    out,
                    " inv={} in={} out={} sel={:.3} state={}",
                    os.invocations,
                    os.deltas_in,
                    os.deltas_out,
                    os.selectivity(),
                    node.op.state_size(),
                );
                let bytes = match (node.op.path_census(), node.op.pattern_census()) {
                    (Some(c), _) => Some(c.forest.reserved_bytes + c.adjacency.reserved_bytes),
                    (_, Some(c)) => Some(c.reserved_bytes),
                    _ => None,
                };
                if let Some(bytes) = bytes {
                    let _ = write!(out, " bytes={bytes}");
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

    fn edge(i: u64, l: Label) -> Delta {
        Delta::Insert(sgq_types::Sgt::edge(
            sgq_types::VertexId(i % 5),
            sgq_types::VertexId((i + 1) % 5),
            l,
            sgq_types::Interval::new(0, 10),
        ))
    }

    /// One epoch of forty inserts alternating between two labels: both
    /// shards of a two-label join are active and the shard gate clears.
    fn alternating_epoch(a: Label, b: Label) -> Vec<(Label, Delta)> {
        (0..40u64)
            .map(|i| {
                let l = if i % 2 == 0 { a } else { b };
                (l, edge(i, l))
            })
            .collect()
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

    #[test]
    fn shard_closures_partition_by_label() {
        let mut flow = Dataflow::new(EngineOptions {
            shards: 2,
            ..Default::default()
        });
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let root = flow.lower(&p.expr);
        // Two labels round-robin into two shards: each WSCAN is the sole
        // member of its shard, and the PATTERN (fed by both) is the one
        // merge point.
        assert_eq!(flow.shard_widths(), vec![1, 1]);
        assert_eq!(flow.merge_point_count(), 1);
        assert_eq!(flow.shard_of(root), None, "the join spans both shards");
        let sharded: Vec<usize> = (0..flow.len())
            .filter(|&n| flow.shard_of(n).is_some())
            .collect();
        assert_eq!(sharded.len(), 2);
        assert_ne!(
            flow.shard_of(sharded[0]),
            flow.shard_of(sharded[1]),
            "distinct labels land in distinct shards"
        );
    }

    #[test]
    fn shard_closures_rebuild_on_retire() {
        // Shard assignment must survive register/deregister churn exactly
        // like the level schedule: retiring one plan's private operators
        // rebuilds the closures over the pruned successor lists.
        let mut flow = Dataflow::new(EngineOptions {
            shards: 2,
            ..Default::default()
        });
        let p1 = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let p2 = plan("Ans(x, y) <- a+(x, y).");
        let _ = flow.lower(&p1.expr);
        let r2 = flow.lower(&p2.expr);
        // `a` feeds both plans; `a`'s shard holds its WSCAN + the PATH
        // (reachable from `a` alone), `b`'s shard holds one WSCAN.
        assert_eq!(flow.shard_widths().iter().sum::<usize>(), 3);
        assert_eq!(flow.merge_point_count(), 1);
        assert!(flow.shard_of(r2).is_some(), "single-label PATH is sharded");
        // Retire only plan 1's exclusive nodes (`a`'s WSCAN is shared
        // with plan 2 and must survive — the multi-query host refcounts
        // exactly this way).
        let keep = flow.nodes_of(&p2.expr);
        let dead: FxHashSet<usize> = flow
            .nodes_of(&p1.expr)
            .into_iter()
            .filter(|n| !keep.contains(n))
            .collect();
        flow.retire(&dead);
        // Only plan 2 remains: one label, one shard populated, no merges.
        assert_eq!(flow.shard_widths().iter().sum::<usize>(), 2);
        assert_eq!(flow.merge_point_count(), 0);
        assert!(!flow.is_retired(r2));
    }

    #[test]
    fn sharded_sweep_matches_serial_results() {
        // One epoch, alternating two labels into a join, run at
        // (shards, workers) ∈ {(1,1), (2,1), (2,3)}: emission streams
        // and determinism fingerprints must be bit-identical, and the
        // sharded configurations must actually take the sharded path.
        let run = |shards: usize, workers: usize| {
            let mut flow = Dataflow::new(EngineOptions {
                shards,
                workers,
                ..Default::default()
            });
            let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
            let _root = flow.lower(&p.expr);
            let a = p.labels.get("a").unwrap();
            let b = p.labels.get("b").unwrap();
            let mut emitted: Vec<(usize, Delta)> = Vec::new();
            flow.ingest_epoch(alternating_epoch(a, b), 0, |n, batch| {
                for d in batch.iter() {
                    emitted.push((n, d.clone()));
                }
            });
            (emitted, flow.exec_stats())
        };
        let (serial, s_stats) = run(1, 1);
        let (sharded, h_stats) = run(2, 1);
        let (both, b_stats) = run(2, 3);
        assert_eq!(serial, sharded, "sharded emission stream diverged");
        assert_eq!(serial, both, "sharded+pooled emission stream diverged");
        assert_eq!(
            s_stats.determinism_fingerprint(),
            h_stats.determinism_fingerprint()
        );
        assert_eq!(
            s_stats.determinism_fingerprint(),
            b_stats.determinism_fingerprint()
        );
        assert_eq!(s_stats.shard_epochs, 0, "unsharded run stays unsharded");
        assert!(h_stats.shard_epochs > 0, "the sharded path actually ran");
        assert_eq!(h_stats.shard_subgraph_runs, 2, "both shards had work");
        assert!(
            h_stats.cross_shard_deliveries > 0,
            "the join merged across shards"
        );
    }

    #[test]
    fn serial_fallback_epoch_clears_the_shard_share() {
        let mut flow = Dataflow::new(EngineOptions {
            shards: 2,
            ..Default::default()
        });
        let p = plan("Ans(x, y) <- a(x, z), b(z, y).");
        let _root = flow.lower(&p.expr);
        let a = p.labels.get("a").unwrap();
        let b = p.labels.get("b").unwrap();
        flow.ingest_epoch(alternating_epoch(a, b), 0, |_, _| {});
        assert_eq!(flow.exec_stats().shard_epochs, 1, "took the sharded path");
        // One delta is under the shard gate: the serial sweep runs, and
        // the previous epoch's split must not linger.
        flow.ingest(a, edge(7, a), 0, |_, _| {});
        assert_eq!(flow.exec_stats().shard_epochs, 1, "took the serial sweep");
        assert_eq!(flow.shard_nanos_last(), [0, 0]);
        let rendered = flow.explain_expr(&p.expr);
        assert!(rendered.contains("shard="), "{rendered}");
        assert!(!rendered.contains("shard_share="), "{rendered}");
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
