//! The multi-query host: N persistent queries, one shared dataflow.

use super::canon::Canonicalizer;
use super::chooser::{self, CostInputs, SubplanChoice};
pub use super::registry::QueryId;
use super::registry::{input_sgt, Emissions, Registration, Registry};
use super::sink::{answer_at, ResultRow, SinkCensus};
use crate::algebra::SgaExpr;
use crate::dataflow::Dataflow;
use crate::engine::EngineOptions;
use crate::obs::{
    fmt_nanos, FrontierStats, MetricsSnapshot, ObsLevel, QuerySnapshot, TraceEvent, TraceSink,
};
use crate::physical::Delta;
use crate::planner::{plan_canonical, Plan};
use sgq_query::SgqQuery;
use sgq_types::{
    time::gcd, FxHashMap, FxHashSet, Label, LabelInterner, Sge, Sgt, SharedProps, Timestamp,
    VertexId,
};
use std::collections::VecDeque;

/// A host executing many persistent [`SgqQuery`]s over one shared input
/// stream, instantiating structurally-equal subplans once across query
/// boundaries (see the module docs).
///
/// Ingestion is `process` / `process_batch` / `delete` / `advance_time`,
/// with results routed per query: ingestion returns `(QueryId, Sgt)`
/// pairs, and each registered query additionally has a cursor-based
/// [`drain`](MultiQueryEngine::drain) subscription plus the full
/// [`results`](MultiQueryEngine::results) /
/// [`answer_at`](MultiQueryEngine::answer_at) views. The single-query
/// [`Engine`](crate::engine::Engine) is a host with one registration.
pub struct MultiQueryEngine {
    flow: Dataflow,
    canon: Canonicalizer,
    registry: Registry,
    opts: EngineOptions,
    now: Timestamp,
    /// Host tick granularity: gcd of every registered query's tick.
    slide: u64,
    next_boundary: Option<Timestamp>,
    /// Direct-approach reclamation cadence (most demanding query wins).
    purge_period: u64,
    last_physical_purge: Option<Timestamp>,
    /// Input history inside the retention horizon, for register-time
    /// catch-up (newly created operators replay it so a late-registered
    /// query answers from the full current window).
    retained: VecDeque<(Sge, Option<SharedProps>)>,
    /// Whether input history is kept at all: `false` for the host behind
    /// a single-query [`Engine`](crate::engine::Engine), which never sees
    /// a late registration to catch up.
    keeps_history: bool,
    /// How far back input history is retained: the high-water mark of
    /// every window size ever registered (never shrinks — a deregistered
    /// large-window query may come back), raised further by
    /// [`MultiQueryEngine::set_retention_horizon`].
    retention_horizon: u64,
    /// Scratch buffer for draining the dataflow's per-epoch timing
    /// profile (reused across epochs to avoid per-epoch allocation).
    profile: Vec<(usize, u64)>,
    /// Scratch of `process_batch_collect`, empty between calls and kept
    /// with at most [`SCRATCH_KEPT`] entries' capacity: each edge's last
    /// suppression period, and the epoch being accumulated.
    seen: FxHashMap<(VertexId, VertexId, Label), Timestamp>,
    epoch: Vec<(Label, Delta)>,
}

/// Entries of batch scratch whose capacity a [`MultiQueryEngine`] keeps
/// between calls: a serve epoch (256 edges) fits, so the serve loop does
/// not reallocate it.
const SCRATCH_KEPT: usize = 1024;

/// Borrowed `process`-style collectors: newly accepted `(QueryId, Sgt)`
/// insert and delete pairs. `None` throughout the drain-only paths.
type Collectors<'a> = (&'a mut Emissions, &'a mut Emissions);

/// Reborrows optional collectors for one more call without consuming them.
fn reborrow<'b>(c: &'b mut Option<Collectors<'_>>) -> Option<Collectors<'b>> {
    c.as_mut().map(|c| (&mut *c.0, &mut *c.1))
}

impl Default for MultiQueryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiQueryEngine {
    /// An empty host with default engine options.
    pub fn new() -> MultiQueryEngine {
        Self::with_options(EngineOptions::default())
    }

    /// An empty host lowering every registered plan with `opts`.
    ///
    /// Options are host-wide: shared operators must be built identically
    /// for every query subscribing to them.
    pub fn with_options(opts: EngineOptions) -> MultiQueryEngine {
        let mut flow = Dataflow::new(opts);
        if opts.obs.timing() {
            // Per-epoch timing samples feed the per-query cost attribution
            // (drained every epoch by `record_epoch_obs`, so no growth).
            flow.enable_epoch_profile();
        }
        MultiQueryEngine {
            flow,
            canon: Canonicalizer::new(),
            registry: Registry::default(),
            opts,
            now: 0,
            slide: 1,
            next_boundary: None,
            purge_period: 1,
            last_physical_purge: None,
            retained: VecDeque::new(),
            keeps_history: true,
            retention_horizon: 0,
            profile: Vec::new(),
            seen: FxHashMap::default(),
            epoch: Vec::new(),
        }
    }

    /// A host running exactly `plan`, as the single-query
    /// [`Engine`](crate::engine::Engine) does: the plan is lowered verbatim
    /// in its own label namespace (so its labels, operators and result
    /// tags are the plan's own, and input sges carry the plan's label ids),
    /// and no input history is kept for catch-up.
    pub(crate) fn for_plan(plan: &Plan, opts: EngineOptions) -> (MultiQueryEngine, QueryId) {
        let mut host = Self::with_options(opts);
        host.canon = Canonicalizer::adopting(plan.labels.clone());
        host.keeps_history = false;
        let id = host.install(plan, plan.expr.clone(), SubplanChoice::static_shared());
        (host, id)
    }

    /// The shared label namespace. Input sges must carry labels from this
    /// interner (EDB names are interned when a query referencing them is
    /// registered; see [`MultiQueryEngine::labels`] + `LabelInterner::get`).
    pub fn labels(&self) -> &LabelInterner {
        self.canon.labels()
    }

    /// Provisions the input-retention horizon: history is kept for at
    /// least `horizon` ticks even before any query that large registers.
    ///
    /// Catch-up on [`MultiQueryEngine::register`] can only re-derive from
    /// retained history, which normally spans the largest window ever
    /// registered. A query whose window exceeds everything seen so far
    /// would find older (still-valid-for-it) edges already pruned — call
    /// this up front with the largest window the host should expect to
    /// make late registrations of that size exact too.
    pub fn set_retention_horizon(&mut self, horizon: u64) {
        self.retention_horizon = self.retention_horizon.max(horizon);
    }

    /// The current input-retention horizon in ticks.
    pub fn retention_horizon(&self) -> u64 {
        self.retention_horizon
    }

    /// Registers a persistent query; it participates in every subsequent
    /// `process` call until deregistered.
    ///
    /// The plan is lowered through the shared canonical namespace, so any
    /// subplan structurally equal to one an already-registered query uses
    /// — window scans, PATH automata, PATTERN join subtrees — is **not**
    /// re-instantiated; the existing operator fans out to both queries.
    ///
    /// When the host runs with duplicate suppression (the default), a
    /// late registration catches up with history: if the whole plan is
    /// already running for another query, the newcomer's sink is seeded
    /// from that twin's emission log; otherwise the retained input window
    /// is replayed through a private cold instance of the plan, whose
    /// warmed state is then adopted by the plan's newly created operators
    /// — either way the query answers from the full current window like a
    /// dedicated engine that had seen the whole stream, **provided its
    /// window fits the retention horizon** (the high-water mark of all
    /// windows registered so far; raise it up front with
    /// [`MultiQueryEngine::set_retention_horizon`] when larger windows
    /// will register late — history older than the horizon is pruned and
    /// cannot be re-derived). With `suppress_duplicates = false`
    /// (explicit-deletion pipelines) catch-up is skipped and the query
    /// starts cold.
    pub fn register(&mut self, query: &SgqQuery) -> QueryId {
        let plan = plan_canonical(query);
        // The shared canonical form drives the cost estimate even when the
        // chooser dedicates the plan.
        let shared_expr = self.canon.canonicalize(&plan);
        let choice = self.plan_choice(&shared_expr);
        let expr = if choice.dedicated {
            self.canon.canonicalize_private(&plan)
        } else {
            shared_expr
        };
        self.install(&plan, expr, choice)
    }

    /// Lowers `expr` (`plan` in this host's namespace) into the shared
    /// dataflow, registers it and catches it up with history.
    fn install(&mut self, plan: &Plan, expr: SgaExpr, choice: SubplanChoice) -> QueryId {
        let answer = self.canon.answer_label(plan.labels.name(plan.answer));
        let root = self.flow.lower(&expr);
        let nodes = self.flow.nodes_of(&expr);
        // Per-query schedule parameters: the plan ticks at the gcd of its
        // window slides, so every WSCAN's expiry points are hit.
        let mut slide = plan.window.slide;
        let mut max_window = plan.window.size;
        expr.visit(&mut |e| {
            if let SgaExpr::WScan {
                window, slide: s, ..
            } = e
            {
                slide = gcd(slide, *s);
                max_window = max_window.max(*window);
            }
        });
        let purge_period = self
            .opts
            .purge_period
            .unwrap_or_else(|| slide.max(plan.window.size / 4).max(1));
        let node_count = nodes.len();
        let id = self.registry.insert(
            Registration {
                root,
                nodes,
                expr,
                answer,
                slide,
                purge_period,
                max_window,
                base: 0,
                base_del: 0,
                drained: 0,
                drained_del: 0,
                choice,
                latency_hist: Default::default(),
                emission_hist: Default::default(),
                obs_results: 0,
                obs_deleted: 0,
            },
            self.opts.suppress_duplicates,
        );
        self.recompute_schedule();
        if self.opts.suppress_duplicates {
            self.catch_up(id);
        }
        // Start observability sampling at the current log lengths so
        // catch-up (or a late join's skipped history) does not register as
        // one giant per-epoch emission.
        if let Some((r, d)) = self.registry.log_lens(id) {
            if let Some(reg) = self.registry.get_mut(id) {
                reg.obs_results = r;
                reg.obs_deleted = d;
            }
        }
        self.flow.trace_event(&TraceEvent::Register {
            query: id.0,
            root,
            nodes: node_count,
        });
        id
    }

    /// The register-time shared-vs-dedicated decision for a plan
    /// (`crate::chooser`): measured per-operator and per-phase cost when
    /// timing observability has signal, the deterministic static
    /// always-share heuristic otherwise.
    fn plan_choice(&self, shared_expr: &SgaExpr) -> SubplanChoice {
        let measured = self.opts.obs.timing().then(|| {
            let (route_nanos, dedup_nanos) = self.registry.phase_nanos();
            let by_node: FxHashMap<usize, u64> = self
                .flow
                .operator_snapshots()
                .into_iter()
                .map(|o| (o.node, o.stats.batch_nanos))
                .collect();
            // Σ batch_nanos over live derived operators this plan would
            // reuse by sharing — the work a dedicated pipeline repeats.
            // WSCANs (and label-less FILTERs) stay shared either way.
            let mut reusable_nanos = 0u64;
            let mut seen = FxHashSet::default();
            shared_expr.visit(&mut |e| {
                if matches!(e, SgaExpr::WScan { .. } | SgaExpr::Filter { .. }) {
                    return;
                }
                if let Some(n) = self.flow.lookup(e) {
                    if seen.insert(n) {
                        reusable_nanos += by_node.get(&n).copied().unwrap_or(0);
                    }
                }
            });
            CostInputs {
                epochs: self.flow.exec_stats().epochs,
                route_nanos,
                dedup_nanos,
                reusable_nanos,
                queries: self.registry.len() as u64,
            }
        });
        chooser::decide(self.opts.sharing, measured)
    }

    /// Accumulated `(routing, dedup)` post-operator phase nanos: the
    /// result-routing projection passes and the per-root sink dedup
    /// passes, host-wide. Populated only at [`ObsLevel::Timing`]; the
    /// third phase of the breakdown — operator time — is the sum of
    /// `batch_nanos` over [`MultiQueryEngine::metrics_snapshot`]
    /// operators.
    pub fn phase_nanos(&self) -> (u64, u64) {
        self.registry.phase_nanos()
    }

    /// Deregisters a query. Operators no other registered query references
    /// are retired from the shared dataflow (their state is dropped);
    /// shared operators live on for the remaining subscribers. Returns
    /// `false` if `id` is unknown (already deregistered).
    pub fn deregister(&mut self, id: QueryId) -> bool {
        let Some((_, dead)) = self.registry.remove(id) else {
            return false;
        };
        let retired = dead.len();
        self.flow.retire(&dead);
        self.recompute_schedule();
        self.flow.trace_event(&TraceEvent::Deregister {
            query: id.0,
            retired,
        });
        true
    }

    /// Registered query ids, in registration order.
    pub fn registered(&self) -> Vec<QueryId> {
        self.registry.ids()
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.registry.len()
    }

    /// Names of the live physical operators in the shared dataflow.
    pub fn operator_names(&self) -> Vec<String> {
        self.flow.operator_names()
    }

    /// Number of live physical operators (the sharing metric: compare
    /// against the sum of dedicated engines' operator counts).
    pub fn operator_count(&self) -> usize {
        self.flow.live_count()
    }

    /// Total state entries across live operators.
    pub fn state_size(&self) -> usize {
        self.flow.state_size()
    }

    /// Current event time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The next slide boundary, once the first input has placed the grid.
    pub(crate) fn next_boundary(&self) -> Option<Timestamp> {
        self.next_boundary
    }

    /// The result tag carried by `id`'s emitted sgts.
    pub fn answer_label(&self, id: QueryId) -> Option<Label> {
        self.registry.get(id).map(|r| r.answer)
    }

    /// Pretty-prints the canonicalized plan `id` runs, with shared-
    /// namespace label names (diagnostics).
    pub fn plan_display(&self, id: QueryId) -> Option<String> {
        self.registry
            .get(id)
            .map(|r| r.expr.display(self.canon.labels()))
    }

    /// The observability collection level this host runs at.
    pub fn obs_level(&self) -> ObsLevel {
        self.opts.obs
    }

    /// Installs a [`TraceSink`] on the shared dataflow; it additionally
    /// receives the host's register/deregister lifecycle events. See
    /// [`crate::dataflow::Dataflow::set_trace_sink`] for the gating
    /// rules — tracing never affects results.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.flow.set_trace_sink(sink);
    }

    /// Renders the host-wide executor counters and query `id`'s lowered
    /// plan tree annotated with live per-operator counters, followed by
    /// the query's attributed-latency and emission histogram summaries.
    /// `None` for an unknown id. Counter lines read zero below
    /// [`ObsLevel::Counters`]; timing requires [`ObsLevel::Timing`].
    pub fn explain_analyze(&self, id: QueryId) -> Option<String> {
        let reg = self.registry.get(id)?;
        let log = self.registry.log_counts(id)?;
        let sink = self.registry.sink_census(id, self.now)?;
        let stats = self.flow.exec_stats();
        let mut out = format!(
            "== explain analyze {id} (obs={}) ==\n\
             epochs={} input_deltas={} invocations={} dispatched={} emitted={} state={}\n\
             plan: {}\n{}\n",
            self.opts.obs.name(),
            stats.epochs,
            stats.input_deltas,
            stats.operator_invocations,
            stats.deltas_dispatched,
            stats.deltas_emitted,
            self.flow.state_size(),
            reg.expr.display(self.canon.labels()),
            reg.choice.describe(self.opts.sharing),
        );
        out.push_str(&self.flow.explain_expr(&reg.expr));
        let lat = reg.latency_hist.summary();
        let emi = reg.emission_hist.summary();
        out.push_str(&format!(
            "results={} deleted={} log_retained={} log_released={} sink_bytes={} \
             latency: epochs={} p50={} p99={} max={}\n\
             emissions: epochs={} p50={} p99={} max={}\n",
            log.results,
            log.deleted,
            log.retained,
            log.released(),
            sink.reserved_bytes,
            lat.count,
            fmt_nanos(lat.p50),
            fmt_nanos(lat.p99),
            fmt_nanos(lat.max),
            emi.count,
            emi.p50,
            emi.p99,
            emi.max,
        ));
        Some(out)
    }

    /// Slot and index occupancy of every live PATH operator, by node id
    /// (see [`crate::physical::PathCensus`]).
    pub fn path_censuses(&self) -> Vec<(usize, crate::physical::PathCensus)> {
        self.flow.path_censuses()
    }

    /// Occupancy and reserved bytes of every edge store, by the node whose
    /// output it holds (see [`crate::physical::adjacency::EdgeStore`]).
    /// Each store is counted once, however many S-PATHs read it.
    pub fn store_censuses(&self) -> Vec<(usize, crate::physical::adjacency::AdjacencyCensus)> {
        self.flow.store_censuses()
    }

    /// Coverage pairs, log occupancy and reserved bytes of every live
    /// root sink at the host's event time, by root node id (see
    /// [`SinkCensus`]).
    pub fn sink_censuses(&self) -> Vec<(usize, SinkCensus)> {
        self.registry.sink_censuses(self.now)
    }

    /// Aggregated frontier traversal counters of the live PATH operators
    /// (nodes settled / improved, heap pushes, edges scanned). Always-on
    /// deterministic counters, available at every obs level.
    pub(crate) fn frontier_totals(&self) -> FrontierStats {
        self.flow.frontier_totals()
    }

    /// Row, key and dedup occupancy of every live hash-join PATTERN
    /// operator, by node id (see [`crate::physical::PatternCensus`]).
    pub fn pattern_censuses(&self) -> Vec<(usize, crate::physical::PatternCensus)> {
        self.flow.pattern_censuses()
    }

    /// A point-in-time [`MetricsSnapshot`] of the host: executor counters,
    /// one operator record per live node in the shared dataflow, and one
    /// query record per registration (latency/emission histogram
    /// summaries). Serialisable as JSONL/CSV for external consumers.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let queries = self
            .registry
            .ids()
            .into_iter()
            .filter_map(|id| {
                let reg = self.registry.get(id)?;
                let log = self.registry.log_counts(id)?;
                Some(QuerySnapshot {
                    query: id.0,
                    results: log.results,
                    deleted: log.deleted,
                    log_retained: log.retained,
                    log_released: log.released(),
                    latency: reg.latency_hist.summary(),
                    emissions: reg.emission_hist.summary(),
                })
            })
            .collect();
        MetricsSnapshot {
            level: self.opts.obs,
            exec: self.flow.exec_stats(),
            state_entries: self.flow.state_size(),
            operators: self.flow.operator_snapshots(),
            queries,
        }
    }

    /// Processes one arriving sge, returning the newly emitted results of
    /// every affected query as `(QueryId, Sgt)` pairs (in emission order;
    /// a shared subplan emission fans out to one pair per subscriber).
    pub fn process(&mut self, sge: Sge) -> Vec<(QueryId, Sgt)> {
        let mut inserts = Vec::new();
        self.ingest_one(sge, None, Some((&mut inserts, &mut Vec::new())));
        inserts
    }

    /// Drain-only ingestion of one arriving sge: semantically
    /// [`MultiQueryEngine::process`], but **no** `(QueryId, Sgt)` return
    /// pairs are built — emissions land only in the per-query logs, to be
    /// read through the [`drain`](MultiQueryEngine::drain) cursor (or the
    /// [`results`](MultiQueryEngine::results) /
    /// [`answer_at`](MultiQueryEngine::answer_at) views). This is the
    /// low-overhead path for subscription-style hosts: `process`'s
    /// per-call pair collection (a clone per emission plus a `Vec` per
    /// call) is the bulk of the host tax at small fleet sizes, and a
    /// caller that drains per slide — not per tuple — never looks at it.
    pub fn ingest(&mut self, sge: Sge) {
        self.ingest_one(sge, None, None);
    }

    /// Drain-only batch ingestion: [`MultiQueryEngine::process_batch`]
    /// without the `(QueryId, Sgt)` pair building (see
    /// [`MultiQueryEngine::ingest`]). The batch must be timestamp-ordered.
    pub fn ingest_batch(&mut self, batch: &[Sge]) {
        self.process_batch_collect(batch, None);
    }

    /// Processes one sge carrying edge properties (attribute predicates in
    /// registered queries evaluate against them).
    pub fn process_with_props(
        &mut self,
        sge: Sge,
        props: sgq_types::PropMap,
    ) -> Vec<(QueryId, Sgt)> {
        let props = Some(std::sync::Arc::new(props));
        let mut inserts = Vec::new();
        self.ingest_one(sge, props, Some((&mut inserts, &mut Vec::new())));
        inserts
    }

    /// One arrival: time advances to it (purging at crossed boundaries),
    /// it joins the retained history, and it runs as an epoch of one.
    fn ingest_one(
        &mut self,
        sge: Sge,
        props: Option<SharedProps>,
        mut collect: Option<Collectors<'_>>,
    ) {
        self.advance_time_into(sge.t, reborrow(&mut collect));
        self.retain_input(sge, props.clone());
        let delta = Delta::Insert(input_sgt(sge, props));
        self.ingest_delta(sge.label, delta, collect);
    }

    /// Processes a timestamp-ordered batch as true **epochs**: chunked at
    /// host tick boundaries and delivered through the shared dataflow in
    /// level-ordered sweeps. Under
    /// duplicate suppression, value-equivalent sges falling in the same
    /// host tick period are pre-coalesced at the ingestion boundary; with
    /// suppression off every arrival is delivered.
    pub fn process_batch(&mut self, batch: &[Sge]) -> Vec<(QueryId, Sgt)> {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        self.process_batch_collect(batch, Some((&mut inserts, &mut deletes)));
        inserts
    }

    /// The batch-ingestion loop behind [`MultiQueryEngine::process_batch`]
    /// (collectors given) and [`MultiQueryEngine::ingest_batch`]
    /// (drain-only, `None`).
    fn process_batch_collect(&mut self, batch: &[Sge], mut collect: Option<Collectors<'_>>) {
        let Some(&last) = batch.last() else {
            return;
        };
        debug_assert!(
            batch.windows(2).all(|w| w[0].t <= w[1].t),
            "batches are stream segments (ordered by timestamp)"
        );
        let (mut seen, mut epoch) = (
            std::mem::take(&mut self.seen),
            std::mem::take(&mut self.epoch),
        );
        for &sge in batch {
            // Retain even coalesced duplicates: retention is raw input
            // history, independent of the current tick granularity.
            self.retain_input(sge, None);
            if self.opts.suppress_duplicates {
                let period = sge.t / self.slide;
                match seen.get(&(sge.src, sge.trg, sge.label)) {
                    Some(&p) if p == period => continue, // covered duplicate
                    _ => {
                        seen.insert((sge.src, sge.trg, sge.label), period);
                    }
                }
            }
            let crosses = match self.next_boundary {
                None => true,
                Some(b) => sge.t >= b,
            };
            if crosses {
                self.flush_epoch(&mut epoch, reborrow(&mut collect));
                self.advance_time_into(sge.t, reborrow(&mut collect));
            }
            epoch.push((sge.label, Delta::Insert(input_sgt(sge, None))));
        }
        self.flush_epoch(&mut epoch, reborrow(&mut collect));
        self.advance_time_into(last.t, reborrow(&mut collect));
        // One large batch must not leave a map of all its edges behind.
        seen.clear();
        seen.shrink_to(SCRATCH_KEPT);
        epoch.shrink_to(SCRATCH_KEPT);
        (self.seen, self.epoch) = (seen, epoch);
    }

    /// Explicitly deletes a previously inserted sge for every registered
    /// query (§6.2.5). The host must run with `suppress_duplicates =
    /// false`; returns the emitted negative result tuples.
    ///
    /// Under the data model's set semantics (Def. 10), value-equivalent
    /// re-insertions coalesce into one edge, so a deletion retracts *the
    /// edge*: exactness is guaranteed when each `(src, trg, label)` has at
    /// most one un-expired insertion at deletion time (insert → delete →
    /// re-insert cycles are fine; concurrent duplicates of the same edge
    /// require the counting-based `sgq_dd` baseline). `sge.t` is the
    /// *original* timestamp, so WSCAN reconstructs the interval being
    /// retracted; the deletion itself happens "now".
    ///
    /// # Panics
    ///
    /// If the host suppresses duplicates: its operators and sinks drop
    /// covered re-derivations, so negative tuples could not cancel what
    /// they retract and answers would silently go wrong.
    pub fn delete(&mut self, sge: Sge) -> Vec<(QueryId, Sgt)> {
        self.retract(sge, None)
    }

    /// Explicitly deletes a previously inserted property-carrying sge.
    /// Pass the **same properties** as the insertion so the negative tuple
    /// passes the same attribute filters and cancels it exactly.
    pub(crate) fn delete_with_props(
        &mut self,
        sge: Sge,
        props: sgq_types::PropMap,
    ) -> Vec<(QueryId, Sgt)> {
        self.retract(sge, Some(std::sync::Arc::new(props)))
    }

    fn retract(&mut self, sge: Sge, props: Option<SharedProps>) -> Vec<(QueryId, Sgt)> {
        assert!(
            !self.opts.suppress_duplicates,
            "explicit deletions require suppress_duplicates = false"
        );
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        let delta = Delta::Delete(input_sgt(sge, props));
        self.ingest_delta(sge.label, delta, Some((&mut inserts, &mut deletes)));
        deletes
    }

    /// Moves event time forward, purging state at every crossed host tick
    /// boundary (the gcd of all registered queries' ticks, so every
    /// query's window-expiry points are hit).
    pub fn advance_time(&mut self, t: Timestamp) {
        self.advance_time_into(t, None);
    }

    /// Purges expired operator and sink state at `watermark`. Operators
    /// that emit continuation results during window movement (the
    /// negative-tuple PATH, §6.2.3) are purged at every slide boundary and
    /// have those results propagated downstream; direct-approach operators
    /// are reclaimed on the amortised
    /// [`EngineOptions::purge_period`] cadence of the most demanding
    /// registered query (they skip expired state by interval intersection,
    /// so delayed reclamation never changes results — only memory).
    pub fn purge(&mut self, watermark: Timestamp) {
        self.purge_into(watermark, None);
    }

    /// Forces physical reclamation of all expired operator state.
    pub fn purge_all(&mut self, watermark: Timestamp) {
        self.last_physical_purge = None;
        self.purge(watermark);
    }

    /// All result sgts `id` has emitted so far (inserts, in order), built
    /// from its root's shared result log from the query's join point on
    /// and tagged with the root's **canonical output label** (route-once
    /// emission defers per-query answer tagging to
    /// [`drain`](MultiQueryEngine::drain) / `process` pairs). On a host
    /// that calls
    /// [`release_delivered`](MultiQueryEngine::release_delivered) they are
    /// the retained tail only.
    pub fn results(&self, id: QueryId) -> Vec<Sgt> {
        self.registry.results_from(id, 0)
    }

    /// The result sgts `id` emitted at or after absolute log position
    /// `from` (a [`log_ends`](MultiQueryEngine::log_ends) reading), as
    /// [`results`](MultiQueryEngine::results) builds them.
    pub(crate) fn results_from(&self, id: QueryId, from: usize) -> Vec<Sgt> {
        self.registry.results_from(id, from)
    }

    /// Absolute `(insert, negative-tuple)` log lengths of `id`'s root: the
    /// positions the next emissions take.
    pub(crate) fn log_ends(&self, id: QueryId) -> (usize, usize) {
        self.registry.log_lens(id).unwrap_or_default()
    }

    /// All negative result tuples `id` has emitted so far (a shared-log
    /// view like [`MultiQueryEngine::results`]).
    pub fn deleted_results(&self, id: QueryId) -> &[Sgt] {
        self.registry.log(id).map_or(&[], |(_, deleted)| deleted)
    }

    /// Returns the results emitted for `id` since the previous `drain`
    /// call, re-labelled to its answer tag (the per-query subscription
    /// surface). Catch-up results from a mid-stream registration appear
    /// in the first drain.
    pub fn drain(&mut self, id: QueryId) -> Vec<Sgt> {
        let timed = self.opts.obs.timing();
        self.registry.drain(id, timed)
    }

    /// The borrowing form of [`drain`](MultiQueryEngine::drain) for hosts
    /// that forward results instead of keeping them: visits `id`'s
    /// undelivered result inserts (`is_delete = false`) and then its
    /// undelivered negative tuples (`true`), each in emission order, as
    /// [`ResultRow`]s — the answer pair and its validity, what a RESULT
    /// frame carries — and advances both cursors. Nothing is cloned or
    /// built.
    pub fn for_each_undelivered(&mut self, id: QueryId, visit: impl FnMut(bool, &ResultRow)) {
        let timed = self.opts.obs.timing();
        self.registry.for_each_undelivered(id, timed, visit);
    }

    /// How many rows the next
    /// [`for_each_undelivered`](MultiQueryEngine::for_each_undelivered)
    /// call for `id` visits.
    pub fn undelivered(&self, id: QueryId) -> usize {
        self.registry.undelivered(id)
    }

    /// Frees result-log history no reader can still need, so a forwarding
    /// host holds O(window + undelivered) results instead of every result
    /// since boot. Per root, the log **prefix** is released whose entries
    /// are both
    ///
    /// * delivered to every subscriber of that root — passed by its
    ///   [`drain`](MultiQueryEngine::drain) cursor (inserts) and its
    ///   [`for_each_undelivered`](MultiQueryEngine::for_each_undelivered)
    ///   cursor (negative tuples; `drain` alone never advances it), and
    /// * expired at the host's event time (`interval.exp <= now()`), so
    ///   they contribute to no `answer_at(id, t)` with `t >= now()` and a
    ///   twin registering later could only ever have seen them as dead
    ///   history — and, under duplicate suppression, no longer read by
    ///   the root's coverage: older than the last sink purge and expired
    ///   at its watermark, so a result goes at most one purge period
    ///   later than its expiry.
    ///
    /// Afterwards [`results`](MultiQueryEngine::results),
    /// [`deleted_results`](MultiQueryEngine::deleted_results) and
    /// `answer_at(id, t < now())` see the retained tail only; drains,
    /// `answer_at(id, t >= now())` and the cumulative counts in
    /// [`metrics_snapshot`](MultiQueryEngine::metrics_snapshot) are
    /// unaffected. This is a call, not an option, because only the host
    /// knows whether anything else still reads the full logs; a caller
    /// that never makes it keeps them whole. Cost is amortised O(1) per
    /// released result plus O(roots) per call. Returns the number of
    /// entries released.
    pub fn release_delivered(&mut self) -> usize {
        self.registry.release_delivered(self.now)
    }

    /// The distinct answer pairs of `id` valid at `t`, per its emitted
    /// result stream (deletions subtracted) — `Engine::answer_at`.
    pub fn answer_at(&self, id: QueryId, t: Timestamp) -> FxHashSet<(VertexId, VertexId)> {
        self.registry
            .log(id)
            .map(|(results, deleted)| answer_at(results, deleted, t))
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn ingest_delta(&mut self, label: Label, delta: Delta, mut collect: Option<Collectors<'_>>) {
        let (opts, now) = (self.opts, self.now);
        let MultiQueryEngine { flow, registry, .. } = self;
        flow.ingest(label, delta, now, |n, batch| {
            registry.route_batch(n, batch, &opts, reborrow(&mut collect));
        });
        self.record_epoch_obs();
    }

    /// Delivers the accumulated epoch through the shared dataflow in one
    /// level-ordered sweep (`self.now` is the epoch's opening watermark).
    fn flush_epoch(
        &mut self,
        epoch: &mut Vec<(Label, Delta)>,
        mut collect: Option<Collectors<'_>>,
    ) {
        if epoch.is_empty() {
            return;
        }
        let (opts, now) = (self.opts, self.now);
        let MultiQueryEngine { flow, registry, .. } = self;
        flow.ingest_epoch(epoch.drain(..), now, |n, batch| {
            registry.route_batch(n, batch, &opts, reborrow(&mut collect));
        });
        self.record_epoch_obs();
    }

    /// Executor dispatch counters for the shared dataflow.
    pub fn exec_stats(&self) -> crate::metrics::ExecStats {
        self.flow.exec_stats()
    }

    fn advance_time_into(&mut self, t: Timestamp, mut collect: Option<Collectors<'_>>) {
        debug_assert!(t >= self.now, "streams are ordered by timestamp");
        match self.next_boundary {
            None => {
                self.next_boundary = Some((t / self.slide + 1) * self.slide);
            }
            Some(mut b) => {
                while t >= b {
                    self.purge_into(b, reborrow(&mut collect));
                    b += self.slide;
                }
                self.next_boundary = Some(b);
            }
        }
        self.now = t;
        self.prune_retained();
    }

    fn purge_into(&mut self, watermark: Timestamp, mut collect: Option<Collectors<'_>>) {
        let due = match self.last_physical_purge {
            None => true,
            Some(last) => watermark.saturating_sub(last) >= self.purge_period,
        };
        let (opts, now) = (self.opts, self.now);
        let MultiQueryEngine { flow, registry, .. } = self;
        flow.purge(watermark, now, due, |n, batch| {
            registry.route_batch(n, batch, &opts, reborrow(&mut collect));
        });
        if due {
            self.last_physical_purge = Some(watermark);
            self.registry.purge_sink_dedup(watermark);
        }
        // Purge continuations emit results too (negative-tuple PATH window
        // movement); sample them like any epoch.
        self.record_epoch_obs();
    }

    /// Samples one epoch's per-query observability: emission counts since
    /// the last sample, and (at [`ObsLevel::Timing`]) the epoch's drained
    /// per-node timing profile attributed by fan-out share. No-op below
    /// [`ObsLevel::Counters`].
    fn record_epoch_obs(&mut self) {
        if !self.opts.obs.counting() {
            return;
        }
        let timed = self.opts.obs.timing();
        self.profile.clear();
        if timed {
            self.flow.take_epoch_profile(&mut self.profile);
        }
        self.registry.record_epoch_obs(&self.profile, timed);
    }

    fn retain_input(&mut self, sge: Sge, props: Option<SharedProps>) {
        // Catch-up is the sole consumer of retained history and is skipped
        // for unsuppressed (explicit-deletion) pipelines, so don't pay for
        // retention there.
        if self.keeps_history && self.retention_horizon > 0 && self.opts.suppress_duplicates {
            self.retained.push_back((sge, props));
            self.prune_retained();
        }
    }

    fn prune_retained(&mut self) {
        while let Some((front, _)) = self.retained.front() {
            if front.t.saturating_add(self.retention_horizon) <= self.now {
                self.retained.pop_front();
            } else {
                break;
            }
        }
    }

    /// Recomputes host-wide schedule parameters after a registry change:
    /// tick = gcd of per-query ticks, reclamation cadence = the most
    /// demanding query's. The retention horizon only ever grows (it is a
    /// high-water mark): shrinking it on deregister would prune history a
    /// re-registration of the same query still needs for catch-up.
    fn recompute_schedule(&mut self) {
        let mut slide = 0u64;
        let mut period = u64::MAX;
        for (_, reg) in self.registry.iter() {
            slide = gcd(slide, reg.slide);
            period = period.min(reg.purge_period);
            self.retention_horizon = self.retention_horizon.max(reg.max_window);
        }
        self.slide = slide.max(1);
        self.purge_period = if period == u64::MAX { 1 } else { period };
        if self.next_boundary.is_some() {
            // Re-align the boundary grid to the new tick granularity.
            self.next_boundary = Some((self.now / self.slide + 1) * self.slide);
        }
        self.prune_retained();
    }

    /// Brings a freshly registered query up to date with the retained
    /// input window, so it answers like a dedicated engine that saw the
    /// whole stream. Two disjoint cases:
    ///
    /// * **Root shared** — another query subscribes to the same root, so
    ///   the entire plan is warm (sharing requires identical subtrees all
    ///   the way down) and the root sink's shared emission log *is* this
    ///   query's full history: rewind the newcomer's view cursors to the
    ///   start of the log. Replay would be wrong here — warm stateful
    ///   operators (S-PATH, the join tree) prune covered re-insertions by
    ///   design and would re-derive nothing.
    /// * **Root new** — replay the retained window through a **private
    ///   cold instance** of the plan (dedicated-engine semantics for the
    ///   window, which bounds everything still derivable), route its root
    ///   emissions to the newcomer's sink, then move the warmed operator
    ///   state into the shared graph's newly created nodes. Nodes shared
    ///   with live queries already hold that history and keep their own
    ///   state; the replay copies of those are discarded.
    fn catch_up(&mut self, id: QueryId) {
        let Some(reg) = self.registry.get(id) else {
            return;
        };
        let root = reg.root;
        if self.registry.has_twin(root, id) {
            self.registry.grant_full_history(id);
            return;
        }
        if self.retained.is_empty() {
            return;
        }
        let expr = reg.expr.clone();
        let (opts, now) = (self.opts, self.now);
        // Obs off: collection never affects results, and replay cost
        // belongs to registration, not to any query's epoch accounting.
        let mut replay = Dataflow::new(EngineOptions {
            obs: ObsLevel::Off,
            ..opts
        });
        let replay_root = replay.lower(&expr);
        {
            // The whole retained window replays as one epoch (dedicated
            // replay never advances time, so every delta already shared one
            // watermark — the batched form only amortises dispatch).
            let MultiQueryEngine {
                registry, retained, ..
            } = self;
            let epoch = retained
                .iter()
                .map(|(sge, props)| (sge.label, Delta::Insert(input_sgt(*sge, props.clone()))));
            replay.ingest_epoch(epoch, now, |n, batch| {
                if n == replay_root {
                    for d in batch.iter() {
                        registry.sink_to(id, d);
                    }
                }
            });
        }
        // Adopt the warmed state for every node this registration newly
        // created (sole-reference ⇒ created cold by this register call).
        let mut adopted: FxHashSet<usize> = FxHashSet::default();
        let mut moves: Vec<(usize, usize)> = Vec::new();
        expr.visit(&mut |e| {
            if let (Some(live), Some(warm)) = (self.flow.lookup(e), replay.lookup(e)) {
                if self.registry.refcount(live) == 1 && adopted.insert(live) {
                    moves.push((live, warm));
                }
            }
        });
        // A replayed edge store replaces a live one only if every S-PATH
        // reading it was just created: the store then came with them,
        // empty. A store a live S-PATH reads already holds the window.
        let mut stores: Vec<(usize, usize)> = Vec::new();
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        expr.visit(&mut |e| {
            if let (Some(live), Some(warm)) = (self.flow.lookup(e), replay.lookup(e)) {
                let mut readers = self.flow.store_readers(live).peekable();
                if readers.peek().is_some()
                    && readers.all(|r| adopted.contains(&r))
                    && seen.insert(live)
                {
                    stores.push((live, warm));
                }
            }
        });
        for (live, warm) in moves {
            self.flow.replace_op(live, replay.take_op(warm));
        }
        for (live, warm) in stores {
            let store = replay
                .take_store(warm)
                .expect("the replay lowered the same reads");
            self.flow.adopt_store(live, store);
        }
    }
}
