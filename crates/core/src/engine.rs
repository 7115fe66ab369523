//! The streaming graph query processor (§6.1).
//!
//! Lowers a logical [`SgaExpr`](crate::algebra::SgaExpr) into a push-based
//! dataflow of physical operators and executes it in a data-driven
//! fashion: arriving sges are propagated through the dataflow eagerly
//! (matching the prototype's non-blocking operators — §7.3's discussion of
//! why SGA throughput is insensitive to the slide interval), either one at
//! a time ([`Engine::process`]) or as slide-bounded **epochs**
//! ([`Engine::process_batch`]) that amortise dispatch over whole delta
//! batches, and state is purged with the direct approach at slide
//! boundaries.
//!
//! Structurally equal subexpressions are deduplicated into a single
//! physical operator with fan-out edges, so shared subplans (e.g. one
//! `W(S_posts)` feeding two PATTERN ports, Figure 8) are evaluated once.
//!
//! An [`Engine`] is a [`MultiQueryEngine`] with one registration: the
//! host owns epoch formation, the purge cadence and the deduplicating
//! result sink, and this type is the single-query surface over it.

use crate::metrics::{ExecStats, RunStats};
use crate::multiquery::{MultiQueryEngine, QueryId};
use crate::obs::{FrontierStats, MetricsSnapshot, ObsLevel, TraceSink};
use crate::planner::{plan_canonical, Plan};
use sgq_query::SgqQuery;
use sgq_types::{FxHashSet, Label, LabelInterner, Sge, Sgt, SnapshotGraph, Timestamp, VertexId};
use std::time::{Duration, Instant};

/// Which physical implementation to use for PATH operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathImpl {
    /// S-PATH, the direct approach of §6.2.4 (default).
    #[default]
    Direct,
    /// The negative-tuple Δ-tree of \[57\] (§6.2.3), for Table 3 comparisons.
    NegativeTuple,
}

/// How many input deltas one sweep of the dataflow carries. There is one
/// mode: a sweep per ingested epoch, in which operators consume their
/// accumulated per-port batches once. A single delta is an epoch of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// One sweep per ingested epoch.
    #[default]
    Epoch,
}

/// Which physical implementation to use for PATTERN operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternImpl {
    /// Pipelined symmetric-hash-join tree (§6.2.2, default — the paper's
    /// prototype).
    #[default]
    HashTree,
    /// Streaming worst-case-optimal join (delta generic join; the §6.2.2
    /// future-work alternative, refs \[5\] and \[55\]).
    Wcoj,
}

/// How a multi-query host decides between joining the shared dataflow and
/// instantiating a dedicated pipeline for a newly registered plan. The
/// single-query [`Engine`] ignores this option; it lives here so hosts and
/// engines share one [`EngineOptions`] surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingPolicy {
    /// Cost-based: consult measured per-operator cost (batch nanos,
    /// routing/dedup tax) when available, fall back to a deterministic
    /// static heuristic (share on overlap, ties to shared) before any
    /// measurements exist. The default.
    #[default]
    Auto,
    /// Always join the shared structure (the pre-chooser behaviour).
    AlwaysShare,
    /// Always instantiate dedicated derived operators (sharing ablation;
    /// window scans are still unified — they are input partitions, not
    /// pipelines).
    AlwaysDedicated,
}

impl SharingPolicy {
    /// Parses `SGQ_SHARING` (`auto`/`share`/`dedicated`).
    pub fn from_env() -> SharingPolicy {
        match std::env::var("SGQ_SHARING").as_deref() {
            Ok("share") | Ok("always_share") => SharingPolicy::AlwaysShare,
            Ok("dedicated") | Ok("always_dedicated") => SharingPolicy::AlwaysDedicated,
            _ => SharingPolicy::Auto,
        }
    }

    /// Short display name (`auto`/`share`/`dedicated`).
    pub fn name(&self) -> &'static str {
        match self {
            SharingPolicy::Auto => "auto",
            SharingPolicy::AlwaysShare => "share",
            SharingPolicy::AlwaysDedicated => "dedicated",
        }
    }
}

/// Engine construction options.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// PATH physical implementation.
    pub path_impl: PathImpl,
    /// PATTERN physical implementation.
    pub pattern_impl: PatternImpl,
    /// Suppress value-equivalent covered duplicates (set semantics for
    /// append-only pipelines). Must be `false` when explicit deletions are
    /// used, so insert/delete emissions cancel exactly.
    pub suppress_duplicates: bool,
    /// Materialise full path payloads on PATH results (R3).
    pub materialize_paths: bool,
    /// Ticks between physical purges of direct-approach operator state
    /// (the paper's "background process \[that\] periodically purges expired
    /// tuples"). Direct operators skip expired state by interval
    /// intersection, so this is pure reclamation and its cadence is a
    /// space/CPU trade-off, not a correctness knob. `None` (default)
    /// derives `max(slide, T/4)` from the plan's window; operators that
    /// *react* to expirations (the negative-tuple PATH) always purge at
    /// every slide boundary regardless.
    pub purge_period: Option<u64>,
    /// Executor delivery granularity (see [`DispatchMode`]).
    pub dispatch: DispatchMode,
    /// Ignored; removed when the benchmark literal is unfrozen (ROADMAP
    /// 3(a)). The dataflow runs one serial sweep per epoch and one serial
    /// purge walk, whatever this holds. Defaults to 1.
    pub workers: usize,
    /// Ignored; removed when the benchmark literal is unfrozen (ROADMAP
    /// 3(a)). The dataflow is never partitioned by label, whatever this
    /// holds. Defaults to 1.
    pub shards: usize,
    /// Observability collection level (see [`ObsLevel`]). `Off` (the
    /// default) keeps the serial hot path clock-free and skips every
    /// per-operator counter update; `Counters` adds clock-free counting;
    /// `Timing` adds wall-clock nanos per `on_batch`/`purge` call. None of
    /// the collected counters is part of [`ExecStats`], and collection never
    /// affects results — result logs are **bit-identical with
    /// observability on or off** (asserted by the obs-neutrality
    /// proptests). The default honours the `SGQ_OBS` environment variable
    /// (`off`/`counters`/`timing`), which is how CI runs the whole suite
    /// with observability on without touching test code.
    pub obs: ObsLevel,
    /// Shared-vs-dedicated planning policy for multi-query hosts (see
    /// [`SharingPolicy`]; ignored by the single-query engine). The default
    /// honours the `SGQ_SHARING` environment variable
    /// (`auto`/`share`/`dedicated`).
    pub sharing: SharingPolicy,
    /// Ignored; removed when the benchmark literal is unfrozen (ROADMAP
    /// 3(a)). No sketch is kept and nothing is rebalanced or replanned,
    /// whatever this holds. Defaults to `false`.
    pub adaptive: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            path_impl: PathImpl::Direct,
            pattern_impl: PatternImpl::HashTree,
            suppress_duplicates: true,
            materialize_paths: true,
            purge_period: None,
            dispatch: DispatchMode::Epoch,
            workers: 1,
            shards: 1,
            obs: default_obs(),
            sharing: SharingPolicy::from_env(),
            adaptive: false,
        }
    }
}

/// The default observability level: `SGQ_OBS` when set
/// (`off`/`counters`/`timing`, or `0`/`1`/`2`), else [`ObsLevel::Off`].
pub fn default_obs() -> ObsLevel {
    ObsLevel::from_env()
}

/// The streaming graph query engine: a [`MultiQueryEngine`] with exactly
/// one registration, whose plan runs verbatim in the plan's own label
/// namespace (so [`Engine::labels`] is the plan's interner and results
/// carry the plan's answer label). Results come back without query ids,
/// and the logs are never released, so [`Engine::results`] holds every
/// result since construction.
pub struct Engine {
    host: MultiQueryEngine,
    query: QueryId,
}

impl Engine {
    /// Builds the engine for the canonical plan of `query`.
    pub fn from_query(query: &SgqQuery) -> Engine {
        Self::from_query_with(query, EngineOptions::default())
    }

    /// Builds the engine for the canonical plan with custom options.
    pub fn from_query_with(query: &SgqQuery, opts: EngineOptions) -> Engine {
        Self::from_plan_with(&plan_canonical(query), opts)
    }

    /// Builds the engine for an explicit (possibly rewritten) plan.
    pub fn from_plan(plan: &Plan) -> Engine {
        Self::from_plan_with(plan, EngineOptions::default())
    }

    /// Builds the engine for an explicit plan with custom options. The
    /// engine ticks at the gcd of all its window slides: streams may be
    /// windowed individually (Figure 7), and every WSCAN's expiry points
    /// must be hit.
    pub fn from_plan_with(plan: &Plan, opts: EngineOptions) -> Engine {
        let (host, query) = MultiQueryEngine::for_plan(plan, opts);
        Engine { host, query }
    }

    /// The label namespace used by plans and results.
    pub fn labels(&self) -> &LabelInterner {
        self.host.labels()
    }

    /// The answer label carried by result sgts.
    pub fn answer_label(&self) -> Label {
        self.host
            .answer_label(self.query)
            .expect("the engine's query is never deregistered")
    }

    /// Processes one arriving sge, returning the newly emitted results
    /// (clones of what was appended to [`Engine::results`]).
    pub fn process(&mut self, sge: Sge) -> Vec<Sgt> {
        self.emitted(Engine::results, |host| host.ingest(sge))
    }

    /// Processes a batch of arriving sges as true **epochs** (the §7.3
    /// future-work "batching within SGA operators"): the batch is chunked
    /// at slide boundaries, and each chunk is delivered through the
    /// dataflow in one level-ordered sweep — every operator is invoked per
    /// accumulated input batch instead of per tuple, and fan-out shares
    /// batches by reference. Under duplicate suppression, value-equivalent
    /// sges falling in the same window period are additionally
    /// pre-coalesced at the ingestion boundary (later duplicates get
    /// identical WSCAN validity, Def. 16, so they can derive nothing new);
    /// with suppression off (explicit-deletion pipelines) every arrival is
    /// delivered so insert/delete emissions still cancel exactly.
    ///
    /// The batch must be timestamp-ordered (a stream segment, Def. 4).
    /// Results are equivalent to feeding the same sges one
    /// [`Engine::process`] call at a time: identical coalesced coverage,
    /// with the chunking of emissions the only difference.
    pub fn process_batch(&mut self, batch: &[Sge]) -> Vec<Sgt> {
        self.emitted(Engine::results, |host| host.ingest_batch(batch))
    }

    /// Processes one arriving sge carrying edge properties (the §8
    /// property-graph extension). Attribute predicates in the query's
    /// FILTER operators evaluate against `props`; plain [`Engine::process`]
    /// tuples carry none, so such predicates reject them.
    pub fn process_with_props(&mut self, sge: Sge, props: sgq_types::PropMap) -> Vec<Sgt> {
        self.emitted(Engine::results, |host| {
            host.process_with_props(sge, props);
        })
    }

    /// Explicitly deletes a previously inserted sge (§6.2.5), returning
    /// the negative result tuples it caused. The engine must have been
    /// built with `suppress_duplicates = false`; see
    /// [`MultiQueryEngine::delete`] for the exactness contract.
    pub fn delete(&mut self, sge: Sge) -> Vec<Sgt> {
        self.emitted(Engine::deleted_results, |host| {
            host.delete(sge);
        })
    }

    /// Explicitly deletes a previously inserted property-carrying sge.
    /// Pass the **same properties** as the insertion so the negative tuple
    /// passes the same attribute filters and cancels it exactly.
    pub fn delete_with_props(&mut self, sge: Sge, props: sgq_types::PropMap) -> Vec<Sgt> {
        self.emitted(Engine::deleted_results, |host| {
            host.delete_with_props(sge, props);
        })
    }

    /// Runs `ingest` on the host and returns clones of what it appended to
    /// `log` (the insert or the negative-tuple log).
    fn emitted(
        &mut self,
        log: fn(&Engine) -> &[Sgt],
        ingest: impl FnOnce(&mut MultiQueryEngine),
    ) -> Vec<Sgt> {
        let before = log(self).len();
        ingest(&mut self.host);
        log(self)[before..].to_vec()
    }

    /// Moves event time forward, purging state at every crossed slide
    /// boundary (the window-movement processing of §6.2).
    pub fn advance_time(&mut self, t: Timestamp) {
        self.host.advance_time(t);
    }

    /// Purges expired operator and sink state at `watermark` (see
    /// [`MultiQueryEngine::purge`]).
    pub fn purge(&mut self, watermark: Timestamp) {
        self.host.purge(watermark);
    }

    /// Forces physical reclamation of **all** operator state expired at
    /// `watermark`, ignoring the amortised cadence (diagnostics / memory
    /// pressure hooks).
    pub fn purge_all(&mut self, watermark: Timestamp) {
        self.host.purge_all(watermark);
    }

    /// Executor dispatch counters (epoch sizes, operator invocations,
    /// fan-out deliveries) accumulated over this engine's lifetime.
    pub fn exec_stats(&self) -> ExecStats {
        self.host.exec_stats()
    }

    /// All result sgts emitted so far (insertions, in order).
    pub fn results(&self) -> &[Sgt] {
        self.host.results(self.query)
    }

    /// All negative result tuples emitted so far.
    pub fn deleted_results(&self) -> &[Sgt] {
        self.host.deleted_results(self.query)
    }

    /// The distinct answer pairs valid at time `t`, per the emitted result
    /// stream (deletions subtracted). This is the left side of the
    /// snapshot-reducibility equation (Def. 14).
    pub fn answer_at(&self, t: Timestamp) -> FxHashSet<(VertexId, VertexId)> {
        self.host.answer_at(self.query, t)
    }

    /// The snapshot graph of the result stream at `t` (answers as a
    /// materialized path graph — closure of SGA, §5.3).
    pub fn snapshot_at(&self, t: Timestamp) -> SnapshotGraph {
        SnapshotGraph::at_time(t, self.results().iter())
    }

    /// Total operator state entries (for Δ-PATH / join-state metrics).
    pub fn state_size(&self) -> usize {
        self.host.state_size()
    }

    /// Operator names in the dataflow (diagnostics).
    pub fn operator_names(&self) -> Vec<String> {
        self.host.operator_names()
    }

    /// The observability collection level this engine runs at.
    pub fn obs_level(&self) -> ObsLevel {
        self.host.obs_level()
    }

    /// Installs a [`TraceSink`] receiving structured lifecycle events
    /// (epoch open/close, level dispatch, purges) from the executor. Installing a sink opts into epoch
    /// open/close wall-clock timing regardless of [`EngineOptions::obs`];
    /// per-operator nanos still require [`ObsLevel::Timing`]. Tracing
    /// never affects results.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.host.set_trace_sink(sink);
    }

    /// Renders the executor summary and the lowered plan tree annotated
    /// with live per-operator counters — invocations, deltas in/out,
    /// measured selectivity, retained state, and (at [`ObsLevel::Timing`])
    /// wall-clock nanos — plus the query's sink and histogram lines (see
    /// [`MultiQueryEngine::explain_analyze`]). Counter lines read zero
    /// below [`ObsLevel::Counters`]; structure and state are always live.
    pub fn explain_analyze(&self) -> String {
        self.host
            .explain_analyze(self.query)
            .expect("the engine's query is never deregistered")
    }

    /// A point-in-time [`MetricsSnapshot`] of the engine: executor
    /// counters plus one [`crate::obs::OperatorSnapshot`] per live
    /// operator (the per-query section is empty — that is the multi-query
    /// host's surface). Serialisable as JSONL/CSV for external consumers.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: Vec::new(),
            ..self.host.metrics_snapshot()
        }
    }

    /// Aggregated frontier traversal counters of the flow's PATH
    /// operators (nodes settled / improved, heap pushes, edges scanned).
    /// Always-on deterministic counters — available at every obs level.
    pub fn frontier_totals(&self) -> FrontierStats {
        self.host.frontier_totals()
    }

    /// Drives the engine over an entire ordered stream, collecting the
    /// paper's metrics: aggregate throughput and per-slide latencies.
    pub fn run<'a, I: IntoIterator<Item = &'a Sge>>(&mut self, stream: I) -> RunStats {
        let mut stats = RunStats::default();
        let started = Instant::now();
        let mut slide_started = Instant::now();
        for &sge in stream {
            let boundary_before = self.host.next_boundary();
            self.host.ingest(sge);
            stats.edges += 1;
            // The first tuple of a fresh engine only places the boundary
            // grid (`None → Some`): nothing was crossed, so no sample.
            if boundary_before.is_some() && self.host.next_boundary() != boundary_before {
                // One or more slide boundaries were crossed by this tuple.
                stats.slide_latencies.push(slide_started.elapsed());
                slide_started = Instant::now();
                stats.peak_state = stats.peak_state.max(self.state_size());
            }
        }
        let tail = slide_started.elapsed();
        if tail > Duration::ZERO {
            stats.slide_latencies.push(tail);
        }
        self.finish(stats, started)
    }

    /// Drives the engine over an ordered stream in epochs of `epoch_ticks`
    /// event-time ticks, feeding each epoch through [`Engine::process_batch`]
    /// (§7.3's batched-ingestion trade-off: per-epoch latency, deduplicated
    /// throughput). Latencies are recorded per epoch.
    pub fn run_batched<'a, I: IntoIterator<Item = &'a Sge>>(
        &mut self,
        stream: I,
        epoch_ticks: u64,
    ) -> RunStats {
        let epoch_ticks = epoch_ticks.max(1);
        let mut stats = RunStats::default();
        let started = Instant::now();
        let mut batch: Vec<Sge> = Vec::new();
        let mut epoch: Option<u64> = None;
        let flush = |engine: &mut Self, batch: &mut Vec<Sge>, stats: &mut RunStats| {
            if batch.is_empty() {
                return;
            }
            let batch_started = Instant::now();
            engine.host.ingest_batch(batch);
            stats.slide_latencies.push(batch_started.elapsed());
            stats.edges += batch.len() as u64;
            stats.peak_state = stats.peak_state.max(engine.state_size());
            batch.clear();
        };
        for &sge in stream {
            let e = sge.t / epoch_ticks;
            if epoch.is_some_and(|cur| e != cur) {
                flush(self, &mut batch, &mut stats);
            }
            epoch = Some(e);
            batch.push(sge);
        }
        flush(self, &mut batch, &mut stats);
        self.finish(stats, started)
    }

    /// Completes a run's stats with its wall time, result counts and the
    /// final state size.
    fn finish(&self, mut stats: RunStats, started: Instant) -> RunStats {
        stats.elapsed = started.elapsed();
        stats.results = self.results().len() as u64;
        stats.deletions = self.deleted_results().len() as u64;
        stats.peak_state = stats.peak_state.max(self.state_size());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_query::{parse_program, WindowSpec};
    use sgq_types::Interval;

    fn engine(text: &str, window: u64) -> Engine {
        let p = parse_program(text).unwrap();
        Engine::from_query(&SgqQuery::new(p, WindowSpec::sliding(window)))
    }

    fn sge(e: &Engine, s: u64, t: u64, l: &str, ts: u64) -> Sge {
        Sge::raw(s, t, e.labels().get(l).unwrap(), ts)
    }

    #[test]
    fn two_hop_join_end_to_end() {
        let mut e = engine("Ans(x, y) <- a(x, z), b(z, y).", 10);
        let s1 = sge(&e, 1, 2, "a", 0);
        let s2 = sge(&e, 2, 3, "b", 3);
        assert!(e.process(s1).is_empty());
        let out = e.process(s2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, VertexId(1));
        assert_eq!(out[0].trg, VertexId(3));
        assert_eq!(out[0].interval, Interval::new(3, 10));
    }

    #[test]
    fn window_expiry_prevents_join() {
        let mut e = engine("Ans(x, y) <- a(x, z), b(z, y).", 5);
        let s1 = sge(&e, 1, 2, "a", 0); // valid [0,5)
        let s2 = sge(&e, 2, 3, "b", 7); // valid [7,12)
        e.process(s1);
        assert!(e.process(s2).is_empty());
    }

    #[test]
    fn path_query_end_to_end() {
        let mut e = engine("Ans(x, y) <- a+(x, y).", 20);
        let edges = [(1u64, 2u64, 0u64), (2, 3, 1), (3, 4, 2)];
        let mut all = Vec::new();
        for (s, t, ts) in edges {
            let g = sge(&e, s, t, "a", ts);
            all.extend(e.process(g));
        }
        let pairs: Vec<(u64, u64)> = all.iter().map(|s| (s.src.0, s.trg.0)).collect();
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(1, 3)));
        assert!(pairs.contains(&(1, 4)));
        assert!(pairs.contains(&(2, 4)));
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn answer_at_matches_oracle() {
        // Snapshot reducibility on a small composite query.
        let text = "RL(x, y)  <- l(x, m), f+(x, y), p(y, m).
                    Ans(u, m) <- RL+(u, v), p(v, m).";
        let mut e = engine(text, 24);
        let program = parse_program(text).unwrap();
        // Figure 2 input stream: u=0, v=1, b=2, y=3, c=4, a=5.
        let stream = [
            (0u64, 1u64, "f", 7u64),
            (1, 2, "p", 10),
            (3, 0, "f", 13),
            (1, 4, "p", 17),
            (0, 5, "p", 22),
            (3, 5, "l", 28),
            (0, 2, "l", 29),
            (0, 4, "l", 30),
        ];
        let mut tuples = Vec::new();
        for (s, t, l, ts) in stream {
            let g = sge(&e, s, t, l, ts);
            e.process(g);
            tuples.push(Sgt::edge(
                VertexId(s),
                VertexId(t),
                e.labels().get(l).unwrap(),
                Interval::new(ts, ts + 24),
            ));
        }
        for t in [25, 28, 29, 30, 31, 33, 36, 40] {
            let snap = SnapshotGraph::at_time(t, &tuples);
            let expect = sgq_query::oracle::evaluate_answer(&program, &snap);
            assert_eq!(e.answer_at(t), expect, "mismatch at t={t}");
        }
    }

    #[test]
    fn shared_subplans_are_deduplicated() {
        // posts is scanned twice in Example 8 but lowered to one WSCAN.
        let e = engine(
            "RL(x, y)  <- l(x, m), f+(x, y), p(y, m).
             Ans(u, m) <- RL+(u, v), p(v, m).",
            24,
        );
        let names = e.operator_names();
        let wscans = names.iter().filter(|n| n.starts_with("WSCAN")).count();
        assert_eq!(wscans, 3, "{names:?}"); // l, f, p — p shared
    }

    #[test]
    fn negative_tuple_path_impl_selectable() {
        let p = parse_program("Ans(x, y) <- a+(x, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::sliding(10));
        let e = Engine::from_query_with(
            &q,
            EngineOptions {
                path_impl: PathImpl::NegativeTuple,
                ..Default::default()
            },
        );
        assert!(e.operator_names().iter().any(|n| n.starts_with("PATH-NT")));
    }

    #[test]
    fn wcoj_pattern_impl_selectable_and_agrees() {
        let text = "Ans(x, y) <- a(x, m), b(y, m), c(x, y).";
        let p = parse_program(text).unwrap();
        let q = SgqQuery::new(p, WindowSpec::sliding(20));
        let mut tree = Engine::from_query(&q);
        let mut wcoj = Engine::from_query_with(
            &q,
            EngineOptions {
                pattern_impl: PatternImpl::Wcoj,
                ..Default::default()
            },
        );
        assert!(wcoj
            .operator_names()
            .iter()
            .any(|n| n.starts_with("PATTERN-WCOJ")));
        let a = tree.labels().get("a").unwrap();
        let b = tree.labels().get("b").unwrap();
        let c = tree.labels().get("c").unwrap();
        let stream = [
            Sge::raw(1, 9, a, 0),
            Sge::raw(2, 9, b, 1),
            Sge::raw(1, 2, c, 2),
            Sge::raw(3, 9, b, 3),
            Sge::raw(1, 3, c, 4),
        ];
        for s in stream {
            tree.process(s);
            wcoj.process(s);
        }
        for t in [2, 4, 10, 25] {
            assert_eq!(tree.answer_at(t), wcoj.answer_at(t), "t={t}");
        }
    }

    #[test]
    fn per_stream_windows_expire_independently() {
        // Figure 7's shape: a short-window stream joined with a
        // long-window stream. The short-window edge expires first.
        let program = parse_program("Ans(x, y) <- social(x, m), tx(m, y).").unwrap();
        let q = SgqQuery::new(program, WindowSpec::sliding(100))
            .with_label_window("social", WindowSpec::sliding(10));
        let mut e = Engine::from_query(&q);
        let social = e.labels().get("social").unwrap();
        let tx = e.labels().get("tx").unwrap();
        e.process(Sge::raw(1, 2, social, 0)); // valid [0, 10)
        let out = e.process(Sge::raw(2, 3, tx, 5)); // valid [5, 105)
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].interval, Interval::new(5, 10), "capped by social");
        // After the social window passes, a fresh tx edge cannot join.
        let out = e.process(Sge::raw(2, 9, tx, 20));
        assert!(out.is_empty());
        // But a fresh social edge joins the long-lived tx edges.
        let out = e.process(Sge::raw(1, 2, social, 30));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn mixed_slides_tick_at_gcd() {
        let program = parse_program("Ans(x, y) <- a(x, m), b(m, y).").unwrap();
        let q = SgqQuery::new(program, WindowSpec::new(100, 6))
            .with_label_window("b", WindowSpec::new(40, 4));
        let e = Engine::from_query(&q);
        let names = e.operator_names();
        assert!(names.iter().any(|n| n == "WSCAN[T=100,β=6]"), "{names:?}");
        assert!(names.iter().any(|n| n == "WSCAN[T=40,β=4]"), "{names:?}");
    }

    #[test]
    fn batched_ingestion_matches_tuple_at_a_time() {
        // Same answers at every instant, with within-period duplicates
        // deduplicated at the ingestion boundary.
        let text = "Ans(x, y) <- a(x, z), b(z, y).";
        let p = parse_program(text).unwrap();
        let q = SgqQuery::new(p, WindowSpec::new(20, 4));
        let mut eager = Engine::from_query(&q);
        let mut batched = Engine::from_query(&q);
        let a = eager.labels().get("a").unwrap();
        let b = eager.labels().get("b").unwrap();
        let stream: Vec<Sge> = (0..60u64)
            .map(|i| {
                let l = if i % 2 == 0 { a } else { b };
                Sge::raw(i % 4, (i + 1) % 4, l, i / 3) // heavy duplication
            })
            .collect();
        for &s in &stream {
            eager.process(s);
        }
        let stats = batched.run_batched(&stream, 4);
        assert_eq!(stats.edges, 60);
        for t in 0..25u64 {
            assert_eq!(eager.answer_at(t), batched.answer_at(t), "t={t}");
        }
    }

    #[test]
    fn process_batch_dedups_within_period() {
        let p = parse_program("Ans(x, y) <- a(x, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::new(10, 5));
        let mut e = Engine::from_query(&q);
        let a = e.labels().get("a").unwrap();
        // Three duplicates in one slide period, one in the next.
        let out = e.process_batch(&[
            Sge::raw(1, 2, a, 0),
            Sge::raw(1, 2, a, 1),
            Sge::raw(1, 2, a, 4),
            Sge::raw(1, 2, a, 6),
        ]);
        // Period 0 collapses to a single emission; period 1 re-derives
        // (longer validity), which the sink coalesces into one extension.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].interval, Interval::new(0, 10));
        assert_eq!(out[1].interval, Interval::new(0, 15));
    }

    #[test]
    fn purge_is_amortized_for_direct_operators() {
        // Direct-approach state survives slide boundaries between physical
        // purges (results unaffected — expired state is skipped by interval
        // intersection) and is reclaimed by purge_all / the periodic purge.
        let p = parse_program("Ans(x, y) <- a(x, z), b(z, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::new(100, 1));
        let mut e = Engine::from_query(&q); // auto period = 100/4 = 25
        let a = e.labels().get("a").unwrap();
        e.process(Sge::raw(1, 2, a, 0));
        assert!(e.state_size() > 0);
        // Crossing a few slide boundaries does not reclaim direct state...
        e.advance_time(110);
        // (first boundary always purges; step past it and re-add state)
        e.process(Sge::raw(3, 4, a, 111));
        e.advance_time(115);
        assert!(e.state_size() > 0, "amortised: not yet due");
        // ...but a forced purge (or the periodic one) does.
        e.advance_time(240);
        e.purge_all(240);
        assert_eq!(e.state_size(), 0);
    }

    #[test]
    fn run_collects_metrics() {
        let p = parse_program("Ans(x, y) <- a(x, z), a(z, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::new(10, 2));
        let mut e = Engine::from_query(&q);
        let a = e.labels().get("a").unwrap();
        let stream: Vec<Sge> = (0..40u64)
            .map(|i| Sge::raw(i % 7, (i + 1) % 7, a, i))
            .collect();
        let stats = e.run(&stream);
        assert_eq!(stats.edges, 40);
        assert!(stats.results > 0);
        // Ticks 0..40 at slide 2 cross the boundaries 2, 4, …, 38: 19
        // samples plus the tail. The first tuple only places the grid.
        assert_eq!(stats.slide_latencies.len(), 20);
        assert!(stats.throughput() > 0.0);

        // `run_batched` samples per flushed epoch, not per boundary.
        let mut e = Engine::from_query(&q);
        let stats = e.run_batched(&stream, 4);
        assert_eq!(stats.edges, 40);
        assert_eq!(stats.slide_latencies.len(), 10);
    }

    #[test]
    fn explicit_deletion_pipeline() {
        let p = parse_program("Ans(x, y) <- a(x, z), b(z, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::sliding(100));
        let mut e = Engine::from_query_with(
            &q,
            EngineOptions {
                suppress_duplicates: false,
                ..Default::default()
            },
        );
        let a = e.labels().get("a").unwrap();
        let b = e.labels().get("b").unwrap();
        e.process(Sge::raw(1, 2, a, 0));
        e.process(Sge::raw(2, 3, b, 1));
        assert_eq!(e.answer_at(5).len(), 1);
        e.delete(Sge::raw(1, 2, a, 0));
        assert!(e.answer_at(5).is_empty());
    }

    #[test]
    fn property_filter_end_to_end() {
        use sgq_types::PropMap;
        let mut e = engine("Ans(x, y) <- likes(x, m)[weight >= 5], posts(y, m).", 20);
        let l = e.labels().get("likes").unwrap();
        let p = e.labels().get("posts").unwrap();
        e.process(Sge::raw(10, 1, p, 0));
        // Below-threshold like: filtered at the WSCAN boundary.
        let out = e.process_with_props(
            Sge::raw(2, 1, l, 1),
            PropMap::from_pairs([("weight", 3i64)]),
        );
        assert!(out.is_empty());
        // Qualifying like joins.
        let out = e.process_with_props(
            Sge::raw(3, 1, l, 2),
            PropMap::from_pairs([("weight", 7i64)]),
        );
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].src.0, out[0].trg.0), (3, 10));
        // A prop-less like carries no properties: predicate is false.
        assert!(e.process(Sge::raw(4, 1, l, 3)).is_empty());
    }

    #[test]
    fn property_deletion_is_symmetric() {
        use sgq_types::PropMap;
        let p = parse_program("Ans(x, y) <- a(x, m)[w > 0], b(m, y).").unwrap();
        let q = SgqQuery::new(p, WindowSpec::sliding(100));
        let mut e = Engine::from_query_with(
            &q,
            EngineOptions {
                suppress_duplicates: false,
                ..Default::default()
            },
        );
        let a = e.labels().get("a").unwrap();
        let b = e.labels().get("b").unwrap();
        let props = || PropMap::from_pairs([("w", 1i64)]);
        e.process_with_props(Sge::raw(1, 2, a, 0), props());
        e.process(Sge::raw(2, 3, b, 1));
        assert_eq!(e.answer_at(5).len(), 1);
        e.delete_with_props(Sge::raw(1, 2, a, 0), props());
        assert!(e.answer_at(5).is_empty());
    }

    #[test]
    fn unreferenced_labels_are_discarded() {
        let mut e = engine("Ans(x, y) <- a(x, y).", 10);
        let mut labels = e.labels().clone();
        let junk = labels.intern("junk");
        let out = e.process(Sge::raw(1, 2, junk, 0));
        assert!(out.is_empty());
    }
}
