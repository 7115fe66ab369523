//! Query registration bookkeeping: identities, per-root shared sinks and
//! node refcounts.
//!
//! Result delivery is **route-once**: each subscribed root's emission
//! batch is sunk exactly once into that root's [`RootSink`] — one dedup
//! pass, one log append — no matter how many queries subscribe. Per-query
//! projection (answer-label tagging) happens lazily: at `drain` time
//! through each registration's cursor, or in the `process`-style collect
//! pass over the freshly appended log suffix. The old per-subscriber
//! sinking was the dominant fleet-scaling tax.
//!
//! Each root sink owns its duplicate-suppression coverage, so a sink's
//! state lives and dies with its last subscription; nothing is shared
//! between sinks that would outlive one.

use super::sink::{sink_batch, sink_result, ResultRow, RootSink, SinkCensus, SinkScratch};
use crate::algebra::SgaExpr;
use crate::engine::EngineOptions;
use crate::obs::LogHistogram;
use crate::physical::{Delta, DeltaBatch};
use sgq_types::{FxHashMap, FxHashSet, Interval, Label, Sgt, SharedProps, Timestamp};
use std::time::Instant;

/// Identity of a registered persistent query (stable for the lifetime of
/// the host, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One registered query: its slice of the shared dataflow plus its view
/// cursors into the root's shared sink.
pub(crate) struct Registration {
    /// Root node in the shared dataflow.
    pub root: usize,
    /// Every node implementing this query (shared nodes included).
    pub nodes: FxHashSet<usize>,
    /// The canonicalized plan expression (kept for diagnostics and
    /// deregistration bookkeeping).
    pub expr: SgaExpr,
    /// Result tag: sgts handed to this query (`process` pairs, `drain`)
    /// are re-labelled to its answer predicate in the shared namespace.
    pub answer: Label,
    /// This query's tick granularity (gcd of its window slides).
    pub slide: u64,
    /// This query's direct-approach reclamation cadence.
    pub purge_period: u64,
    /// Largest window size among this query's WSCANs (drives the host's
    /// input-retention horizon for register-time catch-up).
    pub max_window: u64,
    /// Where this query's view of the root sink's insert log starts
    /// (0 for founders and suppressed twins, which see full history;
    /// join-time length for unsuppressed late joins, which start cold).
    pub base: usize,
    /// Like `base`, for the deleted-results log.
    pub base_del: usize,
    /// Drain cursor: absolute index into the root sink's insert log.
    pub drained: usize,
    /// Like `drained`, for the deleted-results log (advanced only by
    /// [`Registry::for_each_undelivered`]; `drain` covers inserts only).
    pub drained_del: usize,
    /// Per-epoch attributed-cost histogram (nanos): each epoch's operator
    /// nanos, shared-operator cost split by fan-out share. Populated only
    /// at `ObsLevel::Timing`; never part of the determinism contract.
    pub latency_hist: LogHistogram,
    /// Per-epoch emission-count histogram (results + deletions accepted
    /// per epoch this query emitted in). Populated at `ObsLevel::Counters`
    /// and above.
    pub emission_hist: LogHistogram,
    /// Absolute insert-log length at the last observability sample.
    pub obs_results: usize,
    /// Absolute deleted-log length at the last observability sample.
    pub obs_deleted: usize,
}

/// Runtime registry of persistent queries sharing one dataflow.
#[derive(Default)]
pub(crate) struct Registry {
    entries: FxHashMap<u64, Registration>,
    /// Root node → that root's shared sink, indexed **densely** by node
    /// id: the routing probe runs once per emission batch of every node,
    /// so it must be an array load, not a hash lookup.
    sinks: Vec<Option<RootSink>>,
    /// Node → number of registrations whose plan uses it.
    refcount: FxHashMap<usize, u32>,
    /// Reusable grouping buffer for epoch-level sink coalescing.
    scratch: SinkScratch,
    /// Result-routing nanos (collect/drain projection passes). Timing obs
    /// only; never part of the determinism contract.
    route_nanos: u64,
    /// Sink-dedup nanos (the per-root `sink_batch` passes). Timing only.
    dedup_nanos: u64,
    next: u64,
}

impl Registry {
    /// Inserts a registration, creating or joining its root's shared
    /// sink (`suppress`: a new sink suppresses duplicates). Under
    /// duplicate suppression every subscriber sees the root's full history
    /// (`base = 0`); without it a late join starts cold at the current log
    /// lengths.
    pub fn insert(&mut self, mut reg: Registration, suppress: bool) -> QueryId {
        let id = self.next;
        self.next += 1;
        let root = reg.root;
        if self.sinks.len() <= root {
            self.sinks.resize_with(root + 1, || None);
        }
        match &mut self.sinks[root] {
            Some(sink) => {
                sink.subscribers.push((id, reg.answer));
                reg.base = sink.results.end();
                reg.base_del = sink.deleted.end();
            }
            slot @ None => {
                *slot = Some(RootSink::new((id, reg.answer), suppress));
            }
        }
        reg.drained = reg.base;
        reg.drained_del = reg.base_del;
        for &n in &reg.nodes {
            *self.refcount.entry(n).or_insert(0) += 1;
        }
        self.entries.insert(id, reg);
        QueryId(id)
    }

    /// Rewinds a suppressed registration's cursors to the start of its
    /// root's retained log (catch-up: the shared history *is* this
    /// query's history, so it appears in the first drain). On a host that
    /// never releases that is everything since the root was created;
    /// after a release it is the live tail — every result still valid at
    /// the release watermark is in it.
    pub fn grant_full_history(&mut self, id: QueryId) {
        let Registry { entries, sinks, .. } = self;
        let Some(reg) = entries.get_mut(&id.0) else {
            return;
        };
        let Some(sink) = sinks.get(reg.root).and_then(|s| s.as_ref()) else {
            return;
        };
        reg.base = sink.results.head();
        reg.base_del = sink.deleted.head();
        reg.drained = reg.base;
        reg.drained_del = reg.base_del;
    }

    /// Removes a registration; returns it together with the nodes no
    /// remaining registration references (to be retired by the host).
    /// Destroying a root's last subscription drops its sink, coverage
    /// and logs with it.
    pub fn remove(&mut self, id: QueryId) -> Option<(Registration, FxHashSet<usize>)> {
        let reg = self.entries.remove(&id.0)?;
        if let Some(Some(sink)) = self.sinks.get_mut(reg.root) {
            sink.subscribers.retain(|&(q, _)| q != id.0);
            if sink.subscribers.is_empty() {
                self.sinks[reg.root] = None;
            }
        }
        let mut dead = FxHashSet::default();
        for &n in &reg.nodes {
            let rc = self.refcount.get_mut(&n).expect("refcounted node");
            *rc -= 1;
            if *rc == 0 {
                self.refcount.remove(&n);
                dead.insert(n);
            }
        }
        Some((reg, dead))
    }

    pub fn get(&self, id: QueryId) -> Option<&Registration> {
        self.entries.get(&id.0)
    }

    pub fn get_mut(&mut self, id: QueryId) -> Option<&mut Registration> {
        self.entries.get_mut(&id.0)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Registered ids, ascending (registration order).
    pub fn ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(QueryId).collect()
    }

    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &Registration)> {
        self.entries.iter().map(|(&id, r)| (QueryId(id), r))
    }

    /// `id`'s view of its root sink's logs: the retained `(inserts,
    /// deletes)` from its join point on, the negative tuples tagged with
    /// the root's canonical output label.
    pub fn log(&self, id: QueryId) -> Option<(&[ResultRow], &[Sgt])> {
        let (reg, sink) = self.view(id)?;
        Some((sink.results.from(reg.base), sink.deleted.from(reg.base_del)))
    }

    /// `id`'s registration and its root sink.
    fn view(&self, id: QueryId) -> Option<(&Registration, &RootSink)> {
        let reg = self.entries.get(&id.0)?;
        Some((reg, self.sinks.get(reg.root)?.as_ref()?))
    }

    /// `id`'s retained result inserts from absolute position `from` (or
    /// its join point, if later) on, built as sgts tagged with the root's
    /// canonical output label.
    pub fn results_from(&self, id: QueryId, from: usize) -> Vec<Sgt> {
        self.view(id).map_or_else(Vec::new, |(reg, sink)| {
            sink.results.sgts_from(from.max(reg.base)).collect()
        })
    }

    /// Absolute log lengths of `id`'s root sink.
    pub fn log_lens(&self, id: QueryId) -> Option<(usize, usize)> {
        let (_, sink) = self.view(id)?;
        Some((sink.results.end(), sink.deleted.end()))
    }

    /// `id`'s emission accounting: what it emitted since its join point
    /// and how much of that its root's logs still hold.
    pub fn log_counts(&self, id: QueryId) -> Option<LogCounts> {
        let (reg, sink) = self.view(id)?;
        let (results, deleted) = (&sink.results, &sink.deleted);
        Some(LogCounts {
            results: results.end() - reg.base,
            deleted: deleted.end() - reg.base_del,
            retained: results.from(reg.base).len() + deleted.from(reg.base_del).len(),
        })
    }

    /// `id`'s registration, mutably, and its root sink.
    fn sink_of(&mut self, id: QueryId) -> Option<(&mut Registration, &RootSink)> {
        let reg = self.entries.get_mut(&id.0)?;
        let sink = self.sinks.get(reg.root)?.as_ref()?;
        Some((reg, sink))
    }

    /// How many results and negative tuples `id` has not been handed yet.
    pub fn undelivered(&self, id: QueryId) -> usize {
        self.view(id).map_or(0, |(reg, sink)| {
            sink.results.from(reg.drained).len() + sink.deleted.from(reg.drained_del).len()
        })
    }

    /// Drains `id`'s undelivered results (since the previous drain),
    /// built as sgts re-labelled to its answer tag. The projection cost
    /// is charged to the routing phase under timing observability.
    pub fn drain(&mut self, id: QueryId, timed: bool) -> Vec<Sgt> {
        let t0 = timed.then(Instant::now);
        let Some((reg, sink)) = self.sink_of(id) else {
            return Vec::new();
        };
        let out = sink
            .results
            .sgts_from(reg.drained)
            .map(|mut s| {
                s.label = reg.answer;
                s
            })
            .collect();
        reg.drained = sink.results.end();
        if let Some(t0) = t0 {
            self.route_nanos += t0.elapsed().as_nanos() as u64;
        }
        out
    }

    /// The borrowing drain: visits `id`'s undelivered inserts
    /// (`is_delete = false`), then its undelivered negative tuples
    /// (`true`), each in emission order, as rows, advancing both cursors.
    /// Nothing is cloned or built.
    pub fn for_each_undelivered(
        &mut self,
        id: QueryId,
        timed: bool,
        mut visit: impl FnMut(bool, &ResultRow),
    ) {
        let t0 = timed.then(Instant::now);
        if let Some((reg, sink)) = self.sink_of(id) {
            for r in sink.results.from(reg.drained) {
                visit(false, r);
            }
            for s in sink.deleted.from(reg.drained_del) {
                visit(true, &ResultRow::of(s));
            }
            reg.drained = sink.results.end();
            reg.drained_del = sink.deleted.end();
        }
        if let Some(t0) = t0 {
            self.route_nanos += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Releases, per root sink, the log prefix that every subscriber has
    /// been handed (drain cursors) **and** that is expired at `now`
    /// (`exp <= now`: it contributes to no `answer_at(t >= now)`, and a
    /// twin registering later could only ever see it as dead history).
    /// A suppressing sink's insert log keeps, besides, the rows its
    /// coverage still reads (see [`RootSink::release`]). Returns
    /// the number of entries released.
    pub fn release_delivered(&mut self, now: Timestamp) -> usize {
        let Registry { entries, sinks, .. } = self;
        let mut released = 0;
        for sink in sinks.iter_mut().flatten() {
            // A live sink has at least one subscriber; the slowest one
            // bounds what may go.
            let slowest = |cursor: fn(&Registration) -> usize| {
                let cursors = sink.subscribers.iter().map(|(q, _)| cursor(&entries[q]));
                cursors.min().unwrap_or(0)
            };
            released += sink.release(slowest(|r| r.drained), slowest(|r| r.drained_del), now);
        }
        released
    }

    /// Routes an emission batch of `node` into its root sink **once**:
    /// one dedup pass (the root's coverage, through [`sink_batch`]), one
    /// log append, regardless of subscriber count.
    ///
    /// The sink probe happens once per **batch**, not per delta — with the
    /// epoch-batched executor, non-subscribed (internal) nodes cost one
    /// array load per epoch. When `collect` is given, the freshly accepted
    /// suffix is projected per subscriber as `(QueryId, Sgt)` pairs with
    /// answer-label tagging (for `process`-style return values); the
    /// drain-only ingestion path passes `None` and skips projection
    /// entirely.
    pub fn route_batch(
        &mut self,
        node: usize,
        batch: &DeltaBatch,
        opts: &EngineOptions,
        mut collect: Option<(&mut Emissions, &mut Emissions)>,
    ) {
        let Some(Some(sink)) = self.sinks.get_mut(node) else {
            return;
        };
        let timed = opts.obs.timing();
        let t0 = timed.then(Instant::now);
        let (before_ins, before_del) = (sink.results.end(), sink.deleted.end());
        sink_batch(sink, batch, &mut self.scratch);
        let t1 = timed.then(Instant::now);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            self.dedup_nanos += t1.duration_since(t0).as_nanos() as u64;
        }
        if let Some((inserts, deletes)) = collect.as_mut() {
            for &(q, answer) in &sink.subscribers {
                for mut s in sink.results.sgts_from(before_ins) {
                    s.label = answer;
                    inserts.push((QueryId(q), s));
                }
                for s in sink.deleted.from(before_del) {
                    let mut s = s.clone();
                    s.label = answer;
                    deletes.push((QueryId(q), s));
                }
            }
        }
        if let Some(t1) = t1 {
            self.route_nanos += t1.elapsed().as_nanos() as u64;
        }
    }

    /// Sinks an emission into one query's root sink (register-time
    /// catch-up replay).
    pub fn sink_to(&mut self, id: QueryId, delta: &Delta) {
        let Some(reg) = self.entries.get(&id.0) else {
            return;
        };
        let Some(Some(sink)) = self.sinks.get_mut(reg.root) else {
            return;
        };
        sink_result(sink, delta);
    }

    /// How many registrations use node `n`.
    pub fn refcount(&self, n: usize) -> u32 {
        self.refcount.get(&n).copied().unwrap_or(0)
    }

    /// Whether a query other than `id` subscribes to `node` (a "twin":
    /// its plan shares this exact root, so the root sink already holds
    /// the full emission history).
    pub fn has_twin(&self, node: usize, id: QueryId) -> bool {
        self.sinks
            .get(node)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.subscribers.iter().any(|&(q, _)| q != id.0))
    }

    /// Accumulated `(routing, dedup)` phase nanos (timing obs only).
    pub fn phase_nanos(&self) -> (u64, u64) {
        (self.route_nanos, self.dedup_nanos)
    }

    /// Purges expired sink-dedup coverage at physical-purge boundaries.
    pub fn purge_sink_dedup(&mut self, watermark: Timestamp) {
        for sink in self.sinks.iter_mut().flatten() {
            sink.purge(watermark);
        }
    }

    /// What every live root sink holds at `now`, by root node id,
    /// ascending.
    pub fn sink_censuses(&self, now: Timestamp) -> Vec<(usize, SinkCensus)> {
        self.sinks
            .iter()
            .enumerate()
            .filter_map(|(root, s)| Some((root, s.as_ref()?.census(now))))
            .collect()
    }

    /// What `id`'s root sink holds at `now`.
    pub fn sink_census(&self, id: QueryId, now: Timestamp) -> Option<SinkCensus> {
        Some(self.view(id)?.1.census(now))
    }

    /// Samples one epoch's observability for every registration: emission
    /// counts since the last sample feed each query's emission histogram,
    /// and (when `timed`) the epoch's per-node `(node, nanos)` samples in
    /// `profile` are attributed to subscriber queries — a node shared by
    /// `k` registrations charges each `nanos / k` (integer fan-out share;
    /// the histogram's log2 buckets make the rounding loss irrelevant) —
    /// and feed each query's latency histogram.
    pub fn record_epoch_obs(&mut self, profile: &[(usize, u64)], timed: bool) {
        let Registry {
            entries,
            refcount,
            sinks,
            ..
        } = self;
        for reg in entries.values_mut() {
            let Some(sink) = sinks.get(reg.root).and_then(|s| s.as_ref()) else {
                continue;
            };
            let (end, end_del) = (sink.results.end(), sink.deleted.end());
            let emitted = (end - reg.obs_results) + (end_del - reg.obs_deleted);
            reg.obs_results = end;
            reg.obs_deleted = end_del;
            if emitted > 0 {
                reg.emission_hist.record(emitted as u64);
            }
            if !timed {
                continue;
            }
            let mut nanos = 0u64;
            for &(n, ns) in profile {
                if reg.nodes.contains(&n) {
                    let share = refcount.get(&n).copied().unwrap_or(1).max(1) as u64;
                    nanos += ns / share;
                }
            }
            if nanos > 0 {
                reg.latency_hist.record(nanos);
            }
        }
    }
}

/// One query's emission accounting (see [`Registry::log_counts`]).
pub(crate) struct LogCounts {
    /// Result inserts emitted since the query's join point.
    pub results: usize,
    /// Negative result tuples emitted since the query's join point.
    pub deleted: usize,
    /// How many of those (both logs) the root sink still holds.
    pub retained: usize,
}

impl LogCounts {
    /// Emissions already freed from the logs.
    pub fn released(&self) -> usize {
        self.results + self.deleted - self.retained
    }
}

/// Per-query emission buffer: `(query, result)` pairs, as returned by
/// `MultiQueryEngine::process`-family methods.
pub(crate) type Emissions = Vec<(QueryId, Sgt)>;

/// The instant-interval sgt of a raw input sge, carrying its properties
/// if it has any: what the WSCANs consume.
pub(crate) fn input_sgt(sge: sgq_types::Sge, props: Option<SharedProps>) -> Sgt {
    let s = Sgt::edge(sge.src, sge.trg, sge.label, Interval::instant(sge.t));
    match props {
        Some(props) => s.with_props(props),
        None => s,
    }
}
