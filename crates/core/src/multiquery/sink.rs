//! Per-root shared result sinks.
//!
//! The route-once emission design keeps **one** sink per shared dataflow
//! root: every query subscribed to that root reads the same emission log
//! (a slice view from its join point), and per-query projection — window
//! clip via `answer_at`, answer-label tagging — happens lazily at
//! `drain`/`process`-collect time. The old design sank every root batch
//! once *per subscriber*, which is exactly the per-query tax that made
//! shared-fleet throughput collapse as fleets grew.
//!
//! The insert log keeps what a RESULT frame carries and no more: one
//! 32-byte [`ResultRow`] `(src, trg, [ts, exp))` per accepted result — the
//! answer pair and its validity interval, which is how the RPQ literature
//! defines the output of a persistent query — plus the root's single
//! output label. What else an sgt can carry lives in sparse side columns:
//! a payload other than the row's own derived edge (a materialized path,
//! only under `materialize_paths`) and input-edge properties (only on a
//! WSCAN or FILTER root fed through `process_with_props`). So every
//! accepted sgt still round-trips exactly, and library callers
//! (`drain`, `process*`, `results`) get [`Sgt`]s built on the way out.
//! The negative-tuple log stays a log of sgts: negative tuples exist only
//! in deletion pipelines.
//!
//! Duplicate suppression is the classic per-root `(src, trg) →
//! IntervalSet` map ([`PairCoverage`]), private to the sink. Window
//! variants of one plan have distinct roots and so distinct maps.
//!
//! A sink holds what is live: the pair map drops a pair once its coverage
//! expires and gives its table back once it is four times larger than its
//! live pairs, and each log physically drops its released prefix once
//! that prefix reaches a quarter of the live entries, giving back capacity
//! the live entries no longer need.

use crate::engine::EngineOptions;
use crate::physical::{table_bytes, Delta, DeltaBatch};
use sgq_types::{
    Edge, FxHashMap, FxHashSet, Interval, IntervalSet, Label, Payload, Sgt, SharedProps, Timestamp,
    VertexId,
};

/// A sink's duplicate-suppression state: each answer pair's coverage, so
/// that only what extends it is emitted (§6.2).
pub(crate) type PairCoverage = FxHashMap<(VertexId, VertexId), IntervalSet>;

/// One accepted result as a subscriber receives it: the answer pair and
/// its validity interval `[ts, exp)` — exactly what a RESULT frame
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultRow {
    /// Source endpoint of the answer pair.
    pub src: VertexId,
    /// Target endpoint of the answer pair.
    pub trg: VertexId,
    /// Validity interval `[ts, exp)`.
    pub interval: Interval,
}

const _: () = assert!(size_of::<ResultRow>() == 32);

impl ResultRow {
    /// The row of an sgt: its endpoints and validity.
    pub fn of(s: &Sgt) -> ResultRow {
        ResultRow {
            src: s.src,
            trg: s.trg,
            interval: s.interval,
        }
    }
}

/// The distinct answer pairs valid at `t` in a result log (insertions
/// counted, deletions subtracted) — the left side of the
/// snapshot-reducibility equation (Def. 14).
pub(crate) fn answer_at(
    results: &[ResultRow],
    deleted_results: &[Sgt],
    t: Timestamp,
) -> FxHashSet<(VertexId, VertexId)> {
    let mut valid: FxHashMap<(VertexId, VertexId), i64> = FxHashMap::default();
    for r in results {
        if r.interval.contains(t) {
            *valid.entry((r.src, r.trg)).or_insert(0) += 1;
        }
    }
    for s in deleted_results {
        if s.interval.contains(t) {
            *valid.entry((s.src, s.trg)).or_insert(0) -= 1;
        }
    }
    valid
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .map(|(k, _)| k)
        .collect()
}

/// `Some(merged)` when `interval` extends `set`'s coverage (the result is
/// emitted with the merged covering interval — [`IntervalSet::insert`]'s
/// contract), `None` when it is already covered (suppressed).
fn accept(set: &mut IntervalSet, interval: Interval) -> Option<Interval> {
    if set.covers(&interval) {
        return None;
    }
    Some(set.insert(interval).expect("non-empty"))
}

/// Drops coverage expired at `watermark`, and the pairs left with none
/// (sink maintenance at physical-purge boundaries). A table four times
/// larger than its live pairs — what a burst of short-lived pairs leaves
/// behind — shrinks to twice them; the gap between the two factors keeps
/// a steady pair count from reallocating at every purge.
pub(crate) fn purge_coverage(dedup: &mut PairCoverage, watermark: Timestamp) {
    dedup.retain(|_, set| {
        set.purge_expired(watermark);
        !set.is_empty()
    });
    // `shrink_to` reallocates only when a table for twice the live pairs
    // has fewer buckets, which is when the buckets hold four times the
    // live pairs or more. It decides by buckets: `capacity()` is no guide
    // here, since the tombstones `retain` leaves lower it.
    dedup.shrink_to(2 * dedup.len());
}

/// Reusable grouping scratch for [`sink_batch`]: the per-epoch
/// `(src, trg, batch index)` ordering buffer, threaded in by the caller so
/// its allocation survives across epochs instead of being rebuilt per
/// call. Borrow-free (indices, not references), so one scratch serves
/// every batch a sink ever sees.
#[derive(Debug, Default)]
pub(crate) struct SinkScratch {
    order: Vec<(VertexId, VertexId, usize)>,
}

/// Delivers a root emission **batch** to a sink with epoch-level
/// coalescing: the batch's insertions are grouped by `(src, trg)` so the
/// per-pair coverage entry in `dedup` is looked up once per distinct pair
/// instead of once per delta — on emission-heavy path queries most of a
/// root batch shares a handful of pairs, and the per-emission probe is the
/// dominant sink cost.
///
/// Semantics match the per-delta [`sink_result`] loop exactly at the data
/// model's granularity: each pair's deltas are processed in arrival order
/// (so per-pair coverage, and hence every `answer_at`, is unchanged) and
/// pairs are processed in ascending-pair order, making the emitted log a
/// *deterministic* pair-interleaving permutation of the per-delta log with
/// identical length. Deletions and unsuppressed pipelines take the
/// per-delta path unchanged (without suppression the dedup table is never
/// consulted, so there is nothing to amortise).
pub(crate) fn sink_batch(
    opts: &EngineOptions,
    sink: &mut RootSink,
    batch: &DeltaBatch,
    scratch: &mut SinkScratch,
) {
    if !opts.suppress_duplicates || batch.len() <= 1 {
        for d in batch.iter() {
            sink_result(opts, sink, d);
        }
        return;
    }
    for s in batch.deletes() {
        sink.deleted.push(s.clone());
    }
    sink_inserts_grouped(sink, batch, scratch);
}

/// The grouped-insert core of [`sink_batch`]: one coverage-entry lookup
/// per distinct `(src, trg)` pair. A **stable** sort arranges the batch
/// into per-pair runs — pairs in ascending order, each pair's deltas in
/// arrival order, so per-pair coverage (and every `answer_at`) is exactly
/// the per-delta path's, and the emitted order is deterministic. The
/// grouping buffer lives in `scratch` and is reused across epochs.
fn sink_inserts_grouped(sink: &mut RootSink, batch: &DeltaBatch, scratch: &mut SinkScratch) {
    let deltas = batch.as_slice();
    scratch.order.clear();
    for (i, d) in deltas.iter().enumerate() {
        if let Delta::Insert(s) = d {
            scratch.order.push((s.src, s.trg, i));
        }
    }
    scratch.order.sort_by_key(|&(src, trg, _)| (src, trg)); // stable: arrival order kept
    let mut i = 0;
    while i < scratch.order.len() {
        let key = (scratch.order[i].0, scratch.order[i].1);
        let set = sink.dedup.entry(key).or_default();
        while i < scratch.order.len() && (scratch.order[i].0, scratch.order[i].1) == key {
            let idx = scratch.order[i].2;
            i += 1;
            let Delta::Insert(s) = &deltas[idx] else {
                unreachable!("scratch indexes insert deltas only");
            };
            if let Some(merged) = accept(set, s.interval) {
                sink.results.push(s, merged);
            }
        }
    }
}

/// Delivers one root emission to a sink: per-pair interval coalescing
/// under duplicate suppression, separate insert/delete logs. [`sink_batch`]
/// is the batch-at-a-time form with per-pair grouping.
pub(crate) fn sink_result(opts: &EngineOptions, sink: &mut RootSink, delta: &Delta) {
    match delta {
        Delta::Insert(s) => {
            let mut interval = s.interval;
            if opts.suppress_duplicates {
                match accept(sink.dedup.entry((s.src, s.trg)).or_default(), interval) {
                    None => return,
                    Some(merged) => interval = merged,
                }
            }
            sink.results.push(s, interval);
        }
        Delta::Delete(s) => sink.deleted.push(s.clone()),
    }
}

/// The positional buffer under both of a root sink's logs: append-only at
/// the tail, releasable at the head.
///
/// Positions are **absolute** — entry `i` is the `i`-th entry this log
/// ever accepted — so the cursors registrations hold (`base`, `drained`,
/// `obs_*`) stay valid across a release. [`Log::release_to`] moves the
/// logical head and physically removes the released prefix once it is a
/// quarter as long as the live remainder, so the buffer never holds more
/// than 5/4 of what is live (plus one release), and every compaction moves
/// at most four entries per entry it frees (amortised O(1) per released
/// result, and never a per-epoch memmove of the live window).
pub(crate) struct Log<T> {
    buf: Vec<T>,
    /// Absolute position of the first retained entry (= entries released).
    head: usize,
    /// Released entries still physically at the front of `buf`.
    dead: usize,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log {
            buf: Vec::new(),
            head: 0,
            dead: 0,
        }
    }
}

impl<T> Log<T> {
    /// Absolute position of the first retained entry.
    pub fn head(&self) -> usize {
        self.head
    }

    /// Absolute position one past the last entry (= entries ever accepted).
    pub fn end(&self) -> usize {
        self.head + self.buf.len() - self.dead
    }

    /// The retained entries at absolute positions `from..`; positions
    /// before the head are gone, so the view starts at the head instead.
    pub fn from(&self, from: usize) -> &[T] {
        &self.buf[self.dead + from.saturating_sub(self.head)..]
    }

    /// Appends an entry at position [`Log::end`].
    pub fn push(&mut self, entry: T) {
        self.buf.push(entry);
    }

    /// Releases every entry before absolute position `upto`; `true` when
    /// the released prefix was physically removed.
    pub fn release_to(&mut self, upto: usize) -> bool {
        debug_assert!(upto <= self.end(), "release past the log end");
        if upto <= self.head {
            return false;
        }
        self.dead += upto - self.head;
        self.head = upto;
        let live = self.buf.len() - self.dead;
        if 4 * self.dead < live {
            return false;
        }
        self.buf.drain(..self.dead);
        self.dead = 0;
        // A burst (catch-up, a lagging subscriber) must not pin its
        // high-water allocation. The reallocation moves `live` entries,
        // at most four per entry just freed.
        if self.buf.capacity() > 2 * live {
            self.buf.shrink_to(live + live / 2);
        }
        true
    }

    /// `(retained entries, reserved slots)`.
    fn occupancy(&self) -> (usize, usize) {
        (self.buf.len() - self.dead, self.buf.capacity())
    }
}

/// A root sink's insert log: one [`ResultRow`] per accepted result, the
/// root's output label, and sparse side columns for what a row leaves
/// out, keyed by absolute position (see the module docs).
#[derive(Default)]
pub(crate) struct ResultLog {
    rows: Log<ResultRow>,
    /// The root's output label, carried by every result it emits (set by
    /// the first row).
    label: Option<Label>,
    /// Payloads other than the row's own derived edge `(src, trg,
    /// label)`: materialized paths. Ascending by position.
    payloads: Vec<(usize, Payload)>,
    /// Input-edge properties. Ascending by position.
    props: Vec<(usize, SharedProps)>,
}

impl ResultLog {
    /// Absolute position of the first retained row.
    pub fn head(&self) -> usize {
        self.rows.head()
    }

    /// Absolute position one past the last row.
    pub fn end(&self) -> usize {
        self.rows.end()
    }

    /// The retained rows at absolute positions `from..` (from the head if
    /// `from` is behind it).
    pub fn from(&self, from: usize) -> &[ResultRow] {
        self.rows.from(from)
    }

    /// Appends `s` as accepted with validity `interval`.
    pub fn push(&mut self, s: &Sgt, interval: Interval) {
        debug_assert!(
            self.label.is_none_or(|l| l == s.label),
            "a root emits one output label"
        );
        self.label = Some(s.label);
        let at = self.end();
        if !matches!(&s.payload, Payload::Edge(e) if *e == Edge::new(s.src, s.trg, s.label)) {
            self.payloads.push((at, s.payload.clone()));
        }
        if let Some(props) = &s.props {
            self.props.push((at, props.clone()));
        }
        self.rows.push(ResultRow {
            src: s.src,
            trg: s.trg,
            interval,
        });
    }

    /// The retained results at absolute positions `from..` as the sgts
    /// the root emitted (with its output label and their accepted
    /// validity).
    pub fn sgts_from(&self, from: usize) -> impl Iterator<Item = Sgt> + '_ {
        let from = from.max(self.head());
        // `None` only while nothing was pushed, when there is no row.
        let label = self.label.unwrap_or(Label(0));
        let mut payloads = self.payloads[first_at(&self.payloads, from)..]
            .iter()
            .peekable();
        let mut props = self.props[first_at(&self.props, from)..].iter().peekable();
        (from..).zip(self.from(from)).map(move |(at, r)| Sgt {
            src: r.src,
            trg: r.trg,
            label,
            interval: r.interval,
            payload: match payloads.next_if(|(p, _)| *p == at) {
                Some((_, payload)) => payload.clone(),
                None => Payload::Edge(Edge::new(r.src, r.trg, label)),
            },
            props: props.next_if(|(p, _)| *p == at).map(|(_, p)| p.clone()),
        })
    }

    /// Releases every row before absolute position `upto` (and its side
    /// entries, once the rows are compacted).
    pub fn release_to(&mut self, upto: usize) {
        if self.rows.release_to(upto) {
            let head = self.head();
            drop_before(&mut self.payloads, head);
            drop_before(&mut self.props, head);
        }
    }

    /// `(retained rows, reserved row slots)`.
    fn occupancy(&self) -> (usize, usize) {
        self.rows.occupancy()
    }

    /// Bytes the side columns reserve.
    fn side_bytes(&self) -> usize {
        self.payloads.capacity() * size_of::<(usize, Payload)>()
            + self.props.capacity() * size_of::<(usize, SharedProps)>()
    }
}

/// Index of a side column's first entry at or after absolute position
/// `from`.
fn first_at<T>(col: &[(usize, T)], from: usize) -> usize {
    col.partition_point(|&(at, _)| at < from)
}

/// Drops a side column's entries before absolute position `head`.
fn drop_before<T>(col: &mut Vec<(usize, T)>, head: usize) {
    col.drain(..first_at(col, head));
    if col.capacity() > 2 * col.len() {
        col.shrink_to(col.len() + col.len() / 2);
    }
}

/// One shared result sink per subscribed dataflow root: the emission log
/// every subscriber of that root reads through its own cursors.
pub(crate) struct RootSink {
    /// Accepted result inserts, in emission order, as rows (per-query
    /// answer tags are applied lazily).
    pub results: ResultLog,
    /// Emitted negative result tuples.
    pub deleted: Log<Sgt>,
    /// Duplicate-suppression state: this root's private pair map.
    pub dedup: PairCoverage,
    /// `(query id, answer label)` per subscriber, registration order —
    /// drives `process`-style emission collection.
    pub subscribers: Vec<(u64, Label)>,
}

impl RootSink {
    pub fn new(subscriber: (u64, Label)) -> RootSink {
        RootSink {
            results: ResultLog::default(),
            deleted: Log::default(),
            dedup: PairCoverage::default(),
            subscribers: vec![subscriber],
        }
    }

    /// What this sink holds, counted by a full scan of its pair map.
    pub fn census(&self) -> SinkCensus {
        let (rows, row_slots) = self.results.occupancy();
        let (deleted, deleted_slots) = self.deleted.occupancy();
        SinkCensus {
            dedup_pairs: self.dedup.len(),
            dedup_empty: self.dedup.values().filter(|s| s.is_empty()).count(),
            log_retained: rows + deleted,
            log_slots: row_slots + deleted_slots,
            reserved_bytes: table_bytes::<(VertexId, VertexId), IntervalSet>(self.dedup.capacity())
                + self
                    .dedup
                    .values()
                    .map(IntervalSet::heap_bytes)
                    .sum::<usize>()
                + row_slots * size_of::<ResultRow>()
                + self.results.side_bytes()
                + deleted_slots * size_of::<Sgt>()
                + self.subscribers.capacity() * size_of::<(u64, Label)>(),
        }
    }
}

/// What one root sink holds: its duplicate-suppression pair map and its
/// two result logs. Counted by a full scan — what `tests/bounded_state.rs`
/// holds against the window, not a metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCensus {
    /// `(src, trg)` pairs with coverage held for duplicate suppression.
    pub dedup_pairs: usize,
    /// Dedup pairs with an empty set (zero after every purge).
    pub dedup_empty: usize,
    /// Result rows and negative tuples the two logs still hold.
    pub log_retained: usize,
    /// Slots the two logs reserve (retained, released-but-not-compacted
    /// and spare capacity).
    pub log_slots: usize,
    /// Heap bytes reserved by the pair map (slots plus control bytes, and
    /// each set's spilled intervals), the log buffers — a
    /// [`ResultRow`] per insert-log slot, an [`Sgt`] per negative-tuple
    /// slot, and the insert log's side columns — and the subscriber list.
    pub reserved_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::{Interval, PathSeq, PropMap, Timestamp};
    use std::sync::Arc;

    fn iv(from: Timestamp, to: Timestamp) -> Interval {
        Interval::new(from, to)
    }

    fn row(i: u64) -> ResultRow {
        ResultRow {
            src: VertexId(i),
            trg: VertexId(i),
            interval: iv(i, i + 1),
        }
    }

    /// Positions stay absolute across releases, views never reach behind
    /// the head, and the dead prefix is compacted away once it is a
    /// quarter of the live entries.
    #[test]
    fn result_log_releases_its_prefix_in_place() {
        let mut log = Log::default();
        for i in 0..10 {
            log.push(row(i));
        }
        assert_eq!((log.head(), log.end()), (0, 10));

        assert!(!log.release_to(1)); // 1 dead, 9 live: logical only
        assert_eq!((log.head(), log.end(), log.buf.len()), (1, 10, 10));
        assert_eq!(log.from(0), log.from(1), "nothing before the head");
        assert_eq!(log.from(5)[0], row(5));
        log.release_to(0); // behind the head: no-op
        assert_eq!(log.head(), 1);

        assert!(log.release_to(3)); // 3 dead, 7 live: compacted
        assert_eq!((log.head(), log.end(), log.buf.len()), (3, 10, 7));
        log.push(row(10));
        assert_eq!(log.end(), 11);
        assert_eq!(log.from(9), &[row(9), row(10)]);

        // A long run: the physical log stays within 5/4 of the live part
        // plus one release, and its allocation within twice its length
        // plus the growth since the last compaction.
        for i in 11..5_000u64 {
            log.push(row(i));
            log.release_to(log.end().saturating_sub(100));
            let (live, slots) = log.occupancy();
            assert!(
                4 * log.buf.len() <= 5 * live + 4,
                "{} for {live}",
                log.buf.len()
            );
            assert!(slots <= 4 * live + 8, "{slots} slots for {live}");
        }
        assert_eq!(log.from(0).first(), Some(&row(4_900)));
        log.release_to(log.end());
        assert!(log.from(0).is_empty() && log.buf.is_empty());
        assert_eq!(log.buf.capacity(), 0, "nothing live, nothing reserved");

        // A burst's allocation is given back once the burst is released.
        for i in 0..100_000 {
            log.push(row(i));
        }
        assert!(log.buf.capacity() >= 100_000);
        log.release_to(log.end() - 10);
        assert_eq!(log.from(0).len(), 10);
        assert!(log.buf.capacity() <= 20, "{}", log.buf.capacity());
    }

    /// Every sgt a result log accepts comes back out equal — derived-edge
    /// payloads from the row, paths and properties from the side columns
    /// — across releases, and the side columns go with their rows.
    #[test]
    fn result_log_round_trips_sgts() {
        let (l, other) = (Label(3), Label(4));
        let (a, b, c) = (VertexId(1), VertexId(2), VertexId(3));
        let path = PathSeq::new(vec![Edge::new(a, b, other), Edge::new(b, c, other)]);
        let props = Arc::new(PropMap::from_pairs([("w", 7i64)]));
        let sgts: Vec<Sgt> = (0..40u64)
            .map(|i| {
                let s = Sgt::edge(a, VertexId(i), l, iv(i, i + 5));
                match i % 4 {
                    0 => Sgt::with_payload(a, c, l, iv(i, i + 5), Payload::Path(path.clone())),
                    1 => s.with_props(props.clone()),
                    2 => {
                        Sgt::with_payload(a, b, l, iv(i, i + 5), Payload::Edge(Edge::new(b, c, l)))
                    }
                    _ => s,
                }
            })
            .collect();
        let mut log = ResultLog::default();
        for s in &sgts {
            log.push(s, s.interval);
        }
        assert_eq!(log.sgts_from(0).collect::<Vec<_>>(), sgts);
        assert_eq!(log.sgts_from(13).collect::<Vec<_>>(), sgts[13..]);
        assert_eq!(log.payloads.len(), 20, "paths and foreign edges only");
        assert_eq!(log.props.len(), 10);

        log.release_to(30); // compacts, side entries before 30 go too
        assert_eq!(log.sgts_from(0).collect::<Vec<_>>(), sgts[30..]);
        assert_eq!((log.payloads.len(), log.props.len()), (5, 2));
        log.release_to(40);
        assert!(log.payloads.is_empty() && log.props.is_empty());

        // The accepted interval replaces the emitted one.
        log.push(&sgts[3], iv(0, 99));
        let back = log.sgts_from(0).next().unwrap();
        assert_eq!(
            (back.interval, back.payload),
            (iv(0, 99), sgts[3].payload.clone())
        );
    }

    /// The census counts what the pair map and the logs hold, a row slot
    /// at the size of a row.
    #[test]
    fn census_counts_pairs_logs_and_bytes() {
        let mut sink = RootSink::new((0, Label(0)));
        assert_eq!(
            sink.census().reserved_bytes,
            size_of::<(u64, Label)>(),
            "a fresh sink reserves its subscriber only"
        );
        sink.dedup
            .entry((VertexId(1), VertexId(2)))
            .or_default()
            .insert(iv(0, 10));
        for i in 0..3 {
            let s = Sgt::edge(VertexId(1), VertexId(2), Label(0), iv(i, 10));
            sink.results.push(&s, s.interval);
        }
        sink.results.release_to(1);
        let c = sink.census();
        assert_eq!((c.dedup_pairs, c.dedup_empty, c.log_retained), (1, 0, 2));
        assert!(c.log_slots >= 2);
        let table = table_bytes::<(VertexId, VertexId), IntervalSet>(sink.dedup.capacity());
        assert_eq!(
            c.reserved_bytes,
            table + c.log_slots * size_of::<ResultRow>() + size_of::<(u64, Label)>()
        );
    }

    /// Purging coverage gives a burst's table back once it is four times
    /// larger than the live pairs, and leaves a table alone below that.
    #[test]
    fn purged_coverage_shrinks_to_its_live_pairs() {
        let mut dedup = PairCoverage::default();
        for i in 0..10_000u64 {
            let exp = if i < 10 { 100 } else { 10 };
            dedup
                .entry((VertexId(i), VertexId(i)))
                .or_default()
                .insert(iv(0, exp));
        }
        let burst = dedup.capacity();
        purge_coverage(&mut dedup, 20);
        assert_eq!(dedup.len(), 10);
        assert!(dedup.capacity() < 40, "{} of {burst}", dedup.capacity());
        let kept = dedup.capacity();
        purge_coverage(&mut dedup, 20);
        assert_eq!(dedup.capacity(), kept, "steady pairs keep their table");
        purge_coverage(&mut dedup, 100);
        assert_eq!((dedup.len(), dedup.capacity()), (0, 0));
    }
}
