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
//! Duplicate suppression (§6.2) emits a claim only where it extends what
//! the root already emitted for its answer pair, merged with every piece
//! of that pair's coverage it meets (the coalesce primitive, Def. 11).
//! Each piece of a pair's coverage *is* one row of the insert log — a
//! claim is emitted as its merged covering interval, and the pieces it
//! absorbed leave the coverage with it — so the coverage keeps no copy of
//! its own ([`Coverage`]): an 8-byte [`RowIndex`] slot maps each covered
//! pair to its newest piece's row, whose key is read back from the log,
//! and each piece links to the pair's next older one through a 4-byte
//! distance back, in a column beside the rows. Window variants of one plan
//! have distinct roots and so distinct coverage. Sinks without suppression
//! (deletion pipelines) build none.
//!
//! A sink holds what is live. A sink purge drops the coverage pieces
//! expired at its watermark, and the pairs left with none, and gives back
//! index slots its pairs no longer need. Each log physically drops its
//! released prefix once that prefix reaches a quarter of the live entries,
//! giving back capacity the live entries no longer need. A row is released
//! once every subscriber was handed it and it is expired — in a
//! suppressing sink, expired at the last sink purge and older than it,
//! because until a purge drops a piece the coverage still reads its row.

use crate::physical::row_index::{hash_words, RowIndex};
use crate::physical::{Delta, DeltaBatch};
use sgq_types::{
    Edge, FxHashMap, FxHashSet, Interval, Label, Payload, Sgt, SharedProps, Timestamp, VertexId,
};

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

/// Reusable grouping scratch for [`sink_batch`]: the per-epoch
/// `(src, trg, batch index)` ordering buffer, threaded in by the caller so
/// its allocation survives across epochs instead of being rebuilt per
/// call. Borrow-free (indices, not references), so one scratch serves
/// every batch a sink ever sees.
#[derive(Debug, Default)]
pub(crate) struct SinkScratch {
    order: Vec<(VertexId, VertexId, usize)>,
}

/// Delivers a root emission **batch** to a sink. Under duplicate
/// suppression the batch's insertions are taken grouped by `(src, trg)`:
/// a **stable** sort arranges them into per-pair runs, pairs in ascending
/// order and each pair's deltas in arrival order, so per-pair coverage
/// (and hence every `answer_at`) is exactly the per-delta
/// [`sink_result`] loop's, and the emitted log is a *deterministic*
/// pair-interleaving permutation of the per-delta log with identical
/// length. The grouping buffer lives in `scratch` and is reused across
/// epochs. Sinks without suppression take the per-delta path.
pub(crate) fn sink_batch(sink: &mut RootSink, batch: &DeltaBatch, scratch: &mut SinkScratch) {
    if sink.coverage.is_none() || batch.len() <= 1 {
        for d in batch.iter() {
            sink_result(sink, d);
        }
        return;
    }
    for s in batch.deletes() {
        sink.deleted.push(s.clone());
    }
    let deltas = batch.as_slice();
    scratch.order.clear();
    for (i, d) in deltas.iter().enumerate() {
        if let Delta::Insert(s) = d {
            scratch.order.push((s.src, s.trg, i));
        }
    }
    scratch.order.sort_by_key(|&(src, trg, _)| (src, trg)); // stable: arrival order kept
    for &(_, _, i) in &scratch.order {
        let Delta::Insert(s) = &deltas[i] else {
            unreachable!("scratch indexes insert deltas only");
        };
        sink.insert(s);
    }
}

/// Delivers one root emission to a sink: per-pair interval coalescing
/// under duplicate suppression, separate insert/delete logs. [`sink_batch`]
/// is the batch-at-a-time form with per-pair grouping.
pub(crate) fn sink_result(sink: &mut RootSink, delta: &Delta) {
    match delta {
        Delta::Insert(s) => sink.insert(s),
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

    /// The retained entry at absolute position `at`.
    fn at(&self, at: usize) -> &T {
        debug_assert!(at >= self.head, "entry {at} was released");
        &self.buf[self.dead + at - self.head]
    }

    /// The retained entry at absolute position `at`, mutably.
    fn at_mut(&mut self, at: usize) -> &mut T {
        debug_assert!(at >= self.head, "entry {at} was released");
        &mut self.buf[self.dead + at - self.head]
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

    /// The retained row at absolute position `at`.
    fn at(&self, at: usize) -> &ResultRow {
        self.rows.at(at)
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

/// How many of a log's first `delivered` retained entries, in order, are
/// expired at `now`: the prefix that may be released.
fn expired_prefix<T>(
    retained: &[T],
    delivered: usize,
    now: Timestamp,
    interval: impl Fn(&T) -> Interval,
) -> usize {
    retained[..delivered]
        .iter()
        .take_while(|e| interval(e).exp <= now)
        .count()
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

/// A suppressing sink's coverage, read from its insert log (see the
/// module docs): per covered `(src, trg)`, a chain of the rows whose
/// intervals are the pair's disjoint, non-adjacent coverage pieces,
/// newest first.
#[derive(Default)]
struct Coverage {
    /// Each covered pair's newest piece, by [`row_id`].
    index: RowIndex,
    /// Per insert-log row, at the row's position: the distance back to the
    /// next older piece of its pair, 0 at a chain's end. Only the links of
    /// rows in a chain are read.
    links: Log<u32>,
    /// The last purge's watermark and the log's end then: the rows before
    /// that end that expired at the watermark are in no chain.
    purged: Option<(Timestamp, usize)>,
}

/// An index row id: the low 31 bits of a log position, so never the
/// `u32::MAX` that marks a vacant index slot. Ids are exact while an
/// indexed row is fewer than 2^31 rows behind the log's end.
fn row_id(at: usize) -> u32 {
    (at & ID_BITS) as u32
}

const ID_BITS: usize = (1 << 31) - 1;

/// The position of row id `id` in a log that ends at `end`.
fn position(end: usize, id: u32) -> usize {
    end - ((end - id as usize) & ID_BITS)
}

/// The index hash of an answer pair.
fn pair_hash(src: VertexId, trg: VertexId) -> u64 {
    hash_words([src.0, trg.0])
}

/// The chain that starts at `newest`, newest first.
fn chain(links: &Log<u32>, newest: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(newest), |&at| match *links.at(at) {
        0 => None,
        back => Some(at - back as usize),
    })
}

/// Splices the rows `gone` picks out of the chain that starts at `newest`;
/// the newest row left, if any.
fn unlink(
    links: &mut Log<u32>,
    newest: usize,
    mut gone: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let (mut first, mut last) = (None, None);
    let mut next = Some(newest);
    while let Some(at) = next {
        next = chain(links, at).nth(1);
        if gone(at) {
            continue;
        }
        if let Some(later) = last {
            *links.at_mut(later) = link(later, at);
        }
        first.get_or_insert(at);
        last = Some(at);
    }
    if let Some(oldest) = last {
        *links.at_mut(oldest) = 0;
    }
    first
}

/// The link of the row at `at` to an older row at `to`.
fn link(at: usize, to: usize) -> u32 {
    u32::try_from(at - to).expect("a chain spans fewer than 2^32 rows")
}

impl Coverage {
    /// Decides a claim on `(src, trg)` against the pair's coverage: `None`
    /// when one piece contains it (suppressed), otherwise the claim merged
    /// with every piece it meets — [`IntervalSet::insert`]'s merged
    /// covering interval — which the caller appends to `rows` at
    /// `rows.end()` as the pair's newest piece, in place of the pieces it
    /// absorbed.
    ///
    /// [`IntervalSet::insert`]: sgq_types::IntervalSet::insert
    fn accept(
        &mut self,
        rows: &ResultLog,
        src: VertexId,
        trg: VertexId,
        claim: Interval,
    ) -> Option<Interval> {
        if claim.is_empty() {
            return None;
        }
        let (hash, end) = (pair_hash(src, trg), rows.end());
        let slot = self.index.find(hash, |id| {
            let r = rows.at(position(end, id));
            (r.src, r.trg) == (src, trg)
        });
        let (mut merged, mut absorbs) = (claim, false);
        let mut older = None;
        if let Some(slot) = slot {
            let newest = position(end, self.index.row(slot));
            for at in chain(&self.links, newest) {
                let piece = rows.at(at).interval;
                if piece.ts <= claim.ts && claim.exp <= piece.exp {
                    return None;
                }
                if piece.meets(&claim) {
                    merged = merged.hull(&piece);
                    absorbs = true;
                }
            }
            older = if !absorbs {
                Some(newest)
            } else {
                unlink(&mut self.links, newest, |at| {
                    rows.at(at).interval.meets(&claim)
                })
            };
            self.index.set_row(slot, row_id(end));
        } else {
            self.index.insert(hash, row_id(end));
        }
        self.links.push(older.map_or(0, |older| link(end, older)));
        Some(merged)
    }

    /// Drops the pieces expired at `watermark` (sink maintenance at
    /// physical-purge boundaries), the pairs left with none, and the index
    /// slots those pairs no longer need.
    fn purge(&mut self, rows: &ResultLog, watermark: Timestamp) {
        let (end, links) = (rows.end(), &mut self.links);
        self.index.retain(|id| {
            let newest = position(end, id);
            unlink(links, newest, |at| {
                rows.at(at).interval.expired_at(watermark)
            })
            .map(row_id)
        });
        self.purged = Some((watermark, end));
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
    /// Duplicate suppression over `results`; `None` in a sink that keeps
    /// every result (a host without suppression).
    coverage: Option<Coverage>,
    /// `(query id, answer label)` per subscriber, registration order —
    /// drives `process`-style emission collection.
    pub subscribers: Vec<(u64, Label)>,
}

impl RootSink {
    /// A sink with its first subscriber; `suppress` gives it coverage.
    pub fn new(subscriber: (u64, Label), suppress: bool) -> RootSink {
        RootSink {
            results: ResultLog::default(),
            deleted: Log::default(),
            coverage: suppress.then(Coverage::default),
            subscribers: vec![subscriber],
        }
    }

    /// Appends a result insert, as its coverage decides.
    fn insert(&mut self, s: &Sgt) {
        let interval = match &mut self.coverage {
            None => s.interval,
            Some(c) => match c.accept(&self.results, s.src, s.trg, s.interval) {
                Some(merged) => merged,
                None => return,
            },
        };
        self.results.push(s, interval);
    }

    /// Drops coverage expired at `watermark`.
    pub fn purge(&mut self, watermark: Timestamp) {
        if let Some(c) = &mut self.coverage {
            c.purge(&self.results, watermark);
        }
    }

    /// Releases the longest prefix of each log before its slowest
    /// subscriber's delivery cursor (`ins`, `del`) whose entries are
    /// expired at `now` — and, in the insert log of a suppressing sink, no
    /// longer read by the coverage: older than the last purge and expired
    /// at its watermark. Returns the entries released.
    pub fn release(&mut self, ins: usize, del: usize, now: Timestamp) -> usize {
        let (expired, before) = match &self.coverage {
            None => (now, ins),
            Some(c) => c
                .purged
                .map_or((0, 0), |(w, end)| (w.min(now), end.min(ins))),
        };
        let head = self.results.head();
        let n = expired_prefix(
            self.results.from(head),
            before.saturating_sub(head),
            expired,
            |r| r.interval,
        );
        self.results.release_to(head + n);
        if let Some(c) = &mut self.coverage {
            c.links.release_to(head + n);
        }
        let head = self.deleted.head();
        let n_del = expired_prefix(
            self.deleted.from(head),
            del.saturating_sub(head),
            now,
            |s| s.interval,
        );
        self.deleted.release_to(head + n_del);
        n + n_del
    }

    /// What this sink holds at event time `now`, counted by a full scan.
    pub fn census(&self, now: Timestamp) -> SinkCensus {
        let (rows, row_slots) = self.results.occupancy();
        let (deleted, deleted_slots) = self.deleted.occupancy();
        let (pairs, coverage_bytes) = self.coverage.as_ref().map_or((0, 0), |c| {
            let link_slots = c.links.occupancy().1;
            (
                c.index.len(),
                c.index.reserved_bytes() + link_slots * size_of::<u32>(),
            )
        });
        let head = self.results.head();
        SinkCensus {
            dedup_pairs: pairs,
            log_retained: rows + deleted,
            log_expired: (self.results.from(head).iter())
                .filter(|r| r.interval.expired_at(now))
                .count(),
            log_slots: row_slots + deleted_slots,
            reserved_bytes: coverage_bytes
                + row_slots * size_of::<ResultRow>()
                + self.results.side_bytes()
                + deleted_slots * size_of::<Sgt>()
                + self.subscribers.capacity() * size_of::<(u64, Label)>(),
        }
    }
}

/// What one root sink holds: its coverage index and its two result logs.
/// Counted by a full scan — what `tests/bounded_state.rs` holds against
/// the window, not a metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCensus {
    /// `(src, trg)` pairs with coverage held for duplicate suppression.
    pub dedup_pairs: usize,
    /// Result rows and negative tuples the two logs still hold.
    pub log_retained: usize,
    /// Result rows the insert log still holds though they expired at the
    /// host's event time: rows not yet handed to every subscriber, rows
    /// behind an unexpired one, and — under duplicate suppression — rows
    /// the coverage reads until the next sink purge.
    pub log_expired: usize,
    /// Slots the two logs reserve (retained, released-but-not-compacted
    /// and spare capacity).
    pub log_slots: usize,
    /// Heap bytes reserved by the coverage (index slots, and a 4-byte link
    /// per insert-log slot), the log buffers — a [`ResultRow`] per
    /// insert-log slot, an [`Sgt`] per negative-tuple slot, and the insert
    /// log's side columns — and the subscriber list.
    pub reserved_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::{IntervalSet, PathSeq, PropMap};
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

    /// The census counts what the coverage and the logs hold: a row slot
    /// at the size of a row plus its link, and the index's slots.
    #[test]
    fn census_counts_pairs_logs_and_bytes() {
        let mut sink = RootSink::new((0, Label(0)), true);
        assert_eq!(
            sink.census(0).reserved_bytes,
            size_of::<(u64, Label)>(),
            "a fresh sink reserves its subscriber only"
        );
        for i in 0..3 {
            sink.insert(&Sgt::edge(
                VertexId(1),
                VertexId(2),
                Label(0),
                iv(i, 10 + i),
            ));
        }
        sink.purge(10);
        // Rows [0, 10), [0, 11), [0, 12): only the first is older than the
        // purge and expired at its watermark.
        assert_eq!(sink.release(3, 0, 11), 1);
        let c = sink.census(11);
        assert_eq!((c.dedup_pairs, c.log_retained, c.log_expired), (1, 2, 1));
        assert!(c.log_slots >= 2);
        let index = sink.coverage.as_ref().unwrap().index.reserved_bytes();
        assert_eq!(
            c.reserved_bytes,
            index + c.log_slots * (size_of::<ResultRow>() + 4) + size_of::<(u64, Label)>()
        );

        let mut plain = RootSink::new((0, Label(0)), false);
        plain.insert(&Sgt::edge(VertexId(1), VertexId(2), Label(0), iv(0, 10)));
        let c = plain.census(0);
        assert_eq!(c.dedup_pairs, 0);
        assert_eq!(
            c.reserved_bytes,
            c.log_slots * size_of::<ResultRow>() + size_of::<(u64, Label)>(),
            "no coverage without suppression"
        );
    }

    /// A purged burst of pairs gives its index slots back, and a sink
    /// whose coverage expired entirely reserves no index.
    #[test]
    fn purged_coverage_gives_its_index_back() {
        let mut sink = RootSink::new((0, Label(0)), true);
        for i in 0..10_000u64 {
            let exp = if i < 10 { 100 } else { 10 };
            sink.insert(&Sgt::edge(VertexId(i), VertexId(i), Label(0), iv(0, exp)));
        }
        let index = |sink: &RootSink| {
            let c = sink.coverage.as_ref().unwrap();
            (c.index.len(), c.index.reserved_bytes())
        };
        let burst = index(&sink).1;
        sink.purge(20);
        assert_eq!(index(&sink), (10, 16 * 8), "{burst} B at the burst");
        sink.purge(100);
        assert_eq!(index(&sink), (0, 0));
    }

    /// The pair map the log-backed coverage replaced: each answer pair's
    /// coverage as an [`IntervalSet`]. The sink is held to it.
    type PairCoverage = FxHashMap<(VertexId, VertexId), IntervalSet>;

    /// The map's decision: `Some(merged)` when `interval` extends `set`,
    /// `None` when a member covers it.
    fn reference_accept(set: &mut IntervalSet, interval: Interval) -> Option<Interval> {
        if set.covers(&interval) {
            return None;
        }
        Some(set.insert(interval).expect("non-empty"))
    }

    /// The map's purge: members expired at `watermark` go, and the pairs
    /// left with none.
    fn reference_purge(map: &mut PairCoverage, watermark: Timestamp) {
        map.retain(|_, set| {
            set.purge_expired(watermark);
            !set.is_empty()
        });
    }

    /// The coverage pieces the sink holds for `(src, trg)`, by start.
    fn pieces(sink: &RootSink, src: VertexId, trg: VertexId) -> Vec<Interval> {
        let c = sink.coverage.as_ref().unwrap();
        let end = sink.results.end();
        let Some(slot) = c.index.find(pair_hash(src, trg), |id| {
            let r = sink.results.at(position(end, id));
            (r.src, r.trg) == (src, trg)
        }) else {
            return Vec::new();
        };
        let newest = position(end, c.index.row(slot));
        let mut out: Vec<Interval> = chain(&c.links, newest)
            .map(|at| sink.results.at(at).interval)
            .collect();
        out.sort_by_key(|i| i.ts);
        out
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// The log-backed sink and the pair map it replaced, fed the same
    /// claims — fresh, duplicate, touching, disjoint-older and covered
    /// ones, ones reaching back over expired but unpurged pieces — between
    /// purges at random watermarks and releases that compact the log:
    /// identical accept decisions and emitted intervals, and after every
    /// step the same pieces for every pair and no other pair indexed.
    #[test]
    fn log_backed_coverage_decides_as_the_pair_map_did() {
        let label = Label(1);
        let mut emitted = 0;
        for seed in 1..=150u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut sink = RootSink::new((0, label), true);
            let mut map = PairCoverage::default();
            let mut scratch = SinkScratch::default();
            let (mut now, mut watermark): (Timestamp, Timestamp) = (0, 0);
            for step in 0..300 {
                match rng.below(12) {
                    0..=6 => {
                        let mut claims = Vec::new();
                        for _ in 0..1 + rng.below(6) {
                            let pair = (VertexId(rng.below(4)), VertexId(rng.below(3)));
                            let set = map.get(&pair).map(IntervalSet::intervals);
                            let claim = match (set, rng.below(4)) {
                                (Some(set), 0) => {
                                    // Duplicate, covered or touching a piece.
                                    let p = set[rng.below(set.len() as u64) as usize];
                                    match rng.below(4) {
                                        0 => p,
                                        1 => iv(p.ts + (p.len() - 1).min(1), p.exp),
                                        2 => iv(p.exp, p.exp + 1 + rng.below(5)),
                                        _ => iv(p.ts.saturating_sub(1 + rng.below(5)), p.ts),
                                    }
                                }
                                _ => {
                                    let ts = now.saturating_sub(30) + rng.below(36);
                                    iv(ts, ts + 1 + rng.below(25))
                                }
                            };
                            claims.push(Sgt::edge(pair.0, pair.1, label, claim));
                        }
                        let mut expected = claims.clone();
                        expected.sort_by_key(|s| (s.src, s.trg));
                        let expected: Vec<ResultRow> = (expected.iter())
                            .filter_map(|s| {
                                let set = map.entry((s.src, s.trg)).or_default();
                                let interval = reference_accept(set, s.interval)?;
                                Some(ResultRow {
                                    interval,
                                    ..ResultRow::of(s)
                                })
                            })
                            .collect();
                        let from = sink.results.end();
                        let batch: DeltaBatch = claims.into_iter().map(Delta::Insert).collect();
                        sink_batch(&mut sink, &batch, &mut scratch);
                        assert_eq!(sink.results.from(from), expected, "seed {seed} step {step}");
                        emitted += expected.len();
                    }
                    7 | 8 => now += rng.below(8),
                    9 => {
                        watermark += rng.below(now - watermark + 1);
                        sink.purge(watermark);
                        reference_purge(&mut map, watermark);
                    }
                    _ => {
                        // Subscribers were handed all but the last rows.
                        let lag = rng.below(3) as usize;
                        sink.release(sink.results.end().saturating_sub(lag), 0, now);
                    }
                }
                let c = sink.coverage.as_ref().unwrap();
                assert_eq!(c.index.len(), map.len(), "seed {seed} step {step}");
                for (&(src, trg), set) in &map {
                    assert_eq!(
                        pieces(&sink, src, trg),
                        set.intervals(),
                        "seed {seed} step {step}: ({src:?}, {trg:?})"
                    );
                }
            }
            assert!(sink.results.head() > 0, "seed {seed}: the log was released");
        }
        assert!(emitted > 10_000, "{emitted}");
    }
}
