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
//! Duplicate suppression is the classic per-root `(src, trg) →
//! IntervalSet` map, private to the sink and identical to a dedicated
//! engine's, so shared-host logs are bit-identical to dedicated engines'.
//! Window variants of one plan have distinct roots and so distinct maps.
//!
//! A sink holds what is live: the pair map drops a pair once its coverage
//! expires, and each [`ResultLog`] physically drops its released prefix
//! once that prefix reaches a quarter of the live entries, giving back
//! capacity the live entries no longer need.

use sgq_core::engine::PairCoverage;
use sgq_core::physical::table_bytes;
use sgq_types::{IntervalSet, Label, Sgt, VertexId};

/// One emission log of a root sink: append-only at the tail, releasable
/// at the head.
///
/// Positions are **absolute** — entry `i` is the `i`-th sgt this log ever
/// accepted — so the cursors registrations hold (`base`, `drained`,
/// `obs_*`) stay valid across a release. [`ResultLog::release_to`] moves
/// the logical head and physically removes the released prefix once it is
/// a quarter as long as the live remainder, so the buffer never holds more
/// than 5/4 of what is live (plus one release), and every compaction moves
/// at most four entries per entry it frees (amortised O(1) per released
/// result, and never a per-epoch memmove of the live window).
#[derive(Default)]
pub(crate) struct ResultLog {
    buf: Vec<Sgt>,
    /// Absolute position of the first retained entry (= entries released).
    head: usize,
    /// Released entries still physically at the front of `buf`.
    dead: usize,
}

impl ResultLog {
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
    pub fn from(&self, from: usize) -> &[Sgt] {
        &self.buf[self.dead + from.saturating_sub(self.head)..]
    }

    /// The append end, for the sink delivery loops (which push only).
    pub fn tail(&mut self) -> &mut Vec<Sgt> {
        &mut self.buf
    }

    /// Releases every entry before absolute position `upto`.
    pub fn release_to(&mut self, upto: usize) {
        debug_assert!(upto <= self.end(), "release past the log end");
        if upto <= self.head {
            return;
        }
        self.dead += upto - self.head;
        self.head = upto;
        let live = self.buf.len() - self.dead;
        if 4 * self.dead >= live {
            self.buf.drain(..self.dead);
            self.dead = 0;
            // A burst (catch-up, a lagging subscriber) must not pin its
            // high-water allocation. The reallocation moves `live`
            // entries, at most four per entry just freed.
            if self.buf.capacity() > 2 * live {
                self.buf.shrink_to(live + live / 2);
            }
        }
    }

    /// `(retained entries, reserved slots)`.
    fn occupancy(&self) -> (usize, usize) {
        (self.buf.len() - self.dead, self.buf.capacity())
    }
}

/// One shared result sink per subscribed dataflow root: the emission log
/// every subscriber of that root reads through its own cursors.
pub(crate) struct RootSink {
    /// Emitted result inserts, in emission order, tagged with the root's
    /// canonical output label (per-query answer tags are applied lazily).
    pub results: ResultLog,
    /// Emitted negative result tuples.
    pub deleted: ResultLog,
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
            deleted: ResultLog::default(),
            dedup: PairCoverage::default(),
            subscribers: vec![subscriber],
        }
    }

    /// What this sink holds, counted by a full scan of its pair map.
    pub fn census(&self) -> SinkCensus {
        let logs = [self.results.occupancy(), self.deleted.occupancy()];
        let log_slots = logs.iter().map(|&(_, slots)| slots).sum::<usize>();
        SinkCensus {
            dedup_pairs: self.dedup.len(),
            dedup_empty: self.dedup.values().filter(|s| s.is_empty()).count(),
            log_retained: logs.iter().map(|&(retained, _)| retained).sum(),
            log_slots,
            reserved_bytes: table_bytes::<(VertexId, VertexId), IntervalSet>(self.dedup.capacity())
                + self
                    .dedup
                    .values()
                    .map(IntervalSet::heap_bytes)
                    .sum::<usize>()
                + log_slots * size_of::<Sgt>()
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
    /// Result inserts and negative tuples the two logs still hold.
    pub log_retained: usize,
    /// Slots the two logs reserve (retained, released-but-not-compacted
    /// and spare capacity).
    pub log_slots: usize,
    /// Heap bytes reserved by the pair map (slots plus control bytes, and
    /// each set's spilled intervals), the log buffers and the subscriber
    /// list.
    pub reserved_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::{Interval, Timestamp};

    fn iv(from: Timestamp, to: Timestamp) -> Interval {
        Interval::new(from, to)
    }

    /// Positions stay absolute across releases, views never reach behind
    /// the head, and the dead prefix is compacted away once it is a
    /// quarter of the live entries.
    #[test]
    fn result_log_releases_its_prefix_in_place() {
        let entry = |i: u64| Sgt::edge(VertexId(i), VertexId(i), Label(0), iv(i, i + 1));
        let mut log = ResultLog::default();
        for i in 0..10 {
            log.tail().push(entry(i));
        }
        assert_eq!((log.head(), log.end()), (0, 10));

        log.release_to(1); // 1 dead, 9 live: logical only
        assert_eq!((log.head(), log.end(), log.buf.len()), (1, 10, 10));
        assert_eq!(log.from(0), log.from(1), "nothing before the head");
        assert_eq!(log.from(5)[0], entry(5));
        log.release_to(0); // behind the head: no-op
        assert_eq!(log.head(), 1);

        log.release_to(3); // 3 dead, 7 live: compacted
        assert_eq!((log.head(), log.end(), log.buf.len()), (3, 10, 7));
        log.tail().push(entry(10));
        assert_eq!(log.end(), 11);
        assert_eq!(log.from(9), &[entry(9), entry(10)]);

        // A long run: the physical log stays within 5/4 of the live part
        // plus one release, and its allocation within twice its length
        // plus the growth since the last compaction.
        for i in 11..5_000u64 {
            log.tail().push(entry(i));
            log.release_to(log.end().saturating_sub(100));
            let (live, slots) = log.occupancy();
            assert!(
                4 * log.buf.len() <= 5 * live + 4,
                "{} for {live}",
                log.buf.len()
            );
            assert!(slots <= 4 * live + 8, "{slots} slots for {live}");
        }
        assert_eq!(log.from(0).first(), Some(&entry(4_900)));
        log.release_to(log.end());
        assert!(log.from(0).is_empty() && log.buf.is_empty());
        assert_eq!(log.buf.capacity(), 0, "nothing live, nothing reserved");

        // A burst's allocation is given back once the burst is released.
        for i in 0..100_000 {
            log.tail().push(entry(i));
        }
        assert!(log.buf.capacity() >= 100_000);
        log.release_to(log.end() - 10);
        assert_eq!(log.from(0).len(), 10);
        assert!(log.buf.capacity() <= 20, "{}", log.buf.capacity());
    }

    /// The census counts what the pair map and the logs hold.
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
            sink.results.tail().push(s);
        }
        sink.results.release_to(1);
        let c = sink.census();
        assert_eq!((c.dedup_pairs, c.dedup_empty, c.log_retained), (1, 0, 2));
        assert!(c.log_slots >= 2);
        assert!(c.reserved_bytes >= c.log_slots * size_of::<Sgt>());
    }
}
