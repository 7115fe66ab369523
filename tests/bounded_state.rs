//! Window-bounded result path: a host that forwards results
//! (`for_each_undelivered`) and then calls `release_delivered` must hold
//! O(window + undelivered) results while every subscriber still sees
//! exactly the stream an unreleased host produces.
//!
//! Each test runs two hosts over the same operations: `live` drains through
//! the borrowing cursor and releases, `twin` uses the cloning `drain` plus a
//! caller-side cursor over `deleted_results` and never releases — the
//! surface every other suite (and the in-process benchmark mirror) reads.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;
use s_graffito::datagen::workloads::{self, Dataset};
use s_graffito::datagen::{so_stream, SoConfig};
use s_graffito::multiquery::{MultiQueryEngine, QueryId};
use s_graffito::prelude::*;
use s_graffito::serve::client::Client;
use s_graffito::serve::server::{ServeConfig, Server};
use s_graffito::types::{Sge, VertexId};

/// One routed result as a subscriber sees it:
/// `(is_delete, src, trg, ts, exp)`.
type Row = (bool, u64, u64, u64, u64);

fn row(delete: bool, s: &Sgt) -> Row {
    (delete, s.src.0, s.trg.0, s.interval.ts, s.interval.exp)
}

fn host(suppress_duplicates: bool) -> MultiQueryEngine {
    MultiQueryEngine::with_options(EngineOptions {
        suppress_duplicates,
        ..Default::default()
    })
}

/// `live`'s side of one routing pass for `id`: the serve loop's drain.
fn route_live(live: &mut MultiQueryEngine, id: QueryId, out: &mut Vec<Row>) {
    live.for_each_undelivered(id, |delete, s| out.push(row(delete, s)));
}

/// `twin`'s side: inserts through `drain`, deletes through the caller's
/// own cursor — in the order `for_each_undelivered` visits them.
fn route_twin(twin: &mut MultiQueryEngine, id: QueryId, cursor: &mut usize, out: &mut Vec<Row>) {
    out.extend(twin.drain(id).iter().map(|s| row(false, s)));
    let deleted = &twin.deleted_results(id)[*cursor..];
    out.extend(deleted.iter().map(|s| row(true, s)));
    *cursor += deleted.len();
}

fn answers(e: &MultiQueryEngine, id: QueryId, t: u64) -> BTreeSet<(u64, u64)> {
    e.answer_at(id, t)
        .into_iter()
        .map(|(a, b)| (a.0, b.0))
        .collect()
}

// ---------------------------------------------------------------------
// (a) release is invisible to subscribers
// ---------------------------------------------------------------------

const WINDOW: u64 = 24;
const SLIDE: u64 = 6;

#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u64, u64, u8, u64),
    /// Deletes the most recent live insert (unsuppressed hosts only).
    DeleteRecent,
    /// Routes the queries whose bit is set (see [`drains`]).
    Drain(u8),
    Release,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    let insert = (0u64..10, 0u64..10, 0u8..2, 0u64..4)
        .prop_map(|(s, t, l, dt)| Step::Insert(s, t, l, dt))
        .boxed();
    let step = prop_oneof![
        insert.clone(),
        insert.clone(),
        insert.clone(),
        insert,
        Just(Step::DeleteRecent).boxed(),
        (0u8..16).prop_map(Step::Drain).boxed(),
        Just(Step::Release).boxed(),
    ];
    prop::collection::vec(step, 1..max_len)
}

/// Which of the three registrations a `Drain(mask)` routes. The second
/// registration shares the first's root and needs two bits, so it lags
/// its twin most of the time.
fn drains(mask: u8, query: usize) -> bool {
    match query {
        0 => mask & 1 != 0,
        1 => mask & 0b1010 == 0b1010,
        _ => mask & 4 != 0,
    }
}

/// Two hosts with the same three registrations: a PATH query twice (one
/// shared root, two subscribers) and a join.
struct Pair {
    live: MultiQueryEngine,
    twin: MultiQueryEngine,
    ids: Vec<QueryId>,
    labels: Vec<Label>,
    pending: Vec<Sge>,
    live_rows: Vec<Vec<Row>>,
    twin_rows: Vec<Vec<Row>>,
    twin_cursors: Vec<usize>,
}

impl Pair {
    fn new(suppress_duplicates: bool) -> Pair {
        let texts = [
            "Ans(x, y) <- a+(x, y).",
            "Ans(x, y) <- a+(x, y).",
            "Ans(x, y) <- a(x, z), b(z, y).",
        ];
        let mut live = host(suppress_duplicates);
        let mut twin = host(suppress_duplicates);
        let mut ids = Vec::new();
        for text in texts {
            let q = SgqQuery::new(parse_program(text).unwrap(), WindowSpec::new(WINDOW, SLIDE));
            let id = live.register(&q);
            assert_eq!(twin.register(&q), id);
            ids.push(id);
        }
        let labels = ["a", "b"]
            .iter()
            .map(|n| live.labels().get(n).expect("both labels are referenced"))
            .collect();
        Pair {
            live,
            twin,
            labels,
            pending: Vec::new(),
            live_rows: vec![Vec::new(); ids.len()],
            twin_rows: vec![Vec::new(); ids.len()],
            twin_cursors: vec![0; ids.len()],
            ids,
        }
    }

    fn ingest_pending(&mut self) {
        self.live.ingest_batch(&self.pending);
        self.twin.ingest_batch(&self.pending);
        self.pending.clear();
    }

    fn route(&mut self, mask: u8) {
        for (i, &id) in self.ids.iter().enumerate() {
            if drains(mask, i) {
                route_live(&mut self.live, id, &mut self.live_rows[i]);
                route_twin(
                    &mut self.twin,
                    id,
                    &mut self.twin_cursors[i],
                    &mut self.twin_rows[i],
                );
            }
        }
    }

    /// Releases on `live` and checks everything a reader can still ask.
    fn release_and_compare(&mut self) -> Result<(), TestCaseError> {
        self.live.release_delivered();
        let now = self.live.now();
        prop_assert_eq!(now, self.twin.now());
        let (live_snap, twin_snap) = (self.live.metrics_snapshot(), self.twin.metrics_snapshot());
        for (i, &id) in self.ids.iter().enumerate() {
            for t in [now, now + 1, now + SLIDE, now + WINDOW] {
                prop_assert_eq!(
                    answers(&self.live, id, t),
                    answers(&self.twin, id, t),
                    "answer_at({}, {}) after release at {}",
                    id,
                    t,
                    now
                );
            }
            // The retained log is a suffix of the full one.
            let (kept, full) = (self.live.results(id), self.twin.results(id));
            prop_assert!(kept.len() <= full.len());
            prop_assert_eq!(kept, &full[full.len() - kept.len()..]);
            let (kept, full) = (self.live.deleted_results(id), self.twin.deleted_results(id));
            prop_assert!(kept.len() <= full.len());
            prop_assert_eq!(kept, &full[full.len() - kept.len()..]);
            // Emission counts stay cumulative.
            let (l, t) = (&live_snap.queries[i], &twin_snap.queries[i]);
            prop_assert_eq!((l.results, l.deleted), (t.results, t.deleted));
            prop_assert_eq!(l.log_retained + l.log_released, l.results + l.deleted);
            prop_assert_eq!(t.log_released, 0);
        }
        Ok(())
    }
}

fn run_steps(steps: &[Step], suppress_duplicates: bool) -> Result<(), TestCaseError> {
    let mut pair = Pair::new(suppress_duplicates);
    let mut t = 0u64;
    let mut inserted: Vec<Sge> = Vec::new();
    for step in steps {
        match *step {
            Step::Insert(s, tr, l, dt) => {
                t += dt;
                let sge = Sge::new(VertexId(s), VertexId(tr), pair.labels[l as usize], t);
                inserted.push(sge);
                pair.pending.push(sge);
            }
            Step::DeleteRecent => {
                if suppress_duplicates {
                    continue;
                }
                if let Some(sge) = inserted.pop() {
                    pair.ingest_pending();
                    pair.live.delete(sge);
                    pair.twin.delete(sge);
                }
            }
            Step::Drain(mask) => {
                pair.ingest_pending();
                pair.route(mask);
            }
            Step::Release => {
                pair.ingest_pending();
                pair.release_and_compare()?;
            }
        }
    }
    pair.ingest_pending();
    pair.route(0b1111);
    pair.release_and_compare()?;
    for i in 0..pair.ids.len() {
        prop_assert_eq!(
            &pair.live_rows[i],
            &pair.twin_rows[i],
            "routed stream of {}",
            pair.ids[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn release_is_invisible_under_duplicate_suppression(steps in steps(120)) {
        run_steps(&steps, true)?;
    }

    #[test]
    fn release_is_invisible_with_explicit_deletions(steps in steps(120)) {
        run_steps(&steps, false)?;
    }
}

/// The rule itself, on a hand-made stream: an entry goes only once every
/// subscriber of its root was handed it **and** it is expired.
#[test]
fn release_waits_for_the_slowest_subscriber_and_for_expiry() {
    let mut e = host(true);
    let q = SgqQuery::new(
        parse_program("Ans(x, y) <- a(x, y).").unwrap(),
        WindowSpec::new(10, 1),
    );
    let fast = e.register(&q);
    let slow = e.register(&q);
    let a = e.labels().get("a").unwrap();
    e.ingest_batch(&[Sge::raw(1, 2, a, 0), Sge::raw(2, 3, a, 1)]);
    e.for_each_undelivered(fast, |_, _| {});
    e.advance_time(50);
    // Both entries are long expired, but `slow` has not seen them.
    assert_eq!(e.release_delivered(), 0);
    assert_eq!(e.drain(slow).len(), 2);
    assert_eq!(e.release_delivered(), 2);
    assert!(e.results(fast).is_empty() && e.results(slow).is_empty());

    // Delivered to both but still valid: kept until the window moves on.
    e.ingest_batch(&[Sge::raw(3, 4, a, 60)]);
    e.for_each_undelivered(fast, |_, _| {});
    e.for_each_undelivered(slow, |_, _| {});
    assert_eq!(e.release_delivered(), 0);
    assert_eq!(answers(&e, fast, 65), BTreeSet::from([(3, 4)]));
    e.advance_time(70);
    assert_eq!(e.release_delivered(), 1);

    let snap = e.metrics_snapshot();
    assert_eq!(
        (snap.queries[0].results, snap.queries[0].log_retained),
        (3, 0)
    );
    assert!(e
        .explain_analyze(fast)
        .unwrap()
        .contains("results=3 deleted=0 log_retained=0 log_released=3"));
}

// ---------------------------------------------------------------------
// (b) a twin registering after a release
// ---------------------------------------------------------------------

/// A late registration on an existing root is handed the root's retained
/// log. After releases that is no longer everything since boot, but it
/// still holds every result valid at the watermark.
#[test]
fn late_twin_after_release_catches_up_on_live_results() {
    let q = SgqQuery::new(workloads::query(1, Dataset::So), WindowSpec::new(120, 12));
    let (mut live, mut twin) = (host(true), host(true));
    let first = live.register(&q);
    assert_eq!(twin.register(&q), first);
    let raw = so_stream(&SoConfig::new(60, 4_000).with_span(1_000));
    let stream = s_graffito::datagen::resolve(&raw, live.labels());
    for batch in stream.sges().chunks(64) {
        live.ingest_batch(batch);
        twin.ingest_batch(batch);
        live.for_each_undelivered(first, |_, _| {});
        live.release_delivered();
    }
    let now = live.now();
    let late = live.register(&q);
    assert_eq!(twin.register(&q), late);

    let live_catch_up = live.drain(late);
    let full_catch_up = twin.drain(late);
    assert_eq!(full_catch_up.len(), twin.results(first).len());
    assert!(
        live_catch_up.len() * 4 < full_catch_up.len(),
        "the released host replays the live tail ({}), not all history ({})",
        live_catch_up.len(),
        full_catch_up.len()
    );
    let valid = |log: &[Sgt]| -> Vec<Row> {
        log.iter()
            .filter(|s| s.interval.exp > now)
            .map(|s| row(false, s))
            .collect()
    };
    assert!(!valid(&live_catch_up).is_empty());
    assert_eq!(valid(&live_catch_up), valid(&full_catch_up));
    for t in [now, now + 1, now + 60] {
        assert_eq!(answers(&live, late, t), answers(&twin, late, t), "t={t}");
    }
}

// ---------------------------------------------------------------------
// (c) soak: the bound holds for as long as the stream runs
// ---------------------------------------------------------------------

const SOAK_SLIDE: u64 = 16;
const SOAK_WINDOW: u64 = 10 * SOAK_SLIDE;
const SOAK_TURNOVERS: u64 = 60;

/// The SO stream cut at slide boundaries: one chunk of raw events per
/// slide, `SOAK_TURNOVERS` windows long.
fn soak_slides() -> Vec<Vec<(u64, u64, &'static str, u64)>> {
    let span = SOAK_TURNOVERS * SOAK_WINDOW;
    let raw = so_stream(&SoConfig::new(150, 2 * span as usize).with_span(span));
    let mut slides: Vec<Vec<_>> = vec![Vec::new(); (span / SOAK_SLIDE) as usize];
    for &ev in &raw.events {
        slides[(ev.3 / SOAK_SLIDE) as usize].push(ev);
    }
    slides
}

/// The edges of one slide that Q1 (`a2q*`) references, resolved.
fn a2q_batch(slide: &[(u64, u64, &'static str, u64)], a2q: Label) -> Vec<Sge> {
    slide
        .iter()
        .filter(|ev| ev.2 == "a2q")
        .map(|&(s, t, _, ts)| Sge::raw(s, t, a2q, ts))
        .collect()
}

/// What the window bound allows a log to hold right after a slide's
/// drain + release: whatever was emitted in the last `W + slide` ticks
/// (everything older is delivered and expired).
struct EmissionWindow(VecDeque<(u64, usize)>);

impl EmissionWindow {
    fn allowed(&mut self, now: u64, emitted: usize) -> usize {
        self.0.push_back((now, emitted));
        while self
            .0
            .front()
            .is_some_and(|&(t, _)| t + SOAK_WINDOW + SOAK_SLIDE <= now)
        {
            self.0.pop_front();
        }
        self.0.iter().map(|&(_, n)| n).sum()
    }
}

/// ≥ 50 window turnovers of SO `a2q*` through the serve loop's cadence —
/// ingest a slide, route every subscription, release — in process: after
/// every slide the retained log fits the window bound, and the routed
/// stream equals an unreleased host's.
#[test]
fn soak_retained_log_stays_within_the_window_bound() {
    let q = SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(SOAK_WINDOW, SOAK_SLIDE),
    );
    let (mut live, mut twin) = (host(true), host(true));
    let id = live.register(&q);
    assert_eq!(twin.register(&q), id);
    let a2q = live.labels().get("a2q").unwrap();

    let (mut live_rows, mut twin_rows, mut cursor) = (Vec::new(), Vec::new(), 0);
    let mut window = EmissionWindow(VecDeque::new());
    let mut peak_retained = 0;
    for slide in soak_slides() {
        let batch = a2q_batch(&slide, a2q);
        live.ingest_batch(&batch);
        twin.ingest_batch(&batch);
        let before = live_rows.len();
        route_live(&mut live, id, &mut live_rows);
        route_twin(&mut twin, id, &mut cursor, &mut twin_rows);
        live.release_delivered();

        let retained = live.results(id).len() + live.deleted_results(id).len();
        let allowed = window.allowed(live.now(), live_rows.len() - before);
        assert!(
            retained <= allowed,
            "t={}: {retained} retained, the last W + slide ticks emitted {allowed}",
            live.now()
        );
        peak_retained = peak_retained.max(retained);
    }
    assert_eq!(live_rows, twin_rows, "routed stream, released vs not");
    assert!(
        peak_retained * 10 < live_rows.len(),
        "{SOAK_TURNOVERS} turnovers emitted {} results; at most {peak_retained} were ever held",
        live_rows.len()
    );
    let snap = live.metrics_snapshot();
    assert_eq!(snap.queries[0].results, live_rows.len());
    assert_eq!(snap.queries[0].results, twin.results(id).len());
}

/// The same soak through a real host over loopback (client-driven epoch
/// cuts, one barrier per slide): the wire stream is still bit-identical
/// to an in-process host that never releases, and the METRICS frame
/// shows the bound holding.
#[test]
fn soak_over_the_wire_is_bit_identical_and_bounded() {
    let server = Server::spawn(ServeConfig {
        batch_size: usize::MAX,
        tick: std::time::Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("soak").unwrap();
    let text = workloads::query_text(1, Dataset::So);
    let wire_id = c.register(text, SOAK_WINDOW, SOAK_SLIDE).unwrap();

    let mut twin = host(true);
    let id = twin.register(&SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(SOAK_WINDOW, SOAK_SLIDE),
    ));
    assert_eq!(id.0, wire_id);
    let a2q = twin.labels().get("a2q").unwrap();

    let (mut twin_rows, mut cursor) = (Vec::new(), 0);
    let mut window = EmissionWindow(VecDeque::new());
    let mut allowed = 0;
    for slide in soak_slides() {
        // The host discards the labels Q1 does not reference (§7.2.1).
        for &(s, t, l, ts) in &slide {
            c.insert(s, t, l, ts).unwrap();
        }
        c.barrier().unwrap();
        twin.ingest_batch(&a2q_batch(&slide, a2q));
        let before = twin_rows.len();
        route_twin(&mut twin, id, &mut cursor, &mut twin_rows);
        allowed = window.allowed(twin.now(), twin_rows.len() - before);
    }
    let wire_rows: Vec<Row> = c
        .take_results()
        .iter()
        .map(|r| {
            assert_eq!(r.query, wire_id);
            (r.delete, r.src, r.trg, r.ts, r.exp)
        })
        .collect();
    assert_eq!(wire_rows, twin_rows, "wire vs unreleased in-process host");

    let metrics = c.metrics().unwrap();
    let line = metrics
        .lines()
        .find(|l| l.contains("\"record\":\"query\""))
        .expect("one query record");
    let field = |name: &str| -> usize {
        let rest = &line[line.find(name).expect(name) + name.len()..];
        rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
    };
    assert_eq!(field("\"results\":"), wire_rows.len());
    assert!(field("\"log_retained\":") <= allowed, "{line}");
    assert_eq!(
        field("\"log_retained\":") + field("\"log_released\":"),
        wire_rows.len(),
        "{line}"
    );
    server.shutdown();
    server.join();
}
