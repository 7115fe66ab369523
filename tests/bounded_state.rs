//! Window-bounded result path: a host that forwards results
//! (`for_each_undelivered`) and then calls `release_delivered` must hold
//! O(window + undelivered) results while every subscriber still sees
//! exactly the stream an unreleased host produces.
//!
//! Each test runs two hosts over the same operations: `live` drains through
//! the borrowing cursor and releases, `twin` uses the cloning `drain` plus a
//! caller-side cursor over `deleted_results` and never releases — the
//! surface every other suite (and the in-process benchmark mirror) reads.
//!
//! Sections (d)–(f) hold **operator state** to the same standard: the
//! Δ-PATH forest of a PATH operator and the edge store of its input —
//! tree, node and edge slots, index keys, pending expiry handles, bytes —
//! and a PATTERN's join tables and output dedup — row slots, keys, dedup
//! pairs, pending expiry handles, bytes — are bounded by the window's
//! content after every purge, on a stream that mints vertex ids without
//! end.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use s_graffito::automata::Regex;
use s_graffito::core::algebra::{Pos, SgaExpr};
use s_graffito::core::dataflow::Dataflow;
use s_graffito::core::physical::adjacency::{runs, AdjacencyCensus, EdgeStore, Run};
use s_graffito::core::physical::forest::ForestCensus;
use s_graffito::core::physical::spath::SPathOp;
use s_graffito::core::physical::{PatternCensus, PhysicalOp};
use s_graffito::datagen::workloads::{self, Dataset};
use s_graffito::datagen::{snb_stream, so_stream, SnbConfig, SoConfig};
use s_graffito::multiquery::{MultiQueryEngine, QueryId, ResultRow, SinkCensus};
use s_graffito::prelude::*;
use s_graffito::serve::client::Client;
use s_graffito::serve::server::{ServeConfig, Server};
use s_graffito::types::time::window_interval;
use s_graffito::types::{Delta, Interval, IntervalSet, Sge, VertexId};

/// One routed result as a subscriber sees it:
/// `(is_delete, src, trg, ts, exp)`.
type Row = (bool, u64, u64, u64, u64);

fn row(delete: bool, r: &ResultRow) -> Row {
    (delete, r.src.0, r.trg.0, r.interval.ts, r.interval.exp)
}

fn host(suppress_duplicates: bool) -> MultiQueryEngine {
    MultiQueryEngine::with_options(EngineOptions {
        suppress_duplicates,
        ..Default::default()
    })
}

/// A host configured like `sgq-serve`'s: RESULT frames carry answer
/// pairs only, so no path is materialized.
fn serve_host() -> MultiQueryEngine {
    MultiQueryEngine::with_options(EngineOptions {
        materialize_paths: false,
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
    out.extend(twin.drain(id).iter().map(|s| row(false, &ResultRow::of(s))));
    let deleted = &twin.deleted_results(id)[*cursor..];
    out.extend(deleted.iter().map(|s| row(true, &ResultRow::of(s))));
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
/// subscriber of its root was handed it **and** it is expired — under
/// duplicate suppression, expired at the last sink purge, because until
/// then the root's coverage reads the row.
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
    // Expired at 70, but the host purges sinks every other tick, last at
    // 69: the census shows the row held for the coverage until 71.
    e.advance_time(70);
    assert_eq!(e.release_delivered(), 0);
    assert_eq!(e.sink_censuses()[0].1.log_expired, 1);
    e.advance_time(71);
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
            .map(|s| row(false, &ResultRow::of(s)))
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

/// A sliding sum: what was counted in the last `horizon` ticks. With
/// `horizon = W + slide` it is what the window bound allows to be held
/// right after a slide's drain + release (everything older is delivered
/// and expired) or purge (everything older was written with an expiry the
/// purge has popped).
struct EmissionWindow {
    horizon: u64,
    counts: VecDeque<(u64, usize)>,
}

impl EmissionWindow {
    fn new(horizon: u64) -> Self {
        EmissionWindow {
            horizon,
            counts: VecDeque::new(),
        }
    }

    fn allowed(&mut self, now: u64, emitted: usize) -> usize {
        self.counts.push_back((now, emitted));
        while self
            .counts
            .front()
            .is_some_and(|&(t, _)| t + self.horizon <= now)
        {
            self.counts.pop_front();
        }
        self.counts.iter().map(|&(_, n)| n).sum()
    }
}

/// ≥ 50 window turnovers of SO `a2q*` through the serve loop's cadence —
/// ingest a slide, route every subscription, release — in process: after
/// every slide the retained log fits the window bound, widened by the
/// spacing of sink purges, and the routed stream equals an unreleased
/// host's.
#[test]
fn soak_retained_log_stays_within_the_window_bound() {
    let q = SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(SOAK_WINDOW, SOAK_SLIDE),
    );
    let (mut live, mut twin) = (serve_host(), serve_host());
    let id = live.register(&q);
    assert_eq!(twin.register(&q), id);
    let a2q = live.labels().get("a2q").unwrap();

    let (mut live_rows, mut twin_rows, mut cursor) = (Vec::new(), Vec::new(), 0);
    // A suppressing sink keeps expired rows until a sink purge passes
    // them; the host purges at the first slide boundary a quarter window
    // after the last one.
    let purge_spacing = (SOAK_WINDOW / 4).div_ceil(SOAK_SLIDE) * SOAK_SLIDE;
    let mut window = EmissionWindow::new(SOAK_WINDOW + SOAK_SLIDE + purge_spacing);
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
        for (root, c) in live.sink_censuses() {
            assert_sink_bytes_bounded(&format!("t={}", live.now()), root, &c);
        }
        let allowed = window.allowed(live.now(), live_rows.len() - before);
        assert!(
            retained <= allowed,
            "t={}: {retained} retained, the last W + slide + purge spacing ticks emitted {allowed}",
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
    let mut window = EmissionWindow::new(SOAK_WINDOW + SOAK_SLIDE);
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

// ---------------------------------------------------------------------
// (d) operator state: the Δ-PATH index holds what the window holds
// ---------------------------------------------------------------------

const OP_SLIDE: u64 = 8;
const OP_WINDOW: u64 = 10 * OP_SLIDE;
const OP_WINDOWS: u64 = 42;
/// Source vertices never seen before, per slide (each roots a tree).
const OP_FRESH: u64 = 4;
/// Edges per slide among the recurring population of `OP_POPULATION`.
const OP_RECURRING: u64 = 6;
const OP_POPULATION: u64 = 12;
/// What the size of the state is held against, sampled when a slide's
/// input is in and nothing of it has expired yet.
#[derive(Default, Clone, Copy)]
struct Content {
    trees: usize,
    nodes: usize,
    edges: usize,
}

/// Bytes a PATH operator's forest may reserve per node or root of the
/// most it has held at once: a 56-byte slab node in a `Vec` grown by
/// doubling, an 8-byte slot per `(vertex, state)` in an index at most 3/4
/// full, a 4-byte tree slot, and pending expiry handles. Over the tests
/// below the most seen is 136; the layout before this bound (three hash
/// maps beside the slab) reached 192–212 in each of them.
const FOREST_BYTES_PER_PEAK_NODE: usize = 160;
/// Bytes an edge store may reserve per edge of the most it has held at
/// once: a 56-byte row in a `Vec` grown by doubling, an 8-byte index slot
/// per key and direction at most 3/4 full, and 4-byte pending expiry
/// handles. Over the tests below the most seen is 156; two maps of
/// per-key lists with 24-byte expiry handles reached 209 and 254 in the
/// two stream tests.
const ADJACENCY_BYTES_PER_PEAK_EDGE: usize = 176;

/// Checks one post-purge forest census against the window's content.
/// `peak` is the largest content any slide has held (slots and capacity
/// are high-water marks: a slot freed by a purge is reused, not
/// returned), `node_writes` the interval writes of the slides that can
/// still have a handle pending.
fn assert_forest_bounded(at: &str, f: &ForestCensus, peak: Content, node_writes: usize) {
    // Exact, whatever the stream.
    assert_eq!(
        f.root_only_trees, 0,
        "{at}: a root-only tree outlived a purge"
    );
    assert_eq!(f.roots, f.live_trees, "{at}: {f:?}");
    assert_eq!(f.indexed_nodes, f.live_nodes + f.live_trees, "{at}: {f:?}");
    assert_eq!(f.retire_candidates, 0, "{at}: {f:?}");
    assert!(f.keys <= f.live_nodes + f.live_trees, "{at}: {f:?}");
    // Slots: at most the most trees / twice the most nodes ever live at once.
    assert!(
        f.tree_slots <= peak.trees,
        "{at}: {f:?}, peak trees {}",
        peak.trees
    );
    assert!(
        f.node_slots <= 2 * (peak.nodes + peak.trees),
        "{at}: {f:?}, peak nodes {} in {} trees",
        peak.nodes,
        peak.trees
    );
    // Bytes: capacity follows the whole forest's peak, not the sum of
    // what each recycled slot once held.
    assert!(
        f.reserved_bytes <= FOREST_BYTES_PER_PEAK_NODE * (peak.nodes + peak.trees),
        "{at}: {f:?}, peak nodes {} in {} trees",
        peak.nodes,
        peak.trees
    );
    // Pending handles: one per interval write of the last W + β ticks.
    assert!(
        f.expiry_handles <= node_writes,
        "{at}: {f:?}, {node_writes} node writes"
    );
}

/// [`assert_forest_bounded`] for an edge store: `peak_edges` is the most
/// edges it has held at once, `edge_writes` the interval writes that can
/// still have a handle pending.
fn assert_store_bounded(at: &str, a: &AdjacencyCensus, peak_edges: usize, edge_writes: usize) {
    assert_eq!((a.out_rows, a.inc_rows), (a.edges, a.edges), "{at}: {a:?}");
    assert!(
        a.out_keys <= a.edges && a.inc_keys <= a.edges,
        "{at}: {a:?}"
    );
    assert!(
        a.edges <= peak_edges,
        "{at}: {a:?}, peak edges {peak_edges}"
    );
    assert!(
        a.row_slots <= 2 * peak_edges,
        "{at}: {a:?}, peak edges {peak_edges}"
    );
    assert!(
        a.reserved_bytes <= ADJACENCY_BYTES_PER_PEAK_EDGE * peak_edges,
        "{at}: {a:?}, peak edges {peak_edges}"
    );
    assert!(
        a.expiry_handles <= edge_writes,
        "{at}: {a:?}, {edge_writes} edge writes"
    );
}

/// The forest sizes that must not follow the stream's length.
fn forest_footprint(f: &ForestCensus) -> [usize; 6] {
    [
        f.tree_slots,
        f.node_slots,
        f.roots,
        f.keys,
        f.expiry_handles,
        f.live_nodes,
    ]
}

/// The store sizes that must not follow the stream's length.
fn store_footprint(a: &AdjacencyCensus) -> [usize; 3] {
    [a.out_keys + a.inc_keys, a.expiry_handles, a.edges]
}

/// Folds `now` into the element-wise maximum `peak`.
fn fold_max<const N: usize>(peak: &mut [usize; N], now: [usize; N]) {
    for (p, n) in peak.iter_mut().zip(now) {
        *p = (*p).max(n);
    }
}

/// Asserts that no size in `now` exceeds `then` by more than half.
fn assert_within_half<const N: usize>(at: &str, then: [usize; N], now: [usize; N]) {
    for (i, (then, now)) in then.iter().zip(now).enumerate() {
        assert!(
            2 * now <= 3 * then,
            "{at}: size #{i} was at most {then} and is {now}"
        );
    }
}

/// An S-PATH and the edge store of its one input, driven the way the
/// dataflow drives a store and its reader: a batch is applied to the
/// store run by run, and the operator reads each run before the next.
struct SoloPath {
    op: SPathOp,
    store: EdgeStore,
}

impl SoloPath {
    fn plus(a: Label) -> SoloPath {
        SoloPath {
            op: SPathOp::new(&Regex::plus(Regex::label(a)), Label(9)),
            store: EdgeStore::new(a),
        }
    }

    fn on_batch(&mut self, batch: &[Delta], now: u64) {
        let mut out = Vec::new();
        for run in runs(batch) {
            match run {
                Run::Inserts(run) => {
                    self.store.load(run);
                    let load = std::iter::once(self.store.epoch_load());
                    self.op.insert_pass(&self.store, load, now, &mut out);
                }
                Run::Delete(s) => {
                    self.store.remove(s);
                    self.op.delete(&self.store, s, now, &mut out);
                }
            }
        }
    }

    fn purge(&mut self, watermark: u64) {
        self.store.purge(watermark);
        self.op.purge(watermark, &mut Vec::new());
    }

    fn forest(&self) -> ForestCensus {
        self.op.path_census().unwrap().forest
    }

    /// Folds the content the operator and its store hold into `peak`.
    fn fold_content(&self, peak: &mut Content) {
        let (f, a) = (self.forest(), self.store.census());
        peak.trees = peak.trees.max(f.live_trees);
        peak.nodes = peak.nodes.max(f.live_nodes);
        peak.edges = peak.edges.max(a.edges);
    }

    fn assert_bounded(&self, at: &str, peak: Content, node_writes: usize, edge_writes: usize) {
        assert_forest_bounded(at, &self.forest(), peak, node_writes);
        assert_store_bounded(at, &self.store.census(), peak.edges, edge_writes);
    }
}

/// Drives `a+` through an S-PATH and its store for `OP_WINDOWS` windows:
/// per slide `OP_FRESH` edges from never-seen sources plus
/// `OP_RECURRING` edges among a fixed population, in two epochs; with
/// `deletions`, two of the window's edges are deleted per slide. After
/// **every** purge both censuses are held against the window's content,
/// every stored interval is live, and no size at the end exceeds what the
/// second window reached by more than half.
fn drive_spath_and_hold_the_bound(deletions: bool) {
    let a = Label(0);
    let mut path = SoloPath::plus(a);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let mut minted = 1_000u64;
    let mut in_window: VecDeque<Sgt> = VecDeque::new();
    let mut peak = Content::default();
    // An interval written in the slide at `base` expires by `base + W`.
    let horizon = OP_WINDOW + OP_SLIDE;
    let (mut node_writes, mut edge_writes) =
        (EmissionWindow::new(horizon), EmissionWindow::new(horizon));
    let mut improved_before = 0;
    let (mut second_window, mut last) = (([0; 6], [0; 3]), ([0; 6], [0; 3]));
    for slide in 0..OP_WINDOWS * OP_WINDOW / OP_SLIDE {
        let base = slide * OP_SLIDE;
        let mut ops: Vec<Delta> = Vec::new();
        for k in 0..OP_FRESH + OP_RECURRING {
            let t = base + k * OP_SLIDE / (OP_FRESH + OP_RECURRING);
            let src = if k % 2 == 0 && k / 2 < OP_FRESH {
                minted += 1;
                minted
            } else {
                next(OP_POPULATION)
            };
            let s = Sgt::edge(
                VertexId(src),
                VertexId(next(OP_POPULATION)),
                a,
                window_interval(t, OP_WINDOW, OP_SLIDE),
            );
            in_window.push_back(s.clone());
            ops.push(Delta::Insert(s));
            if deletions && k % 5 == 4 {
                let victim = in_window.remove(next(in_window.len() as u64) as usize);
                ops.push(Delta::Delete(victim.unwrap()));
            }
        }
        let writes = ops.len();
        let cut = 1 + next(writes as u64 - 1) as usize;
        for epoch in [&ops[..cut], &ops[cut..]] {
            let now = epoch[0].sgt().interval.ts.max(base);
            path.on_batch(epoch, now);
        }
        path.fold_content(&mut peak);
        let improved = path.op.frontier_stats().unwrap().nodes_improved as usize;
        let node_writes = node_writes.allowed(base, improved - improved_before);
        let edge_writes = edge_writes.allowed(base, writes);
        improved_before = improved;

        let watermark = base + OP_SLIDE;
        path.purge(watermark);
        while in_window
            .front()
            .is_some_and(|s| s.interval.exp <= watermark)
        {
            in_window.pop_front();
        }
        let at = format!("deletions={deletions} purge({watermark})");
        path.assert_bounded(&at, peak, node_writes, edge_writes);
        let (f, a) = (path.forest(), path.store.census());
        assert_eq!(f.live_nodes, path.op.state_size(), "{at}");
        assert_eq!(a.edges, path.store.size(), "{at}");
        let forest = path.op.forest();
        for t in forest.tree_ids() {
            let tree = forest.tree(t);
            assert!(tree.live_nodes() > 0, "{at}: root-only tree {t}");
            for i in tree.iter_live() {
                let iv: Interval = tree.node(i).interval;
                assert!(!iv.expired_at(watermark), "{at}: tree {t} holds {iv:?}");
            }
        }
        let window = watermark / OP_WINDOW;
        last = (forest_footprint(&f), store_footprint(&a));
        if window == 2 {
            fold_max(&mut second_window.0, last.0);
            fold_max(&mut second_window.1, last.1);
        }
    }
    assert!(minted - 1_000 >= 40 * OP_FRESH * OP_WINDOW / OP_SLIDE);
    let at = format!("deletions={deletions}, window 2 -> window {OP_WINDOWS}");
    assert_within_half(&at, second_window.0, last.0);
    assert_within_half(&at, second_window.1, last.1);
}

#[test]
fn spath_state_is_bounded_by_the_window_append_only() {
    drive_spath_and_hold_the_bound(false);
}

#[test]
fn spath_state_is_bounded_by_the_window_under_explicit_deletions() {
    drive_spath_and_hold_the_bound(true);
}

/// Inserts `edges` as one epoch at `now` and folds the content it leaves
/// into `peak`.
fn insert_epoch(path: &mut SoloPath, edges: &[(u64, u64, Interval)], now: u64, peak: &mut Content) {
    let batch: Vec<Delta> = edges
        .iter()
        .map(|&(s, t, iv)| Delta::Insert(Sgt::edge(VertexId(s), VertexId(t), Label(0), iv)))
        .collect();
    path.on_batch(&batch, now);
    path.fold_content(peak);
}

/// Capacity must not be a per-slot high-water mark. Each round a root
/// never seen before grows a tree of `BIG` nodes that expires before the
/// next round; the purge retires it, and a one-node tree that outlives
/// the run takes its slot, so the next big tree needs another slot. After
/// every purge the operator's and its store's reserved bytes are held
/// against the most they ever held live at once — one big tree and the
/// small ones — however many slots have held a big tree.
#[test]
fn a_retired_big_tree_leaves_no_capacity_in_its_slot() {
    const BIG: u64 = 1_000;
    const ROUNDS: u64 = 12;
    const ROUND: u64 = 100;
    let mut path = SoloPath::plus(Label(0));
    let mut peak = Content::default();
    let mut edges = 0;
    for round in 0..ROUNDS {
        let (base, hub) = (round * ROUND, 1_000_000 + round);
        let star: Vec<_> = (0..BIG)
            .map(|k| {
                let leaf = 2_000_000 + round * BIG + k;
                (hub, leaf, Interval::new(base, base + ROUND))
            })
            .collect();
        insert_epoch(&mut path, &star, base, &mut peak);
        path.purge(base + ROUND);
        assert_eq!(
            path.op.forest().tree_of_root(VertexId(hub)),
            None,
            "retired"
        );
        let (src, trg) = (3_000_000 + round, 4_000_000 + round);
        let small = [(src, trg, Interval::new(base + ROUND, u64::MAX))];
        insert_epoch(&mut path, &small, base + ROUND, &mut peak);
        path.purge(base + ROUND);
        edges += star.len() + small.len();
        // The small tree took the big one's slot; the next big one opens
        // a new slot.
        assert_eq!(path.forest().tree_slots as u64, round + 1);
        let writes = path.op.frontier_stats().unwrap().nodes_improved as usize;
        path.assert_bounded(&format!("round {round}"), peak, writes, edges);
    }
}

// ---------------------------------------------------------------------
// (e) long soak: a fleet's PATH and PATTERN operators, edge stores and
//     the process stop growing
// ---------------------------------------------------------------------

const FLEET_EDGES: usize = 1_050_000;
const FLEET_SLIDE: u64 = 50;
const FLEET_WINDOW: u64 = 20 * FLEET_SLIDE;
/// Slides between two census checks.
const FLEET_CHECK_EVERY: u64 = 100;

/// Resident set of this process, MB (`VmRSS` of `/proc/self/status`).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kb / 1024.0
}

/// A fleet's reserved bytes by kind of state: S-PATH forests, edge
/// stores, PATTERN tables, root sinks and the catch-up input history.
#[derive(Default, Clone, Copy)]
struct FleetBytes {
    path: usize,
    store: usize,
    pattern: usize,
    sink: usize,
    history: usize,
}

impl FleetBytes {
    fn of(host: &MultiQueryEngine) -> FleetBytes {
        FleetBytes {
            path: host
                .path_censuses()
                .iter()
                .map(|(_, c)| c.reserved_bytes())
                .sum(),
            store: host
                .store_censuses()
                .iter()
                .map(|(_, c)| c.reserved_bytes)
                .sum(),
            pattern: host
                .pattern_censuses()
                .iter()
                .map(|(_, c)| c.reserved_bytes)
                .sum(),
            sink: sink_bytes(host),
            history: host.history_census().1,
        }
    }

    /// `(name, bytes)` per kind, in print order.
    fn kinds(&self) -> [(&'static str, usize); 5] {
        [
            ("PATH", self.path),
            ("STORE", self.store),
            ("PATTERN", self.pattern),
            ("SINK", self.sink),
            ("HISTORY", self.history),
        ]
    }

    fn line(&self) -> String {
        let kinds = self
            .kinds()
            .map(|(kind, b)| format!("{kind} reserved_bytes={b}"));
        kinds.join(" ")
    }
}

/// More than 10⁶ SNB edges (about a thousand windows) through a host with
/// the Q1–Q7 fleet, routed and released like the serve loop does. Every
/// `FLEET_CHECK_EVERY` slides each PATH operator's forest and each edge
/// store is held against its own window content, and against what it
/// held during the first ten windows; the fleet's reserved PATH, STORE,
/// PATTERN, root-sink and catch-up history bytes must each stay within
/// half again of what they were at window 10, and the process's resident
/// set must not follow the stream either. Prints all of them at window 10
/// and at the end.
/// Release build: `cargo test --release --test bounded_state -- --ignored
/// --nocapture`.
#[test]
#[ignore = "long soak; CI's check job runs it in release"]
fn soak_fleet_path_state_and_rss_stop_growing() {
    let mut live = serve_host();
    let ids: Vec<QueryId> = (1..=7)
        .map(|n| {
            live.register(&SgqQuery::new(
                workloads::query(n, Dataset::Snb),
                WindowSpec::new(FLEET_WINDOW, FLEET_SLIDE),
            ))
        })
        .collect();
    let raw = snb_stream(&SnbConfig::new(2_000, FLEET_EDGES));
    let stream = s_graffito::datagen::resolve(&raw, live.labels());
    drop(raw);
    assert!(stream.sges().len() >= 1_000_000, "{}", stream.sges().len());

    // Per PATH operator and per edge store (by node id): its footprint's
    // peak over the first ten windows, and the most it has been seen to
    // hold.
    let mut early_forest: BTreeMap<usize, [usize; 6]> = BTreeMap::new();
    let mut early_store: BTreeMap<usize, [usize; 3]> = BTreeMap::new();
    let mut peak: BTreeMap<usize, Content> = BTreeMap::new();
    let (mut rss_early, mut checks, mut next_check) = (0.0f64, 0, FLEET_CHECK_EVERY);
    let (mut bytes_early, mut bytes) = (FleetBytes::default(), FleetBytes::default());
    for batch in stream.sges().chunks(256) {
        live.ingest_batch(batch);
        for &id in &ids {
            live.for_each_undelivered(id, |_, _| {});
        }
        live.release_delivered();
        // Content after every batch (nothing of its last slide has been
        // purged away yet).
        for (node, held) in live.path_censuses() {
            let p = peak.entry(node).or_default();
            p.trees = p.trees.max(held.forest.live_trees);
            p.nodes = p.nodes.max(held.forest.live_nodes);
        }
        for (node, held) in live.store_censuses() {
            let p = peak.entry(node).or_default();
            p.edges = p.edges.max(held.edges);
        }
        let slide = live.now() / FLEET_SLIDE;
        if slide < next_check {
            continue;
        }
        next_check = slide + FLEET_CHECK_EVERY;
        live.purge_all(slide * FLEET_SLIDE);
        let window = slide * FLEET_SLIDE / FLEET_WINDOW;
        // Sampled once per 256-edge batch, which spans several slides and
        // purges, so not the true peak.
        let loose = |p: Content| Content {
            trees: 2 * p.trees + 16,
            nodes: 2 * p.nodes + 16,
            edges: 2 * p.edges + 16,
        };
        // Each footprint against its peak over the first ten windows.
        let held_early = |at: &str, then: &[usize], now: &[usize]| {
            for (i, (e, n)) in then.iter().zip(now).enumerate() {
                assert!(
                    *n <= 2 * e + 64,
                    "{at}: size #{i} is {n}, it peaked at {e} in the first ten windows"
                );
            }
        };
        let censuses = live.path_censuses();
        assert!(censuses.len() >= 4, "the fleet has PATH operators");
        for (node, c) in &censuses {
            let p = peak[node];
            let at = format!("operator {node}, window {window}");
            assert_eq!(c.adjacency, None, "{at}: an S-PATH reads edge stores");
            // Handles: every live entry has one, and an entry is rewritten
            // a bounded number of times while it is in the window.
            assert_forest_bounded(&at, &c.forest, loose(p), 4 * (p.nodes + p.trees) + 64);
            let now = forest_footprint(&c.forest);
            let then = early_forest.entry(*node).or_default();
            if window <= 10 {
                fold_max(then, now);
            } else {
                held_early(&at, then, &now);
            }
        }
        let stores = live.store_censuses();
        assert!(
            !stores.is_empty(),
            "the fleet's S-PATHs and PATTERNs read edge stores"
        );
        for (node, a) in &stores {
            let p = peak[node];
            let at = format!("store of node {node}, window {window}");
            assert_store_bounded(&at, a, loose(p).edges, 4 * p.edges + 64);
            let now = store_footprint(a);
            let then = early_store.entry(*node).or_default();
            if window <= 10 {
                fold_max(then, now);
            } else {
                held_early(&at, then, &now);
            }
        }
        let patterns = live.pattern_censuses();
        assert!(!patterns.is_empty(), "the fleet has PATTERN operators");
        for (node, c) in &patterns {
            let at = format!("PATTERN operator {node}, window {window}");
            assert_eq!((c.empty_rows, c.dedup_empty), (0, 0), "{at}: {c:?}");
            assert_eq!(c.leaf_rows, 0, "{at}: leaves are read from edge stores");
            assert!(c.keys <= c.rows, "{at}: {c:?}");
        }
        for (root, c) in live.sink_censuses() {
            assert_sink_bytes_bounded(&format!("window {window}"), root, &c);
        }
        bytes = FleetBytes::of(&live);
        if window <= 10 {
            rss_early = rss_mb();
            bytes_early = bytes;
        } else {
            for ((kind, now), (_, then)) in bytes.kinds().into_iter().zip(bytes_early.kinds()) {
                assert!(
                    2 * now <= 3 * then,
                    "window {window}: {kind} state reserves {now} B, {then} B at window 10"
                );
            }
        }
        checks += 1;
    }
    assert!(checks >= 100, "{checks} checks");
    let rss_end = rss_mb();
    println!("window 10: {} VmRSS={rss_early:.1} MB", bytes_early.line());
    println!("end:       {} VmRSS={rss_end:.1} MB", bytes.line());
    assert!(
        rss_early > 0.0 && rss_end <= rss_early + 24.0,
        "resident set grew from {rss_early:.1} MB (window 10) to {rss_end:.1} MB"
    );
}

// ---------------------------------------------------------------------
// (f) operator state: PATTERN join tables, output dedup and leaf stores
//     hold what the window holds
// ---------------------------------------------------------------------

/// What [`PATTERN_RESERVED_PER_ROW_BYTE`] is a multiple of: a join row of
/// the widest stage in these tests (four vertex ids, Q5's last left
/// table) with its validity and its two chain links, and an output dedup
/// pair with its validity.
const PATTERN_ROW_BYTES: usize =
    4 * std::mem::size_of::<VertexId>() + std::mem::size_of::<IntervalSet>() + 8;
const DEDUP_PAIR_BYTES: usize =
    2 * std::mem::size_of::<VertexId>() + std::mem::size_of::<IntervalSet>();
/// Bytes a PATTERN operator may reserve per byte of the most rows and
/// dedup pairs it has held at once. The rest is two 8-byte index slots
/// per row at most 3/4 full and grown by doubling, `Vec`s grown by
/// doubling, the dedup hash table, and one pending expiry handle per
/// interval write of the last window in per-expiry lists.
const PATTERN_RESERVED_PER_ROW_BYTE: usize = 8;

/// The two shapes of join tree the bound is held on.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// SNB Q5: `knows(x, y), hasCreator(m1, x), hasCreator(m2, y),
    /// replyOf(m2, m1) → (m1, m2)` — three stages, keys of width one and
    /// two, two leaves reading the one `hasCreator` store.
    Q5,
    /// `a(x, y), b(y, z) → (x, z)` with most `a` edges into one hub `y`:
    /// one key holding a window's worth of edges.
    HighFanout,
}

/// `shape`'s PATTERN over WSCANs (`OP_WINDOW`, `OP_SLIDE`) of its inputs,
/// and the number of distinct inputs (Q5's two `hasCreator` leaves read
/// input 1).
fn pattern_expr(shape: Shape) -> (SgaExpr, usize) {
    let scan = |input: u32| SgaExpr::WScan {
        label: Label(input),
        window: OP_WINDOW,
        slide: OP_SLIDE,
    };
    let (ports, conditions, output, inputs) = match shape {
        Shape::Q5 => (
            vec![0, 1, 1, 2],
            vec![
                (Pos::src(0), Pos::trg(1)),
                (Pos::trg(0), Pos::trg(2)),
                (Pos::src(2), Pos::src(3)),
                (Pos::src(1), Pos::trg(3)),
            ],
            (Pos::src(1), Pos::src(2)),
            3,
        ),
        Shape::HighFanout => (
            vec![0, 1],
            vec![(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            2,
        ),
    };
    let expr = SgaExpr::Pattern {
        inputs: ports.into_iter().map(scan).collect(),
        conditions,
        output,
        label: Label(9),
    };
    (expr, inputs)
}

/// Checks one post-purge census against the most rows and dedup pairs
/// the operator has held and the interval writes that can still have a
/// handle pending.
fn assert_pattern_bounded(at: &str, c: &PatternCensus, peak: (usize, usize), writes: usize) {
    let (rows, dedup) = peak;
    assert_eq!(c.empty_rows, 0, "{at}: an empty row outlived a purge");
    assert_eq!(c.dedup_empty, 0, "{at}: {c:?}");
    assert_eq!(c.leaf_rows, 0, "{at}: leaves are read from edge stores");
    assert!(c.keys <= c.rows, "{at}: {c:?}");
    assert!(c.row_slots <= 2 * rows, "{at}: {c:?}, peak rows {rows}");
    let held = rows * PATTERN_ROW_BYTES + dedup * DEDUP_PAIR_BYTES;
    assert!(
        c.reserved_bytes <= PATTERN_RESERVED_PER_ROW_BYTE * held,
        "{at}: {c:?}, peak rows {rows}, dedup pairs {dedup}"
    );
    assert!(
        c.expiry_handles <= writes,
        "{at}: {c:?}, {writes} interval writes"
    );
}

/// Drives `shape` through a dataflow for `OP_WINDOWS` windows of inputs
/// that mint vertex ids without end, in two epochs per slide, with the
/// PATTERN in join order `order`; with `deletions` (suppression off, as
/// in deletion pipelines) two of the window's edges per input are deleted
/// per slide. The hash-join tree's tables hold the intermediate bindings
/// (the generic join holds none) and the edge stores its leaves read hold
/// the inputs' edges. After **every** purge the PATTERN census is
/// held against the most the operator has held and each store's against
/// the most edges it has held, and no size at the end exceeds what the
/// first ten windows reached by more than half (the joins are bursty:
/// their content settles later than a PATH operator's).
fn drive_pattern_and_hold_the_bound(shape: Shape, order: PatternImpl, deletions: bool) {
    let (expr, inputs) = pattern_expr(shape);
    let mut flow = Dataflow::new(EngineOptions {
        suppress_duplicates: !deletions,
        pattern_impl: order,
        ..Default::default()
    });
    flow.lower(&expr);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let mut minted = 1_000u64;
    // Messages of the last window (Q5's replies point at them).
    let mut messages: VecDeque<u64> = VecDeque::new();
    let mut in_window: Vec<VecDeque<Sgt>> = vec![VecDeque::new(); inputs];
    let (mut peak, mut peak_edges, mut writes_before) = ((0, 0), vec![0; inputs], 0);
    let mut writes = EmissionWindow::new(OP_WINDOW + OP_SLIDE);
    let mut edge_writes: Vec<EmissionWindow> = (0..inputs)
        .map(|_| EmissionWindow::new(OP_WINDOW + OP_SLIDE))
        .collect();
    let mut first_windows = [0usize; 8];
    let mut last = [0usize; 8];
    for slide in 0..OP_WINDOWS * OP_WINDOW / OP_SLIDE {
        let base = slide * OP_SLIDE;
        let mut edges: Vec<(usize, u64, u64)> = Vec::new();
        match shape {
            Shape::Q5 => {
                // Persons: a recurring population and one newcomer.
                minted += 1;
                let newcomer = minted;
                let person = |k: u64| if k == 0 { newcomer } else { k };
                for _ in 0..6 {
                    edges.push((0, person(next(OP_POPULATION)), person(next(OP_POPULATION))));
                }
                for _ in 0..4 {
                    minted += 1;
                    let creator = person(next(OP_POPULATION));
                    edges.push((1, minted, creator));
                    if !messages.is_empty() {
                        let parent = messages[next(messages.len() as u64) as usize];
                        edges.push((2, minted, parent));
                    }
                    messages.push_back(minted);
                }
                while messages.len() > 4 * (OP_WINDOW / OP_SLIDE) as usize {
                    messages.pop_front();
                }
            }
            Shape::HighFanout => {
                const HUB: u64 = 0;
                for k in 0..14 {
                    minted += 1;
                    let y = if k < 12 { HUB } else { 1 + next(OP_POPULATION) };
                    edges.push((0, minted, y));
                }
                for k in 0..3 {
                    let y = if k < 2 { HUB } else { 1 + next(OP_POPULATION) };
                    minted += 1;
                    edges.push((1, y, if k == 0 { minted } else { next(OP_POPULATION) }));
                }
            }
        }
        let mut ops: Vec<(Label, Delta)> = Vec::new();
        for (k, &(input, src, trg)) in edges.iter().enumerate() {
            let t = base + k as u64 * OP_SLIDE / edges.len() as u64;
            let s = Sgt::edge(
                VertexId(src),
                VertexId(trg),
                Label(input as u32),
                window_interval(t, OP_WINDOW, OP_SLIDE),
            );
            in_window[input].push_back(s.clone());
            ops.push((s.label, Delta::Insert(s)));
        }
        // The most edges a store holds: a batch that deletes is applied
        // run by run, so its inserts are all in before its deletions.
        for (p, live) in peak_edges.iter_mut().zip(&in_window) {
            *p = live.len().max(*p);
        }
        if deletions {
            for live in &mut in_window {
                for _ in 0..2 {
                    if let Some(victim) = live.remove(next(live.len() as u64 + 1) as usize) {
                        ops.push((victim.label, Delta::Delete(victim)));
                    }
                }
            }
        }
        let cut = 1 + next(ops.len() as u64 - 1) as usize;
        for epoch in [&ops[..cut], &ops[cut..]] {
            flow.ingest_epoch(epoch.iter().cloned(), base, |_, _| {});
            let (_, c) = flow.pattern_censuses()[0];
            peak = (peak.0.max(c.rows), peak.1.max(c.dedup_pairs));
        }
        let (_, c) = flow.pattern_censuses()[0];
        let writes = writes.allowed(base, c.interval_writes - writes_before);
        writes_before = c.interval_writes;
        let edge_writes: Vec<usize> = (edge_writes.iter_mut().enumerate())
            .map(|(input, w)| {
                let label = Label(input as u32);
                w.allowed(base, ops.iter().filter(|(l, _)| *l == label).count())
            })
            .collect();

        let watermark = base + OP_SLIDE;
        flow.purge(watermark, watermark, true, |_, _| {});
        for live in &mut in_window {
            while live.front().is_some_and(|s| s.interval.exp <= watermark) {
                live.pop_front();
            }
        }
        let (_, c) = flow.pattern_censuses()[0];
        let at = format!("{shape:?} {order:?} deletions={deletions} purge({watermark})");
        assert_pattern_bounded(&at, &c, peak, writes);
        let stores = flow.store_censuses();
        assert_eq!(stores.len(), inputs, "{at}: one store per input");
        let mut store_sizes = [0usize; 3];
        // Stores in node order: the WSCANs of inputs 0, 1, ... in turn.
        for (input, (_, a)) in stores.iter().enumerate() {
            let at = format!("{at}, store of input {input}");
            assert_store_bounded(&at, a, peak_edges[input], edge_writes[input]);
            for (sum, size) in store_sizes.iter_mut().zip(store_footprint(a)) {
                *sum += size;
            }
        }
        let stored: usize = stores.iter().map(|(_, a)| a.edges).sum();
        assert_eq!(c.rows + stored, flow.state_size(), "{at}");
        let [a, b, c_] = store_sizes;
        last = [
            c.row_slots,
            c.keys,
            c.rows,
            c.dedup_pairs,
            c.expiry_handles,
            a,
            b,
            c_,
        ];
        if watermark <= 10 * OP_WINDOW {
            for (then, now) in first_windows.iter_mut().zip(last) {
                *then = (*then).max(now);
            }
        }
    }
    let intermediate = matches!((shape, order), (Shape::Q5, PatternImpl::HashTree));
    assert!(
        (peak.0 > 0) == intermediate && (deletions || peak.1 > 0),
        "{shape:?} {order:?}: {peak:?}"
    );
    assert!(peak_edges.iter().all(|&p| p > 0), "{peak_edges:?}");
    for (i, (then, now)) in first_windows.iter().zip(last).enumerate() {
        assert!(
            2 * now <= 3 * then,
            "{shape:?} {order:?} deletions={deletions}: size #{i} was at most {then} in the first ten \
             windows and is {now} after window {OP_WINDOWS}: {first_windows:?} -> {last:?}"
        );
    }
}

#[test]
fn pattern_state_is_bounded_by_the_window_q5_shape() {
    for order in [PatternImpl::HashTree, PatternImpl::Wcoj] {
        drive_pattern_and_hold_the_bound(Shape::Q5, order, false);
        drive_pattern_and_hold_the_bound(Shape::Q5, order, true);
    }
}

#[test]
fn pattern_state_is_bounded_by_the_window_high_fanout_key() {
    for order in [PatternImpl::HashTree, PatternImpl::Wcoj] {
        drive_pattern_and_hold_the_bound(Shape::HighFanout, order, false);
        drive_pattern_and_hold_the_bound(Shape::HighFanout, order, true);
    }
}

// ---------------------------------------------------------------------
// (g) sink state: each root sink's dedup pairs and result logs hold what
//     is live
// ---------------------------------------------------------------------

/// Log slots a sink may reserve per retained result, plus per log.
const LOG_SLOTS_PER_RETAINED: usize = 3;
const LOG_SLOTS_PER_LOG: usize = 4;

/// Bytes a root sink may reserve per insert-log slot: the row and the
/// 4-byte link that chains it to its pair's older coverage pieces.
const SINK_BYTES_PER_SLOT: usize = std::mem::size_of::<ResultRow>() + 4;
/// One coverage index slot: a row id and a hash tag.
const INDEX_SLOT_BYTES: usize = 8;
/// Bytes a root sink may reserve per coverage pair it holds: index slots,
/// a power of two of them, more than 3/8 full once past the smallest
/// table (growth doubles at 3/4; a purge shrinks to what growth reaches).
const SINK_BYTES_PER_PAIR: usize = 3 * INDEX_SLOT_BYTES;
/// Bytes a root sink may reserve beyond its log slots and pairs: the
/// smallest index table and a subscriber list of up to four.
const SINK_BYTES_FIXED: usize = 8 * INDEX_SLOT_BYTES + 4 * std::mem::size_of::<(u64, Label)>();

/// Holds a root sink's reserved bytes to a row and a link per insert-log
/// slot plus a fixed count of index slots per coverage pair: the insert
/// log holds 32-byte rows, not sgts, the coverage reads its pieces from
/// those rows, and its index is sized to its pairs, not to the most it
/// ever held. For append-only hosts (their negative-tuple log is empty).
fn assert_sink_bytes_bounded(at: &str, root: usize, c: &SinkCensus) {
    let allowed =
        c.log_slots * SINK_BYTES_PER_SLOT + c.dedup_pairs * SINK_BYTES_PER_PAIR + SINK_BYTES_FIXED;
    assert!(
        c.reserved_bytes <= allowed,
        "{at}: root sink {root} reserves {} B, {allowed} B allowed: {c:?}",
        c.reserved_bytes
    );
}

/// A host that purges sink dedup state at every slide boundary, so after
/// an ingest the last purge watermark is the slide boundary at or below
/// `now`.
fn purging_host() -> MultiQueryEngine {
    MultiQueryEngine::with_options(EngineOptions {
        purge_period: Some(SOAK_SLIDE),
        materialize_paths: false,
        ..Default::default()
    })
}

/// Q1 (`a2q*`) on SO at `window`, sliding by `SOAK_SLIDE`.
fn q1(window: u64) -> SgqQuery {
    SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(window, SOAK_SLIDE),
    )
}

/// Three window variants of one plan — shared operators, one root sink
/// each — routed and released after every slide: no root sink
/// keeps a pair whose coverage has expired, and the logs reserve a
/// bounded number of slots per retained result.
#[test]
fn window_variant_sinks_hold_what_is_live() {
    let mut live = purging_host();
    let ids: Vec<QueryId> = [4 * SOAK_SLIDE, 7 * SOAK_SLIDE, SOAK_WINDOW]
        .map(|w| live.register(&q1(w)))
        .to_vec();
    let a2q = live.labels().get("a2q").unwrap();
    // Per query: the latest expiry routed for each answer pair.
    let mut coverage: Vec<std::collections::HashMap<(u64, u64), u64>> =
        vec![Default::default(); ids.len()];
    let (mut checks, mut peak_retained) = (0, 0);
    for slide in soak_slides().into_iter().take(300) {
        live.ingest_batch(&a2q_batch(&slide, a2q));
        for (&id, pairs) in ids.iter().zip(&mut coverage) {
            live.for_each_undelivered(id, |delete, s| {
                assert!(!delete, "an insert-only stream");
                let exp = pairs.entry((s.src.0, s.trg.0)).or_default();
                *exp = (*exp).max(s.interval.exp);
            });
        }
        live.release_delivered();
        let watermark = live.now() / SOAK_SLIDE * SOAK_SLIDE;
        let live_pairs: usize = coverage
            .iter_mut()
            .map(|pairs| {
                pairs.retain(|_, exp| *exp > watermark);
                pairs.len()
            })
            .sum();
        let censuses = live.sink_censuses();
        assert_eq!(censuses.len(), ids.len(), "one root sink per variant");
        let at = format!("t={}", live.now());
        for (root, c) in &censuses {
            assert_sink_bytes_bounded(&at, *root, c);
        }
        let sum = |f: fn(&SinkCensus) -> usize| censuses.iter().map(|(_, c)| f(c)).sum::<usize>();
        let (pairs, retained, slots) = (
            sum(|c| c.dedup_pairs),
            sum(|c| c.log_retained),
            sum(|c| c.log_slots),
        );
        assert!(
            pairs <= live_pairs,
            "{at}: {pairs} dedup pairs, {live_pairs} with live coverage"
        );
        let logs = 2 * censuses.len();
        assert!(
            slots <= LOG_SLOTS_PER_RETAINED * retained + LOG_SLOTS_PER_LOG * logs,
            "{at}: {logs} logs reserve {slots} slots for {retained} retained results"
        );
        peak_retained = peak_retained.max(retained);
        checks += 1;
    }
    assert!(
        checks == 300 && peak_retained > 100,
        "{checks} checks, {peak_retained}"
    );
}

/// A one-hop query's root sink is a WSCAN's: every input edge is an
/// answer pair, so its coverage holds as many pairs as the window holds
/// edges. Over a stream of ever-new pairs the sink stays within a row and
/// a link per log slot plus three index slots per pair: the coverage
/// keeps no per-pair copy of what the log holds.
#[test]
fn a_one_hop_sink_holds_its_pairs_in_the_log() {
    let mut live = purging_host();
    let q = SgqQuery::new(
        parse_program("Ans(x, y) <- a2q(x, y).").unwrap(),
        WindowSpec::new(SOAK_WINDOW, SOAK_SLIDE),
    );
    let id = live.register(&q);
    let a2q = live.labels().get("a2q").unwrap();
    let mut peak_pairs = 0;
    for slide in 0..4 * SOAK_WINDOW / SOAK_SLIDE {
        let batch: Vec<Sge> = (0..500)
            .map(|i| {
                Sge::raw(
                    slide * 1_000 + i,
                    i,
                    a2q,
                    slide * SOAK_SLIDE + i * SOAK_SLIDE / 500,
                )
            })
            .collect();
        live.ingest_batch(&batch);
        live.for_each_undelivered(id, |_, _| {});
        live.release_delivered();
        let [(root, c)] = live.sink_censuses()[..] else {
            panic!("one root sink");
        };
        assert_sink_bytes_bounded(&format!("slide {slide}"), root, &c);
        peak_pairs = peak_pairs.max(c.dedup_pairs);
    }
    assert!(peak_pairs >= 5_000, "{peak_pairs}");
}

/// Summed `reserved_bytes` of every live root sink.
fn sink_bytes(host: &MultiQueryEngine) -> usize {
    host.sink_censuses()
        .iter()
        .map(|(_, c)| c.reserved_bytes)
        .sum()
}

/// A window variant registered and deregistered beside a survivor, fifty
/// times over a stream: what the departed variants held goes with them,
/// so after the last purge the host's sinks reserve no more than half
/// again what they did at their peak during the first cycle.
#[test]
fn variant_churn_leaves_no_sink_state_behind() {
    const CYCLES: usize = 50;
    const CYCLE_SLIDES: usize = 10;
    let mut live = purging_host();
    let survivor = live.register(&q1(SOAK_WINDOW));
    let a2q = live.labels().get("a2q").unwrap();
    let mut slides = soak_slides().into_iter();
    let mut feed = |live: &mut MultiQueryEngine, ids: &[QueryId]| {
        let slide = slides.next().expect("the stream outlasts the churn");
        live.ingest_batch(&a2q_batch(&slide, a2q));
        for &id in ids {
            live.for_each_undelivered(id, |_, _| {});
        }
        live.release_delivered();
    };
    // Warm up: the survivor's window fills twice.
    for _ in 0..20 {
        feed(&mut live, &[survivor]);
    }
    let mut first_peak = 0;
    for cycle in 0..CYCLES {
        let variant = live.register(&q1(SOAK_WINDOW / 2));
        for _ in 0..CYCLE_SLIDES {
            feed(&mut live, &[survivor, variant]);
            if cycle == 0 {
                first_peak = first_peak.max(sink_bytes(&live));
            }
        }
        assert!(live.deregister(variant));
    }
    feed(&mut live, &[survivor]);
    live.purge_all(live.now());
    let end = sink_bytes(&live);
    assert_eq!(live.sink_censuses().len(), 1, "only the survivor's sink");
    for (root, c) in live.sink_censuses() {
        assert_sink_bytes_bounded("after the churn", root, &c);
    }
    assert!(
        first_peak > 0 && 2 * end <= 3 * first_peak,
        "after {CYCLES} cycles the sinks reserve {end} B, {first_peak} B at the first cycle's peak"
    );
}

/// A burst of distinct answer pairs, once expired and purged, gives its
/// coverage table back: afterwards the sink reserves what its rows and
/// live pairs need, not the burst's high-water table.
#[test]
fn a_purged_burst_of_pairs_gives_coverage_back() {
    const BURST: u64 = 20_000;
    let mut live = purging_host();
    let id = live.register(&q1(SOAK_WINDOW));
    let a2q = live.labels().get("a2q").unwrap();
    let route = |live: &mut MultiQueryEngine, batch: &[Sge]| {
        live.ingest_batch(batch);
        live.for_each_undelivered(id, |_, _| {});
        live.release_delivered();
    };
    let burst: Vec<Sge> = (0..BURST)
        .map(|i| Sge::raw(2 * i, 2 * i + 1, a2q, 1))
        .collect();
    route(&mut live, &burst);
    let [(_, peak)] = live.sink_censuses()[..] else {
        panic!("one root sink");
    };
    assert!(peak.dedup_pairs >= BURST as usize, "{peak:?}");
    // Two windows of a trickle: one edge per slide over a small vertex
    // set, so few pairs stay live.
    for slide in 1..=2 * SOAK_WINDOW / SOAK_SLIDE {
        let t = slide * SOAK_SLIDE;
        route(&mut live, &[Sge::raw(slide % 5, (slide + 1) % 5, a2q, t)]);
    }
    let [(root, end)] = live.sink_censuses()[..] else {
        panic!("one root sink");
    };
    assert!(end.dedup_pairs < 50, "{end:?}");
    assert_sink_bytes_bounded("after the burst", root, &end);
    assert!(
        end.reserved_bytes * 100 < peak.reserved_bytes,
        "the sink reserves {} B after the burst expired, {} B at its peak",
        end.reserved_bytes,
        peak.reserved_bytes
    );
}

// ---------------------------------------------------------------------
// (h) Catch-up history: the input rows a host keeps so that a query
// registered mid-stream can replay the window.
// ---------------------------------------------------------------------

/// Bytes of one history row (an [`Sge`]).
const HISTORY_ROW_BYTES: usize = 32;
/// The fewest rows a full history ring grows by.
const HISTORY_MIN_GROWTH: usize = 64;

/// The SO stream through a serve-like host, in 64-edge batches, its rate
/// dropping to an eighth for a stretch and coming back: after every batch
/// the history holds no more rows than arrived inside the retention
/// horizon, and reserves at most a quarter over the most rows it has held
/// plus a fixed step; once time passes the horizon with no arrivals it is
/// empty and gives its ring back.
#[test]
fn catch_up_history_is_held_to_the_horizon() {
    let mut host = serve_host();
    // A one-hop query: the history is the same whatever reads the input.
    host.register(&SgqQuery::new(
        parse_program("Ans(x, y) <- a2q(x, y).").unwrap(),
        WindowSpec::new(8 * SOAK_WINDOW, SOAK_SLIDE),
    ));
    let horizon = host.retention_horizon();
    assert_eq!(horizon, 8 * SOAK_WINDOW);
    let a2q = host.labels().get("a2q").unwrap();
    let slides = soak_slides();
    let third = slides.len() / 3;
    let mut fed: Vec<Sge> = Vec::new();
    let mut peak_rows = 0;
    for (n, slide) in slides.iter().enumerate() {
        let mut batch = a2q_batch(slide, a2q);
        if (third..2 * third).contains(&n) {
            batch = batch.into_iter().step_by(8).collect();
        }
        for chunk in batch.chunks(64) {
            host.ingest_batch(chunk);
            fed.extend_from_slice(chunk);
            let now = host.now();
            let inside = (fed.iter().rev())
                .take_while(|s| s.t + horizon > now)
                .count();
            let (rows, bytes) = host.history_census();
            assert!(
                rows <= inside,
                "t={now}: {rows} history rows, {inside} arrivals inside the horizon"
            );
            peak_rows = peak_rows.max(rows);
            let allowed = (peak_rows + (peak_rows / 4).max(HISTORY_MIN_GROWTH)) * HISTORY_ROW_BYTES;
            assert!(
                bytes <= allowed,
                "t={now}: history reserves {bytes} B for {rows} rows, {allowed} B allowed at a peak of {peak_rows} rows"
            );
        }
    }
    assert!(peak_rows > 0);
    host.advance_time(host.now() + horizon);
    let (rows, bytes) = host.history_census();
    assert_eq!(rows, 0, "nothing arrived inside the horizon");
    // A ring is given back once it is a quarter full or less, unless it
    // is within four growth steps.
    assert!(
        bytes <= 4 * HISTORY_MIN_GROWTH * HISTORY_ROW_BYTES,
        "{bytes} B kept for no rows"
    );
}
