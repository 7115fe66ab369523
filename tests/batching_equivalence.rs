//! Epoch-cut invariance (property-based): feeding a random stream through
//! `process_batch` under **any** split into epochs — including splits that
//! straddle slide boundaries, and interleaved with explicit deletions —
//! must produce exactly the results of feeding it one `process` call (an
//! epoch of one edge) at a time, for both [`Engine`] and
//! [`MultiQueryEngine`]. Every operator has one entry point (`on_batch`),
//! so both sides run the same code on differently cut input; ground truth
//! comes from the one-time oracle, which the multi-edge runs are held to
//! at every slide boundary.
//!
//! "Exactly" is stated at the data model's granularity: result streams
//! carry set semantics (Def. 10–12), so two logs are equal iff their
//! per-pair coalesced validity coverage is equal (a larger epoch may chunk
//! the same coverage into fewer, wider emissions — e.g. one epoch's worth
//! of S-PATH improvements coalesces into a single tuple). The
//! instantaneous answer sets (`answer_at`) are additionally compared at
//! every probed timestamp.

mod common;

use common::{oracle_answer_at, windowed_sgt};
use proptest::prelude::*;
use s_graffito::prelude::*;
use s_graffito::types::{IntervalSet, Sge, VertexId};
use std::collections::BTreeMap;

const WINDOW: u64 = 24;
const SLIDE: u64 = 6;
const SPAN: u64 = 72;

/// One raw stream event: insert or (sometimes) an explicit deletion of a
/// previously inserted edge.
#[derive(Debug, Clone, Copy)]
enum Event {
    Insert(u64, u64, u8, u64),
    /// Deletes the most recent not-yet-deleted insert (resolved when the
    /// event sequence is materialized).
    DeleteRecent,
}

fn events(max_len: usize, with_deletes: bool) -> impl Strategy<Value = Vec<Event>> {
    let insert = (0u64..12, 0u64..12, 0u8..3, 1u64..4)
        .prop_map(|(s, t, l, dt)| Event::Insert(s, t, l, dt))
        .boxed();
    let event = if with_deletes {
        // ~1 in 5 events deletes the most recent live insert.
        prop_oneof![
            insert.clone(),
            insert.clone(),
            insert.clone(),
            insert.clone(),
            Just(Event::DeleteRecent).boxed(),
        ]
        .boxed()
    } else {
        insert
    };
    prop::collection::vec(event, 1..max_len)
}

/// Materializes events into an ordered op sequence: `(sge, is_delete)`.
/// Timestamps accumulate the per-event increments, so streams span several
/// slide periods and batch splits land on boundaries regularly.
fn materialize(events: &[Event], labels: &[Label]) -> Vec<(Sge, bool)> {
    let mut t = 0u64;
    let mut live: Vec<Sge> = Vec::new();
    let mut out = Vec::new();
    for ev in events {
        match *ev {
            Event::Insert(s, tr, l, dt) => {
                t = (t + dt).min(SPAN);
                let sge = Sge::new(VertexId(s), VertexId(tr), labels[l as usize], t);
                live.push(sge);
                out.push((sge, false));
            }
            Event::DeleteRecent => {
                if let Some(sge) = live.pop() {
                    out.push((sge, true));
                }
            }
        }
    }
    out
}

/// The semantic content of a result log: per (src, trg), the coalesced
/// validity coverage.
fn coverage(results: &[Sgt]) -> BTreeMap<(u64, u64), Vec<Interval>> {
    let mut map: BTreeMap<(u64, u64), IntervalSet> = BTreeMap::new();
    for s in results {
        map.entry((s.src.0, s.trg.0))
            .or_default()
            .insert(s.interval);
    }
    map.into_iter()
        .map(|(k, set)| (k, set.intervals().to_vec()))
        .collect()
}

fn opts(with_deletes: bool) -> EngineOptions {
    EngineOptions {
        suppress_duplicates: !with_deletes,
        ..Default::default()
    }
}

/// Drives `ops` per-tuple through a dedicated engine.
fn run_tuple(query: &SgqQuery, ops: &[(Sge, bool)], with_deletes: bool) -> Engine {
    let mut e = Engine::from_query_with(query, opts(with_deletes));
    for &(sge, del) in ops {
        if del {
            e.delete(sge);
        } else {
            e.process(sge);
        }
    }
    e
}

/// Drives `ops` through `process_batch`, splitting insert runs at the
/// given cut points (deletions are their own per-tuple calls, as in a real
/// deletion pipeline).
fn run_batched(
    query: &SgqQuery,
    ops: &[(Sge, bool)],
    cuts: &[usize],
    with_deletes: bool,
) -> Engine {
    run_batched_with(query, ops, cuts, opts(with_deletes))
}

/// `run_batched` with explicit engine options.
fn run_batched_with(
    query: &SgqQuery,
    ops: &[(Sge, bool)],
    cuts: &[usize],
    options: EngineOptions,
) -> Engine {
    drive(query, ops, cuts, options, |_, _| Ok(())).unwrap()
}

/// The driver behind `run_batched*`: `after_call(engine, i)` runs after
/// every engine call that consumed input, `i` being the number of `ops`
/// consumed so far.
fn drive(
    query: &SgqQuery,
    ops: &[(Sge, bool)],
    cuts: &[usize],
    options: EngineOptions,
    mut after_call: impl FnMut(&Engine, usize) -> Result<(), TestCaseError>,
) -> Result<Engine, TestCaseError> {
    let mut e = Engine::from_query_with(query, options);
    let mut batch: Vec<Sge> = Vec::new();
    for (i, &(sge, del)) in ops.iter().enumerate() {
        if del {
            if !batch.is_empty() {
                e.process_batch(&batch);
                batch.clear();
                after_call(&e, i)?;
            }
            e.delete(sge);
            after_call(&e, i + 1)?;
            continue;
        }
        batch.push(sge);
        if cuts.contains(&i) {
            e.process_batch(&batch);
            batch.clear();
            after_call(&e, i + 1)?;
        }
    }
    if !batch.is_empty() {
        e.process_batch(&batch);
        after_call(&e, ops.len())?;
    }
    Ok(e)
}

fn probe_times() -> Vec<u64> {
    (0..=SPAN + WINDOW).step_by(3).collect()
}

fn check_engines_equal(tuple: &Engine, batched: &Engine) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        coverage(&tuple.results()),
        coverage(&batched.results()),
        "insert coverage"
    );
    prop_assert_eq!(
        coverage(tuple.deleted_results()),
        coverage(batched.deleted_results()),
        "delete coverage"
    );
    for t in probe_times() {
        prop_assert_eq!(
            tuple.answer_at(t),
            batched.answer_at(t),
            "answers at t={}",
            t
        );
    }
    Ok(())
}

fn query(text: &str) -> SgqQuery {
    SgqQuery::new(parse_program(text).unwrap(), WindowSpec::new(WINDOW, SLIDE))
}

/// The tested plans cover every operator: WSCAN, PATTERN (join tree),
/// S-PATH (Kleene closure), and a composite.
const PLANS: [&str; 3] = [
    "Ans(x, y) <- a(x, z), b(z, y).",
    "Ans(x, y) <- a+(x, y).",
    "Ans(x, y) <- a+(x, m), b(m, y).",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_batched_equals_tuple_append_only(
        evs in events(60, false),
        cuts in prop::collection::vec(0usize..60, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let tuple = run_tuple(&q, &materialize(&evs, &label_vec(&q)), false);
        let batched = run_batched(&q, &materialize(&evs, &label_vec(&q)), &cuts, false);
        check_engines_equal(&tuple, &batched)?;
    }

    #[test]
    fn engine_batched_equals_tuple_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let tuple = run_tuple(&q, &materialize(&evs, &label_vec(&q)), true);
        let batched = run_batched(&q, &materialize(&evs, &label_vec(&q)), &cuts, true);
        check_engines_equal(&tuple, &batched)?;
    }

    #[test]
    fn multiquery_batched_equals_tuple(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
    ) {
        // All three plans hosted concurrently; batched host vs per-tuple host.
        let queries: Vec<SgqQuery> = PLANS.iter().map(|p| query(p)).collect();

        let mut tuple = MultiQueryEngine::new();
        let tuple_ids: Vec<QueryId> = queries.iter().map(|q| tuple.register(q)).collect();
        let mut batched = MultiQueryEngine::new();
        let batched_ids: Vec<QueryId> = queries.iter().map(|q| batched.register(q)).collect();

        // "c" is referenced by no plan: such events are discarded by both
        // hosts (unknown-label handling is part of the equivalence).
        let labels: Vec<Label> = ["a", "b", "c"]
            .iter()
            .map(|n| tuple.labels().get(n).unwrap_or(Label(u32::MAX)))
            .collect();
        let ops = materialize(&evs, &labels);
        for &(sge, _) in &ops {
            tuple.process(sge);
        }
        let mut batch: Vec<Sge> = Vec::new();
        for (i, &(sge, _)) in ops.iter().enumerate() {
            batch.push(sge);
            if cuts.contains(&i) {
                batched.process_batch(&batch);
                batch.clear();
            }
        }
        batched.process_batch(&batch);

        for (ti, bi) in tuple_ids.iter().zip(&batched_ids) {
            prop_assert_eq!(
                coverage(&tuple.results(*ti)),
                coverage(&batched.results(*bi)),
                "per-query coverage"
            );
            for t in probe_times() {
                prop_assert_eq!(
                    tuple.answer_at(*ti, t),
                    batched.answer_at(*bi, t),
                    "answers at t={}", t
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker-count invariance: the epoch sweep and the purge loop are serial,
// and `workers` is accepted and ignored. On random streams, with and
// without deletions, result logs must stay **bit-identical** to the
// single-worker run — not merely equal in coverage — and so must every
// executor counter. Every plan below holds at least two stateful direct
// operators (PATH and PATTERN), the shape a purge pool would have split.
// ---------------------------------------------------------------------

const MULTI_STATE_PLANS: [&str; 3] = [PLANS[2], PATH_HEAVY_PLANS[1], PATH_HEAVY_PLANS[2]];

fn opts_workers(with_deletes: bool, workers: usize) -> EngineOptions {
    EngineOptions {
        workers,
        ..opts(with_deletes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_parallel_purge_identical_append_only(
        evs in events(60, false),
        cuts in prop::collection::vec(0usize..60, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(MULTI_STATE_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let serial = run_batched_with(&q, &ops, &cuts, opts_workers(false, 1));
        let parallel = run_batched_with(&q, &ops, &cuts, opts_workers(false, 4));
        check_bit_identical(&serial, &parallel)?;
    }

    #[test]
    fn engine_parallel_purge_identical_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(MULTI_STATE_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let serial = run_batched_with(&q, &ops, &cuts, opts_workers(true, 1));
        let parallel = run_batched_with(&q, &ops, &cuts, opts_workers(true, 4));
        check_bit_identical(&serial, &parallel)?;
    }

    #[test]
    fn multiquery_parallel_purge_identical(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
    ) {
        let queries: Vec<SgqQuery> = PLANS.iter().map(|p| query(p)).collect();
        let mut serial = MultiQueryEngine::with_options(opts_workers(false, 1));
        let mut parallel = MultiQueryEngine::with_options(opts_workers(false, 4));
        // A third host driven through the drain-only ingestion path: no
        // `(QueryId, Sgt)` pair building, same per-query logs.
        let mut drained = MultiQueryEngine::with_options(opts_workers(false, 4));
        let serial_ids: Vec<QueryId> = queries.iter().map(|q| serial.register(q)).collect();
        let parallel_ids: Vec<QueryId> = queries.iter().map(|q| parallel.register(q)).collect();
        let drained_ids: Vec<QueryId> = queries.iter().map(|q| drained.register(q)).collect();

        let labels: Vec<Label> = ["a", "b", "c"]
            .iter()
            .map(|n| serial.labels().get(n).unwrap_or(Label(u32::MAX)))
            .collect();
        let ops = materialize(&evs, &labels);
        let mut batch: Vec<Sge> = Vec::new();
        let mut flush = |batch: &mut Vec<Sge>| {
            let from_process = serial.process_batch(batch);
            let from_parallel = parallel.process_batch(batch);
            drained.ingest_batch(batch);
            batch.clear();
            // The collected pairs are themselves deterministic.
            from_process == from_parallel
        };
        for (i, &(sge, _)) in ops.iter().enumerate() {
            batch.push(sge);
            if cuts.contains(&i) {
                prop_assert!(flush(&mut batch), "collected pairs diverged");
            }
        }
        prop_assert!(flush(&mut batch), "collected pairs diverged");

        for ((si, pi), di) in serial_ids.iter().zip(&parallel_ids).zip(&drained_ids) {
            prop_assert_eq!(serial.results(*si), parallel.results(*pi));
            prop_assert_eq!(serial.deleted_results(*si), parallel.deleted_results(*pi));
            prop_assert_eq!(serial.results(*si), drained.results(*di), "drain-only path");
            // Drain cursors see everything exactly once.
            prop_assert_eq!(drained.drain(*di).len(), drained.results(*di).len());
            prop_assert_eq!(drained.drain(*di).len(), 0);
        }
        prop_assert_eq!(serial.exec_stats(), parallel.exec_stats());
        prop_assert_eq!(serial.exec_stats(), drained.exec_stats());
    }
}

/// `workers`, `shards` and `adaptive` are accepted and ignored: on a fixed
/// dense stream over the Q7-shaped plan (two PATHs, two PATTERNs) — one
/// engine, and one host running all three S-PATH-heavy plans — the result
/// logs are bit-identical to the defaults' and so is every executor
/// counter.
#[test]
fn inert_options_change_nothing() {
    let inert = |options: EngineOptions| EngineOptions {
        workers: 4,
        shards: 4,
        adaptive: true,
        ..options
    };
    let cuts = [7, 19, 40, 41, 130, 222];
    let dense = |labels: &[Label]| -> Vec<(Sge, bool)> {
        (0..4 * SPAN)
            .map(|x| {
                let sge = Sge::new(
                    VertexId(x % 11),
                    VertexId((x + 3) % 11),
                    labels[(x % 3) as usize],
                    x / 4,
                );
                (sge, false)
            })
            .collect()
    };

    let q = query(PATH_HEAVY_PLANS[2]);
    let ops = dense(&label_vec(&q));
    let base = run_batched_with(&q, &ops, &cuts, opts(false));
    let other = run_batched_with(&q, &ops, &cuts, inert(opts(false)));
    assert!(!base.results().is_empty());
    assert_eq!(base.results(), other.results(), "insert log");
    assert_eq!(base.deleted_results(), other.deleted_results());
    assert_eq!(base.exec_stats(), other.exec_stats());

    let queries: Vec<SgqQuery> = PATH_HEAVY_PLANS.iter().map(|p| query(p)).collect();
    let host = |options: EngineOptions| {
        let mut h = MultiQueryEngine::with_options(options);
        let ids: Vec<QueryId> = queries.iter().map(|q| h.register(q)).collect();
        let labels: Vec<Label> = ["a", "b", "c"]
            .iter()
            .map(|n| h.labels().get(n).expect("every label is referenced"))
            .collect();
        let ops = dense(&labels);
        let mut start = 0;
        for end in cuts.iter().map(|&c| c + 1).chain([ops.len()]) {
            let batch: Vec<Sge> = ops[start..end].iter().map(|&(sge, _)| sge).collect();
            h.process_batch(&batch);
            start = end;
        }
        (h, ids)
    };
    let ((base, base_ids), (other, other_ids)) = (host(opts(false)), host(inert(opts(false))));
    for (b, o) in base_ids.iter().zip(&other_ids) {
        assert!(!base.results(*b).is_empty());
        assert_eq!(base.results(*b), other.results(*o), "host insert log");
        assert_eq!(base.deleted_results(*b), other.deleted_results(*o));
    }
    assert_eq!(base.exec_stats(), other.exec_stats());
}

// ---------------------------------------------------------------------
// S-PATH under multi-edge epochs, on S-PATH-heavy plans mirroring the
// closure shapes of workload Q1/Q6/Q7 — pure transitive closure, closure
// joined into a pattern, and closure over a derived relation. Random
// epoch cuts straddle slide boundaries (timestamps span several slides)
// and interleave explicit deletions. The frontier pass must (a) give the
// coverage of the same stream fed as one-edge `process_batch` calls
// (split invariance — both sides run the same algorithm), (b) equal the
// one-time oracle over the window snapshot at every slide boundary, and
// (c) be bit-identical to itself with the ignored (shards, workers) set
// to (4,4) and under obs ∈ {Off, Timing}.
// ---------------------------------------------------------------------

const PATH_HEAVY_PLANS: [&str; 3] = [
    // Q1 shape: pure transitive closure.
    "Ans(x, y) <- a+(x, y).",
    // Q6 shape: closure joined with a two-hop pattern.
    "Ans(x, y) <- a+(x, y), b(x, m), c(m, y).",
    // Q7 shape: closure over a derived relation.
    "RL(x, y)  <- a+(x, y), b(x, m), c(m, y).
     Ans(x, m) <- RL+(x, y), c(m, y).",
];

/// A cut after every op: `drive` then makes each insert its own
/// one-edge `process_batch` call.
fn every_op(ops: &[(Sge, bool)]) -> Vec<usize> {
    (0..ops.len()).collect()
}

fn opts_bulk(with_deletes: bool, shards: usize, workers: usize, obs: ObsLevel) -> EngineOptions {
    EngineOptions {
        shards,
        workers,
        obs,
        ..opts(with_deletes)
    }
}

/// Slide boundaries from `from` up to the last instant any edge of the
/// streams generated here can still be valid.
fn boundaries(from: u64) -> impl Iterator<Item = u64> {
    (from.div_ceil(SLIDE)..=(SPAN + WINDOW) / SLIDE).map(|k| k * SLIDE)
}

/// The engine's explicit-deletion contract (set semantics, Def. 10) wants
/// at most one live insertion per `(src, trg, label)`: drops an insert
/// whose edge is still live, and the delete that would have retracted it.
fn one_live_insertion_per_edge(ops: &[(Sge, bool)]) -> Vec<(Sge, bool)> {
    let mut live: Vec<Sge> = Vec::new();
    let mut out = Vec::new();
    for &(sge, del) in ops {
        match (del, live.iter().position(|l| l.edge() == sge.edge())) {
            (false, None) => live.push(sge),
            (true, Some(i)) if live[i] == sge => drop(live.swap_remove(i)),
            _ => continue,
        }
        out.push((sge, del));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spath_split_invariance_append_only(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PATH_HEAVY_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let one_edge = run_batched(&q, &ops, &every_op(&ops), false);
        let bulk = run_batched(&q, &ops, &cuts, false);
        check_engines_equal(&one_edge, &bulk)?;
    }

    #[test]
    fn spath_split_invariance_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PATH_HEAVY_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let one_edge = run_batched(&q, &ops, &every_op(&ops), true);
        let bulk = run_batched(&q, &ops, &cuts, true);
        check_engines_equal(&one_edge, &bulk)?;
    }

    #[test]
    fn multi_edge_epochs_match_oracle_append_only(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        // After the run, at every slide boundary the result stream's
        // snapshot equals the one-time query over the window's snapshot
        // (Def. 14) — including boundaries that later epochs widened
        // claims back over (S-PATH's leftward ts-coalescing).
        let q = query(PATH_HEAVY_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let e = run_batched(&q, &ops, &cuts, false);
        let input: Vec<Sgt> = ops.iter().map(|(sge, _)| windowed_sgt(sge, q.window)).collect();
        for b in boundaries(0) {
            prop_assert_eq!(
                e.answer_at(b),
                oracle_answer_at(&q.program, &input, b),
                "boundary {}", b
            );
        }
    }

    #[test]
    fn multi_edge_epochs_match_oracle_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        // A negative tuple retracts a result for its whole interval, past
        // instants included, so under deletions the result stream is held
        // to the oracle as of every engine call: at each boundary from
        // `now` on, its snapshot equals the one-time query over the edges
        // inserted and not deleted so far.
        let q = query(PATH_HEAVY_PLANS[plan_idx]);
        let ops = one_live_insertion_per_edge(&materialize(&evs, &label_vec(&q)));
        drive(&q, &ops, &cuts, opts(true), |e, consumed| {
            let mut live: Vec<Sge> = Vec::new();
            for &(sge, del) in &ops[..consumed] {
                if del {
                    live.retain(|&l| l != sge);
                } else {
                    live.push(sge);
                }
            }
            let now = ops[..consumed].iter().map(|(sge, _)| sge.t).max().unwrap_or(0);
            let input: Vec<Sgt> = live.iter().map(|sge| windowed_sgt(sge, q.window)).collect();
            for b in boundaries(now) {
                prop_assert_eq!(
                    e.answer_at(b),
                    oracle_answer_at(&q.program, &input, b),
                    "after {} ops (now {}), boundary {}", consumed, now, b
                );
            }
            Ok(())
        })?;
    }

    #[test]
    fn spath_bulk_bit_identical_across_configs(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PATH_HEAVY_PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let base = run_batched_with(&q, &ops, &cuts, opts_bulk(true, 1, 1, ObsLevel::Off));
        let sharded = run_batched_with(&q, &ops, &cuts, opts_bulk(true, 4, 4, ObsLevel::Off));
        let timed = run_batched_with(&q, &ops, &cuts, opts_bulk(true, 4, 4, ObsLevel::Timing));
        check_bit_identical(&base, &sharded)?;
        check_bit_identical(&base, &timed)?;
    }
}

/// Known defect (ROADMAP item 5), present before and after the `on_delta`
/// removal and not reached by the random streams above: S-PATH re-emits an
/// improved node with its wider interval without retracting the narrower
/// claim, so in a deletion pipeline (sink dedup off) the pair counts twice
/// and one negative tuple per deletion leaves it in `answer_at` after its
/// last derivation is gone. Run with `--ignored`.
#[test]
#[ignore = "known defect: improved S-PATH claims are not retracted under explicit deletions"]
fn deleting_every_derivation_of_an_improved_pair_removes_it() {
    let q = query(PATH_HEAVY_PLANS[0]);
    let a = label_vec(&q)[0];
    let sge = |s, t, ts| Sge::new(VertexId(s), VertexId(t), a, ts);
    let mut e = Engine::from_query_with(&q, opts(true));
    // (1,2) via 3 is valid [2,24); via 4 it improves to [2,30).
    e.process_batch(&[sge(1, 3, 1), sge(3, 2, 2)]);
    e.process_batch(&[sge(1, 4, 7), sge(4, 2, 8)]);
    e.delete(sge(4, 2, 8));
    assert!(e.answer_at(12).contains(&(VertexId(1), VertexId(2))));
    e.delete(sge(3, 2, 2));
    assert!(!e.answer_at(12).contains(&(VertexId(1), VertexId(2))));
}

/// Tuple-at-a-time ingestion (`process`) sweeps every delivered input
/// delta as its own epoch, where `process_batch` sweeps once per slide-
/// bounded chunk — and the answers are the same.
#[test]
fn tuple_dispatch_sweeps_every_delta_as_its_own_epoch() {
    let q = query(PATH_HEAVY_PLANS[1]);
    let labels = label_vec(&q);
    let batch: Vec<Sge> = (0..40u64)
        .map(|x| {
            Sge::new(
                VertexId(x % 7),
                VertexId((x * 3 + 1) % 7),
                labels[(x % 3) as usize],
                x / 2,
            )
        })
        .collect();
    let per_delta = run_tuple(
        &q,
        &batch.iter().map(|&s| (s, false)).collect::<Vec<_>>(),
        false,
    );
    let mut per_chunk = Engine::from_query_with(&q, opts(false));
    per_chunk.process_batch(&batch);
    let (t, c) = (per_delta.exec_stats(), per_chunk.exec_stats());
    assert!(t.input_deltas > 4, "{t:?}");
    assert_eq!(t.input_deltas, c.input_deltas);
    assert_eq!(t.epochs, t.input_deltas, "one sweep per delivered delta");
    assert_eq!(c.epochs, 4, "ticks 0..20 at slide 6: four chunks");
    assert_eq!(t.max_epoch_input, 1);
    assert_eq!(
        coverage(&per_delta.results()),
        coverage(&per_chunk.results())
    );
    for b in probe_times() {
        assert_eq!(per_delta.answer_at(b), per_chunk.answer_at(b), "t={b}");
    }
}

/// Bit-identical engine comparison: result logs compare as `Vec<Sgt>`
/// equality (order included), and every executor counter must match.
fn check_bit_identical(serial: &Engine, other: &Engine) -> Result<(), TestCaseError> {
    prop_assert_eq!(serial.results(), other.results(), "insert log");
    prop_assert_eq!(
        serial.deleted_results(),
        other.deleted_results(),
        "delete log"
    );
    prop_assert_eq!(serial.exec_stats(), other.exec_stats(), "executor counters");
    Ok(())
}

/// The EDB labels `a`, `b`, `c` in `q`'s namespace (indexable by the
/// event's label ordinal).
fn label_vec(q: &SgqQuery) -> Vec<Label> {
    let labels = Engine::from_query(q).labels().clone();
    ["a", "b", "c"]
        .iter()
        .map(|n| labels.get(n).unwrap_or(Label(u32::MAX)))
        .collect()
}
