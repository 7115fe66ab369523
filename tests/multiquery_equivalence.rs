//! Multi-query host equivalence: a [`MultiQueryEngine`] hosting Q1–Q7
//! concurrently must produce, per query, exactly the results of dedicated
//! independent [`Engine`]s on the same stream — while instantiating
//! strictly fewer physical operators. Also covers mid-stream deregister +
//! re-register (catch-up semantics) and batched ingestion.

use proptest::prelude::*;
use s_graffito::datagen::workloads::{self, Dataset};
use s_graffito::datagen::{snb_stream, so_stream, RawStream, SnbConfig, SoConfig};
use s_graffito::multiquery::{MultiQueryEngine, QueryId};
use s_graffito::prelude::*;
use s_graffito::types::{InputStream, VertexId};

const WINDOW: u64 = 600;

fn stream_for(dataset: Dataset) -> RawStream {
    match dataset {
        Dataset::So => so_stream(&SoConfig::new(60, 1_500)),
        Dataset::Snb => snb_stream(&SnbConfig::new(60, 1_500)),
    }
}

fn queries_for(dataset: Dataset) -> Vec<SgqQuery> {
    (1..=7)
        .map(|n| SgqQuery::new(workloads::query(n, dataset), WindowSpec::sliding(WINDOW)))
        .collect()
}

/// The semantic content of a result log: per answer pair, the coalesced
/// validity coverage (Def. 10–12 set semantics). Raw emission *sequences*
/// are not comparable across label namespaces — operator hash tables
/// iterate in label-id-dependent order, so two engines with differently
/// numbered interners emit the same coverage chunked differently.
fn coalesced(results: &[Sgt]) -> std::collections::BTreeMap<(u64, u64), Vec<Interval>> {
    let mut map: std::collections::BTreeMap<(u64, u64), s_graffito::types::IntervalSet> =
        std::collections::BTreeMap::new();
    for s in results {
        map.entry((s.src.0, s.trg.0))
            .or_default()
            .insert(s.interval);
    }
    map.into_iter()
        .map(|(k, set)| (k, set.intervals().to_vec()))
        .collect()
}

/// Runs `queries` side by side — each in a dedicated engine and all in one
/// host — over `raw`, returning `(host, ids, engines)` after the full
/// stream has been processed by both sides.
fn run_side_by_side(
    raw: &RawStream,
    queries: &[SgqQuery],
) -> (MultiQueryEngine, Vec<QueryId>, Vec<Engine>) {
    let mut engines: Vec<Engine> = queries.iter().map(Engine::from_query).collect();
    let streams: Vec<InputStream> = engines
        .iter()
        .map(|e| s_graffito::datagen::resolve(raw, e.labels()))
        .collect();

    let mut host = MultiQueryEngine::new();
    let ids: Vec<QueryId> = queries.iter().map(|q| host.register(q)).collect();
    let host_stream = s_graffito::datagen::resolve(raw, host.labels());

    s_graffito::datagen::feed::feed(&host_stream, |sge| {
        host.process(sge);
    });
    for (engine, stream) in engines.iter_mut().zip(&streams) {
        s_graffito::datagen::feed::feed(stream, |sge| {
            engine.process(sge);
        });
    }
    (host, ids, engines)
}

fn check_dataset(dataset: Dataset) {
    let raw = stream_for(dataset);
    let queries = queries_for(dataset);
    let (host, ids, engines) = run_side_by_side(&raw, &queries);

    for (n, (id, engine)) in ids.iter().zip(&engines).enumerate() {
        assert_eq!(
            coalesced(host.results(*id)),
            coalesced(engine.results()),
            "{} Q{}: host vs dedicated engine emissions",
            dataset.name(),
            n + 1
        );
        for t in [0, WINDOW / 2, WINDOW, WINDOW + 13, 2 * WINDOW] {
            assert_eq!(
                host.answer_at(*id, t)
                    .into_iter()
                    .map(|(a, b)| (a.0, b.0))
                    .collect::<std::collections::BTreeSet<_>>(),
                engine
                    .answer_at(t)
                    .into_iter()
                    .map(|(a, b)| (a.0, b.0))
                    .collect::<std::collections::BTreeSet<_>>(),
                "{} Q{} answers at t={t}",
                dataset.name(),
                n + 1
            );
        }
    }
}

#[test]
fn q1_to_q7_concurrent_equals_independent_engines_so() {
    check_dataset(Dataset::So);
}

#[test]
fn q1_to_q7_concurrent_equals_independent_engines_snb() {
    check_dataset(Dataset::Snb);
}

/// The single-query `Engine` is the host's one-registration case: for
/// Q1–Q7 on both datasets, append-only and under explicit deletions, an
/// `Engine` and a host that registered only that query build the same
/// operators, run the same executor counters, and emit the same coverage
/// and answers; and the engine reports through the host's explain-analyze
/// (its per-query sink line included).
#[test]
fn engine_is_a_one_registration_host() {
    for dataset in [Dataset::So, Dataset::Snb] {
        let raw = match dataset {
            Dataset::So => so_stream(&SoConfig::new(60, 600)),
            Dataset::Snb => snb_stream(&SnbConfig::new(60, 600)),
        };
        for (n, query) in queries_for(dataset).iter().enumerate() {
            for deletes in [false, true] {
                let opts = EngineOptions {
                    suppress_duplicates: !deletes,
                    ..Default::default()
                };
                let mut engine = Engine::from_query_with(query, opts);
                let mut host = MultiQueryEngine::with_options(opts);
                let id = host.register(query);
                let ours = s_graffito::datagen::resolve(&raw, engine.labels())
                    .sges()
                    .to_vec();
                let theirs = s_graffito::datagen::resolve(&raw, host.labels())
                    .sges()
                    .to_vec();
                for (i, (&a, &b)) in ours.iter().zip(&theirs).enumerate() {
                    engine.process(a);
                    host.process(b);
                    if deletes && i % 8 == 7 {
                        engine.delete(ours[i - 4]);
                        host.delete(theirs[i - 4]);
                    }
                }
                let what = format!("{} Q{} deletes={deletes}", dataset.name(), n + 1);
                assert_eq!(
                    engine.operator_names().len(),
                    host.operator_count(),
                    "{what}"
                );
                assert_eq!(engine.exec_stats(), host.exec_stats(), "{what}");
                assert_eq!(
                    coalesced(engine.results()),
                    coalesced(host.results(id)),
                    "{what}"
                );
                assert_eq!(
                    coalesced(engine.deleted_results()),
                    coalesced(host.deleted_results(id)),
                    "{what}"
                );
                let end = ours.last().unwrap().t + WINDOW;
                for t in (0..end).step_by(97) {
                    assert_eq!(engine.answer_at(t), host.answer_at(id, t), "{what} t={t}");
                }
                let explain = engine.explain_analyze();
                assert!(explain.contains("log_retained="), "{what}: {explain}");
            }
        }
    }
}

/// The acceptance gate: 16 overlapping Q1–Q7 queries instantiate strictly
/// fewer physical operators than 16 independent engines while producing
/// identical per-query results.
#[test]
fn sixteen_overlapping_queries_share_operators() {
    let raw = stream_for(Dataset::So);
    let queries: Vec<SgqQuery> = (0..16)
        .map(|i| {
            SgqQuery::new(
                workloads::query(i % 7 + 1, Dataset::So),
                WindowSpec::sliding(WINDOW),
            )
        })
        .collect();
    let (host, ids, engines) = run_side_by_side(&raw, &queries);

    let independent_ops: usize = engines.iter().map(|e| e.operator_names().len()).sum();
    let host_ops = host.operator_count();
    assert!(
        host_ops < independent_ops,
        "sharing failed: host instantiates {host_ops} operators vs {independent_ops} independent \
         ({:?})",
        host.operator_names()
    );
    // 16 queries over 7 distinct shapes: the host needs no more operators
    // than the 7 distinct queries would (plus nothing for repeats).
    let distinct: usize = engines[..7].iter().map(|e| e.operator_names().len()).sum();
    assert!(
        host_ops < distinct,
        "cross-query sharing beats per-shape duplication: {host_ops} vs {distinct}"
    );

    for (id, engine) in ids.iter().zip(&engines) {
        assert_eq!(
            coalesced(host.results(*id)),
            coalesced(engine.results()),
            "query {id} emissions diverge"
        );
    }
}

#[test]
fn deregistration_retires_exclusive_operators_only() {
    let mk = |n: usize| {
        SgqQuery::new(
            workloads::query(n, Dataset::So),
            WindowSpec::sliding(WINDOW),
        )
    };
    let mut host = MultiQueryEngine::new();
    let q6 = host.register(&mk(6));
    let ops_q6_only = host.operator_count();
    let q7 = host.register(&mk(7)); // Q7 embeds Q6's pattern
    let ops_both = host.operator_count();
    assert!(
        ops_both < ops_q6_only + ops_q6_only + 2,
        "Q7 reuses Q6 subplans"
    );
    assert!(host.deregister(q7));
    assert_eq!(
        host.operator_count(),
        ops_q6_only,
        "Q7's exclusive operators retired, Q6's shared ones kept"
    );
    assert!(!host.deregister(q7), "double deregister is a no-op");
    assert!(host.deregister(q6));
    assert_eq!(host.operator_count(), 0, "empty host holds no operators");
}

/// Mid-stream deregister + register: after re-registration with catch-up,
/// the query answers exactly like a dedicated engine that processed the
/// entire stream (for instants from the re-registration point on).
#[test]
fn deregister_register_midstream_catches_up() {
    let raw = stream_for(Dataset::So);
    let q2 = || {
        SgqQuery::new(
            workloads::query(2, Dataset::So),
            WindowSpec::sliding(WINDOW),
        )
    };
    let q6 = || {
        SgqQuery::new(
            workloads::query(6, Dataset::So),
            WindowSpec::sliding(WINDOW),
        )
    };

    // Dedicated reference engines over the full stream.
    let mut ref2 = Engine::from_query(&q2());
    let mut ref6 = Engine::from_query(&q6());
    let s2 = s_graffito::datagen::resolve(&raw, ref2.labels());
    let s6 = s_graffito::datagen::resolve(&raw, ref6.labels());
    for sge in s2.sges().iter() {
        ref2.process(*sge);
    }
    for sge in s6.sges().iter() {
        ref6.process(*sge);
    }

    // Host: Q2 stays registered throughout; Q6 leaves and comes back.
    let mut host = MultiQueryEngine::new();
    let id2 = host.register(&q2());
    let id6_first = host.register(&q6());
    let host_stream = s_graffito::datagen::resolve(&raw, host.labels());
    let events: Vec<Sge> = host_stream.sges().to_vec();
    let (a, b) = (events.len() / 3, 2 * events.len() / 3);

    for sge in &events[..a] {
        host.process(*sge);
    }
    assert!(host.deregister(id6_first));
    for sge in &events[a..b] {
        host.process(*sge);
    }
    let rereg_time = events[b.saturating_sub(1)].t;
    let id6 = host.register(&q6());
    let catch_up = host.drain(id6);
    assert!(
        !catch_up.is_empty(),
        "catch-up replay repopulates the re-registered query's window"
    );
    for sge in &events[b..] {
        host.process(*sge);
    }

    // Q2 was never touched: exact emission equality with its reference.
    assert_eq!(
        coalesced(host.results(id2)),
        coalesced(ref2.results()),
        "continuously-registered query unaffected by churn"
    );
    // Q6 re-registered mid-stream: identical answers for every instant
    // from the re-registration point on.
    let end = events.last().unwrap().t + WINDOW;
    for t in (rereg_time..end).step_by(97) {
        assert_eq!(
            host.answer_at(id6, t),
            ref6.answer_at(t),
            "re-registered Q6 answers at t={t}"
        );
    }
}

/// Batched ingestion through the host matches tuple-at-a-time, per query.
#[test]
fn host_batched_ingestion_matches_tuple_at_a_time() {
    let raw = stream_for(Dataset::So);
    let queries = queries_for(Dataset::So);

    let mut eager = MultiQueryEngine::new();
    let eager_ids: Vec<QueryId> = queries.iter().map(|q| eager.register(q)).collect();
    let mut batched = MultiQueryEngine::new();
    let batched_ids: Vec<QueryId> = queries.iter().map(|q| batched.register(q)).collect();

    let events: Vec<Sge> = s_graffito::datagen::resolve(&raw, eager.labels())
        .sges()
        .to_vec();
    for sge in &events {
        eager.process(*sge);
    }
    for chunk in events.chunks(64) {
        batched.process_batch(chunk);
    }

    let end = events.last().unwrap().t + WINDOW;
    for (ei, bi) in eager_ids.iter().zip(&batched_ids) {
        for t in (0..end).step_by(131) {
            assert_eq!(
                eager.answer_at(*ei, t),
                batched.answer_at(*bi, t),
                "query {ei} batched vs eager at t={t}"
            );
        }
    }
}

/// The host discards labels no registered query references, and picks
/// them up if a later registration needs them.
#[test]
fn unreferenced_labels_are_discarded_until_needed() {
    let mut host = MultiQueryEngine::new();
    let q_a = host.register(&SgqQuery::new(
        parse_program("Ans(x, y) <- a(x, y).").unwrap(),
        WindowSpec::sliding(50),
    ));
    // `b` is unknown to the host until a query referencing it registers.
    assert!(host.labels().get("b").is_none());
    let a = host.labels().get("a").unwrap();
    host.process(Sge::raw(1, 2, a, 0));
    let q_b = host.register(&SgqQuery::new(
        parse_program("Ans(x, y) <- b+(x, y).").unwrap(),
        WindowSpec::sliding(50),
    ));
    let b = host.labels().get("b").unwrap();
    let out = host.process(Sge::raw(2, 3, b, 1));
    assert!(out.iter().all(|(q, _)| *q == q_b));
    assert_eq!(host.results(q_a).len(), 1);
    assert_eq!(host.results(q_b).len(), 1);
}

/// Late registration when the whole plan is already warm for a twin: the
/// newcomer is seeded from the twin's log (warm stateful operators prune
/// covered re-insertions, so replay alone could not rebuild this).
#[test]
fn late_twin_registration_seeds_full_history() {
    let q = || {
        SgqQuery::new(
            workloads::query(1, Dataset::So),
            WindowSpec::sliding(WINDOW),
        )
    };
    let raw = stream_for(Dataset::So);
    let mut host = MultiQueryEngine::new();
    let early = host.register(&q());
    let events: Vec<Sge> = s_graffito::datagen::resolve(&raw, host.labels())
        .sges()
        .to_vec();
    let mid = events.len() / 2;
    for sge in &events[..mid] {
        host.process(*sge);
    }
    let late = host.register(&q());
    assert!(!host.drain(late).is_empty(), "twin seeding yields history");
    for sge in &events[mid..] {
        host.process(*sge);
    }
    assert_eq!(
        coalesced(host.results(early)),
        coalesced(host.results(late)),
        "late twin converges to the early twin's full history"
    );
}

/// Late registration of Q7 while Q6 holds its inner PATTERN warm: the
/// newcomer's exclusive operators sit *above* warm stateful shared ones,
/// which re-derive nothing on replay — catch-up must route history around
/// them (private cold replay + state adoption).
#[test]
fn late_registration_above_warm_stateful_subplan_catches_up() {
    let mk = |n: usize| {
        SgqQuery::new(
            workloads::query(n, Dataset::So),
            WindowSpec::sliding(WINDOW),
        )
    };
    let raw = stream_for(Dataset::So);

    // Reference: dedicated Q7 engine over the full stream.
    let mut ref7 = Engine::from_query(&mk(7));
    let s7 = s_graffito::datagen::resolve(&raw, ref7.labels());
    for sge in s7.sges() {
        ref7.process(*sge);
    }

    // Host: Q6 from the start, Q7 registered mid-stream.
    let mut host = MultiQueryEngine::new();
    let id6 = host.register(&mk(6));
    let events: Vec<Sge> = s_graffito::datagen::resolve(&raw, host.labels())
        .sges()
        .to_vec();
    let mid = events.len() / 2;
    for sge in &events[..mid] {
        host.process(*sge);
    }
    let reg_time = events[mid.saturating_sub(1)].t;
    let id7 = host.register(&mk(7));
    assert!(
        !host.drain(id7).is_empty(),
        "Q7 catch-up derives history through Q6's warm shared subplan"
    );
    for sge in &events[mid..] {
        host.process(*sge);
    }

    let end = events.last().unwrap().t + WINDOW;
    for t in (reg_time..end).step_by(89) {
        assert_eq!(
            host.answer_at(id7, t),
            ref7.answer_at(t),
            "late Q7 answers at t={t}"
        );
    }
    // Q6 is unaffected by Q7's arrival.
    let mut ref6 = Engine::from_query(&mk(6));
    let s6 = s_graffito::datagen::resolve(&raw, ref6.labels());
    for sge in s6.sges() {
        ref6.process(*sge);
    }
    assert_eq!(coalesced(host.results(id6)), coalesced(ref6.results()));
}

/// Catch-up completeness is bounded by the retention horizon: a query
/// whose window exceeds every previously registered one needs the horizon
/// provisioned up front (`set_retention_horizon`), and the horizon must
/// not shrink when a large-window query deregisters.
#[test]
fn retention_horizon_bounds_large_window_late_registration() {
    let small = || {
        SgqQuery::new(
            parse_program("Ans(x, y) <- a(x, z), b(z, y).").unwrap(),
            WindowSpec::sliding(10),
        )
    };
    let big = || {
        SgqQuery::new(
            parse_program("Ans(x, y) <- a(x, z), b(z, y).").unwrap(),
            WindowSpec::sliding(100),
        )
    };

    // Provisioned host: history survives long enough for the late big
    // window, so it answers exactly like a dedicated engine.
    let mut host = MultiQueryEngine::new();
    host.set_retention_horizon(100);
    let _s = host.register(&small());
    let a = host.labels().get("a").unwrap();
    let b = host.labels().get("b").unwrap();
    host.process(Sge::raw(1, 2, a, 0));
    host.advance_time(50);
    let big_id = host.register(&big());
    let out = host.process(Sge::raw(2, 3, b, 60));
    assert!(
        out.iter()
            .any(|(q, s)| *q == big_id && s.src.0 == 1 && s.trg.0 == 3),
        "provisioned horizon keeps the t=0 edge joinable for the window-100 newcomer: {out:?}"
    );
    let mut reference = Engine::from_query(&big());
    let ra = reference.labels().get("a").unwrap();
    let rb = reference.labels().get("b").unwrap();
    reference.process(Sge::raw(1, 2, ra, 0));
    reference.process(Sge::raw(2, 3, rb, 60));
    for t in [60, 80, 99, 100] {
        assert_eq!(host.answer_at(big_id, t), reference.answer_at(t), "t={t}");
    }

    // The horizon is a high-water mark: deregistering the sole big-window
    // query must not prune history its re-registration still needs.
    let mut host = MultiQueryEngine::new();
    let first = host.register(&big());
    let a = host.labels().get("a").unwrap();
    let b = host.labels().get("b").unwrap();
    host.process(Sge::raw(1, 2, a, 0));
    host.deregister(first);
    let _small_id = host.register(&small());
    host.advance_time(50);
    assert_eq!(host.retention_horizon(), 100, "horizon never shrinks");
    let again = host.register(&big());
    let out = host.process(Sge::raw(2, 3, b, 60));
    assert!(
        out.iter()
            .any(|(q, s)| *q == again && s.src.0 == 1 && s.trg.0 == 3),
        "re-registered big window still sees the t=0 edge: {out:?}"
    );
}

// ---------------------------------------------------------------------
// Window-variant survivors (property-based): window variants of one plan
// share every operator below their window scans' fan-out but each has its
// own root sink and private dedup map. Deregistering the **widest**
// variant mid-stream retires its operators and drops its sink; the
// survivors must keep emitting exactly like dedicated engines.
// ---------------------------------------------------------------------

/// Same operator coverage as the batching proptests: PATTERN join,
/// S-PATH closure, and a composite.
const VARIANT_PLANS: [&str; 3] = [
    "Ans(x, y) <- a(x, z), b(z, y).",
    "Ans(x, y) <- a+(x, y).",
    "Ans(x, y) <- a+(x, m), b(m, y).",
];
/// Ascending window sizes: same structure and slide, one root sink per
/// variant.
const VARIANT_WINDOWS: [u64; 3] = [12, 24, 48];
const VARIANT_SLIDE: u64 = 6;
const VARIANT_SPAN: u64 = 72;

fn variant_query(plan_idx: usize, window: u64) -> SgqQuery {
    SgqQuery::new(
        parse_program(VARIANT_PLANS[plan_idx]).unwrap(),
        WindowSpec::new(window, VARIANT_SLIDE),
    )
}

/// Raw events as `(src, trg, label ordinal, Δt)`; materialized per engine
/// so each side's own interner resolves the label names.
fn variant_events(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u8, u64)>> {
    prop::collection::vec((0u64..10, 0u64..10, 0u8..2, 1u64..4), 8..max_len)
}

fn variant_sges(evs: &[(u64, u64, u8, u64)], labels: &dyn Fn(&str) -> Label) -> Vec<Sge> {
    let lv = [labels("a"), labels("b")];
    let mut t = 0u64;
    evs.iter()
        .map(|&(s, tr, l, dt)| {
            t = (t + dt).min(VARIANT_SPAN);
            Sge::new(VertexId(s), VertexId(tr), lv[l as usize], t)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn widest_window_variant_deregisters_without_perturbing_survivors(
        evs in variant_events(48),
        plan_idx in 0usize..3,
        variants in 2usize..4,
        split_pct in 25usize..75,
    ) {
        let windows = &VARIANT_WINDOWS[..variants];
        let widest = variants - 1;

        let mut host = MultiQueryEngine::new();
        let host_ids: Vec<QueryId> = windows
            .iter()
            .map(|w| host.register(&variant_query(plan_idx, *w)))
            .collect();

        let host_labels = host.labels().clone();
        let sges = variant_sges(&evs, &|n| {
            host_labels.get(n).unwrap_or(Label(u32::MAX))
        });
        let split = (sges.len() * split_pct / 100).max(1);

        for sge in &sges[..split] {
            host.process(*sge);
        }

        // Pin the departing widest variant's own log at the moment it
        // leaves: identical to a dedicated engine over the same prefix.
        let mut ref_widest = Engine::from_query(&variant_query(plan_idx, windows[widest]));
        let wl = ref_widest.labels().clone();
        let ref_sges = variant_sges(&evs, &|n| wl.get(n).unwrap_or(Label(u32::MAX)));
        for sge in &ref_sges[..split] {
            ref_widest.process(*sge);
        }
        prop_assert_eq!(
            coalesced(host.results(host_ids[widest])),
            coalesced(ref_widest.results()),
            "widest variant's log at departure"
        );

        prop_assert!(host.deregister(host_ids[widest]));

        for sge in &sges[split..] {
            host.process(*sge);
        }

        // Host-vs-dedicated: every surviving variant matches an engine
        // that ran the whole stream alone.
        let end = VARIANT_SPAN + VARIANT_WINDOWS[widest];
        for (v, si) in host_ids[..widest].iter().enumerate() {
            let mut dedicated = Engine::from_query(&variant_query(plan_idx, windows[v]));
            let dl = dedicated.labels().clone();
            for sge in variant_sges(&evs, &|n| dl.get(n).unwrap_or(Label(u32::MAX))) {
                dedicated.process(sge);
            }
            prop_assert_eq!(
                coalesced(host.results(*si)),
                coalesced(dedicated.results()),
                "survivor window={} coverage",
                windows[v]
            );
            for t in (0..=end).step_by(7) {
                prop_assert_eq!(
                    host.answer_at(*si, t),
                    dedicated.answer_at(t),
                    "survivor window={} answers at t={}",
                    windows[v],
                    t
                );
            }
            // Route-once drain semantics survive the exit: everything
            // exactly once, then empty.
            prop_assert_eq!(host.drain(*si).len(), host.results(*si).len());
            prop_assert_eq!(host.drain(*si).len(), 0);
        }
    }
}
