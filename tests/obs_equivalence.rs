//! Observability neutrality (property-based): for any random stream and
//! batch split, enabling observability — [`ObsLevel::Counters`] or
//! [`ObsLevel::Timing`] — must leave result logs **bit-identical** (not
//! merely equal coverage) and the executor's [`ExecStats`] unchanged
//! relative to [`ObsLevel::Off`], for both [`Engine`] and
//! [`MultiQueryEngine`] — the latter including a
//! mid-stream deregister + re-register (register-time catch-up replays
//! through a pinned `ObsLevel::Off` instance, so the histograms' marks
//! must resynchronize without perturbing anything).
//!
//! `workload_queries_are_obs_neutral` holds the same contract on the
//! evaluation workloads (SO and SNB Q1–Q7 over generated streams).
//!
//! The unit tests at the bottom cover the positive side of the contract:
//! under `Timing` the counters actually populate — `explain_analyze`
//! renders non-zero per-operator work, the metrics snapshot serialises to
//! parseable JSONL, a [`JsonlTraceSink`] receives the lifecycle events,
//! and the per-query histograms fill.
//!
//! [`ExecStats`]: s_graffito::core::metrics::ExecStats

use proptest::prelude::*;
use s_graffito::datagen::{resolve, snb_stream, so_stream, workloads, SnbConfig, SoConfig};
use s_graffito::prelude::*;
use s_graffito::types::{Sge, VertexId};

const WINDOW: u64 = 24;
const SLIDE: u64 = 6;
const SPAN: u64 = 72;

/// The enabled levels compared against the [`ObsLevel::Off`] baseline.
const LEVELS: [ObsLevel; 2] = [ObsLevel::Counters, ObsLevel::Timing];

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

fn opts(with_deletes: bool, obs: ObsLevel) -> EngineOptions {
    EngineOptions {
        suppress_duplicates: !with_deletes,
        obs,
        ..Default::default()
    }
}

/// Drives `ops` through `process_batch` under the given options,
/// splitting insert runs at the given cut points (deletions are their
/// own per-tuple calls, as in a real deletion pipeline).
fn run_engine(
    query: &SgqQuery,
    ops: &[(Sge, bool)],
    cuts: &[usize],
    options: EngineOptions,
) -> Engine {
    let mut e = Engine::from_query_with(query, options);
    let mut batch: Vec<Sge> = Vec::new();
    for (i, &(sge, del)) in ops.iter().enumerate() {
        if del {
            e.process_batch(&batch);
            batch.clear();
            e.delete(sge);
            continue;
        }
        batch.push(sge);
        if cuts.contains(&i) {
            e.process_batch(&batch);
            batch.clear();
        }
    }
    e.process_batch(&batch);
    e
}

fn query(text: &str) -> SgqQuery {
    SgqQuery::new(parse_program(text).unwrap(), WindowSpec::new(WINDOW, SLIDE))
}

/// Plans covering the join tree, the Kleene closure, and a composite of
/// both.
const PLANS: [&str; 3] = [
    "Ans(x, y) <- a(x, z), b(z, y).",
    "Ans(x, y) <- a+(x, y).",
    "Ans(x, y) <- a+(x, m), b(m, y).",
];

/// The EDB labels `a`, `b`, `c` in `q`'s namespace (indexable by the
/// event's label ordinal).
fn label_vec(q: &SgqQuery) -> Vec<Label> {
    let labels = Engine::from_query(q).labels().clone();
    ["a", "b", "c"]
        .iter()
        .map(|n| labels.get(n).unwrap_or(Label(u32::MAX)))
        .collect()
}

/// Bit-identical engine comparison: result logs as `Vec<Sgt>` equality
/// (order included) and whole executor counters.
fn check_bit_identical(
    baseline: &Engine,
    other: &Engine,
    obs: ObsLevel,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        baseline.results(),
        other.results(),
        "insert log at obs={}",
        obs.name()
    );
    prop_assert_eq!(
        baseline.deleted_results(),
        other.deleted_results(),
        "delete log at obs={}",
        obs.name()
    );
    prop_assert_eq!(
        baseline.exec_stats(),
        other.exec_stats(),
        "executor counters at obs={}",
        obs.name()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_obs_neutral_append_only(
        evs in events(60, false),
        cuts in prop::collection::vec(0usize..60, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let baseline = run_engine(&q, &ops, &cuts, opts(false, ObsLevel::Off));
        for &obs in &LEVELS {
            let run = run_engine(&q, &ops, &cuts, opts(false, obs));
            check_bit_identical(&baseline, &run, obs)?;
        }
    }

    #[test]
    fn engine_obs_neutral_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let baseline = run_engine(&q, &ops, &cuts, opts(true, ObsLevel::Off));
        for &obs in &LEVELS {
            let run = run_engine(&q, &ops, &cuts, opts(true, obs));
            check_bit_identical(&baseline, &run, obs)?;
        }
    }

    #[test]
    fn multiquery_obs_neutral_with_rereg(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
        dereg_plan in 0usize..3,
        dereg_step in 0usize..50,
    ) {
        // One host per observability level, all driven identically — including a mid-stream
        // deregister of one query and its re-registration one flush later
        // (catch-up replays retained history through a pinned Off-level
        // instance). Collected `(QueryId, Sgt)` pairs are compared per
        // flush, so even the cross-query emission interleaving must match
        // the Off baseline exactly.
        let levels = [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Timing];
        let queries: Vec<SgqQuery> = PLANS.iter().map(|p| query(p)).collect();
        let mut hosts: Vec<MultiQueryEngine> = levels
            .iter()
            .map(|&obs| MultiQueryEngine::with_options(opts(false, obs)))
            .collect();
        let mut ids: Vec<Vec<QueryId>> = hosts
            .iter_mut()
            .map(|h| queries.iter().map(|q| h.register(q)).collect())
            .collect();

        let labels: Vec<Label> = ["a", "b", "c"]
            .iter()
            .map(|n| hosts[0].labels().get(n).unwrap_or(Label(u32::MAX)))
            .collect();
        let ops = materialize(&evs, &labels);

        // The dereg fires at the first flush at or after `dereg_step`;
        // the re-register happens at the following flush, so the query
        // is genuinely absent for a stretch of stream.
        let mut dereg_done = false;
        let mut rereg_done = false;
        let mut batch: Vec<Sge> = Vec::new();
        let mut step = 0usize;
        let mut flush = |hosts: &mut Vec<MultiQueryEngine>,
                         ids: &mut Vec<Vec<QueryId>>,
                         batch: &mut Vec<Sge>,
                         step: usize|
         -> Result<(), TestCaseError> {
            let baseline_pairs = hosts[0].process_batch(batch);
            // Baseline pair log re-keyed by registration slot: QueryIds
            // differ across hosts after a re-registration, but slots
            // correspond.
            let slot_of = |ids: &[QueryId], q: QueryId| ids.iter().position(|&i| i == q);
            let baseline_slots: Vec<(Option<usize>, Sgt)> = baseline_pairs
                .iter()
                .map(|(q, s)| (slot_of(&ids[0], *q), s.clone()))
                .collect();
            for h in 1..hosts.len() {
                let pairs = hosts[h].process_batch(batch);
                let slots: Vec<(Option<usize>, Sgt)> = pairs
                    .iter()
                    .map(|(q, s)| (slot_of(&ids[h], *q), s.clone()))
                    .collect();
                prop_assert_eq!(
                    &baseline_slots,
                    &slots,
                    "collected pairs diverged at obs={}",
                    levels[h].name()
                );
            }
            batch.clear();
            if !dereg_done && step >= dereg_step {
                for (h, host) in hosts.iter_mut().enumerate() {
                    prop_assert!(host.deregister(ids[h][dereg_plan]));
                }
                dereg_done = true;
            } else if dereg_done && !rereg_done {
                for (h, host) in hosts.iter_mut().enumerate() {
                    ids[h][dereg_plan] = host.register(&queries[dereg_plan]);
                }
                rereg_done = true;
            }
            Ok(())
        };
        for &(sge, _) in &ops {
            batch.push(sge);
            if cuts.contains(&step) {
                flush(&mut hosts, &mut ids, &mut batch, step)?;
            }
            step += 1;
        }
        flush(&mut hosts, &mut ids, &mut batch, step)?;

        // Final per-query logs and executor counters, bit-identical.
        let baseline_exec = hosts[0].exec_stats();
        for h in 1..hosts.len() {
            for (slot, (&base_id, &host_id)) in ids[0].iter().zip(&ids[h]).enumerate() {
                prop_assert_eq!(
                    hosts[0].results(base_id),
                    hosts[h].results(host_id),
                    "query slot {} insert log at obs={}",
                    slot,
                    levels[h].name()
                );
                prop_assert_eq!(
                    hosts[0].deleted_results(base_id),
                    hosts[h].deleted_results(host_id),
                    "query slot {} delete log at obs={}",
                    slot,
                    levels[h].name()
                );
            }
            prop_assert_eq!(
                baseline_exec,
                hosts[h].exec_stats(),
                "executor counters at obs={}",
                levels[h].name()
            );
        }
    }
}

/// The workload queries under every level: equal insert and deletion
/// counts and executor counters to `Off`, and measured operator time
/// under `Timing`.
#[test]
fn workload_queries_are_obs_neutral() {
    let streams = [
        (
            workloads::Dataset::So,
            so_stream(&SoConfig::new(40, 400).with_span(200)),
        ),
        (
            workloads::Dataset::Snb,
            snb_stream(&SnbConfig::new(30, 400).with_span(200)),
        ),
    ];
    for (ds, raw) in &streams {
        for (name, program) in workloads::all_queries(*ds) {
            let stream = resolve(raw, program.labels());
            let query = SgqQuery::new(program, WindowSpec::new(100, 20));
            let run = |obs| {
                let options = EngineOptions {
                    materialize_paths: false,
                    obs,
                    ..Default::default()
                };
                let mut engine = Engine::from_query_with(&query, options);
                let stats = engine.run(&stream);
                (stats.results, stats.deletions, engine)
            };
            let (results, deletions, baseline) = run(ObsLevel::Off);
            assert!(results > 0, "{} {name}: no results", ds.name());
            for obs in LEVELS {
                let (r, d, engine) = run(obs);
                let at = format!("{} {name} at obs={}", ds.name(), obs.name());
                assert_eq!((r, d), (results, deletions), "{at}: result counts");
                assert_eq!(engine.exec_stats(), baseline.exec_stats(), "{at}");
                if obs == ObsLevel::Timing {
                    let snap = engine.metrics_snapshot();
                    assert!(
                        snap.operators.iter().any(|op| op.stats.batch_nanos > 0),
                        "{at}: no operator nanos"
                    );
                }
            }
        }
    }
}

/// A small deterministic stream dense enough to make every operator of
/// `a+(x, m), b(m, y)` do work across several epochs and purges.
fn dense_ops(labels: &[Label]) -> Vec<Sge> {
    let mut out = Vec::new();
    for t in 0..SPAN {
        let (s, d) = (t % 7, (t + 3) % 7);
        out.push(Sge::new(
            VertexId(s),
            VertexId(d),
            labels[(t % 2) as usize],
            t,
        ));
    }
    out
}

#[test]
fn explain_analyze_reports_live_counters_under_timing() {
    let q = query(PLANS[2]);
    let mut engine = Engine::from_query_with(
        &q,
        EngineOptions {
            obs: ObsLevel::Timing,
            ..Default::default()
        },
    );
    let labels = label_vec(&q);
    for sge in dense_ops(&labels) {
        engine.process(sge);
    }
    let rendered = engine.explain_analyze();
    assert!(rendered.contains("obs=timing"), "{rendered}");
    // Every lowered operator line carries live counters; at least one did
    // real work with measured time.
    assert!(rendered.contains("inv="), "{rendered}");
    assert!(rendered.contains("time="), "{rendered}");
    // The PATH and PATTERN operators' lines report their state in bytes
    // too; no other operator's does.
    assert!(rendered.contains("S-PATH"), "{rendered}");
    assert!(rendered.contains("PATTERN["), "{rendered}");
    for line in rendered.lines().filter(|l| l.contains(" state=")) {
        let stateful = line.contains("S-PATH") || line.contains("PATTERN[");
        let bytes = line.split(" bytes=").nth(1).map(|r| r.split(' ').next());
        match bytes {
            Some(Some(n)) => {
                assert!(stateful, "{line}");
                assert!(n.parse::<usize>().unwrap() > 0, "{line}");
            }
            _ => assert!(!stateful, "{line}"),
        }
    }
    let snap = engine.metrics_snapshot();
    assert!(!snap.operators.is_empty());
    assert!(snap.operators.iter().any(|op| op.stats.invocations > 0));
    assert!(snap.operators.iter().any(|op| op.stats.batch_nanos > 0));
    assert!(snap.operators.iter().any(|op| op.state_entries > 0));
}

#[test]
fn metrics_snapshot_serialises_parseable_jsonl() {
    let q = query(PLANS[0]);
    let mut engine = Engine::from_query_with(
        &q,
        EngineOptions {
            obs: ObsLevel::Counters,
            ..Default::default()
        },
    );
    let labels = label_vec(&q);
    for sge in dense_ops(&labels) {
        engine.process(sge);
    }
    let snap = engine.metrics_snapshot();
    let jsonl = snap.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 1 + snap.operators.len());
    assert!(lines[0].starts_with("{\"record\":\"exec\""));
    for line in &lines[1..] {
        assert!(line.starts_with("{\"record\":\"operator\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    let csv = snap.to_csv();
    assert_eq!(csv.lines().count(), 1 + snap.operators.len());
}

#[test]
fn trace_sink_receives_lifecycle_events() {
    let q = query(PLANS[2]);
    let mut host = MultiQueryEngine::new();
    let sink = JsonlTraceSink::new();
    host.set_trace_sink(Box::new(sink.clone()));
    let id = host.register(&q);
    let labels: Vec<Label> = ["a", "b", "c"]
        .iter()
        .map(|n| host.labels().get(n).unwrap_or(Label(u32::MAX)))
        .collect();
    // Several edges per tick on both labels, batch-ingested, so tick
    // epochs sweep more than one level.
    let mut ops = Vec::new();
    for t in 0..SPAN {
        for k in 0..4 {
            let x = 4 * t + k;
            ops.push(Sge::new(
                VertexId(x % 29),
                VertexId((x + 7) % 29),
                labels[(x % 2) as usize],
                t,
            ));
        }
    }
    host.ingest_batch(&ops);
    host.ingest(Sge::new(VertexId(0), VertexId(1), labels[0], SPAN));
    host.deregister(id);
    let jsonl = sink.to_jsonl();
    for kind in [
        "\"event\":\"register\"",
        "\"event\":\"epoch_open\"",
        "\"event\":\"epoch_close\"",
        "\"event\":\"level_dispatch\"",
        "\"event\":\"purge\"",
        "\"event\":\"deregister\"",
    ] {
        assert!(jsonl.contains(kind), "missing {kind} in:\n{jsonl}");
    }
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"event\":\"") && line.ends_with('}'),
            "{line}"
        );
    }
}

#[test]
fn multiquery_histograms_and_explain_analyze_populate() {
    let mut host = MultiQueryEngine::with_options(EngineOptions {
        obs: ObsLevel::Timing,
        ..Default::default()
    });
    // Two structurally identical registrations share their whole plan, so
    // the attributed cost is split by fan-out share; a third distinct one
    // keeps the dataflow non-trivial.
    let shared_a = host.register(&query(PLANS[1]));
    let shared_b = host.register(&query(PLANS[1]));
    let solo = host.register(&query(PLANS[0]));
    let labels: Vec<Label> = ["a", "b", "c"]
        .iter()
        .map(|n| host.labels().get(n).unwrap_or(Label(u32::MAX)))
        .collect();
    for sge in dense_ops(&labels) {
        host.ingest(sge);
    }
    let snap = host.metrics_snapshot();
    assert_eq!(snap.queries.len(), 3);
    for qs in &snap.queries {
        assert!(qs.results > 0, "q{} emitted nothing", qs.query);
        assert!(
            qs.emissions.count > 0,
            "q{} emission histogram empty",
            qs.query
        );
        assert!(
            qs.latency.count > 0,
            "q{} latency histogram empty",
            qs.query
        );
        assert!(qs.latency.max > 0, "q{} recorded zero nanos", qs.query);
    }
    // The query line reports its root sink's reserved bytes, as the sink
    // census counts them; the two twins read one sink.
    let sinks = host.sink_censuses();
    let mut sink_bytes = Vec::new();
    for id in [shared_a, shared_b, solo] {
        let rendered = host.explain_analyze(id).expect("registered query");
        assert!(rendered.contains("inv="), "{rendered}");
        assert!(rendered.contains("epochs"), "{rendered}");
        let bytes: usize = rendered
            .split_once("sink_bytes=")
            .and_then(|(_, rest)| rest.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no sink_bytes= in {rendered}"));
        assert!(
            sinks
                .iter()
                .any(|(_, c)| c.reserved_bytes == bytes && bytes > 0),
            "sink_bytes={bytes} matches no sink census: {sinks:?}"
        );
        sink_bytes.push(bytes);
    }
    assert_eq!(sink_bytes[0], sink_bytes[1], "twins share one root sink");
    assert!(host.explain_analyze(QueryId(99)).is_none());
}
