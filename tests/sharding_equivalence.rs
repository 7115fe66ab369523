//! Shard- and worker-count invariance (property-based): `shards` and
//! `workers` are accepted and ignored — the engine runs one serial
//! level-ordered sweep whatever they say. For any random stream and batch
//! split, the engine must produce **bit-identical** result logs — not
//! merely equal coverage — and equal [`ExecStats`] at every tested
//! `(shards, workers)` configuration, for both [`Engine`] and
//! [`MultiQueryEngine`], the latter including a mid-stream deregister +
//! re-register (register-time catch-up replays retained history, so
//! registration churn must not perturb determinism either).
//!
//! `(1, 1)` is the baseline; `(2, 1)` and `(4, 4)` are the settings that
//! once selected a label-sharded sweep, inline and on a worker pool.
//!
//! [`ExecStats`]: s_graffito::core::metrics::ExecStats

use proptest::prelude::*;
use s_graffito::prelude::*;
use s_graffito::types::{Sge, VertexId};

const WINDOW: u64 = 24;
const SLIDE: u64 = 6;
const SPAN: u64 = 72;

/// The `(shards, workers)` matrix every property is checked across; the
/// first entry is the baseline.
const CONFIGS: [(usize, usize); 3] = [(1, 1), (2, 1), (4, 4)];

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

fn opts(with_deletes: bool, shards: usize, workers: usize) -> EngineOptions {
    EngineOptions {
        suppress_duplicates: !with_deletes,
        shards,
        workers,
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

/// Multi-label plans covering the join tree, the Kleene closure, and a
/// composite of both.
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
/// (order included) and every executor counter.
fn check_bit_identical(
    baseline: &Engine,
    other: &Engine,
    config: (usize, usize),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        baseline.results(),
        other.results(),
        "insert log at {:?}",
        config
    );
    prop_assert_eq!(
        baseline.deleted_results(),
        other.deleted_results(),
        "delete log at {:?}",
        config
    );
    prop_assert_eq!(
        baseline.exec_stats(),
        other.exec_stats(),
        "executor counters at {:?}",
        config
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_sharded_identical_append_only(
        evs in events(60, false),
        cuts in prop::collection::vec(0usize..60, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let (s0, w0) = CONFIGS[0];
        let baseline = run_engine(&q, &ops, &cuts, opts(false, s0, w0));
        for &(shards, workers) in &CONFIGS[1..] {
            let run = run_engine(&q, &ops, &cuts, opts(false, shards, workers));
            check_bit_identical(&baseline, &run, (shards, workers))?;
        }
    }

    #[test]
    fn engine_sharded_identical_with_deletions(
        evs in events(50, true),
        cuts in prop::collection::vec(0usize..50, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let ops = materialize(&evs, &label_vec(&q));
        let (s0, w0) = CONFIGS[0];
        let baseline = run_engine(&q, &ops, &cuts, opts(true, s0, w0));
        for &(shards, workers) in &CONFIGS[1..] {
            let run = run_engine(&q, &ops, &cuts, opts(true, shards, workers));
            check_bit_identical(&baseline, &run, (shards, workers))?;
        }
    }

    #[test]
    fn multiquery_sharded_identical_with_rereg(
        evs in events(50, false),
        cuts in prop::collection::vec(0usize..50, 0..8),
        dereg_plan in 0usize..3,
        dereg_step in 0usize..50,
    ) {
        // One host per configuration, all driven identically — including
        // a mid-stream deregister of one query and its re-registration
        // one flush later (catch-up replays retained history). Collected
        // `(QueryId, Sgt)` pairs are compared per flush, so even the
        // cross-query emission interleaving must match the baseline
        // exactly.
        let queries: Vec<SgqQuery> = PLANS.iter().map(|p| query(p)).collect();
        let mut hosts: Vec<MultiQueryEngine> = CONFIGS
            .iter()
            .map(|&(shards, workers)| {
                MultiQueryEngine::with_options(EngineOptions {
                    shards,
                    workers,
                    ..Default::default()
                })
            })
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
                    "collected pairs diverged at {:?}",
                    CONFIGS[h]
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
                    "query slot {} insert log at {:?}",
                    slot,
                    CONFIGS[h]
                );
                prop_assert_eq!(
                    hosts[0].deleted_results(base_id),
                    hosts[h].deleted_results(host_id),
                    "query slot {} delete log at {:?}",
                    slot,
                    CONFIGS[h]
                );
            }
            prop_assert_eq!(
                baseline_exec,
                hosts[h].exec_stats(),
                "executor counters at {:?}",
                CONFIGS[h]
            );
        }
    }
}
