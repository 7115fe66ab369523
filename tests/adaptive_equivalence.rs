//! `adaptive` is accepted and ignored (property-based): on Zipf-skewed
//! random streams, engines run with `adaptive` on — at every tested
//! `(shards, workers)` × [`ObsLevel`] configuration, the settings that
//! once drove sketch maintenance and shard rebalancing — produce
//! **bit-identical** result logs and equal executor counters versus the
//! non-adaptive `(1, 1)` baseline.

use proptest::prelude::*;
use s_graffito::prelude::*;
use s_graffito::types::{Sge, VertexId};

const WINDOW: u64 = 24;
const SLIDE: u64 = 6;
const SPAN: u64 = 72;

/// The `(shards, workers)` matrix, from the baseline to the setting that
/// once selected the pool-backed sharded sweep.
const CONFIGS: [(usize, usize); 2] = [(1, 1), (4, 4)];

/// Observability levels the adaptive runs are repeated under.
const OBS: [ObsLevel; 2] = [ObsLevel::Off, ObsLevel::Timing];

/// One raw stream event, Zipf-skewed towards label 0 (imbalanced label
/// mass, the input an adaptive executor would react to).
fn events(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, u8, u64)>> {
    // The label ordinal is drawn 0..12 and folded through a fixed skew
    // table: half the mass on label 0, a third on 1, the rest on 2.
    const SKEW: [u8; 12] = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2];
    prop::collection::vec(
        (0u64..12, 0u64..12, 0usize..12, 1u64..4).prop_map(|(s, t, l, dt)| (s, t, SKEW[l], dt)),
        1..max_len,
    )
}

/// Materializes events into ordered sges.
fn materialize(events: &[(u64, u64, u8, u64)], labels: &[Label]) -> Vec<Sge> {
    let mut t = 0u64;
    events
        .iter()
        .map(|&(s, tr, l, dt)| {
            t = (t + dt).min(SPAN);
            Sge::new(VertexId(s), VertexId(tr), labels[l as usize], t)
        })
        .collect()
}

fn opts(shards: usize, workers: usize, obs: ObsLevel, adaptive: bool) -> EngineOptions {
    EngineOptions {
        suppress_duplicates: true,
        shards,
        workers,
        obs,
        adaptive,
        ..Default::default()
    }
}

/// Drives `sges` through `process_batch`, splitting at the given cut
/// points.
fn run_engine(query: &SgqQuery, sges: &[Sge], cuts: &[usize], options: EngineOptions) -> Engine {
    let mut e = Engine::from_query_with(query, options);
    let mut batch: Vec<Sge> = Vec::new();
    for (i, &sge) in sges.iter().enumerate() {
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

/// Multi-label plans: the join tree, the Kleene closure, and both.
const PLANS: [&str; 3] = [
    "Ans(x, y) <- a(x, z), b(z, y).",
    "Ans(x, y) <- a+(x, y).",
    "Ans(x, y) <- a+(x, m), b(m, y).",
];

/// The EDB labels `a`, `b`, `c` in `q`'s namespace.
fn label_vec(q: &SgqQuery) -> Vec<Label> {
    let labels = Engine::from_query(q).labels().clone();
    ["a", "b", "c"]
        .iter()
        .map(|n| labels.get(n).unwrap_or(Label(u32::MAX)))
        .collect()
}

fn check_bit_identical(
    baseline: &Engine,
    other: &Engine,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        baseline.results(),
        other.results(),
        "insert log {}",
        context
    );
    prop_assert_eq!(
        baseline.deleted_results(),
        other.deleted_results(),
        "delete log {}",
        context
    );
    prop_assert_eq!(
        baseline.exec_stats(),
        other.exec_stats(),
        "executor counters {}",
        context
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adaptive on, every `(shards, workers)` × obs level: bit-identical
    /// to the **non-adaptive** baseline.
    #[test]
    fn adaptive_identical_across_configs_and_obs(
        evs in events(60),
        cuts in prop::collection::vec(0usize..60, 0..8),
        plan_idx in 0usize..3,
    ) {
        let q = query(PLANS[plan_idx]);
        let sges = materialize(&evs, &label_vec(&q));
        let baseline = run_engine(&q, &sges, &cuts, opts(1, 1, ObsLevel::Off, false));
        for &(shards, workers) in &CONFIGS {
            for &obs in &OBS {
                let run = run_engine(&q, &sges, &cuts, opts(shards, workers, obs, true));
                let context = format!("at ({shards},{workers}) obs {obs:?}");
                check_bit_identical(&baseline, &run, &context)?;
            }
        }
    }
}
