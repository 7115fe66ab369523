//! The master correctness property of the whole system (Def. 14):
//! at every time instant `t`, the snapshot of the streaming query's result
//! equals the one-time query evaluated over the snapshot of the windowed
//! input — checked across query shapes, window configurations, and both
//! PATH implementations, on randomized streams.

mod common;

use common::{oracle_answer_at, windowed_sgt};
use s_graffito::datagen::uniform_stream;
use s_graffito::prelude::*;
use s_graffito::types::{Edge, FxHashSet, InputStream};

/// Runs `program_text` over a random stream and checks Def. 14 at every
/// instant in `[0, horizon)`.
#[allow(clippy::too_many_arguments)]
fn check(
    program_text: &str,
    window: WindowSpec,
    stream_labels: &[&'static str],
    vertices: u64,
    edges: usize,
    span: u64,
    seed: u64,
    opts: EngineOptions,
) {
    let program = parse_program(program_text).unwrap();
    let query = SgqQuery::new(program.clone(), window);
    let mut engine = Engine::from_query_with(&query, opts);
    let raw = uniform_stream(stream_labels, vertices, edges, span, seed);
    let stream: InputStream = s_graffito::datagen::resolve(&raw, engine.labels());

    let mut windowed: Vec<Sgt> = Vec::new();
    for sge in &stream {
        engine.process(*sge);
        windowed.push(windowed_sgt(sge, window));
    }

    // Window movement is time-driven: drive event time to the horizon so
    // the negative-tuple PATH processes its remaining expirations (the
    // direct-approach operators need no such processing — purge is GC).
    let horizon = span + window.size + 2;
    engine.advance_time(horizon);
    for t in 0..horizon {
        let expect = oracle_answer_at(&program, &windowed, t);
        let got = engine.answer_at(t);
        assert_eq!(
            got, expect,
            "{program_text} window={window:?} seed={seed} t={t}"
        );
    }
}

const QUERIES: &[(&str, &[&str])] = &[
    ("Ans(x, y) <- a(x, y).", &["a", "b"]),
    ("Ans(x, y) <- a(x, z), b(z, y).", &["a", "b"]),
    ("Ans(x, y) <- a(x, z), b(z, y), a(y, w).", &["a", "b"]),
    ("Ans(x, y) <- a+(x, y).", &["a", "b"]),
    ("Ans(x, y) <- a*(x, y).", &["a", "b"]),
    ("Ans(x, y) <- (a b*)(x, y).", &["a", "b"]),
    ("Ans(x, y) <- (a b* c*)(x, y).", &["a", "b", "c"]),
    ("Ans(x, y) <- (a b c)+(x, y).", &["a", "b", "c"]),
    ("Ans(x, y) <- (a|b)+(x, y).", &["a", "b"]),
    ("Ans(x, y) <- a+(x, y), b(x, m), c(m, y).", &["a", "b", "c"]),
    (
        "RL(x, y)  <- a+(x, y), b(x, m), c(m, y).
         Ans(x, m) <- RL+(x, y), c(m, y).",
        &["a", "b", "c"],
    ),
    (
        "D(x, y)   <- a(x, y).
         D(x, y)   <- b(x, y).
         Ans(x, y) <- D+(x, y).",
        &["a", "b"],
    ),
];

#[test]
fn direct_path_impl_is_snapshot_reducible() {
    for (i, &(q, labels)) in QUERIES.iter().enumerate() {
        check(
            q,
            WindowSpec::sliding(10),
            labels,
            7,
            60,
            30,
            42 + i as u64,
            EngineOptions::default(),
        );
    }
}

#[test]
fn negative_tuple_path_impl_is_snapshot_reducible() {
    // The [57]-style PATH lazily extends validity at window movements, so
    // exactness holds under β-aligned windows (T % β == 0), which is also
    // how the paper runs it (30d window, 1d slide).
    for (i, &(q, labels)) in QUERIES.iter().enumerate() {
        check(
            q,
            WindowSpec::sliding(10),
            labels,
            6,
            50,
            25,
            1000 + i as u64,
            EngineOptions {
                path_impl: PathImpl::NegativeTuple,
                ..Default::default()
            },
        );
    }
}

#[test]
fn coarse_slides_are_snapshot_reducible() {
    for (i, &(q, labels)) in QUERIES.iter().enumerate() {
        check(
            q,
            WindowSpec::new(12, 4),
            labels,
            6,
            50,
            40,
            7_000 + i as u64,
            EngineOptions::default(),
        );
    }
}

#[test]
fn many_seeds_on_the_recursive_composite() {
    let q = "RL(x, y)  <- a+(x, y), b(x, m), c(m, y).
             Ans(x, m) <- RL+(x, y), c(m, y).";
    for seed in 0..8 {
        check(
            q,
            WindowSpec::sliding(8),
            &["a", "b", "c"],
            6,
            70,
            35,
            seed,
            EngineOptions::default(),
        );
    }
}

#[test]
fn path_payloads_are_valid_witnesses() {
    // Every PATH result's materialized path must be contiguous, connect
    // the result endpoints, spell a word in L(R), and be valid throughout
    // the claimed interval.
    let program = parse_program("Ans(x, y) <- (a b* c*)(x, y).").unwrap();
    let window = WindowSpec::sliding(12);
    let query = SgqQuery::new(program, window);
    let mut engine = Engine::from_query(&query);
    let raw = uniform_stream(&["a", "b", "c"], 8, 120, 60, 9);
    let stream = s_graffito::datagen::resolve(&raw, engine.labels());

    let mut regex_labels = engine.labels().clone();
    let re = s_graffito::automata::Regex::parse("a b* c*", &mut regex_labels).unwrap();
    let dfa = s_graffito::automata::Dfa::from_regex(&re);

    // Track per-edge coalesced validity for witness checking.
    let mut edge_ivs: std::collections::HashMap<Edge, s_graffito::types::IntervalSet> =
        Default::default();
    let mut checked = 0;
    for sge in &stream {
        edge_ivs
            .entry(sge.edge())
            .or_default()
            .insert(window.interval_for(sge.t));
        for r in engine.process(*sge) {
            let Payload::Path(p) = &r.payload else {
                panic!("PATH results must carry materialized paths");
            };
            assert_eq!(p.src(), r.src);
            assert_eq!(p.dst(), r.trg);
            assert!(dfa.accepts(&p.label_sequence()), "witness spells L(R)");
            // The materialized payload is the max-expiry derivation
            // (coalescing, Def. 11 / §6.2.4 fn. 7): every witness edge must
            // be valid at the last claimed instant.
            let last = r.interval.exp - 1;
            for e in p.edges() {
                assert!(
                    edge_ivs.get(e).is_some_and(|set| set.contains(last)),
                    "witness edge {e:?} must be valid at {last} (result {:?})",
                    r.interval
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "exercised {checked} path results");
    let _ = FxHashSet::<u8>::default(); // keep import used
}
