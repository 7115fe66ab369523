//! Explicit deletions (§6.2.5): negative tuples must leave the engine in a
//! state equivalent to never having seen the deleted edges.

use s_graffito::datagen::{resolve, uniform_stream};
use s_graffito::prelude::*;
use s_graffito::query::oracle;
use s_graffito::types::{FxHashSet, SnapshotGraph};

fn deletion_opts() -> EngineOptions {
    EngineOptions {
        suppress_duplicates: false,
        ..Default::default()
    }
}

/// The engine's deletion contract (set semantics, Def. 10) requires at
/// most one live insertion per `(src, trg, label)`; keep first occurrences.
fn unique_edges(stream: &s_graffito::types::InputStream) -> Vec<Sge> {
    let mut seen: FxHashSet<s_graffito::types::Edge> = FxHashSet::default();
    stream
        .sges()
        .iter()
        .filter(|s| seen.insert(s.edge()))
        .copied()
        .collect()
}

/// Interleaves inserts with deletions of random earlier edges and checks
/// the final answers against the oracle over the surviving edges.
fn check_interleaved(program_text: &str, labels: &[&'static str], seed: u64) {
    let program = parse_program(program_text).unwrap();
    // A window large enough that nothing expires: isolates deletion logic.
    let window = WindowSpec::sliding(10_000);
    let query = SgqQuery::new(program.clone(), window);
    let mut engine = Engine::from_query_with(&query, deletion_opts());
    let raw = uniform_stream(labels, 6, 80, 80, seed);
    let stream = unique_edges(&resolve(&raw, engine.labels()));

    let mut live: Vec<Sge> = Vec::new();
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for sge in &stream {
        engine.process(*sge);
        live.push(*sge);
        // Delete a random earlier edge about a third of the time.
        if !live.is_empty() && next() % 3 == 0 {
            let idx = (next() as usize) % live.len();
            let victim = live.swap_remove(idx);
            engine.delete(victim);
        }
    }

    let t = stream.last().map(|s| s.t).unwrap();
    let mut snap = SnapshotGraph::new();
    for sge in &live {
        if window.interval_for(sge.t).contains(t) {
            snap.add_edge(sge.edge());
        }
    }
    let expect = oracle::evaluate_answer(&program, &snap);
    assert_eq!(engine.answer_at(t), expect, "{program_text} seed={seed}");
}

#[test]
fn join_queries_survive_interleaved_deletions() {
    for seed in 1..6 {
        check_interleaved("Ans(x, y) <- a(x, z), b(z, y).", &["a", "b"], seed);
    }
}

#[test]
fn triangle_query_survives_interleaved_deletions() {
    for seed in 1..4 {
        check_interleaved(
            "Ans(x, y) <- a(x, y), b(x, m), c(m, y).",
            &["a", "b", "c"],
            seed,
        );
    }
}

#[test]
fn spath_index_matches_rebuild_after_deletions() {
    // For PATH, the §6.2.5 guarantee is on the Δ-PATH index: after a
    // deletion, every surviving pair must still be derivable and every
    // removed pair must not be. Compare answers against the oracle.
    for seed in 1..6 {
        let program = parse_program("Ans(x, y) <- a+(x, y).").unwrap();
        let window = WindowSpec::sliding(10_000);
        let query = SgqQuery::new(program.clone(), window);
        let mut engine = Engine::from_query_with(&query, deletion_opts());
        let raw = uniform_stream(&["a"], 6, 40, 40, seed);
        let stream = unique_edges(&resolve(&raw, engine.labels()));

        let mut live: FxHashSet<Sge> = FxHashSet::default();
        let mut events: Vec<Sge> = Vec::new();
        for sge in &stream {
            engine.process(*sge);
            live.insert(*sge);
            events.push(*sge);
            if events.len().is_multiple_of(4) {
                let victim = events[events.len() / 2];
                if live.remove(&victim) {
                    engine.delete(victim);
                }
            }
        }
        let t = stream.last().map(|s| s.t).unwrap();
        let mut snap = SnapshotGraph::new();
        for sge in &live {
            snap.add_edge(sge.edge());
        }
        let expect = oracle::evaluate_answer(&program, &snap);
        // The result *stream* under PATH deletions follows the negative-
        // tuple protocol; validate the current-pair view derived from it.
        let got: FxHashSet<(VertexId, VertexId)> = engine.answer_at(t);
        assert_eq!(got, expect, "seed={seed}");
    }
}

#[test]
fn delete_then_reinsert_is_idempotent() {
    let program = parse_program("Ans(x, y) <- a(x, z), a(z, y).").unwrap();
    let query = SgqQuery::new(program, WindowSpec::sliding(1_000));
    let mut engine = Engine::from_query_with(&query, deletion_opts());
    let a = engine.labels().get("a").unwrap();
    let e1 = Sge::raw(1, 2, a, 0);
    let e2 = Sge::raw(2, 3, a, 1);
    engine.process(e1);
    engine.process(e2);
    assert_eq!(engine.answer_at(2).len(), 1);
    engine.delete(e1);
    assert!(engine.answer_at(2).is_empty());
    engine.process(Sge::raw(1, 2, a, 3));
    assert_eq!(engine.answer_at(3).len(), 1);
    engine.delete(e2);
    assert!(engine.answer_at(3).is_empty());
}

/// A host that suppresses duplicates cannot retract exactly, so a delete
/// on one is refused loudly, in release builds too, instead of leaving
/// wrong answers behind.
#[test]
#[should_panic(expected = "explicit deletions require suppress_duplicates = false")]
fn delete_on_a_suppressing_host_panics() {
    let mut host = MultiQueryEngine::new();
    let program = parse_program("Ans(x, y) <- a+(x, y).").unwrap();
    host.register(&SgqQuery::new(program, WindowSpec::sliding(100)));
    let a = host.labels().get("a").unwrap();
    let e = Sge::raw(1, 2, a, 0);
    host.process(e);
    host.delete(e);
}
