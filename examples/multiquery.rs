//! Multi-query host: two users' persistent queries share one stream and —
//! because both need the `follows+` closure — one physical S-PATH
//! operator.
//!
//! ```text
//! cargo run --example multiquery
//! SGQ_SHARDS=2 SGQ_WORKERS=2 cargo run --example multiquery   # label shards on a worker pool
//! ```

use s_graffito::prelude::*;

fn main() {
    let window = WindowSpec::sliding(24);
    // `EngineOptions::workers` (default: the `SGQ_WORKERS` environment
    // variable, else 1) runs each schedule level's ready operators on a
    // worker pool. Results are identical at any setting — parallelism is
    // an executor property, not a semantic one.
    let opts = EngineOptions::default();
    let mut host = MultiQueryEngine::with_options(opts);
    println!("epoch sweep workers: {}", opts.workers);

    // Alice watches who can reach whom through follows chains.
    let alice = host.register(&SgqQuery::new(
        parse_program("Reach(x, y) <- follows+(x, y).").expect("valid program"),
        window,
    ));
    // Bob watches recommendations: people reachable through follows chains
    // who posted something — the same follows+ closure, joined further.
    let bob = host.register(&SgqQuery::new(
        parse_program("Rec(u, m) <- follows+(u, v), posts(v, m).").expect("valid program"),
        window,
    ));

    println!(
        "Alice ({alice}) runs:\n{}",
        host.plan_display(alice).unwrap()
    );
    println!("Bob ({bob}) runs:\n{}", host.plan_display(bob).unwrap());
    println!(
        "{} queries, {} live physical operators (one shared follows+ S-PATH, \
         one shared follows WSCAN):",
        host.query_count(),
        host.operator_count()
    );
    for name in host.operator_names() {
        println!("    {name}");
    }

    // One shared input stream; every arrival is evaluated once per shared
    // operator and routed to each subscribed query.
    let follows = host.labels().get("follows").expect("EDB label");
    let posts = host.labels().get("posts").expect("EDB label");
    let stream = [
        (1u64, 2u64, follows, 0u64), // alice follows bob
        (2, 3, follows, 2),          // bob follows carol
        (3, 9, posts, 5),            // carol posts m9
        (2, 7, posts, 6),            // bob posts m7
    ];
    for (src, trg, label, t) in stream {
        let out = host.process(Sge::raw(src, trg, label, t));
        let kind = if label == follows { "follows" } else { "posts" };
        println!("t={t}: +{kind}({src}, {trg})");
        for (q, s) in out {
            let who = if q == alice { "alice" } else { "bob" };
            println!("    → {who}: ({}, {}) valid {}", s.src, s.trg, s.interval);
        }
    }

    // High-throughput feeds skip `process`'s per-call (QueryId, Sgt) pair
    // building entirely: drain-only ingestion, then a cursor per
    // subscription whenever the consumer actually wants results.
    host.ingest_batch(&[Sge::raw(9, 1, follows, 8), Sge::raw(3, 4, posts, 9)]);
    for (q, who) in [(alice, "alice"), (bob, "bob")] {
        println!("{who} drains {} results", host.drain(q).len());
    }

    // Each query keeps its full emission log independently.
    println!(
        "\nalice has {} results, bob has {}",
        host.results(alice).len(),
        host.results(bob).len()
    );

    // Bob leaves: his exclusive operators (the posts WSCAN and the join)
    // are retired; the shared follows+ subplan lives on for Alice.
    host.deregister(bob);
    println!(
        "after bob deregisters: {} operators remain for {} query",
        host.operator_count(),
        host.query_count()
    );
    for name in host.operator_names() {
        println!("    {name}");
    }
}
