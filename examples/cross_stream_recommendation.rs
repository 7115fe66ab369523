//! Example 4 of the paper: product recommendations that combine **two
//! streaming graphs** — a social network of user interactions and a
//! transaction network of purchases — demonstrating UNION of rule bodies
//! (the `OPTIONAL` patterns of the G-CORE query in Figure 7) and the
//! composability of SGQ (§5.3).
//!
//! ```text
//! cargo run --example cross_stream_recommendation
//! ```

use s_graffito::prelude::*;

fn main() {
    // Figure 7's pattern as an RQ (given in the paper below Example 4):
    //   ACQ(u1, u2) ← likes(u1, m1), posts(u2, m1)
    //   ACQ(u1, u2) ← follows(u1, u2)
    //   REC(u, p)   ← ACQ(u, u2), purchase(u2, p)
    let program = parse_program(
        "ACQ(u1, u2)  <- likes(u1, m1), posts(u2, m1).
         ACQ(u1, u2)  <- follows(u1, u2).
         Answer(u, p) <- ACQ(u, u2), purchase(u2, p).",
    )
    .expect("valid program");
    // Figure 7 windows the two streams individually: the social stream at
    // 24 hours, the transaction stream at 30 days sliding daily. Each
    // input label's WSCAN gets its own window (Def. 16 is per-operator).
    let query = SgqQuery::new(program, WindowSpec::new(720, 24))
        .with_label_window("likes", WindowSpec::sliding(24))
        .with_label_window("posts", WindowSpec::sliding(24))
        .with_label_window("follows", WindowSpec::sliding(24));
    let mut engine = Engine::from_query(&query);

    let labels = engine.labels().clone();
    let likes = labels.get("likes").unwrap();
    let posts = labels.get("posts").unwrap();
    let follows = labels.get("follows").unwrap();
    let purchase = labels.get("purchase").unwrap();

    // Interleave the two input streams (UNION happens inside the plan;
    // both feed the same engine, distinguished by label).
    // Users 0–9, posts 100+, products 1000+.
    let events = [
        (0u64, 100u64, likes, 1u64), // user0 likes post100
        (1, 100, posts, 2),          // user1 authored post100 → ACQ(0,1)
        (2, 1, follows, 3),          // user2 follows user1   → ACQ(2,1)
        (1, 1000, purchase, 5),      // user1 buys product1000
        (3, 101, likes, 6),
        (4, 101, posts, 7),       // ACQ(3,4)
        (4, 1001, purchase, 9),   // user4 buys product1001
        (1, 1002, purchase, 400), // much later purchase
    ];

    println!("cross-stream recommendations:\n");
    for (src, trg, label, t) in events {
        let results = engine.process(Sge::raw(src, trg, label, t));
        println!("t={t:>3}: +{}({src}, {trg})", labels.name(label));
        for r in results {
            println!(
                "       💡 recommend product {} to user {} (valid {})",
                r.trg.0, r.src.0, r.interval
            );
        }
    }

    // Composability (§5.3): the recommendation stream is itself a valid
    // streaming graph — feed it into a second persistent query that finds
    // users recommended the same product ("co-shoppers").
    println!("\ncomposing: co-recommendation pairs over the result stream");
    let second = parse_program("CoRec(u1, u2) <- rec(u1, p), rec(u2, p).").unwrap();
    let mut second_engine = Engine::from_query(&SgqQuery::new(second, WindowSpec::sliding(720)));
    let rec = second_engine.labels().get("rec").unwrap();
    // Re-ingest the first engine's results, ordered by their start time.
    let mut results: Vec<Sgt> = engine.results();
    results.sort_by_key(|r| r.interval.ts);
    let mut seen = std::collections::BTreeSet::new();
    for r in &results {
        for pair in second_engine.process(Sge::new(r.src, r.trg, rec, r.interval.ts)) {
            let (a, b) = (pair.src.0.min(pair.trg.0), pair.src.0.max(pair.trg.0));
            if a != b && seen.insert((a, b)) {
                println!("       🤝 users {a} and {b} were recommended the same product");
            }
        }
    }
}
