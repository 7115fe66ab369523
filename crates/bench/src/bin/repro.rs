//! `repro` — regenerates every table and figure of the paper's evaluation
//! (§7) at laptop scale and prints them in the paper's format.
//!
//! ```text
//! cargo run -p sgq-bench --release --bin repro              # everything
//! cargo run -p sgq-bench --release --bin repro table2       # one experiment
//! cargo run -p sgq-bench --release --bin repro all 0.5      # half scale
//! cargo run -p sgq-bench --release --bin repro --stats table2
//! ```
//!
//! Experiments: `table2`, `fig10a`, `fig10b`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `table3`, `ablations`, `fleet`, `all`. The scale factor
//! applies to every experiment but `fleet`, which runs on a fixed small
//! stream (see [`fleet`]). With `--stats`, an extra section re-runs
//! Q1–Q7 under `ObsLevel::Timing`, prints the extended per-query stats
//! (p50/p99/p99.9 slide latency, peak state) with an explain-analyze of
//! Q4's lowered plan, and writes the per-operator metrics snapshots to
//! `METRICS_repro.jsonl`.

use sgq_bench::{latency_fields, row, run_plan, run_query, run_sga, Scale, System};
use sgq_core::engine::{Engine, EngineOptions, PatternImpl};
use sgq_core::obs::ObsLevel;
use sgq_core::planner::plan_canonical;
use sgq_core::{optimizer, rewrite};
use sgq_datagen::{resolve, workloads, workloads::Dataset, RawStream};
use sgq_multiquery::MultiQueryEngine;
use sgq_query::SgqQuery;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--stats");
    let what = args.first().map(String::as_str).unwrap_or("all");
    let factor: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let scale = Scale::repro().scaled(factor);
    println!(
        "# s-graffito repro — {} edges/stream, {} vertices, 1 day = {} ticks\n",
        scale.edges,
        scale.vertices,
        scale.ticks_per_day()
    );

    match what {
        "table2" => table2(scale),
        "fig10a" => fig10a(scale),
        "fig10b" => fig10b(scale),
        "fig11" => fig11(scale),
        "fig12" => plan_figure(scale, 4, "Figure 12 — Q4 plan space"),
        "fig13" => plan_figure(scale, 2, "Figure 13 — Q2 plan space"),
        "fig14" => plan_figure(scale, 3, "Figure 14 — Q3 plan space"),
        "table3" => table3(scale),
        "ablations" => ablations(scale),
        "fleet" => fleet(),
        "all" => {
            table2(scale);
            fig10a(scale);
            fig10b(scale);
            fig11(scale);
            plan_figure(scale, 4, "Figure 12 — Q4 plan space");
            plan_figure(scale, 2, "Figure 13 — Q2 plan space");
            plan_figure(scale, 3, "Figure 14 — Q3 plan space");
            table3(scale);
            ablations(scale);
            fleet();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(1);
        }
    }
    if stats {
        stats_report(scale);
    }
}

/// `--stats`: Q1–Q7 on both datasets under `ObsLevel::Timing` — the
/// extended latency/state row per query, an explain-analyze of Q4's
/// lowered plan with its live counters, and every run's per-operator
/// metrics snapshot written as JSONL.
fn stats_report(scale: Scale) {
    println!("## Per-query stats (ObsLevel::Timing, |W|=30d, β=1d)\n");
    let window = scale.default_window();
    let timing = EngineOptions {
        obs: ObsLevel::Timing,
        ..pairs_only()
    };
    let mut jsonl = String::new();
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        println!("{}:", ds.name());
        for n in 1..=7 {
            let (stats, engine) = run_sga(&workloads::query(n, ds), &raw, window, timing, None);
            let snap = engine.metrics_snapshot();
            let profile = stats.latency_profile();
            println!(
                "Q{n:<5} p50/p99/p99.9 = {:.4}/{:.4}/{:.4} s   peak_state = {:<8} state_now = {}",
                profile.percentile(0.50).as_secs_f64(),
                profile.percentile(0.99).as_secs_f64(),
                profile.percentile(0.999).as_secs_f64(),
                stats.peak_state,
                snap.state_entries,
            );
            jsonl.push_str(&format!(
                "{{\"record\":\"run\",\"dataset\":\"{}\",\"query\":\"Q{n}\", {}}}\n",
                ds.name(),
                latency_fields(&stats)
            ));
            jsonl.push_str(&snap.to_jsonl());
        }
        println!();
    }
    // One lowered tree with live counters, for the showcase query of the
    // plan-space figures.
    let raw = scale.stream(Dataset::So);
    let (_, engine) = run_sga(
        &workloads::query(4, Dataset::So),
        &raw,
        window,
        timing,
        None,
    );
    println!("SO Q4 explain-analyze:\n{}", engine.explain_analyze());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_repro.jsonl");
    std::fs::write(path, &jsonl).expect("write METRICS_repro.jsonl");
    println!("wrote {path}");
}

/// Table 2: SGA vs DD throughput/tail-latency, Q1–Q7, SO & SNB,
/// |W| = 30 days, β = 1 day.
fn table2(scale: Scale) {
    println!("## Table 2 — SGA vs DD (|W|=30d, β=1d)\n");
    let window = scale.default_window();
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        println!("{}:", ds.name());
        println!(
            "{:<6} {:<32} {:<32}",
            "", "SGA (Tput / p99 TL)", "DD (Tput / p99 TL)"
        );
        for n in 1..=7 {
            let sga = run_query(n, ds, &raw, window, System::Sga);
            let dd = run_query(n, ds, &raw, window, System::Dd);
            println!("Q{n:<5} {:<32} {:<32}", row(&sga), row(&dd));
        }
        println!();
    }
}

/// Figure 10a: SGA across window sizes 10–50 days (β = 1 day) on SO.
fn fig10a(scale: Scale) {
    println!("## Figure 10a — SGA vs window size (SO, β=1d)\n");
    let raw = scale.stream(Dataset::So);
    print!("{:<6}", "");
    for days in [10u64, 20, 30, 40, 50] {
        print!(" {:>14}", format!("T={days}d"));
    }
    println!("   (throughput ev/s | p99 latency s)");
    for n in 1..=7 {
        print!("Q{n:<5}");
        for days in [10u64, 20, 30, 40, 50] {
            let w = scale.window(days, 1, 1);
            let stats = run_query(n, Dataset::So, &raw, w, System::Sga);
            print!(
                " {:>7.0}|{:<6.3}",
                stats.throughput(),
                stats.tail_latency().as_secs_f64()
            );
        }
        println!();
    }
    println!();
}

/// Figure 10b: SGA across slide intervals 3h–4d (T = 30 days) on SO.
fn fig10b(scale: Scale) {
    println!("## Figure 10b — SGA vs slide interval (SO, T=30d)\n");
    slide_sweep(scale, System::Sga);
}

/// Figure 11: the DD baseline across slide intervals — throughput grows
/// with batching, unlike SGA's flat curve.
fn fig11(scale: Scale) {
    println!("## Figure 11 — DD vs slide interval (SO, T=30d)\n");
    slide_sweep(scale, System::Dd);
}

fn slide_sweep(scale: Scale, system: System) {
    let raw = scale.stream(Dataset::So);
    let slides: [(&str, u64, u64); 6] = [
        ("3h", 1, 8),
        ("6h", 1, 4),
        ("12h", 1, 2),
        ("1d", 1, 1),
        ("2d", 2, 1),
        ("4d", 4, 1),
    ];
    print!("{:<6}", "");
    for (name, _, _) in slides {
        print!(" {:>14}", format!("β={name}"));
    }
    println!("   ({})", system.name());
    for n in 1..=7 {
        print!("Q{n:<5}");
        for (_, num, den) in slides {
            let w = scale.window(30, num, den);
            let stats = run_query(n, Dataset::So, &raw, w, system);
            print!(
                " {:>7.0}|{:<6.3}",
                stats.throughput(),
                stats.tail_latency().as_secs_f64()
            );
        }
        println!();
    }
    println!();
}

/// Figures 12/13/14: the plan space of Q4/Q2/Q3 via the §5.4 rules, on
/// both datasets. Plan 0 is the canonical SGA plan; the rest are rewrites
/// (for Q4 these are the paper's P1/P2/P3). Each row shows the plan's
/// counted work on the stream; `*` marks the least, the plan
/// `optimizer::choose_plan` picks with this stream as its prefix.
fn plan_figure(scale: Scale, qn: usize, title: &str) {
    println!("## {title}\n");
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        let program = workloads::query(qn, ds);
        let query = SgqQuery::new(program, scale.default_window());
        let canonical = plan_canonical(&query);
        let plans = rewrite::enumerate_plans(&canonical, 6);
        let rows: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (stats, engine) = run_plan(plan, &raw);
                (stats, engine.counted_work())
            })
            .collect();
        let work: Vec<u64> = rows.iter().map(|(_, w)| *w).collect();
        let chosen = optimizer::least_work(&work);
        println!("{} (Q{qn}):", ds.name());
        for (i, (plan, (stats, work))) in plans.iter().zip(&rows).enumerate() {
            let tag = if i == 0 {
                "SGA".to_string()
            } else {
                format!("P{i}")
            };
            println!(
                "{} {tag:<5} {:<32} {work:>10} work  ({} ops, {} stateful)",
                if i == chosen { "*" } else { " " },
                row(stats),
                plan.expr.size(),
                plan.expr.stateful_ops()
            );
        }
        println!();
    }
}

/// Table 3: S-PATH (direct) vs the negative-tuple PATH of \[57\].
fn table3(scale: Scale) {
    println!("## Table 3 — S-PATH (direct) vs negative-tuple PATH (|W|=30d, β=1d)\n");
    let window = scale.default_window();
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        println!("{}:", ds.name());
        println!(
            "{:<6} {:<32} {:<32} {:<20}",
            "", "S-PATH (Tput / p99 TL)", "neg-tuple (Tput / p99 TL)", "Tput improvement"
        );
        for n in 1..=7 {
            let direct = run_query(n, ds, &raw, window, System::Sga);
            let neg = run_query(n, ds, &raw, window, System::SgaNegPath);
            let imp = if neg.throughput() > 0.0 {
                (direct.throughput() / neg.throughput() - 1.0) * 100.0
            } else {
                0.0
            };
            println!(
                "Q{n:<5} {:<32} {:<32} {:>+8.1}%",
                row(&direct),
                row(&neg),
                imp
            );
        }
        println!();
    }
}

/// Options of every run below that does not vary them: paths are
/// recoverable but not materialised per result, as in [`run_query`].
fn pairs_only() -> EngineOptions {
    EngineOptions {
        materialize_paths: false,
        ..Default::default()
    }
}

/// Ablations of the design choices the engine exposes as options, each a
/// pair of runs of one SO query that differ in that option alone.
fn ablations(scale: Scale) {
    println!("## Ablations (SO, |W|=30d, β=1d unless noted)\n");
    let raw = scale.stream(Dataset::So);
    let window = scale.default_window();
    let ablate = |what: &str, variant: &str, n, window, opts, epoch| {
        let (stats, _) = run_sga(&workloads::query(n, Dataset::So), &raw, window, opts, epoch);
        println!(
            "{what:<18} {variant:<11} {}  peak_state={:<8} results={}",
            row(&stats),
            stats.peak_state,
            stats.results
        );
    };
    // Per-result witness paths vs pairs only, on Q4's long closures.
    for (variant, materialize_paths) in [("paths-on", true), ("paths-off", false)] {
        let opts = EngineOptions {
            materialize_paths,
            ..Default::default()
        };
        ablate("materialize Q4", variant, 4, window, opts, None);
    }
    // Covered-duplicate elimination (Def. 11) on Q6's triangles.
    for (variant, suppress_duplicates) in [("suppress-on", true), ("suppress-off", false)] {
        let opts = EngineOptions {
            suppress_duplicates,
            ..pairs_only()
        };
        ablate("suppression Q6", variant, 6, window, opts, None);
    }
    // Tuple-at-a-time vs one epoch per slide (§7.3's batched ingestion).
    for (variant, epoch) in [("eager", None), ("batched-1d", Some(window.slide))] {
        ablate("ingestion Q2", variant, 2, window, pairs_only(), epoch);
    }
    // Physical reclamation every slide vs the periodic purge, on a fine
    // slide (β = 3h: eight slides a day, so eight times the purges).
    let fine = scale.window(30, 1, 8);
    for (variant, purge_period) in [("per-slide", Some(fine.slide)), ("periodic", None)] {
        let opts = EngineOptions {
            purge_period,
            ..pairs_only()
        };
        ablate("purge β=3h Q1", variant, 1, fine, opts, None);
    }
    // The symmetric-hash-join tree (§6.2.2) vs the worst-case-optimal
    // join, on the cyclic patterns where intermediate results blow up.
    for n in [5, 6] {
        for (variant, pattern_impl) in [
            ("hash-tree", PatternImpl::HashTree),
            ("wcoj", PatternImpl::Wcoj),
        ] {
            let opts = EngineOptions {
                pattern_impl,
                ..pairs_only()
            };
            ablate(&format!("pattern Q{n}"), variant, n, window, opts, None);
        }
    }
    println!();
}

/// What one way of running a fleet returns: the edges it ingested, each
/// query's result count, and its [`MultiQueryEngine::counted_work`].
type FleetRun = (usize, Vec<usize>, u64);

/// Runs `queries` over `raw` on one shared host. Results are collected
/// per edge (`process`) or, with `drain_only`, left in the logs
/// (`ingest`).
fn run_shared(queries: &[SgqQuery], raw: &RawStream, drain_only: bool) -> FleetRun {
    let mut host = MultiQueryEngine::with_options(pairs_only());
    let ids: Vec<_> = queries.iter().map(|q| host.register(q)).collect();
    let stream = resolve(raw, host.labels());
    for &sge in stream.sges() {
        if drain_only {
            host.ingest(sge);
        } else {
            drop(host.process(sge));
        }
    }
    let counts = ids.iter().map(|&id| host.results(id).len()).collect();
    (stream.len(), counts, host.counted_work())
}

/// The dedicated baseline as a live deployment would run it: each engine
/// consumes one slide tick's arrivals before any engine sees the next
/// tick, so both sides pay the same co-residency costs. Replaying the
/// whole stream per engine back to back would grant each engine cache
/// residency the shared host is denied.
fn run_dedicated(queries: &[SgqQuery], raw: &RawStream) -> FleetRun {
    let slide = queries[0].window.slide;
    let mut engines: Vec<Engine> = queries
        .iter()
        .map(|q| Engine::from_query_with(q, pairs_only()))
        .collect();
    let streams: Vec<_> = engines.iter().map(|e| resolve(raw, e.labels())).collect();
    let last_tick = streams
        .iter()
        .filter_map(|s| s.last_ts().map(|t| t / slide))
        .max()
        .unwrap_or(0);
    let mut cursors = vec![0usize; engines.len()];
    for tick in 0..=last_tick {
        for ((engine, stream), cursor) in engines.iter_mut().zip(&streams).zip(&mut cursors) {
            while let Some(&sge) = stream.sges().get(*cursor).filter(|e| e.t / slide == tick) {
                engine.process(sge);
                *cursor += 1;
            }
        }
    }
    let counts = engines.iter().map(|e| e.results().len()).collect();
    let work = engines.iter().map(Engine::counted_work).sum();
    (streams.iter().map(|s| s.len()).sum(), counts, work)
}

/// Where a shared host's time goes, from one `ObsLevel::Timing` drain-only
/// pass plus a final drain per query: Σ operator `batch_nanos`, then the
/// host's routing and sink-dedup phase nanos.
fn phase_nanos(queries: &[SgqQuery], raw: &RawStream) -> (u64, u64, u64) {
    let mut host = MultiQueryEngine::with_options(EngineOptions {
        obs: ObsLevel::Timing,
        ..pairs_only()
    });
    let ids: Vec<_> = queries.iter().map(|q| host.register(q)).collect();
    for &sge in resolve(raw, host.labels()).sges() {
        host.ingest(sge);
    }
    for id in ids {
        host.drain(id);
    }
    let snap = host.metrics_snapshot();
    let operator = snap.operators.iter().map(|o| o.stats.batch_nanos).sum();
    let (route, dedup) = host.phase_nanos();
    (operator, route, dedup)
}

/// Multi-query sharing: N ∈ {1, 4, 16, 64} round-robin SO Q1–Q7 on one
/// shared host vs N dedicated engines. Asserts that every query's result
/// count is the same all three ways at every N, and that sharing pays
/// for itself by N = 4 in counted work: the shared host does no more
/// work ([`MultiQueryEngine::counted_work`]) than the four dedicated
/// engines together. The wall-clock speed-ups are printed, not asserted,
/// with a verdict at N = 4 over the paired passes: `holds` when sharing
/// was faster in every pass, `fails` when it was slower in every pass,
/// `unresolved` when the passes disagree.
///
/// The stream is fixed at 750 SO edges over 300 vertices whatever the
/// CLI factor, the small-stream regime where the shared WSCANs are a
/// measurable part of the work. On larger streams operator work
/// dominates and four dedicated engines run a few percent faster
/// (ROADMAP item 9(c)).
fn fleet() {
    let scale = Scale {
        edges: 750,
        vertices: 300,
        days: 60,
    };
    println!(
        "## Multi-query fleet (SO Q1–Q7 round-robin, |W|=30d, β=1d; fixed {} edges, {} vertices)\n",
        scale.edges, scale.vertices
    );
    let raw = scale.stream(Dataset::So);
    let window = scale.default_window();
    println!(
        "{:>3} {:>4} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>11} {:>10} {:>10} {:>8}",
        "N",
        "ops",
        "ded.ops",
        "shared/s",
        "drain/s",
        "ded./s",
        "speedup",
        "drain×",
        "work",
        "ded.work",
        "operator_ns",
        "route_ns",
        "dedup_ns",
        "results"
    );
    let mut verdict = String::new();
    for n in [1usize, 4, 16, 64] {
        let queries: Vec<SgqQuery> = (0..n)
            .map(|i| SgqQuery::new(workloads::query(i % 7 + 1, Dataset::So), window))
            .collect();
        let mut host = MultiQueryEngine::with_options(pairs_only());
        for q in &queries {
            host.register(q);
        }
        let dedicated_ops: usize = queries
            .iter()
            .map(|q| {
                Engine::from_query_with(q, pairs_only())
                    .operator_names()
                    .len()
            })
            .sum();

        // One untimed warm-up pass, then five timed passes per way, each
        // pass timing the three ways back to back; the best pass of each
        // way is its rate.
        let ways: [&dyn Fn() -> FleetRun; 3] = [
            &|| run_shared(&queries, &raw, false),
            &|| run_shared(&queries, &raw, true),
            &|| run_dedicated(&queries, &raw),
        ];
        for way in ways {
            way();
        }
        let mut runs: [FleetRun; 3] = Default::default();
        let passes: Vec<[f64; 3]> = (0..5)
            .map(|_| {
                let mut secs = [0.0; 3];
                for (i, way) in ways.into_iter().enumerate() {
                    let started = Instant::now();
                    runs[i] = way();
                    secs[i] = started.elapsed().as_secs_f64();
                }
                secs
            })
            .collect();
        let secs: [f64; 3] =
            std::array::from_fn(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min));
        let [(edges, shared, work), (drain_edges, drain, _), (dedicated_edges, dedicated, dedicated_work)] =
            &runs;
        assert_eq!(
            shared, dedicated,
            "shared vs dedicated result counts at N={n}"
        );
        assert_eq!(
            drain, dedicated,
            "drain-only vs dedicated result counts at N={n}"
        );
        let results: usize = dedicated.iter().sum();
        assert!(results > 0, "no results at N={n}");
        let (speedup, drain_speedup) = (secs[2] / secs[0], secs[2] / secs[1]);
        if n == 4 {
            assert!(
                work <= dedicated_work,
                "shared host does more work than dedicated engines at N=4: \
                 {work} vs {dedicated_work}"
            );
            // Per pass: dedicated time over the faster shared way's.
            let ratios: Vec<f64> = (passes.iter()).map(|p| p[2] / p[0].min(p[1])).collect();
            let word = if ratios.iter().all(|&r| r >= 1.0) {
                "holds"
            } else if ratios.iter().all(|&r| r < 1.0) {
                "fails"
            } else {
                "unresolved"
            };
            let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ratios.iter().copied().fold(0.0, f64::max);
            verdict = format!(
                "N=4 wall clock: sharing {word} (dedicated/shared per pass {lo:.3}–{hi:.3} over {} passes)",
                ratios.len()
            );
        }
        let (operator, route, dedup) = phase_nanos(&queries, &raw);
        println!(
            "{n:>3} {:>4} {:>7} {:>9.0} {:>9.0} {:>9.0} {:>7.3} {:>7.3} {work:>8} {dedicated_work:>8} {operator:>11} {route:>10} {dedup:>10} {results:>8}",
            host.operator_count(),
            dedicated_ops,
            *edges as f64 / secs[0],
            *drain_edges as f64 / secs[1],
            *dedicated_edges as f64 / secs[2],
            speedup,
            drain_speedup,
        );
    }
    println!("\n{verdict}\n");
}
