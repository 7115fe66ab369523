//! Ground truth for a fleet: one host runs Q1–Q7 of a dataset under three
//! windows at once — W, W/2 and W/4, each sliding by a twentieth of
//! itself, the shape of the benchmark's `fleet-snb` — append-only, so
//! S-PATHs and PATTERN leaves share edge stores, PATTERNs share subplans
//! and sinks share nothing. At **every** slide boundary of every query,
//! its `answer_at` equals the one-time oracle on the snapshot of its
//! windowed input (Def. 14). The short forms hold a host per PATTERN join
//! order to one oracle pass. Results are forwarded and released as the
//! serve loop does, so the logs stay window-sized on long streams.

mod common;

use common::{oracle_answer_at, windowed_sgt};
use s_graffito::datagen::workloads::{self, Dataset};
use s_graffito::datagen::{resolve, snb_stream, so_stream, RawStream, SnbConfig, SoConfig};
use s_graffito::prelude::*;
use s_graffito::query::RqProgram;
use s_graffito::types::LabelInterner;

/// One registered query and the ground truth it is held to.
struct Member {
    name: String,
    program: RqProgram,
    window: u64,
    slide: u64,
    /// The query's id on each host.
    ids: Vec<QueryId>,
    /// The query's input, windowed as its WSCANs window it (in
    /// timestamp order).
    windowed: Vec<Sgt>,
    /// Checks whose expected answer was not empty.
    answered: usize,
}

/// Runs the fleet over `raw` with largest window `window` on one host per
/// entry of `hosts`, fed alike, and checks every query on every host
/// against one oracle answer at each of its slide boundaries. Returns the
/// number of checks made per host.
fn check_fleet(dataset: Dataset, raw: &RawStream, window: u64, hosts: &[EngineOptions]) -> usize {
    assert_eq!(window % 80, 0, "W/4 slides by a whole W/80");
    let orders: Vec<PatternImpl> = hosts.iter().map(|opts| opts.pattern_impl).collect();
    let mut hosts: Vec<MultiQueryEngine> = (hosts.iter())
        .map(|&opts| MultiQueryEngine::with_options(opts))
        .collect();
    let mut fleet = Vec::new();
    for w in [window, window / 2, window / 4] {
        let spec = WindowSpec::new(w, w / 20);
        for (name, program) in workloads::all_queries(dataset) {
            let query = SgqQuery::new(program.clone(), spec);
            let ids = hosts.iter_mut().map(|host| host.register(&query)).collect();
            let windowed = resolve(raw, program.labels())
                .sges()
                .iter()
                .map(|sge| windowed_sgt(sge, spec))
                .collect();
            fleet.push(Member {
                name: format!("{} {name} W{w}", dataset.name()),
                program,
                window: w,
                slide: w / 20,
                ids,
                windowed,
                answered: 0,
            });
        }
    }
    let streams: Vec<_> = (hosts.iter())
        .map(|host| resolve(raw, host.labels()))
        .collect();
    let mut from = vec![0; hosts.len()];
    let tick = window / 80;
    let (mut boundary, mut checks) = (tick, 0);
    while (from.iter().zip(&streams)).any(|(&from, stream)| from < stream.sges().len()) {
        // Everything before the boundary is in; every answer valid before
        // it is final.
        for (h, host) in hosts.iter_mut().enumerate() {
            let sges = &streams[h].sges()[from[h]..];
            let to = sges.partition_point(|s| s.t < boundary);
            host.process_batch(&sges[..to]);
            from[h] += to;
            for m in &fleet {
                host.for_each_undelivered(m.ids[h], |_, _| {});
            }
            host.release_delivered();
        }
        let t = boundary - 1;
        for m in fleet.iter_mut().filter(|m| boundary % m.slide == 0) {
            // Only tuples from the last W + β ticks can be live at `t`.
            let live = |s: &Sgt| s.interval.ts + m.window + m.slide <= t;
            let recent = &m.windowed[m.windowed.partition_point(live)..];
            let expect = oracle_answer_at(&m.program, recent, t);
            for ((host, &id), order) in hosts.iter().zip(&m.ids).zip(&orders) {
                let got = host.answer_at(id, t);
                assert_eq!(got, expect, "{} ({order:?}) at t={t}", m.name);
            }
            m.answered += usize::from(!expect.is_empty());
            checks += 1;
        }
        boundary += tick;
    }
    // Guard against vacuous agreement: every query answers at W.
    for m in fleet.iter().filter(|m| m.slide == window / 20) {
        assert!(m.answered > 0, "{} never had an answer", m.name);
    }
    checks
}

/// Both PATTERN join orders: the hash-join tree, and the generic join
/// (WCOJ), whose leaves read the edge stores that every S-PATH and
/// PATTERN of the fleet over the same input reads, across the three
/// windows.
fn join_orders() -> [EngineOptions; 2] {
    [PatternImpl::HashTree, PatternImpl::Wcoj].map(|pattern_impl| EngineOptions {
        pattern_impl,
        ..Default::default()
    })
}

#[test]
fn so_fleet_answers_match_the_oracle_at_every_slide() {
    let raw = so_stream(&SoConfig::new(30, 1_000).with_span(480));
    let checks = check_fleet(Dataset::So, &raw, 160, &join_orders());
    assert!(checks >= 1_100, "{checks} checks");
}

#[test]
fn snb_fleet_answers_match_the_oracle_at_every_slide() {
    let raw = snb_stream(&SnbConfig::new(25, 1_000).with_span(480));
    let checks = check_fleet(Dataset::Snb, &raw, 160, &join_orders());
    assert!(checks >= 1_100, "{checks} checks");
}

/// The long form: more than 10⁵ edges per dataset, fifty turnovers of the
/// largest window, on vertex populations sparse enough that the oracle's
/// closures stay cheap and dense enough that every query answers.
/// Release build: `cargo test --release --test ground_truth --
/// --ignored`.
#[test]
#[ignore = "long; CI's check job runs it in release"]
fn fleets_match_the_oracle_at_every_slide_on_long_streams() {
    let so = so_stream(&SoConfig::new(6_000, LONG_EDGES).with_span(LONG_SPAN));
    let checks = check_fleet(Dataset::So, &so, LONG_WINDOW, &[EngineOptions::default()]);
    assert!(checks >= 35_000, "{checks} checks");
    let snb = snb_stream(&SnbConfig::new(1_000, LONG_EDGES).with_span(LONG_SPAN));
    let checks = check_fleet(Dataset::Snb, &snb, LONG_WINDOW, &[EngineOptions::default()]);
    assert!(checks >= 35_000, "{checks} checks");
}

const LONG_EDGES: usize = 120_000;
const LONG_SPAN: u64 = 120_000;
const LONG_WINDOW: u64 = 2_400;

// ---------------------------------------------------------------------
// Under explicit deletions
// ---------------------------------------------------------------------

/// Kept inserts between two DELETEs.
const DELETE_EVERY: usize = 5;

/// The deletion form of [`check_fleet`]: one host with `opts` and
/// `suppress_duplicates: false` runs the queries `queries` of `dataset`
/// — closures over the input (S-PATH) and joins (PATTERN) — under W, W/2
/// and W/4 (slide a twentieth of each). The
/// stream keeps one live occurrence per edge (the deletion contract: an
/// edge is inserted again only after its last occurrence left the
/// largest window), and after every `DELETE_EVERY`-th kept insert a
/// DELETE retracts the kept insert from W/3 ticks earlier. At every slide
/// boundary of every query, its `answer_at` equals the oracle over the
/// windowed edges that survive, labels mapped by name into each query's
/// own namespace. Returns the number of checks and of deletions.
fn check_deletions(
    dataset: Dataset,
    queries: &[usize],
    raw: &RawStream,
    window: u64,
    opts: EngineOptions,
) -> (usize, usize) {
    assert_eq!(window % 80, 0, "W/4 slides by a whole W/80");
    let mut host = MultiQueryEngine::with_options(EngineOptions {
        suppress_duplicates: false,
        ..opts
    });
    let mut fleet = Vec::new();
    for w in [window, window / 2, window / 4] {
        let spec = WindowSpec::new(w, w / 20);
        for &n in queries {
            let program = workloads::query(n, dataset);
            let id = host.register(&SgqQuery::new(program.clone(), spec));
            fleet.push(Member {
                name: format!("{} Q{n} W{w} with deletions", dataset.name()),
                program,
                window: w,
                slide: w / 20,
                ids: vec![id],
                windowed: Vec::new(),
                answered: 0,
            });
        }
    }
    // One live occurrence per edge under the largest window.
    let horizon = window + window / 20;
    let mut last = std::collections::HashMap::new();
    let kept: Vec<_> = (raw.events.iter())
        .filter(|&&(s, t, name, ts)| {
            let live = last.get(&(s, t, name)).is_some_and(|&at| ts < at + horizon);
            if !live {
                last.insert((s, t, name), ts);
            }
            !live
        })
        .copied()
        .collect();
    // `(time, delete, kept index)` in stream order.
    let (mut ops, mut victim) = (Vec::new(), 0);
    for (i, &(_, _, _, ts)) in kept.iter().enumerate() {
        ops.push((ts, false, i));
        if (i + 1) % DELETE_EVERY != 0 {
            continue;
        }
        while kept[victim].3 + window / 3 < ts {
            victim += 1;
        }
        if kept[victim].3 < ts {
            ops.push((ts, true, victim));
            victim += 1;
        }
    }
    let sge = |labels: &LabelInterner, i: usize| {
        let (s, t, name, ts) = kept[i];
        let l = labels.get(name).filter(|&l| labels.is_input(l))?;
        Some(Sge::new(VertexId(s), VertexId(t), l, ts))
    };
    let mut deleted = vec![false; kept.len()];
    let tick = window / 80;
    let (mut k, mut boundary, mut checks, mut deletions) = (0, tick, 0, 0);
    let mut batch = Vec::new();
    while k < ops.len() {
        while k < ops.len() && ops[k].0 < boundary {
            let (_, delete, i) = ops[k];
            if delete {
                host.process_batch(&batch);
                batch.clear();
                if let Some(sge) = sge(host.labels(), i) {
                    host.delete(sge);
                    deletions += 1;
                }
                deleted[i] = true;
            } else {
                batch.extend(sge(host.labels(), i));
            }
            k += 1;
        }
        host.process_batch(&batch);
        batch.clear();
        let t = boundary - 1;
        for m in &fleet {
            host.for_each_undelivered(m.ids[0], |_, _| {});
        }
        host.release_delivered();
        for m in fleet.iter_mut().filter(|m| boundary % m.slide == 0) {
            // Only tuples from the last W + β ticks can be live at `t`.
            let from = kept.partition_point(|e| e.3 + m.window + m.slide <= t);
            let to = kept.partition_point(|e| e.3 <= t);
            let spec = WindowSpec::new(m.window, m.slide);
            let surviving: Vec<Sgt> = (from..to)
                .filter(|&i| !deleted[i])
                .filter_map(|i| sge(m.program.labels(), i))
                .map(|sge| windowed_sgt(&sge, spec))
                .collect();
            let expect = oracle_answer_at(&m.program, &surviving, t);
            assert_eq!(host.answer_at(m.ids[0], t), expect, "{} at t={t}", m.name);
            m.answered += usize::from(!expect.is_empty());
            checks += 1;
        }
        boundary += tick;
    }
    for m in fleet.iter().filter(|m| m.slide == window / 20) {
        assert!(m.answered > 0, "{} never had an answer", m.name);
    }
    (checks, deletions)
}

/// Q1–Q6 under the hash-join tree, and the PATTERN queries (Q5 and Q6;
/// Q7 is the known defect below) again under the generic join.
#[test]
fn fleets_under_deletions_match_the_oracle_at_every_slide() {
    let so = so_stream(&SoConfig::new(30, 1_000).with_span(480));
    let snb = snb_stream(&SnbConfig::new(25, 1_000).with_span(480));
    let [tree, generic] = join_orders();
    for (queries, opts) in [(&[1, 2, 3, 4, 5, 6][..], tree), (&[5, 6], generic)] {
        let (checks, deletions) = check_deletions(Dataset::So, queries, &so, 160, opts);
        eprintln!("SO {queries:?}: {checks} checks, {deletions} deletions");
        assert!(
            checks >= 400 && deletions >= 100,
            "{checks} checks, {deletions} deletions"
        );
        let (checks, deletions) = check_deletions(Dataset::Snb, queries, &snb, 160, opts);
        eprintln!("SNB {queries:?}: {checks} checks, {deletions} deletions");
        assert!(
            checks >= 600 && deletions >= 100,
            "{checks} checks, {deletions} deletions"
        );
    }
}

/// The long deletion form: 2·10⁴ edges per dataset, twenty-five turnovers
/// of the largest window. Release build: `cargo test --release --test
/// ground_truth -- --ignored`.
#[test]
#[ignore = "long; CI's check job runs it in release"]
fn fleets_under_deletions_match_the_oracle_on_long_streams() {
    let so = so_stream(&SoConfig::new(300, 20_000).with_span(20_000));
    let (checks, deletions) = check_deletions(
        Dataset::So,
        &[1, 2, 3, 4, 5, 6],
        &so,
        800,
        EngineOptions::default(),
    );
    eprintln!("SO: {checks} checks, {deletions} deletions");
    assert!(
        checks >= 3_000 && deletions >= 3_000,
        "{checks} checks, {deletions} deletions"
    );
    let snb = snb_stream(&SnbConfig::new(200, 20_000).with_span(20_000));
    let (checks, deletions) = check_deletions(
        Dataset::Snb,
        &[1, 2, 3, 4, 5, 6],
        &snb,
        800,
        EngineOptions::default(),
    );
    eprintln!("SNB: {checks} checks, {deletions} deletions");
    assert!(
        checks >= 5_000 && deletions >= 3_000,
        "{checks} checks, {deletions} deletions"
    );
}

/// Q7 under deletions, held to the same oracle. Known defect: `RL+`
/// reads its input through an edge store that keeps one row per `(src,
/// trg, label)`, while a PATTERN without duplicate suppression emits one
/// `RL` tuple per binding (`m` in `c2q(x, m), c2a(m, y)`). Two bindings
/// of one `RL(x, y)` coalesce into one stored edge, and deleting either
/// binding's edge drops it, so the engine loses every `Ans` pair that
/// edge still derives (SO W80 at t=183, SNB W160 at t=271). Run with
/// `--ignored`.
#[test]
#[ignore = "known defect: a deleted PATTERN binding drops an RL edge that another binding still derives"]
fn q7_under_deletions_matches_the_oracle_at_every_slide() {
    let so = so_stream(&SoConfig::new(30, 1_000).with_span(480));
    let (checks, deletions) =
        check_deletions(Dataset::So, &[7], &so, 160, EngineOptions::default());
    assert!(
        checks >= 60 && deletions >= 100,
        "{checks} checks, {deletions} deletions"
    );
    let snb = snb_stream(&SnbConfig::new(25, 1_000).with_span(480));
    let (checks, deletions) =
        check_deletions(Dataset::Snb, &[7], &snb, 160, EngineOptions::default());
    assert!(
        checks >= 60 && deletions >= 100,
        "{checks} checks, {deletions} deletions"
    );
}
