//! Where a host's memory sits: replays a generated stream the way the
//! serve loop drives its engine — an epoch cut every 256 accepted edges,
//! each subscription's undelivered results forwarded after every cut,
//! then `release_delivered` — and prints the peak `reserved_bytes` of the
//! five kinds of engine state: S-PATH forests (`PATH`), edge stores
//! (`STORE`), PATTERN join state (`PATTERN`), root sinks (`SINK`) and the
//! input rows kept for register-time catch-up (`HISTORY`), with the sinks'
//! coverage pairs and log slots at their peak.
//!
//! ```text
//! cargo run --release --example state_census -- \
//!     --dataset snb --size 2000 --seed 1 --edges 49088 --frame 16 \
//!     --queries 1,2,3,4,5,6,7 --windows 500,1000,2000
//! ```
//!
//! Arguments (every one but `--dataset` has a default):
//!
//! * `--dataset so|snb`, `--size N` (users or persons, 3000), `--seed S`
//!   (1): the generator and its stream.
//! * `--keep L1,L2`: keep only these labels of the raw stream (all);
//!   `--skip N`: leave out the first `N` raw events (0). An edge's
//!   timestamp is its position in the raw stream.
//! * `--edges N`: edges streamed after those filters (100 000).
//! * `--frame N`: edges per client frame (64); every frame ends with a
//!   marker edge `mark(k, 0)` that a marker query subscribes to, as the
//!   wire benchmark's frames do. `--every N`: a census every `N` frames
//!   (25).
//! * `--queries`: Q-numbers of the dataset's workload queries, or input
//!   labels, each standing for its one-hop query `Ans(x, y) <- l(x, y).`
//!   (`1`); `--windows W1,W2`: each query is registered under each window,
//!   sliding by a twentieth of it (2000).
//!
//! The host is built like `sgq-serve`: duplicate suppression on, no
//! materialized paths.
//!
//! One 6 s session of a wire-benchmark workload (frame counts from
//! `Sizes` in `benchmark/src/session.rs`) is, at seed 1:
//!
//! * `fleet-snb`: `--dataset snb --size 2000 --edges 49088 --frame 16
//!   --queries 1,2,3,4,5,6,7 --windows 500,1000,2000 --every 25`;
//! * `path-so`: `--dataset so --size 3000 --keep a2q --skip 160000
//!   --edges 635264 --frame 64 --queries 1 --windows 2000 --every 5`;
//! * `wire-so`: `--dataset so --size 100000 --edges 1423168 --frame 64
//!   --queries a2q,c2q,c2a --windows 2000 --every 5`.
//!
//! `deletes-so` has no form here: its stream carries DELETEs, which this
//! replay does not generate.

use std::collections::HashMap;

use s_graffito::datagen::workloads::{query_text, Dataset};
use s_graffito::datagen::{snb_stream, so_stream, SnbConfig, SoConfig};
use s_graffito::prelude::*;

/// Accepted edges per epoch cut (`sgq-serve`'s default batch size).
const CUT: usize = 256;

fn main() {
    let args = Args::parse();
    let raw_events = if args.keep.is_empty() {
        args.skip + args.edges
    } else {
        args.skip + 3 * args.edges + 4096
    };
    let raw = match args.dataset {
        Dataset::So => so_stream(&SoConfig::new(args.size, raw_events).with_seed(args.seed)),
        Dataset::Snb => snb_stream(&SnbConfig::new(args.size, raw_events).with_seed(args.seed)),
    };
    let edges: Vec<(u64, u64, &str, u64)> = (raw.events.iter().enumerate())
        .skip(args.skip)
        .filter(|(_, e)| args.keep.is_empty() || args.keep.iter().any(|l| l == e.2))
        .map(|(i, &(src, trg, label, _))| (src, trg, label, i as u64))
        .take(args.edges)
        .collect();
    assert_eq!(edges.len(), args.edges, "the generator came up short");

    let mut host = MultiQueryEngine::with_options(EngineOptions {
        materialize_paths: false,
        ..Default::default()
    });
    let mut ids = Vec::new();
    for &window in &args.windows {
        for q in &args.queries {
            let text = match q.parse::<usize>() {
                Ok(n) => query_text(n, args.dataset).to_string(),
                Err(_) => format!("Ans(x, y) <- {q}(x, y)."),
            };
            let program = parse_program(&text).expect("a workload query parses");
            let spec = WindowSpec::new(window, (window / 20).max(1));
            ids.push(host.register(&SgqQuery::new(program, spec)));
        }
    }
    // The marker query takes the first query's window, so it leaves the
    // host's tick where it was.
    let marker = parse_program("Ans(x, y) <- mark(x, y).").expect("the marker query parses");
    let window = args.windows[0];
    ids.push(host.register(&SgqQuery::new(
        marker,
        WindowSpec::new(window, (window / 20).max(1)),
    )));

    // Labels no query references are discarded before they reach an
    // epoch, as the host's resolve step does.
    let labels: HashMap<&str, Label> = (edges.iter().map(|e| e.2).chain(["mark"]))
        .filter_map(|name| Some((name, host.labels().get(name)?)))
        .collect();
    let mut pending: Vec<Sge> = Vec::with_capacity(CUT);
    let mut peak = Peak::default();
    let cut = |host: &mut MultiQueryEngine, pending: &mut Vec<Sge>| {
        host.ingest_batch(pending);
        pending.clear();
        for &id in &ids {
            host.for_each_undelivered(id, |_, _| {});
        }
        host.release_delivered();
    };
    for (k, frame) in edges.chunks(args.frame).enumerate() {
        let last = frame.last().expect("frames are not empty").3;
        let marker = (k as u64, 0, "mark", last);
        for &(src, trg, name, t) in frame.iter().chain([&marker]) {
            if let Some(&l) = labels.get(name) {
                pending.push(Sge::raw(src, trg, l, t));
                if pending.len() >= CUT {
                    cut(&mut host, &mut pending);
                }
            }
        }
        if (k + 1) % args.every == 0 {
            peak.sample(&host);
        }
    }
    cut(&mut host, &mut pending);
    peak.sample(&host);

    println!(
        "{} edges, {} frames of {}, {} queries + marker, {} censuses",
        edges.len(),
        edges.len().div_ceil(args.frame),
        args.frame,
        ids.len() - 1,
        peak.samples
    );
    println!(
        "peak reserved_bytes: PATH {} STORE {} PATTERN {} SINK {} HISTORY {}",
        peak.path, peak.store, peak.pattern, peak.sink, peak.history
    );
    println!(
        "sinks at their peak: {} coverage pairs, {} log slots, {} rows retained, {} expired",
        peak.sink_at.0, peak.sink_at.1, peak.sink_at.2, peak.sink_at.3
    );
}

/// The largest sums seen, per kind of state.
#[derive(Default)]
struct Peak {
    samples: usize,
    path: usize,
    store: usize,
    pattern: usize,
    sink: usize,
    history: usize,
    /// `(coverage pairs, log slots, retained, expired)` summed over the
    /// root sinks at the sink peak.
    sink_at: (usize, usize, usize, usize),
}

impl Peak {
    fn sample(&mut self, host: &MultiQueryEngine) {
        self.samples += 1;
        let path = host
            .path_censuses()
            .iter()
            .map(|(_, c)| c.reserved_bytes())
            .sum();
        let store = host
            .store_censuses()
            .iter()
            .map(|(_, c)| c.reserved_bytes)
            .sum();
        let pattern = host
            .pattern_censuses()
            .iter()
            .map(|(_, c)| c.reserved_bytes)
            .sum();
        self.path = self.path.max(path);
        self.store = self.store.max(store);
        self.pattern = self.pattern.max(pattern);
        self.history = self.history.max(host.history_census().1);
        let sinks = host.sink_censuses();
        let sink: usize = sinks.iter().map(|(_, c)| c.reserved_bytes).sum();
        if sink > self.sink {
            self.sink = sink;
            let sum = |f: fn(&s_graffito::multiquery::SinkCensus) -> usize| {
                sinks.iter().map(|(_, c)| f(c)).sum()
            };
            self.sink_at = (
                sum(|c| c.dedup_pairs),
                sum(|c| c.log_slots),
                sum(|c| c.log_retained),
                sum(|c| c.log_expired),
            );
        }
    }
}

struct Args {
    dataset: Dataset,
    size: u64,
    seed: u64,
    keep: Vec<String>,
    skip: usize,
    edges: usize,
    frame: usize,
    every: usize,
    queries: Vec<String>,
    windows: Vec<u64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            dataset: Dataset::So,
            size: 3000,
            seed: 1,
            keep: Vec::new(),
            skip: 0,
            edges: 100_000,
            frame: 64,
            every: 25,
            queries: vec!["1".to_string()],
            windows: vec![2000],
        };
        let mut dataset = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            let list = || value.split(',').map(str::to_string).collect::<Vec<_>>();
            let number = || value.parse::<u64>().unwrap_or_else(|_| usage(&flag));
            match flag.as_str() {
                "--dataset" => {
                    dataset = Some(match value.as_str() {
                        "so" => Dataset::So,
                        "snb" => Dataset::Snb,
                        _ => usage(&flag),
                    })
                }
                "--size" => args.size = number(),
                "--seed" => args.seed = number(),
                "--keep" => args.keep = list(),
                "--skip" => args.skip = number() as usize,
                "--edges" => args.edges = number() as usize,
                "--frame" => args.frame = number().max(1) as usize,
                "--every" => args.every = number().max(1) as usize,
                "--queries" => args.queries = list(),
                "--windows" => {
                    args.windows = (list().iter())
                        .map(|w| w.parse().unwrap_or_else(|_| usage(&flag)))
                        .collect()
                }
                _ => usage(&format!("unknown argument {flag}")),
            }
        }
        args.dataset = dataset.unwrap_or_else(|| usage("--dataset is required"));
        if args.windows.is_empty() || args.queries.is_empty() {
            usage("--queries and --windows need one entry each at least");
        }
        args
    }
}

fn usage(what: &str) -> ! {
    eprintln!(
        "state_census: {what}\nusage: state_census --dataset so|snb [--size N] [--seed S] \
         [--keep L1,L2] [--skip N] [--edges N] [--frame N] [--every N] \
         [--queries 1,2|label,..] [--windows W1,W2]"
    );
    std::process::exit(2)
}
