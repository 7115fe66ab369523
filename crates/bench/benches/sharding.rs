//! Label-sharded shard-subgraph execution: the determinism matrix
//! measured at shards ∈ {1, 2, 4} × workers ∈ {1, 4}.
//!
//! Each measured configuration hosts `VARIANT_DAYS.len()` window-size
//! variants of query Qn on one [`MultiQueryEngine`] (a parameter-sweep
//! fleet: same query text, several window sizes), ingesting the stream
//! through the drain-only batch path at batch size 256. With `shards >
//! 1` every label's WSCANs — and the operator closure reachable only
//! from them — execute whole epochs as independent shard-subgraph jobs,
//! synchronizing only at the recorded cross-shard merge points. The
//! `shards = 1` rows run the serial sweep; their `workers = 4` variant
//! adds only the parallel purge.
//!
//! Alongside wall clock, the JSON rows record the shard-shape counters
//! (`shard_subgraphs` = populated shard groups, `merge_points`,
//! `cross_shard_deliveries`, `mean_shard_width`, `shard_occupancy`,
//! `shard_time_share`) plus `host_parallelism`, the number of CPUs the
//! host actually granted. **On a single-CPU host the multi-worker rows
//! cannot show wall-clock speedup** (threads time-slice one core); the
//! cross-configuration equality assertions — per-variant result counts
//! and the deterministic executor fingerprint, checked against the
//! `(1, 1)` baseline for every row — still validate the machinery, and
//! the recorded speedups are honest measurements of whatever the host
//! provides.
//!
//! Set `SGQ_BENCH_QUICK=1` for a truncated smoke pass (CI): shard/worker
//! grid {1, 4} × {1, 4}, every equality assertion still runs, and the
//! JSON is written with `"quick": true` so the workflow artifact carries
//! the smoke evidence without being mistaken for a full run.

use criterion::{criterion_group, BenchmarkId, Criterion};
use sgq_bench::{window_variant_fleet, Scale, VARIANT_DAYS};
use sgq_core::engine::EngineOptions;
use sgq_core::metrics::ExecStats;
use sgq_datagen::workloads::Dataset;
use sgq_multiquery::MultiQueryEngine;
use std::time::{Duration, Instant};

/// Ingestion batch size.
const BATCH: usize = 256;
/// Timed passes per configuration; best is reported.
const PASSES: usize = 2;

fn quick() -> bool {
    std::env::var_os("SGQ_BENCH_QUICK").is_some()
}

/// The `(shards, workers)` grid. `(1, 1)` is the determinism baseline
/// every other configuration is asserted against.
fn configs() -> Vec<(usize, usize)> {
    let shard_counts: &[usize] = if quick() { &[1, 4] } else { &[1, 2, 4] };
    let worker_counts: &[usize] = &[1, 4];
    let mut out = Vec::new();
    for &s in shard_counts {
        for &w in worker_counts {
            out.push((s, w));
        }
    }
    out
}

fn scale() -> Scale {
    if quick() {
        Scale::bench().scaled(0.1)
    } else {
        Scale::bench().scaled(0.3)
    }
}

fn opts(shards: usize, workers: usize) -> EngineOptions {
    EngineOptions {
        materialize_paths: false,
        shards,
        workers,
        ..Default::default()
    }
}

struct Run {
    secs: f64,
    edges: usize,
    results: Vec<usize>,
    stats: ExecStats,
    shard_subgraphs: usize,
    merge_points: usize,
}

fn run_fleet(
    n: usize,
    ds: Dataset,
    scale: &Scale,
    raw: &sgq_datagen::RawStream,
    shards: usize,
    workers: usize,
) -> Run {
    let mut host = MultiQueryEngine::with_options(opts(shards, workers));
    let ids: Vec<_> = window_variant_fleet(n, ds, scale)
        .iter()
        .map(|q| host.register(q))
        .collect();
    let shard_subgraphs = host.shard_widths().iter().filter(|&&w| w > 0).count();
    let merge_points = host.merge_point_count();
    let stream = sgq_datagen::resolve(raw, host.labels());
    let sges = stream.sges();
    let started = Instant::now();
    for chunk in sges.chunks(BATCH) {
        host.ingest_batch(chunk);
    }
    let secs = started.elapsed().as_secs_f64();
    Run {
        secs,
        edges: sges.len(),
        results: ids.iter().map(|id| host.results(*id).len()).collect(),
        stats: host.exec_stats(),
        shard_subgraphs,
        merge_points,
    }
}

fn bench_sharding(c: &mut Criterion) {
    if quick() || std::env::var_os("SGQ_BENCH_SUMMARY_ONLY").is_some() {
        return;
    }
    let scale = scale();
    let mut group = c.benchmark_group("sharding");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    let raw = scale.stream(Dataset::So);
    for n in [1, 6] {
        for (s, w) in configs() {
            group.bench_with_input(
                BenchmarkId::new(format!("q{n}"), format!("s{s}w{w}")),
                &(s, w),
                |b, &(s, w)| {
                    b.iter(|| run_fleet(n, Dataset::So, &scale, &raw, s, w));
                },
            );
        }
    }
    group.finish();
}

/// One timed full-stream pass per configuration, summarized as JSON, with
/// **cross-configuration equality asserted on every pass**: per-variant
/// result counts and the deterministic executor fingerprint must match
/// the `(shards = 1, workers = 1)` baseline exactly.
fn emit_json_summary() {
    let scale = scale();
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut rows: Vec<String> = Vec::new();
    let mut stream_edges: Vec<String> = Vec::new();
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        stream_edges.push(format!("\"{}\": {}", ds.name(), raw.len()));
        for n in 1..=7 {
            let mut baseline: Option<(f64, Vec<usize>, [u64; 9])> = None;
            for (s, w) in configs() {
                let mut best: Option<Run> = None;
                for _ in 0..PASSES {
                    let run = run_fleet(n, ds, &scale, &raw, s, w);
                    match &baseline {
                        None => {
                            baseline = Some((
                                run.secs,
                                run.results.clone(),
                                run.stats.determinism_fingerprint(),
                            ))
                        }
                        Some((_, results, fingerprint)) => {
                            assert_eq!(
                                results,
                                &run.results,
                                "{} Q{n}: shards={s} workers={w} changed per-variant result counts",
                                ds.name()
                            );
                            assert_eq!(
                                fingerprint,
                                &run.stats.determinism_fingerprint(),
                                "{} Q{n}: shards={s} workers={w} changed deterministic exec counters",
                                ds.name()
                            );
                        }
                    }
                    if best.as_ref().is_none_or(|b| run.secs < b.secs) {
                        best = Some(run);
                    }
                }
                let run = best.expect("at least one pass");
                // Refresh the baseline time with the serial config's best
                // pass so speedups compare best against best.
                if (s, w) == (1, 1) {
                    if let Some(b) = baseline.as_mut() {
                        b.0 = run.secs;
                    }
                }
                let base_secs = baseline.as_ref().expect("baseline set").0;
                let stats = run.stats;
                rows.push(format!(
                    concat!(
                        "    {{\"dataset\": \"{}\", \"query\": \"Q{}\", ",
                        "\"shards\": {}, \"workers\": {}, ",
                        "\"edges_per_s\": {:.0}, \"speedup_vs_serial\": {:.3}, ",
                        "\"results\": {}, \"shard_subgraphs\": {}, ",
                        "\"merge_points\": {}, \"cross_shard_deliveries\": {}, ",
                        "\"mean_shard_width\": {:.2}, \"shard_occupancy\": {:.2}, ",
                        "\"shard_time_share\": {:.2}}}"
                    ),
                    ds.name(),
                    n,
                    s,
                    w,
                    run.edges as f64 / run.secs,
                    base_secs / run.secs,
                    run.results.iter().sum::<usize>(),
                    run.shard_subgraphs,
                    run.merge_points,
                    stats.cross_shard_deliveries,
                    stats.mean_shard_width(),
                    stats.shard_occupancy(s),
                    if run.secs <= 0.0 {
                        0.0
                    } else {
                        (stats.shard_nanos as f64 / 1e9) / run.secs
                    },
                ));
            }
        }
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"sharding\",\n",
            "  \"quick\": {},\n",
            "  \"host_parallelism\": {},\n",
            "  \"note\": \"fleet = {} window-size variants of each query ",
            "on one shared dataflow, drain-only batch ingestion at batch ",
            "{}; per-variant result counts and determinism fingerprints ",
            "are asserted equal across every (shards, workers) ",
            "configuration; wall-clock speedup requires host_parallelism ",
            "> 1 — on a single-CPU host the shards>1 rows measure ",
            "shard-dispatch overhead, not speedup\",\n",
            "  \"stream_edges\": {{{}}},\n  \"window_variant_days\": {:?},\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        quick(),
        host_parallelism,
        VARIANT_DAYS.len(),
        BATCH,
        stream_edges.join(", "),
        VARIANT_DAYS,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharding.json");
    std::fs::write(path, &json).expect("write BENCH_sharding.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_sharding);

fn main() {
    if std::env::var_os("SGQ_BENCH_SUMMARY_ONLY").is_none() {
        benches();
    }
    emit_json_summary();
}
