//! Observability overhead and neutrality: Q1–Q7 on both datasets at
//! `ObsLevel::Off` vs `Counters` vs `Timing`.
//!
//! Every row asserts the observability contract on every pass: result
//! and deletion counts plus the executor counters (`ExecStats`) must be
//! identical to the `ObsLevel::Off` baseline — collection may cost
//! time, never answers. The JSON rows carry the extended stats fields
//! (p50/p99/p99.9 slide latency, `peak_state`) from the untimed run and
//! the per-operator snapshot (invocations, selectivity, state, nanos)
//! from the `Timing` run, so the row documents both the overhead and
//! what the counters bought.
//!
//! The summary also exercises the exporter end to end: a window-variant
//! multi-query fleet runs under `Timing` and its
//! [`MetricsSnapshot`] is written to `METRICS_snapshot.jsonl`, with
//! every line shape-checked as a one-object JSON record.
//!
//! Set `SGQ_BENCH_QUICK=1` for a truncated smoke pass (CI): scale drops
//! an order of magnitude, every assertion still runs, and the JSON is
//! written with `"quick": true`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use sgq_bench::{latency_fields, run_query_obs, window_variant_fleet, Scale, VARIANT_DAYS};
use sgq_core::engine::EngineOptions;
use sgq_core::metrics::ExecStats;
use sgq_core::obs::{MetricsSnapshot, ObsLevel};
use sgq_datagen::workloads::Dataset;
use sgq_multiquery::MultiQueryEngine;
use std::time::{Duration, Instant};

/// Ingestion batch size of the fleet snapshot run (the serve loop's).
const BATCH: usize = 256;
/// Timed passes per level; best is reported.
const PASSES: usize = 2;
/// The measured levels; `Off` first — it is the baseline the other
/// levels' results and executor counters are asserted against.
const LEVELS: [ObsLevel; 3] = [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Timing];

fn quick() -> bool {
    std::env::var_os("SGQ_BENCH_QUICK").is_some()
}

fn scale() -> Scale {
    if quick() {
        Scale::bench().scaled(0.1)
    } else {
        Scale::bench().scaled(0.5)
    }
}

fn bench_obs(c: &mut Criterion) {
    if quick() || std::env::var_os("SGQ_BENCH_SUMMARY_ONLY").is_some() {
        return;
    }
    let scale = scale();
    let window = scale.default_window();
    let mut group = c.benchmark_group("obs");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    let raw = scale.stream(Dataset::So);
    for n in [1, 6] {
        for obs in LEVELS {
            group.bench_with_input(
                BenchmarkId::new(format!("q{n}"), obs.name()),
                &obs,
                |b, &obs| {
                    b.iter(|| run_query_obs(n, Dataset::So, &raw, window, obs));
                },
            );
        }
    }
    group.finish();
}

/// Runs the Q6 window-variant fleet under `Timing` and writes
/// the metrics snapshot as JSONL, returning the line count after
/// shape-checking every line.
fn export_fleet_snapshot(scale: &Scale) -> usize {
    let mut host = MultiQueryEngine::with_options(EngineOptions {
        materialize_paths: false,
        obs: ObsLevel::Timing,
        ..Default::default()
    });
    let ids: Vec<_> = window_variant_fleet(6, Dataset::So, scale)
        .iter()
        .map(|q| host.register(q))
        .collect();
    let raw = scale.stream(Dataset::So);
    let stream = sgq_datagen::resolve(&raw, host.labels());
    for chunk in stream.sges().chunks(BATCH) {
        host.ingest_batch(chunk);
    }
    let snap = host.metrics_snapshot();
    assert_eq!(
        snap.queries.len(),
        ids.len(),
        "one query record per registration"
    );
    assert!(
        snap.operators.iter().any(|op| op.stats.batch_nanos > 0),
        "Timing fleet run must record non-zero operator nanos"
    );
    let jsonl = snap.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(
        lines.len(),
        1 + snap.operators.len() + snap.queries.len(),
        "exec + operator + query records"
    );
    for line in &lines {
        assert!(
            line.starts_with("{\"record\":\"") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_snapshot.jsonl");
    snap.write_jsonl(path)
        .expect("write METRICS_snapshot.jsonl");
    println!("wrote {path}");
    lines.len()
}

/// The nested per-operator array for a row: one object per live operator
/// that did any work, straight from [`MetricsSnapshot`]'s JSONL encoding.
fn operators_json(snap: &MetricsSnapshot) -> String {
    let ops: Vec<String> = snap
        .operators
        .iter()
        .filter(|op| !op.stats.is_zero())
        .map(|op| op.to_json())
        .collect();
    format!("[{}]", ops.join(", "))
}

/// One timed full-stream pass per level, summarized as JSON, with the
/// neutrality contract asserted on every pass: result/deletion counts
/// and the executor counters must match `ObsLevel::Off` exactly.
fn emit_json_summary() {
    let scale = scale();
    let mut rows: Vec<String> = Vec::new();
    for ds in [Dataset::So, Dataset::Snb] {
        let raw = scale.stream(ds);
        let window = scale.default_window();
        for n in 1..=7 {
            let mut baseline: Option<(f64, u64, u64, ExecStats)> = None;
            let mut per_level: Vec<(ObsLevel, f64)> = Vec::new();
            let mut off_latency = String::new();
            let mut timing_ops = String::from("[]");
            for obs in LEVELS {
                let mut best: Option<f64> = None;
                for _ in 0..PASSES {
                    let started = Instant::now();
                    let (stats, snap) = run_query_obs(n, ds, &raw, window, obs);
                    let secs = started.elapsed().as_secs_f64();
                    match &baseline {
                        None => {
                            baseline = Some((secs, stats.results, stats.deletions, snap.exec));
                        }
                        Some((_, results, deletions, exec)) => {
                            assert_eq!(
                                (results, deletions),
                                (&stats.results, &stats.deletions),
                                "{} Q{n}: obs={} changed result counts",
                                ds.name(),
                                obs.name()
                            );
                            assert_eq!(
                                exec,
                                &snap.exec,
                                "{} Q{n}: obs={} changed deterministic exec counters",
                                ds.name(),
                                obs.name()
                            );
                        }
                    }
                    if obs == ObsLevel::Off && off_latency.is_empty() {
                        off_latency = latency_fields(&stats);
                    }
                    if obs == ObsLevel::Timing {
                        assert!(
                            snap.operators.iter().any(|op| op.stats.batch_nanos > 0),
                            "{} Q{n}: Timing run recorded no operator nanos",
                            ds.name()
                        );
                        timing_ops = operators_json(&snap);
                    }
                    if best.is_none_or(|b| secs < b) {
                        best = Some(secs);
                    }
                }
                let secs = best.expect("at least one pass");
                if obs == ObsLevel::Off {
                    if let Some(b) = baseline.as_mut() {
                        b.0 = secs;
                    }
                }
                per_level.push((obs, secs));
            }
            let (base_secs, results, ..) = baseline.expect("baseline set");
            let throughput = |secs: f64| raw.len() as f64 / secs;
            let overhead = |secs: f64| secs / base_secs;
            let secs_of = |lvl: ObsLevel| {
                per_level
                    .iter()
                    .find(|(l, _)| *l == lvl)
                    .expect("level measured")
                    .1
            };
            rows.push(format!(
                concat!(
                    "    {{\"dataset\": \"{}\", \"query\": \"Q{}\", ",
                    "\"results\": {}, ",
                    "\"edges_per_s_off\": {:.0}, \"edges_per_s_counters\": {:.0}, ",
                    "\"edges_per_s_timing\": {:.0}, ",
                    "\"overhead_counters\": {:.3}, \"overhead_timing\": {:.3}, ",
                    "{}, \"operators\": {}}}"
                ),
                ds.name(),
                n,
                results,
                throughput(secs_of(ObsLevel::Off)),
                throughput(secs_of(ObsLevel::Counters)),
                throughput(secs_of(ObsLevel::Timing)),
                overhead(secs_of(ObsLevel::Counters)),
                overhead(secs_of(ObsLevel::Timing)),
                off_latency,
                timing_ops,
            ));
        }
    }
    let snapshot_lines = export_fleet_snapshot(&scale);
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"obs\",\n",
            "  \"quick\": {},\n",
            "  \"note\": \"per level, one full-stream pass of each query; ",
            "result counts and executor counters are asserted ",
            "identical to ObsLevel::Off on every pass (observability may ",
            "cost time, never answers); overhead_* is wall-clock relative ",
            "to Off; latency fields come from the Off run, the operators ",
            "array from the Timing run; the fleet snapshot is a {}-variant ",
            "Q6 fleet under Timing\",\n",
            "  \"metrics_snapshot\": {{\"path\": \"{}\", \"lines\": {}}},\n",
            "  \"rows\": [\n{}\n  ]\n}}\n"
        ),
        quick(),
        VARIANT_DAYS.len(),
        "METRICS_snapshot.jsonl",
        snapshot_lines,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_obs);

fn main() {
    if std::env::var_os("SGQ_BENCH_SUMMARY_ONLY").is_none() {
        benches();
    }
    emit_json_summary();
}
