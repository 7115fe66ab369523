//! Rows: what one run prints and records — host facts, the end-to-end
//! metrics, and (traced runs) the per-layer metrics with the passes that
//! produce them.

use std::io::{self, Write};
use std::path::Path;
use std::process::Command;

use sgq_core::obs::ObsLevel;

use crate::session::{SetupTimes, Sizes, Wire};
use crate::traced::{self, PassOptions, CLASSES};
use crate::workload::{Frames, Spec, IN_FLIGHT_OPS};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN or infinity; a value that is either is a bug in the
/// benchmark, reported as such.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "value is not finite");
    format!("{v}")
}

/// A JSON array of items that already print as JSON.
pub fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

pub fn json_array(values: &[f64]) -> String {
    json_list(values.iter().map(|&v| json_number(v)))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One run of one workload.
pub struct Row {
    pub workload: &'static str,
    pub quick: bool,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Host and run facts, as `(key, JSON value)`.
    facts: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Row {
    /// A row with the host facts and what every session measured; a fact
    /// that ends in `_per_session` has one entry per session, in order.
    pub fn new(
        spec: &Spec,
        seed: u64,
        quick: bool,
        trace: bool,
        sizes: &Sizes,
        sessions: &[Wire],
    ) -> Row {
        let mut row = Row {
            workload: spec.name,
            quick,
            trace,
            correct: false,
            attempted: 0,
            failed: 0,
            facts: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        row.fact("nproc", nproc);
        row.fact("cpu", json_string(&cpu_model()));
        row.fact(
            "git_rev",
            json_string(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        );
        row.fact("rustc", json_string(&command_line("rustc", &["--version"])));
        row.fact("why", json_string(spec.why));
        row.fact("seed", seed);
        row.fact("sessions", sessions.len());
        row.fact("frame_ops", spec.frame_ops);
        row.fact("in_flight_cap_ops", IN_FLIGHT_OPS);
        row.fact("paced_rate_eps", spec.paced_eps);
        row.fact("latency_limit_ms", spec.limit_ms);
        row.fact("warmup_ops", sizes.warm_frames * spec.frame_ops);
        row.fact("saturate_planned_s", sizes.saturate_s);
        row.fact("paced_planned_s", sizes.paced_s);
        row.fact("saturate_ops", sessions[0].saturate_ops);
        row.fact("paced_ops", sessions[0].paced_ops);
        row.fact("paced_marker_samples", sessions[0].paced_markers);
        let mut per_session = |key: &str, f: &dyn Fn(&Wire) -> String| {
            row.fact(
                &format!("{key}_per_session"),
                json_list(sessions.iter().map(f)),
            );
        };
        per_session("saturate_s", &|w| json_number(w.saturate_wall_s));
        per_session("saturate_segment_eps", &|w| json_array(&w.segment_eps));
        per_session("saturate_cpu_s_per_medge", &|w| {
            json_number(w.cpu_s_per_medge)
        });
        per_session("saturate_mean_epoch_edges", &|w| {
            json_number(w.saturate_mean_epoch_edges)
        });
        per_session("paced_s", &|w| json_number(w.paced_wall_s));
        per_session("paced_segment_p50_ms", &|w| {
            json_array(&w.segment_latency_p50_ms)
        });
        per_session("paced_segment_p95_ms", &|w| {
            json_array(&w.segment_latency_p95_ms)
        });
        per_session("latency_p99_max_ms", &|w| {
            json_array(&[w.latency_p99_ms, w.latency_max_ms])
        });
        per_session("paced_segment_within_limit_share", &|w| {
            json_array(&w.segment_within_limit_share)
        });
        per_session("gen_late_p50_p95_max_ms", &|w| {
            json_array(&[w.gen_late_p50_ms, w.gen_late_p95_ms, w.gen_late_max_ms])
        });
        per_session("gen_stalled_markers", &|w| {
            w.gen_stalled_markers.to_string()
        });
        per_session("paced_backlog_growth_markers", &|w| {
            json_number(w.backlog_growth)
        });
        per_session("paced_cpu_s_per_medge", &|w| {
            json_number(w.paced_cpu_s_per_medge)
        });
        per_session("peak_rss_mb", &|w| json_number(w.peak_rss_mb));
        per_session("markers_sent", &|w| w.markers_sent.to_string());
        per_session("markers_failed", &|w| w.markers_failed.to_string());
        per_session("host_exit_clean", &|w| w.host_exit_clean.to_string());
        row
    }

    /// Records a fact; `value` must print as JSON (numbers, booleans,
    /// arrays of numbers, or a string already quoted by `json_string`).
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    fn all_metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The full row as one JSON object.
    pub fn to_json(&self) -> String {
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!(
            "{{\"bench\":\"sgq-benchmark\",\"workload\":{},\"quick\":{},\"trace\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"facts\":{{{}}},\
             \"end_to_end\":{},\"per_layer\":{}}}",
            json_string(self.workload),
            self.quick,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            facts.join(","),
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
        )
    }

    /// The contract's result object: the end-to-end metrics of a plain
    /// run, the per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }

    /// Every metric by name with its unit, then the row.
    pub fn print(&self) {
        let tag = if self.quick { " (quick)" } else { "" };
        println!(
            "== {}{tag}: correct={} attempted={} failed={}",
            self.workload, self.correct, self.attempted, self.failed
        );
        for m in self.all_metrics() {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.to_json());
    }

    pub fn append_to(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("rows.jsonl"))?;
        writeln!(f, "{}", self.to_json())
    }
}

/// What the traced passes produce.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub distinct_sets_equal: bool,
    pub wire_distinct: usize,
    pub inproc_distinct: usize,
    pub inproc_results: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replays the stream in-process and derives the per-layer metrics.
///
/// One pass over the whole stream at `ObsLevel::Off` gives the in-process
/// cost of the very frames the saturate phase sent, and the distinct
/// result set the wire is checked against. Then a fixed prefix is
/// replayed at `Off`, at `Timing`, and at `Timing` with spans, twice in
/// turn, keeping the faster of each pair: the differences are what
/// collection and tracing cost, and the traced pass gives the breakdown.
pub fn per_layer(
    spec: &Spec,
    stream: &Frames,
    setup: SetupTimes,
    wire: &Wire,
    out_dir: &Path,
) -> io::Result<Layers> {
    let (sat_from, sat_to) = wire.saturate_frames;
    let full = traced::replay(
        spec,
        stream,
        sat_to,
        ObsLevel::Off,
        PassOptions {
            distinct: true,
            note_frames: &[sat_from],
            ..PassOptions::default()
        },
    );
    let inproc_s_per_medge =
        (full.wall_s - full.reached_s[0]) / (((sat_to - sat_from) * spec.frame_ops) as f64 / 1e6);
    let inproc_set = full.mirror.distinct.as_ref().expect("collection is on");
    let wire_set = wire.distinct.as_ref().expect("traced sessions collect");
    let distinct_sets_equal = inproc_set == wire_set;

    let prefix = (spec.trace_ops / spec.frame_ops).min(sat_to);
    let spans_on = PassOptions {
        traced: true,
        ..PassOptions::default()
    };
    let configs = [
        (ObsLevel::Off, PassOptions::default()),
        (ObsLevel::Timing, PassOptions::default()),
        (ObsLevel::Timing, spans_on),
    ];
    let mut best: [Option<traced::Pass>; 3] = [None, None, None];
    for _ in 0..2 {
        for (slot, (obs, opt)) in best.iter_mut().zip(configs) {
            let pass = traced::replay(spec, stream, prefix, obs, opt);
            if slot.as_ref().is_none_or(|b| pass.wall_s < b.wall_s) {
                *slot = Some(pass);
            }
        }
    }
    let [off, timing, pass] = best.map(|p| p.expect("two rounds ran"));
    let engine_eps = traced::single_engine_eps(spec, stream, prefix);

    std::fs::create_dir_all(out_dir)?;
    pass.rec
        .write_jsonl(&out_dir.join(format!("spans.{}.jsonl", spec.name)))?;

    let rec = &pass.rec;
    let engine = &pass.mirror.engine;
    let snap = engine.metrics_snapshot();
    let ops = traced::operators(engine, &snap);
    let (route_ns, dedup_ns) = engine.phase_nanos();
    let (operator_count, sharing_ratio) = traced::sharing(spec, engine);
    let edges_decoded = (pass.frames * (spec.frame_ops + 1)) as f64;
    let results = pass.mirror.results as f64;
    let ingest_ns = rec.total_ns("multiquery.ingest") + rec.total_ns("multiquery.delete");
    let op_batch_ns: u64 = ops.by_class.values().map(|r| r.stats.batch_nanos).sum();
    let op_purge_ns: u64 = ops.by_class.values().map(|r| r.stats.purge_nanos).sum();
    let dataflow_self_ns =
        ingest_ns.saturating_sub(op_batch_ns + op_purge_ns + route_ns + dedup_ns);
    let replay_ns = rec.total_ns("replay");

    let mut m = vec![
        // set-up
        Metric::new("datagen.gen_ms", setup.gen_ms, "ms"),
        Metric::new(
            "query.parse_us",
            rec.total_ns("query.parse") as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "multiquery.register_ms",
            ms(rec.total_ns("multiquery.register")),
            "ms",
        ),
        Metric::new("multiquery.operators", operator_count as f64, "count"),
        Metric::new("multiquery.sharing_ratio", sharing_ratio, "ratio"),
        // the wire format
        Metric::new(
            "protocol.decode_ns_per_edge",
            ratio(rec.total_ns("protocol.decode") as f64, edges_decoded),
            "ns",
        ),
        Metric::new(
            "protocol.bytes_per_edge",
            pass.frame_bytes as f64 / edges_decoded,
            "B",
        ),
        Metric::new(
            "protocol.encode_ns_per_result",
            ratio(rec.total_ns("protocol.encode") as f64, results),
            "ns",
        ),
        Metric::new("protocol.bytes_per_result", wire.bytes_per_result, "B"),
        // the serve layer, from the wire session
        Metric::new("server.result_frames", wire.result_frames as f64, "count"),
        Metric::new(
            "server.wire_tax_share",
            1.0 - inproc_s_per_medge / wire.cpu_s_per_medge,
            "share",
        ),
        Metric::new("server.epochs", wire.epochs as f64, "count"),
        Metric::new("server.mean_epoch_edges", wire.mean_epoch_edges, "count"),
        Metric::new(
            "server.discarded_edges",
            wire.discarded_edges as f64,
            "count",
        ),
        Metric::new(
            "server.paced_cpu_s_per_medge",
            wire.paced_cpu_s_per_medge,
            "s",
        ),
        Metric::new("server.latency_p99_ms", wire.latency_p99_ms, "ms"),
        Metric::new("server.latency_max_ms", wire.latency_max_ms, "ms"),
        Metric::new("server.gen_late_p95_ms", wire.gen_late_p95_ms, "ms"),
        Metric::new(
            "server.results_dropped",
            wire.results_dropped as f64,
            "count",
        ),
        Metric::new("server.error_frames", wire.error_frames as f64, "count"),
        Metric::new(
            "server.rss_growth_mb_per_medge",
            wire.rss_growth_mb_per_medge,
            "MB",
        ),
        // the multi-query host, in-process
        Metric::new("multiquery.inproc_eps", off.eps(), "1/s"),
        Metric::new("multiquery.ingest_ms", ms(ingest_ns), "ms"),
        Metric::new(
            "multiquery.drain_ms",
            ms(rec.total_ns("multiquery.drain")),
            "ms",
        ),
        Metric::new("multiquery.route_ms", ms(route_ns), "ms"),
        Metric::new("multiquery.dedup_ms", ms(dedup_ns), "ms"),
        Metric::new(
            "multiquery.results_per_edge",
            full.mirror.results as f64 / full.ops() as f64,
            "ratio",
        ),
        Metric::new(
            "multiquery.neg_results",
            full.mirror.neg_results as f64,
            "count",
        ),
        Metric::new(
            "multiquery.dedup_accept_share",
            ratio(results, ops.offered_to_sinks as f64),
            "share",
        ),
        Metric::new("engine.inproc_eps", engine_eps, "1/s"),
        // the dataflow executor
        Metric::new("dataflow.self_ms", ms(dataflow_self_ns), "ms"),
        Metric::new("dataflow.epochs", snap.exec.epochs as f64, "count"),
        Metric::new(
            "dataflow.operator_invocations",
            snap.exec.operator_invocations as f64,
            "count",
        ),
        Metric::new(
            "dataflow.deltas_per_invocation",
            snap.exec.deltas_per_invocation(),
            "ratio",
        ),
        Metric::new("dataflow.levels_run", snap.exec.levels_run as f64, "count"),
        Metric::new("dataflow.purge_ms", ms(op_purge_ns), "ms"),
    ];
    for class in CLASSES {
        let row = ops.by_class[class];
        let peak = pass.state_peak.get(class).copied().unwrap_or(0);
        m.push(Metric::new(
            format!("op.{class}.batch_ms"),
            ms(row.stats.batch_nanos),
            "ms",
        ));
        m.push(Metric::new(
            format!("op.{class}.purge_ms"),
            ms(row.stats.purge_nanos),
            "ms",
        ));
        m.push(Metric::new(
            format!("op.{class}.deltas_in"),
            row.stats.deltas_in as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("op.{class}.deltas_out"),
            row.stats.deltas_out as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("op.{class}.state_entries_peak"),
            peak as f64,
            "count",
        ));
    }
    let frontier = ops.by_class["S-PATH"].frontier;
    m.extend([
        Metric::new(
            "op.S-PATH.nodes_settled",
            frontier.nodes_settled as f64,
            "count",
        ),
        Metric::new("op.S-PATH.settle_ratio", frontier.settle_ratio(), "ratio"),
        Metric::new(
            "op.S-PATH.edges_scanned",
            frontier.edges_scanned as f64,
            "count",
        ),
        // what the measurement itself costs
        Metric::new(
            "obs.timing_tax_share",
            1.0 - timing.eps() / off.eps(),
            "share",
        ),
        Metric::new(
            "trace.span_tax_share",
            1.0 - pass.eps() / timing.eps(),
            "share",
        ),
        Metric::new(
            "budget.coverage_share",
            1.0 - ratio(rec.self_ns("replay") as f64, replay_ns as f64),
            "share",
        ),
    ]);
    Ok(Layers {
        metrics: m,
        distinct_sets_equal,
        wire_distinct: wire_set.len(),
        inproc_distinct: inproc_set.len(),
        inproc_results: full.mirror.results,
    })
}
