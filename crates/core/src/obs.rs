//! Flight-recorder observability: per-operator counters, log2 latency
//! histograms, structured trace events, and metrics snapshots.
//!
//! Two consumers motivate this module: `explain analyze` needs *measured
//! per-operator cost*, and a service host needs a metrics exporter. The
//! executor therefore collects, when asked to:
//!
//! * [`OpStats`] — per-operator invocation / delta-in / delta-out /
//!   wall-clock counters, accumulated by `Dataflow`'s dispatch loop;
//! * [`LogHistogram`] — fixed-bucket log2 histograms used by the
//!   multi-query host for per-query latency and emission distributions;
//! * [`TraceEvent`] / [`TraceSink`] — structured lifecycle events (epoch
//!   open/close, level dispatch, purges, query register/deregister) delivered to a pluggable sink, with
//!   [`JsonlTraceSink`] as the bundled JSONL recorder;
//! * [`MetricsSnapshot`] — a point-in-time export of everything above,
//!   serialisable as JSONL or CSV for the bench harness and future
//!   service host.
//!
//! ## The `ObsLevel` gate and the determinism contract
//!
//! Collection is gated by [`ObsLevel`] (the `SGQ_OBS` environment
//! variable by default): at `Off` the serial hot path performs **no**
//! clock reads and no per-operator updates; `Counters` adds clock-free
//! counting; `Timing` adds wall-clock nanos. Observability state is
//! write-only with respect to execution — no dispatch decision ever reads
//! it — and no counter in this module is part of [`ExecStats`], so result
//! logs and executor counters are bit-identical with observability on or
//! off (enforced by the obs-neutrality proptests).

use crate::metrics::ExecStats;
use sgq_types::Timestamp;
use std::sync::{Arc, Mutex};

/// How much the executor records about its own execution.
///
/// The default honours the `SGQ_OBS` environment variable (`off` / `0`,
/// `counters` / `1`, `timing` / `2`), which is how CI runs the whole
/// suite with observability on without touching test code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// No collection: the hot path performs no clock reads and no
    /// per-operator counter updates (the production default).
    #[default]
    Off,
    /// Clock-free counting: per-operator invocations and delta in/out
    /// counts, but no wall-clock reads.
    Counters,
    /// Counters plus wall-clock nanos per `on_batch` / `purge` call (and
    /// per-query latency attribution in the multi-query host).
    Timing,
}

impl ObsLevel {
    /// Parses the `SGQ_OBS` environment variable; unset or unrecognised
    /// values mean [`ObsLevel::Off`].
    pub fn from_env() -> ObsLevel {
        match std::env::var("SGQ_OBS") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "counters" | "1" => ObsLevel::Counters,
                "timing" | "2" => ObsLevel::Timing,
                _ => ObsLevel::Off,
            },
            Err(_) => ObsLevel::Off,
        }
    }

    /// Whether any collection happens at this level.
    pub fn counting(self) -> bool {
        self != ObsLevel::Off
    }

    /// Whether wall-clock reads happen at this level.
    pub fn timing(self) -> bool {
        self == ObsLevel::Timing
    }

    /// The lowercase name (`off` / `counters` / `timing`), matching what
    /// `SGQ_OBS` accepts.
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Timing => "timing",
        }
    }
}

/// Per-operator observability counters, accumulated over an operator's
/// lifetime. Nanos fields stay zero below [`ObsLevel::Timing`]; every
/// field stays zero at [`ObsLevel::Off`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// `on_batch` calls (one per delivered inbox segment).
    pub invocations: u64,
    /// Deltas handed to the operator across all invocations.
    pub deltas_in: u64,
    /// Deltas the operator emitted.
    pub deltas_out: u64,
    /// Wall-clock nanoseconds spent inside `on_batch` calls.
    pub batch_nanos: u64,
    /// `purge` calls performed on this operator.
    pub purges: u64,
    /// Wall-clock nanoseconds spent inside `purge` calls.
    pub purge_nanos: u64,
}

impl OpStats {
    /// Output deltas per input delta — the operator's measured
    /// selectivity (0.0 when nothing was dispatched yet).
    pub fn selectivity(&self) -> f64 {
        if self.deltas_in == 0 {
            return 0.0;
        }
        self.deltas_out as f64 / self.deltas_in as f64
    }

    /// Adds `other`'s counters into `self` (summing operators into
    /// per-class totals).
    pub fn absorb(&mut self, other: &OpStats) {
        self.invocations += other.invocations;
        self.deltas_in += other.deltas_in;
        self.deltas_out += other.deltas_out;
        self.batch_nanos += other.batch_nanos;
        self.purges += other.purges;
        self.purge_nanos += other.purge_nanos;
    }

    /// Whether any activity was recorded.
    pub fn is_zero(&self) -> bool {
        *self == OpStats::default()
    }
}

/// Traversal counters of the frontier-at-once PATH expansion (S-PATH's
/// insert-run pass and the shared re-derivation Dijkstra). Unlike
/// [`OpStats`], these are **always on**: they count deterministic
/// algorithmic work (not wall clock), are maintained by the operators
/// themselves, and are read at snapshot time through
/// `PhysicalOp::frontier_stats` — so benches can gate on them at any
/// [`ObsLevel`] without perturbing results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Product-graph nodes settled by a bulk frontier pass (each node at
    /// most once per epoch at its final expiry).
    pub nodes_settled: u64,
    /// Interval improvements applied (Expand / Propagate / ts-coalesce).
    /// A node's expiry settles once per pass but its start can still
    /// widen afterwards, so settled ≤ improved.
    pub nodes_improved: u64,
    /// Candidates pushed onto a priority frontier.
    pub heap_pushes: u64,
    /// Adjacency entries examined while scanning successor edges.
    pub edges_scanned: u64,
}

impl FrontierStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &FrontierStats) {
        self.nodes_settled += other.nodes_settled;
        self.nodes_improved += other.nodes_improved;
        self.heap_pushes += other.heap_pushes;
        self.edges_scanned += other.edges_scanned;
    }

    /// Whether any traversal work was recorded.
    pub fn is_zero(&self) -> bool {
        *self == FrontierStats::default()
    }

    /// Settles per improvement — 1.0 when no node was improved twice in
    /// one pass, lower when settled nodes were revisited (0.0 when nothing
    /// was improved).
    pub fn settle_ratio(&self) -> f64 {
        if self.nodes_improved == 0 {
            return 0.0;
        }
        self.nodes_settled as f64 / self.nodes_improved as f64
    }
}

/// Number of buckets in a [`LogHistogram`]: one per possible bit width of
/// a `u64` sample (0 through 64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram over `u64` samples (latency nanos,
/// emission counts). Bucket `i` counts samples of bit width `i`, i.e.
/// bucket 0 holds zeros and bucket `i > 0` holds `[2^(i-1), 2^i)` —
/// recording is one `leading_zeros` and an array increment, cheap enough
/// for the per-epoch hot path, and the memory footprint is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[(u64::BITS - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest sample recorded exactly.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The mean sample (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.sum / self.count
    }

    /// The `p`-th percentile (0.0–1.0) as the **upper bound** of the
    /// bucket holding that rank, capped at the exact maximum — so the
    /// estimate is conservative within a factor of 2 (the bucket width).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The compact summary used by snapshots and explain-analyze.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max,
        }
    }
}

/// Point-in-time percentile summary of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: u64,
    /// Median (bucket upper bound, capped at the exact max).
    pub p50: u64,
    /// 99th percentile (bucket upper bound, capped at the exact max).
    pub p99: u64,
    /// 99.9th percentile (bucket upper bound, capped at the exact max).
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A structured executor lifecycle event, delivered to the installed
/// [`TraceSink`] as it happens. Events carry deterministic identifiers
/// (epoch sequence numbers, node counts) plus wall-clock durations where
/// the executor measured one; durations are `0` when the run collected no
/// timing for that event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An input epoch was seeded into the source inboxes.
    EpochOpen {
        /// Epoch sequence number (matches `ExecStats::epochs`).
        epoch: u64,
        /// The event-time watermark the epoch opened at.
        now: Timestamp,
        /// Input deltas delivered to source operators.
        input_deltas: usize,
    },
    /// The epoch's sweep completed.
    EpochClose {
        /// Epoch sequence number.
        epoch: u64,
        /// Wall-clock nanos for the sweep (0 without timing).
        nanos: u64,
    },
    /// One schedule level's ready nodes were executed.
    LevelDispatch {
        /// Epoch sequence number.
        epoch: u64,
        /// Topological depth of the level.
        level: usize,
        /// Ready nodes executed.
        width: usize,
    },
    /// Operator state expired at a watermark was purged.
    Purge {
        /// The expiry watermark.
        watermark: Timestamp,
        /// Whether direct-approach state was reclaimed too (`false` for a
        /// timely-only boundary purge).
        reclaim_all: bool,
        /// Operators purged.
        ops: usize,
        /// Wall-clock nanos for the purge walk (0 without timing).
        nanos: u64,
    },
    /// A persistent query registered with a multi-query host.
    Register {
        /// The query's id.
        query: u64,
        /// Its root node in the shared dataflow.
        root: usize,
        /// Nodes implementing the plan (shared nodes included).
        nodes: usize,
    },
    /// A persistent query deregistered from a multi-query host.
    Deregister {
        /// The query's id.
        query: u64,
        /// Nodes retired because no other query references them.
        retired: usize,
    },
}

impl TraceEvent {
    /// The event's kind as a lowercase tag (the `"event"` field of the
    /// JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::EpochOpen { .. } => "epoch_open",
            TraceEvent::EpochClose { .. } => "epoch_close",
            TraceEvent::LevelDispatch { .. } => "level_dispatch",
            TraceEvent::Purge { .. } => "purge",
            TraceEvent::Register { .. } => "register",
            TraceEvent::Deregister { .. } => "deregister",
        }
    }

    /// One-line JSON encoding (the [`JsonlTraceSink`] record format).
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::EpochOpen {
                epoch,
                now,
                input_deltas,
            } => format!(
                "{{\"event\":\"epoch_open\",\"epoch\":{epoch},\"now\":{now},\"input_deltas\":{input_deltas}}}"
            ),
            TraceEvent::EpochClose { epoch, nanos } => {
                format!("{{\"event\":\"epoch_close\",\"epoch\":{epoch},\"nanos\":{nanos}}}")
            }
            TraceEvent::LevelDispatch {
                epoch,
                level,
                width,
            } => format!(
                "{{\"event\":\"level_dispatch\",\"epoch\":{epoch},\"level\":{level},\"width\":{width}}}"
            ),
            TraceEvent::Purge {
                watermark,
                reclaim_all,
                ops,
                nanos,
            } => format!(
                "{{\"event\":\"purge\",\"watermark\":{watermark},\"reclaim_all\":{reclaim_all},\"ops\":{ops},\"nanos\":{nanos}}}"
            ),
            TraceEvent::Register { query, root, nodes } => format!(
                "{{\"event\":\"register\",\"query\":{query},\"root\":{root},\"nodes\":{nodes}}}"
            ),
            TraceEvent::Deregister { query, retired } => {
                format!("{{\"event\":\"deregister\",\"query\":{query},\"retired\":{retired}}}")
            }
        }
    }
}

/// A pluggable receiver of [`TraceEvent`]s, installed on a dataflow with
/// `Dataflow::set_trace_sink` (or the engine wrappers). Called
/// synchronously from the executor thread between — never inside —
/// operator invocations, so implementations should be cheap; buffer and
/// export out-of-band. `Send` because the owning dataflow is `Send`.
pub trait TraceSink: Send {
    /// Receives one lifecycle event.
    fn event(&mut self, ev: &TraceEvent);
}

/// The bundled [`TraceSink`]: encodes every event as one JSON line into a
/// shared buffer. The sink is `Clone` and clones share the buffer —
/// install one clone on the engine and keep another to read the lines
/// back (`Box<dyn TraceSink>` cannot be borrowed back out).
#[derive(Debug, Clone, Default)]
pub struct JsonlTraceSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl JsonlTraceSink {
    /// An empty recorder.
    pub fn new() -> JsonlTraceSink {
        JsonlTraceSink::default()
    }

    /// Events recorded so far, each as one JSON line.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace buffer lock").clone()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("trace buffer lock").len()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole trace as one JSONL document (newline-terminated).
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock().expect("trace buffer lock");
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for JsonlTraceSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.lines
            .lock()
            .expect("trace buffer lock")
            .push(ev.to_json());
    }
}

/// One live operator's identity and counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSnapshot {
    /// Node id in the dataflow arena.
    pub node: usize,
    /// The operator's display name (e.g. `WSCAN[T=100,β=6]`).
    pub name: String,
    /// Topological depth in the level schedule.
    pub level: usize,
    /// Accumulated observability counters.
    pub stats: OpStats,
    /// State entries retained right now.
    pub state_entries: usize,
    /// Frontier traversal counters for PATH operators (`None` for
    /// operators without a frontier). Always collected — see
    /// [`FrontierStats`].
    pub frontier: Option<FrontierStats>,
}

impl OperatorSnapshot {
    /// One-line JSON encoding (a `"record":"operator"` JSONL row).
    pub fn to_json(&self) -> String {
        let frontier = match &self.frontier {
            Some(f) => format!(
                ",\"nodes_settled\":{},\"nodes_improved\":{},\"heap_pushes\":{},\
                 \"edges_scanned\":{},\"settle_ratio\":{:.6}",
                f.nodes_settled,
                f.nodes_improved,
                f.heap_pushes,
                f.edges_scanned,
                f.settle_ratio(),
            ),
            None => String::new(),
        };
        format!(
            "{{\"record\":\"operator\",\"node\":{},\"name\":\"{}\",\"level\":{},\
             \"invocations\":{},\"deltas_in\":{},\"deltas_out\":{},\"selectivity\":{:.6},\
             \"batch_nanos\":{},\"purges\":{},\"purge_nanos\":{},\"state_entries\":{}{}}}",
            self.node,
            json_escape(&self.name),
            self.level,
            self.stats.invocations,
            self.stats.deltas_in,
            self.stats.deltas_out,
            self.stats.selectivity(),
            self.stats.batch_nanos,
            self.stats.purges,
            self.stats.purge_nanos,
            self.state_entries,
            frontier,
        )
    }

    /// One CSV row matching [`MetricsSnapshot::csv_header`].
    pub fn to_csv(&self) -> String {
        let frontier = match &self.frontier {
            Some(f) => format!(
                "{},{},{},{}",
                f.nodes_settled, f.nodes_improved, f.heap_pushes, f.edges_scanned
            ),
            None => ",,,".to_string(),
        };
        format!(
            "{},{},{},{},{},{},{:.6},{},{},{},{},{}",
            self.node,
            csv_escape(&self.name),
            self.level,
            self.stats.invocations,
            self.stats.deltas_in,
            self.stats.deltas_out,
            self.stats.selectivity(),
            self.stats.batch_nanos,
            self.stats.purges,
            self.stats.purge_nanos,
            self.state_entries,
            frontier,
        )
    }
}

/// One registered query's counters in a [`MetricsSnapshot`] (multi-query
/// hosts only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot {
    /// The query's id.
    pub query: u64,
    /// Result inserts emitted so far.
    pub results: usize,
    /// Negative result tuples emitted so far.
    pub deleted: usize,
    /// Of those emissions (both kinds), how many the host's result logs
    /// still hold — the number a window bound applies to.
    pub log_retained: usize,
    /// Emissions already freed from the logs (delivered and expired; see
    /// `MultiQueryEngine::release_delivered`). `results + deleted` stays
    /// cumulative: it is always `log_retained + log_released`.
    pub log_released: usize,
    /// Attributed per-epoch latency (nanos; shared-operator cost divided
    /// by fan-out share). Empty below [`ObsLevel::Timing`].
    pub latency: HistogramSummary,
    /// Per-epoch emission counts (active epochs only).
    pub emissions: HistogramSummary,
}

impl QuerySnapshot {
    /// One-line JSON encoding (a `"record":"query"` JSONL row).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"query\",\"query\":{},\"results\":{},\"deleted\":{},\
             \"log_retained\":{},\"log_released\":{},\
             \"latency_epochs\":{},\"latency_p50_nanos\":{},\"latency_p99_nanos\":{},\
             \"latency_p999_nanos\":{},\"latency_max_nanos\":{},\
             \"emission_epochs\":{},\"emissions_p50\":{},\"emissions_p99\":{},\"emissions_max\":{}}}",
            self.query,
            self.results,
            self.deleted,
            self.log_retained,
            self.log_released,
            self.latency.count,
            self.latency.p50,
            self.latency.p99,
            self.latency.p999,
            self.latency.max,
            self.emissions.count,
            self.emissions.p50,
            self.emissions.p99,
            self.emissions.max,
        )
    }

    /// One CSV row matching [`MetricsSnapshot::query_csv_header`].
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.query, self.results, self.deleted, self.log_retained, self.log_released
        )
    }
}

/// A point-in-time export of the observability state: engine-wide
/// [`ExecStats`], per-operator counters, and (for multi-query hosts)
/// per-query histograms. Serialisable as JSONL ([`MetricsSnapshot::to_jsonl`])
/// or CSV ([`MetricsSnapshot::to_csv`], the per-operator table).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The collection level the snapshot was taken under.
    pub level: ObsLevel,
    /// Engine-wide executor counters.
    pub exec: ExecStats,
    /// Total retained state entries across live operators.
    pub state_entries: usize,
    /// Live operators, ascending by node id.
    pub operators: Vec<OperatorSnapshot>,
    /// Registered queries, ascending by id (empty for single-query
    /// engines).
    pub queries: Vec<QuerySnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSONL document: one `"record":"exec"` line, then
    /// one `"record":"operator"` line per live operator, then one
    /// `"record":"query"` line per registered query.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"record\":\"exec\",\"obs\":\"{}\",\"epochs\":{},\"input_deltas\":{},\
             \"operator_invocations\":{},\"deltas_dispatched\":{},\"deltas_emitted\":{},\
             \"fanout_deliveries\":{},\"levels_run\":{},\"state_entries\":{}}}\n",
            self.level.name(),
            self.exec.epochs,
            self.exec.input_deltas,
            self.exec.operator_invocations,
            self.exec.deltas_dispatched,
            self.exec.deltas_emitted,
            self.exec.fanout_deliveries,
            self.exec.levels_run,
            self.state_entries,
        );
        for op in &self.operators {
            out.push_str(&op.to_json());
            out.push('\n');
        }
        for q in &self.queries {
            out.push_str(&q.to_json());
            out.push('\n');
        }
        out
    }

    /// The CSV header for [`MetricsSnapshot::to_csv`].
    pub fn csv_header() -> &'static str {
        "node,name,level,invocations,deltas_in,deltas_out,selectivity,\
         batch_nanos,purges,purge_nanos,state_entries,\
         nodes_settled,nodes_improved,heap_pushes,edges_scanned"
    }

    /// The CSV header of the per-query table in [`MetricsSnapshot::to_csv`].
    pub fn query_csv_header() -> &'static str {
        "query,results,deleted,log_retained,log_released"
    }

    /// The snapshot as CSV: the per-operator table (header + one row per
    /// live operator), then — on a multi-query host — the per-query
    /// emission/log table under its own header. Exec totals and per-query
    /// histograms are JSONL-only.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::csv_header());
        out.push('\n');
        for op in &self.operators {
            out.push_str(&op.to_csv());
            out.push('\n');
        }
        if !self.queries.is_empty() {
            out.push_str(Self::query_csv_header());
            out.push('\n');
            for q in &self.queries {
                out.push_str(&q.to_csv());
                out.push('\n');
            }
        }
        out
    }

    /// Writes the snapshot to `path` as JSONL.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Formats a nanosecond count human-readably (`842ns`, `13.4µs`,
/// `2.1ms`, `1.7s`) for explain-analyze output.
pub fn fmt_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a CSV field (quotes it when it contains a comma or quote).
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_level_names_round_trip() {
        for lvl in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Timing] {
            assert_eq!(lvl.counting(), lvl != ObsLevel::Off);
            assert_eq!(lvl.timing(), lvl == ObsLevel::Timing);
            assert!(!lvl.name().is_empty());
        }
    }

    #[test]
    fn op_stats_selectivity_and_absorb() {
        let mut a = OpStats {
            invocations: 2,
            deltas_in: 10,
            deltas_out: 4,
            batch_nanos: 100,
            purges: 1,
            purge_nanos: 7,
        };
        assert!((a.selectivity() - 0.4).abs() < 1e-9);
        assert_eq!(OpStats::default().selectivity(), 0.0);
        assert!(OpStats::default().is_zero());
        let b = a;
        a.absorb(&b);
        assert_eq!(a.invocations, 4);
        assert_eq!(a.deltas_in, 20);
        assert_eq!(a.purge_nanos, 14);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1_000_000);
        // p100 caps at the exact max, not the bucket bound.
        assert_eq!(h.percentile(1.0), 1_000_000);
        // The median of 7 samples is the 4th (value 3, bucket [2,4)).
        assert_eq!(h.percentile(0.5), 3);
        assert!(h.mean() > 0);
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 1_000_000);
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn jsonl_sink_records_events() {
        let sink = JsonlTraceSink::new();
        let mut installed = sink.clone();
        installed.event(&TraceEvent::EpochOpen {
            epoch: 1,
            now: 5,
            input_deltas: 3,
        });
        installed.event(&TraceEvent::Purge {
            watermark: 6,
            reclaim_all: true,
            ops: 2,
            nanos: 0,
        });
        assert_eq!(sink.len(), 2);
        let lines = sink.lines();
        assert!(lines[0].contains("\"event\":\"epoch_open\""));
        assert!(lines[1].contains("\"reclaim_all\":true"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert_eq!(sink.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn every_event_kind_encodes_as_json() {
        let events = [
            TraceEvent::EpochOpen {
                epoch: 1,
                now: 0,
                input_deltas: 1,
            },
            TraceEvent::EpochClose { epoch: 1, nanos: 9 },
            TraceEvent::LevelDispatch {
                epoch: 1,
                level: 0,
                width: 2,
            },
            TraceEvent::Purge {
                watermark: 10,
                reclaim_all: false,
                ops: 1,
                nanos: 0,
            },
            TraceEvent::Register {
                query: 0,
                root: 2,
                nodes: 3,
            },
            TraceEvent::Deregister {
                query: 0,
                retired: 3,
            },
        ];
        for ev in events {
            let json = ev.to_json();
            assert!(
                json.contains(&format!("\"event\":\"{}\"", ev.kind())),
                "{json}"
            );
        }
    }

    #[test]
    fn snapshot_serialises_to_jsonl_and_csv() {
        let snap = MetricsSnapshot {
            level: ObsLevel::Timing,
            exec: ExecStats {
                epochs: 3,
                input_deltas: 12,
                ..Default::default()
            },
            state_entries: 7,
            operators: vec![OperatorSnapshot {
                node: 0,
                name: "WSCAN[T=10,β=2]".to_string(),
                level: 0,
                stats: OpStats {
                    invocations: 3,
                    deltas_in: 12,
                    deltas_out: 12,
                    ..Default::default()
                },
                state_entries: 7,
                frontier: Some(FrontierStats {
                    nodes_settled: 2,
                    nodes_improved: 5,
                    heap_pushes: 9,
                    edges_scanned: 14,
                }),
            }],
            queries: vec![QuerySnapshot {
                query: 0,
                results: 4,
                deleted: 0,
                log_retained: 3,
                log_released: 1,
                latency: HistogramSummary::default(),
                emissions: HistogramSummary::default(),
            }],
        };
        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(
            jsonl.lines().next(),
            Some(
                "{\"record\":\"exec\",\"obs\":\"timing\",\"epochs\":3,\"input_deltas\":12,\
                 \"operator_invocations\":0,\"deltas_dispatched\":0,\"deltas_emitted\":0,\
                 \"fanout_deliveries\":0,\"levels_run\":0,\"state_entries\":7}"
            )
        );
        assert!(jsonl.contains("\"record\":\"operator\""));
        assert!(jsonl.contains("\"record\":\"query\""));
        assert!(jsonl.contains("\"log_retained\":3,\"log_released\":1"));
        let csv = snap.to_csv();
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 4, "operator table + query table");
        assert!(rows[0].starts_with("node,name,"));
        assert_eq!(rows[2], MetricsSnapshot::query_csv_header());
        assert_eq!(rows[3], "0,4,0,3,1");
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(fmt_nanos(842), "842ns");
        assert_eq!(fmt_nanos(13_400), "13.4µs");
        assert_eq!(fmt_nanos(2_100_000), "2.1ms");
        assert_eq!(fmt_nanos(1_700_000_000), "1.70s");
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
    }
}
