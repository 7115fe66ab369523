//! Run metrics matching the paper's measurements (§7.1.1): aggregate
//! throughput (edges/s) and the tail latency of each window slide — plus
//! executor dispatch counters for the epoch-batched delivery loop.

use std::time::Duration;

/// Dispatch-amortisation counters collected by the epoch-batched executor
/// (`sgq_core::dataflow::Dataflow`). Wall clock tells you batching is
/// faster; these tell you *why*: how many operator invocations and edge
/// deliveries a given number of input deltas cost. Every field depends
/// only on the plans and the input (never on the observability level or a
/// trace sink), so equivalence tests compare whole values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Delivery-loop runs (one per ingested epoch, purge continuation, or
    /// singleton `process` call).
    pub epochs: u64,
    /// Input deltas seeded into source (WSCAN) inboxes.
    pub input_deltas: u64,
    /// `PhysicalOp::on_batch` calls (one per delivered batch segment).
    pub operator_invocations: u64,
    /// Total deltas handed to operators across all invocations.
    pub deltas_dispatched: u64,
    /// Total deltas emitted by operators.
    pub deltas_emitted: u64,
    /// Batch deliveries to successor inboxes (each is one `Arc` clone,
    /// whatever the batch holds).
    pub fanout_deliveries: u64,
    /// Largest single epoch seeded, in input deltas.
    pub max_epoch_input: usize,
    /// Schedule levels executed (levels with at least one ready node).
    pub levels_run: u64,
    /// Widest level executed, in ready nodes.
    pub max_level_width: usize,
}

impl ExecStats {
    /// Mean deltas handled per operator invocation — the dispatch
    /// amortisation factor (1.0 when every epoch is a single delta).
    pub fn deltas_per_invocation(&self) -> f64 {
        if self.operator_invocations == 0 {
            return 0.0;
        }
        self.deltas_dispatched as f64 / self.operator_invocations as f64
    }
}

/// Statistics collected by one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Input sges processed.
    pub edges: u64,
    /// Result sgts emitted (insertions).
    pub results: u64,
    /// Negative result tuples emitted.
    pub deletions: u64,
    /// Total processing time.
    pub elapsed: Duration,
    /// Per-slide processing latency: "the total time to process all
    /// arriving and expired sgts upon window movement and to produce new
    /// results" (§7.1.1).
    pub slide_latencies: Vec<Duration>,
    /// Largest total operator state observed (entries).
    pub peak_state: usize,
}

impl RunStats {
    /// Aggregate throughput in edges per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.edges as f64 / self.elapsed.as_secs_f64()
    }

    /// The p-th percentile (0.0–1.0) of per-slide latency.
    ///
    /// Sorts a copy of the latency log per call; callers reading several
    /// percentiles from one run (soak reports, bench rows) should take a
    /// [`RunStats::latency_profile`] once and query that instead.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        self.latency_profile().percentile(p)
    }

    /// A sorted snapshot of the per-slide latency log, for reading many
    /// percentiles without re-sorting per call. `slide_latencies` itself
    /// stays in chronological order (callers plot it over time), which is
    /// why the profile is a separate value.
    pub fn latency_profile(&self) -> LatencyProfile {
        LatencyProfile::new(&self.slide_latencies)
    }

    /// The 99th-percentile tail latency reported in the paper's tables.
    pub fn tail_latency(&self) -> Duration {
        self.latency_percentile(0.99)
    }

    /// Mean per-slide latency.
    pub fn mean_latency(&self) -> Duration {
        if self.slide_latencies.is_empty() {
            return Duration::ZERO;
        }
        self.slide_latencies.iter().sum::<Duration>() / self.slide_latencies.len() as u32
    }
}

/// A sorted-once latency distribution: amortises the sort that
/// [`RunStats::latency_percentile`] otherwise repeats per call across
/// every percentile a report reads.
#[derive(Debug, Clone, Default)]
pub struct LatencyProfile {
    sorted: Vec<Duration>,
}

impl LatencyProfile {
    /// Builds a profile from a latency log (any order).
    pub fn new(latencies: &[Duration]) -> LatencyProfile {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        LatencyProfile { sorted }
    }

    /// The p-th percentile (0.0–1.0); `Duration::ZERO` when empty. Same
    /// nearest-rank convention as [`RunStats::latency_percentile`].
    pub fn percentile(&self, p: f64) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((self.sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
        self.sorted[rank]
    }

    /// The largest recorded latency; `Duration::ZERO` when empty.
    pub fn max(&self) -> Duration {
        self.sorted.last().copied().unwrap_or(Duration::ZERO)
    }

    /// Number of recorded latencies.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no latencies were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_ratios() {
        let s = ExecStats {
            epochs: 4,
            input_deltas: 100,
            operator_invocations: 10,
            deltas_dispatched: 250,
            ..Default::default()
        };
        assert!((s.deltas_per_invocation() - 25.0).abs() < 1e-9);
        let zero = ExecStats::default();
        assert_eq!(zero.deltas_per_invocation(), 0.0);
    }

    #[test]
    fn throughput_is_edges_over_time() {
        let s = RunStats {
            edges: 1000,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.throughput() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_gives_zero_throughput() {
        assert_eq!(RunStats::default().throughput(), 0.0);
    }

    #[test]
    fn percentiles() {
        let s = RunStats {
            slide_latencies: (1..=100).map(Duration::from_millis).collect(),
            ..Default::default()
        };
        assert_eq!(s.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(s.latency_percentile(1.0), Duration::from_millis(100));
        assert_eq!(s.tail_latency(), Duration::from_millis(99));
        assert_eq!(s.mean_latency(), Duration::from_micros(50_500));
    }

    #[test]
    fn empty_latencies_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.tail_latency(), Duration::ZERO);
        assert_eq!(s.mean_latency(), Duration::ZERO);
    }

    #[test]
    fn latency_profile_matches_per_call_percentiles() {
        // Deliberately unsorted log: the profile sorts once and must agree
        // with the per-call path at every rank, while the log itself keeps
        // its chronological order.
        let s = RunStats {
            slide_latencies: (1..=100).rev().map(Duration::from_millis).collect(),
            ..Default::default()
        };
        let profile = s.latency_profile();
        for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(profile.percentile(p), s.latency_percentile(p));
        }
        assert_eq!(profile.len(), 100);
        assert_eq!(profile.max(), Duration::from_millis(100));
        assert_eq!(s.slide_latencies[0], Duration::from_millis(100));
        let empty = LatencyProfile::default();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(0.99), Duration::ZERO);
        assert_eq!(empty.max(), Duration::ZERO);
    }
}
