//! Run metrics matching the paper's measurements (§7.1.1): aggregate
//! throughput (edges/s) and the tail latency of each window slide — plus
//! executor dispatch counters for the epoch-batched delivery loop.

use std::time::Duration;

/// Dispatch-amortisation counters collected by the epoch-batched executor
/// (`sgq_core::dataflow::Dataflow`). Wall clock tells you batching is
/// faster; these tell you *why*: how many operator invocations and edge
/// deliveries a given number of input deltas cost.
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
    /// Deterministic: identical across worker and shard counts.
    pub levels_run: u64,
    /// Widest level executed, in ready nodes. Deterministic across worker
    /// and shard counts.
    pub max_level_width: usize,
    /// Epochs executed through the label-sharded path (shard-subgraph
    /// jobs plus the scheduler-thread merge replay). Depends on
    /// `EngineOptions::shards` — **not** part of the determinism contract.
    pub shard_epochs: u64,
    /// Shard-subgraph jobs run across all sharded epochs (the shard
    /// occupancy numerator). Not part of the determinism contract.
    pub shard_subgraph_runs: u64,
    /// Batch deliveries that crossed a shard boundary — i.e. arrived at an
    /// explicit merge point during the scheduler-thread replay. A subset
    /// of `fanout_deliveries`; varies with the shard count, so not part of
    /// the determinism contract.
    pub cross_shard_deliveries: u64,
    /// Wall-clock nanoseconds spent running shard-subgraph jobs (phase 1
    /// of a sharded epoch, before the merge replay). Timing, never
    /// deterministic.
    pub shard_nanos: u64,
    /// Direct-approach operator reclamations dispatched onto the worker
    /// pool by the parallel purge. Depends on `EngineOptions::workers`,
    /// so not part of the determinism contract.
    pub parallel_purge_ops: u64,
    /// Label → shard reassignments adopted by the adaptive rebalancer
    /// (`EngineOptions::adaptive`). A scheduling decision only — results
    /// are invariant under any assignment — so not part of the
    /// determinism contract.
    pub rebalances: u64,
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

    /// Mean shard-subgraph jobs per sharded epoch — the inter-shard
    /// parallelism the label partition actually exposed.
    pub fn mean_shard_width(&self) -> f64 {
        if self.shard_epochs == 0 {
            return 0.0;
        }
        self.shard_subgraph_runs as f64 / self.shard_epochs as f64
    }

    /// Fraction of the configured shard slots a sharded epoch kept busy on
    /// average (`mean_shard_width / shards`, capped at 1.0).
    pub fn shard_occupancy(&self, shards: usize) -> f64 {
        if shards == 0 {
            return 0.0;
        }
        (self.mean_shard_width() / shards as f64).min(1.0)
    }

    /// The counters guaranteed identical across worker **and shard** counts
    /// for the same input — what the sharding- and purge-determinism tests
    /// compare. Excludes the dispatch-shape counters (`shard_*`,
    /// `cross_shard_deliveries`, `parallel_purge_ops`, `rebalances`) and
    /// wall-clock timings, which legitimately vary with
    /// `EngineOptions::workers` / `EngineOptions::shards` /
    /// `EngineOptions::adaptive`.
    pub fn determinism_fingerprint(&self) -> [u64; 9] {
        [
            self.epochs,
            self.input_deltas,
            self.operator_invocations,
            self.deltas_dispatched,
            self.deltas_emitted,
            self.fanout_deliveries,
            self.max_epoch_input as u64,
            self.levels_run,
            self.max_level_width as u64,
        ]
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
    fn shard_ratios_and_fingerprint() {
        let s = ExecStats {
            epochs: 6,
            shard_epochs: 4,
            shard_subgraph_runs: 10,
            cross_shard_deliveries: 7,
            shard_nanos: 500,
            parallel_purge_ops: 3,
            rebalances: 2,
            ..Default::default()
        };
        assert!((s.mean_shard_width() - 2.5).abs() < 1e-9);
        assert!((s.shard_occupancy(4) - 0.625).abs() < 1e-9);
        assert_eq!(s.shard_occupancy(0), 0.0);
        assert_eq!(ExecStats::default().mean_shard_width(), 0.0);
        // Shard shape, purge dispatch, and timings are excluded from the
        // fingerprint: runs differing only in shard count fingerprint
        // identically.
        let mut t = s;
        t.shard_epochs = 0;
        t.shard_subgraph_runs = 0;
        t.cross_shard_deliveries = 0;
        t.shard_nanos = 0;
        t.parallel_purge_ops = 0;
        t.rebalances = 0;
        assert_eq!(s.determinism_fingerprint(), t.determinism_fingerprint());
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
