//! Physical operator algebra (§6.2): push-based, non-blocking operators.
//!
//! Operators exchange [`Delta`]s — insertions of sgts and (for explicit
//! deletions, §6.2.5) negative tuples. Window expirations are **not**
//! propagated as deltas: every operator follows the *direct approach*,
//! skipping expired state by validity-interval intersection and physically
//! reclaiming it in [`PhysicalOp::purge`], which the engine calls at slide
//! boundaries. This is the core design point of §6.2.4 (S-PATH) applied
//! uniformly: expirations have a temporal order, so no re-derivation work
//! is needed for them.

pub mod adjacency;
pub mod forest;
pub mod negpath;
pub mod pattern;
pub mod rederive;
pub(crate) mod row_index;
pub mod simple;
pub mod spath;
pub mod wcoj;

use sgq_types::Timestamp;

pub use pattern::{table_bytes, PatternCensus};
pub use sgq_types::{Delta, DeltaBatch, SharedDeltaBatch};

/// A push-based physical operator.
///
/// [`PhysicalOp::on_batch`] is how data enters an operator, S-PATH and
/// a PATTERN with leaves in edge stores excepted (see
/// [`PhysicalOp::as_spath_mut`] and [`PhysicalOp::as_pattern_mut`]). The executor accumulates
/// each node's input deltas into per-port [`DeltaBatch`]es and calls it
/// once per delivered batch; a single arriving tuple is a batch of one
/// and runs the same code. `on_batch`
/// must be non-blocking: it processes the input batch and appends any
/// output deltas to `out`. `now` is the event-time watermark the epoch
/// opened at (the timestamp of its first driving sge); operators may use
/// it to skip expired state. Engines chunk epochs at slide boundaries, so
/// within one batch no grid-aligned validity interval changes its
/// expired-ness.
///
/// Operators are **`Send`** so that a whole engine — its dataflow and
/// every operator's state — can move to the thread that runs it (the
/// `sgq-serve` engine thread). Operators are only ever called from that
/// one thread, so `Sync` is not required.
pub trait PhysicalOp: Send {
    /// Operator name for plan display and metrics.
    fn name(&self) -> String;

    /// Processes a batch of deltas arriving on `port`, in arrival order.
    fn on_batch(&mut self, port: usize, batch: &DeltaBatch, now: Timestamp, out: &mut DeltaBatch);

    /// Physically reclaims state expired at `watermark` (direct approach).
    ///
    /// Operators that must *react* to window movement — the negative-tuple
    /// PATH re-derives disconnected segments and emits their continuations
    /// — append result deltas to `out`; direct-approach operators leave it
    /// untouched.
    fn purge(&mut self, watermark: Timestamp, out: &mut Vec<Delta>) {
        let _ = (watermark, out);
    }

    /// Whether `purge` must run at **every** slide boundary for
    /// correctness. Direct-approach operators return `false`: they skip
    /// expired state by validity-interval intersection, so purging is pure
    /// (amortisable) reclamation — the paper's "background process
    /// periodically purges expired tuples". The negative-tuple PATH
    /// (§6.2.3) returns `true`: processing expirations at window movement
    /// *is* its algorithm.
    fn needs_timely_purge(&self) -> bool {
        false
    }

    /// Approximate number of state entries held (for metrics/ablations).
    fn state_size(&self) -> usize {
        0
    }

    /// Frontier traversal counters for PATH operators (nodes settled /
    /// improved, heap pushes, edges scanned). `None` for operators without
    /// a traversal frontier. These are always-on deterministic counters
    /// read at snapshot time; they never affect results.
    fn frontier_stats(&self) -> Option<crate::obs::FrontierStats> {
        None
    }

    /// Slot and index occupancy of a PATH operator's window state; `None`
    /// for every other operator. Counted by a full scan — what
    /// `tests/bounded_state.rs` holds against the window, not a metric.
    fn path_census(&self) -> Option<PathCensus> {
        None
    }

    /// The S-PATH behind this operator, if it is one. An S-PATH reads its
    /// input from the edge stores the dataflow keeps per input node
    /// ([`adjacency::EdgeStore`]), so the dataflow drives it through
    /// [`spath::SPathOp::insert_pass`] and [`spath::SPathOp::delete`]
    /// instead of [`PhysicalOp::on_batch`].
    fn as_spath_mut(&mut self) -> Option<&mut spath::SPathOp> {
        None
    }

    /// The hash-join PATTERN behind this operator, if it is one. Its leaf
    /// inputs are views of the edge stores the dataflow keeps per input
    /// node, so the dataflow drives a PATTERN that has such leaves through
    /// `PatternOp::consume` instead of [`PhysicalOp::on_batch`].
    fn as_pattern_mut(&mut self) -> Option<&mut pattern::PatternOp> {
        None
    }

    /// Row, key and dedup occupancy of a hash-join PATTERN operator's
    /// state; `None` for every other operator (the WCOJ alternative
    /// included). A full scan, like [`PhysicalOp::path_census`].
    fn pattern_census(&self) -> Option<PatternCensus> {
        None
    }
}

/// What a PATH operator holds: its Δ-PATH forest and, for the
/// negative-tuple PATH only, a private window adjacency. An S-PATH reads
/// the window from its inputs' edge stores, which the dataflow owns and
/// counts once each (`Dataflow::store_censuses`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCensus {
    /// The spanning forest.
    pub forest: forest::ForestCensus,
    /// The private window adjacency (`None` for S-PATH).
    pub adjacency: Option<adjacency::AdjacencyCensus>,
}

impl PathCensus {
    /// Heap bytes the operator itself reserves.
    pub fn reserved_bytes(&self) -> usize {
        self.forest.reserved_bytes + self.adjacency.map_or(0, |a| a.reserved_bytes)
    }
}

/// Test helper: pushes one delta through [`PhysicalOp::on_batch`] as a
/// singleton batch and appends the operator's output to `out`.
#[cfg(test)]
pub(crate) fn push_one(
    op: &mut dyn PhysicalOp,
    port: usize,
    delta: Delta,
    now: Timestamp,
    out: &mut Vec<Delta>,
) {
    let mut emitted = DeltaBatch::new();
    op.on_batch(port, &DeltaBatch::single(delta), now, &mut emitted);
    out.extend(emitted);
}
