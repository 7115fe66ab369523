//! Helpers shared by the integration suites (a directory module, so cargo
//! does not build it as a test target of its own).

use s_graffito::prelude::*;
use s_graffito::query::{oracle, RqProgram};
use s_graffito::types::{FxHashSet, SnapshotGraph};

/// The input tuple WSCAN makes of `sge` under `window` (Def. 16).
pub fn windowed_sgt(sge: &Sge, window: WindowSpec) -> Sgt {
    Sgt::edge(sge.src, sge.trg, sge.label, window.interval_for(sge.t))
}

/// The right side of the snapshot-reducibility equation (Def. 14): the
/// one-time query evaluated over the snapshot at `t` of the windowed
/// input. The left side is the engine's `answer_at(t)`.
pub fn oracle_answer_at(
    program: &RqProgram,
    windowed: &[Sgt],
    t: u64,
) -> FxHashSet<(VertexId, VertexId)> {
    oracle::evaluate_answer(program, &SnapshotGraph::at_time(t, windowed))
}
