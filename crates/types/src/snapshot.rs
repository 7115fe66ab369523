//! Snapshot graphs (Def. 12): the materialized path graph valid at a time
//! instant `t`.
//!
//! A snapshot collects the distinguished attributes of all sgts whose
//! validity interval contains `t`, with set semantics (value-equivalent
//! duplicates collapse). Snapshots are the bridge between streaming and
//! one-time semantics: *snapshot reducibility* (Def. 14) states that the
//! snapshot of a streaming query's result equals the one-time query run on
//! the input's snapshot. The oracle evaluator in `sgq-query` runs on this
//! type, and the integration tests use it to validate every operator.

use crate::edge::Edge;
use crate::hash::{FxHashMap, FxHashSet};
use crate::ids::{Label, VertexId};
use crate::path::PathSeq;
use crate::props::{PropMap, SharedProps};
use crate::sgt::{Payload, Sgt};
use crate::time::Timestamp;

/// A materialized path graph at one time instant: edge set `E_t`, path set
/// `P_t`, and per-label adjacency indexes.
#[derive(Debug, Default, Clone)]
pub struct SnapshotGraph {
    /// Deduplicated edges (including derived edges), by `(src, trg, label)`.
    edges: FxHashSet<Edge>,
    /// Materialized paths present in the snapshot, keyed by distinguished
    /// attributes (set semantics keeps one representative payload).
    paths: FxHashMap<(VertexId, VertexId, Label), PathSeq>,
    /// Outgoing adjacency: `(src, label) -> targets`.
    out: FxHashMap<(VertexId, Label), Vec<VertexId>>,
    /// Incoming adjacency: `(trg, label) -> sources`.
    inc: FxHashMap<(VertexId, Label), Vec<VertexId>>,
    /// All edges/paths grouped by label (the logical partitioning, Def. 9).
    by_label: FxHashMap<Label, Vec<(VertexId, VertexId)>>,
    /// Vertices adjacent to at least one edge or path.
    vertices: FxHashSet<VertexId>,
    /// Properties of input edges that carried any (the §8 property-graph
    /// extension); keyed by distinguished attributes.
    props: FxHashMap<(VertexId, VertexId, Label), SharedProps>,
}

impl SnapshotGraph {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the snapshot `τ_t(S)` of a tuple collection at instant `t`,
    /// keeping exactly the tuples whose interval contains `t`.
    pub fn at_time<'a, I: IntoIterator<Item = &'a Sgt>>(t: Timestamp, tuples: I) -> Self {
        let mut g = Self::new();
        for sgt in tuples {
            if sgt.interval.contains(t) {
                g.add_sgt(sgt);
            }
        }
        g
    }

    /// Adds the distinguished content of `sgt` (edge or path) to the
    /// snapshot, deduplicating value-equivalent entries.
    pub fn add_sgt(&mut self, sgt: &Sgt) {
        match &sgt.payload {
            Payload::Path(p) => self.add_path(sgt.src, sgt.trg, sgt.label, p.clone()),
            Payload::Edge(_) => self.add_edge(Edge::new(sgt.src, sgt.trg, sgt.label)),
        }
        if let Some(props) = &sgt.props {
            self.props
                .insert((sgt.src, sgt.trg, sgt.label), props.clone());
        }
    }

    /// Adds an edge (idempotent).
    pub fn add_edge(&mut self, e: Edge) {
        if !self.edges.insert(e) {
            return;
        }
        self.index(e.src, e.trg, e.label);
    }

    /// Adds a materialized path between `src` and `trg` with label `label`
    /// (idempotent on the distinguished attributes).
    pub fn add_path(&mut self, src: VertexId, trg: VertexId, label: Label, p: PathSeq) {
        if self.paths.insert((src, trg, label), p).is_some() {
            return;
        }
        self.index(src, trg, label);
    }

    fn index(&mut self, src: VertexId, trg: VertexId, label: Label) {
        self.out.entry((src, label)).or_default().push(trg);
        self.inc.entry((trg, label)).or_default().push(src);
        self.by_label.entry(label).or_default().push((src, trg));
        self.vertices.insert(src);
        self.vertices.insert(trg);
    }

    /// Targets reachable from `v` over a single `label` edge/path.
    pub fn out(&self, v: VertexId, label: Label) -> &[VertexId] {
        self.out.get(&(v, label)).map_or(&[], Vec::as_slice)
    }

    /// Sources with a single `label` edge/path into `v`.
    pub fn inc(&self, v: VertexId, label: Label) -> &[VertexId] {
        self.inc.get(&(v, label)).map_or(&[], Vec::as_slice)
    }

    /// All `(src, trg)` pairs carrying `label` (edges and paths).
    pub fn pairs(&self, label: Label) -> &[(VertexId, VertexId)] {
        self.by_label.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Whether the snapshot holds an edge or path `(src, trg, label)`.
    pub fn contains(&self, src: VertexId, trg: VertexId, label: Label) -> bool {
        self.edges.contains(&Edge::new(src, trg, label))
            || self.paths.contains_key(&(src, trg, label))
    }

    /// The materialized path stored for `(src, trg, label)`, if any.
    pub fn path(&self, src: VertexId, trg: VertexId, label: Label) -> Option<&PathSeq> {
        self.paths.get(&(src, trg, label))
    }

    /// The properties stored for input edge `(src, trg, label)`, if any.
    pub fn props_of(&self, src: VertexId, trg: VertexId, label: Label) -> Option<&PropMap> {
        self.props.get(&(src, trg, label)).map(|p| p.as_ref())
    }

    /// Edge set `E_t` (derived edges included).
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Path set `P_t` as `((src, trg, label), path)` entries.
    pub fn paths(&self) -> impl Iterator<Item = (&(VertexId, VertexId, Label), &PathSeq)> {
        self.paths.iter()
    }

    /// Vertex set `V_t` (endpoints of edges and paths).
    pub fn vertices(&self) -> impl Iterator<Item = &VertexId> {
        self.vertices.iter()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Interval;

    fn sgt(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(
            VertexId(src),
            VertexId(trg),
            Label(l),
            Interval::new(ts, exp),
        )
    }

    #[test]
    fn snapshot_filters_by_validity() {
        // Figure 3/4 of the paper: the 24h-window stream snapshot at t=25
        // contains the first five tuples only.
        let tuples = vec![
            sgt(0, 1, 0, 7, 31),  // u -follows-> v
            sgt(1, 2, 1, 10, 34), // v -posts-> b
            sgt(3, 0, 0, 13, 37), // y -follows-> u
            sgt(1, 4, 1, 17, 41), // v -posts-> c
            sgt(0, 5, 1, 22, 46), // u -posts-> a
            sgt(3, 5, 2, 28, 52), // y -likes-> a (not yet valid at 25)
            sgt(0, 2, 2, 29, 53), // u -likes-> b
            sgt(0, 4, 2, 30, 54), // u -likes-> c
        ];
        let g = SnapshotGraph::at_time(25, &tuples);
        assert_eq!(g.edge_count(), 5);
        assert!(g.contains(VertexId(0), VertexId(1), Label(0)));
        assert!(!g.contains(VertexId(3), VertexId(5), Label(2)));
        let g30 = SnapshotGraph::at_time(30, &tuples);
        assert_eq!(g30.edge_count(), 8);
    }

    #[test]
    fn set_semantics_deduplicates() {
        let a = sgt(1, 2, 0, 0, 10);
        let b = sgt(1, 2, 0, 3, 8);
        let g = SnapshotGraph::at_time(5, [&a, &b]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out(VertexId(1), Label(0)), &[VertexId(2)]);
    }

    #[test]
    fn adjacency_indexes() {
        let tuples = vec![
            sgt(1, 2, 0, 0, 10),
            sgt(1, 3, 0, 0, 10),
            sgt(4, 2, 1, 0, 10),
        ];
        let g = SnapshotGraph::at_time(1, &tuples);
        let mut outs = g.out(VertexId(1), Label(0)).to_vec();
        outs.sort();
        assert_eq!(outs, vec![VertexId(2), VertexId(3)]);
        assert_eq!(g.inc(VertexId(2), Label(1)), &[VertexId(4)]);
        assert_eq!(g.pairs(Label(1)), &[(VertexId(4), VertexId(2))]);
        assert_eq!(g.vertex_count(), 4);
    }

    #[test]
    fn paths_are_first_class() {
        let p = PathSeq::new(vec![
            Edge::new(VertexId(1), VertexId(2), Label(0)),
            Edge::new(VertexId(2), VertexId(3), Label(0)),
        ]);
        let s = Sgt::with_payload(
            VertexId(1),
            VertexId(3),
            Label(7),
            Interval::new(0, 10),
            Payload::Path(p.clone()),
        );
        let g = SnapshotGraph::at_time(5, [&s]);
        assert_eq!(g.edge_count(), 0);
        assert!(g.contains(VertexId(1), VertexId(3), Label(7)));
        assert_eq!(g.path(VertexId(1), VertexId(3), Label(7)), Some(&p));
        // Paths participate in adjacency like edges (Def. 6: stitching).
        assert_eq!(g.out(VertexId(1), Label(7)), &[VertexId(3)]);
    }
}
