//! Materialized paths — paths as first-class citizens (Def. 2 / Def. 6).
//!
//! A path `p : u → v` is a sequence of edges `⟨e₁ … eₙ⟩` with
//! `trg(eᵢ) = src(eᵢ₊₁)`. The materialized path graph model (Def. 6) makes
//! paths elements of the data model so queries can *return and manipulate*
//! them (requirement R3). [`PathSeq`] is reference-counted so that copying
//! sgts through the dataflow does not copy the edge sequence.

use crate::edge::Edge;
use crate::ids::{Label, VertexId};
use std::fmt;
use std::sync::Arc;

/// An immutable, shared, non-empty sequence of contiguous edges.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PathSeq {
    edges: Arc<[Edge]>,
}

impl PathSeq {
    /// Builds a path from a contiguous edge sequence.
    ///
    /// # Panics
    /// Panics (in debug builds) if the sequence is empty or not contiguous.
    pub fn new(edges: Vec<Edge>) -> Self {
        debug_assert!(!edges.is_empty(), "paths must contain at least one edge");
        debug_assert!(
            edges.windows(2).all(|w| w[0].trg == w[1].src),
            "path edges must be contiguous"
        );
        PathSeq {
            edges: edges.into(),
        }
    }

    /// A single-edge path.
    pub fn single(e: Edge) -> Self {
        PathSeq {
            edges: Arc::from(vec![e]),
        }
    }

    /// Concatenates two paths. The second must start where the first ends.
    pub fn concat(&self, other: &PathSeq) -> Self {
        debug_assert_eq!(self.dst(), other.src(), "paths must be contiguous");
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.edges);
        v.extend_from_slice(&other.edges);
        PathSeq { edges: v.into() }
    }

    /// Extends the path by one edge at the end.
    pub fn push(&self, e: Edge) -> Self {
        debug_assert_eq!(self.dst(), e.src, "appended edge must be contiguous");
        let mut v = Vec::with_capacity(self.len() + 1);
        v.extend_from_slice(&self.edges);
        v.push(e);
        PathSeq { edges: v.into() }
    }

    /// The path's source vertex (`src` of the first edge).
    #[inline]
    pub fn src(&self) -> VertexId {
        self.edges[0].src
    }

    /// The path's destination vertex (`trg` of the last edge).
    #[inline]
    pub fn dst(&self) -> VertexId {
        self.edges[self.edges.len() - 1].trg
    }

    /// Number of edges (path length, ≥ 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Paths are never empty; present for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The label sequence `φ_p(p) = φ(e₁)···φ(eₙ)` (Def. 2).
    pub fn label_sequence(&self) -> Vec<Label> {
        self.edges.iter().map(|e| e.label).collect()
    }

    /// The sequence of visited vertices (`n+1` entries for `n` edges).
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut v = Vec::with_capacity(self.len() + 1);
        v.push(self.src());
        v.extend(self.edges.iter().map(|e| e.trg));
        v
    }
}

impl fmt::Debug for PathSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e:?}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u64, t: u64, l: u32) -> Edge {
        Edge::new(VertexId(s), VertexId(t), Label(l))
    }

    #[test]
    fn single_edge_path() {
        let p = PathSeq::single(e(1, 2, 0));
        assert_eq!(p.src(), VertexId(1));
        assert_eq!(p.dst(), VertexId(2));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn concat_and_push() {
        let p = PathSeq::single(e(1, 2, 0)).push(e(2, 3, 1));
        let q = PathSeq::single(e(3, 4, 0));
        let r = p.concat(&q);
        assert_eq!(r.len(), 3);
        assert_eq!(r.src(), VertexId(1));
        assert_eq!(r.dst(), VertexId(4));
        assert_eq!(
            r.vertices(),
            vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)]
        );
    }

    #[test]
    fn label_sequence_concatenates_edge_labels() {
        let p = PathSeq::new(vec![e(1, 2, 5), e(2, 3, 7)]);
        assert_eq!(p.label_sequence(), vec![Label(5), Label(7)]);
    }

    /// The contiguity check is a `debug_assert!`: release builds have no
    /// check to test.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn non_contiguous_paths_rejected_in_debug() {
        let _ = PathSeq::new(vec![e(1, 2, 0), e(9, 3, 0)]);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let p = PathSeq::new(vec![e(1, 2, 0), e(2, 3, 0)]);
        let q = p.clone();
        assert_eq!(p, q);
        assert!(Arc::ptr_eq(&p.edges, &q.edges));
    }

    #[test]
    fn cyclic_paths_allowed_under_arbitrary_semantics() {
        // Arbitrary path semantics (§5.1): a path may revisit vertices.
        let p = PathSeq::new(vec![e(1, 2, 0), e(2, 1, 0), e(1, 2, 0)]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.src(), VertexId(1));
        assert_eq!(p.dst(), VertexId(2));
    }
}
