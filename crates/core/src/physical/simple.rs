//! Stateless physical operators: WSCAN, FILTER, UNION (§6.2.1).
//!
//! "The standard dataflow implementations of stateless FILTER and UNION
//! operators can be directly used in SGA, and WSCAN can be implemented via
//! the standard map operator that adjusts the validity intervals of sgts
//! based on window specifications."

use super::{Delta, DeltaBatch, PhysicalOp};
use crate::algebra::FilterPred;
use sgq_types::{time::window_interval, Edge, Label, Payload, Sgt, Timestamp};

// Send audit: the stateless operators carry only window geometry,
// predicate lists, and an output label.
const _: () = super::assert_send::<WScanOp>();
const _: () = super::assert_send::<FilterOp>();
const _: () = super::assert_send::<UnionOp>();

/// WSCAN `W_{T,β}` (Def. 16): assigns `[t, ⌊t/β⌋·β + T)` to each incoming
/// tuple, where `t` is the tuple's event timestamp (`interval.ts`).
pub struct WScanOp {
    window: u64,
    slide: u64,
}

impl WScanOp {
    /// Creates a WSCAN with window size `window` and slide `slide`.
    pub fn new(window: u64, slide: u64) -> Self {
        WScanOp { window, slide }
    }
}

impl WScanOp {
    fn map(&self, delta: &Delta) -> Option<Delta> {
        let map = |s: &Sgt| {
            let mut s = s.clone();
            s.interval = window_interval(s.interval.ts, self.window, self.slide);
            s
        };
        let mapped = match delta {
            Delta::Insert(s) => Delta::Insert(map(s)),
            Delta::Delete(s) => Delta::Delete(map(s)),
        };
        // With β > T a tuple arriving in the tail of a slide period gets an
        // empty validity interval (it "missed" the window, Def. 16): drop.
        (!mapped.sgt().interval.is_empty()).then_some(mapped)
    }
}

impl PhysicalOp for WScanOp {
    fn name(&self) -> String {
        format!("WSCAN[T={},β={}]", self.window, self.slide)
    }

    fn on_batch(
        &mut self,
        _port: usize,
        batch: &DeltaBatch,
        _now: Timestamp,
        out: &mut DeltaBatch,
    ) {
        // Map straight off the borrowed batch: one sgt clone per output,
        // none for tail-dropped tuples.
        for d in batch.iter() {
            out.extend(self.map(d));
        }
    }
}

/// FILTER `σ_Φ` (Def. 17): forwards tuples whose distinguished attributes
/// satisfy every predicate of the conjunction.
pub struct FilterOp {
    preds: Vec<FilterPred>,
}

impl FilterOp {
    /// Creates a filter over a conjunction of predicates.
    pub fn new(preds: Vec<FilterPred>) -> Self {
        FilterOp { preds }
    }
}

impl PhysicalOp for FilterOp {
    fn name(&self) -> String {
        format!("FILTER[{:?}]", self.preds)
    }

    fn on_batch(
        &mut self,
        _port: usize,
        batch: &DeltaBatch,
        _now: Timestamp,
        out: &mut DeltaBatch,
    ) {
        // Clone only the survivors.
        for d in batch.iter() {
            if self.preds.iter().all(|p| p.eval(d.sgt())) {
                out.push(d.clone());
            }
        }
    }
}

/// UNION `∪_[d]` (Def. 18): merges its input streams, assigning the output
/// label `d`. Edge payloads are relabelled to the derived edge; path
/// payloads keep their constituent edges (only the distinguished label of
/// the tuple changes).
pub struct UnionOp {
    label: Label,
}

impl UnionOp {
    /// Creates a union/relabel operator with output label `label`.
    pub fn new(label: Label) -> Self {
        UnionOp { label }
    }
}

impl UnionOp {
    fn map(&self, delta: &Delta) -> Delta {
        let map = |s: &Sgt| {
            let payload = match &s.payload {
                Payload::Edge(_) => Payload::Edge(Edge::new(s.src, s.trg, self.label)),
                p @ Payload::Path(_) => p.clone(),
            };
            Sgt::with_payload(s.src, s.trg, self.label, s.interval, payload)
        };
        match delta {
            Delta::Insert(s) => Delta::Insert(map(s)),
            Delta::Delete(s) => Delta::Delete(map(s)),
        }
    }
}

impl PhysicalOp for UnionOp {
    fn name(&self) -> String {
        format!("UNION[{:?}]", self.label)
    }

    fn on_batch(
        &mut self,
        _port: usize,
        batch: &DeltaBatch,
        _now: Timestamp,
        out: &mut DeltaBatch,
    ) {
        for d in batch.iter() {
            out.push(self.map(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::push_one;
    use super::*;
    use sgq_types::{Interval, VertexId};

    fn sgt(src: u64, trg: u64, l: u32, t: u64) -> Sgt {
        Sgt::edge(VertexId(src), VertexId(trg), Label(l), Interval::instant(t))
    }

    #[test]
    fn wscan_assigns_window_interval() {
        // Figure 3: a 24h window maps t=7 to [7, 31).
        let mut op = WScanOp::new(24, 1);
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(0, 1, 0, 7)), 7, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sgt().interval, Interval::new(7, 31));
    }

    #[test]
    fn wscan_slide_alignment() {
        let mut op = WScanOp::new(30, 10);
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(0, 1, 0, 17)), 17, &mut out);
        assert_eq!(out[0].sgt().interval, Interval::new(17, 40));
    }

    #[test]
    fn wscan_maps_deletes_too() {
        let mut op = WScanOp::new(24, 1);
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Delete(sgt(0, 1, 0, 7)), 9, &mut out);
        assert!(out[0].is_delete());
        assert_eq!(out[0].sgt().interval, Interval::new(7, 31));
    }

    #[test]
    fn filter_drops_non_matching() {
        let mut op = FilterOp::new(vec![FilterPred::SrcEqTrg]);
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 0)), 0, &mut out);
        assert!(out.is_empty());
        push_one(&mut op, 0, Delta::Insert(sgt(3, 3, 0, 0)), 0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn union_relabels_edges() {
        let mut op = UnionOp::new(Label(9));
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(sgt(1, 2, 0, 5)), 5, &mut out);
        let s = out[0].sgt();
        assert_eq!(s.label, Label(9));
        match &s.payload {
            Payload::Edge(e) => assert_eq!(e.label, Label(9)),
            other => panic!("expected edge payload, got {other:?}"),
        }
    }

    #[test]
    fn union_keeps_path_payloads() {
        use sgq_types::PathSeq;
        let p = PathSeq::single(Edge::new(VertexId(1), VertexId(2), Label(0)));
        let s = Sgt::with_payload(
            VertexId(1),
            VertexId(2),
            Label(3),
            Interval::new(0, 5),
            Payload::Path(p.clone()),
        );
        let mut op = UnionOp::new(Label(9));
        let mut out = Vec::new();
        push_one(&mut op, 0, Delta::Insert(s), 0, &mut out);
        assert_eq!(out[0].sgt().label, Label(9));
        assert_eq!(out[0].sgt().payload, Payload::Path(p));
    }
}
