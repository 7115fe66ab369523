//! Deltas and delta batches: the units of exchange between physical
//! operators.
//!
//! A [`Delta`] is one change to a streaming graph — the insertion of an
//! [`Sgt`] or a negative tuple retracting one (§6.2.5). Operators are
//! push-based and non-blocking, but nothing in the paper's design requires
//! delivering one sgt at a time: a [`DeltaBatch`] carries a contiguous run
//! of deltas through the dataflow so per-tuple dispatch (virtual calls,
//! queue traffic, per-successor clones) is amortised over an *epoch*.
//!
//! Fan-out uses [`SharedDeltaBatch`] (`Arc<DeltaBatch>`): a node with N
//! successors publishes its output batch once and every successor's inbox
//! holds a reference, so sgts — including deep materialized-path payloads —
//! are never deep-cloned per successor.

use crate::sgt::Sgt;
use std::sync::Arc;

/// A change to a streaming graph flowing between operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// A new (or extended-validity) sgt.
    Insert(Sgt),
    /// A negative tuple: an explicit deletion of a previously inserted sgt
    /// (§6.2.5). Window expirations never appear as deltas.
    Delete(Sgt),
}

impl Delta {
    /// The payload sgt.
    pub fn sgt(&self) -> &Sgt {
        match self {
            Delta::Insert(s) | Delta::Delete(s) => s,
        }
    }

    /// Whether this is a deletion.
    pub fn is_delete(&self) -> bool {
        matches!(self, Delta::Delete(_))
    }
}

/// A contiguous, arrival-ordered run of [`Delta`]s — one epoch's worth of
/// traffic on a dataflow edge.
///
/// The batch is plain ordered storage: operators must observe deltas in
/// order (insert-then-delete runs are meaningful), so the partitioning
/// helpers ([`DeltaBatch::inserts`] / [`DeltaBatch::deletes`] /
/// [`DeltaBatch::is_insert_only`]) are non-destructive views.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// An empty batch with room for `n` deltas.
    pub fn with_capacity(n: usize) -> DeltaBatch {
        DeltaBatch {
            deltas: Vec::with_capacity(n),
        }
    }

    /// A batch holding a single delta.
    pub fn single(delta: Delta) -> DeltaBatch {
        DeltaBatch {
            deltas: vec![delta],
        }
    }

    /// Number of deltas in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch holds no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Appends one delta.
    pub fn push(&mut self, delta: Delta) {
        self.deltas.push(delta);
    }

    /// Removes all deltas, keeping the allocation.
    pub fn clear(&mut self) {
        self.deltas.clear();
    }

    /// The deltas in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Delta> {
        self.deltas.iter()
    }

    /// The deltas as a slice.
    pub fn as_slice(&self) -> &[Delta] {
        &self.deltas
    }

    /// Mutable access to the underlying vector (for operator code that
    /// appends to a `Vec<Delta>`).
    pub fn as_mut_vec(&mut self) -> &mut Vec<Delta> {
        &mut self.deltas
    }

    /// The insertions of the batch, in order (partitioning view).
    pub fn inserts(&self) -> impl Iterator<Item = &Sgt> {
        self.deltas.iter().filter_map(|d| match d {
            Delta::Insert(s) => Some(s),
            Delta::Delete(_) => None,
        })
    }

    /// The negative tuples of the batch, in order (partitioning view).
    pub fn deletes(&self) -> impl Iterator<Item = &Sgt> {
        self.deltas.iter().filter_map(|d| match d {
            Delta::Delete(s) => Some(s),
            Delta::Insert(_) => None,
        })
    }

    /// Whether the batch carries no negative tuples (append-only epochs
    /// let operators skip per-delta kind dispatch).
    pub fn is_insert_only(&self) -> bool {
        !self.deltas.iter().any(Delta::is_delete)
    }

    /// Wraps the batch for zero-copy fan-out to many successors.
    pub fn into_shared(self) -> SharedDeltaBatch {
        Arc::new(self)
    }
}

impl From<Vec<Delta>> for DeltaBatch {
    fn from(deltas: Vec<Delta>) -> DeltaBatch {
        DeltaBatch { deltas }
    }
}

impl FromIterator<Delta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = Delta>>(iter: I) -> DeltaBatch {
        DeltaBatch {
            deltas: iter.into_iter().collect(),
        }
    }
}

impl Extend<Delta> for DeltaBatch {
    fn extend<I: IntoIterator<Item = Delta>>(&mut self, iter: I) {
        self.deltas.extend(iter);
    }
}

impl IntoIterator for DeltaBatch {
    type Item = Delta;
    type IntoIter = std::vec::IntoIter<Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.into_iter()
    }
}

impl<'a> IntoIterator for &'a DeltaBatch {
    type Item = &'a Delta;
    type IntoIter = std::slice::Iter<'a, Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.iter()
    }
}

/// A reference-counted batch: what flows on dataflow edges, so N-way
/// fan-out clones a pointer, not the sgts.
pub type SharedDeltaBatch = Arc<DeltaBatch>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Label, VertexId};
    use crate::time::Interval;

    fn sgt(src: u64, trg: u64, ts: u64) -> Sgt {
        Sgt::edge(
            VertexId(src),
            VertexId(trg),
            Label(0),
            Interval::instant(ts),
        )
    }

    #[test]
    fn partitioning_views_preserve_order() {
        let mut b = DeltaBatch::new();
        b.push(Delta::Insert(sgt(1, 2, 0)));
        b.push(Delta::Delete(sgt(1, 2, 0)));
        b.push(Delta::Insert(sgt(3, 4, 1)));
        assert_eq!(b.len(), 3);
        assert!(!b.is_insert_only());
        let ins: Vec<u64> = b.inserts().map(|s| s.src.0).collect();
        assert_eq!(ins, vec![1, 3]);
        let del: Vec<u64> = b.deletes().map(|s| s.src.0).collect();
        assert_eq!(del, vec![1]);
    }

    #[test]
    fn insert_only_detection() {
        let b: DeltaBatch = [Delta::Insert(sgt(1, 2, 0)), Delta::Insert(sgt(2, 3, 1))]
            .into_iter()
            .collect();
        assert!(b.is_insert_only());
    }

    #[test]
    fn shared_fanout_is_pointer_cloning() {
        let b = DeltaBatch::single(Delta::Insert(sgt(1, 2, 0))).into_shared();
        let c = b.clone();
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(c.len(), 1);
    }
}
