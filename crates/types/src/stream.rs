//! Input graph streams (Def. 4).

use crate::edge::Sge;
use crate::time::Timestamp;

/// An in-memory input graph stream: a sequence of sges ordered
/// non-decreasingly by timestamp.
///
/// Deployments consume from a socket — `sgq-serve` (crate `sgq_serve`)
/// is that host; for the engine, generators, tests and benchmarks an
/// ordered vector is the right interface — the executor pulls from any
/// `IntoIterator<Item = Sge>`.
#[derive(Debug, Default, Clone)]
pub struct InputStream {
    sges: Vec<Sge>,
}

impl InputStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a stream from a vector, verifying timestamp order.
    ///
    /// # Panics
    /// Panics if the sges are not ordered non-decreasingly by timestamp
    /// (Def. 4; out-of-order arrival is future work in the paper).
    pub fn from_ordered(sges: Vec<Sge>) -> Self {
        assert!(
            sges.windows(2).all(|w| w[0].t <= w[1].t),
            "input graph streams must be ordered by timestamp (Def. 4)"
        );
        InputStream { sges }
    }

    /// Appends an sge.
    ///
    /// # Panics
    /// Panics if `sge.t` precedes the last timestamp.
    pub fn push(&mut self, sge: Sge) {
        if let Some(last) = self.sges.last() {
            assert!(last.t <= sge.t, "streams grow in timestamp order");
        }
        self.sges.push(sge);
    }

    /// The sges in order.
    pub fn sges(&self) -> &[Sge] {
        &self.sges
    }

    /// Number of sges.
    pub fn len(&self) -> usize {
        self.sges.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.sges.is_empty()
    }

    /// Timestamp of the first sge.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.sges.first().map(|e| e.t)
    }

    /// Timestamp of the last sge.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.sges.last().map(|e| e.t)
    }
}

impl IntoIterator for InputStream {
    type Item = Sge;
    type IntoIter = std::vec::IntoIter<Sge>;
    fn into_iter(self) -> Self::IntoIter {
        self.sges.into_iter()
    }
}

impl<'a> IntoIterator for &'a InputStream {
    type Item = &'a Sge;
    type IntoIter = std::slice::Iter<'a, Sge>;
    fn into_iter(self) -> Self::IntoIter {
        self.sges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Label;

    #[test]
    fn ordered_construction_checks_order() {
        let s = InputStream::from_ordered(vec![
            Sge::raw(1, 2, Label(0), 5),
            Sge::raw(2, 3, Label(0), 5),
            Sge::raw(3, 4, Label(1), 9),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.first_ts(), Some(5));
        assert_eq!(s.last_ts(), Some(9));
    }

    #[test]
    #[should_panic]
    fn out_of_order_rejected() {
        InputStream::from_ordered(vec![
            Sge::raw(1, 2, Label(0), 5),
            Sge::raw(2, 3, Label(0), 4),
        ]);
    }
}
