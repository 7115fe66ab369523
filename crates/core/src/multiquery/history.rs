//! The raw input history a host keeps for register-time catch-up: every
//! arrival inside the retention horizon, as a ring of 32-byte [`Sge`]
//! rows, with edge properties in a side column keyed by arrival sequence
//! (a stream without properties, such as the serve path's, leaves that
//! column empty).
//!
//! A ring used as a FIFO rotates through its whole capacity, so all of it
//! is resident: a full ring grows by a quarter rather than doubling, and
//! gives capacity back once it holds less than a quarter of it.

use std::collections::VecDeque;

use sgq_types::{Sge, SharedProps, Timestamp};

/// The fewest rows a growing ring adds at once.
const MIN_GROWTH: usize = 64;

/// Input rows inside the retention horizon, oldest first.
#[derive(Default)]
pub(crate) struct History {
    rows: VecDeque<Sge>,
    /// `(arrival sequence, properties)` of the rows that carry any,
    /// ascending by sequence.
    props: VecDeque<(u64, SharedProps)>,
    /// Arrival sequence of `rows[0]`.
    first: u64,
}

impl History {
    /// Appends one arrival.
    pub(crate) fn push(&mut self, sge: Sge, props: Option<SharedProps>) {
        let len = self.rows.len();
        if len == self.rows.capacity() {
            self.rows.reserve_exact((len / 4).max(MIN_GROWTH));
        }
        if let Some(props) = props {
            self.props.push_back((self.first + len as u64, props));
        }
        self.rows.push_back(sge);
    }

    /// Drops the rows that have left the `horizon` at `now`: those with
    /// `t + horizon <= now`.
    pub(crate) fn prune(&mut self, horizon: u64, now: Timestamp) {
        let expired = (self.rows.iter())
            .take_while(|r| r.t.saturating_add(horizon) <= now)
            .count();
        if expired == 0 {
            return;
        }
        self.rows.drain(..expired);
        self.first += expired as u64;
        while self.props.front().is_some_and(|&(seq, _)| seq < self.first) {
            self.props.pop_front();
        }
        let len = self.rows.len();
        if self.rows.capacity() / 4 > len.max(MIN_GROWTH) {
            self.rows.shrink_to(len + len / 4);
        }
    }

    /// Whether no row is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every held row with its properties, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Sge, Option<SharedProps>)> + '_ {
        let mut props = self.props.iter().peekable();
        (self.rows.iter().zip(self.first..)).map(move |(&sge, seq)| {
            let p = props.next_if(|&&(s, _)| s == seq).map(|(_, p)| p.clone());
            (sge, p)
        })
    }

    /// `(rows held, bytes reserved)`: the ring's capacity in rows plus the
    /// property column's in entries (property maps themselves are shared
    /// with the operators that hold the edges, and not counted).
    pub(crate) fn census(&self) -> (usize, usize) {
        let bytes = self.rows.capacity() * std::mem::size_of::<Sge>()
            + self.props.capacity() * std::mem::size_of::<(u64, SharedProps)>();
        (self.rows.len(), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_types::{Label, PropMap};
    use std::sync::Arc;

    fn sge(i: u64) -> Sge {
        Sge::raw(i, i + 1, Label(0), i)
    }

    #[test]
    fn a_row_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Sge>(), 32);
    }

    #[test]
    fn props_stay_with_their_rows_across_pruning() {
        let mut h = History::default();
        for i in 0..1000 {
            let props = (i % 3 == 0).then(|| Arc::new(PropMap::from_pairs([("i", i as i64)])));
            h.push(sge(i), props);
            h.prune(100, i);
        }
        let held: Vec<_> = h.iter().collect();
        assert_eq!(held.len(), 100);
        for (sge, props) in held {
            let expect = (sge.t % 3 == 0).then(|| PropMap::from_pairs([("i", sge.t as i64)]));
            assert_eq!(props.as_deref(), expect.as_ref(), "t = {}", sge.t);
        }
    }

    #[test]
    fn a_full_ring_grows_by_a_quarter_and_shrinks_once_mostly_empty() {
        let mut h = History::default();
        let mut peak = 0;
        for i in 0..10_000 {
            h.push(sge(i), None);
            let (rows, bytes) = h.census();
            peak = peak.max(rows);
            assert!(
                bytes <= (peak + peak / 4 + MIN_GROWTH) * 32,
                "{rows} rows, {bytes} B"
            );
        }
        h.prune(100, 10_100);
        let (rows, bytes) = h.census();
        assert_eq!(rows, 0);
        assert!(bytes <= MIN_GROWTH * 4 * 32, "{bytes} B left for no rows");
    }
}
