//! Sets of disjoint validity intervals with coalescing insertion.
//!
//! Operator state must remember *when* a value-equivalent tuple is valid.
//! Because coalescing (Def. 11) only merges overlapping-or-adjacent
//! intervals, the state per distinguished key is in general a set of
//! pairwise disjoint, non-adjacent intervals. [`IntervalSet`] maintains that
//! normal form under insertion and answers validity/overlap queries.
//!
//! Sets are tiny in practice: a re-inserted edge extends the previous
//! interval, so nearly every set holds exactly one. That interval is held
//! inline — a set costs its 24 bytes and no allocation — and only a set
//! with two or more members keeps them in a sorted `Vec`.

use crate::time::{Interval, Timestamp};

// Inline storage must not grow the set past the `Vec` it replaced: every
// join row, sink-dedup entry and `out_dedup` pair holds one.
const _: () = assert!(std::mem::size_of::<IntervalSet>() == 24);

/// A normalised set of disjoint, non-adjacent, non-empty intervals kept
/// sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    repr: Repr,
}

/// `Many` always holds at least two intervals: a set that shrinks to one
/// or none goes back inline, so each set has exactly one representation.
#[derive(Debug, Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Interval),
    Many(Vec<Interval>),
}

impl PartialEq for IntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.intervals() == other.intervals()
    }
}

impl Eq for IntervalSet {}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set holding a single interval (if non-empty).
    pub fn from_interval(iv: Interval) -> Self {
        let mut s = Self::new();
        s.insert(iv);
        s
    }

    /// Inserts `iv`, coalescing with any overlapping or adjacent members.
    /// Returns the coalesced interval that now covers `iv` (or `None` if
    /// `iv` was empty).
    pub fn insert(&mut self, iv: Interval) -> Option<Interval> {
        if iv.is_empty() {
            return None;
        }
        let ivs = match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::One(iv);
                return Some(iv);
            }
            Repr::One(x) => {
                if x.exp < iv.ts || iv.exp < x.ts {
                    let (a, b) = if x.ts < iv.ts { (*x, iv) } else { (iv, *x) };
                    self.repr = Repr::Many(vec![a, b]);
                    return Some(iv);
                }
                *x = Interval::new(iv.ts.min(x.ts), iv.exp.max(x.exp));
                return Some(*x);
            }
            Repr::Many(ivs) => ivs,
        };
        // Find the range of existing intervals that meet `iv`.
        let start = ivs.partition_point(|x| x.exp < iv.ts);
        let end = ivs[start..]
            .iter()
            .position(|x| x.ts > iv.exp)
            .map_or(ivs.len(), |p| start + p);
        if start == end {
            ivs.insert(start, iv);
            return Some(iv);
        }
        let merged = Interval::new(iv.ts.min(ivs[start].ts), iv.exp.max(ivs[end - 1].exp));
        ivs.drain(start + 1..end);
        ivs[start] = merged;
        self.normalise();
        Some(merged)
    }

    /// Removes every instant of `iv` from the set (used for explicit
    /// deletions via negative tuples, §6.2.5). Splits intervals as needed,
    /// in place.
    pub fn remove(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // The members `iv` meets: `[start, end)`.
        let ivs = self.intervals();
        let start = ivs.partition_point(|x| x.exp <= iv.ts);
        let end = start + ivs[start..].iter().take_while(|x| x.ts < iv.exp).count();
        if start == end {
            return;
        }
        // What survives of them: the head of the first, the tail of the last.
        let left = Interval::new(ivs[start].ts, iv.ts);
        let right = Interval::new(iv.exp, ivs[end - 1].exp);
        let pieces = [left, right].into_iter().filter(|p| !p.is_empty());
        match &mut self.repr {
            Repr::Many(ivs) => {
                ivs.splice(start..end, pieces);
            }
            repr => {
                let pieces: Vec<Interval> = pieces.collect();
                *repr = match pieces[..] {
                    [] => Repr::Empty,
                    [one] => Repr::One(one),
                    _ => Repr::Many(pieces),
                };
            }
        }
        self.normalise();
    }

    /// Puts a `Many` set that shrank below two members back inline.
    fn normalise(&mut self) {
        if let Repr::Many(ivs) = &self.repr {
            match ivs[..] {
                [] => self.repr = Repr::Empty,
                [one] => self.repr = Repr::One(one),
                _ => {}
            }
        }
    }

    /// Whether a single member fully covers `iv` (an insert of `iv` would
    /// add no new instants). Empty intervals are trivially covered.
    pub fn covers(&self, iv: &Interval) -> bool {
        if iv.is_empty() {
            return true;
        }
        let ivs = self.intervals();
        let i = ivs.partition_point(|x| x.exp < iv.exp);
        ivs.get(i).is_some_and(|x| x.ts <= iv.ts && iv.exp <= x.exp)
    }

    /// Whether any member contains instant `t`.
    pub fn contains(&self, t: Timestamp) -> bool {
        let ivs = self.intervals();
        let i = ivs.partition_point(|x| x.exp <= t);
        ivs.get(i).is_some_and(|x| x.contains(t))
    }

    /// Iterates over members of the set that overlap `iv`.
    pub fn overlapping<'a>(&'a self, iv: &'a Interval) -> impl Iterator<Item = Interval> + 'a {
        let ivs = self.intervals();
        let start = ivs.partition_point(|x| x.exp <= iv.ts);
        ivs[start..]
            .iter()
            .take_while(move |x| x.ts < iv.exp)
            .copied()
    }

    /// Drops every interval that has fully expired at `t` (direct approach:
    /// `exp <= t`). Returns how many intervals were dropped.
    pub fn purge_expired(&mut self, t: Timestamp) -> usize {
        match &mut self.repr {
            Repr::Empty => 0,
            Repr::One(x) => {
                if !x.expired_at(t) {
                    return 0;
                }
                self.repr = Repr::Empty;
                1
            }
            Repr::Many(ivs) => {
                let before = ivs.len();
                ivs.retain(|x| !x.expired_at(t));
                let dropped = before - ivs.len();
                self.normalise();
                dropped
            }
        }
    }

    /// The members, sorted by start.
    pub fn intervals(&self) -> &[Interval] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::One(x) => std::slice::from_ref(x),
            Repr::Many(ivs) => ivs,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        matches!(self.repr, Repr::Empty)
    }

    /// Number of disjoint intervals.
    pub fn len(&self) -> usize {
        self.intervals().len()
    }

    /// Heap bytes the set reserves beyond its own 24: zero unless it holds
    /// two or more intervals.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Many(ivs) => ivs.capacity() * std::mem::size_of::<Interval>(),
            _ => 0,
        }
    }

    /// Total number of instants covered.
    pub fn covered(&self) -> u64 {
        self.intervals().iter().map(|x| x.len()).sum()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for iv in iter {
            s.insert(iv);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(a, b)
    }

    #[test]
    fn insert_disjoint_keeps_both() {
        let mut s = IntervalSet::new();
        s.insert(iv(10, 20));
        s.insert(iv(0, 5));
        assert_eq!(s.intervals(), &[iv(0, 5), iv(10, 20)]);
    }

    #[test]
    fn insert_overlapping_coalesces() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 10));
        let merged = s.insert(iv(5, 15)).unwrap();
        assert_eq!(merged, iv(0, 15));
        assert_eq!(s.intervals(), &[iv(0, 15)]);
    }

    #[test]
    fn insert_adjacent_coalesces() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 10));
        s.insert(iv(10, 12));
        assert_eq!(s.intervals(), &[iv(0, 12)]);
    }

    #[test]
    fn insert_bridging_merges_many() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 2));
        s.insert(iv(4, 6));
        s.insert(iv(8, 10));
        let merged = s.insert(iv(1, 9)).unwrap();
        assert_eq!(merged, iv(0, 10));
        assert_eq!(s.intervals(), &[iv(0, 10)]);
    }

    #[test]
    fn insert_contained_is_absorbed() {
        let mut s = IntervalSet::new();
        s.insert(iv(0, 10));
        s.insert(iv(3, 4));
        assert_eq!(s.intervals(), &[iv(0, 10)]);
    }

    #[test]
    fn empty_insert_ignored() {
        let mut s = IntervalSet::new();
        assert!(s.insert(Interval::empty()).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn contains_queries() {
        let s: IntervalSet = [iv(0, 3), iv(7, 9)].into_iter().collect();
        assert!(s.contains(0));
        assert!(!s.contains(3));
        assert!(!s.contains(5));
        assert!(s.contains(8));
        assert!(!s.contains(9));
    }

    #[test]
    fn overlapping_iterator() {
        let s: IntervalSet = [iv(0, 3), iv(5, 8), iv(10, 12)].into_iter().collect();
        let hits: Vec<_> = s.overlapping(&iv(2, 11)).collect();
        assert_eq!(hits, vec![iv(0, 3), iv(5, 8), iv(10, 12)]);
        let hits: Vec<_> = s.overlapping(&iv(3, 5)).collect();
        assert!(hits.is_empty(), "adjacent-only intervals do not overlap");
    }

    #[test]
    fn purge_expired_direct_approach() {
        let mut s: IntervalSet = [iv(0, 3), iv(5, 8), iv(10, 12)].into_iter().collect();
        assert_eq!(s.purge_expired(8), 2);
        assert_eq!(s.intervals(), &[iv(10, 12)]);
    }

    #[test]
    fn remove_splits() {
        let mut s = IntervalSet::from_interval(iv(0, 10));
        s.remove(iv(3, 6));
        assert_eq!(s.intervals(), &[iv(0, 3), iv(6, 10)]);
        s.remove(iv(0, 3));
        assert_eq!(s.intervals(), &[iv(6, 10)]);
        s.remove(iv(0, 100));
        assert!(s.is_empty());
    }

    #[test]
    fn covers_queries() {
        let s: IntervalSet = [iv(0, 5), iv(8, 12)].into_iter().collect();
        assert!(s.covers(&iv(0, 5)));
        assert!(s.covers(&iv(1, 4)));
        assert!(s.covers(&iv(9, 12)));
        assert!(!s.covers(&iv(0, 6)));
        assert!(!s.covers(&iv(4, 9))); // spans the gap
        assert!(!s.covers(&iv(13, 14)));
        assert!(s.covers(&Interval::empty()));
    }

    #[test]
    fn covered_counts_instants() {
        let s: IntervalSet = [iv(0, 3), iv(5, 8)].into_iter().collect();
        assert_eq!(s.covered(), 6);
    }

    #[test]
    fn a_single_interval_is_held_inline() {
        let mut s = IntervalSet::from_interval(iv(0, 10));
        assert_eq!(s.heap_bytes(), 0);
        s.remove(iv(3, 6));
        assert!(s.heap_bytes() > 0, "two members spill to the heap");
        s.insert(iv(3, 6));
        assert_eq!((s.intervals(), s.heap_bytes()), (&[iv(0, 10)][..], 0));
        s.insert(iv(20, 30));
        s.purge_expired(10);
        assert_eq!((s.intervals(), s.heap_bytes()), (&[iv(20, 30)][..], 0));
        assert_eq!(s, IntervalSet::from_interval(iv(20, 30)));
    }
}
