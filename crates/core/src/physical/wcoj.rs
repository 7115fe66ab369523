//! PATTERN as a streaming **worst-case-optimal join** (delta generic join).
//!
//! §6.2.2 constructs a binary join tree for PATTERN and explicitly leaves
//! "the problem of finding efficient join plans (e.g. using worst-case
//! optimal joins \[55\])" to future work; Ammar et al. (\[5\] in the paper)
//! show how WCOJ evaluates streaming subgraph patterns. This module
//! implements that alternative physical operator: instead of materialising
//! per-stage intermediate bindings, every arriving sgt seeds a *generic
//! join* over the pattern's variables — candidate vertices are drawn from
//! the smallest incident adjacency list and verified against every other
//! bound atom, so no intermediate join state beyond the per-port edge
//! indexes exists.
//!
//! The trade-off `repro ablations` measures (its `pattern` rows): the
//! hash-join tree pays for skew with large intermediate tables (its state
//! is the sum of all stage tables), while WCOJ keeps only input indexes
//! but pays a per-tuple enumeration that touches several indexes. On cyclic patterns
//! (triangles, Q5/Q6) WCOJ avoids the intermediate blow-up entirely.
//!
//! Semantics are identical to [`PatternOp`](super::pattern::PatternOp):
//! validity intervals intersect across all participating tuples (Def. 19),
//! covered duplicates are suppressed under set semantics (Def. 11), and
//! negative tuples cancel prior emissions symmetrically (§6.2.5).

use super::pattern::CompiledPattern;
use super::{Delta, DeltaBatch, PhysicalOp};
use sgq_types::{Edge, FxHashMap, Interval, IntervalSet, Payload, Sgt, Timestamp, VertexId};

/// One port's windowed edge index: forward (`src → (trg, validity)`) and
/// reverse (`trg → (src, validity)`) adjacency with full [`IntervalSet`]s,
/// the same validity state the hash-join tables keep per row, so the two
/// PATTERN implementations emit the same results. It is an ablation
/// target: it purges by `retain` over everything it holds, where the
/// hash-join tables purge through an expiry index.
#[derive(Debug, Default)]
struct PortIndex {
    fwd: FxHashMap<VertexId, Vec<(VertexId, IntervalSet)>>,
    rev: FxHashMap<VertexId, Vec<(VertexId, IntervalSet)>>,
    entries: usize,
}

impl PortIndex {
    /// Inserts (or extends) an edge; returns `None` when the interval was
    /// already covered and `suppress` is on.
    fn insert(
        &mut self,
        src: VertexId,
        trg: VertexId,
        iv: Interval,
        suppress: bool,
    ) -> Option<Interval> {
        let bucket = self.fwd.entry(src).or_default();
        let merged = if let Some((_, set)) = bucket.iter_mut().find(|(t, _)| *t == trg) {
            if suppress && set.covers(&iv) {
                return None;
            }
            set.insert(iv)
        } else {
            let mut set = IntervalSet::new();
            set.insert(iv);
            bucket.push((trg, set));
            self.entries += 1;
            Some(iv)
        };
        // Mirror into the reverse index (no suppression check: fwd decided).
        let rbucket = self.rev.entry(trg).or_default();
        if let Some((_, set)) = rbucket.iter_mut().find(|(s, _)| *s == src) {
            set.insert(iv);
        } else {
            let mut set = IntervalSet::new();
            set.insert(iv);
            rbucket.push((src, set));
        }
        merged
    }

    /// Removes an interval (negative tuple).
    fn remove(&mut self, src: VertexId, trg: VertexId, iv: Interval) {
        if let Some(bucket) = self.fwd.get_mut(&src) {
            if let Some((_, set)) = bucket.iter_mut().find(|(t, _)| *t == trg) {
                set.remove(iv);
            }
        }
        if let Some(bucket) = self.rev.get_mut(&trg) {
            if let Some((_, set)) = bucket.iter_mut().find(|(s, _)| *s == src) {
                set.remove(iv);
            }
        }
    }

    /// Calls `f(overlap)` for every stored interval of `(src, trg)`
    /// overlapping `iv`.
    fn verify(&self, src: VertexId, trg: VertexId, iv: Interval, mut f: impl FnMut(Interval)) {
        if let Some(bucket) = self.fwd.get(&src) {
            if let Some((_, set)) = bucket.iter().find(|(t, _)| *t == trg) {
                for stored in set.overlapping(&iv) {
                    let meet = stored.intersect(&iv);
                    if !meet.is_empty() {
                        f(meet);
                    }
                }
            }
        }
    }

    /// Number of forward candidates from `v` (∞-like sentinel if absent is
    /// not needed: 0 means no match at all).
    fn fwd_len(&self, v: VertexId) -> usize {
        self.fwd.get(&v).map_or(0, Vec::len)
    }

    fn rev_len(&self, v: VertexId) -> usize {
        self.rev.get(&v).map_or(0, Vec::len)
    }

    /// Iterates `(neighbour, overlap)` for candidates of the given bound
    /// endpoint. `forward` picks the direction: `src` bound → forward.
    fn candidates(
        &self,
        bound: VertexId,
        forward: bool,
        iv: Interval,
        mut f: impl FnMut(VertexId, Interval),
    ) {
        let map = if forward { &self.fwd } else { &self.rev };
        if let Some(bucket) = map.get(&bound) {
            for (other, set) in bucket {
                for stored in set.overlapping(&iv) {
                    let meet = stored.intersect(&iv);
                    if !meet.is_empty() {
                        f(*other, meet);
                    }
                }
            }
        }
    }

    /// Iterates all live edges (cross-product fallback for disconnected
    /// patterns).
    fn scan(&self, iv: Interval, mut f: impl FnMut(VertexId, VertexId, Interval)) {
        for (&src, bucket) in &self.fwd {
            for (trg, set) in bucket {
                for stored in set.overlapping(&iv) {
                    let meet = stored.intersect(&iv);
                    if !meet.is_empty() {
                        f(src, *trg, meet);
                    }
                }
            }
        }
    }

    fn purge(&mut self, watermark: Timestamp) {
        for map in [&mut self.fwd, &mut self.rev] {
            map.retain(|_, bucket| {
                bucket.retain_mut(|(_, set)| {
                    set.purge_expired(watermark);
                    !set.is_empty()
                });
                !bucket.is_empty()
            });
        }
        self.entries = self.fwd.values().map(Vec::len).sum();
    }

    fn size(&self) -> usize {
        self.entries
    }
}

/// The WCOJ PATTERN physical operator.
pub struct WcojPatternOp {
    spec: CompiledPattern,
    /// Number of variable equivalence classes.
    n_vars: usize,
    state: Vec<PortIndex>,
    /// Output coalescing state (set semantics); bypassed for deletes.
    out_dedup: FxHashMap<(VertexId, VertexId), IntervalSet>,
    suppress: bool,
}

/// A partially-resolved atom during enumeration.
#[derive(Clone, Copy)]
struct Atom {
    port: usize,
    src_var: u32,
    trg_var: u32,
}

impl WcojPatternOp {
    /// Builds the operator from the compiled pattern.
    pub fn new(spec: CompiledPattern, suppress: bool) -> Self {
        let n_vars = spec
            .input_vars
            .iter()
            .flat_map(|&(s, t)| [s, t])
            .max()
            .map_or(0, |m| m as usize + 1);
        let state = spec
            .input_vars
            .iter()
            .map(|_| PortIndex::default())
            .collect();
        WcojPatternOp {
            spec,
            n_vars,
            state,
            out_dedup: FxHashMap::default(),
            suppress,
        }
    }

    fn emit(
        &mut self,
        bindings: &[Option<VertexId>],
        iv: Interval,
        delete: bool,
        out: &mut Vec<Delta>,
    ) {
        let src = bindings[self.spec.output.0 as usize].expect("output src bound");
        let trg = bindings[self.spec.output.1 as usize].expect("output trg bound");
        let mk = |iv: Interval| {
            Sgt::with_payload(
                src,
                trg,
                self.spec.label,
                iv,
                Payload::Edge(Edge::new(src, trg, self.spec.label)),
            )
        };
        if delete {
            // A pair never emitted (suppression off) or already purged
            // has nothing to retract from.
            if let Some(set) = self.out_dedup.get_mut(&(src, trg)) {
                set.remove(iv);
                if set.is_empty() {
                    self.out_dedup.remove(&(src, trg));
                }
            }
            out.push(Delta::Delete(mk(iv)));
            return;
        }
        if self.suppress {
            let set = self.out_dedup.entry((src, trg)).or_default();
            if set.covers(&iv) {
                return;
            }
            let merged = set.insert(iv).expect("non-empty interval");
            out.push(Delta::Insert(mk(merged)));
        } else {
            out.push(Delta::Insert(mk(iv)));
        }
    }

    /// Generic-join enumeration: resolve the `pending` atoms in an order
    /// chosen per step — verification atoms (both endpoints bound) first,
    /// then extension through the smallest candidate list, falling back to
    /// a full scan for atoms disconnected from the bindings so far.
    fn join(
        &self,
        bindings: &mut [Option<VertexId>],
        iv: Interval,
        pending: &mut Vec<Atom>,
        results: &mut Vec<(Box<[Option<VertexId>]>, Interval)>,
    ) {
        if iv.is_empty() {
            return;
        }
        let Some(pos) = self.next_atom(bindings, pending) else {
            results.push((Box::from(&*bindings), iv));
            return;
        };
        let atom = pending.swap_remove(pos);
        let idx = &self.state[atom.port];
        let sb = bindings[atom.src_var as usize];
        let tb = bindings[atom.trg_var as usize];
        match (sb, tb) {
            (Some(s), Some(t)) => {
                // Verification: intersect the running interval with every
                // live occurrence of the edge.
                idx.verify(s, t, iv, |meet| {
                    let mut sub = pending.clone();
                    self.join(bindings, meet, &mut sub, results);
                });
            }
            (Some(s), None) => {
                idx.candidates(s, true, iv, |t, meet| {
                    if atom.src_var == atom.trg_var && t != s {
                        return;
                    }
                    bindings[atom.trg_var as usize] = Some(t);
                    let mut sub = pending.clone();
                    self.join(bindings, meet, &mut sub, results);
                    bindings[atom.trg_var as usize] = None;
                });
            }
            (None, Some(t)) => {
                idx.candidates(t, false, iv, |s, meet| {
                    bindings[atom.src_var as usize] = Some(s);
                    let mut sub = pending.clone();
                    self.join(bindings, meet, &mut sub, results);
                    bindings[atom.src_var as usize] = None;
                });
            }
            (None, None) => {
                // Disconnected atom: cross-product scan.
                idx.scan(iv, |s, t, meet| {
                    if atom.src_var == atom.trg_var && s != t {
                        return;
                    }
                    bindings[atom.src_var as usize] = Some(s);
                    bindings[atom.trg_var as usize] = Some(t);
                    let mut sub = pending.clone();
                    self.join(bindings, meet, &mut sub, results);
                    bindings[atom.src_var as usize] = None;
                    if atom.src_var != atom.trg_var {
                        bindings[atom.trg_var as usize] = None;
                    }
                });
            }
        }
        pending.push(atom); // restore for the caller's sibling branches
    }

    /// Chooses the next pending atom: any fully-bound atom (cheapest —
    /// a hash verification), otherwise the half-bound atom with the
    /// smallest candidate list (the WCOJ step), otherwise `None` when
    /// nothing is pending, falling back to an unbound atom last.
    fn next_atom(&self, bindings: &[Option<VertexId>], pending: &[Atom]) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (pos, cost)
        let mut fallback: Option<usize> = None;
        for (i, a) in pending.iter().enumerate() {
            let sb = bindings[a.src_var as usize];
            let tb = bindings[a.trg_var as usize];
            let cost = match (sb, tb) {
                (Some(_), Some(_)) => return Some(i), // verify first, always
                (Some(s), None) => self.state[a.port].fwd_len(s),
                (None, Some(t)) => self.state[a.port].rev_len(t),
                (None, None) => {
                    fallback = Some(i);
                    continue;
                }
            };
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        best.map(|(i, _)| i).or(fallback)
    }
}

impl PhysicalOp for WcojPatternOp {
    fn name(&self) -> String {
        format!(
            "PATTERN-WCOJ[{} inputs → {:?}]",
            self.spec.input_vars.len(),
            self.spec.label
        )
    }

    fn on_batch(&mut self, port: usize, batch: &DeltaBatch, _now: Timestamp, out: &mut DeltaBatch) {
        let (sv, tv) = self.spec.input_vars[port];
        // The pending-atom template and enumeration buffers are set up once
        // per batch: each delta's generic join starts from the same atom
        // set.
        let template: Vec<Atom> = self
            .spec
            .input_vars
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != port)
            .map(|(p, &(s, t))| Atom {
                port: p,
                src_var: s,
                trg_var: t,
            })
            .collect();
        let mut bindings: Vec<Option<VertexId>> = vec![None; self.n_vars];
        let mut pending: Vec<Atom> = Vec::with_capacity(template.len());
        let mut results = Vec::new();
        let out = out.as_mut_vec();

        for d in batch.iter() {
            let delete = d.is_delete();
            let s = d.sgt();
            let iv = s.interval;
            if iv.is_empty() {
                continue;
            }
            if sv == tv && s.src != s.trg {
                continue; // `l(x, x)` atom: only self-loops qualify
            }
            let (src, trg) = (s.src, s.trg);

            // Update the port index first (symmetric processing), then seed
            // the generic join with this tuple's bindings. Insert-then-join
            // per delta keeps each result derived exactly once within the
            // batch (later deltas see earlier ones, never vice versa).
            if delete {
                self.state[port].remove(src, trg, iv);
            } else if self.state[port]
                .insert(src, trg, iv, self.suppress)
                .is_none()
            {
                continue; // fully covered: no new results possible
            }

            bindings.fill(None);
            bindings[sv as usize] = Some(src);
            bindings[tv as usize] = Some(trg);
            pending.clear();
            pending.extend_from_slice(&template);
            self.join(&mut bindings, iv, &mut pending, &mut results);
            for (vals, meet) in results.drain(..) {
                self.emit(&vals, meet, delete, out);
            }
        }
    }

    fn purge(&mut self, watermark: Timestamp, _out: &mut Vec<Delta>) {
        for idx in &mut self.state {
            idx.purge(watermark);
        }
        self.out_dedup.retain(|_, set| {
            set.purge_expired(watermark);
            !set.is_empty()
        });
    }

    fn state_size(&self) -> usize {
        self.state.iter().map(PortIndex::size).sum()
    }
}

#[cfg(test)]
mod tests {
    // The cases shared with the hash-join tree (joins in both arrival
    // orders, suppression, Example 6, negative tuples, purge, projections)
    // run over both implementations in `pattern.rs`'s tests.
    use super::super::push_one;
    use super::*;
    use crate::algebra::Pos;

    fn sgt(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(
            VertexId(src),
            VertexId(trg),
            sgq_types::Label(l),
            Interval::new(ts, exp),
        )
    }

    fn inserts(out: &[Delta]) -> Vec<(u64, u64, Interval)> {
        out.iter()
            .filter(|d| !d.is_delete())
            .map(|d| {
                let s = d.sgt();
                (s.src.0, s.trg.0, s.interval)
            })
            .collect()
    }

    #[test]
    fn four_clique_path_pattern() {
        // d(x, w) ← a(x, y), a(y, z), a(z, w), a(w, x): a 4-cycle; the WCOJ
        // enumeration must bind intermediate variables in both directions.
        let spec = CompiledPattern::compile(
            4,
            &[
                (Pos::trg(0), Pos::src(1)),
                (Pos::trg(1), Pos::src(2)),
                (Pos::trg(2), Pos::src(3)),
                (Pos::trg(3), Pos::src(0)),
            ],
            (Pos::src(0), Pos::trg(2)),
            sgq_types::Label(9),
        );
        let mut op = WcojPatternOp::new(spec, true);
        let mut out = Vec::new();
        // Cycle 1 → 2 → 3 → 4 → 1, closing edge last.
        for (port, s) in [
            (0, sgt(1, 2, 0, 0, 10)),
            (1, sgt(2, 3, 0, 0, 10)),
            (2, sgt(3, 4, 0, 0, 10)),
        ] {
            push_one(&mut op, port, Delta::Insert(s), 0, &mut out);
        }
        assert!(out.is_empty());
        push_one(&mut op, 3, Delta::Insert(sgt(4, 1, 0, 0, 10)), 0, &mut out);
        // The same edges also feed the other ports in a real plan; here only
        // one assignment per port exists, so exactly one result.
        assert_eq!(inserts(&out), vec![(1, 4, Interval::new(0, 10))]);
    }

    #[test]
    fn negative_tuples_leave_no_dedup_pairs_without_suppression() {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            sgq_types::Label(9),
        );
        let mut op = WcojPatternOp::new(spec, false);
        let [inserts, deletes] = super::super::pattern::tests::retractions();
        let mut out = Vec::new();
        for (port, delta, now) in inserts.into_iter().chain(deletes) {
            push_one(&mut op, port, delta, now, &mut out);
        }
        assert_eq!(out.iter().filter(|d| d.is_delete()).count(), 10);
        assert!(op.out_dedup.is_empty(), "{:?}", op.out_dedup);
    }
}
