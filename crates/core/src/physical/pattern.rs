//! PATTERN (Def. 19) as a pipelined symmetric-hash-join tree (§6.2.2).
//!
//! The logical PATTERN is binary-in/binary-out, but rule bodies bind more
//! than two variables, so internally the operator carries *binding tuples*
//! (vectors of vertex ids over variable equivalence classes) through a
//! left-deep tree of symmetric hash joins, projecting to `(src, trg, d)` at
//! the top. The join tree follows the predicate order of the PATTERN, as in
//! the paper's prototype (Figure 8, right).
//!
//! State follows the direct approach: per (key, binding) the operator keeps
//! an [`IntervalSet`]; expired intervals are skipped naturally (interval
//! intersection with a live probe tuple is empty) and reclaimed by `purge`.
//! Fully-covered re-insertions are suppressed (set semantics / coalescing,
//! Def. 11). Negative tuples (§6.2.5) remove intervals and probe the
//! opposite table symmetrically, which cancels prior emissions exactly.

use super::{Delta, DeltaBatch, PhysicalOp};
use crate::algebra::{Pos, Side};
use sgq_types::{Edge, FxHashMap, Interval, IntervalSet, Label, Payload, Sgt, Timestamp, VertexId};

// Send audit: the symmetric-hash-join stage tables and emission dedup
// state are owned; sgt payloads inside them are `Arc`-shared.
const _: () = super::assert_send::<PatternOp>();

/// A variable equivalence class (dense id).
pub type VarId = u32;

/// The compiled form of a logical PATTERN: variable classes per input and
/// the projection for the output sgt.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// `(src-class, trg-class)` for each input stream.
    pub input_vars: Vec<(VarId, VarId)>,
    /// Variable classes of the output `(src, trg)`.
    pub output: (VarId, VarId),
    /// Output label `d`.
    pub label: Label,
}

impl CompiledPattern {
    /// Builds the compiled pattern from the logical operator's positions
    /// and equality conditions using union–find over positions.
    pub fn compile(
        n_inputs: usize,
        conditions: &[(Pos, Pos)],
        output: (Pos, Pos),
        label: Label,
    ) -> CompiledPattern {
        let idx = |p: Pos| -> usize {
            p.input * 2
                + match p.side {
                    Side::Src => 0,
                    Side::Trg => 1,
                }
        };
        let mut parent: Vec<usize> = (0..2 * n_inputs).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for &(a, b) in conditions {
            let (ra, rb) = (find(&mut parent, idx(a)), find(&mut parent, idx(b)));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Dense class ids in position order.
        let mut class_of_root: FxHashMap<usize, VarId> = FxHashMap::default();
        let mut class = |parent: &mut Vec<usize>, pos: usize| -> VarId {
            let r = find(parent, pos);
            let next = class_of_root.len() as VarId;
            *class_of_root.entry(r).or_insert(next)
        };
        let mut input_vars = Vec::with_capacity(n_inputs);
        for i in 0..n_inputs {
            let s = class(&mut parent, 2 * i);
            let t = class(&mut parent, 2 * i + 1);
            input_vars.push((s, t));
        }
        let out = (
            class(&mut parent, idx(output.0)),
            class(&mut parent, idx(output.1)),
        );
        CompiledPattern {
            input_vars,
            output: out,
            label,
        }
    }
}

/// Per-stage join plan computed once at operator construction.
#[derive(Debug, Clone)]
struct StagePlan {
    /// Indices into the left layout forming the join key.
    left_key: Vec<usize>,
    /// Indices into the right layout forming the join key (same var order).
    right_key: Vec<usize>,
    /// For each output var: (from_left, index in that side's layout).
    out_from: Vec<(bool, usize)>,
}

/// A join-key bucket: binding values → validity. Hashed rather than a
/// flat entry list so high-fanout keys (an S-PATH input keyed by its
/// source vertex can hold hundreds of `(x, y)` bindings per `x`) insert
/// and coalesce in O(1) instead of a linear scan per arriving delta.
type Bucket = FxHashMap<Box<[VertexId]>, IntervalSet>;

/// One side of a symmetric hash join: key → entries of (values, validity).
#[derive(Debug, Default)]
struct Table {
    map: FxHashMap<Box<[VertexId]>, Bucket>,
    entries: usize,
}

impl Table {
    /// Inserts (or extends) an entry in a pre-located bucket; returns
    /// `None` if the interval was fully covered (duplicate suppressed)
    /// when `suppress` is on. `entries` is the owning table's size counter
    /// (split out so batch loops can hold the bucket across deltas).
    fn bucket_insert(
        bucket: &mut Bucket,
        entries: &mut usize,
        vals: &[VertexId],
        iv: Interval,
        suppress: bool,
    ) -> Option<Interval> {
        if let Some(set) = bucket.get_mut(vals) {
            if suppress && set.covers(&iv) {
                return None;
            }
            return set.insert(iv);
        }
        let mut set = IntervalSet::new();
        set.insert(iv);
        bucket.insert(vals.into(), set);
        *entries += 1;
        Some(iv)
    }

    /// Removes an interval from a pre-located bucket's entry (negative
    /// tuple).
    fn bucket_remove(bucket: &mut Bucket, vals: &[VertexId], iv: Interval) {
        if let Some(set) = bucket.get_mut(vals) {
            set.remove(iv);
        }
    }

    /// Probes a pre-located bucket's entries whose validity overlaps `iv`,
    /// calling `f(vals, overlap-interval)` per live interval.
    fn bucket_probe(bucket: &Bucket, iv: Interval, mut f: impl FnMut(&[VertexId], Interval)) {
        for (vals, set) in bucket {
            for stored in set.overlapping(&iv) {
                let meet = stored.intersect(&iv);
                if !meet.is_empty() {
                    f(vals, meet);
                }
            }
        }
    }

    fn purge(&mut self, watermark: Timestamp) {
        self.map.retain(|_, bucket| {
            bucket.retain(|_, set| {
                set.purge_expired(watermark);
                !set.is_empty()
            });
            !bucket.is_empty()
        });
        self.entries = self.map.values().map(Bucket::len).sum();
    }

    fn size(&self) -> usize {
        self.entries
    }
}

/// A pending binding tuple inside the join tree (its stage is tracked by
/// the level loop). Values live in the level's flat buffer as a
/// `[start, start + len)` range, so tuples flow between stages without a
/// per-tuple heap allocation; owned copies are made only when a new
/// binding is stored in a join table.
struct Work {
    start: u32,
    len: u32,
    iv: Interval,
    delete: bool,
}

impl Work {
    fn vals<'b>(&self, buf: &'b [VertexId]) -> &'b [VertexId] {
        &buf[self.start as usize..(self.start + self.len) as usize]
    }
}

/// The PATTERN physical operator.
pub struct PatternOp {
    spec: CompiledPattern,
    stages: Vec<StagePlan>,
    state: Vec<(Table, Table)>, // (left, right) per stage
    /// Output coalescing state (set semantics); bypassed for deletes.
    out_dedup: FxHashMap<(VertexId, VertexId), IntervalSet>,
    /// Positions of the output (src, trg) in the final layout.
    out_pos: (usize, usize),
    suppress: bool,
}

impl PatternOp {
    /// Builds the operator and its left-deep stage plans.
    pub fn new(spec: CompiledPattern, suppress: bool) -> Self {
        let n = spec.input_vars.len();
        let leaf_layout = |i: usize| -> Vec<VarId> {
            let (s, t) = spec.input_vars[i];
            if s == t {
                vec![s]
            } else {
                vec![s, t]
            }
        };

        let mut stages = Vec::new();
        let mut layout = leaf_layout(0);
        for i in 1..n {
            let right_layout = leaf_layout(i);
            let shared: Vec<VarId> = layout
                .iter()
                .copied()
                .filter(|v| right_layout.contains(v))
                .collect();
            let left_key: Vec<usize> = shared
                .iter()
                .map(|v| layout.iter().position(|x| x == v).unwrap())
                .collect();
            let right_key: Vec<usize> = shared
                .iter()
                .map(|v| right_layout.iter().position(|x| x == v).unwrap())
                .collect();
            let mut out_layout = layout.clone();
            for &v in &right_layout {
                if !out_layout.contains(&v) {
                    out_layout.push(v);
                }
            }
            let out_from: Vec<(bool, usize)> = out_layout
                .iter()
                .map(|v| match layout.iter().position(|x| x == v) {
                    Some(p) => (true, p),
                    None => (false, right_layout.iter().position(|x| x == v).unwrap()),
                })
                .collect();
            layout = out_layout;
            stages.push(StagePlan {
                left_key,
                right_key,
                out_from,
            });
        }

        let out_pos = (
            layout
                .iter()
                .position(|&v| v == spec.output.0)
                .expect("output src var bound"),
            layout
                .iter()
                .position(|&v| v == spec.output.1)
                .expect("output trg var bound"),
        );
        let state = stages.iter().map(|_| Default::default()).collect();
        PatternOp {
            spec,
            stages,
            state,
            out_dedup: FxHashMap::default(),
            out_pos,
            suppress,
        }
    }

    fn emit(&mut self, vals: &[VertexId], iv: Interval, delete: bool, out: &mut Vec<Delta>) {
        let (src, trg) = (vals[self.out_pos.0], vals[self.out_pos.1]);
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
            self.out_dedup.entry((src, trg)).or_default().remove(iv);
            out.push(Delta::Delete(mk(iv)));
            return;
        }
        if self.suppress {
            let set = self.out_dedup.entry((src, trg)).or_default();
            if set.covers(&iv) {
                return;
            }
            // Emit the coalesced interval (Def. 11).
            let merged = set.insert(iv).expect("non-empty interval");
            out.push(Delta::Insert(mk(merged)));
        } else {
            out.push(Delta::Insert(mk(iv)));
        }
    }

    /// Runs a level of binding tuples entering stage `stage`'s **left**
    /// side (and every stage above) to completion. Within each level the
    /// tuples are grouped by join key, so the hash tables are touched once
    /// per distinct key instead of once per tuple — the batched form of
    /// the symmetric-hash-join probe.
    fn run_levels(
        &mut self,
        mut stage: usize,
        mut works: Vec<Work>,
        mut buf: Vec<VertexId>,
        out: &mut Vec<Delta>,
    ) {
        while !works.is_empty() {
            if stage == self.stages.len() {
                for w in &works {
                    self.emit(w.vals(&buf), w.iv, w.delete, out);
                }
                return;
            }
            (works, buf) = self.level(stage, true, &works, &buf);
            stage += 1;
        }
    }

    /// Processes one level of arrivals into stage `stage` — the left side
    /// when `from_left`, the right side otherwise (a right-port input
    /// batch) — and returns the joined tuples for the next stage in a
    /// fresh flat buffer.
    ///
    /// Tuples are grouped by join key with a stable sort (same-key
    /// arrivals keep their relative order, so insert/delete runs on one
    /// binding stay meaningful); each group locates its own-side bucket
    /// and the opposite bucket once.
    fn level(
        &mut self,
        stage: usize,
        from_left: bool,
        works: &[Work],
        buf: &[VertexId],
    ) -> (Vec<Work>, Vec<VertexId>) {
        let plan = &self.stages[stage];
        let key_idx = if from_left {
            &plan.left_key
        } else {
            &plan.right_key
        };
        // Flat key buffer: key `i` lives at `key_buf[i*klen..(i+1)*klen]`.
        let klen = key_idx.len();
        let mut key_buf: Vec<VertexId> = Vec::with_capacity(works.len() * klen);
        for w in works {
            let vals = w.vals(buf);
            key_buf.extend(key_idx.iter().map(|&ki| vals[ki]));
        }
        let key_of = |i: usize| &key_buf[i * klen..(i + 1) * klen];
        let mut order: Vec<u32> = (0..works.len() as u32).collect();
        order.sort_by(|&a, &b| key_of(a as usize).cmp(key_of(b as usize)));

        let mut next: Vec<Work> = Vec::new();
        let mut next_buf: Vec<VertexId> = Vec::new();
        let (left, right) = &mut self.state[stage];
        let (own, other) = if from_left {
            (left, right)
        } else {
            (right, left)
        };
        let mut i = 0;
        while i < order.len() {
            let key = key_of(order[i] as usize);
            let mut j = i + 1;
            while j < order.len() && key_of(order[j] as usize) == key {
                j += 1;
            }
            let other_bucket = other.map.get(key);
            // Delete-only groups must not materialise an own-side bucket:
            // a retraction for a binding this side never stored is a no-op
            // there, not an empty bucket that lingers until the next
            // amortised purge. They
            // still probe the other side for their negative join results.
            let has_insert = order[i..j]
                .iter()
                .any(|&w_idx| !works[w_idx as usize].delete);
            if has_insert && !own.map.contains_key(key) {
                own.map.insert(key.into(), Bucket::default());
            }
            let mut own_bucket = own.map.get_mut(key);
            for &w_idx in &order[i..j] {
                let w = &works[w_idx as usize];
                let vals = w.vals(buf);
                if w.delete {
                    if let Some(bucket) = own_bucket.as_deref_mut() {
                        Table::bucket_remove(bucket, vals, w.iv);
                    }
                } else if Table::bucket_insert(
                    own_bucket
                        .as_deref_mut()
                        .expect("insert groups own a bucket"),
                    &mut own.entries,
                    vals,
                    w.iv,
                    self.suppress,
                )
                .is_none()
                {
                    continue; // fully covered: no new results possible
                }
                if let Some(other_bucket) = other_bucket {
                    Table::bucket_probe(other_bucket, w.iv, |ovals, meet| {
                        let (lvals, rvals) = if from_left {
                            (vals, ovals)
                        } else {
                            (ovals, vals)
                        };
                        let start = next_buf.len() as u32;
                        next_buf.extend(plan.out_from.iter().map(|&(ls, pos)| {
                            if ls {
                                lvals[pos]
                            } else {
                                rvals[pos]
                            }
                        }));
                        next.push(Work {
                            start,
                            len: plan.out_from.len() as u32,
                            iv: meet,
                            delete: w.delete,
                        });
                    });
                }
            }
            i = j;
        }
        (next, next_buf)
    }
}

impl PhysicalOp for PatternOp {
    fn name(&self) -> String {
        format!(
            "PATTERN[{} inputs → {:?}]",
            self.spec.input_vars.len(),
            self.spec.label
        )
    }

    fn on_batch(&mut self, port: usize, batch: &DeltaBatch, _now: Timestamp, out: &mut DeltaBatch) {
        // Convert the port's deltas to leaf binding tuples in arrival
        // order, packed into one flat value buffer.
        let (sv, tv) = self.spec.input_vars[port];
        let leaf_len: u32 = if sv == tv { 1 } else { 2 };
        let mut works: Vec<Work> = Vec::with_capacity(batch.len());
        let mut buf: Vec<VertexId> = Vec::with_capacity(batch.len() * leaf_len as usize);
        for d in batch.iter() {
            let s = d.sgt();
            if s.interval.is_empty() {
                continue;
            }
            let start = buf.len() as u32;
            if sv == tv {
                // Same-variable leaf `a(x, x)`: only self-loops bind.
                if s.src != s.trg {
                    continue;
                }
                buf.push(s.src);
            } else {
                buf.push(s.src);
                buf.push(s.trg);
            }
            works.push(Work {
                start,
                len: leaf_len,
                iv: s.interval,
                delete: d.is_delete(),
            });
        }
        if works.is_empty() {
            return;
        }
        let out = out.as_mut_vec();

        if self.stages.is_empty() {
            // Single-input pattern: pure projection.
            for w in &works {
                self.emit(w.vals(&buf), w.iv, w.delete, out);
            }
            return;
        }

        if port == 0 {
            self.run_levels(0, works, buf, out);
        } else {
            // Right arrivals at stage `port - 1`: insert and probe the left
            // side (key-grouped), then run the joined tuples upward.
            let stage = port - 1;
            let (joined, jbuf) = self.level(stage, false, &works, &buf);
            self.run_levels(stage + 1, joined, jbuf, out);
        }
    }

    fn purge(&mut self, watermark: Timestamp, _out: &mut Vec<Delta>) {
        for (l, r) in &mut self.state {
            l.purge(watermark);
            r.purge(watermark);
        }
        self.out_dedup.retain(|_, set| {
            set.purge_expired(watermark);
            !set.is_empty()
        });
    }

    fn state_size(&self) -> usize {
        self.state.iter().map(|(l, r)| l.size() + r.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::push_one;
    use super::super::wcoj::WcojPatternOp;
    use super::*;
    use crate::algebra::Pos;

    fn sgt(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Sgt {
        Sgt::edge(
            VertexId(src),
            VertexId(trg),
            Label(l),
            Interval::new(ts, exp),
        )
    }

    /// Both PATTERN implementations over one spec: every case below pins
    /// the hash-join tree and the WCOJ alternative to the same output.
    fn both(spec: CompiledPattern, suppress: bool) -> [Box<dyn PhysicalOp>; 2] {
        [
            Box::new(PatternOp::new(spec.clone(), suppress)),
            Box::new(WcojPatternOp::new(spec, suppress)),
        ]
    }

    /// Two-input join: d(x, z) ← a(x, y), b(y, z).
    fn two_way(suppress: bool) -> [Box<dyn PhysicalOp>; 2] {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            Label(9),
        );
        both(spec, suppress)
    }

    /// Feeds `(port, delta, now)` inputs in order; returns the emissions.
    fn feed(op: &mut dyn PhysicalOp, inputs: Vec<(usize, Delta, u64)>) -> Vec<Delta> {
        let mut out = Vec::new();
        for (port, delta, now) in inputs {
            push_one(op, port, delta, now, &mut out);
        }
        out
    }

    fn ins(src: u64, trg: u64, l: u32, ts: u64, exp: u64) -> Delta {
        Delta::Insert(sgt(src, trg, l, ts, exp))
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
    fn compile_assigns_shared_classes() {
        let spec = CompiledPattern::compile(
            2,
            &[(Pos::trg(0), Pos::src(1))],
            (Pos::src(0), Pos::trg(1)),
            Label(9),
        );
        let (a_s, a_t) = spec.input_vars[0];
        let (b_s, b_t) = spec.input_vars[1];
        assert_eq!(a_t, b_s);
        assert_ne!(a_s, b_t);
        assert_eq!(spec.output, (a_s, b_t));
    }

    #[test]
    fn symmetric_join_both_arrival_orders() {
        for mut op in two_way(true) {
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert!(out.is_empty(), "{}", op.name());
            let out = feed(op.as_mut(), vec![(1, ins(2, 3, 1, 2, 12), 2)]);
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(2, 10))]);
        }
        // Reverse order in fresh operators.
        for mut op in two_way(true) {
            let out = feed(
                op.as_mut(),
                vec![(1, ins(2, 3, 1, 2, 12), 2), (0, ins(1, 2, 0, 0, 10), 3)],
            );
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(2, 10))]);
        }
    }

    #[test]
    fn disjoint_intervals_do_not_join() {
        for mut op in two_way(true) {
            let out = feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 5), 0), (1, ins(2, 3, 1, 7, 12), 7)],
            );
            assert!(
                out.is_empty(),
                "{}: validity intervals must intersect (Def. 19)",
                op.name()
            );
        }
    }

    #[test]
    fn covered_duplicate_is_suppressed() {
        for mut op in two_way(true) {
            let out = feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            assert_eq!(out.len(), 1, "{}", op.name());
            // Same edge again with a covered validity: no output, no state
            // blowup.
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 3, 8), 3)]);
            assert!(out.is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn extension_bounded_by_partner_is_suppressed() {
        for mut op in two_way(true) {
            feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            // Re-insert of `a` with a longer validity — but the result is
            // still capped by `b`'s [0,10), which was already emitted.
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 5, 20), 5)]);
            assert!(out.is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn interval_extension_reemits_coalesced() {
        for mut op in two_way(true) {
            feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 30), 0)],
            );
            // `b` is valid until 30, so extending `a` extends the result;
            // the emission carries the coalesced interval (Def. 11).
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 5, 20), 5)]);
            assert_eq!(inserts(&out), vec![(1, 3, Interval::new(0, 20))]);
        }
    }

    #[test]
    fn example6_triangle() {
        // recentLiker: RL(u1, u2) ← likes(u1, m1), posts(u2, m1), FP(u1, u2)
        // with Φ = (trg1 = trg2 ∧ src1 = src3 ∧ src2 = trg3).
        let spec = CompiledPattern::compile(
            3,
            &[
                (Pos::trg(0), Pos::trg(1)),
                (Pos::src(0), Pos::src(2)),
                (Pos::src(1), Pos::trg(2)),
            ],
            (Pos::src(0), Pos::src(1)),
            Label(10),
        );
        for mut op in both(spec, true) {
            // Vertices: u=0, v=1, b=2, y=3, c=4, a=5 (Figure 3 with 24h
            // window).
            // likes (label 0): (y,a)@[28,52), (u,b)@[29,53), (u,c)@[30,54)
            // posts (label 1): (v,b)@[10,34), (v,c)@[17,41), (u,a)@[22,46)
            // FP    (label 2): follows path (u,v)@[7,31), (y,u)@[13,37),
            //                  (y,v)@[13,31) (two-hop path).
            let out = feed(
                op.as_mut(),
                vec![
                    (1, ins(1, 2, 1, 10, 34), 0),
                    (2, ins(0, 1, 2, 7, 31), 0),
                    (2, ins(3, 0, 2, 13, 37), 0),
                    (2, ins(3, 1, 2, 13, 31), 0),
                    (1, ins(1, 4, 1, 17, 41), 0),
                    (1, ins(0, 5, 1, 22, 46), 0),
                    (0, ins(3, 5, 0, 28, 52), 0),
                    (0, ins(0, 2, 0, 29, 53), 0),
                    (0, ins(0, 4, 0, 30, 54), 0),
                ],
            );
            // Example 6 expects (y,RL,u)@[28,37) and (u,RL,v)@[29,31) after
            // coalescing the two (u,v) derivations [29,31) and [30,31).
            let res = inserts(&out);
            assert!(res.contains(&(3, 0, Interval::new(28, 37))), "{res:?}");
            assert!(res.contains(&(0, 1, Interval::new(29, 31))), "{res:?}");
            // The second (u,v) derivation [30,31) is covered ⇒ suppressed.
            assert_eq!(res.len(), 2, "{}: {res:?}", op.name());
        }
    }

    #[test]
    fn negative_tuple_cancels_result() {
        // Suppression off, as in deletion pipelines.
        for mut op in two_way(false) {
            let out = feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(2, 3, 1, 0, 10), 0)],
            );
            assert_eq!(inserts(&out).len(), 1, "{}", op.name());
            let out = feed(
                op.as_mut(),
                vec![(0, Delta::Delete(sgt(1, 2, 0, 0, 10)), 5)],
            );
            assert_eq!(out.len(), 1, "{}", op.name());
            assert!(out[0].is_delete());
            assert_eq!(out[0].sgt().src, VertexId(1));
            assert_eq!(out[0].sgt().trg, VertexId(3));
        }
    }

    #[test]
    fn purge_reclaims_expired_state() {
        for mut op in two_way(true) {
            feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(5, 6, 1, 0, 10), 0)],
            );
            assert_eq!(op.state_size(), 2, "{}", op.name());
            op.purge(10, &mut Vec::new());
            assert_eq!(op.state_size(), 0, "{}", op.name());
        }
    }

    #[test]
    fn single_input_projection() {
        // d(y, x) ← a(x, y): swap endpoints via a 1-input pattern.
        let spec = CompiledPattern::compile(1, &[], (Pos::trg(0), Pos::src(0)), Label(9));
        for mut op in both(spec, true) {
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert_eq!(inserts(&out), vec![(2, 1, Interval::new(0, 10))]);
        }
    }

    #[test]
    fn self_loop_constraint() {
        // d(x, x) ← a(x, x).
        let spec = CompiledPattern::compile(
            1,
            &[(Pos::src(0), Pos::trg(0))],
            (Pos::src(0), Pos::trg(0)),
            Label(9),
        );
        for mut op in both(spec, true) {
            let out = feed(op.as_mut(), vec![(0, ins(1, 2, 0, 0, 10), 0)]);
            assert!(out.is_empty(), "{}", op.name());
            let out = feed(op.as_mut(), vec![(0, ins(3, 3, 0, 0, 10), 0)]);
            assert_eq!(inserts(&out), vec![(3, 3, Interval::new(0, 10))]);
        }
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        // d(x, w) ← a(x, y), b(z, w): no join key.
        let spec = CompiledPattern::compile(2, &[], (Pos::src(0), Pos::trg(1)), Label(9));
        for mut op in both(spec, true) {
            let out = feed(
                op.as_mut(),
                vec![(0, ins(1, 2, 0, 0, 10), 0), (1, ins(7, 8, 1, 0, 10), 0)],
            );
            assert_eq!(inserts(&out), vec![(1, 8, Interval::new(0, 10))]);
        }
    }
}
