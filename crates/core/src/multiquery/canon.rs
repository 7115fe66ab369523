//! Cross-query plan canonicalization.
//!
//! Two queries registered by different users name things differently: one
//! writes `FP(x, y) <- follows+(x, y) as FP`, another inlines the same
//! closure, and the planner mints distinct fresh labels for each. Their
//! SGA expressions are therefore *structurally equal modulo output
//! naming*, which defeats the engine's structural-equality memo.
//!
//! The [`Canonicalizer`] rewrites every registered plan into one shared
//! label namespace:
//!
//! * **EDB labels** are re-interned **by name** — `follows` means the same
//!   input-stream partition in every query.
//! * **Derived labels** (operator outputs) are replaced by canonical
//!   labels chosen per *structure*: the first time a given operator shape
//!   (with canonicalized children) is seen, a fresh shared label is
//!   minted; every later structurally-equal occurrence — in the same query
//!   or any other — reuses it.
//! * **PATH regexes** are re-homed: each alphabet symbol is rewritten to
//!   the canonical output label of the corresponding input expression
//!   (the planner orders PATH inputs by regex alphabet).
//!
//! After canonicalization, subplans that are structurally equal across
//! query boundaries are *identical* expressions, so lowering them through
//! one shared [`Dataflow`](crate::dataflow::Dataflow) instantiates each once —
//! the cross-query generalization of the engine's intra-query dedup.
//! Every registration goes through [`Canonicalizer::canonicalize`].
//!
//! Sharing an operator between queries that named its output differently
//! is sound because downstream operators are label-agnostic: PATTERN /
//! UNION / FILTER consume inputs positionally, and PATH consumes labels
//! *through its regex*, which is rewritten into the same canonical
//! namespace. Result tuples are re-labelled per query at the sink.

use crate::algebra::SgaExpr;
use crate::planner::Plan;
use sgq_types::{FxHashMap, Label, LabelInterner};

/// Stand-in output label used when keying an operator shape before its
/// canonical label is known. Never interned, never observable.
const PLACEHOLDER: Label = Label(u32::MAX);

/// Rewrites plans from per-query label namespaces into one shared,
/// structure-keyed namespace (see the module docs).
#[derive(Debug, Default)]
pub struct Canonicalizer {
    labels: LabelInterner,
    /// Operator shape (canonical children, placeholder output label) →
    /// the canonical label assigned to that shape.
    structural: FxHashMap<SgaExpr, Label>,
}

impl Canonicalizer {
    /// An empty canonicalizer with a fresh shared namespace.
    pub fn new() -> Canonicalizer {
        Canonicalizer::default()
    }

    /// A canonicalizer whose namespace starts as `labels` (a plan's own
    /// interner), so that plan can run verbatim: its EDB and derived labels
    /// keep their ids, and later plans re-intern EDB names onto them.
    pub(crate) fn adopting(labels: LabelInterner) -> Canonicalizer {
        Canonicalizer {
            labels,
            structural: FxHashMap::default(),
        }
    }

    /// The shared label namespace: EDB names from every registered query
    /// plus canonical derived labels.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Interns a result-tag label (a query's answer-predicate name) in the
    /// shared namespace.
    pub fn answer_label(&mut self, name: &str) -> Label {
        self.labels.intern(name)
    }

    /// Rewrites `plan` into the shared namespace. Structurally equal
    /// subplans (across all plans ever canonicalized here) come out as
    /// identical expressions.
    pub fn canonicalize(&mut self, plan: &Plan) -> SgaExpr {
        self.canon(&plan.expr, &plan.labels)
    }

    fn canon(&mut self, expr: &SgaExpr, src: &LabelInterner) -> SgaExpr {
        match expr {
            SgaExpr::WScan {
                label,
                window,
                slide,
            } => SgaExpr::WScan {
                label: self.labels.input_label(src.name(*label)),
                window: *window,
                slide: *slide,
            },
            SgaExpr::Filter { input, preds } => SgaExpr::Filter {
                input: Box::new(self.canon(input, src)),
                preds: preds.clone(),
            },
            SgaExpr::Union { inputs, .. } => {
                let inputs: Vec<SgaExpr> = inputs.iter().map(|i| self.canon(i, src)).collect();
                let label = self.structural_label(SgaExpr::Union {
                    inputs: inputs.clone(),
                    label: PLACEHOLDER,
                });
                SgaExpr::Union { inputs, label }
            }
            SgaExpr::Pattern {
                inputs,
                conditions,
                output,
                ..
            } => {
                let inputs: Vec<SgaExpr> = inputs.iter().map(|i| self.canon(i, src)).collect();
                let label = self.structural_label(SgaExpr::Pattern {
                    inputs: inputs.clone(),
                    conditions: conditions.clone(),
                    output: *output,
                    label: PLACEHOLDER,
                });
                SgaExpr::Pattern {
                    inputs,
                    conditions: conditions.clone(),
                    output: *output,
                    label,
                }
            }
            SgaExpr::Path { inputs, regex, .. } => {
                let inputs: Vec<SgaExpr> = inputs.iter().map(|i| self.canon(i, src)).collect();
                // The planner orders PATH inputs by the regex alphabet and
                // each input emits tuples labelled with its alphabet
                // symbol, so symbol i re-homes to inputs[i]'s new label.
                let alphabet = regex.alphabet();
                debug_assert_eq!(alphabet.len(), inputs.len(), "planner invariant");
                let mapping: FxHashMap<Label, Label> = alphabet
                    .iter()
                    .zip(&inputs)
                    .map(|(old, input)| (*old, input.output_label()))
                    .collect();
                let regex = regex.map_labels(&mut |l| mapping[&l]);
                let label = self.structural_label(SgaExpr::Path {
                    inputs: inputs.clone(),
                    regex: regex.clone(),
                    label: PLACEHOLDER,
                });
                SgaExpr::Path {
                    inputs,
                    regex,
                    label,
                }
            }
        }
    }

    fn structural_label(&mut self, shape: SgaExpr) -> Label {
        if let Some(&l) = self.structural.get(&shape) {
            return l;
        }
        let l = self.labels.fresh_derived("shared");
        self.structural.insert(shape, l);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_canonical;
    use sgq_query::{parse_program, SgqQuery, WindowSpec};

    fn plan(text: &str, window: u64) -> Plan {
        let p = parse_program(text).unwrap();
        plan_canonical(&SgqQuery::new(p, WindowSpec::sliding(window)))
    }

    #[test]
    fn identical_plans_canonicalize_identically() {
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 24));
        let b = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 24));
        assert_eq!(a, b);
    }

    #[test]
    fn renamed_heads_share_structure() {
        // Same body, different answer predicates and alias spellings.
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f+(x, y) as FP.", 24));
        let b = c.canonicalize(&plan("Out(x, y) <- f+(x, y).", 24));
        // The alias form wraps the PATH in a relabelling UNION; its inner
        // PATH must equal the inline form's root PATH.
        let inner = match &a {
            SgaExpr::Union { inputs, .. } => inputs[0].clone(),
            other => other.clone(),
        };
        let inline = match &b {
            SgaExpr::Union { inputs, .. } => inputs[0].clone(),
            other => other.clone(),
        };
        assert_eq!(inner, inline, "\n{a:?}\nvs\n{b:?}");
    }

    #[test]
    fn different_windows_stay_distinct() {
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 24));
        let b = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 48));
        assert_ne!(a, b);
    }

    #[test]
    fn different_regexes_stay_distinct() {
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 24));
        let b = c.canonicalize(&plan("Ans(x, y) <- (f g)+(x, y).", 24));
        assert_ne!(a, b);
    }

    #[test]
    fn top_level_star_and_plus_unify() {
        // Empty paths are never reported, so a top-level `f*` coincides
        // with `f+`; the planner's ε-free normalisation makes the two
        // S-PATHs one shared operator.
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f+(x, y).", 24));
        let b = c.canonicalize(&plan("Ans(x, y) <- f*(x, y).", 24));
        assert_eq!(a, b);
    }

    #[test]
    fn edb_labels_unify_by_name() {
        let mut c = Canonicalizer::new();
        let a = c.canonicalize(&plan("Ans(x, y) <- f(x, z), g(z, y).", 24));
        let b = c.canonicalize(&plan("Ans(x, y) <- g+(x, y).", 24));
        let g = c.labels().get("g").expect("g interned once");
        let mut scans_a = Vec::new();
        a.visit(&mut |e| {
            if let SgaExpr::WScan { label, .. } = e {
                scans_a.push(*label);
            }
        });
        let mut scans_b = Vec::new();
        b.visit(&mut |e| {
            if let SgaExpr::WScan { label, .. } = e {
                scans_b.push(*label);
            }
        });
        assert!(scans_a.contains(&g));
        assert_eq!(scans_b, vec![g]);
    }

    #[test]
    fn q6_is_a_subplan_of_q7() {
        // Q7's RL rule is structurally Q6's answer rule: after
        // canonicalization the whole Q6 pattern is shared inside Q7.
        let mut c = Canonicalizer::new();
        let q6 = c.canonicalize(&plan("Ans(x, y) <- a2q+(x, y), c2q(x, m), c2a(m, y).", 24));
        let q7 = c.canonicalize(&plan(
            "RL(x, y)  <- a2q+(x, y), c2q(x, m), c2a(m, y).
             Ans(x, m) <- RL+(x, y), c2a(m, y).",
            24,
        ));
        // Q6's root (possibly under a relabel UNION) appears inside Q7.
        let q6_core = match &q6 {
            SgaExpr::Union { inputs, .. } if inputs.len() == 1 => &inputs[0],
            other => other,
        };
        let mut found = false;
        q7.visit(&mut |e| {
            if e == q6_core {
                found = true;
            }
        });
        assert!(found, "Q6 core not shared into Q7:\n{q6:#?}\n{q7:#?}");
    }
}
