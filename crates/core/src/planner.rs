//! Algorithm **SGQParser** (§5.2): canonical translation of an SGQ into an
//! SGA expression.
//!
//! The translation processes predicates in the topological order of the
//! program's dependency graph: every EDB label becomes a `WSCAN`, every
//! path atom becomes a `PATH` (cached under its alias if one is given),
//! every rule becomes a `PATTERN`, and multiple rules with the same head
//! are merged by `UNION` — exactly the cases of the paper's algorithm.
//! Single-atom rules that only relabel are emitted without a trivial
//! PATTERN wrapper (a `UNION` relabel, or the PATH labeled directly).

use crate::algebra::{Pos, SgaExpr};
use sgq_query::{BodyAtom, Rule, SgqQuery, WindowSpec};
use sgq_types::{FxHashMap, Label, LabelInterner};

/// A logical plan: the expression for the `Answer` predicate together with
/// the label namespace it references (including planner-minted labels).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The root SGA expression.
    pub expr: SgaExpr,
    /// Label namespace (program labels plus fresh intermediate labels).
    pub labels: LabelInterner,
    /// The answer label the root produces.
    pub answer: Label,
    /// The window specification the plan was built for.
    pub window: WindowSpec,
}

impl Plan {
    /// Pretty-prints the plan tree.
    pub fn display(&self) -> String {
        self.expr.display(&self.labels)
    }
}

/// Translates an SGQ into its canonical SGA expression (Algorithm
/// SGQParser). Infallible for validated programs.
pub fn plan_canonical(query: &SgqQuery) -> Plan {
    let program = &query.program;
    let window = query.window;
    let mut labels = program.labels().clone();
    let mut exp: FxHashMap<Label, SgaExpr> = FxHashMap::default();

    // Line 6–7: each EDB predicate becomes a WSCAN, parameterised by the
    // label's window (streams may be windowed individually, Figure 7).
    for &l in program.edb_labels() {
        exp.insert(l, crate::algebra::wscan(l, query.window_for(l)));
    }

    // Lines 8–17: IDB predicates in topological order.
    for &d in program.idb_topological() {
        let rules: Vec<&Rule> = program.rules_for(d).collect();
        if rules.is_empty() {
            // A path-atom alias: cache its PATH expression (line 9).
            if let Some((regex, _)) = find_alias(program, d) {
                // Top-level `R*` ≡ `R+` (empty paths are never reported),
                // so normalise to the ε-free form; `l*` and `l+` atoms
                // then lower to one shared S-PATH.
                let regex = regex.non_empty();
                let inputs = regex
                    .alphabet()
                    .iter()
                    .map(|l| exp[l].clone())
                    .collect::<Vec<_>>();
                exp.insert(
                    d,
                    SgaExpr::Path {
                        inputs,
                        regex,
                        label: d,
                    },
                );
            }
            continue;
        }
        // Lines 10–17: one PATTERN per rule, UNION over rules.
        let mut branches: Vec<SgaExpr> = rules
            .iter()
            .map(|r| rule_to_expr(r, d, &exp, &mut labels))
            .collect();
        let merged = if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            SgaExpr::Union {
                inputs: branches,
                label: d,
            }
        };
        exp.insert(d, merged);
    }

    Plan {
        expr: exp
            .remove(&program.answer())
            .expect("answer predicate was validated to exist"),
        labels,
        answer: program.answer(),
        window,
    }
}

fn find_alias(program: &sgq_query::RqProgram, alias: Label) -> Option<(sgq_automata::Regex, ())> {
    for r in program.rules() {
        for a in &r.body {
            if let BodyAtom::Path {
                regex,
                alias: Some(al),
                ..
            } = a
            {
                if *al == alias {
                    return Some((regex.clone(), ()));
                }
            }
        }
    }
    None
}

/// Lowers one rule to a PATTERN (line 13), with the single-atom relabel
/// shortcuts described in the module docs.
fn rule_to_expr(
    rule: &Rule,
    head_label: Label,
    exp: &FxHashMap<Label, SgaExpr>,
    labels: &mut LabelInterner,
) -> SgaExpr {
    // Per-atom input expressions.
    let inputs: Vec<SgaExpr> = rule
        .body
        .iter()
        .map(|atom| match atom {
            BodyAtom::Rel { label, preds, .. } => {
                let scan = exp[label].clone();
                if preds.is_empty() {
                    scan
                } else {
                    // Attribute predicates sit directly above the WSCAN
                    // (the §5.4 FILTER/WSCAN commutation places them at
                    // the earliest point where properties are available).
                    SgaExpr::Filter {
                        input: Box::new(scan),
                        preds: preds
                            .iter()
                            .cloned()
                            .map(crate::algebra::FilterPred::Prop)
                            .collect(),
                    }
                }
            }
            BodyAtom::Path { regex, alias, .. } => {
                if let Some(al) = alias {
                    exp[al].clone()
                } else {
                    // Same ε-free normalisation as the alias site above.
                    let regex = regex.non_empty();
                    let fresh = labels.fresh_derived("path");
                    SgaExpr::Path {
                        inputs: regex.alphabet().iter().map(|l| exp[l].clone()).collect(),
                        regex,
                        label: fresh,
                    }
                }
            }
        })
        .collect();

    // Map variables to the positions where they occur.
    let mut positions: Vec<(&str, Pos)> = Vec::new();
    for (i, atom) in rule.body.iter().enumerate() {
        let (s, t) = atom.vars();
        positions.push((s, Pos::src(i)));
        positions.push((t, Pos::trg(i)));
    }
    let first_pos = |v: &str| -> Pos {
        positions
            .iter()
            .find(|(name, _)| *name == v)
            .map(|(_, p)| *p)
            .expect("head variables are body-bound (validated)")
    };

    // GenPred (line 12): equate every later occurrence with the first.
    let mut conditions: Vec<(Pos, Pos)> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (name, pos) in &positions {
        match seen.iter().position(|s| s == name) {
            Some(_) => conditions.push((first_pos(name), *pos)),
            None => seen.push(name),
        }
    }

    let output = (first_pos(&rule.head.src), first_pos(&rule.head.trg));

    // Shortcut: a single-atom rule with identity output needs no PATTERN.
    if rule.body.len() == 1 && conditions.is_empty() && output == (Pos::src(0), Pos::trg(0)) {
        let inner = inputs.into_iter().next().unwrap();
        return match inner {
            // Label the PATH directly with the head predicate.
            SgaExpr::Path {
                inputs,
                regex,
                label,
            } if !is_alias_ref(rule) => {
                let _ = label;
                SgaExpr::Path {
                    inputs,
                    regex,
                    label: head_label,
                }
            }
            other => SgaExpr::Union {
                inputs: vec![other],
                label: head_label,
            },
        };
    }

    SgaExpr::Pattern {
        inputs,
        conditions,
        output,
        label: head_label,
    }
}

/// Whether the rule's single atom is an alias reference (whose cached PATH
/// must keep its own label so other rules can share it).
fn is_alias_ref(rule: &Rule) -> bool {
    matches!(
        rule.body.first(),
        Some(BodyAtom::Path { alias: Some(_), .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_query::{parse_program, SgqQuery, WindowSpec};

    fn plan_of(text: &str, window: u64) -> Plan {
        let p = parse_program(text).unwrap();
        plan_canonical(&SgqQuery::new(p, WindowSpec::sliding(window)))
    }

    #[test]
    fn q1_is_a_single_path_over_wscan() {
        let plan = plan_of("Ans(x, y) <- a*(x, y).", 24);
        match &plan.expr {
            SgaExpr::Path { inputs, label, .. } => {
                assert_eq!(*label, plan.answer);
                assert!(matches!(inputs[0], SgaExpr::WScan { window: 24, .. }));
            }
            other => panic!("expected PATH, got {other:?}"),
        }
    }

    #[test]
    fn q4_canonical_matches_paper() {
        // §7.4: canonical SGA for Q4 is P_{d+}(⋈(S_a, S_b, S_c)) when the
        // base pattern is written as a rule; as a single regex atom the
        // canonical plan is the PATH over three scans (plan P1). Check the
        // rule form here.
        let plan = plan_of(
            "T(x, y)   <- a(x, m1), b(m1, m2), c(m2, y).
             Ans(x, y) <- T+(x, y).",
            24,
        );
        match &plan.expr {
            SgaExpr::Path { inputs, .. } => {
                assert_eq!(inputs.len(), 1);
                assert!(matches!(inputs[0], SgaExpr::Pattern { .. }));
            }
            other => panic!("expected PATH over PATTERN, got {other:?}"),
        }
    }

    #[test]
    fn example8_structure() {
        // Example 8 / Figure 8 (left): Answer = PATTERN(PATH_{RL+}(PATTERN(
        // W(S_l), W(S_p), PATH_{f+}(W(S_f)))), W(S_p)).
        let plan = plan_of(
            "RL(u1, u2)   <- likes(u1, m1), follows+(u1, u2), posts(u2, m1).
             Answer(u, m) <- RL+(u, v), posts(v, m).",
            24,
        );
        let text = plan.display();
        assert!(text.contains("PATTERN"), "{text}");
        assert!(text.contains("PATH"), "{text}");
        assert!(text.contains("WSCAN[T=24,β=1](S_likes)"), "{text}");
        assert!(text.contains("WSCAN[T=24,β=1](S_follows)"), "{text}");
        // The outer pattern joins the RL+ path with posts.
        match &plan.expr {
            SgaExpr::Pattern { inputs, .. } => {
                assert_eq!(inputs.len(), 2);
                assert!(matches!(inputs[0], SgaExpr::Path { .. }));
                assert!(matches!(inputs[1], SgaExpr::WScan { .. }));
            }
            other => panic!("expected outer PATTERN, got {other:?}"),
        }
    }

    #[test]
    fn union_for_multiple_rules() {
        let plan = plan_of(
            "ACQ(x, y) <- f(x, y).
             ACQ(x, y) <- l(x, m), p(y, m).
             Ans(x, y) <- ACQ(x, y).",
            24,
        );
        // Ans relabels the ACQ subplan, itself a UNION of two rule branches.
        match &plan.expr {
            SgaExpr::Union { inputs, label } => {
                assert_eq!(*label, plan.answer);
                assert_eq!(inputs.len(), 1);
                assert!(matches!(&inputs[0], SgaExpr::Union { inputs, .. } if inputs.len() == 2));
            }
            other => panic!("expected UNION, got {other:?}"),
        }
    }

    #[test]
    fn join_conditions_from_shared_vars() {
        // Q5: RR(m1,m2) <- a(x,y), b(m1,x), b(m2,y), c(m2,m1)
        let plan = plan_of("RR(m1, m2) <- a(x, y), b(m1, x), b(m2, y), c(m2, m1).", 24);
        match &plan.expr {
            SgaExpr::Pattern {
                conditions, output, ..
            } => {
                // x: trg1 = trg2; y: trg1(of a)=... — 4 shared variables.
                assert_eq!(conditions.len(), 4);
                assert_eq!(*output, (Pos::src(1), Pos::src(2)));
            }
            other => panic!("expected PATTERN, got {other:?}"),
        }
    }

    #[test]
    fn alias_shares_one_path() {
        let plan = plan_of(
            "A(x, y)  <- f+(x, y) as FP, l(x, y).
             B(x, y)  <- f+(x, y) as FP, p(x, y).
             Ans(x, y) <- A(x, y).
             Ans(x, y) <- B(x, y).",
            24,
        );
        // Both A and B reference the same FP-labelled PATH subtree; the
        // engine deduplicates them into one physical operator.
        let mut fp_count = 0;
        plan.expr.visit(&mut |e| {
            if let SgaExpr::Path { label, .. } = e {
                if plan.labels.name(*label) == "FP" {
                    fp_count += 1;
                }
            }
        });
        assert_eq!(fp_count, 2, "two structural references to the shared FP");
    }

    #[test]
    fn self_loop_variable_becomes_condition() {
        let plan = plan_of("Ans(x, x) <- a(x, x).", 24);
        match &plan.expr {
            SgaExpr::Pattern { conditions, .. } => {
                assert_eq!(conditions, &vec![(Pos::src(0), Pos::trg(0))]);
            }
            other => panic!("expected PATTERN, got {other:?}"),
        }
    }
}
