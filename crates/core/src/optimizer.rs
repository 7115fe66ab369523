//! Plan choice over the §5.4 plan space — a first step towards the
//! SGA-based query optimizer the paper names as ongoing work (§8: "(i)
//! designing an SGA-based query optimizer for the systematic exploration
//! of the rich plan space using SGA's transformation rules").
//!
//! [`choose_plan`] replays every candidate on a stream prefix and keeps
//! the one that did the least [`Engine::counted_work`]. The work is made of exact
//! counts that every engine keeps at every [`crate::obs::ObsLevel`], so
//! one query and prefix get the same plan across runs, obs levels and
//! builds. Each count weighs 1.

use crate::engine::{Engine, EngineOptions};
use crate::planner::Plan;
use sgq_types::InputStream;

/// The index of the least work. Ties go to the lower index, so the
/// canonical plan (index 0 of `enumerate_plans`) wins them.
pub fn least_work(work: &[u64]) -> usize {
    (0..work.len())
        .min_by_key(|&i| work[i])
        .expect("need at least one candidate plan")
}

/// The outcome of [`choose_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Index of the plan with the least counted work.
    pub best: usize,
    /// That plan's counted work on the prefix.
    pub work: u64,
}

/// Replays every candidate on `prefix`, one `process` call per edge as
/// `sgq run` ingests a stream, and returns the one with the least
/// [`Engine::counted_work`]. All candidates are result-equivalent by rule
/// soundness (checked by the `plan_equivalence` integration suite).
pub fn choose_plan(plans: &[Plan], prefix: &InputStream, opts: EngineOptions) -> Choice {
    let work: Vec<u64> = plans
        .iter()
        .map(|plan| {
            let mut engine = Engine::from_plan_with(plan, opts);
            for &sge in prefix.sges() {
                engine.process(sge);
            }
            engine.counted_work()
        })
        .collect();
    let best = least_work(&work);
    Choice {
        best,
        work: work[best],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsLevel;
    use crate::planner::plan_canonical;
    use crate::rewrite::enumerate_plans;
    use sgq_query::{parse_program, SgqQuery, WindowSpec};
    use sgq_types::{Sge, VertexId};

    fn q4_plan() -> Plan {
        let p = parse_program("Ans(x, y) <- (a b c)+(x, y).").unwrap();
        plan_canonical(&SgqQuery::new(p, WindowSpec::sliding(40)))
    }

    fn small_stream(plan: &Plan) -> InputStream {
        let a = plan.labels.get("a").unwrap();
        let b = plan.labels.get("b").unwrap();
        let c = plan.labels.get("c").unwrap();
        let mut s = InputStream::new();
        for i in 0..60u64 {
            let l = [a, b, c][(i % 3) as usize];
            s.push(Sge::new(VertexId(i % 7), VertexId((i + 1) % 7), l, i));
        }
        s
    }

    #[test]
    fn optimize_returns_an_equivalent_plan() {
        let plan = q4_plan();
        let plans = enumerate_plans(&plan, 8);
        let s = small_stream(&plan);
        let chosen = &plans[choose_plan(&plans, &s, EngineOptions::default()).best];
        let mut e1 = Engine::from_plan(&plan);
        let mut e2 = Engine::from_plan(chosen);
        e1.run(&s);
        e2.run(&s);
        // The window slides every tick: compare the answer at each.
        for t in 0..60 {
            assert_eq!(e1.answer_at(t), e2.answer_at(t), "t = {t}");
        }
    }

    #[test]
    fn choice_is_pinned_across_obs_levels() {
        let plan = q4_plan();
        let plans = enumerate_plans(&plan, 8);
        let s = small_stream(&plan);
        for obs in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Timing] {
            for _ in 0..2 {
                let opts = EngineOptions {
                    obs,
                    ..Default::default()
                };
                let choice = choose_plan(&plans, &s, opts);
                assert_eq!((choice.best, choice.work), (2, 2599), "{obs:?}");
            }
        }
    }
}
