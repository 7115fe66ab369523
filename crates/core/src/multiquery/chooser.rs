//! Cost-based shared-vs-dedicated planning at register time.
//!
//! Joining the shared structure is the host's default — the whole point of
//! the multi-query engine — but it is not free: a shared root pays the
//! host's routing/dedup tax on every emission, while a dedicated pipeline
//! pays for private copies of every derived operator the query could have
//! reused. [`decide`] weighs the two using the host's **measured**
//! per-operator cost (`OpStats::batch_nanos` via
//! `MultiQueryEngine::metrics_snapshot`, plus the routing/dedup phase
//! nanos the registry accumulates) when timing observability has collected
//! enough signal, and falls back to a deterministic static heuristic —
//! always share — when it has not.
//!
//! The decision must not make determinism flaky: measured nanos are
//! wall-clock and vary run to run, so dedication requires the measured
//! sharing tax to beat the dedicated estimate by a ≥ 2× margin *and* clear
//! an absolute per-epoch floor ([`ROUTE_TAX_FLOOR_NANOS`]) that test-scale
//! workloads sit far below. Under `SharingPolicy::AlwaysShare` /
//! `AlwaysDedicated` (or `SGQ_SHARING=share|dedicated`) the choice is
//! fully static.

use crate::engine::SharingPolicy;

/// Minimum measured per-epoch routing+dedup tax (nanos) before the
/// measured path may dedicate a plan. Keeps borderline (noise-dominated)
/// measurements from flipping structure between otherwise-identical runs.
pub const ROUTE_TAX_FLOOR_NANOS: u64 = 200_000;

/// Minimum epochs of timing signal before measurements are trusted.
pub const MIN_MEASURED_EPOCHS: u64 = 16;

/// What grounded a [`SubplanChoice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostBasis {
    /// Policy override or no (insufficient) measurements: the
    /// deterministic static heuristic decided.
    Static,
    /// Measured per-operator and per-phase cost decided.
    Measured,
}

/// The recorded outcome of register-time planning for one query's plan,
/// surfaced by `explain_analyze`.
#[derive(Debug, Clone, Copy)]
pub struct SubplanChoice {
    /// `true`: the plan's derived operators were instantiated privately.
    pub dedicated: bool,
    /// Estimated per-epoch cost of joining the shared structure (the
    /// routing + dedup tax), nanos. Zero under the static basis.
    pub est_shared_nanos: u64,
    /// Estimated per-epoch cost of going dedicated (re-running the
    /// derived operators this plan could have reused), nanos. Zero under
    /// the static basis.
    pub est_dedicated_nanos: u64,
    /// What grounded the decision.
    pub basis: CostBasis,
}

impl SubplanChoice {
    /// The static always-share choice (policy `Auto` without signal).
    pub fn static_shared() -> SubplanChoice {
        SubplanChoice {
            dedicated: false,
            est_shared_nanos: 0,
            est_dedicated_nanos: 0,
            basis: CostBasis::Static,
        }
    }

    /// One-line rendering for `explain_analyze`.
    pub fn describe(&self, policy: SharingPolicy) -> String {
        let mode = if self.dedicated {
            "dedicated"
        } else {
            "shared"
        };
        match self.basis {
            CostBasis::Static => format!("sharing: {mode} (policy {}, static)", policy.name()),
            CostBasis::Measured => format!(
                "sharing: {mode} (policy {}, measured: shared tax {}ns/epoch vs dedicated {}ns/epoch)",
                policy.name(),
                self.est_shared_nanos,
                self.est_dedicated_nanos,
            ),
        }
    }
}

/// Measured inputs to [`decide`], all per-host-lifetime totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostInputs {
    /// Epochs the host has executed (`ExecStats::epochs`).
    pub epochs: u64,
    /// Result-routing nanos accumulated by the registry (timing only).
    pub route_nanos: u64,
    /// Sink-dedup nanos accumulated by the registry (timing only).
    pub dedup_nanos: u64,
    /// Σ `batch_nanos` over the live derived operators this plan would
    /// reuse by sharing (its structural overlap with the running fleet) —
    /// the work a dedicated pipeline would have to repeat.
    pub reusable_nanos: u64,
    /// Live registrations sharing the host (the routing tax is fleet-wide;
    /// one more query pays roughly its per-query share).
    pub queries: u64,
}

/// Picks shared vs dedicated for a plan about to register. Pure and
/// deterministic in its inputs; see the module docs for how measured
/// nondeterminism is kept away from the decision boundary.
pub fn decide(policy: SharingPolicy, inputs: Option<CostInputs>) -> SubplanChoice {
    match policy {
        SharingPolicy::AlwaysShare => SubplanChoice {
            dedicated: false,
            ..SubplanChoice::static_shared()
        },
        SharingPolicy::AlwaysDedicated => SubplanChoice {
            dedicated: true,
            ..SubplanChoice::static_shared()
        },
        SharingPolicy::Auto => {
            let Some(inputs) = inputs else {
                return SubplanChoice::static_shared();
            };
            if inputs.epochs < MIN_MEASURED_EPOCHS {
                return SubplanChoice::static_shared();
            }
            let per_query = inputs.queries.max(1);
            let est_shared = (inputs.route_nanos + inputs.dedup_nanos) / inputs.epochs / per_query;
            let est_dedicated = inputs.reusable_nanos / inputs.epochs;
            SubplanChoice {
                dedicated: est_shared >= ROUTE_TAX_FLOOR_NANOS && est_shared > 2 * est_dedicated,
                est_shared_nanos: est_shared,
                est_dedicated_nanos: est_dedicated,
                basis: CostBasis::Measured,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_overrides_are_static() {
        assert!(!decide(SharingPolicy::AlwaysShare, None).dedicated);
        let d = decide(SharingPolicy::AlwaysDedicated, None);
        assert!(d.dedicated);
        assert_eq!(d.basis, CostBasis::Static);
    }

    #[test]
    fn auto_without_signal_shares_statically() {
        let c = decide(SharingPolicy::Auto, None);
        assert!(!c.dedicated);
        assert_eq!(c.basis, CostBasis::Static);
        let young = CostInputs {
            epochs: MIN_MEASURED_EPOCHS - 1,
            route_nanos: u64::MAX / 4,
            ..Default::default()
        };
        assert_eq!(
            decide(SharingPolicy::Auto, Some(young)).basis,
            CostBasis::Static
        );
    }

    #[test]
    fn measured_tax_dominating_reuse_dedicates() {
        let inputs = CostInputs {
            epochs: 100,
            route_nanos: 60_000_000,    // 600µs/epoch routing
            dedup_nanos: 40_000_000,    // 400µs/epoch dedup
            reusable_nanos: 10_000_000, // 100µs/epoch reusable operators
            queries: 1,
        };
        let c = decide(SharingPolicy::Auto, Some(inputs));
        assert!(c.dedicated, "{c:?}");
        assert_eq!(c.basis, CostBasis::Measured);
        assert_eq!(c.est_shared_nanos, 1_000_000);
        assert_eq!(c.est_dedicated_nanos, 100_000);
    }

    #[test]
    fn heavy_reuse_keeps_sharing() {
        let inputs = CostInputs {
            epochs: 100,
            route_nanos: 60_000_000,
            dedup_nanos: 40_000_000,
            reusable_nanos: 80_000_000, // sharing saves 800µs/epoch
            queries: 1,
        };
        assert!(!decide(SharingPolicy::Auto, Some(inputs)).dedicated);
    }

    #[test]
    fn sub_floor_tax_never_dedicates() {
        // Clear 2x margin but the absolute tax is test-scale noise.
        let inputs = CostInputs {
            epochs: 1_000,
            route_nanos: 50_000_000, // 50µs/epoch — under the 200µs floor
            dedup_nanos: 0,
            reusable_nanos: 0,
            queries: 1,
        };
        assert!(!decide(SharingPolicy::Auto, Some(inputs)).dedicated);
    }

    #[test]
    fn fleet_share_amortizes_tax() {
        // The same absolute tax split across a big fleet is per-query
        // cheap: stay shared.
        let inputs = CostInputs {
            epochs: 100,
            route_nanos: 60_000_000,
            dedup_nanos: 40_000_000,
            reusable_nanos: 10_000_000,
            queries: 64,
        };
        assert!(!decide(SharingPolicy::Auto, Some(inputs)).dedicated);
    }
}
