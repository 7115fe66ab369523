//! # sgq-core — the Streaming Graph Algebra and query processor
//!
//! The primary contribution of *"Evaluating Complex Queries on Streaming
//! Graphs"*: a general-purpose streaming graph query processor built on an
//! algebraic foundation.
//!
//! * [`algebra`] — the logical SGA operators (§5.1): WSCAN, FILTER, UNION,
//!   PATTERN and PATH, closed over streaming graphs and composable (§5.3).
//! * [`planner`] — Algorithm SGQParser (§5.2): canonical translation of a
//!   validated SGQ into an SGA expression.
//! * [`rewrite`] — the transformation rules of §5.4 and plan-space
//!   enumeration used by the §7.4 experiments.
//! * [`optimizer`] — static cost pre-ranking + empirical calibration over
//!   the plan space (the §8 future-work optimizer's first step).
//! * [`physical`] — non-blocking physical operators (§6.2): symmetric
//!   hash-join PATTERN, the S-PATH direct-approach Δ-PATH operator, and the
//!   negative-tuple PATH baseline of \[57\], plus explicit-deletion support.
//! * [`dataflow`] — reusable lowering/delivery machinery: logical plans to
//!   physical operator graphs with structural subplan deduplication (across
//!   plans as well as within one), push-based delta delivery, and operator
//!   retirement.
//! * [`multiquery`] — the host that owns execution (§6.1): N persistent
//!   queries over one shared dataflow, epoch formation at slide
//!   boundaries, event-time watermarks, direct-approach purging, and the
//!   deduplicating per-root result sinks.
//! * [`engine`] — the single-query [`Engine`]: the host with one
//!   registration, plus the snapshot-reducibility query surface used for
//!   testing and the paper's metrics drivers.
//! * [`metrics`] — throughput / per-slide tail-latency accounting (§7.1.1).
//! * [`obs`] — flight-recorder observability: per-operator counters, log2
//!   latency histograms, trace sinks, and the metrics-snapshot exporter,
//!   all gated by [`obs::ObsLevel`] and excluded from the determinism
//!   contract.
//!
//! ## Quick start
//!
//! ```
//! use sgq_core::engine::Engine;
//! use sgq_query::{parse_program, SgqQuery, WindowSpec};
//! use sgq_types::Sge;
//!
//! // recentLiker-style query: who is connected by follows+ and liked a post?
//! let program = parse_program(
//!     "Ans(x, y) <- f+(x, y), l(x, m), p(y, m).",
//! ).unwrap();
//! let query = SgqQuery::new(program, WindowSpec::sliding(24));
//! let mut engine = Engine::from_query(&query);
//!
//! let f = engine.labels().get("f").unwrap();
//! let l = engine.labels().get("l").unwrap();
//! let p = engine.labels().get("p").unwrap();
//! engine.process(sgq_types::Sge::raw(1, 2, f, 0));
//! engine.process(Sge::raw(2, 9, p, 1));
//! let results = engine.process(Sge::raw(1, 9, l, 2));
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].src.0, 1);
//! assert_eq!(results[0].trg.0, 2);
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod dataflow;
pub mod engine;
pub mod metrics;
pub mod multiquery;
pub mod obs;
pub mod optimizer;
pub mod physical;
pub mod planner;
pub mod rewrite;

pub use algebra::{FilterPred, Pos, SgaExpr, Side};
pub use dataflow::{Dataflow, DataflowNode};
pub use engine::{Engine, EngineOptions, PathImpl, PatternImpl};
pub use metrics::{LatencyProfile, RunStats};
pub use obs::{MetricsSnapshot, ObsLevel, TraceEvent, TraceSink};
pub use planner::{plan_canonical, Plan};
