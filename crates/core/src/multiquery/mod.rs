//! The multi-query host: shared-subplan execution of many persistent
//! queries over one stream, and the one owner of the epoch, purge and sink
//! loop.
//!
//! The paper's engine serves **one** SGQ; its Figure 8 machinery already
//! deduplicates structurally-equal subplans *within* that query. This
//! module generalizes the same lever **across query boundaries** — the
//! decisive optimization for a host serving many concurrent users over one
//! stream (cf. Zervakis et al., *Efficient Continuous Multi-Query
//! Processing over Graph Streams*):
//!
//! * [`canon`] — rewrites every registered plan into one shared,
//!   structure-keyed label namespace, so subplans that are equal modulo
//!   output naming become *identical* expressions.
//! * [`MultiQueryEngine`] — hosts N persistent queries over one
//!   [`Dataflow`](crate::dataflow::Dataflow): runtime
//!   [`register`](MultiQueryEngine::register) /
//!   [`deregister`](MultiQueryEngine::deregister), single shared
//!   instantiation of equal subplans (window scans, PATH automata, PATTERN
//!   join subtrees) with fan-out to all subscribing queries, per-query
//!   result routing (`(QueryId, Sgt)` emissions, cursor-based
//!   [`drain`](MultiQueryEngine::drain)), and shared purge/slide
//!   bookkeeping (the host ticks at the gcd of all registered ticks).
//!
//! The single-query [`Engine`](crate::engine::Engine) is this host with
//! one registration, so epoch chunking at slide boundaries, the purge
//! cadence and the deduplicating root sinks exist once.
//!
//! The host runs the shared dataflow's one serial level-ordered sweep per
//! epoch. The level schedule is rebuilt on every `lower`/`retire`, so
//! registration churn never perturbs determinism: per-query result logs
//! and executor counters after a mid-stream deregister/re-register match
//! a host that never churned (asserted by
//! `tests/multiquery_equivalence.rs`).

pub mod canon;
pub mod chooser;
pub mod engine;
mod registry;
mod sink;

pub use canon::Canonicalizer;
pub use chooser::{CostBasis, SubplanChoice};
pub use engine::MultiQueryEngine;
pub use registry::QueryId;
pub use sink::SinkCensus;
