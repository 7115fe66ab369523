//! # sgq-multiquery — shared-subplan execution of many persistent queries
//!
//! The paper's engine serves **one** SGQ per [`Engine`](sgq_core::Engine);
//! its Figure 8 machinery already deduplicates structurally-equal subplans
//! *within* that query. This crate generalizes the same lever **across
//! query boundaries** — the decisive optimization for a host serving many
//! concurrent users over one stream (cf. Zervakis et al., *Efficient
//! Continuous Multi-Query Processing over Graph Streams*):
//!
//! * [`canon`] — rewrites every registered plan into one shared,
//!   structure-keyed label namespace, so subplans that are equal modulo
//!   output naming become *identical* expressions.
//! * [`MultiQueryEngine`] — hosts N persistent queries over one
//!   [`Dataflow`](sgq_core::dataflow::Dataflow): runtime
//!   [`register`](MultiQueryEngine::register) /
//!   [`deregister`](MultiQueryEngine::deregister), single shared
//!   instantiation of equal subplans (window scans, PATH automata, PATTERN
//!   join subtrees) with fan-out to all subscribing queries, per-query
//!   result routing (`(QueryId, Sgt)` emissions, cursor-based
//!   [`drain`](MultiQueryEngine::drain)), and shared purge/slide
//!   bookkeeping (the host ticks at the gcd of all registered ticks).
//!
//! The host inherits the executor's full parallelism contract: with
//! `EngineOptions::workers` / `EngineOptions::shards` > 1 the shared
//! dataflow runs level-pooled and label-sharded epochs, and because
//! shard closures are rebuilt on every `lower`/`retire` — exactly like
//! the level schedule — registration churn never perturbs determinism:
//! per-query result logs and executor fingerprints are bit-identical at
//! any `(shards, workers)` combination, including across mid-stream
//! deregister/re-register (asserted by `tests/sharding_equivalence.rs`).
//!
//! ## Quick start
//!
//! ```
//! use sgq_multiquery::MultiQueryEngine;
//! use sgq_query::{parse_program, SgqQuery, WindowSpec};
//! use sgq_types::Sge;
//!
//! let mut host = MultiQueryEngine::new();
//! // Two users register overlapping queries: both need follows+.
//! let alice = host.register(&SgqQuery::new(
//!     parse_program("Ans(x, y) <- follows+(x, y).").unwrap(),
//!     WindowSpec::sliding(24),
//! ));
//! let bob = host.register(&SgqQuery::new(
//!     parse_program("Reach(x, y) <- follows+(x, y), posts(y, m).").unwrap(),
//!     WindowSpec::sliding(24),
//! ));
//!
//! let follows = host.labels().get("follows").unwrap();
//! let posts = host.labels().get("posts").unwrap();
//! host.process(Sge::raw(1, 2, follows, 0));
//! host.process(Sge::raw(2, 3, follows, 1));
//! let out = host.process(Sge::raw(3, 9, posts, 2));
//! // Alice saw the follows+ pairs; Bob's join fires on the posts edge.
//! assert!(host.results(alice).iter().any(|s| s.trg.0 == 3));
//! assert!(out.iter().any(|(q, s)| *q == bob && s.src.0 == 1));
//! ```

#![warn(missing_docs)]

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
