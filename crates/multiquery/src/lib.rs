//! # sgq-multiquery — shared-subplan execution of many persistent queries
//!
//! The multi-query host lives in [`sgq_core::multiquery`], beside the
//! single-query [`Engine`](sgq_core::Engine) that is its one-registration
//! case; this crate re-exports it under its own name. See that module for
//! the design: cross-query plan canonicalization ([`canon`]), runtime
//! register/deregister over one shared dataflow, route-once result sinks
//! and register-time catch-up.
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

pub use sgq_core::multiquery::*;
