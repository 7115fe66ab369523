//! # sgq-datagen — synthetic streaming graphs and the paper's workloads
//!
//! The paper evaluates on the StackOverflow temporal graph and the LDBC
//! SNB update stream (§7.1.2). Neither is redistributable here, so this
//! crate generates seeded synthetic streams that preserve the structural
//! properties the paper's analysis depends on:
//!
//! * [`so`] — a StackOverflow-like stream: one vertex class, three edge
//!   labels (`a2q`, `c2q`, `c2a`), heavy-tailed degrees via preferential
//!   attachment and deliberate cyclicity ("its cyclic nature causes a high
//!   number of intermediate results and resulting paths; so it is the most
//!   challenging one").
//! * [`snb`] — an LDBC SNB-like stream: persons and messages, `knows`
//!   (cyclic community graph), `likes`, `hasCreator`, and a **tree-shaped**
//!   `replyOf` ("the tree-shaped structure of replyOf edges in SNB, where
//!   there is only one path between a pair of vertices").
//! * [`workloads`] — Table 1's Q1–Q7 instantiated per dataset, plus the
//!   label-resolution glue between generated streams and query programs.
//! * [`uniform`] — a small uniform random-graph stream for tests.
//! * [`zipf`] — Zipf-skewed label selection, the shared machinery behind
//!   the generators' `skew` knobs, and a many-label skewed stream.
//! * [`mod@feed`] — the one stream-feeding code path shared by the examples,
//!   the repro harness, the `sgq-serve` client, and the tests.
//!
//! All generators are deterministic for a given seed.

#![warn(missing_docs)]

pub mod feed;
pub mod io;
pub mod snb;
pub mod so;
pub mod uniform;
pub mod workloads;
pub mod zipf;

pub use feed::{feed, feed_batches, feed_raw};
pub use io::{read_stream, read_stream_file, write_stream};
pub use snb::{snb_stream, SnbConfig};
pub use so::{so_stream, SoConfig};
pub use uniform::uniform_stream;
pub use workloads::{resolve, Dataset, RawEvent, RawStream};
pub use zipf::{zipf_stream, ZipfConfig};
