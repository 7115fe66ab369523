//! # sgq-dd — the Differential-Dataflow-style incremental baseline
//!
//! The paper evaluates its SGA engine against Timely/Differential Dataflow
//! (§7.2.2), "the only general-purpose system that can be used to
//! incrementally evaluate recursive computations". This crate is a
//! from-scratch substitute with the same architecture and asymptotics:
//!
//! * **Epoch batching** ([`DdEngine`]): all sgts arriving within one slide
//!   interval share a logical timestamp, so larger slides mean better
//!   throughput (the Figure 11 shape), unlike the tuple-at-a-time SGA
//!   engine.
//! * **Arranged counted collections** ([`collection::Rel`]): multiset
//!   relations with set-level change extraction — the counting IVM
//!   algorithm for non-recursive rules.
//! * **Delta joins** for rule bodies, seeded per input delta.
//! * **`iterate` for recursion** ([`tc::TcState`]): semi-naive expansion
//!   for insertions and DRed (delete–re-derive) for retractions over the
//!   regex product graph. Window expirations are ordinary retractions —
//!   the general-purpose IVM cost that S-PATH's direct approach avoids.
//!
//! The substitution keeps what the paper's comparison turns on: slide-sized
//! epochs, counted incremental view maintenance, and window expiry paid
//! as retraction. README's crate map (the `sgq_dd` row) and
//! docs/ARCHITECTURE.md §1 place it among the crates.

#![warn(missing_docs)]

pub mod collection;
pub mod engine;
pub mod tc;

pub use collection::{Rel, SetDelta};
pub use engine::DdEngine;
pub use tc::TcState;
