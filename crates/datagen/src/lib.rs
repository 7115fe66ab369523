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
//! * [`mod@feed`] — the one stream-feeding code path shared by the examples,
//!   the repro harness, the `sgq-serve` client, and the tests.
//!
//! All generators are deterministic for a given seed.

#![warn(missing_docs)]

pub mod feed;
pub mod io;
mod mix;
pub mod snb;
pub mod so;
pub mod uniform;
pub mod workloads;

pub use feed::{feed, feed_batches, feed_raw};
pub use io::{read_stream, read_stream_file, write_stream};
pub use snb::{snb_stream, SnbConfig};
pub use so::{so_stream, SoConfig};
pub use uniform::uniform_stream;
pub use workloads::{resolve, Dataset, RawEvent, RawStream};

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every event's endpoints, label name and timestamp, in
    /// order: any moved byte of a stream moves its fingerprint.
    fn fingerprint(stream: &RawStream) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &(src, trg, label, t) in &stream.events {
            eat(&src.to_le_bytes());
            eat(&trg.to_le_bytes());
            eat(label.as_bytes());
            eat(&[0xff]);
            eat(&t.to_le_bytes());
        }
        (stream.len(), h)
    }

    /// The default streams, byte for byte: the benchmark and the §7
    /// harness build their inputs with `SoConfig::new(..).with_seed(..)`
    /// and `SnbConfig::new(..).with_seed(..)`, so a generator change that
    /// moves them shows here first.
    #[test]
    fn default_streams_are_pinned() {
        let got = [
            fingerprint(&so_stream(&SoConfig::new(100, 1000))),
            fingerprint(&so_stream(&SoConfig::new(3000, 5000).with_seed(1))),
            fingerprint(&snb_stream(&SnbConfig::new(200, 1000))),
            fingerprint(&snb_stream(&SnbConfig::new(2000, 5000).with_seed(1))),
        ];
        assert_eq!(
            got,
            [
                (1000, 0xc7f6_4b2e_520e_1fb6),
                (5000, 0x006e_6e63_fbeb_764c),
                (1000, 0x9bbe_1044_8e2a_c5cd),
                (5000, 0xef47_feea_f57d_405f),
            ]
        );
    }
}
