//! The four workloads: their constants, their seeded streams, and the
//! pre-encoded BATCH frames the feeder writes to the socket.
//!
//! Every number a run depends on is a constant here. Rates and stream
//! budgets are **not** derived from what the saturate phase measures: a
//! paced rate that followed the measured throughput would make latency a
//! function of the throughput noise, and two commits would be compared
//! under different loads.

use std::collections::HashMap;

use sgq_datagen::workloads::{query_text, Dataset};
use sgq_datagen::{snb_stream, so_stream, SnbConfig, SoConfig};
use sgq_serve::protocol::{read_message, Message, WireEdge};

/// Closed-loop flow control: edge operations the feeder may have un-acked.
/// Eight host epochs: enough that the host never waits for the feeder, few
/// enough that no queue hides a slow host.
pub const IN_FLIGHT_OPS: usize = 2048;
/// The marker query, registered last so its results are routed after
/// every other result of the epoch that carried the marker.
pub const MARKER_QUERY: &str = "Ans(x, y) <- mark(x, y).";
/// Label of marker edges.
pub const MARKER_LABEL: &str = "mark";

/// One registered query of a workload.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub text: &'static str,
    pub window: u64,
    pub slide: u64,
}

/// Where a workload's edges come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// SO-like stream with this many users, keeping only `a2q` edges.
    SoA2q { users: u64 },
    /// The full SO-like stream (three labels) with this many users.
    SoFull { users: u64 },
    /// SNB-like stream with this many persons.
    Snb { persons: u64 },
}

/// A workload: what is registered, what is streamed, how fast.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    /// Host runs with `--explicit-deletes`; the stream carries one DELETE
    /// per `DELETE_EVERY` inserts.
    pub explicit_deletes: bool,
    /// Edge operations (inserts and deletes) per BATCH frame; every frame
    /// carries one marker, so this is also the marker spacing.
    pub frame_ops: usize,
    /// Paced-phase rate, edge operations per second: at most 0.4 × the
    /// seed's `sustained_eps` (`wire-so`: the issue's flat 100 k/s;
    /// `fleet-snb`: 0.3 ×, because its throughput was seen to halve on a
    /// slower box and a backlog fails the run).
    pub paced_eps: u64,
    /// `within_limit_share` counts paced markers delivered within this:
    /// about 3 × the seed's `latency_p95_ms`.
    pub limit_ms: f64,
    /// The seed's `sustained_eps`, rounded. The saturate phase sends this
    /// many operations per second of its planned length — a fixed amount
    /// of work, so every run measures the same stretch of the stream.
    pub saturate_eps: u64,
    /// Operations replayed by each in-process pass of the traced run.
    pub trace_ops: usize,
    /// Operations replayed by the correctness gate.
    pub gate_ops: usize,
}

/// One DELETE per this many inserts on `explicit_deletes` workloads.
pub const DELETE_EVERY: usize = 8;
/// A DELETE retracts an insert about this many ticks old (inside W=2000).
pub const DELETE_LAG: u64 = 1500;

const PATH_WINDOW: (u64, u64) = (2000, 100);

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "path-so",
            why: "Q1 a2q* over a dense SO-like stream: S-PATH forest, window adjacency, purge and sink dedup do most of the work; the wire does comparatively little",
            source: Source::SoA2q { users: 3000 },
            explicit_deletes: false,
            frame_ops: 64,
            paced_eps: 65_000,
            limit_ms: 25.0,
            saturate_eps: 165_000,
            trace_ops: 100_000,
            gate_ops: 50_000,
        },
        Spec {
            name: "wire-so",
            why: "three one-hop queries, one result per edge: engine work is WSCAN + sink, so frame decode, command channel, epoch cut, result encode, outbox and socket writes dominate; S-PATH is idle",
            source: Source::SoFull { users: 100_000 },
            explicit_deletes: false,
            frame_ops: 64,
            paced_eps: 100_000,
            limit_ms: 15.0,
            saturate_eps: 470_000,
            trace_ops: 400_000,
            gate_ops: 50_000,
        },
        Spec {
            name: "fleet-snb",
            why: "21 queries (SNB Q1-Q7 x 3 windows): second dataset, PATTERN joins, shared subplans, dedup families and route-once fan-out; sgq_multiquery does the work that is idle in the single-query rows",
            source: Source::Snb { persons: 2000 },
            explicit_deletes: false,
            // 4 k edges/s in frames of 64 would give 62 markers a second.
            frame_ops: 16,
            paced_eps: 4_000,
            limit_ms: 250.0,
            saturate_eps: 13_000,
            trace_ops: 16_000,
            gate_ops: 30_000,
        },
        Spec {
            name: "deletes-so",
            why: "path-so under explicit deletes (1 DELETE per 8 inserts, still in window): negative tuples and batched re-derivation, sink dedup off; an insert-path gain that costs the delete path shows here",
            source: Source::SoA2q { users: 3000 },
            explicit_deletes: true,
            frame_ops: 64,
            paced_eps: 60_000,
            limit_ms: 7.0,
            saturate_eps: 155_000,
            trace_ops: 100_000,
            gate_ops: 50_000,
        },
    ]
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        specs().into_iter().find(|s| s.name == name)
    }

    /// The workload's queries in registration order (marker excluded).
    pub fn queries(&self) -> Vec<QuerySpec> {
        let (w, s) = PATH_WINDOW;
        match self.source {
            Source::SoA2q { .. } => vec![QuerySpec {
                text: query_text(1, Dataset::So),
                window: w,
                slide: s,
            }],
            Source::SoFull { .. } => [
                "Ans(x, y) <- a2q(x, y).",
                "Ans(x, y) <- c2q(x, y).",
                "Ans(x, y) <- c2a(x, y).",
            ]
            .into_iter()
            .map(|text| QuerySpec {
                text,
                window: w,
                slide: s,
            })
            .collect(),
            Source::Snb { .. } => {
                let mut out = Vec::new();
                for window in [500u64, 1000, 2000] {
                    for n in 1..=7 {
                        out.push(QuerySpec {
                            text: query_text(n, Dataset::Snb),
                            window,
                            slide: window / 20,
                        });
                    }
                }
                out
            }
        }
    }
}

/// One edge operation of a generated stream. `t` is the position of the
/// edge in the raw generated stream (one tick per raw event), so label
/// filtering leaves gaps: a window of 2000 ticks holds about 900 `a2q`
/// edges of the SO mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub delete: bool,
    pub src: u64,
    pub trg: u64,
    pub label: &'static str,
    pub t: u64,
}

/// Raw events of the SO-like generator that the `a2q` workloads leave out
/// at the start. The generator's preferential-attachment pool starts
/// empty, so the first ~30 k `a2q` edges fall on a handful of early users:
/// `a2q*` yields 9-15 results per edge there, ±20 % from seed to seed, and
/// 2.1 per edge (±1 %) ever after. With that prefix in the stream a third
/// of all results, and nearly all of the seed-to-seed variance of every
/// metric, came from its first twentieth.
const SO_POOL_WARMUP_EVENTS: usize = 160_000;

/// Generates `ops` edge operations for `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64, ops: usize) -> Vec<Op> {
    let (events, skip) = match spec.source {
        // a2q is 45 % of the SO mix: over-generate, then filter.
        Source::SoA2q { users } => {
            let raw = SO_POOL_WARMUP_EVENTS + ops * 5 / 2 + 4096;
            let stream = so_stream(&SoConfig::new(users, raw).with_seed(seed));
            (stream.events, SO_POOL_WARMUP_EVENTS)
        }
        Source::SoFull { users } => (
            so_stream(&SoConfig::new(users, ops).with_seed(seed)).events,
            0,
        ),
        Source::Snb { persons } => (
            snb_stream(&SnbConfig::new(persons, ops).with_seed(seed)).events,
            0,
        ),
    };
    let keep_all = !matches!(spec.source, Source::SoA2q { .. });
    let inserts = events
        .into_iter()
        .enumerate()
        .skip(skip)
        .filter(|(_, e)| keep_all || e.2 == "a2q")
        .map(|(i, (src, trg, label, _))| Op {
            delete: false,
            src,
            trg,
            label,
            t: i as u64,
        });
    let out: Vec<Op> = if spec.explicit_deletes {
        with_deletes(inserts, ops)
    } else {
        inserts.take(ops).collect()
    };
    assert_eq!(out.len(), ops, "generator came up short");
    out
}

/// Interleaves one DELETE per [`DELETE_EVERY`] inserts, retracting the
/// oldest not-yet-retracted insert that is at most [`DELETE_LAG`] ticks
/// old. The engine's deletion contract is at most one live insertion per
/// `(src, trg, label)`, so an insert whose pair may still be live in the
/// window is skipped.
fn with_deletes(inserts: impl Iterator<Item = Op>, ops: usize) -> Vec<Op> {
    let horizon = PATH_WINDOW.0 + PATH_WINDOW.1;
    let mut out: Vec<Op> = Vec::with_capacity(ops);
    let mut kept: Vec<Op> = Vec::new();
    // pair → timestamp of its live insertion.
    let mut live: HashMap<(u64, u64), u64> = HashMap::new();
    let mut victim = 0usize;
    for op in inserts {
        if out.len() >= ops {
            break;
        }
        if live
            .get(&(op.src, op.trg))
            .is_some_and(|&at| op.t - at < horizon)
        {
            continue;
        }
        live.insert((op.src, op.trg), op.t);
        kept.push(op);
        out.push(op);
        if !kept.len().is_multiple_of(DELETE_EVERY) || out.len() >= ops {
            continue;
        }
        while kept[victim].t + DELETE_LAG < op.t {
            victim += 1;
        }
        let v = kept[victim];
        if v.t < op.t && live.get(&(v.src, v.trg)) == Some(&v.t) {
            live.remove(&(v.src, v.trg));
            out.push(Op {
                delete: true,
                t: op.t,
                ..v
            });
            victim += 1;
        }
    }
    out
}

/// One pre-encoded BATCH frame: `frame_ops` edge operations followed by
/// one marker edge `mark(k, 0)`, where `k` is the frame's index.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Byte range in [`Frames::bytes`].
    pub start: usize,
    pub end: usize,
}

/// A stream encoded once, ready to be written frame by frame.
pub struct Frames {
    pub bytes: Vec<u8>,
    pub frames: Vec<Frame>,
    /// Edge operations per frame, the marker not counted.
    pub frame_ops: usize,
}

impl Frames {
    pub fn frame(&self, k: usize) -> &[u8] {
        &self.bytes[self.frames[k].start..self.frames[k].end]
    }

    /// Frame `k` decoded the way the host's reader thread decodes it.
    pub fn decode(&self, k: usize) -> Vec<WireEdge> {
        match read_message(&mut self.frame(k)) {
            Ok(Some(Ok(Message::Batch { edges }))) => edges,
            other => panic!("pre-encoded frame {k} does not decode to a BATCH: {other:?}"),
        }
    }
}

fn wire(op: &Op) -> WireEdge {
    WireEdge {
        delete: op.delete,
        src: op.src,
        trg: op.trg,
        t: op.t,
        label: op.label.to_string(),
    }
}

/// Encodes `ops` (a multiple of `frame_ops`) as BATCH frames. The
/// marker is the last edge of its frame and carries the frame's last
/// timestamp, so it never moves the watermark.
pub fn encode_frames(ops: &[Op], frame_ops: usize) -> Frames {
    assert_eq!(ops.len() % frame_ops, 0, "streams are whole frames");
    let mut bytes = Vec::with_capacity(ops.len() * 31 + 64);
    let mut frames = Vec::with_capacity(ops.len() / frame_ops);
    for (k, chunk) in ops.chunks(frame_ops).enumerate() {
        let mut edges: Vec<WireEdge> = chunk.iter().map(wire).collect();
        edges.push(WireEdge {
            delete: false,
            src: k as u64,
            trg: 0,
            t: chunk[frame_ops - 1].t,
            label: MARKER_LABEL.to_string(),
        });
        let start = bytes.len();
        bytes.extend_from_slice(&Message::Batch { edges }.encode());
        frames.push(Frame {
            start,
            end: bytes.len(),
        });
    }
    Frames {
        bytes,
        frames,
        frame_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seed_matters() {
        for spec in specs() {
            let a = generate(&spec, 7, 4000);
            assert_eq!(a, generate(&spec, 7, 4000), "{}", spec.name);
            assert_ne!(a, generate(&spec, 8, 4000), "{}", spec.name);
            assert_eq!(a.len(), 4000);
            assert!(a.windows(2).all(|w| w[0].t <= w[1].t));
        }
    }

    #[test]
    fn deletes_retract_live_edges_only() {
        let spec = Spec::by_name("deletes-so").unwrap();
        let ops = generate(&spec, 3, 20_000);
        let mut live: HashMap<(u64, u64), u64> = HashMap::new();
        let mut deletes = 0;
        for op in &ops {
            if op.delete {
                let at = live
                    .remove(&(op.src, op.trg))
                    .expect("delete of a live edge");
                assert!(op.t > at && op.t - at <= DELETE_LAG, "{} -> {}", at, op.t);
                deletes += 1;
            } else {
                // at most one live insertion per pair inside the window
                if let Some(prev) = live.insert((op.src, op.trg), op.t) {
                    assert!(op.t - prev >= PATH_WINDOW.0 + PATH_WINDOW.1);
                }
            }
        }
        assert!(deletes > 20_000 / 10, "{deletes} deletes");
    }

    #[test]
    fn every_frame_ends_with_its_marker() {
        let spec = Spec::by_name("deletes-so").unwrap();
        const FRAME_OPS: usize = 16;
        let ops = generate(&spec, 1, FRAME_OPS * 9);
        let f = encode_frames(&ops, FRAME_OPS);
        assert_eq!(f.frames.len(), 9);
        for k in 0..f.frames.len() {
            let edges = f.decode(k);
            assert_eq!(edges.len(), FRAME_OPS + 1);
            let marker = &edges[FRAME_OPS];
            assert_eq!(
                (marker.label.as_str(), marker.src),
                (MARKER_LABEL, k as u64)
            );
            assert_eq!(marker.t, edges[FRAME_OPS - 1].t);
            for (e, op) in edges[..FRAME_OPS].iter().zip(&ops[k * FRAME_OPS..]) {
                assert_eq!(
                    (e.delete, e.src, e.trg, e.t),
                    (op.delete, op.src, op.trg, op.t)
                );
            }
        }
    }
}
