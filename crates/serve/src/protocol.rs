//! The `sgq-serve` wire protocol: length-prefixed frames carrying typed
//! messages, fully specified in `docs/PROTOCOL.md` (byte-exact — a
//! non-rust client can be written from the document alone).
//!
//! One **frame** is
//!
//! ```text
//! +----------------+---------+------+----------------+
//! | len: u32 BE    | version | type | body (len - 2) |
//! +----------------+---------+------+----------------+
//! ```
//!
//! where `len` counts the payload (version byte + type byte + body), all
//! multi-byte integers are big-endian, and strings are encoded as a
//! `u16` byte length followed by that many UTF-8 bytes. The current
//! [`PROTOCOL_VERSION`] is 1; a server receiving any other version byte
//! answers [`ERR_BAD_VERSION`] and closes the connection.

use std::collections::HashMap;
use std::io::{self, Read, Write};

/// The protocol version this implementation speaks (the frame's third
/// byte on the wire). Bumped on any incompatible layout change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame's payload length. A declared length above this
/// is treated as a malformed stream ([`ERR_OVERSIZED`]): the server never
/// allocates attacker-controlled sizes, and a desynchronized client fails
/// fast instead of stalling on a bogus multi-gigabyte read.
pub const MAX_FRAME_LEN: u32 = 1 << 24; // 16 MiB

// Error codes (the `code` field of [`Message::Error`]).
/// A frame or body that could not be decoded (truncated body, bad UTF-8).
pub const ERR_MALFORMED: u16 = 1;
/// An unknown message-type byte (recoverable: the connection stays open).
pub const ERR_UNKNOWN_TYPE: u16 = 2;
/// A version byte other than [`PROTOCOL_VERSION`] (fatal).
pub const ERR_BAD_VERSION: u16 = 3;
/// A `REGISTER` whose query text failed to parse or validate.
pub const ERR_BAD_QUERY: u16 = 4;
/// A `DEREGISTER` naming a query id the host does not know.
pub const ERR_UNKNOWN_QUERY: u16 = 5;
/// An edge whose timestamp precedes the host's watermark (dropped).
pub const ERR_OUT_OF_ORDER: u16 = 6;
/// A declared frame length above [`MAX_FRAME_LEN`] (fatal).
pub const ERR_OVERSIZED: u16 = 7;
/// A subscriber on the `Disconnect` backpressure policy fell behind.
pub const ERR_SLOW_CONSUMER: u16 = 8;
/// The host is shutting down and no longer accepts the request.
pub const ERR_SHUTTING_DOWN: u16 = 9;
/// The request is not supported in the host's current mode (e.g. a
/// `DELETE` on a duplicate-suppressing host).
pub const ERR_NOT_SUPPORTED: u16 = 10;

/// Per-subscription slow-consumer policy (the `policy` byte of
/// [`Message::Register`]): what happens when the subscriber's bounded
/// result buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Drop the new result frame and count it; the running count is
    /// reported via [`Message::Dropped`] at the next barrier.
    #[default]
    DropNewest,
    /// Terminate the subscriber's connection ([`ERR_SLOW_CONSUMER`] +
    /// [`Message::Bye`]); its queries are deregistered.
    Disconnect,
}

impl Backpressure {
    /// The wire encoding (0 = drop-newest, 1 = disconnect).
    pub fn to_byte(self) -> u8 {
        match self {
            Backpressure::DropNewest => 0,
            Backpressure::Disconnect => 1,
        }
    }

    /// Decodes the policy byte.
    pub fn from_byte(b: u8) -> Option<Backpressure> {
        match b {
            0 => Some(Backpressure::DropNewest),
            1 => Some(Backpressure::Disconnect),
            _ => None,
        }
    }
}

/// One edge entry of a [`Message::Batch`] (and the body shared by
/// `INSERT` / `DELETE`): an explicit-timestamp edge with its label name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEdge {
    /// `true` for an explicit deletion, `false` for an insertion.
    pub delete: bool,
    /// Source vertex id.
    pub src: u64,
    /// Target vertex id.
    pub trg: u64,
    /// Event timestamp (ticks; must be non-decreasing per connection
    /// stream and across the host's merged input).
    pub t: u64,
    /// Edge label name, resolved against the host's label namespace.
    pub label: String,
}

/// [`EdgeRow`]'s label word: this bit set marks an explicit deletion.
const DELETE_BIT: u32 = 1 << 31;

/// How many of a frame's labels the decoder finds by a linear scan
/// before it keeps a map of the rest.
const SCAN_LABELS: usize = 8;

/// One decoded edge in 32 bytes: its label is an index into its frame's
/// [`EdgeBatch::labels`], with the delete flag in the index's top bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRow {
    /// Source vertex id.
    pub src: u64,
    /// Target vertex id.
    pub trg: u64,
    /// Event timestamp.
    pub t: u64,
    label: u32,
}

impl EdgeRow {
    /// `true` for an explicit deletion.
    pub fn delete(&self) -> bool {
        self.label & DELETE_BIT != 0
    }

    /// The row's index into its frame's label table.
    pub fn label_idx(&self) -> usize {
        (self.label & !DELETE_BIT) as usize
    }
}

/// The edges of one INSERT, DELETE or BATCH frame: a row per edge and
/// the frame's distinct labels in order of first use. Each label is
/// validated and copied once per frame, not once per edge.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeBatch {
    /// The edges, in frame order.
    pub rows: Vec<EdgeRow>,
    /// The label names the rows index.
    pub labels: Vec<String>,
}

impl EdgeBatch {
    /// The rows as [`WireEdge`]s, a label `String` each: what
    /// [`Message::Batch`] carries.
    pub fn to_wire_edges(&self) -> Vec<WireEdge> {
        (self.rows.iter())
            .map(|r| WireEdge {
                delete: r.delete(),
                src: r.src,
                trg: r.trg,
                t: r.t,
                label: self.labels[r.label_idx()].clone(),
            })
            .collect()
    }
}

/// A client frame as the host's reader passes it on: the edge-carrying
/// types (INSERT, DELETE, BATCH) as an [`EdgeBatch`], every other type as
/// its [`Message`]. The bytes on the wire are the same either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// An INSERT or DELETE as a one-row batch (the frame type sets the
    /// row's delete flag), or a BATCH.
    Edges(EdgeBatch),
    /// Any other message.
    Message(Message),
}

impl Request {
    /// Decodes a frame payload as [`Message::decode`] does, with the same
    /// errors, but keeps an edge frame's edges as rows.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let [PROTOCOL_VERSION, ty @ 0x04..=0x06, ..] = *payload else {
            return Message::decode(payload).map(Request::Message);
        };
        let mut cur = Cursor::new(payload);
        cur.take(2)?;
        let batch = if ty == 0x06 {
            cur.batch()?
        } else {
            // The type, not the edge's flag byte, says insert or delete;
            // the one row indexes label 0.
            let mut one = cur.edges(1)?;
            one.rows[0].label = if ty == 0x05 { DELETE_BIT } else { 0 };
            one
        };
        cur.finish()?;
        Ok(Request::Edges(batch))
    }
}

/// A decoded protocol message. Types `0x01`–`0x7F` flow client → server,
/// `0x81`–`0xFF` server → client; see `docs/PROTOCOL.md` for the
/// byte-exact body layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    // ---- client → server -------------------------------------------
    /// `0x01` — opens the session; the server answers [`Message::Welcome`].
    Hello {
        /// Free-form client identification (logged, never interpreted).
        client: String,
    },
    /// `0x02` — registers a persistent query; the server answers
    /// [`Message::Registered`] (or [`Message::Error`] with
    /// [`ERR_BAD_QUERY`]). The connection becomes the query's subscriber:
    /// its results stream back as [`Message::Result`] frames.
    Register {
        /// Slow-consumer policy for this subscription.
        policy: Backpressure,
        /// Max queued result frames for this subscription (0 = server
        /// default).
        buffer: u32,
        /// Window size `T` in ticks.
        window: u64,
        /// Slide interval `β` in ticks.
        slide: u64,
        /// Datalog-style RQ program text (`sgq_query::parse_program`).
        query: String,
    },
    /// `0x03` — deregisters a query previously registered on this
    /// connection; answered by [`Message::Deregistered`].
    Deregister {
        /// The query id from [`Message::Registered`].
        query: u64,
    },
    /// `0x04` — ingests one edge insertion.
    Insert(
        /// The edge (its `delete` flag is ignored on this type).
        WireEdge,
    ),
    /// `0x05` — ingests one explicit edge deletion (§6.2.5; requires a
    /// host started with explicit deletions enabled).
    Delete(
        /// The edge to retract.
        WireEdge,
    ),
    /// `0x06` — ingests a timestamp-ordered batch of edges in one frame.
    Batch {
        /// The edges, in non-decreasing timestamp order.
        edges: Vec<WireEdge>,
    },
    /// `0x07` — advances event time without ingesting (windows slide,
    /// expired state purges).
    Advance {
        /// The new watermark (must be ≥ the host's current time).
        t: u64,
    },
    /// `0x08` — forces the host to close the open epoch now instead of
    /// waiting for the batch-size or wall-clock trigger.
    Flush,
    /// `0x09` — requests one metrics snapshot
    /// ([`Message::MetricsSnapshot`] reply).
    Metrics,
    /// `0x0A` — asks the host to shut down gracefully: drain, final
    /// metrics snapshot, [`Message::Bye`] to every connection.
    Shutdown,
    /// `0x0B` — barrier: the server processes everything received before
    /// this frame (flushing the open epoch and routing all pending
    /// results) and then answers [`Message::Pong`] with the same token.
    Ping {
        /// Opaque token echoed back in the pong.
        token: u64,
    },

    // ---- server → client -------------------------------------------
    /// `0x81` — answers [`Message::Hello`].
    Welcome {
        /// Free-form server identification.
        server: String,
    },
    /// `0x82` — the query registered; results will carry this id.
    Registered {
        /// Host-assigned query id.
        query: u64,
    },
    /// `0x83` — answers [`Message::Deregister`].
    Deregistered {
        /// The query id.
        query: u64,
        /// `false` if the id was unknown (also reported as an error).
        ok: bool,
    },
    /// `0x84` — one result tuple of a subscribed query.
    Result {
        /// The producing query's id.
        query: u64,
        /// `true` for a retraction (negative tuple), `false` for a result.
        delete: bool,
        /// Result source vertex.
        src: u64,
        /// Result target vertex.
        trg: u64,
        /// Validity interval start (inclusive).
        ts: u64,
        /// Validity interval end (exclusive).
        exp: u64,
    },
    /// `0x85` — result frames dropped for this subscription since the
    /// last report (drop-newest backpressure only).
    Dropped {
        /// The lossy subscription's query id.
        query: u64,
        /// Frames dropped since the previous `Dropped` report.
        count: u64,
    },
    /// `0x86` — one metrics snapshot as a JSONL document (the
    /// `MetricsSnapshot::to_jsonl` shape, then a `"record":"memory"`
    /// line).
    MetricsSnapshot {
        /// The JSONL text: one `"record":"exec"|"operator"|"query"`
        /// object per line, and last one `"record":"memory"` object.
        jsonl: String,
    },
    /// `0x87` — answers [`Message::Ping`] after the barrier completes.
    Pong {
        /// The ping's token.
        token: u64,
    },
    /// `0x88` — a request failed; `code` is one of the `ERR_*` constants.
    Error {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// `0x89` — the server is closing this connection.
    Bye {
        /// Why (shutdown, slow consumer, fatal protocol error).
        reason: String,
    },
}

/// A decode failure: the matching `ERR_*` code, a message, and whether
/// the connection can survive (an unknown type can; a framing-level
/// desync cannot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The `ERR_*` code to report.
    pub code: u16,
    /// Human-readable context.
    pub message: String,
    /// `false` when the byte stream can no longer be trusted and the
    /// connection must close.
    pub recoverable: bool,
}

impl ProtoError {
    fn fatal(code: u16, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
            recoverable: false,
        }
    }

    fn soft(code: u16, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
            recoverable: true,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// The bytes of `s` a `u16`-length string field carries: a string past
/// the limit is cut at it.
fn wire_str(s: &str) -> &[u8] {
    &s.as_bytes()[..s.len().min(u16::MAX as usize)]
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let s = wire_str(s);
    buf.extend_from_slice(&(s.len() as u16).to_be_bytes());
    buf.extend_from_slice(s);
}

/// An edge's fixed-width part: delete flag, src, trg, t, label length.
const EDGE_HEAD_LEN: usize = 1 + 3 * 8 + 2;

fn put_edge(buf: &mut Vec<u8>, e: &WireEdge) {
    // One copy for the fixed-width fields, one for the label.
    let label = wire_str(&e.label);
    let mut head = [0u8; EDGE_HEAD_LEN];
    head[0] = e.delete as u8;
    head[1..9].copy_from_slice(&e.src.to_be_bytes());
    head[9..17].copy_from_slice(&e.trg.to_be_bytes());
    head[17..25].copy_from_slice(&e.t.to_be_bytes());
    head[25..].copy_from_slice(&(label.len() as u16).to_be_bytes());
    buf.extend_from_slice(&head);
    buf.extend_from_slice(label);
}

/// Bytes in one complete `RESULT` frame, length prefix included (every
/// field is fixed-width): what lets a host cut a buffer of back-to-back
/// result frames at a frame boundary without parsing it.
pub const RESULT_FRAME_LEN: usize = 4 + 2 + 8 + 1 + 4 * 8;

/// Appends one complete `RESULT` frame to `buf` — the bytes of
/// [`Message::Result`]`.encode()` without a `Vec` per frame, so a host
/// can lay all results of an epoch out back to back.
pub fn encode_result_into(
    buf: &mut Vec<u8>,
    query: u64,
    delete: bool,
    src: u64,
    trg: u64,
    ts: u64,
    exp: u64,
) {
    let [l0, l1, l2, l3] = (RESULT_FRAME_LEN as u32 - 4).to_be_bytes();
    buf.extend_from_slice(&[l0, l1, l2, l3, PROTOCOL_VERSION, 0x84]);
    buf.extend_from_slice(&result_body(query, delete, src, trg, ts, exp));
}

/// The body of a `RESULT` frame, built on the stack so it is appended
/// with one copy.
fn result_body(
    query: u64,
    delete: bool,
    src: u64,
    trg: u64,
    ts: u64,
    exp: u64,
) -> [u8; RESULT_FRAME_LEN - 6] {
    let mut body = [0u8; RESULT_FRAME_LEN - 6];
    body[..8].copy_from_slice(&query.to_be_bytes());
    body[8] = delete as u8;
    for (i, x) in [src, trg, ts, exp].into_iter().enumerate() {
        body[9 + 8 * i..17 + 8 * i].copy_from_slice(&x.to_be_bytes());
    }
    body
}

impl Message {
    /// The message's type byte on the wire.
    pub fn type_byte(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0x01,
            Message::Register { .. } => 0x02,
            Message::Deregister { .. } => 0x03,
            Message::Insert(_) => 0x04,
            Message::Delete(_) => 0x05,
            Message::Batch { .. } => 0x06,
            Message::Advance { .. } => 0x07,
            Message::Flush => 0x08,
            Message::Metrics => 0x09,
            Message::Shutdown => 0x0A,
            Message::Ping { .. } => 0x0B,
            Message::Welcome { .. } => 0x81,
            Message::Registered { .. } => 0x82,
            Message::Deregistered { .. } => 0x83,
            Message::Result { .. } => 0x84,
            Message::Dropped { .. } => 0x85,
            Message::MetricsSnapshot { .. } => 0x86,
            Message::Pong { .. } => 0x87,
            Message::Error { .. } => 0x88,
            Message::Bye { .. } => 0x89,
        }
    }

    /// Bytes of the encoded frame, length prefix included.
    fn frame_len(&self) -> usize {
        let str_len = |s: &str| 2 + wire_str(s).len();
        let edge_len = |e: &WireEdge| EDGE_HEAD_LEN + wire_str(&e.label).len();
        let body = match self {
            Message::Hello { client: s }
            | Message::Welcome { server: s }
            | Message::Bye { reason: s } => str_len(s),
            Message::Register { query, .. } => 1 + 4 + 2 * 8 + str_len(query),
            Message::Deregister { .. }
            | Message::Advance { .. }
            | Message::Ping { .. }
            | Message::Pong { .. }
            | Message::Registered { .. } => 8,
            Message::Insert(e) | Message::Delete(e) => edge_len(e),
            Message::Batch { edges } => 4 + edges.iter().map(edge_len).sum::<usize>(),
            Message::Flush | Message::Metrics | Message::Shutdown => 0,
            Message::Deregistered { .. } => 8 + 1,
            Message::Result { .. } => RESULT_FRAME_LEN - 6,
            Message::Dropped { .. } => 2 * 8,
            Message::MetricsSnapshot { jsonl } => 4 + jsonl.len(),
            Message::Error { message, .. } => 2 + str_len(message),
        };
        4 + 2 + body
    }

    /// Encodes the message as one complete frame (length prefix
    /// included), ready to write to a socket. The frame is written once
    /// into a buffer reserved to its size; the length is patched in last.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(self.frame_len());
        frame.extend_from_slice(&[0, 0, 0, 0, PROTOCOL_VERSION, self.type_byte()]);
        match self {
            Message::Hello { client } => put_str(&mut frame, client),
            Message::Register {
                policy,
                buffer,
                window,
                slide,
                query,
            } => {
                frame.push(policy.to_byte());
                frame.extend_from_slice(&buffer.to_be_bytes());
                frame.extend_from_slice(&window.to_be_bytes());
                frame.extend_from_slice(&slide.to_be_bytes());
                put_str(&mut frame, query);
            }
            Message::Deregister { query } => frame.extend_from_slice(&query.to_be_bytes()),
            Message::Insert(e) | Message::Delete(e) => put_edge(&mut frame, e),
            Message::Batch { edges } => {
                frame.extend_from_slice(&(edges.len() as u32).to_be_bytes());
                for e in edges {
                    put_edge(&mut frame, e);
                }
            }
            Message::Advance { t } => frame.extend_from_slice(&t.to_be_bytes()),
            Message::Flush | Message::Metrics | Message::Shutdown => {}
            Message::Ping { token } | Message::Pong { token } => {
                frame.extend_from_slice(&token.to_be_bytes())
            }
            Message::Welcome { server } => put_str(&mut frame, server),
            Message::Registered { query } => frame.extend_from_slice(&query.to_be_bytes()),
            Message::Deregistered { query, ok } => {
                frame.extend_from_slice(&query.to_be_bytes());
                frame.push(*ok as u8);
            }
            &Message::Result {
                query,
                delete,
                src,
                trg,
                ts,
                exp,
            } => frame.extend_from_slice(&result_body(query, delete, src, trg, ts, exp)),
            Message::Dropped { query, count } => {
                frame.extend_from_slice(&query.to_be_bytes());
                frame.extend_from_slice(&count.to_be_bytes());
            }
            Message::MetricsSnapshot { jsonl } => {
                // Documents exceed the u16 string limit: u32 length.
                frame.extend_from_slice(&(jsonl.len() as u32).to_be_bytes());
                frame.extend_from_slice(jsonl.as_bytes());
            }
            Message::Error { code, message } => {
                frame.extend_from_slice(&code.to_be_bytes());
                put_str(&mut frame, message);
            }
            Message::Bye { reason } => put_str(&mut frame, reason),
        }
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_be_bytes());
        frame
    }

    /// Decodes a frame payload (the bytes after the length prefix:
    /// version byte, type byte, body).
    pub fn decode(payload: &[u8]) -> Result<Message, ProtoError> {
        let mut cur = Cursor::new(payload);
        let version = cur.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ProtoError::fatal(
                ERR_BAD_VERSION,
                format!("version {version}, expected {PROTOCOL_VERSION}"),
            ));
        }
        let ty = cur.u8()?;
        let msg = match ty {
            0x01 => Message::Hello { client: cur.str()? },
            0x02 => Message::Register {
                policy: Backpressure::from_byte(cur.u8()?).ok_or_else(|| {
                    ProtoError::soft(ERR_MALFORMED, "unknown backpressure policy byte")
                })?,
                buffer: cur.u32()?,
                window: cur.u64()?,
                slide: cur.u64()?,
                query: cur.str()?,
            },
            0x03 => Message::Deregister { query: cur.u64()? },
            0x04 => Message::Insert(cur.edge()?),
            0x05 => Message::Delete(cur.edge()?),
            0x06 => Message::Batch {
                edges: cur.batch()?.to_wire_edges(),
            },
            0x07 => Message::Advance { t: cur.u64()? },
            0x08 => Message::Flush,
            0x09 => Message::Metrics,
            0x0A => Message::Shutdown,
            0x0B => Message::Ping { token: cur.u64()? },
            0x81 => Message::Welcome { server: cur.str()? },
            0x82 => Message::Registered { query: cur.u64()? },
            0x83 => Message::Deregistered {
                query: cur.u64()?,
                ok: cur.u8()? != 0,
            },
            0x84 => Message::Result {
                query: cur.u64()?,
                delete: cur.u8()? != 0,
                src: cur.u64()?,
                trg: cur.u64()?,
                ts: cur.u64()?,
                exp: cur.u64()?,
            },
            0x85 => Message::Dropped {
                query: cur.u64()?,
                count: cur.u64()?,
            },
            0x86 => {
                let len = cur.u32()? as usize;
                let bytes = cur.take(len)?;
                Message::MetricsSnapshot {
                    jsonl: String::from_utf8(bytes.to_vec()).map_err(|_| {
                        ProtoError::soft(ERR_MALFORMED, "metrics document is not UTF-8")
                    })?,
                }
            }
            0x87 => Message::Pong { token: cur.u64()? },
            0x88 => Message::Error {
                code: cur.u16()?,
                message: cur.str()?,
            },
            0x89 => Message::Bye { reason: cur.str()? },
            other => {
                return Err(ProtoError::soft(
                    ERR_UNKNOWN_TYPE,
                    format!("unknown message type 0x{other:02x}"),
                ))
            }
        };
        cur.finish()?;
        Ok(msg)
    }
}

/// Bounds-checked big-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.at + n > self.buf.len() {
            return Err(ProtoError::soft(
                ERR_MALFORMED,
                format!(
                    "truncated body: wanted {n} bytes at offset {}, frame has {}",
                    self.at,
                    self.buf.len()
                ),
            ));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::soft(ERR_MALFORMED, "string is not UTF-8"))
    }

    fn edge(&mut self) -> Result<WireEdge, ProtoError> {
        Ok(self.edges(1)?.to_wire_edges().remove(0))
    }

    /// A BATCH body: the edge count, then that many edges.
    fn batch(&mut self) -> Result<EdgeBatch, ProtoError> {
        let n = self.u32()? as usize;
        // Bound allocation by what the payload could possibly hold.
        if n > self.buf.len() / EDGE_HEAD_LEN + 1 {
            return Err(ProtoError::fatal(
                ERR_MALFORMED,
                format!("batch count {n} exceeds frame capacity"),
            ));
        }
        self.edges(n)
    }

    /// `n` edges as rows. A label's bytes are looked up among the frame's
    /// labels so far, and only a new one is validated and copied: a frame
    /// of `n` edges over `k` labels allocates O(k) times, and stays
    /// linear when every label is distinct.
    fn edges(&mut self, n: usize) -> Result<EdgeBatch, ProtoError> {
        let mut batch = EdgeBatch {
            rows: Vec::with_capacity(n),
            labels: Vec::new(),
        };
        // The first `SCAN_LABELS` labels are found by comparing bytes,
        // later ones through a map, so a frame with few labels (a
        // one-edge INSERT or DELETE, say) builds no map. The std hasher:
        // the keys are client bytes, so a frame must not be able to pick
        // labels that collide.
        let mut seen: HashMap<&'a [u8], u32> = HashMap::new();
        for _ in 0..n {
            let head = self.take(EDGE_HEAD_LEN)?;
            let word = |at: usize| u64::from_be_bytes(head[at..at + 8].try_into().unwrap());
            let name = self.take(u16::from_be_bytes([head[25], head[26]]) as usize)?;
            let scanned = &batch.labels[..batch.labels.len().min(SCAN_LABELS)];
            let found = match scanned.iter().position(|l| l.as_bytes() == name) {
                Some(idx) => Some(idx as u32),
                None => seen.get(name).copied(),
            };
            let label = match found {
                Some(idx) => idx,
                None => {
                    let text = std::str::from_utf8(name)
                        .map_err(|_| ProtoError::soft(ERR_MALFORMED, "string is not UTF-8"))?;
                    // A frame holds under 2^20 edges, so an index never
                    // reaches DELETE_BIT.
                    let idx = batch.labels.len() as u32;
                    batch.labels.push(text.to_owned());
                    if idx as usize >= SCAN_LABELS {
                        seen.insert(name, idx);
                    }
                    idx
                }
            };
            batch.rows.push(EdgeRow {
                src: word(1),
                trg: word(9),
                t: word(17),
                label: if head[0] != 0 {
                    label | DELETE_BIT
                } else {
                    label
                },
            });
        }
        Ok(batch)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.at != self.buf.len() {
            return Err(ProtoError::soft(
                ERR_MALFORMED,
                format!(
                    "{} trailing bytes after message body",
                    self.buf.len() - self.at
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one message as a frame. The caller flushes (batching several
/// frames per `flush` is the intended fast path).
pub fn write_message(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    w.write_all(&msg.encode())
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; EOF inside a frame (a truncated write) is an
/// `UnexpectedEof` error, and a declared length above [`MAX_FRAME_LEN`]
/// (or below the 2-byte minimum) is `InvalidData` — both mean the byte
/// stream can no longer be trusted.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a buffer the caller keeps: `payload` becomes the
/// next frame's payload, reusing its capacity, and `Ok(false)` means a
/// clean EOF. A reader that calls this per frame allocates only when a
/// frame is longer than every one before it.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a truncated length prefix.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len);
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [2, {MAX_FRAME_LEN}]"),
        ));
    }
    // Only bytes past the previous frame's length are zeroed; every byte
    // is then overwritten.
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// Reads and decodes one message. `Ok(None)` on clean EOF;
/// framing-level failures surface as `io::Error`, message-level ones as
/// a [`ProtoError`] inside the `Ok` (so callers can keep the connection
/// for recoverable ones).
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Result<Message, ProtoError>>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Message::decode(&payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let frame = msg.encode();
        let (len, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_be_bytes(len.try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(payload[0], PROTOCOL_VERSION);
        assert_eq!(Message::decode(payload).unwrap(), msg);
    }

    fn edge(delete: bool) -> WireEdge {
        WireEdge {
            delete,
            src: 7,
            trg: 9,
            t: 1234,
            label: "a2q".to_string(),
        }
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = vec![
            Message::Hello {
                client: "test".into(),
            },
            Message::Register {
                policy: Backpressure::Disconnect,
                buffer: 64,
                window: 720,
                slide: 24,
                query: "Ans(x, y) <- a2q+(x, y).".into(),
            },
            Message::Deregister { query: 3 },
            Message::Insert(edge(false)),
            Message::Delete(edge(true)),
            Message::Batch {
                edges: vec![edge(false), edge(true), edge(false)],
            },
            Message::Advance { t: u64::MAX },
            Message::Flush,
            Message::Metrics,
            Message::Shutdown,
            Message::Ping { token: 42 },
            Message::Welcome {
                server: "sgq-serve".into(),
            },
            Message::Registered { query: 0 },
            Message::Deregistered { query: 1, ok: true },
            Message::Result {
                query: 2,
                delete: false,
                src: 1,
                trg: 5,
                ts: 10,
                exp: 730,
            },
            Message::Dropped {
                query: 2,
                count: 17,
            },
            Message::MetricsSnapshot {
                jsonl: "{\"record\":\"exec\"}\n".into(),
            },
            Message::Pong { token: 42 },
            Message::Error {
                code: ERR_BAD_QUERY,
                message: "parse error".into(),
            },
            Message::Bye {
                reason: "shutdown".into(),
            },
        ];
        for m in msgs {
            round_trip(m);
        }
    }

    #[test]
    fn frame_reader_handles_eof_and_bounds() {
        // Clean EOF at a boundary.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // EOF inside the length prefix.
        let mut short: &[u8] = &[0, 0];
        assert!(read_frame(&mut short).is_err());
        // EOF inside the payload.
        let mut truncated: &[u8] = &[0, 0, 0, 10, 1, 2, 3];
        assert!(read_frame(&mut truncated).is_err());
        // Oversized declared length.
        let huge = (MAX_FRAME_LEN + 1).to_be_bytes();
        let mut oversized: &[u8] = &huge;
        assert!(read_frame(&mut oversized).is_err());
        // Below the 2-byte (version + type) minimum.
        let mut tiny: &[u8] = &[0, 0, 0, 1, 9];
        assert!(read_frame(&mut tiny).is_err());
    }

    #[test]
    fn a_reused_frame_buffer_holds_exactly_each_frame() {
        let msgs = [
            Message::Hello {
                client: "a longer first frame".into(),
            },
            Message::Ping { token: 7 },
            Message::Advance { t: 3 },
            Message::Hello {
                client: "x".repeat(300),
            },
        ];
        let bytes: Vec<u8> = msgs.iter().flat_map(Message::encode).collect();
        let mut r: &[u8] = &bytes;
        let mut payload = Vec::new();
        for m in &msgs {
            assert!(read_frame_into(&mut r, &mut payload).unwrap());
            assert_eq!(&payload[..], &m.encode()[4..]);
        }
        assert!(!read_frame_into(&mut r, &mut payload).unwrap());
    }

    #[test]
    fn bad_version_is_fatal_unknown_type_is_not() {
        let err = Message::decode(&[9, 0x01, 0, 0]).unwrap_err();
        assert_eq!(err.code, ERR_BAD_VERSION);
        assert!(!err.recoverable);
        let err = Message::decode(&[PROTOCOL_VERSION, 0x7E]).unwrap_err();
        assert_eq!(err.code, ERR_UNKNOWN_TYPE);
        assert!(err.recoverable);
    }

    #[test]
    fn truncated_and_trailing_bodies_are_malformed() {
        // Register with a body cut mid-string.
        let mut frame = Message::Register {
            policy: Backpressure::DropNewest,
            buffer: 0,
            window: 10,
            slide: 1,
            query: "Ans(x, y) <- a(x, y).".into(),
        }
        .encode();
        frame.truncate(frame.len() - 4);
        let err = Message::decode(&frame[4..]).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);
        // Trailing garbage after a well-formed body.
        let mut frame = Message::Flush.encode();
        frame.push(0xFF);
        let err = Message::decode(&frame[4..]).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);
    }

    #[test]
    fn batch_count_lying_about_capacity_is_rejected() {
        // A batch frame declaring 1M edges in a 10-byte body.
        let mut payload = vec![PROTOCOL_VERSION, 0x06];
        payload.extend_from_slice(&1_000_000u32.to_be_bytes());
        let err = Message::decode(&payload).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);
    }

    /// Pins the worked example of `docs/PROTOCOL.md` §7 byte for byte —
    /// if this test needs changing, the document does too.
    #[test]
    fn spec_worked_example_is_byte_exact() {
        let register = Message::Register {
            policy: Backpressure::DropNewest,
            buffer: 0,
            window: 100,
            slide: 10,
            query: "Ans(x, y) <- knows+(x, y).".into(),
        }
        .encode();
        let mut expect = vec![0x00, 0x00, 0x00, 0x33, 0x01, 0x02, 0x00];
        expect.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]);
        expect.extend_from_slice(&100u64.to_be_bytes());
        expect.extend_from_slice(&10u64.to_be_bytes());
        expect.extend_from_slice(&[0x00, 0x1a]);
        expect.extend_from_slice(b"Ans(x, y) <- knows+(x, y).");
        assert_eq!(register, expect);

        let insert = Message::Insert(WireEdge {
            delete: false,
            src: 1,
            trg: 2,
            t: 5,
            label: "knows".into(),
        })
        .encode();
        assert_eq!(&insert[..4], &[0x00, 0x00, 0x00, 0x22]);
        assert_eq!(&insert[4..7], &[0x01, 0x04, 0x00]);

        let result = Message::Result {
            query: 0,
            delete: false,
            src: 1,
            trg: 2,
            ts: 5,
            exp: 105,
        }
        .encode();
        assert_eq!(&result[..4], &[0x00, 0x00, 0x00, 0x2b]);
        assert_eq!(result[result.len() - 1], 0x69);

        let pong = Message::Pong { token: 1 }.encode();
        assert_eq!(&pong[..6], &[0x00, 0x00, 0x00, 0x0a, 0x01, 0x87]);
    }

    #[test]
    fn message_stream_round_trips_through_io() {
        let mut buf = Vec::new();
        let msgs = [
            Message::Hello { client: "c".into() },
            Message::Ping { token: 1 },
            Message::Flush,
        ];
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut r: &[u8] = &buf;
        for m in &msgs {
            let got = read_message(&mut r).unwrap().unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert!(read_message(&mut r).unwrap().is_none());
    }

    /// The two-pass layout `encode` replaced: the body built field by
    /// field in a `Vec` of its own, then copied behind the length prefix.
    fn reference_encode(msg: &Message) -> Vec<u8> {
        fn put_str(buf: &mut Vec<u8>, s: &str) {
            let len = s.len().min(u16::MAX as usize) as u16;
            buf.extend_from_slice(&len.to_be_bytes());
            buf.extend_from_slice(&s.as_bytes()[..len as usize]);
        }
        fn put_edge(buf: &mut Vec<u8>, e: &WireEdge) {
            buf.push(e.delete as u8);
            buf.extend_from_slice(&e.src.to_be_bytes());
            buf.extend_from_slice(&e.trg.to_be_bytes());
            buf.extend_from_slice(&e.t.to_be_bytes());
            put_str(buf, &e.label);
        }
        let mut body = vec![PROTOCOL_VERSION, msg.type_byte()];
        match msg {
            Message::Hello { client } => put_str(&mut body, client),
            Message::Register {
                policy,
                buffer,
                window,
                slide,
                query,
            } => {
                body.push(policy.to_byte());
                body.extend_from_slice(&buffer.to_be_bytes());
                body.extend_from_slice(&window.to_be_bytes());
                body.extend_from_slice(&slide.to_be_bytes());
                put_str(&mut body, query);
            }
            Message::Deregister { query } => body.extend_from_slice(&query.to_be_bytes()),
            Message::Insert(e) | Message::Delete(e) => put_edge(&mut body, e),
            Message::Batch { edges } => {
                body.extend_from_slice(&(edges.len() as u32).to_be_bytes());
                for e in edges {
                    put_edge(&mut body, e);
                }
            }
            Message::Advance { t } => body.extend_from_slice(&t.to_be_bytes()),
            Message::Flush | Message::Metrics | Message::Shutdown => {}
            Message::Ping { token } | Message::Pong { token } => {
                body.extend_from_slice(&token.to_be_bytes())
            }
            Message::Welcome { server } => put_str(&mut body, server),
            Message::Registered { query } => body.extend_from_slice(&query.to_be_bytes()),
            Message::Deregistered { query, ok } => {
                body.extend_from_slice(&query.to_be_bytes());
                body.push(*ok as u8);
            }
            Message::Result {
                query,
                delete,
                src,
                trg,
                ts,
                exp,
            } => {
                body.extend_from_slice(&query.to_be_bytes());
                body.push(*delete as u8);
                for x in [src, trg, ts, exp] {
                    body.extend_from_slice(&x.to_be_bytes());
                }
            }
            Message::Dropped { query, count } => {
                body.extend_from_slice(&query.to_be_bytes());
                body.extend_from_slice(&count.to_be_bytes());
            }
            Message::MetricsSnapshot { jsonl } => {
                body.extend_from_slice(&(jsonl.len() as u32).to_be_bytes());
                body.extend_from_slice(jsonl.as_bytes());
            }
            Message::Error { code, message } => {
                body.extend_from_slice(&code.to_be_bytes());
                put_str(&mut body, message);
            }
            Message::Bye { reason } => put_str(&mut body, reason),
        }
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// A deterministic xorshift stream (the crate has no `rand`).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A string of at most `max` UTF-8 bytes mixing 1-, 2-, 3- and
        /// 4-byte characters.
        fn text(&mut self, max: usize) -> String {
            const CHARS: [char; 6] = ['a', 'Z', '_', 'é', '知', '🦀'];
            let target = self.below(max as u64 + 1) as usize;
            let mut s = String::new();
            loop {
                let c = CHARS[self.below(CHARS.len() as u64) as usize];
                if s.len() + c.len_utf8() > target {
                    // Pad with ASCII so every length up to `max` occurs.
                    while s.len() < target {
                        s.push('x');
                    }
                    return s;
                }
                s.push(c);
            }
        }

        fn edge(&mut self) -> WireEdge {
            WireEdge {
                delete: self.below(2) == 1,
                src: self.next(),
                trg: self.next(),
                t: self.next(),
                label: self.text(40),
            }
        }
    }

    /// Random BATCH frames — labels drawn from pools of 1 to 40 names, so
    /// frames repeat labels or use each once, and a random mix of
    /// deletes — decode through `read_message` to exactly the edges that
    /// were encoded, and to 32-byte rows whose expansion is those edges,
    /// over a table holding each label once in order of first use.
    #[test]
    fn batch_rows_expand_to_what_read_message_decodes() {
        assert_eq!(std::mem::size_of::<EdgeRow>(), 32);
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for round in 0..200 {
            let pool: Vec<String> = (0..1 + rng.below(40)).map(|_| rng.text(12)).collect();
            let n = match round % 4 {
                0 => rng.below(4),
                _ => rng.below(300),
            };
            let edges: Vec<WireEdge> = (0..n)
                .map(|_| WireEdge {
                    label: pool[rng.below(pool.len() as u64) as usize].clone(),
                    ..rng.edge()
                })
                .collect();
            let frame = Message::Batch {
                edges: edges.clone(),
            }
            .encode();
            let read = read_message(&mut &frame[..]).unwrap().unwrap().unwrap();
            assert_eq!(
                read,
                Message::Batch {
                    edges: edges.clone()
                }
            );
            let Request::Edges(batch) = Request::decode(&frame[4..]).unwrap() else {
                panic!("a BATCH decodes to rows");
            };
            assert_eq!(batch.to_wire_edges(), edges);
            let mut first_use: Vec<&str> = Vec::new();
            for e in &edges {
                if !first_use.contains(&e.label.as_str()) {
                    first_use.push(&e.label);
                }
            }
            assert_eq!(batch.labels, first_use);
        }
    }

    /// INSERT and DELETE decode to one-row batches whose delete flag is
    /// the frame type's, whatever the edge's flag byte says, as the
    /// host has always treated them; other types stay messages.
    #[test]
    fn edge_frames_decode_to_rows_and_others_to_messages() {
        for (msg, delete) in [
            (Message::Insert(edge(true)), false),
            (Message::Delete(edge(false)), true),
        ] {
            let Request::Edges(batch) = Request::decode(&msg.encode()[4..]).unwrap() else {
                panic!("{msg:?} decodes to rows");
            };
            assert_eq!(
                batch.to_wire_edges(),
                vec![WireEdge {
                    delete,
                    ..edge(delete)
                }]
            );
        }
        let ping = Message::Ping { token: 3 };
        assert_eq!(
            Request::decode(&ping.encode()[4..]),
            Ok(Request::Message(ping))
        );
        // A bad label anywhere fails the whole frame, as `Message::decode`.
        let mut frame = Message::Batch {
            edges: vec![edge(false), edge(false)],
        }
        .encode();
        *frame.last_mut().unwrap() = 0xFF;
        assert_eq!(
            Request::decode(&frame[4..]).unwrap_err(),
            Message::decode(&frame[4..]).unwrap_err()
        );
    }

    /// `encode` writes the same bytes as the two-pass layout for every
    /// message type, into a buffer reserved to exactly the frame's size.
    #[test]
    fn encode_matches_the_two_pass_layout() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let check = |msg: Message| {
            let frame = msg.encode();
            assert_eq!(frame, reference_encode(&msg), "{msg:?}");
            assert_eq!(frame.capacity(), frame.len(), "{msg:?}");
        };
        for round in 0..64 {
            let s = rng.text(40);
            let edge = rng.edge();
            let n = rng.next();
            let msgs = vec![
                Message::Hello { client: s.clone() },
                Message::Register {
                    policy: if round % 2 == 0 {
                        Backpressure::DropNewest
                    } else {
                        Backpressure::Disconnect
                    },
                    buffer: n as u32,
                    window: n,
                    slide: n >> 3,
                    query: s.clone(),
                },
                Message::Deregister { query: n },
                Message::Insert(edge.clone()),
                Message::Delete(edge),
                Message::Advance { t: n },
                Message::Flush,
                Message::Metrics,
                Message::Shutdown,
                Message::Ping { token: n },
                Message::Welcome { server: s.clone() },
                Message::Registered { query: n },
                Message::Deregistered {
                    query: n,
                    ok: round % 3 == 0,
                },
                Message::Result {
                    query: n,
                    delete: round % 2 == 1,
                    src: rng.next(),
                    trg: rng.next(),
                    ts: rng.next(),
                    exp: rng.next(),
                },
                Message::Dropped {
                    query: n,
                    count: rng.next(),
                },
                Message::MetricsSnapshot { jsonl: s.repeat(7) },
                Message::Pong { token: n },
                Message::Error {
                    code: n as u16,
                    message: s.clone(),
                },
                Message::Bye { reason: s },
            ];
            for m in msgs {
                check(m);
            }
        }
        for n in (0..=300).step_by(7).chain([1, 2, 299, 300]) {
            let edges = (0..n).map(|_| rng.edge()).collect();
            check(Message::Batch { edges });
        }
        // Strings past the u16 limit are cut at it.
        let long = "y".repeat(u16::MAX as usize + 5);
        check(Message::Bye {
            reason: long.clone(),
        });
        check(Message::Insert(WireEdge {
            label: long,
            ..rng.edge()
        }));
    }
}
