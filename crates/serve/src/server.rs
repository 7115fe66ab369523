//! The `sgq-serve` host: a TCP listener plus a single engine thread that
//! owns one [`MultiQueryEngine`] and processes every connection's
//! commands in one global arrival order.
//!
//! # Threading model
//!
//! ```text
//!              accept thread (blocking accept, woken once at shutdown)
//!                    │ spawns per connection
//!        ┌───────────┴───────────┐
//!   reader thread           writer thread
//!   frames → Command        Outbox → socket
//!   (edges → EdgeBatch)
//!        │ edge frames wait      ▲
//!        │ on the budget         │ bounded per-subscription
//!        ▼                       │
//!   mpsc::Sender ───────► engine thread (owns MultiQueryEngine,
//!                          epoch buffer, subscriptions, timers)
//! ```
//!
//! The command channel holds at most about two epochs of edges: a reader
//! queues an edge frame only while fewer than `2 × batch_size` edges are
//! queued (see `QueueDepth`), and otherwise stops reading its socket until
//! the engine thread takes some. Only readers wait; the engine thread
//! never blocks on a client.
//!
//! The accept thread sleeps in `accept()` and takes a connection the
//! moment it arrives. When the engine thread exits — graceful shutdown or
//! a panic — a drop guard sets the shutdown flag and connects once to the
//! listener; the accept thread sees the flag, drops that connection and
//! returns, so [`Server::join`] never waits on an idle listener.
//!
//! Determinism: the engine thread is the only consumer of the command
//! queue, so all state transitions happen in one serial order; the
//! repo's batching-equivalence guarantee (result logs are bit-identical
//! under arbitrary batch splits) then makes the host's epoch chunking
//! (batch-size/tick flushes) invisible to subscribers. Clients that need
//! a cross-connection ordering point send [`Message::Ping`]: the reply
//! is emitted only after everything received earlier has been fully
//! processed and routed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, IoSlice, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sgq_core::engine::EngineOptions;
use sgq_core::obs::{TraceEvent, TraceSink};
use sgq_multiquery::{MultiQueryEngine, QueryId};
use sgq_query::{parse_program, SgqQuery, WindowSpec};
use sgq_types::{Label, Sge};

use crate::protocol::{
    encode_result_into, read_frame_into, Backpressure, EdgeBatch, Message, Request, ERR_BAD_QUERY,
    ERR_MALFORMED, ERR_NOT_SUPPORTED, ERR_OUT_OF_ORDER, ERR_SLOW_CONSUMER, ERR_UNKNOWN_QUERY,
    RESULT_FRAME_LEN,
};

/// Host configuration (all knobs the `sgq-serve` binary exposes as
/// flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7687` (port 0 picks a free port).
    pub addr: String,
    /// Epoch flush threshold: buffered edges are ingested as one batch
    /// once this many are pending. Twice this many queued edges is the
    /// inbound budget: a connection's reader queues no further edge frame
    /// until the engine thread has taken the queue below it.
    pub batch_size: usize,
    /// Wall-clock epoch tick: pending edges are flushed at least this
    /// often even when the batch never fills.
    pub tick: Duration,
    /// Periodic metrics dump interval (`None` disables the timer; a
    /// final snapshot is still written on shutdown).
    pub metrics_every: Option<Duration>,
    /// Metrics dump path. Snapshots are **appended**; a `.csv` extension
    /// selects `MetricsSnapshot::to_csv`, anything else JSONL.
    pub metrics_path: Option<String>,
    /// Structured lifecycle trace (JSONL): created at spawn, streamed as
    /// events happen, flushed on graceful shutdown. `None` records
    /// nothing.
    pub trace_path: Option<String>,
    /// Accept explicit `DELETE` frames (§6.2.5). Runs the engine with
    /// `suppress_duplicates = false` so insert/delete emissions cancel
    /// exactly; the default duplicate-suppressing mode rejects `DELETE`
    /// with [`ERR_NOT_SUPPORTED`].
    pub explicit_deletes: bool,
    /// Default per-subscription result-buffer capacity (frames), used
    /// when a `REGISTER` passes `buffer = 0`.
    pub default_buffer: u32,
    /// Retention horizon in ticks for late-registration catch-up
    /// (`None` keeps the engine default).
    pub retention: Option<u64>,
    /// Server identification echoed in `WELCOME`.
    pub name: String,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_size: 256,
            tick: Duration::from_millis(50),
            metrics_every: None,
            metrics_path: None,
            trace_path: None,
            explicit_deletes: false,
            default_buffer: 65536,
            retention: None,
            name: "sgq-serve".to_string(),
        }
    }
}

type ConnId = u64;

/// Commands flowing from connection reader threads to the engine thread.
enum Command {
    Connect(ConnId, Arc<Outbox>),
    Disconnect(ConnId),
    /// A frame other than INSERT, DELETE or BATCH.
    Frame(ConnId, Message),
    /// The edges of one INSERT, DELETE or BATCH frame.
    Edges(ConnId, EdgeBatch),
    /// A recoverable decode failure: report and keep the connection.
    SoftError(ConnId, u16, String),
}

/// The frames and edges readers have put on the command channel that the
/// engine thread has not taken yet, and the most of each seen at once.
/// A reader counts a frame in before it sends it, so the engine thread
/// never counts one out first.
///
/// It is also the **inbound edge budget**: a reader queues an edge frame
/// only while fewer than `budget` edges are queued — two epochs, one
/// being cut and one ready — and otherwise waits here, so TCP flow
/// control holds the rest of a fast client's stream. The engine thread
/// wakes waiting readers when it takes edges below the budget, and when
/// it exits. Other commands never wait, and neither does the engine.
struct QueueDepth {
    frames: AtomicU64,
    edges: AtomicU64,
    peak_frames: AtomicU64,
    peak_edges: AtomicU64,
    /// Queued edges at which readers stop queueing edge frames
    /// (`u64::MAX`: never).
    budget: u64,
    /// Set once the engine thread has exited, guarded for the condvar.
    engine_gone: Mutex<bool>,
    room: Condvar,
}

impl QueueDepth {
    /// The counters of a host cutting epochs of `batch_size` edges.
    fn new(batch_size: usize) -> QueueDepth {
        QueueDepth {
            frames: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            peak_frames: AtomicU64::new(0),
            peak_edges: AtomicU64::new(0),
            budget: (batch_size as u64).saturating_mul(2).max(1),
            engine_gone: Mutex::new(false),
            room: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.engine_gone
            .lock()
            .expect("no thread panics while holding the budget lock")
    }

    /// Waits until fewer edges than the budget are queued. `false` if the
    /// engine thread has exited, so nothing will take them.
    fn wait_for_room(&self) -> bool {
        if self.edges.load(Ordering::Relaxed) < self.budget {
            return true;
        }
        let mut gone = self.lock();
        while !*gone && self.edges.load(Ordering::Relaxed) >= self.budget {
            gone = self
                .room
                .wait(gone)
                .expect("no thread panics while holding the budget lock");
        }
        !*gone
    }

    fn push(&self, edges: usize) {
        let frames = self.frames.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_frames.fetch_max(frames, Ordering::Relaxed);
        let edges = edges as u64;
        let queued = self.edges.fetch_add(edges, Ordering::Relaxed) + edges;
        self.peak_edges.fetch_max(queued, Ordering::Relaxed);
    }

    fn pop(&self, edges: usize) {
        self.frames.fetch_sub(1, Ordering::Relaxed);
        let edges = edges as u64;
        let before = self.edges.fetch_sub(edges, Ordering::Relaxed);
        if before >= self.budget && before - edges < self.budget {
            // A reader that saw the queue full checked under this lock, so
            // taking it after the decrement orders the wake after its
            // check, or the decrement before it.
            drop(self.lock());
            self.room.notify_all();
        }
    }

    /// Marks the engine thread gone and wakes every waiting reader.
    fn close(&self) {
        *self.lock() = true;
        self.room.notify_all();
    }
}

// ---------------------------------------------------------------------
// Outbox: the bounded per-connection send queue
// ---------------------------------------------------------------------

enum Entry {
    Control(Vec<u8>),
    /// `frames` back-to-back result frames of one subscription, counted
    /// against its cap until the writer takes them.
    Results {
        query: u64,
        frames: u32,
        bytes: Vec<u8>,
    },
}

impl Entry {
    fn bytes(&self) -> &[u8] {
        match self {
            Entry::Control(bytes) | Entry::Results { bytes, .. } => bytes,
        }
    }
}

#[derive(Default)]
struct OutboxInner {
    queue: VecDeque<Entry>,
    /// Queued-but-unsent result frames per query id — the bounded
    /// buffer the backpressure policy acts on. Only ids with frames
    /// queued have a key, so registration churn leaves nothing behind.
    per_query: HashMap<u64, u32>,
    closed: bool,
}

/// The per-connection send queue. Control frames (replies, errors,
/// metrics, `BYE`) always enqueue; result frames are bounded per
/// subscription and the engine thread applies the subscription's
/// [`Backpressure`] policy when the cap is hit.
pub(crate) struct Outbox {
    inner: Mutex<OutboxInner>,
    cv: Condvar,
}

impl Outbox {
    fn new() -> Arc<Outbox> {
        Arc::new(Outbox {
            inner: Mutex::new(OutboxInner::default()),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxInner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the outbox lock")
    }

    fn push_control(&self, frame: Vec<u8>) {
        let mut g = self.lock();
        if g.closed {
            return;
        }
        g.queue.push_back(Entry::Control(frame));
        self.cv.notify_one();
    }

    /// Enqueues `bytes` — whole result frames of one subscription, back
    /// to back — as **one** entry, as far as the subscription's buffer
    /// has room: the chunk is cut at the cap, exactly where per-frame
    /// pushes would have started to be refused. Returns how many frames
    /// were accepted (the caller applies the policy to the rest).
    fn push_results(&self, query: u64, mut bytes: Vec<u8>, cap: u32) -> usize {
        debug_assert_eq!(bytes.len() % RESULT_FRAME_LEN, 0, "whole frames only");
        let frames = bytes.len() / RESULT_FRAME_LEN;
        let mut g = self.lock();
        if g.closed {
            // A closing connection accepts-and-discards: the Disconnect
            // command is already in flight.
            return frames;
        }
        let queued = g.per_query.get(&query).copied().unwrap_or(0);
        let accepted = frames.min(cap.saturating_sub(queued) as usize);
        if accepted == 0 {
            return 0;
        }
        *g.per_query.entry(query).or_insert(0) += accepted as u32;
        if accepted < frames {
            bytes.truncate(accepted * RESULT_FRAME_LEN);
            bytes.shrink_to_fit();
        }
        g.queue.push_back(Entry::Results {
            query,
            frames: accepted as u32,
            bytes,
        });
        self.cv.notify_one();
        accepted
    }

    fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        self.cv.notify_all();
    }

    /// Blocks until something is queued, then moves **everything** queued
    /// into `taken` (which must be empty) under one lock, returning the
    /// result frames' budget to their subscriptions. `false` once closed
    /// and drained.
    fn take_all(&self, taken: &mut VecDeque<Entry>) -> bool {
        let mut g = self.lock();
        while g.queue.is_empty() {
            if g.closed {
                return false;
            }
            g = self
                .cv
                .wait(g)
                .expect("no thread panics while holding the outbox lock");
        }
        let inner = &mut *g;
        std::mem::swap(&mut inner.queue, taken);
        for e in taken.iter() {
            if let Entry::Results { query, frames, .. } = e {
                if let Some(c) = inner.per_query.get_mut(query) {
                    *c = c.saturating_sub(*frames);
                    if *c == 0 {
                        inner.per_query.remove(query);
                    }
                }
            }
        }
        true
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A running host. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept + engine threads.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Command>();
        let depth = Arc::new(QueueDepth::new(cfg.batch_size));
        // Opened here so an unwritable trace path fails the spawn, not the
        // shutdown of a host that has been tracing into the void.
        let trace = cfg
            .trace_path
            .as_deref()
            .map(TraceFile::create)
            .transpose()?;

        let engine = {
            let cfg = cfg.clone();
            let shutdown = Arc::clone(&shutdown);
            let depth = Arc::clone(&depth);
            let wake = WakeOnEngineExit {
                shutdown: Arc::clone(&shutdown),
                addr,
                depth: Arc::clone(&depth),
            };
            thread::Builder::new()
                .name("sgq-serve-engine".into())
                .spawn(move || {
                    let _wake = wake;
                    EngineLoop::new(cfg, shutdown, trace, depth).run(rx)
                })?
        };

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("sgq-serve-accept".into())
                .spawn(move || accept_loop(listener, tx, depth, shutdown))?
        };

        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            engine: Some(engine),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag — set it (e.g. from a signal handler) to start
    /// a graceful drain. The engine thread sees it within 10 ms.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests a graceful shutdown (drain + final snapshot + `BYE`).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept and engine threads to finish.
    pub fn join(mut self) {
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Held by the engine thread: however it exits, the host is shutting down,
/// and the accept thread blocked in `accept()` and the readers waiting on
/// the inbound budget must hear of it.
struct WakeOnEngineExit {
    shutdown: Arc<AtomicBool>,
    /// The listener's bound address.
    addr: SocketAddr,
    depth: Arc<QueueDepth>,
}

impl Drop for WakeOnEngineExit {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.depth.close();
        let mut addr = self.addr;
        // A wildcard bind is reachable through loopback.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // The accept thread drops this connection unread.
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<Command>,
    depth: Arc<QueueDepth>,
    shutdown: Arc<AtomicBool>,
) {
    let mut next_conn: ConnId = 1;
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn = next_conn;
                next_conn += 1;
                if spawn_connection(conn, stream, tx.clone(), Arc::clone(&depth)).is_err() {
                    // Thread spawn failure: drop the connection.
                }
            }
            // Out of descriptors and the like: back off rather than spin.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_connection(
    conn: ConnId,
    stream: TcpStream,
    tx: mpsc::Sender<Command>,
    depth: Arc<QueueDepth>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let outbox = Outbox::new();
    let _ = tx.send(Command::Connect(conn, Arc::clone(&outbox)));

    let write_stream = stream.try_clone()?;
    let writer_outbox = Arc::clone(&outbox);
    thread::Builder::new()
        .name(format!("sgq-serve-w{conn}"))
        .spawn(move || writer_loop(write_stream, writer_outbox))?;

    thread::Builder::new()
        .name(format!("sgq-serve-r{conn}"))
        .spawn(move || reader_loop(conn, stream, tx, depth, outbox))?;
    Ok(())
}

fn writer_loop(mut stream: TcpStream, outbox: Arc<Outbox>) {
    let mut taken = VecDeque::new();
    while outbox.take_all(&mut taken) {
        // Everything queued since the last wakeup goes out in vectored
        // writes straight from the entries: nothing is copied together.
        let sent = write_entries(&mut stream, &taken);
        taken.clear();
        if sent.is_err() {
            outbox.close();
            break;
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Writes every entry's bytes, in order, with as few `writev`s as the
/// writer takes: each call sends what it can of the remaining entries
/// (a kernel takes at most `IOV_MAX` of them per call, and a full socket
/// buffer fewer bytes), and the slices advance past what was sent.
fn write_entries(w: &mut impl Write, entries: &VecDeque<Entry>) -> io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = entries.iter().map(|e| IoSlice::new(e.bytes())).collect();
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, 0); // skips leading empty entries
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The capacity a connection's frame buffer may keep between frames.
const FRAME_BUF_KEPT: usize = 1 << 16;

fn reader_loop(
    conn: ConnId,
    stream: TcpStream,
    tx: mpsc::Sender<Command>,
    depth: Arc<QueueDepth>,
    outbox: Arc<Outbox>,
) {
    // A frame's length prefix and payload come out of one `recv`, and
    // small frames several to a `recv`.
    let mut stream = BufReader::new(stream);
    // Every frame is read into this one buffer.
    let mut payload = Vec::new();
    loop {
        let request = read_frame_into(&mut stream, &mut payload)
            .map(|read| read.then(|| Request::decode(&payload)));
        if payload.capacity() > FRAME_BUF_KEPT {
            // One outsized frame does not pin its buffer for the
            // connection's life.
            payload = Vec::new();
        }
        match request {
            // Clean EOF at a frame boundary: the client hung up.
            Ok(None) => break,
            Ok(Some(Ok(req))) => {
                let cmd = match req {
                    Request::Edges(batch) => {
                        if !depth.wait_for_room() {
                            break; // the engine thread is gone
                        }
                        depth.push(batch.rows.len());
                        Command::Edges(conn, batch)
                    }
                    Request::Message(msg) => {
                        depth.push(0);
                        Command::Frame(conn, msg)
                    }
                };
                if tx.send(cmd).is_err() {
                    break;
                }
            }
            Ok(Some(Err(err))) if err.recoverable => {
                depth.push(0);
                let _ = tx.send(Command::SoftError(conn, err.code, err.message));
            }
            Ok(Some(Err(err))) => {
                // The byte stream can no longer be trusted.
                outbox.push_control(
                    Message::Error {
                        code: err.code,
                        message: err.message,
                    }
                    .encode(),
                );
                outbox.push_control(
                    Message::Bye {
                        reason: "fatal protocol error".into(),
                    }
                    .encode(),
                );
                break;
            }
            Err(e) => {
                // Framing-level failure: truncated frame or oversized
                // declared length. Tell the client why if it can still
                // hear us, then close.
                let code = if e.kind() == io::ErrorKind::InvalidData {
                    crate::protocol::ERR_OVERSIZED
                } else {
                    ERR_MALFORMED
                };
                outbox.push_control(
                    Message::Error {
                        code,
                        message: e.to_string(),
                    }
                    .encode(),
                );
                outbox.push_control(
                    Message::Bye {
                        reason: "framing error".into(),
                    }
                    .encode(),
                );
                break;
            }
        }
    }
    outbox.close();
    let _ = tx.send(Command::Disconnect(conn));
}

// ---------------------------------------------------------------------
// Engine thread
// ---------------------------------------------------------------------

/// The `--trace` file: lifecycle events streamed as JSON lines. Shared
/// between the sink installed on the engine and the loop, which flushes it
/// on graceful shutdown.
#[derive(Clone)]
struct TraceFile(Arc<Mutex<BufWriter<File>>>);

impl TraceFile {
    fn create(path: &str) -> io::Result<TraceFile> {
        Ok(TraceFile(Arc::new(Mutex::new(BufWriter::new(
            File::create(path)?,
        )))))
    }

    fn flush(&self) -> io::Result<()> {
        self.0
            .lock()
            .expect("no thread panics while holding the trace lock")
            .flush()
    }
}

impl TraceSink for TraceFile {
    fn event(&mut self, ev: &TraceEvent) {
        let mut out = self
            .0
            .lock()
            .expect("no thread panics while holding the trace lock");
        // A full disk must not take the host down; the flush on shutdown
        // reports what the stream could not.
        let _ = writeln!(out, "{}", ev.to_json());
    }
}

struct Subscription {
    conn: ConnId,
    policy: Backpressure,
    cap: u32,
    /// Result frames dropped since the last `DROPPED` report
    /// (drop-newest policy).
    dropped: u64,
}

/// The longest the engine thread waits before it looks at the shutdown
/// flag again.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

struct EngineLoop {
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
    engine: MultiQueryEngine,
    trace: Option<TraceFile>,
    depth: Arc<QueueDepth>,
    conns: HashMap<ConnId, Arc<Outbox>>,
    /// Ordered so result routing visits queries deterministically.
    subs: BTreeMap<QueryId, Subscription>,
    pending: Vec<Sge>,
    /// Host watermark: the largest timestamp accepted so far.
    watermark: u64,
}

impl EngineLoop {
    fn new(
        cfg: ServeConfig,
        shutdown: Arc<AtomicBool>,
        trace: Option<TraceFile>,
        depth: Arc<QueueDepth>,
    ) -> EngineLoop {
        // A RESULT frame carries `(src, trg, ts, exp)` only, so S-PATH
        // results need no materialised path payload: walking the tree and
        // allocating the edge list for every result would be thrown away.
        let mut opts = EngineOptions {
            materialize_paths: false,
            ..EngineOptions::default()
        };
        if cfg.explicit_deletes {
            opts.suppress_duplicates = false;
        }
        let mut engine = MultiQueryEngine::with_options(opts);
        if let Some(h) = cfg.retention {
            engine.set_retention_horizon(h);
        }
        if let Some(trace) = &trace {
            engine.set_trace_sink(Box::new(trace.clone()));
        }
        EngineLoop {
            cfg,
            shutdown,
            engine,
            trace,
            depth,
            conns: HashMap::new(),
            subs: BTreeMap::new(),
            pending: Vec::new(),
            watermark: 0,
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Command>) {
        let mut last_tick = Instant::now();
        let mut last_metrics = Instant::now();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Wake for the next timer, and often enough that a shutdown
            // flag set from outside is seen within SHUTDOWN_POLL.
            let mut wait = SHUTDOWN_POLL.min(self.cfg.tick.saturating_sub(last_tick.elapsed()));
            if let Some(every) = self.cfg.metrics_every {
                wait = wait.min(every.saturating_sub(last_metrics.elapsed()));
            }
            match rx.recv_timeout(wait) {
                Ok(cmd) => {
                    self.handle(cmd);
                    // Drain whatever else is already queued before
                    // checking timers: one lock round per wakeup.
                    while let Ok(cmd) = rx.try_recv() {
                        if self.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        self.handle(cmd);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if last_tick.elapsed() >= self.cfg.tick {
                self.flush_epoch();
                last_tick = Instant::now();
            }
            if let Some(every) = self.cfg.metrics_every {
                if last_metrics.elapsed() >= every {
                    self.dump_metrics();
                    last_metrics = Instant::now();
                }
            }
        }
        self.graceful_shutdown();
    }

    /// Queues a control frame on a connection's outbox (no-op once the
    /// connection is gone).
    fn send(&self, conn: ConnId, msg: Message) {
        if let Some(outbox) = self.conns.get(&conn) {
            outbox.push_control(msg.encode());
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Connect(conn, outbox) => {
                self.conns.insert(conn, outbox);
            }
            Command::Disconnect(conn) => self.drop_connection(conn, None),
            Command::SoftError(conn, code, message) => {
                self.depth.pop(0);
                self.send(conn, Message::Error { code, message });
            }
            Command::Frame(conn, msg) => {
                self.depth.pop(0);
                self.handle_frame(conn, msg);
            }
            Command::Edges(conn, batch) => {
                self.depth.pop(batch.rows.len());
                self.accept_edges(conn, &batch);
            }
        }
    }

    fn handle_frame(&mut self, conn: ConnId, msg: Message) {
        match msg {
            Message::Hello { client: _ } => {
                self.send(
                    conn,
                    Message::Welcome {
                        server: self.cfg.name.clone(),
                    },
                );
            }
            Message::Register {
                policy,
                buffer,
                window,
                slide,
                query,
            } => self.register(conn, policy, buffer, window, slide, &query),
            Message::Deregister { query } => self.deregister(conn, query),
            Message::Insert(_) | Message::Delete(_) | Message::Batch { .. } => {
                unreachable!("the reader passes edge frames on as Command::Edges")
            }
            Message::Advance { t } => {
                if t < self.watermark {
                    self.send(
                        conn,
                        Message::Error {
                            code: ERR_OUT_OF_ORDER,
                            message: format!("advance to {t} behind watermark {}", self.watermark),
                        },
                    );
                    return;
                }
                self.flush_epoch();
                self.watermark = t;
                self.engine.advance_time(t);
                self.route_results();
            }
            Message::Flush => {
                self.flush_epoch();
                self.report_drops();
            }
            Message::Metrics => {
                self.flush_epoch();
                let mut jsonl = self.engine.metrics_snapshot().to_jsonl();
                jsonl.push_str(&memory_record(&self.engine, &self.depth));
                self.send(conn, Message::MetricsSnapshot { jsonl });
            }
            Message::Shutdown => {
                // The graceful sequence runs when the loop observes the
                // flag; everything already queued ahead of this frame
                // has been processed (single consumer).
                self.shutdown.store(true, Ordering::SeqCst);
            }
            Message::Ping { token } => {
                // Full barrier: everything received before this frame is
                // processed and routed before the pong is queued, and
                // the pong is ordered after those result frames in the
                // connection's outbox.
                self.flush_epoch();
                self.report_drops();
                self.send(conn, Message::Pong { token });
            }
            // Server→client types arriving from a client are a protocol
            // violation, but a recoverable one.
            other => self.send(
                conn,
                Message::Error {
                    code: ERR_MALFORMED,
                    message: format!(
                        "unexpected message type 0x{:02x} from client",
                        other.type_byte()
                    ),
                },
            ),
        }
    }

    fn register(
        &mut self,
        conn: ConnId,
        policy: Backpressure,
        buffer: u32,
        window: u64,
        slide: u64,
        query: &str,
    ) {
        // Order the registration against the edges already received.
        self.flush_epoch();
        let program = match parse_program(query) {
            Ok(p) => p,
            Err(e) => {
                self.send(
                    conn,
                    Message::Error {
                        code: ERR_BAD_QUERY,
                        message: format!("{e:?}"),
                    },
                );
                return;
            }
        };
        if window == 0 || slide == 0 {
            self.send(
                conn,
                Message::Error {
                    code: ERR_BAD_QUERY,
                    message: "window and slide must be positive".into(),
                },
            );
            return;
        }
        let q = SgqQuery::new(program, WindowSpec::new(window, slide));
        let id = self.engine.register(&q);
        let cap = if buffer == 0 {
            self.cfg.default_buffer
        } else {
            buffer
        };
        self.subs.insert(
            id,
            Subscription {
                conn,
                policy,
                cap,
                dropped: 0,
            },
        );
        self.send(conn, Message::Registered { query: id.0 });
        // Late registration catch-up: results the engine replays into
        // the new query's log stream out immediately.
        self.route_results();
    }

    fn deregister(&mut self, conn: ConnId, raw: u64) {
        let id = QueryId(raw);
        let owned = self.subs.get(&id).map(|s| s.conn) == Some(conn);
        if !owned {
            self.send(
                conn,
                Message::Error {
                    code: ERR_UNKNOWN_QUERY,
                    message: format!("query {raw} is not registered on this connection"),
                },
            );
            self.send(
                conn,
                Message::Deregistered {
                    query: raw,
                    ok: false,
                },
            );
            return;
        }
        // Route everything the query produced up to this point first, so
        // a deregistering subscriber still sees its final results.
        self.flush_epoch();
        let ok = self.engine.deregister(id);
        self.subs.remove(&id);
        self.send(conn, Message::Deregistered { query: raw, ok });
    }

    /// Accepts one frame's edges, in order: the frame's labels resolve
    /// once, then each row is checked against the mode and the watermark
    /// and buffered into the open epoch (an insert) or applied at once
    /// behind a flush of the buffered inserts (a delete). Labels no
    /// registered query references are discarded, mirroring the §7.2.1
    /// resolve step (the engine's interner only knows labels that appear
    /// in some registered query).
    fn accept_edges(&mut self, conn: ConnId, batch: &EdgeBatch) {
        let labels: Vec<Option<Label>> = (batch.labels.iter())
            .map(|name| self.engine.labels().get(name))
            .collect();
        for row in &batch.rows {
            if row.delete() && !self.cfg.explicit_deletes {
                self.send(
                    conn,
                    Message::Error {
                        code: ERR_NOT_SUPPORTED,
                        message: "host runs in append-only mode (start with --explicit-deletes)"
                            .into(),
                    },
                );
                continue;
            }
            if row.t < self.watermark {
                self.send(
                    conn,
                    Message::Error {
                        code: ERR_OUT_OF_ORDER,
                        message: format!("edge at t={} behind watermark {}", row.t, self.watermark),
                    },
                );
                continue;
            }
            let Some(label) = labels[row.label_idx()] else {
                continue;
            };
            self.watermark = row.t;
            let sge = Sge::raw(row.src, row.trg, label, row.t);
            if row.delete() {
                self.flush_epoch();
                self.engine.delete(sge);
                self.route_results();
            } else {
                self.pending.push(sge);
                if self.pending.len() >= self.cfg.batch_size {
                    self.flush_epoch();
                }
            }
        }
    }

    /// Ingests the pending epoch and routes the fresh results.
    fn flush_epoch(&mut self) {
        if !self.pending.is_empty() {
            // Borrowed and cleared, so the buffer keeps its capacity.
            self.engine.ingest_batch(&self.pending);
            self.pending.clear();
        }
        self.route_results();
    }

    /// Forwards every subscription's undelivered results — all RESULT
    /// frames of one (epoch, subscription) as one outbox entry — applying
    /// the backpressure policy on full buffers, then lets the engine free
    /// the history nobody can need any more.
    fn route_results(&mut self) {
        let mut evict: Vec<ConnId> = Vec::new();
        for (&id, sub) in self.subs.iter_mut() {
            let undelivered = self.engine.undelivered(id);
            if undelivered == 0 {
                continue;
            }
            let mut chunk = Vec::with_capacity(undelivered * RESULT_FRAME_LEN);
            self.engine.for_each_undelivered(id, |delete, row| {
                encode_result_into(
                    &mut chunk,
                    id.0,
                    delete,
                    row.src.0,
                    row.trg.0,
                    row.interval.ts,
                    row.interval.exp,
                );
            });
            let Some(outbox) = self.conns.get(&sub.conn) else {
                continue;
            };
            let frames = chunk.len() / RESULT_FRAME_LEN;
            let accepted = outbox.push_results(id.0, chunk, sub.cap);
            if accepted < frames {
                match sub.policy {
                    Backpressure::DropNewest => sub.dropped += (frames - accepted) as u64,
                    Backpressure::Disconnect => evict.push(sub.conn),
                }
            }
        }
        for conn in evict {
            self.drop_connection(conn, Some("slow consumer"));
        }
        // Everything routed above is delivered as far as the engine is
        // concerned (queued, dropped-and-counted, or its connection is
        // gone): what is also expired at the watermark can go.
        self.engine.release_delivered();
    }

    /// Emits `DROPPED` reports for lossy subscriptions (at barriers).
    fn report_drops(&mut self) {
        let reports: Vec<(ConnId, u64, u64)> = self
            .subs
            .iter_mut()
            .filter(|(_, s)| s.dropped > 0)
            .map(|(id, s)| {
                let r = (s.conn, id.0, s.dropped);
                s.dropped = 0;
                r
            })
            .collect();
        for (conn, query, count) in reports {
            self.send(conn, Message::Dropped { query, count });
        }
    }

    /// Tears down a connection: deregisters its subscriptions and closes
    /// its outbox. `reason` is `Some` for server-initiated eviction.
    fn drop_connection(&mut self, conn: ConnId, reason: Option<&str>) {
        let owned: Vec<QueryId> = self
            .subs
            .iter()
            .filter(|(_, s)| s.conn == conn)
            .map(|(id, _)| *id)
            .collect();
        for id in owned {
            self.engine.deregister(id);
            self.subs.remove(&id);
        }
        if let Some(outbox) = self.conns.remove(&conn) {
            if let Some(reason) = reason {
                outbox.push_control(
                    Message::Error {
                        code: ERR_SLOW_CONSUMER,
                        message: reason.to_string(),
                    }
                    .encode(),
                );
                outbox.push_control(
                    Message::Bye {
                        reason: reason.to_string(),
                    }
                    .encode(),
                );
            }
            outbox.close();
        }
    }

    fn dump_metrics(&mut self) {
        let Some(path) = self.cfg.metrics_path.clone() else {
            return;
        };
        let snap = self.engine.metrics_snapshot();
        let doc = if path.ends_with(".csv") {
            snap.to_csv()
        } else {
            snap.to_jsonl()
        };
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(doc.as_bytes()));
    }

    fn graceful_shutdown(&mut self) {
        // Drain: flush the open epoch, route every result, report drops.
        self.flush_epoch();
        self.report_drops();
        self.dump_metrics();
        if let Some(trace) = &self.trace {
            if let Err(e) = trace.flush() {
                eprintln!("sgq-serve: trace file incomplete: {e}");
            }
        }
        let conns: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn in conns {
            if let Some(outbox) = self.conns.get(&conn) {
                outbox.push_control(
                    Message::Bye {
                        reason: "shutdown".into(),
                    }
                    .encode(),
                );
            }
            self.drop_connection(conn, None);
        }
    }
}

/// The `"record":"memory"` line of a METRICS reply: the bytes the
/// engine's S-PATH forests, edge stores, PATTERN tables and root sinks
/// reserve, summed from their censuses, and its catch-up input history;
/// the frames and edges queued on the command channel behind this
/// METRICS frame, and the most of each queued at once so far (held to the
/// inbound budget plus a frame per reader); then the process's `VmHWM`,
/// `RssAnon` and `RssFile` in bytes, each left out where
/// `/proc/self/status` does not have it. The censuses are full scans, so
/// this runs per METRICS frame, never per epoch.
fn memory_record(engine: &MultiQueryEngine, depth: &QueueDepth) -> String {
    use std::fmt::Write as _;
    let path: usize = (engine.path_censuses().iter())
        .map(|(_, c)| c.reserved_bytes())
        .sum();
    let store: usize = (engine.store_censuses().iter())
        .map(|(_, c)| c.reserved_bytes)
        .sum();
    let pattern: usize = (engine.pattern_censuses().iter())
        .map(|(_, c)| c.reserved_bytes)
        .sum();
    let sink: usize = (engine.sink_censuses().iter())
        .map(|(_, c)| c.reserved_bytes)
        .sum();
    let (_, history) = engine.history_census();
    let queued = |n: &AtomicU64| n.load(Ordering::Relaxed);
    let mut line = format!(
        "{{\"record\":\"memory\",\"path_bytes\":{path},\"store_bytes\":{store},\
         \"pattern_bytes\":{pattern},\"sink_bytes\":{sink},\"history_bytes\":{history},\
         \"queued_frames\":{},\"queued_edges\":{},\"peak_queued_frames\":{},\
         \"peak_queued_edges\":{}",
        queued(&depth.frames),
        queued(&depth.edges),
        queued(&depth.peak_frames),
        queued(&depth.peak_edges),
    );
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for (field, key) in [
        ("VmHWM:", "vm_hwm_bytes"),
        ("RssAnon:", "rss_anon_bytes"),
        ("RssFile:", "rss_file_bytes"),
    ] {
        let kb = (status.lines())
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
        if let Some(kb) = kb {
            let _ = write!(line, ",\"{key}\":{}", kb * 1024);
        }
    }
    line.push_str("}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::WireEdge;

    /// `n` result rows with distinguishable fields.
    fn rows(n: u64) -> Vec<(bool, u64, u64, u64, u64)> {
        (0..n)
            .map(|i| (i % 3 == 0, i, i + 100, i * 7, i * 7 + 600))
            .collect()
    }

    fn chunk(query: u64, rows: &[(bool, u64, u64, u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &(delete, src, trg, ts, exp) in rows {
            encode_result_into(&mut buf, query, delete, src, trg, ts, exp);
        }
        buf
    }

    /// What the per-frame outbox put on the socket for the same rows.
    fn per_frame(query: u64, rows: &[(bool, u64, u64, u64, u64)]) -> Vec<u8> {
        rows.iter()
            .flat_map(|&(delete, src, trg, ts, exp)| {
                Message::Result {
                    query,
                    delete,
                    src,
                    trg,
                    ts,
                    exp,
                }
                .encode()
            })
            .collect()
    }

    fn take_bytes(outbox: &Outbox) -> Option<Vec<u8>> {
        let mut taken = VecDeque::new();
        outbox
            .take_all(&mut taken)
            .then(|| taken.iter().flat_map(|e| e.bytes().to_vec()).collect())
    }

    #[test]
    fn outbox_bounds_results_but_not_control() {
        let outbox = Outbox::new();
        let r = rows(6);
        // Cap 2: a third frame is refused, whether it comes alone or as
        // the tail of a chunk.
        assert_eq!(outbox.push_results(7, chunk(7, &r[..1]), 2), 1);
        assert_eq!(outbox.push_results(7, chunk(7, &r[1..4]), 2), 1);
        assert_eq!(outbox.push_results(7, chunk(7, &r[4..5]), 2), 0);
        // A different subscription has its own budget.
        assert_eq!(outbox.push_results(8, chunk(8, &r[..1]), 2), 1);
        // Control frames bypass the cap.
        outbox.push_control(vec![5]);
        // Taking frees budget.
        let mut expect = per_frame(7, &r[..2]);
        expect.extend(per_frame(8, &r[..1]));
        expect.push(5);
        assert_eq!(take_bytes(&outbox), Some(expect));
        assert_eq!(outbox.push_results(7, chunk(7, &r[..2]), 2), 2);
        outbox.close();
        // Drain the rest, then nothing.
        assert_eq!(take_bytes(&outbox), Some(per_frame(7, &r[..2])));
        assert_eq!(take_bytes(&outbox), None);
        // Closed outboxes accept-and-discard.
        assert_eq!(outbox.push_results(7, chunk(7, &r), 2), 6);
        assert_eq!(take_bytes(&outbox), None);
    }

    /// A connection that keeps registering and deregistering leaves no
    /// budget entry behind: ten thousand query ids, each with frames
    /// queued, some refused at the cap, and taken.
    #[test]
    fn outbox_budget_map_does_not_grow_under_query_churn() {
        let outbox = Outbox::new();
        let r = rows(3);
        for query in 0..10_000u64 {
            assert_eq!(outbox.push_results(query, chunk(query, &r), 2), 2);
            assert_eq!(outbox.push_results(query, chunk(query, &r[..1]), 2), 0);
            // A subscription refused outright holds no budget either.
            assert_eq!(
                outbox.push_results(query + 1, chunk(query + 1, &r[..1]), 0),
                0
            );
            assert_eq!(take_bytes(&outbox), Some(per_frame(query, &r[..2])));
            assert!(outbox.lock().per_query.is_empty(), "query {query}");
        }
    }

    /// The chunked outbox puts the same bytes on the socket as one entry
    /// per frame did, including when a chunk is cut at the subscription
    /// cap and control frames are queued around it.
    #[test]
    fn chunked_outbox_preserves_the_byte_stream() {
        let r = rows(10);
        assert_eq!(chunk(3, &r), per_frame(3, &r));
        assert_eq!(chunk(3, &r).len(), 10 * RESULT_FRAME_LEN);

        let pong = Message::Pong { token: 9 }.encode();
        let bye = Message::Bye {
            reason: "shutdown".into(),
        }
        .encode();
        let outbox = Outbox::new();
        outbox.push_control(pong.clone());
        // Room for 4 of query 3's 10 frames; query 4 fits whole.
        assert_eq!(outbox.push_results(3, chunk(3, &r), 4), 4);
        assert_eq!(outbox.push_results(4, chunk(4, &r[..3]), 4), 3);
        outbox.push_control(bye.clone());

        let mut expect = pong;
        expect.extend(per_frame(3, &r[..4]));
        expect.extend(per_frame(4, &r[..3]));
        expect.extend(bye);
        assert_eq!(take_bytes(&outbox), Some(expect));
    }

    /// An outbox of `n` entries — control frames of 1 to 10 000 bytes and
    /// result chunks of 1 to 40 frames, interleaved — and the bytes they
    /// put on the socket, in order.
    fn queued_entries(n: u64) -> (Arc<Outbox>, Vec<u8>) {
        let outbox = Outbox::new();
        let mut expect = Vec::new();
        for i in 0..n {
            if i % 3 == 0 {
                let frame: Vec<u8> = (0..1 + i * 37 % 10_000).map(|b| (b ^ i) as u8).collect();
                expect.extend_from_slice(&frame);
                outbox.push_control(frame);
            } else {
                let bytes = chunk(i, &rows(1 + i % 40));
                expect.extend_from_slice(&bytes);
                assert_eq!(outbox.push_results(i, bytes, u32::MAX), 1 + i as usize % 40);
            }
        }
        (outbox, expect)
    }

    /// The writer puts every entry on the socket, in order, with no
    /// coalescing copy: 3 000 entries taken in one wakeup are more than
    /// one `writev` accepts (`IOV_MAX` is 1 024 on Linux), and the ~7 MB
    /// they hold, read back by a slow reader, overflow the socket buffers,
    /// so writes come back short.
    #[test]
    fn writer_sends_every_entry_in_order_through_partial_writes() {
        use std::io::Read;
        let (outbox, expect) = queued_entries(3_000);
        assert!(expect.len() > 6 << 20, "{} bytes", expect.len());
        outbox.close(); // the writer takes everything queued, then stops
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        let writer = thread::spawn(move || writer_loop(stream, outbox));
        let (mut got, mut buf) = (Vec::with_capacity(expect.len()), vec![0u8; 32 << 10]);
        loop {
            let n = reader.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
            thread::sleep(Duration::from_millis(1));
        }
        writer.join().unwrap();
        assert_eq!(got.len(), expect.len());
        assert!(got == expect, "the byte stream differs from the entries");
    }

    /// A writer that takes at most `max` bytes per call, across as many
    /// of the given slices as that spans: every call but the last ends
    /// inside an entry or exactly on an entry boundary.
    struct Trickle {
        max: usize,
        calls: usize,
        out: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.max;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.max - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Partial vectored writes resume exactly where the last one stopped,
    /// whether that is inside an entry or on a boundary.
    #[test]
    fn partial_vectored_writes_resume_where_they_stopped() {
        let (outbox, expect) = queued_entries(200);
        let mut taken = VecDeque::new();
        assert!(outbox.take_all(&mut taken));
        for max in [1, 45, 46, 1_000, 7_919] {
            let mut w = Trickle {
                max,
                calls: 0,
                out: Vec::new(),
            };
            write_entries(&mut w, &taken).unwrap();
            assert!(w.out == expect, "max {max}: the byte stream differs");
            assert_eq!(w.calls, expect.len().div_ceil(max), "max {max}");
        }
    }

    /// A connect is taken when it arrives, not at the next look at the
    /// listener: the median connect + HELLO/WELCOME round trip over 21
    /// sequential connections stays under 1.5 ms. A timing assertion, so
    /// it runs in release with `--ignored`.
    #[test]
    #[ignore = "timing assertion: cargo test --release -p sgq_serve -- --ignored"]
    fn connects_are_accepted_on_arrival() {
        let server = Server::spawn(ServeConfig::default()).unwrap();
        let mut ms: Vec<f64> = (0..21)
            .map(|_| {
                let t = Instant::now();
                let mut c = Client::connect(server.addr()).unwrap();
                c.hello("accept-latency").unwrap();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        server.shutdown();
        server.join();
        ms.sort_by(f64::total_cmp);
        assert!(
            ms[10] < 1.5,
            "median connect + HELLO round trip {:.2} ms; sorted: {ms:.2?}",
            ms[10]
        );
    }

    /// The value of `"key":` in a JSON line, as an integer.
    fn json_field(line: &str, key: &str) -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        rest[..rest.find([',', '}'])?].parse().ok()
    }

    /// A METRICS reply ends with one memory line: the state bytes by kind
    /// (a Q5 host that has joined some edges holds PATTERN bytes), the
    /// command-channel depth (nothing queued behind the METRICS frame of a
    /// client that waits for its reply; at least the four-edge BATCH at
    /// the peak) and, on Linux, the process's resident-set fields.
    #[test]
    fn metrics_reply_carries_a_memory_record() {
        let server = Server::spawn(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.hello("memory").unwrap();
        let q5 = "Ans(m1, m2) <- knows(x, y), hasCreator(m1, x), hasCreator(m2, y), \
                  replyOf(m2, m1).";
        c.register(q5, 100, 10).unwrap();
        let edge = |src, trg, label: &str, t| WireEdge {
            delete: false,
            src,
            trg,
            t,
            label: label.to_string(),
        };
        c.batch(vec![
            edge(1, 2, "knows", 1),
            edge(10, 1, "hasCreator", 2),
            edge(11, 2, "hasCreator", 3),
            edge(11, 10, "replyOf", 4),
        ])
        .unwrap();
        c.flush().unwrap();
        let jsonl = c.metrics().unwrap();
        let memory: Vec<&str> = (jsonl.lines())
            .filter(|l| l.contains("\"record\":\"memory\""))
            .collect();
        assert_eq!(memory.len(), 1, "{jsonl}");
        let line = memory[0];
        assert!(json_field(line, "pattern_bytes").unwrap() > 0, "{line}");
        assert!(json_field(line, "store_bytes").unwrap() > 0, "{line}");
        assert!(json_field(line, "sink_bytes").is_some(), "{line}");
        assert!(json_field(line, "history_bytes").unwrap() > 0, "{line}");
        assert_eq!(json_field(line, "path_bytes"), Some(0), "{line}");
        assert_eq!(json_field(line, "queued_frames"), Some(0), "{line}");
        assert_eq!(json_field(line, "queued_edges"), Some(0), "{line}");
        assert!(
            json_field(line, "peak_queued_frames").unwrap() >= 1,
            "{line}"
        );
        assert!(
            json_field(line, "peak_queued_edges").unwrap() >= 4,
            "{line}"
        );
        if std::path::Path::new("/proc/self/status").exists() {
            for key in ["vm_hwm_bytes", "rss_anon_bytes", "rss_file_bytes"] {
                assert!(json_field(line, key).unwrap() > 0, "{key}: {line}");
            }
        }
        server.shutdown();
        server.join();
    }

    /// A reader at the budget waits until the engine thread takes edges
    /// below it, or exits (its drop guard goes); a host that never cuts by
    /// size never waits.
    #[test]
    fn readers_wait_on_the_budget_until_edges_are_taken_or_the_engine_exits() {
        let depth = Arc::new(QueueDepth::new(4));
        let waiter = || {
            let (tx, rx) = mpsc::channel();
            let depth = Arc::clone(&depth);
            thread::spawn(move || tx.send(depth.wait_for_room()).unwrap());
            rx
        };
        let (held, released) = (Duration::from_millis(50), Duration::from_secs(2));
        depth.push(0);
        depth.push(4);
        depth.push(4);
        let reader = waiter();
        assert!(
            reader.recv_timeout(held).is_err(),
            "8 edges fill a budget of 8"
        );
        depth.pop(0);
        assert!(
            reader.recv_timeout(held).is_err(),
            "a frame without edges frees nothing"
        );
        depth.pop(4);
        assert_eq!(reader.recv_timeout(released), Ok(true));

        depth.push(4);
        let reader = waiter();
        assert!(reader.recv_timeout(held).is_err());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        drop(WakeOnEngineExit {
            shutdown: Arc::new(AtomicBool::new(false)),
            addr: listener.local_addr().unwrap(),
            depth: Arc::clone(&depth),
        });
        assert_eq!(
            reader.recv_timeout(released),
            Ok(false),
            "the engine is gone"
        );

        let unbounded = QueueDepth::new(usize::MAX);
        unbounded.push(1 << 40);
        assert!(unbounded.wait_for_room());
    }

    /// `true` if `server.join()` returns within `limit`.
    fn joins_within(server: Server, limit: Duration) -> bool {
        let (done, joined) = mpsc::channel();
        thread::spawn(move || {
            server.join();
            let _ = done.send(());
        });
        joined.recv_timeout(limit).is_ok()
    }

    /// A host bound to the wildcard address stops its accept thread at
    /// shutdown (woken through loopback), with no client and with one
    /// idle client, and the idle client hears BYE.
    #[test]
    fn shutdown_joins_promptly() {
        let wildcard = || ServeConfig {
            addr: "0.0.0.0:0".into(),
            ..ServeConfig::default()
        };
        let limit = Duration::from_secs(2);

        let server = Server::spawn(wildcard()).unwrap();
        server.shutdown();
        assert!(joins_within(server, limit), "join hung with no client");

        let server = Server::spawn(wildcard()).unwrap();
        let mut idle = Client::connect((Ipv4Addr::LOCALHOST, server.addr().port())).unwrap();
        idle.hello("idle").unwrap();
        server.shutdown();
        assert!(joins_within(server, limit), "join hung with an idle client");
        assert_eq!(idle.drain_until_closed().unwrap(), "shutdown");
    }
}
