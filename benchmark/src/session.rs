//! One wire session against a separate-process host: set-up, the
//! correctness gate, warm-up, the paced phase (open loop), the saturate
//! phase (closed loop), and the final barrier.
//!
//! The generator is this process: one connection, two threads. The feeder
//! (the calling thread) writes pre-encoded frames; the receiver reads
//! RESULT frames and stamps every marker. Between the first timed edge and
//! the final barrier the feeder sends BATCH frames and nothing else: a
//! PING, FLUSH, ADVANCE or METRICS frame is a forced epoch cut, and
//! forced cuts were what made the previous benchmark's latency a race.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use sgq_core::obs::ObsLevel;
use sgq_serve::client::Client;
use sgq_serve::protocol::{read_message, Backpressure, Message, MAX_FRAME_LEN};

use crate::host::{self, HostProc};
use crate::inproc::{registrations, Mirror, Row};
use crate::spans::Recorder;
use crate::stats::{median, percentile, segment_percentiles, segment_ranges};
use crate::workload::{encode_frames, generate, Frames, Spec, IN_FLIGHT_OPS};

/// Equal parts a timed phase is cut into.
pub const SEGMENTS: usize = 5;
/// Sessions of a plain run. Each sets up afresh and replays the same
/// stream, so segment `i` is the same stretch of work in every session and
/// the best of the three can be taken per segment (see `stats`).
pub const SESSIONS: usize = 3;
/// Share of a session's measured time that is paced; the rest saturates.
const PACED_SHARE: f64 = 11.0 / 16.0;
/// How long the feeder waits for outstanding markers when a phase ends.
const DRAIN_PATIENCE: Duration = Duration::from_secs(10);
/// The saturate phase is cut short after this multiple of its planned
/// length.
const SATURATE_OVERRUN: f64 = 2.5;
/// A paced frame whose write began later than this share of the
/// workload's latency limit after it was due fell into a generator stall
/// (the feeder thread did not get a CPU; the host's reader thread never
/// makes a write wait), and its marker is left out of
/// `within_limit_share`.
const GEN_STALL_SHARE_OF_LIMIT: f64 = 0.1;
/// Per-subscription result buffer asked for in every REGISTER. One edge
/// that joins two large components yields tens of thousands of results
/// in one epoch; the host's default buffer (65536 frames) then drops the
/// newest, and a run with dropped results is a failed run.
const RESULT_BUFFER: u32 = 1 << 22;
/// Edge operations per client-driven cut in the correctness gate.
const GATE_CHUNK_OPS: usize = 256;

/// Phase sizes of one session, in frames of `spec.frame_ops` operations.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub warm_frames: usize,
    /// A fixed amount of work that takes `saturate_s` on the seed.
    pub saturate_frames: usize,
    pub paced_frames: usize,
    pub saturate_s: f64,
    pub paced_s: f64,
    pub gate_frames: usize,
}

impl Sizes {
    /// `seconds` of measurement in one session. `quick` shrinks the
    /// correctness gate too.
    pub fn new(spec: &Spec, seconds: f64, quick: bool) -> Sizes {
        let paced_s = seconds * PACED_SHARE;
        let saturate_s = seconds - paced_s;
        let frames = |ops: f64| (ops / spec.frame_ops as f64).ceil().max(SEGMENTS as f64) as usize;
        let saturate_frames = frames(spec.saturate_eps as f64 * saturate_s);
        let paced_frames = frames(spec.paced_eps as f64 * paced_s);
        // A tenth of the stream, and never less than four windows' worth.
        let warm_frames = ((saturate_frames + paced_frames) / 10).max(8192 / spec.frame_ops);
        let gate_ops = if quick {
            spec.gate_ops / 20
        } else {
            spec.gate_ops
        };
        let mut sizes = Sizes {
            warm_frames,
            saturate_frames,
            paced_frames,
            saturate_s,
            paced_s,
            gate_frames: gate_ops / spec.frame_ops,
        };
        sizes.gate_frames = sizes.gate_frames.min(sizes.total_frames());
        sizes
    }

    pub fn total_frames(&self) -> usize {
        self.warm_frames + self.saturate_frames + self.paced_frames
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A booted host with every query registered, and the connection to it.
pub struct Link {
    pub host: HostProc,
    pub conn: TcpStream,
    /// Host-assigned ids in registration order; the marker's is last.
    pub query_ids: Vec<u64>,
}

/// How long the parts of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub gen_ms: f64,
    pub encode_ms: f64,
    pub boot_ms: f64,
    pub register_ms: f64,
}

/// Everything set-up produces.
pub struct Ready {
    pub stream: Frames,
    pub link: Link,
    pub times: SetupTimes,
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads frames until `want` accepts one; an ERROR frame is an error.
fn expect<T>(conn: &mut TcpStream, mut want: impl FnMut(&Message) -> Option<T>) -> io::Result<T> {
    loop {
        match read_message(conn)? {
            None => return Err(proto_err("host closed the connection".into())),
            Some(Err(e)) => return Err(proto_err(e.to_string())),
            Some(Ok(Message::Error { code, message })) => {
                return Err(proto_err(format!("host error {code}: {message}")))
            }
            Some(Ok(msg)) => {
                if let Some(out) = want(&msg) {
                    return Ok(out);
                }
            }
        }
    }
}

/// Generates and encodes the stream, boots a host, registers the
/// workload's queries and — last — the marker query. This is what
/// `setup_s` times; no cargo build is in it.
pub fn set_up(spec: &Spec, seed: u64, sizes: &Sizes) -> io::Result<Ready> {
    let t0 = Instant::now();
    let ops = generate(spec, seed, sizes.total_frames() * spec.frame_ops);
    let t1 = Instant::now();
    let stream = encode_frames(&ops, spec.frame_ops);
    drop(ops);
    let t2 = Instant::now();
    let host = HostProc::spawn(spec.explicit_deletes, false)?;
    let mut conn = TcpStream::connect(host.addr)?;
    conn.set_nodelay(true)?;
    conn.write_all(
        &Message::Hello {
            client: "sgq-benchmark".into(),
        }
        .encode(),
    )?;
    expect(&mut conn, |m| {
        matches!(m, Message::Welcome { .. }).then_some(())
    })?;
    let t3 = Instant::now();
    let mut query_ids = Vec::new();
    for q in registrations(spec) {
        conn.write_all(
            &Message::Register {
                policy: Backpressure::DropNewest,
                buffer: RESULT_BUFFER,
                window: q.window,
                slide: q.slide,
                query: q.text.to_string(),
            }
            .encode(),
        )?;
        query_ids.push(expect(&mut conn, |m| match m {
            Message::Registered { query } => Some(*query),
            _ => None,
        })?);
    }
    let t4 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Ready {
        stream,
        link: Link {
            host,
            conn,
            query_ids,
        },
        times: SetupTimes {
            total_s: (t4 - t0).as_secs_f64(),
            gen_ms: ms(t0, t1),
            encode_ms: ms(t1, t2),
            boot_ms: ms(t2, t3),
            register_ms: ms(t3, t4),
        },
    })
}

// ---------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct GateOutcome {
    pub chunks: u64,
    pub mismatched_chunks: u64,
    pub rows: u64,
}

/// Replays the first `frames` frames against a short-lived host whose
/// epochs are cut only where this client asks (a PING per chunk — nothing
/// here is timed) and requires the routed results, in order, to equal
/// those of an in-process engine fed the same cuts.
pub fn gate(spec: &Spec, stream: &Frames, frames: usize) -> io::Result<GateOutcome> {
    let host = HostProc::spawn(spec.explicit_deletes, true)?;
    let mut client = Client::connect(host.addr)?;
    client.hello("sgq-benchmark-gate")?;
    let mut ids = Vec::new();
    for q in registrations(spec) {
        ids.push(client.register_with(
            q.text,
            q.window,
            q.slide,
            Backpressure::DropNewest,
            RESULT_BUFFER,
        )?);
    }
    let mut rec = Recorder::new(false);
    let mut mirror = Mirror::new(spec, ObsLevel::Off, usize::MAX, &mut rec);
    let mirror_ids: Vec<u64> = mirror.ids.iter().map(|q| q.0).collect();
    if ids != mirror_ids {
        return Err(proto_err(format!(
            "host assigned ids {ids:?}, in-process engine {mirror_ids:?}"
        )));
    }
    mirror.rows = Some(Vec::new());
    let mut out = GateOutcome::default();
    let chunk_frames = GATE_CHUNK_OPS / stream.frame_ops;
    for first in (0..frames).step_by(chunk_frames) {
        let chunk = first..(first + chunk_frames).min(frames);
        let bytes = stream.frames[chunk.start].start..stream.frames[chunk.end - 1].end;
        client.send_raw(&stream.bytes[bytes])?;
        client.barrier()?;
        let wire: Vec<Row> = client
            .take_results()
            .iter()
            .map(|r| (r.query, r.delete, r.src, r.trg, r.ts, r.exp))
            .collect();
        for k in chunk {
            for e in &stream.decode(k) {
                mirror.push(e, &mut rec);
            }
        }
        mirror.cut(&mut rec);
        let want = mirror.rows.as_mut().expect("collection is on");
        out.chunks += 1;
        out.rows += wire.len() as u64;
        if wire != *want {
            out.mismatched_chunks += 1;
        }
        want.clear();
    }
    client.shutdown()?;
    drop(client);
    host.wait_exit(Duration::from_secs(10))?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

/// State the receiver shares with the feeder.
struct Shared {
    origin: Instant,
    /// Markers received so far; they arrive in sequence, so this is also
    /// the next expected sequence number.
    acked: AtomicU64,
    /// Token of the last PONG.
    pong: AtomicU64,
    metrics: Mutex<Option<String>>,
    /// The receiver has stopped (BYE, end of stream, or an error).
    ended: AtomicBool,
}

/// What the receiver saw, returned when it ends.
#[derive(Default)]
pub struct Received {
    /// Receipt time of marker `k` (ns since the session origin), in order.
    pub marker_ns: Vec<u64>,
    /// Runs of marker results seen up to and including marker `k`. The
    /// host routes the marker query last in every epoch, so each run
    /// closes one epoch.
    pub runs_upto: Vec<u64>,
    pub result_frames: u64,
    pub result_bytes: u64,
    pub error_frames: u64,
    pub dropped_results: u64,
    /// Markers that arrived with another sequence number than expected
    /// (lost, duplicated or reordered).
    pub out_of_sequence: u64,
    /// Distinct `(query, src, trg)` of every non-marker result, when asked.
    pub distinct: Option<std::collections::HashSet<(u64, u64, u64)>>,
    pub io_error: Option<String>,
}

fn be_u64(b: &[u8]) -> u64 {
    u64::from_be_bytes(b.try_into().expect("eight bytes"))
}

/// Length of a RESULT frame's payload: version, type, query, delete flag,
/// src, trg, ts, exp.
const RESULT_PAYLOAD: usize = 2 + 8 + 1 + 8 * 4;

fn receive(
    mut conn: TcpStream,
    shared: Arc<Shared>,
    feeder: Thread,
    marker_query: u64,
    collect_distinct: bool,
) -> Received {
    let mut got = Received {
        distinct: collect_distinct.then(Default::default),
        ..Received::default()
    };
    let mut buf = vec![0u8; 1 << 20];
    let (mut start, mut end) = (0usize, 0usize);
    let mut in_marker_run = false;
    let mut runs = 0u64;
    'io: loop {
        while end - start >= 4 {
            let len =
                u32::from_be_bytes(buf[start..start + 4].try_into().expect("four bytes")) as usize;
            if len < 2 || len > MAX_FRAME_LEN as usize {
                got.io_error = Some(format!("bad frame length {len}"));
                break 'io;
            }
            if end - start < 4 + len {
                if 4 + len > buf.len() {
                    buf.resize((4 + len).next_power_of_two(), 0);
                }
                break;
            }
            let payload = &buf[start + 4..start + 4 + len];
            start += 4 + len;
            if payload[1] == 0x84 && len == RESULT_PAYLOAD {
                got.result_frames += 1;
                got.result_bytes += (4 + len) as u64;
                let query = be_u64(&payload[2..10]);
                let src = be_u64(&payload[11..19]);
                if query == marker_query {
                    let now = shared.origin.elapsed().as_nanos() as u64;
                    if !in_marker_run {
                        in_marker_run = true;
                        runs += 1;
                    }
                    if src == got.marker_ns.len() as u64 {
                        got.marker_ns.push(now);
                        got.runs_upto.push(runs);
                        shared
                            .acked
                            .store(got.marker_ns.len() as u64, Ordering::SeqCst);
                        feeder.unpark();
                    } else {
                        got.out_of_sequence += 1;
                    }
                } else {
                    in_marker_run = false;
                    if let Some(set) = &mut got.distinct {
                        set.insert((query, src, be_u64(&payload[19..27])));
                    }
                }
                continue;
            }
            match Message::decode(payload) {
                Ok(Message::Pong { token }) => {
                    shared.pong.store(token, Ordering::SeqCst);
                    feeder.unpark();
                }
                Ok(Message::MetricsSnapshot { jsonl }) => {
                    *shared.metrics.lock().expect("no panic holds this lock") = Some(jsonl);
                    feeder.unpark();
                }
                Ok(Message::Error { .. }) => got.error_frames += 1,
                Ok(Message::Dropped { count, .. }) => got.dropped_results += count,
                Ok(Message::Bye { .. }) => break 'io,
                Ok(_) => {}
                Err(e) => {
                    got.io_error = Some(e.to_string());
                    break 'io;
                }
            }
        }
        if start == end {
            (start, end) = (0, 0);
        } else if end == buf.len() {
            buf.copy_within(start..end, 0);
            (start, end) = (0, end - start);
        }
        match conn.read(&mut buf[end..]) {
            Ok(0) => break,
            Ok(n) => end += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                got.io_error = Some(e.to_string());
                break;
            }
        }
    }
    shared.ended.store(true, Ordering::SeqCst);
    feeder.unpark();
    got
}

// ---------------------------------------------------------------------
// Feeder
// ---------------------------------------------------------------------

struct Feeder<'a> {
    conn: &'a TcpStream,
    stream: &'a Frames,
    shared: &'a Shared,
}

impl Feeder<'_> {
    /// Parks until `ready` holds, the receiver ends, or patience runs out.
    fn wait(&self, patience: Duration, ready: impl Fn(&Shared) -> bool) -> bool {
        let deadline = Instant::now() + patience;
        loop {
            if ready(self.shared) {
                return true;
            }
            if self.shared.ended.load(Ordering::SeqCst) || Instant::now() >= deadline {
                return ready(self.shared);
            }
            thread::park_timeout(Duration::from_millis(1));
        }
    }

    /// Waits until the markers of frames `[0, frames)` are all back.
    fn drained(&self, frames: usize) -> io::Result<()> {
        if self.wait(DRAIN_PATIENCE, |s| {
            s.acked.load(Ordering::SeqCst) >= frames as u64
        }) {
            Ok(())
        } else {
            Err(proto_err(format!(
                "host stopped acknowledging markers at {} of {frames}",
                self.shared.acked.load(Ordering::SeqCst)
            )))
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.origin.elapsed().as_nanos() as u64
    }

    /// Closed loop: writes frames `[from, to)` keeping at most
    /// [`IN_FLIGHT_OPS`] operations un-acked, until `stop_at`. Returns the
    /// first frame not sent.
    fn closed_loop(
        &mut self,
        from: usize,
        to: usize,
        stop_at: Option<Instant>,
    ) -> io::Result<usize> {
        let in_flight = IN_FLIGHT_OPS / self.stream.frame_ops;
        for k in from..to {
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                return Ok(k);
            }
            self.drained((k + 1).saturating_sub(in_flight))?;
            self.conn.write_all(self.stream.frame(k))?;
        }
        Ok(to)
    }

    /// Open loop: frame `from + j` is due `j × frame_ops / rate` seconds
    /// after the phase starts, whatever the host does. Returns per frame
    /// when it was due, how late the write began, and the un-acked backlog
    /// at that moment.
    fn paced(&mut self, from: usize, to: usize, rate: f64) -> io::Result<Vec<PacedFrame>> {
        let mut sent = Vec::with_capacity(to - from);
        let t0 = Instant::now() + Duration::from_millis(2);
        for k in from..to {
            let offset =
                Duration::from_secs_f64(((k - from) * self.stream.frame_ops) as f64 / rate);
            let due = t0 + offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            let backlog = (k as u64).saturating_sub(self.shared.acked.load(Ordering::SeqCst));
            self.conn.write_all(self.stream.frame(k))?;
            sent.push(PacedFrame {
                due_ns: (due - self.shared.origin).as_nanos() as u64,
                late_ms: late.as_secs_f64() * 1e3,
                backlog,
            });
        }
        Ok(sent)
    }
}

struct PacedFrame {
    due_ns: u64,
    late_ms: f64,
    backlog: u64,
}

// ---------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------

/// Everything one wire session measured.
#[derive(Debug, Clone, Default)]
pub struct Wire {
    // per segment of the paced phase
    pub segment_latency_p50_ms: Vec<f64>,
    pub segment_latency_p95_ms: Vec<f64>,
    pub segment_within_limit_share: Vec<f64>,
    // per segment of the saturate phase
    pub segment_eps: Vec<f64>,
    /// Host CPU seconds per 10⁶ operations over the whole saturate phase.
    pub cpu_s_per_medge: f64,
    pub peak_rss_mb: f64,
    // the serve layer, seen from outside
    pub saturate_ops: u64,
    pub saturate_wall_s: f64,
    pub paced_ops: u64,
    pub paced_wall_s: f64,
    pub paced_markers: u64,
    /// Paced markers left out of `within_limit_share` because their frame
    /// fell into a generator stall.
    pub gen_stalled_markers: u64,
    pub latency_p99_ms: f64,
    pub latency_max_ms: f64,
    pub gen_late_p95_ms: f64,
    pub gen_late_p50_ms: f64,
    pub gen_late_max_ms: f64,
    pub backlog_growth: f64,
    pub paced_cpu_s_per_medge: f64,
    pub rss_growth_mb_per_medge: f64,
    /// RESULT frames received, markers included.
    pub result_frames: u64,
    pub bytes_per_result: f64,
    pub epochs: u64,
    pub mean_epoch_edges: f64,
    pub saturate_mean_epoch_edges: f64,
    pub discarded_edges: u64,
    pub results_dropped: u64,
    pub error_frames: u64,
    pub markers_sent: u64,
    pub markers_failed: u64,
    pub host_exit_clean: bool,
    /// Frames `[.0, .1)` the saturate phase sent; it ends the stream.
    pub saturate_frames: (usize, usize),
    pub distinct: Option<std::collections::HashSet<(u64, u64, u64)>>,
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The `exec` record of a METRICS document: `(epochs, input_deltas)`.
pub fn parse_exec(jsonl: &str) -> Option<(u64, u64)> {
    let line = jsonl.lines().find(|l| l.contains("\"record\":\"exec\""))?;
    Some((json_u64(line, "epochs")?, json_u64(line, "input_deltas")?))
}

/// Runs warm-up, the two timed phases and the final barrier on a set-up
/// host, then shuts it down.
pub fn run(
    spec: &Spec,
    stream: &Frames,
    link: Link,
    sizes: &Sizes,
    collect_distinct: bool,
) -> io::Result<Wire> {
    let Link {
        host,
        conn,
        query_ids,
    } = link;
    let marker_query = *query_ids.last().expect("the marker query is registered");
    let pid = host.pid();
    let shared = Arc::new(Shared {
        origin: Instant::now(),
        acked: AtomicU64::new(0),
        pong: AtomicU64::new(0),
        metrics: Mutex::new(None),
        ended: AtomicBool::new(false),
    });
    let receiver = {
        let (conn, shared, feeder) = (conn.try_clone()?, Arc::clone(&shared), thread::current());
        thread::Builder::new()
            .name("receiver".into())
            .spawn(move || receive(conn, shared, feeder, marker_query, collect_distinct))?
    };
    let mut feeder = Feeder {
        conn: &conn,
        stream,
        shared: &shared,
    };
    let ops = |frames: usize| (frames * stream.frame_ops) as u64;

    // Warm-up: closed loop, unmeasured.
    let warm_end = sizes.warm_frames;
    feeder.closed_loop(0, warm_end, None)?;
    feeder.drained(warm_end)?;

    // Paced: open loop at the workload's fixed rate. It runs before the
    // saturate phase because no stream here is stationary: the later in
    // the stream, the less headroom the host has, and a fixed rate must
    // sit well inside it.
    let paced_end = warm_end + sizes.paced_frames;
    let before_paced = host::sample(pid)?;
    let paced_start_ns = feeder.now_ns();
    let sent = feeder.paced(warm_end, paced_end, spec.paced_eps as f64)?;
    feeder.drained(paced_end)?;
    let paced_wall_s = (feeder.now_ns() - paced_start_ns) as f64 / 1e9;

    // Saturate: closed loop, as fast as the host acknowledges. The phase
    // is a fixed amount of work; the clock only cuts it short when the
    // host has become much slower than the seed.
    let before_saturate = host::sample(pid)?;
    let saturate_start_ns = feeder.now_ns();
    let stop_at = Instant::now() + Duration::from_secs_f64(sizes.saturate_s * SATURATE_OVERRUN);
    let sat_end =
        feeder.closed_loop(paced_end, paced_end + sizes.saturate_frames, Some(stop_at))?;
    feeder.drained(sat_end)?;
    let after_saturate = host::sample(pid)?;

    // The one barrier, after the last timed edge; then METRICS, SHUTDOWN.
    (&conn).write_all(&Message::Ping { token: 1 }.encode())?;
    if !feeder.wait(DRAIN_PATIENCE, |s| s.pong.load(Ordering::SeqCst) == 1) {
        return Err(proto_err("the final barrier was not answered".into()));
    }
    (&conn).write_all(&Message::Metrics.encode())?;
    feeder.wait(DRAIN_PATIENCE, |s| {
        s.metrics
            .lock()
            .expect("no panic holds this lock")
            .is_some()
    });
    let at_end = host::sample(pid)?;
    (&conn).write_all(&Message::Shutdown.encode())?;
    let got = receiver
        .join()
        .map_err(|_| proto_err("receiver thread panicked".into()))?;
    drop(conn);
    let host_exit_clean = host.wait_exit(Duration::from_secs(10))?;
    if let Some(e) = &got.io_error {
        return Err(proto_err(format!("receiver: {e}")));
    }
    // `drained` saw every marker, and the receiver records them in order.
    assert!(got.marker_ns.len() >= sat_end, "acked markers are recorded");
    let runs_in = |from: usize, to: usize| got.runs_upto[to - 1] - got.runs_upto[from - 1];

    // -- paced ---------------------------------------------------------
    let latencies: Vec<f64> = sent
        .iter()
        .zip(&got.marker_ns[warm_end..paced_end])
        .map(|(f, &at)| at.saturating_sub(f.due_ns) as f64 / 1e6)
        .collect();
    // Per fifth of the phase, the share of markers delivered within the
    // limit. A marker whose frame fell into a generator stall says nothing
    // about the host and is left out; every other marker counts, and so
    // does every result the host dropped or refused, in every fifth.
    let stall_ms = spec.limit_ms * GEN_STALL_SHARE_OF_LIMIT;
    let misses = (got.dropped_results + got.error_frames) as f64;
    let gen_stalled = sent.iter().filter(|f| f.late_ms > stall_ms).count();
    let segment_within_limit_share: Vec<f64> = segment_ranges(sent.len(), SEGMENTS)
        .into_iter()
        .map(|r| {
            let on_time = sent[r.clone()].iter().filter(|f| f.late_ms <= stall_ms);
            let within = sent[r.clone()]
                .iter()
                .zip(&latencies[r])
                .filter(|(f, &l)| f.late_ms <= stall_ms && l <= spec.limit_ms);
            ((within.count() as f64 - misses) / on_time.count().max(1) as f64).max(0.0)
        })
        .collect();
    let late: Vec<f64> = sent.iter().map(|f| f.late_ms).collect();
    let backlog: Vec<f64> = sent.iter().map(|f| f.backlog as f64).collect();
    let fifth = backlog.len() / SEGMENTS;
    let backlog_growth = median(&backlog[backlog.len() - fifth..]) - median(&backlog[..fifth]);
    let paced_mops = ops(sent.len()) as f64 / 1e6;

    // -- saturate ------------------------------------------------------
    // Five equal parts of the work; a part ends when its last marker is
    // back, and the first begins with the first write.
    let sat_frames = sat_end - paced_end;
    let per_segment = sat_frames / SEGMENTS;
    if per_segment == 0 {
        return Err(proto_err(format!(
            "the saturate phase sent {sat_frames} frames in {:.1} s",
            sizes.saturate_s * SATURATE_OVERRUN
        )));
    }
    let mut segment_eps = Vec::with_capacity(SEGMENTS);
    let mut begun_ns = saturate_start_ns;
    for i in 1..=SEGMENTS {
        let done_ns = got.marker_ns[paced_end + i * per_segment - 1];
        segment_eps.push(ops(per_segment) as f64 / ((done_ns - begun_ns) as f64 / 1e9));
        begun_ns = done_ns;
    }
    let saturate_wall_s = (got.marker_ns[sat_end - 1] - saturate_start_ns) as f64 / 1e9;
    let sat_mops = ops(sat_frames) as f64 / 1e6;

    // -- whole session ---------------------------------------------------
    let metrics = shared
        .metrics
        .lock()
        .expect("no panic holds this lock")
        .take();
    let (_, input_deltas) = metrics
        .as_deref()
        .and_then(parse_exec)
        .ok_or_else(|| proto_err("no exec record in the METRICS reply".into()))?;
    let edges_sent = (sat_end * (stream.frame_ops + 1)) as u64;
    let timed_runs = runs_in(warm_end, sat_end);
    Ok(Wire {
        segment_latency_p50_ms: segment_percentiles(&latencies, SEGMENTS, 0.50),
        segment_latency_p95_ms: segment_percentiles(&latencies, SEGMENTS, 0.95),
        segment_eps,
        cpu_s_per_medge: (after_saturate.cpu_s - before_saturate.cpu_s) / sat_mops,
        segment_within_limit_share,
        peak_rss_mb: at_end.hwm_mb,
        saturate_ops: ops(sat_frames),
        saturate_wall_s,
        paced_ops: ops(sent.len()),
        paced_wall_s,
        paced_markers: latencies.len() as u64,
        gen_stalled_markers: gen_stalled as u64,
        latency_p99_ms: percentile(&latencies, 0.99),
        latency_max_ms: percentile(&latencies, 1.0),
        gen_late_p95_ms: percentile(&late, 0.95),
        gen_late_p50_ms: percentile(&late, 0.5),
        gen_late_max_ms: percentile(&late, 1.0),
        backlog_growth,
        paced_cpu_s_per_medge: (before_saturate.cpu_s - before_paced.cpu_s) / paced_mops,
        rss_growth_mb_per_medge: (after_saturate.rss_mb - before_paced.rss_mb)
            / (sat_mops + paced_mops),
        result_frames: got.result_frames,
        bytes_per_result: got.result_bytes as f64 / got.result_frames.max(1) as f64,
        epochs: timed_runs,
        mean_epoch_edges: ops(sat_end - warm_end) as f64 / timed_runs.max(1) as f64,
        saturate_mean_epoch_edges: ops(sat_frames) as f64
            / runs_in(paced_end, sat_end).max(1) as f64,
        discarded_edges: edges_sent.saturating_sub(input_deltas),
        results_dropped: got.dropped_results,
        error_frames: got.error_frames,
        markers_sent: (sat_end - warm_end) as u64,
        // Every marker is back; one that arrived out of sequence was
        // lost, duplicated or reordered on the way.
        markers_failed: got.out_of_sequence,
        host_exit_clean,
        saturate_frames: (paced_end, sat_end),
        distinct: got.distinct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_record_is_found_in_a_metrics_document() {
        let doc = "{\"record\":\"exec\",\"obs\":\"off\",\"epochs\":4170,\"input_deltas\":302337,\
                   \"operator_invocations\":13026}\n{\"record\":\"operator\",\"epochs\":1}\n";
        assert_eq!(parse_exec(doc), Some((4170, 302337)));
        assert_eq!(parse_exec("{\"record\":\"operator\"}"), None);
    }

    #[test]
    fn phases_are_sized_from_constants() {
        for spec in crate::workload::specs() {
            let s = Sizes::new(&spec, 6.0, false);
            assert!((s.saturate_s - 1.875).abs() < 1e-9 && (s.paced_s - 4.125).abs() < 1e-9);
            // at least ten samples beyond the p95 of every fifth
            assert!(s.paced_frames >= 1000, "{}: {}", spec.name, s.paced_frames);
            let q = Sizes::new(&spec, 0.3, true);
            assert!(q.paced_frames * 10 < s.paced_frames);
        }
    }
}
