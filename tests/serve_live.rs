//! Live-host coverage: a real [`sgq_serve::Server`] on a loopback port,
//! driven through the wire protocol by [`sgq_serve::Client`], checked
//! against an in-process [`MultiQueryEngine`] mirror fed the same
//! stream. The acceptance scenario of this repo's serve milestone: two
//! concurrent subscribers, one mid-stream deregister, result sets
//! bit-identical to the in-process engine.

use s_graffito::datagen::workloads::{self, Dataset};
use s_graffito::datagen::{feed, resolve, so_stream, RawStream, SoConfig};
use s_graffito::multiquery::MultiQueryEngine;
use s_graffito::prelude::*;
use s_graffito::serve::client::{Client, ResultRow};
use s_graffito::serve::protocol::{
    Backpressure, Message, WireEdge, ERR_BAD_QUERY, ERR_MALFORMED, ERR_NOT_SUPPORTED,
    ERR_OUT_OF_ORDER, PROTOCOL_VERSION,
};
use s_graffito::serve::server::{ServeConfig, Server};

const WINDOW: u64 = 600;
const SLIDE: u64 = 24;

fn so_events() -> RawStream {
    so_stream(&SoConfig::new(40, 800))
}

/// A config whose epoch cuts happen *only* at explicit client flush
/// points (barriers, register/deregister): batch-size and wall-clock
/// triggers pushed out of reach. Result logs depend on where epochs are
/// cut (emission chunking is batch-split-dependent even though the
/// semantic coverage is not), so bit-exact live-vs-mirror comparison
/// requires the mirror to replay the same cuts — deterministic cuts
/// make that possible.
fn deterministic_epochs() -> ServeConfig {
    ServeConfig {
        batch_size: usize::MAX,
        tick: std::time::Duration::from_secs(3600),
        ..ServeConfig::default()
    }
}

/// The comparable shape of a wire result (query ids differ between the
/// host and the mirror only if registration orders differ — the tests
/// keep them identical, so ids compare too).
fn row_key(r: &ResultRow) -> (u64, bool, u64, u64, u64, u64) {
    (r.query, r.delete, r.src, r.trg, r.ts, r.exp)
}

fn sgt_key(query: u64, s: &Sgt) -> (u64, bool, u64, u64, u64, u64) {
    (
        query,
        false,
        s.src.0,
        s.trg.0,
        s.interval.ts,
        s.interval.exp,
    )
}

/// Two concurrent subscribers (Q1 and Q6 over the SO stream), Q6
/// deregistered mid-stream; every routed result must match the
/// in-process engine bit for bit, in emission order.
#[test]
fn live_results_match_in_process_engine() {
    let server = Server::spawn(deterministic_epochs()).expect("spawn");
    let addr = server.addr();

    let mut alice = Client::connect(addr).expect("connect");
    let mut bob = Client::connect(addr).expect("connect");
    alice.hello("alice").unwrap();
    bob.hello("bob").unwrap();

    let q1_text = workloads::query_text(1, Dataset::So);
    let q6_text = workloads::query_text(6, Dataset::So);
    let q1 = alice.register(q1_text, WINDOW, SLIDE).unwrap();
    let q6 = bob.register(q6_text, WINDOW, SLIDE).unwrap();
    assert_ne!(q1, q6);

    let raw = so_events();
    let half = raw.events.len() / 2;

    // First half streamed by alice; the barrier guarantees both halves
    // of the comparison see the same prefix/registration interleaving.
    for &(s, t, l, ts) in &raw.events[..half] {
        alice.insert(s, t, l, ts).unwrap();
    }
    alice.barrier().unwrap();
    bob.barrier().unwrap();

    // Bob leaves mid-stream.
    assert!(bob.deregister(q6).unwrap());

    for &(s, t, l, ts) in &raw.events[half..] {
        alice.insert(s, t, l, ts).unwrap();
    }
    alice.barrier().unwrap();
    bob.barrier().unwrap();

    let live_q1: Vec<_> = alice.take_results().iter().map(row_key).collect();
    let live_q6: Vec<_> = bob.take_results().iter().map(row_key).collect();

    // The in-process mirror: same queries, same registration order, same
    // edge interleaving — so label numbering, query ids, and emission
    // order are all identical.
    let mut mirror = MultiQueryEngine::new();
    let m1 = mirror.register(&SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(WINDOW, SLIDE),
    ));
    let m6 = mirror.register(&SgqQuery::new(
        workloads::query(6, Dataset::So),
        WindowSpec::new(WINDOW, SLIDE),
    ));
    assert_eq!((m1.0, m6.0), (q1, q6));

    // Q1 ∪ Q6 reference all three SO labels, so resolve drops nothing
    // and the live feed's cut index carries over one-to-one.
    let stream = resolve(&raw, mirror.labels());
    assert_eq!(stream.len(), raw.events.len());
    let (first, second) = stream.sges().split_at(half);

    let mut mirror_q1 = Vec::new();
    let mut mirror_q6 = Vec::new();
    mirror.ingest_batch(first);
    mirror_q1.extend(mirror.drain(m1).iter().map(|s| sgt_key(q1, s)));
    mirror_q6.extend(mirror.drain(m6).iter().map(|s| sgt_key(q6, s)));
    mirror.deregister(m6);
    mirror.ingest_batch(second);
    mirror_q1.extend(mirror.drain(m1).iter().map(|s| sgt_key(q1, s)));

    assert!(!live_q1.is_empty(), "Q1 should produce results");
    assert_eq!(live_q1, mirror_q1, "Q1 live vs in-process");
    assert_eq!(live_q6, mirror_q6, "Q6 live vs in-process");

    server.shutdown();
    server.join();
}

/// The resolve cut above drops edges whose label no query references and
/// splits by timestamp; make sure the wire path applies the same §7.2.1
/// discard so both sides see the same effective stream.
#[test]
fn unreferenced_labels_are_discarded_like_resolve() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    let q = c
        .register("Ans(x, y) <- a2q+(x, y).", WINDOW, SLIDE)
        .unwrap();
    c.insert(1, 2, "a2q", 1).unwrap();
    c.insert(2, 3, "never_mentioned", 2).unwrap(); // silently discarded
    c.insert(2, 3, "a2q", 3).unwrap();
    c.barrier().unwrap();
    let rows = c.take_results();
    // a2q+ over 1→2→3: (1,2), (2,3), (1,3).
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.query == q && !r.delete));
    server.shutdown();
    server.join();
}

fn edge(src: u64, trg: u64, label: &str, t: u64) -> WireEdge {
    WireEdge {
        delete: false,
        src,
        trg,
        t,
        label: label.to_string(),
    }
}

/// The next frame is an ERROR with `code`.
fn expect_error(c: &mut Client, code: u16) {
    match c.recv_message().unwrap() {
        Message::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected ERROR {code}, got {other:?}"),
    }
}

/// A numeric field of the first `record` line of a METRICS reply.
fn record_field(jsonl: &str, record: &str, key: &str) -> u64 {
    let line = (jsonl.lines())
        .find(|l| l.contains(&format!("\"record\":\"{record}\"")))
        .unwrap_or_else(|| panic!("a {record} record"));
    let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let rest = &line[at..];
    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
}

/// `input_deltas` of the exec record of a METRICS reply: the edges the
/// host has ingested.
fn ingested(c: &mut Client) -> u64 {
    record_field(&c.metrics().unwrap(), "exec", "input_deltas")
}

/// A BATCH whose last label is not UTF-8 is refused whole: one ERROR,
/// none of its edges applied (not even the watermark moves), and the
/// connection carries the same edges in a well-formed frame afterwards.
#[test]
fn batch_with_a_bad_label_applies_none_of_its_edges() {
    let server = Server::spawn(deterministic_epochs()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    c.register("Ans(x, y) <- e(x, y).", WINDOW, SLIDE).unwrap();
    let edges = vec![edge(1, 2, "e", 5), edge(2, 3, "e", 6), edge(3, 4, "e", 7)];
    let mut frame = Message::Batch {
        edges: edges.clone(),
    }
    .encode();
    *frame.last_mut().unwrap() = 0xFF; // the last edge's label byte
    c.send_raw(&frame).unwrap();
    expect_error(&mut c, ERR_MALFORMED);
    c.barrier().unwrap(); // a second ERROR would fail the barrier
    assert!(c.take_results().is_empty());
    assert_eq!(ingested(&mut c), 0);

    c.batch(edges).unwrap();
    c.barrier().unwrap();
    assert_eq!(c.take_results().len(), 3);
    server.shutdown();
    server.join();
}

/// A REGISTER between two BATCHes on one connection: the second BATCH
/// resolves the label the new query names, while a label no query names
/// is still discarded, in both frames.
#[test]
fn register_between_batches_resolves_the_new_label() {
    let server = Server::spawn(deterministic_epochs()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    let qa = c.register("Ans(x, y) <- a(x, y).", WINDOW, SLIDE).unwrap();
    c.batch(vec![
        edge(1, 2, "a", 1),
        edge(2, 3, "b", 2),
        edge(3, 4, "zz", 3),
    ])
    .unwrap();
    let qb = c.register("Ans(x, y) <- b(x, y).", WINDOW, SLIDE).unwrap();
    c.batch(vec![
        edge(4, 5, "a", 4),
        edge(5, 6, "b", 5),
        edge(6, 7, "zz", 6),
    ])
    .unwrap();
    c.barrier().unwrap();
    let rows = c.take_results();
    let of = |q| -> Vec<(u64, u64)> {
        (rows.iter())
            .filter(|r| r.query == q)
            .map(|r| (r.src, r.trg))
            .collect()
    };
    assert_eq!(of(qa), [(1, 2), (4, 5)]);
    assert_eq!(of(qb), [(5, 6)]);
    // Six edges sent, three ingested: the first frame's `b` and both `zz`
    // were discarded.
    assert_eq!(ingested(&mut c), 3);
    server.shutdown();
    server.join();
}

/// An edge behind the watermark in the middle of a BATCH gets ERROR(6)
/// and is the only one dropped: the edges before and after it apply.
#[test]
fn late_edge_mid_batch_is_dropped_alone() {
    let server = Server::spawn(deterministic_epochs()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    let q = c.register("Ans(x, y) <- e(x, y).", WINDOW, SLIDE).unwrap();
    c.batch(vec![
        edge(1, 2, "e", 5),
        edge(2, 3, "e", 3),
        edge(3, 4, "e", 6),
    ])
    .unwrap();
    c.flush().unwrap(); // puts the buffered BATCH on the wire
    expect_error(&mut c, ERR_OUT_OF_ORDER);
    c.barrier().unwrap();
    let rows = c.take_results();
    assert!(rows.iter().all(|r| r.query == q));
    let pairs: Vec<_> = rows.iter().map(|r| (r.src, r.trg, r.ts)).collect();
    assert_eq!(pairs, [(1, 2, 5), (3, 4, 6)]);
    assert_eq!(ingested(&mut c), 2);
    server.shutdown();
    server.join();
}

/// Malformed and truncated frames: recoverable decode errors keep the
/// connection alive; framing-level desyncs kill only the offending
/// connection, never the host.
#[test]
fn malformed_frames_are_contained() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let addr = server.addr();

    // Unknown message type: ERROR reply, connection survives.
    let mut c = Client::connect(addr).expect("connect");
    c.send_raw(&[0, 0, 0, 2, PROTOCOL_VERSION, 0x7E]).unwrap();
    match c.recv_message().unwrap() {
        Message::Error { code, .. } => assert_eq!(code, 2),
        other => panic!("expected ERROR, got {other:?}"),
    }
    let hello = c.hello("still-alive").unwrap();
    assert!(!hello.is_empty());

    // Bad version byte: fatal, ERROR + BYE then close.
    let mut bad = Client::connect(addr).expect("connect");
    bad.send_raw(&[0, 0, 0, 2, 9, 0x01]).unwrap();
    match bad.recv_message().unwrap() {
        Message::Error { code, .. } => assert_eq!(code, 3),
        other => panic!("expected ERROR, got {other:?}"),
    }
    bad.drain_until_closed().unwrap();

    // Oversized declared frame length: fatal framing error.
    let mut huge = Client::connect(addr).expect("connect");
    huge.send_raw(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    match huge.recv_message().unwrap() {
        Message::Error { code, .. } => assert_eq!(code, 7),
        other => panic!("expected ERROR, got {other:?}"),
    }
    huge.drain_until_closed().unwrap();

    // Truncated frame then EOF (a partial write from a dying client):
    // the reader drops the connection without disturbing others.
    let mut cut = Client::connect(addr).expect("connect");
    cut.send_raw(&[0, 0, 0, 50, PROTOCOL_VERSION, 0x01, 0, 4])
        .unwrap();
    drop(cut);

    // The host is still healthy for the well-behaved client.
    let q = c.register("Ans(x, y) <- e(x, y).", WINDOW, SLIDE).unwrap();
    c.insert(1, 2, "e", 1).unwrap();
    c.barrier().unwrap();
    assert_eq!(c.take_results().len(), 1);
    assert!(c.deregister(q).unwrap());

    server.shutdown();
    server.join();
}

/// Bad requests get typed error codes and never wedge the session.
#[test]
fn bad_requests_are_reported() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();

    // Unparseable query text.
    let err = c
        .register("this is not a program", WINDOW, SLIDE)
        .unwrap_err();
    assert!(
        err.to_string().contains(&format!("error {ERR_BAD_QUERY}")),
        "{err}"
    );

    // Deregistering a query we never registered.
    assert!(!c.deregister(999).unwrap());

    // DELETE on an append-only host.
    c.delete(1, 2, "e", 1).unwrap();
    c.flush().unwrap();
    let err = c.barrier().unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("error {ERR_NOT_SUPPORTED}")),
        "{err}"
    );

    server.shutdown();
    server.join();
}

/// Explicit deletions flow end-to-end when the host runs without
/// duplicate suppression, producing negative result frames.
#[test]
fn explicit_deletes_produce_negative_results() {
    let server = Server::spawn(ServeConfig {
        explicit_deletes: true,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    let q = c.register("Ans(x, y) <- e+(x, y).", WINDOW, SLIDE).unwrap();
    c.insert(1, 2, "e", 1).unwrap();
    c.insert(2, 3, "e", 2).unwrap();
    c.barrier().unwrap();
    let inserted = c.take_results();
    assert_eq!(inserted.len(), 3); // (1,2), (2,3), (1,3)
    assert!(inserted.iter().all(|r| !r.delete));

    c.delete(1, 2, "e", 3).unwrap();
    c.barrier().unwrap();
    let after = c.take_results();
    // The deletion retracts every result the edge supported. Interval
    // truncations may re-emit positive tuples alongside; what matters is
    // that the negative frames arrive and name the dead pairs.
    let retracted: Vec<_> = after.iter().filter(|r| r.delete).collect();
    assert!(!retracted.is_empty());
    assert!(after.iter().all(|r| r.query == q));
    assert!(retracted.iter().any(|r| r.src == 1 && r.trg == 2));

    server.shutdown();
    server.join();
}

/// Drop-newest backpressure: a tiny buffer overflows, the host keeps
/// serving, and the DROPPED counter accounts for every lost frame.
#[test]
fn drop_newest_backpressure_counts_losses() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    // Buffer of 4 result frames; a transitive closure over a chain
    // produces far more in one epoch than the writer can have flushed.
    let q = c
        .register_with(
            "Ans(x, y) <- e+(x, y).",
            WINDOW,
            SLIDE,
            Backpressure::DropNewest,
            4,
        )
        .unwrap();
    // One epoch with a quadratic result blowup: chain of 30 vertices at
    // one timestamp = 435 closure pairs, all routed in one flush while
    // the client is not reading.
    for i in 0..30u64 {
        c.insert(i, i + 1, "e", 1).unwrap();
    }
    c.barrier().unwrap();
    let got = c.take_results().len() as u64;
    let dropped = c.dropped(q);
    assert!(dropped > 0, "expected drops with a 4-frame buffer");
    // Nothing lost silently: received + dropped covers the epoch's 465
    // closure pairs (chain of 31 vertices).
    assert_eq!(got + dropped, 465, "got {got}, dropped {dropped}");

    // The session is still usable afterwards.
    c.insert(100, 101, "e", 2).unwrap();
    c.barrier().unwrap();
    server.shutdown();
    server.join();
}

/// Disconnect backpressure: the slow consumer is evicted with a typed
/// error while other connections keep streaming.
#[test]
fn disconnect_backpressure_evicts_slow_consumer() {
    let server = Server::spawn(ServeConfig::default()).expect("spawn");
    let addr = server.addr();

    let mut slow = Client::connect(addr).expect("connect");
    slow.hello("slow").unwrap();
    slow.register_with(
        "Ans(x, y) <- e+(x, y).",
        WINDOW,
        SLIDE,
        Backpressure::Disconnect,
        4,
    )
    .unwrap();

    let mut feeder = Client::connect(addr).expect("connect");
    feeder.hello("feeder").unwrap();
    let fq = feeder
        .register("Ans(x, y) <- e(x, y).", WINDOW, SLIDE)
        .unwrap();
    for i in 0..30u64 {
        feeder.insert(i, i + 1, "e", 1).unwrap();
    }
    feeder.barrier().unwrap();

    // The slow subscriber's buffer overflowed during that epoch; the
    // host must have closed it with ERR_SLOW_CONSUMER + BYE.
    let reason = slow.drain_until_closed().unwrap();
    assert_eq!(reason, "slow consumer");

    // The feeder is unaffected and saw its own 30 single-hop results.
    assert_eq!(
        feeder
            .take_results()
            .iter()
            .filter(|r| r.query == fq)
            .count(),
        30
    );
    feeder.insert(50, 51, "e", 2).unwrap();
    feeder.barrier().unwrap();

    server.shutdown();
    server.join();
}

/// Graceful shutdown drains the open epoch, writes the final metrics
/// snapshot, and says BYE to connected clients.
#[test]
fn clean_shutdown_writes_final_snapshot() {
    let dir = std::env::temp_dir().join(format!("sgq_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("final.jsonl");
    let trace = dir.join("trace.jsonl");

    let server = Server::spawn(ServeConfig {
        metrics_path: Some(metrics.to_string_lossy().into_owned()),
        trace_path: Some(trace.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("spawn");

    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("t").unwrap();
    c.register("Ans(x, y) <- e+(x, y).", WINDOW, SLIDE).unwrap();
    // Edges still pending in the epoch buffer when SHUTDOWN arrives: the
    // drain must flush and route them before the BYE.
    c.insert(1, 2, "e", 1).unwrap();
    c.insert(2, 3, "e", 2).unwrap();
    let reason = c.shutdown().unwrap();
    assert_eq!(reason, "shutdown");
    assert_eq!(c.take_results().len(), 3);
    server.join();

    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        snapshot.lines().any(|l| l.contains("\"record\":\"exec\"")),
        "final snapshot must carry exec records: {snapshot}"
    );
    let trace_doc = std::fs::read_to_string(&trace).unwrap();
    assert!(
        !trace_doc.trim().is_empty(),
        "trace must record the register"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The shared feed helper drives the wire path the same way it drives
/// in-process engines: one code path, two consumers, equal results.
#[test]
fn feed_helper_drives_wire_and_in_process_identically() {
    let raw = so_stream(&SoConfig::new(25, 300));
    let q1_text = workloads::query_text(1, Dataset::So);

    let server = Server::spawn(deterministic_epochs()).expect("spawn");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello("feed").unwrap();
    let q = c.register(q1_text, WINDOW, SLIDE).unwrap();
    feed::feed_raw(&raw, |s, t, l, ts| {
        c.insert(s, t, l, ts).unwrap();
    });
    c.barrier().unwrap();
    let live: Vec<_> = c.take_results().iter().map(row_key).collect();

    // The mirror replays the live host's single epoch cut: everything in
    // one batch (`max_batch = 0`), through the same feed helper.
    let mut mirror = MultiQueryEngine::new();
    let m = mirror.register(&SgqQuery::new(
        workloads::query(1, Dataset::So),
        WindowSpec::new(WINDOW, SLIDE),
    ));
    let stream = resolve(&raw, mirror.labels());
    feed::feed_batches(&stream, 0, |batch| mirror.ingest_batch(batch));
    let mirrored: Vec<_> = mirror.drain(m).iter().map(|s| sgt_key(q, s)).collect();

    assert_eq!(live, mirrored);
    server.shutdown();
    server.join();
}

/// The inbound edge budget: a client that writes far more than two
/// epochs of edges in one burst, reading nothing, has every edge applied
/// and every result delivered, while the host never queues more than
/// `2 × batch_size` edges plus the frame being queued. Then SHUTDOWN
/// arrives while a second client floods on, whose reader is held at the
/// budget once the engine stops taking edges: the host still joins within
/// the bound `shutdown_joins_promptly` uses, and the flooding client sees
/// its connection close. (That the engine's exit wakes a waiting reader
/// is pinned by a unit test in `server.rs`.)
#[test]
fn a_flood_is_held_to_two_epochs_and_shutdown_releases_waiting_readers() {
    const BATCH: usize = 16;
    const FRAME: u64 = 8;
    const FRAMES: u64 = 512; // 4 096 edges: 128 times the budget
    let server = Server::spawn(ServeConfig {
        batch_size: BATCH,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let addr = server.addr();
    let mut c = Client::connect(addr).expect("connect");
    c.hello("flood").unwrap();
    let q = c.register("Ans(x, y) <- e(x, y).", WINDOW, SLIDE).unwrap();
    for f in 0..FRAMES {
        let edges = (f * FRAME..(f + 1) * FRAME)
            .map(|i| edge(i, i + 1, "e", i))
            .collect();
        c.batch(edges).unwrap();
    }
    // The first read: an ERROR would fail the barrier.
    c.barrier().unwrap();
    let mut got: Vec<(u64, u64)> = (c.take_results().iter())
        .map(|r| {
            assert_eq!((r.query, r.delete), (q, false));
            (r.src, r.trg)
        })
        .collect();
    got.sort_unstable();
    let want: Vec<(u64, u64)> = (0..FRAMES * FRAME).map(|i| (i, i + 1)).collect();
    assert_eq!(got, want, "every edge's result arrives once");
    let peak = record_field(&c.metrics().unwrap(), "memory", "peak_queued_edges");
    assert!(
        peak <= 2 * BATCH as u64 + FRAME,
        "{peak} edges queued at once; the budget is {} plus one frame of {FRAME}",
        2 * BATCH
    );

    // A second client floods without end; SHUTDOWN goes out once it is
    // under way.
    let (started, flooding) = std::sync::mpsc::channel();
    let (done, flood_done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut f = Client::connect(addr).expect("connect");
        f.hello("flood 2").unwrap();
        let first = FRAMES * FRAME;
        let mut frames = 0u64;
        let closed = loop {
            let t = first + frames * FRAME;
            let edges = (t..t + FRAME).map(|i| edge(i, i + 1, "e", i)).collect();
            if let Err(e) = f.batch(edges) {
                break e;
            }
            frames += 1;
            if frames == 64 {
                let _ = started.send(());
            }
        };
        let _ = done.send(closed.kind());
    });
    flooding
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the flood got under way");
    assert_eq!(c.shutdown().unwrap(), "shutdown");
    let limit = std::time::Duration::from_secs(2);
    let (joined, join) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    assert!(join.recv_timeout(limit).is_ok(), "join hung");
    let kind = flood_done
        .recv_timeout(limit)
        .expect("the flooding client is released when the host exits");
    assert!(
        matches!(
            kind,
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
        ),
        "{kind:?}"
    );
}
