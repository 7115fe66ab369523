//! An in-process mirror of the serve loop: the same decoded edges, the
//! same epoch cuts, the same result order — without sockets, threads or
//! outboxes. It is the reference the correctness gate compares the wire
//! against, and the thing the traced run puts spans around.

use std::collections::HashSet;
use std::hint::black_box;

use sgq_core::engine::{DispatchMode, EngineOptions, PathImpl, PatternImpl, SharingPolicy};
use sgq_core::obs::ObsLevel;
use sgq_multiquery::{MultiQueryEngine, QueryId};
use sgq_query::{parse_program, SgqQuery, WindowSpec};
use sgq_serve::protocol::{Message, WireEdge};
use sgq_types::Sge;

use crate::spans::Recorder;
use crate::workload::{QuerySpec, Spec, MARKER_QUERY};

/// One result as it appears on the wire:
/// `(query, delete, src, trg, ts, exp)`.
pub type Row = (u64, bool, u64, u64, u64, u64);

/// Engine options of a default `sgq-serve` host, pinned here so that no
/// `SGQ_*` variable in the caller's environment changes a row.
pub fn engine_options(explicit_deletes: bool, obs: ObsLevel) -> EngineOptions {
    EngineOptions {
        path_impl: PathImpl::Direct,
        pattern_impl: PatternImpl::HashTree,
        suppress_duplicates: !explicit_deletes,
        materialize_paths: true,
        purge_period: None,
        dispatch: DispatchMode::Epoch,
        workers: 1,
        shards: 1,
        obs,
        sharing: SharingPolicy::Auto,
        adaptive: false,
    }
}

/// The workload's registrations plus the marker query, in the order both
/// the wire session and the mirror register them.
pub fn registrations(spec: &Spec) -> Vec<QuerySpec> {
    let mut out = spec.queries();
    // The host ticks at the gcd of all registered slides, and chunks
    // every epoch at tick boundaries: the marker query takes the first
    // query's window so that registering it leaves the tick where it was.
    let (window, slide) = (out[0].window, out[0].slide);
    out.push(QuerySpec {
        text: MARKER_QUERY,
        window,
        slide,
    });
    out
}

pub fn sgq_query(q: &QuerySpec) -> SgqQuery {
    let program = parse_program(q.text).expect("workload queries are well-formed");
    SgqQuery::new(program, WindowSpec::new(q.window, q.slide))
}

/// What one epoch cut produced, per query in id order.
type Drained = Vec<(QueryId, Vec<sgq_types::Sgt>, Vec<sgq_types::Sgt>)>;

pub struct Mirror {
    pub engine: MultiQueryEngine,
    /// Ascending, the order the host routes in; the marker's id is last.
    pub ids: Vec<QueryId>,
    deleted_cursor: Vec<usize>,
    pending: Vec<Sge>,
    batch: usize,
    explicit_deletes: bool,
    /// Span the epoch spans hang under.
    pub parent: Option<usize>,
    pub epochs: u64,
    pub results: u64,
    pub neg_results: u64,
    pub result_bytes: u64,
    /// Every routed result in wire order, when switched on.
    pub rows: Option<Vec<Row>>,
    /// Distinct `(query, src, trg)` of non-marker results, when switched on.
    pub distinct: Option<HashSet<(u64, u64, u64)>>,
}

impl Mirror {
    /// Registers `spec`'s queries and the marker query on a fresh engine.
    /// `batch` is the epoch threshold (256 on a default host; `usize::MAX`
    /// for client-driven cuts).
    pub fn new(spec: &Spec, obs: ObsLevel, batch: usize, rec: &mut Recorder) -> Mirror {
        let mut engine = MultiQueryEngine::with_options(engine_options(spec.explicit_deletes, obs));
        let mut ids = Vec::new();
        for q in registrations(spec) {
            let s = rec.start("query.parse", 0, None);
            let program = parse_program(q.text).expect("workload queries are well-formed");
            rec.end(s);
            let query = SgqQuery::new(program, WindowSpec::new(q.window, q.slide));
            let s = rec.start("multiquery.register", 0, None);
            ids.push(engine.register(&query));
            rec.end(s);
        }
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids ascend with registration"
        );
        Mirror {
            engine,
            deleted_cursor: vec![0; ids.len()],
            ids,
            pending: Vec::new(),
            batch,
            explicit_deletes: spec.explicit_deletes,
            parent: None,
            epochs: 0,
            results: 0,
            neg_results: 0,
            result_bytes: 0,
            rows: None,
            distinct: None,
        }
    }

    /// Handles one decoded edge the way the host's engine thread does:
    /// unknown labels are discarded, inserts buffer until the batch
    /// threshold, a delete cuts the epoch and applies at once.
    pub fn push(&mut self, e: &WireEdge, rec: &mut Recorder) {
        let Some(label) = self.engine.labels().get(&e.label) else {
            return;
        };
        let sge = Sge::raw(e.src, e.trg, label, e.t);
        if e.delete {
            assert!(self.explicit_deletes, "DELETE on an append-only workload");
            self.cut(rec);
            let s = rec.start("multiquery.delete", self.epochs, self.parent);
            self.engine.delete(sge);
            rec.end(s);
            self.route(rec, self.parent);
        } else {
            self.pending.push(sge);
            if self.pending.len() >= self.batch {
                self.cut(rec);
            }
        }
    }

    /// Closes the open epoch: ingest, drain every query, encode results.
    pub fn cut(&mut self, rec: &mut Recorder) {
        let epoch = rec.start("server.epoch", self.epochs, self.parent);
        if !self.pending.is_empty() {
            let s = rec.start("multiquery.ingest", self.epochs, epoch);
            self.engine.ingest_batch(&self.pending);
            rec.end(s);
            self.pending.clear();
        }
        self.route(rec, epoch);
        rec.end(epoch);
        self.epochs += 1;
    }

    fn route(&mut self, rec: &mut Recorder, parent: Option<usize>) {
        let s = rec.start("multiquery.drain", self.epochs, parent);
        let mut drained: Drained = Vec::with_capacity(self.ids.len());
        for (i, &id) in self.ids.iter().enumerate() {
            let fresh = self.engine.drain(id);
            let deleted = self.engine.deleted_results(id)[self.deleted_cursor[i]..].to_vec();
            self.deleted_cursor[i] += deleted.len();
            drained.push((id, fresh, deleted));
        }
        rec.end(s);
        let marker = *self.ids.last().expect("the marker query is registered");
        let s = rec.start("protocol.encode", self.epochs, parent);
        for (id, fresh, deleted) in &drained {
            let inserts = fresh.iter().map(|s| (false, s));
            let deletes = deleted.iter().map(|s| (true, s));
            for (delete, sgt) in inserts.chain(deletes) {
                let (src, trg) = (sgt.src.0, sgt.trg.0);
                let (ts, exp) = (sgt.interval.ts, sgt.interval.exp);
                let frame = Message::Result {
                    query: id.0,
                    delete,
                    src,
                    trg,
                    ts,
                    exp,
                }
                .encode();
                self.result_bytes += black_box(&frame).len() as u64;
                if let Some(rows) = &mut self.rows {
                    rows.push((id.0, delete, src, trg, ts, exp));
                }
                if let Some(set) = self.distinct.as_mut().filter(|_| *id != marker) {
                    set.insert((id.0, src, trg));
                }
            }
            self.results += (fresh.len() + deleted.len()) as u64;
            self.neg_results += deleted.len() as u64;
        }
        rec.end(s);
    }
}
