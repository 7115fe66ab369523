//! A small persistent worker pool for shard-subgraph execution and
//! parallel state reclamation.
//!
//! The dataflow executor ([`crate::dataflow::Dataflow`]) has two kinds of
//! embarrassingly parallel work, each shipped to the pool as one
//! [`PoolJob`] variant:
//!
//! * [`ShardJob`] — one **shard-subgraph's whole epoch**: every level of
//!   the operator closure reachable only from one label shard's WSCANs,
//!   swept internally with no inter-shard barrier (shards never exchange
//!   data — only explicit merge points do, and those stay on the
//!   scheduler thread);
//! * [`PurgeJob`] — one direct-approach operator's state reclamation
//!   (no continuations, so order-free).
//!
//! This module provides the thread machinery: a fixed set of `std`
//! threads consuming jobs from a mutex-and-condvar guarded queue set and
//! handing them back on a completion channel. Threads are spawned once —
//! lazily, on the first dispatch — and live until the owning dataflow is
//! dropped, so the per-dispatch cost is a queue round-trip, not a thread
//! spawn. No external dependencies.
//!
//! **Shard affinity.** Each worker owns a pinned queue in addition to the
//! shared one. Shard jobs are pinned to worker `shard % workers`, so a
//! given shard-subgraph's operators are swept by the *same* thread epoch
//! after epoch and their state stays hot in one cache domain; purge jobs
//! go to the shared queue that any idle worker drains. Workers prefer
//! their pinned queue over the shared one. Pinning only chooses *which
//! thread runs a job*, never what the job computes, and the indexed merge
//! below erases completion order — so affinity is invisible to the
//! determinism contract.
//!
//! Determinism is the caller's contract, and the pool is designed not to
//! break it: a job carries everything it needs (operators, moved out of
//! the arena for the dispatch; consumed inbox segments; output buffers),
//! workers never touch shared executor state, and the caller merges
//! completed jobs back in ascending `idx` order regardless of which
//! worker finished first. Completion *order* is the only nondeterministic
//! thing here, and it is erased by the indexed merge. The operators
//! travel *with* their job — each is owned by exactly one thread at a
//! time, which is why [`PhysicalOp`] requires `Send` but not `Sync`.

use crate::obs::OpStats;
use crate::physical::{Delta, DeltaBatch, PhysicalOp, SharedDeltaBatch};
use sgq_types::Timestamp;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The immutable topology of one shard-subgraph: the operator closure
/// reachable only from one label shard's WSCANs, precomputed at schedule
/// rebuild and shared into every epoch's [`ShardJob`] by `Arc`.
///
/// Membership is stored in **(level, node-id) order** — a topological
/// order of the subgraph (every dataflow edge crosses to a strictly
/// higher level), so one ascending pass over `nodes` is a complete epoch
/// sweep of the shard, and the per-node processing order matches the
/// global serial schedule restricted to the shard.
pub(crate) struct ShardPlan {
    /// Member node ids, in (level, id) order.
    pub nodes: Vec<usize>,
    /// Global schedule level of each member (parallel to `nodes`).
    pub levels: Vec<usize>,
    /// **In-shard** successor edges of each member as `(local index,
    /// port)` pairs (parallel to `nodes`). Cross-shard edges are omitted:
    /// they terminate at merge points, which the scheduler thread feeds
    /// during the ordered replay.
    pub succs: Vec<Vec<(usize, usize)>>,
}

/// One shard-subgraph's **whole epoch**, shipped to a worker thread and
/// back: all member operators (moved out of the arena), their inbox
/// segments, and the shard topology. The internal sweep delivers
/// in-shard fan-out locally and records every emission batch; the caller
/// replays the recorded emissions on the scheduler thread in global
/// schedule order, which is where cross-shard (merge-point) deliveries
/// and sink calls happen — so observable effects are exactly the serial
/// sweep's.
pub(crate) struct ShardJob {
    /// Dispatch slot (ascending shard order); erases completion-order
    /// nondeterminism at the merge.
    pub idx: usize,
    /// The shard id this job executes — the pool pins it to worker
    /// `shard % workers` so the shard's operator state stays hot in one
    /// cache domain, and the caller attributes `nanos` per shard.
    pub shard: usize,
    /// The shard's topology (shared, rebuilt only on graph changes).
    pub plan: Arc<ShardPlan>,
    /// Member operators, parallel to `plan.nodes`.
    pub ops: Vec<Box<dyn PhysicalOp>>,
    /// Member inboxes, parallel to `plan.nodes`: epoch seeds on entry,
    /// plus in-shard deliveries made during the internal sweep.
    pub inboxes: Vec<Vec<(usize, SharedDeltaBatch)>>,
    /// Recycled output buffers drawn from the dataflow's spare pool;
    /// unconsumed ones travel home for re-pooling at the merge.
    pub spare: Vec<DeltaBatch>,
    /// The epoch's opening event-time watermark.
    pub now: Timestamp,
    /// Every member emission as `(local index, batch)`, in execution
    /// (level, id) order — the scheduler's replay input.
    pub emissions: Vec<(usize, SharedDeltaBatch)>,
    /// Ready (executed) member count per global schedule level, for the
    /// deterministic `levels_run` / `max_level_width` accounting.
    pub ready_per_level: Vec<u32>,
    /// `on_batch` calls performed (merged into `ExecStats`).
    pub invocations: u64,
    /// Deltas handed to member operators (merged into `ExecStats`).
    pub dispatched: u64,
    /// Deltas emitted by member operators (merged into `ExecStats`).
    pub emitted: u64,
    /// In-shard batch deliveries (merged into `fanout_deliveries`).
    pub fanout: u64,
    /// Per-member observability stats, parallel to `plan.nodes`. Empty
    /// when collection is off (the worker then skips per-member
    /// bookkeeping entirely); filled here for free per-shard attribution
    /// since the job owns its member operators.
    pub node_obs: Vec<OpStats>,
    /// Whether to clock each member's batch work (observability at
    /// `ObsLevel::Timing`).
    pub timed: bool,
    /// Wall-clock nanos of the whole shard sweep — always collected (two
    /// clock reads per shard per epoch): it is the per-shard
    /// `shard_nanos` signal the adaptive rebalancer and
    /// `explain_analyze`'s shard-share column read.
    pub nanos: u64,
    /// A panic raised by a member operator, carried home for resumption.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ShardJob {
    /// Sweeps the shard-subgraph once: members in (level, id) order, each
    /// consuming its inbox segments in arrival order and fanning its
    /// output batch out to in-shard successors. Because membership order
    /// is topological and shards never exchange data, this is the global
    /// serial sweep restricted to the shard — per-member inputs, and
    /// hence the recorded emissions, are bit-identical to it.
    pub fn run(&mut self) {
        let collect = !self.node_obs.is_empty();
        let sweep_started = Instant::now();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for i in 0..self.plan.nodes.len() {
                if self.inboxes[i].is_empty() {
                    continue;
                }
                self.ready_per_level[self.plan.levels[i]] += 1;
                let mut segs = std::mem::take(&mut self.inboxes[i]);
                let mut out = self.spare.pop().unwrap_or_default();
                let started = (collect && self.timed).then(Instant::now);
                let mut invocations = 0u64;
                let mut dispatched = 0u64;
                for (port, batch) in segs.drain(..) {
                    dispatched += batch.len() as u64;
                    invocations += 1;
                    self.ops[i].on_batch(port, &batch, self.now, &mut out);
                }
                self.dispatched += dispatched;
                self.invocations += invocations;
                if collect {
                    let os = &mut self.node_obs[i];
                    os.invocations += invocations;
                    os.deltas_in += dispatched;
                    os.deltas_out += out.len() as u64;
                    if let Some(started) = started {
                        os.batch_nanos += started.elapsed().as_nanos() as u64;
                    }
                }
                self.inboxes[i] = segs; // keep the allocation
                if out.is_empty() {
                    self.spare.push(out);
                    continue;
                }
                self.emitted += out.len() as u64;
                let shared = out.into_shared();
                for &(succ, port) in &self.plan.succs[i] {
                    self.inboxes[succ].push((port, shared.clone()));
                    self.fanout += 1;
                }
                self.emissions.push((i, shared));
            }
        }));
        self.nanos = sweep_started.elapsed().as_nanos() as u64;
        if let Err(payload) = result {
            self.panic = Some(payload);
        }
    }
}

/// One direct-approach operator's state reclamation, shipped to a worker
/// thread and back. Direct operators skip expired state by interval
/// intersection and emit **no** continuations from `purge`, so
/// reclamations are independent of each other; `out` exists only to
/// assert that invariant at the merge.
pub(crate) struct PurgeJob {
    /// Dispatch slot (ascending node order).
    pub idx: usize,
    /// Node id in the dataflow arena.
    pub node: usize,
    /// The operator, moved out of its arena slot for the reclamation.
    pub op: Box<dyn PhysicalOp>,
    /// The watermark state must be expired at to be reclaimed.
    pub watermark: Timestamp,
    /// Continuation output — empty for every direct-approach operator
    /// (asserted by the caller); carried so a hypothetical emitting
    /// operator would fail loudly instead of losing results.
    pub out: Vec<Delta>,
    /// Whether to clock the reclamation (observability at
    /// `ObsLevel::Timing`).
    pub timed: bool,
    /// Wall-clock nanos spent reclaiming when `timed` (merged into the
    /// node's [`OpStats`] by the caller).
    pub nanos: u64,
    /// A panic raised by the operator, carried home for resumption.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
}

impl PurgeJob {
    /// Reclaims the operator's expired state on whichever thread owns the
    /// job.
    pub fn run(&mut self) {
        let started = self.timed.then(Instant::now);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.op.purge(self.watermark, &mut self.out);
        }));
        if let Some(started) = started {
            self.nanos = started.elapsed().as_nanos() as u64;
        }
        if let Err(payload) = result {
            self.panic = Some(payload);
        }
    }
}

/// The unit of pool dispatch: every parallel work kind the executor
/// ships. One queue set serves both, so a single persistent pool covers
/// shard-subgraph epochs and purge reclamation.
pub(crate) enum PoolJob {
    /// One shard-subgraph's whole epoch.
    Shard(ShardJob),
    /// One direct-approach operator's state reclamation.
    Purge(PurgeJob),
}

impl PoolJob {
    fn run(&mut self) {
        match self {
            PoolJob::Shard(j) => j.run(),
            PoolJob::Purge(j) => j.run(),
        }
    }

    fn idx(&self) -> usize {
        match self {
            PoolJob::Shard(j) => j.idx,
            PoolJob::Purge(j) => j.idx,
        }
    }
}

/// The pool's job queues: one shared FIFO any worker drains, plus one
/// pinned FIFO per worker for affinity dispatch. One mutex guards all of
/// them — queue operations are push/pop of boxed work, so contention is
/// dwarfed by the jobs themselves.
struct PoolQueues {
    shared: VecDeque<PoolJob>,
    pinned: Vec<VecDeque<PoolJob>>,
    closed: bool,
}

/// A fixed-size pool of worker threads executing [`PoolJob`]s, with
/// per-shard worker affinity (see the module docs).
pub(crate) struct WorkerPool {
    queues: Arc<(Mutex<PoolQueues>, Condvar)>,
    done_rx: Receiver<PoolJob>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads blocked on empty job queues.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let queues = Arc::new((
            Mutex::new(PoolQueues {
                shared: VecDeque::new(),
                pinned: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let (done_tx, done_rx) = channel::<PoolJob>();
        let handles = (0..workers)
            .map(|i| {
                let queues = Arc::clone(&queues);
                let done_tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("sgq-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the dequeue, never
                        // for the job run, so idle workers can grab the
                        // next job while this one computes. Pinned work
                        // first: a worker's shards beat stray shared jobs.
                        let job = {
                            let (lock, cvar) = &*queues;
                            let mut q = lock.lock().expect("job queue lock");
                            loop {
                                if let Some(j) =
                                    q.pinned[i].pop_front().or_else(|| q.shared.pop_front())
                                {
                                    break Some(j);
                                }
                                if q.closed {
                                    break None;
                                }
                                q = cvar.wait(q).expect("job queue lock");
                            }
                        };
                        match job {
                            Some(mut job) => {
                                job.run();
                                if done_tx.send(job).is_err() {
                                    return; // pool dropped mid-flight
                                }
                            }
                            None => return, // queues closed: shut down
                        }
                    })
                    .expect("spawn sgq worker thread")
            })
            .collect();
        WorkerPool {
            queues,
            done_rx,
            handles,
            workers,
        }
    }

    /// Dispatches a batch of jobs and blocks until every one completed,
    /// returning them ordered by their `idx` slot — completion order
    /// never leaks to the caller. Shard jobs are pinned to worker
    /// `shard % workers`; purge jobs land on the shared queue.
    fn run_jobs(&self, jobs: Vec<PoolJob>) -> Vec<PoolJob> {
        let n = jobs.len();
        let mut done: Vec<Option<PoolJob>> = Vec::new();
        done.resize_with(n, || None);
        {
            let (lock, cvar) = &*self.queues;
            let mut q = lock.lock().expect("job queue lock");
            for job in jobs {
                match &job {
                    PoolJob::Shard(s) => {
                        let w = s.shard % self.workers;
                        q.pinned[w].push_back(job);
                    }
                    PoolJob::Purge(_) => q.shared.push_back(job),
                }
            }
            cvar.notify_all();
        }
        for _ in 0..n {
            let job = self
                .done_rx
                .recv()
                .expect("worker threads outlive the pool");
            let slot = job.idx();
            debug_assert!(done[slot].is_none(), "duplicate completion slot");
            done[slot] = Some(job);
        }
        done.into_iter()
            .map(|j| j.expect("every dispatched job completes"))
            .collect()
    }

    /// Dispatches one epoch's shard-subgraph jobs, returning them in
    /// ascending `idx` (shard) order.
    pub fn run_shards(&self, jobs: Vec<ShardJob>) -> Vec<ShardJob> {
        self.run_jobs(jobs.into_iter().map(PoolJob::Shard).collect())
            .into_iter()
            .map(|j| match j {
                PoolJob::Shard(j) => j,
                PoolJob::Purge(_) => unreachable!("shard dispatch returns shard jobs"),
            })
            .collect()
    }

    /// Dispatches a run of purge reclamations, returning them in
    /// ascending `idx` (node) order.
    pub fn run_purges(&self, jobs: Vec<PurgeJob>) -> Vec<PurgeJob> {
        self.run_jobs(jobs.into_iter().map(PoolJob::Purge).collect())
            .into_iter()
            .map(|j| match j {
                PoolJob::Purge(j) => j,
                PoolJob::Shard(_) => unreachable!("purge dispatch returns purge jobs"),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Close the queues: workers drain what's left and exit.
            let (lock, cvar) = &*self.queues;
            lock.lock().expect("job queue lock").closed = true;
            cvar.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
