//! The traced run: the same pre-encoded stream replayed in-process, with
//! spans recorded by this file around each public call into a layer of
//! the program, and operator rows read from `metrics_snapshot()` at
//! `ObsLevel::Timing`. Nothing inside the program is edited.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use sgq_core::engine::Engine;
use sgq_core::obs::{FrontierStats, MetricsSnapshot, ObsLevel, OpStats};
use sgq_multiquery::MultiQueryEngine;
use sgq_types::Sge;

use crate::inproc::{engine_options, registrations, sgq_query, Mirror};
use crate::spans::Recorder;
use crate::workload::{Frames, Spec};

/// Epoch threshold of a default host (`--batch 256`).
pub const HOST_BATCH: usize = 256;
/// Operator state is sampled every this many epochs for the peak.
const STATE_SAMPLE_EPOCHS: u64 = 128;

/// The operator classes the per-layer table reports.
pub const CLASSES: [&str; 4] = ["WSCAN", "S-PATH", "PATTERN", "OTHER"];

pub fn class_of(op_name: &str) -> &'static str {
    CLASSES[..3]
        .iter()
        .copied()
        .find(|c| op_name.starts_with(c))
        .unwrap_or("OTHER")
}

/// One in-process pass over a prefix of the stream.
pub struct Pass {
    pub mirror: Mirror,
    pub rec: Recorder,
    pub wall_s: f64,
    pub frames: usize,
    pub frame_ops: usize,
    pub frame_bytes: u64,
    /// Seconds since the pass began at which frame `k` was reached, for
    /// the frames asked for.
    pub reached_s: Vec<f64>,
    /// Peak `state_entries` per operator class, sampled.
    pub state_peak: BTreeMap<&'static str, usize>,
}

impl Pass {
    pub fn ops(&self) -> u64 {
        (self.frames * self.frame_ops) as u64
    }

    pub fn eps(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }
}

fn sample_state(engine: &MultiQueryEngine, peak: &mut BTreeMap<&'static str, usize>) {
    let mut now: BTreeMap<&'static str, usize> = BTreeMap::new();
    for op in &engine.metrics_snapshot().operators {
        *now.entry(class_of(&op.name)).or_default() += op.state_entries;
    }
    for (class, entries) in now {
        let p = peak.entry(class).or_default();
        *p = (*p).max(entries);
    }
}

/// What a pass does besides replaying.
#[derive(Default, Clone, Copy)]
pub struct PassOptions<'a> {
    /// Record spans.
    pub traced: bool,
    /// Collect the distinct `(query, src, trg)` set.
    pub distinct: bool,
    /// Frame indices (ascending) whose arrival time to note.
    pub note_frames: &'a [usize],
}

/// Replays frames `[0, frames)` through a [`Mirror`] with the host's
/// epoch threshold, at the engine collection level `obs`.
pub fn replay(
    spec: &Spec,
    stream: &Frames,
    frames: usize,
    obs: ObsLevel,
    opt: PassOptions,
) -> Pass {
    let mut rec = Recorder::new(opt.traced);
    let mut mirror = Mirror::new(spec, obs, HOST_BATCH, &mut rec);
    if opt.distinct {
        mirror.distinct = Some(HashSet::new());
    }
    let frames = frames.min(stream.frames.len());
    let mut state_peak = BTreeMap::new();
    let mut reached_s = Vec::with_capacity(opt.note_frames.len());
    let mut frame_bytes = 0u64;
    let t0 = Instant::now();
    let root = rec.start("replay", 0, None);
    for k in 0..frames {
        if opt.note_frames.get(reached_s.len()) == Some(&k) {
            reached_s.push(t0.elapsed().as_secs_f64());
        }
        frame_bytes += stream.frame(k).len() as u64;
        let s = rec.start("protocol.decode", mirror.epochs, root);
        let edges = stream.decode(k);
        rec.end(s);
        // Label lookup, watermark and buffering: what the engine thread
        // does per edge before an epoch closes. Epoch spans nest inside.
        let accept = rec.start("server.accept", mirror.epochs, root);
        mirror.parent = accept;
        let before = mirror.epochs;
        for e in &edges {
            mirror.push(e, &mut rec);
        }
        rec.end(accept);
        if obs.counting() && mirror.epochs / STATE_SAMPLE_EPOCHS != before / STATE_SAMPLE_EPOCHS {
            sample_state(&mirror.engine, &mut state_peak);
        }
    }
    mirror.parent = root;
    mirror.cut(&mut rec);
    rec.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    while reached_s.len() < opt.note_frames.len() {
        reached_s.push(wall_s);
    }
    if obs.counting() {
        sample_state(&mirror.engine, &mut state_peak);
    }
    Pass {
        mirror,
        rec,
        wall_s,
        frames,
        frame_ops: stream.frame_ops,
        frame_bytes,
        reached_s,
        state_peak,
    }
}

/// Throughput of the single-query [`Engine`] on the workload's first
/// query over the same frames (edges of labels it does not reference are
/// discarded, as everywhere): the parity row against the multi-query host.
pub fn single_engine_eps(spec: &Spec, stream: &Frames, frames: usize) -> f64 {
    let first = &registrations(spec)[0];
    let mut engine = Engine::from_query_with(
        &sgq_query(first),
        engine_options(spec.explicit_deletes, ObsLevel::Off),
    );
    let frames = frames.min(stream.frames.len());
    let mut pending: Vec<Sge> = Vec::with_capacity(HOST_BATCH);
    let mut results = 0usize;
    let t0 = Instant::now();
    for k in 0..frames {
        for e in &stream.decode(k) {
            let Some(label) = engine.labels().get(&e.label) else {
                continue;
            };
            let sge = Sge::raw(e.src, e.trg, label, e.t);
            if e.delete {
                results += engine.process_batch(&pending).len();
                pending.clear();
                results += engine.delete(sge).len();
            } else {
                pending.push(sge);
                if pending.len() >= HOST_BATCH {
                    results += engine.process_batch(&pending).len();
                    pending.clear();
                }
            }
        }
    }
    results += engine.process_batch(&pending).len();
    std::hint::black_box(results);
    (frames * stream.frame_ops) as f64 / t0.elapsed().as_secs_f64()
}

/// Operators the fleet instantiates, and that count over the operators
/// the same queries instantiate when each has a host to itself.
pub fn sharing(spec: &Spec, shared: &MultiQueryEngine) -> (usize, f64) {
    let alone: usize = registrations(spec)
        .iter()
        .map(|q| {
            let opts = engine_options(spec.explicit_deletes, ObsLevel::Off);
            let mut e = MultiQueryEngine::with_options(opts);
            e.register(&sgq_query(q));
            e.operator_count()
        })
        .sum();
    let n = shared.operator_count();
    (n, n as f64 / alone as f64)
}

/// Root operator node of each registered query, read off the first
/// operator line (`#<node> …`) of `explain_analyze`.
fn root_nodes(engine: &MultiQueryEngine) -> HashSet<usize> {
    engine
        .registered()
        .into_iter()
        .filter_map(|id| {
            let text = engine.explain_analyze(id)?;
            let line = text.lines().find(|l| l.trim_start().starts_with('#'))?;
            let node = line.trim_start().trim_start_matches('#');
            node.split_whitespace().next()?.parse().ok()
        })
        .collect()
}

/// Per-class operator totals of one snapshot.
#[derive(Default, Clone, Copy)]
pub struct ClassRow {
    pub stats: OpStats,
    pub frontier: FrontierStats,
}

pub struct Operators {
    pub by_class: BTreeMap<&'static str, ClassRow>,
    /// Deltas the root operators handed to the sinks.
    pub offered_to_sinks: u64,
}

pub fn operators(engine: &MultiQueryEngine, snap: &MetricsSnapshot) -> Operators {
    let roots = root_nodes(engine);
    let mut by_class: BTreeMap<&'static str, ClassRow> =
        CLASSES.iter().map(|&c| (c, ClassRow::default())).collect();
    let mut offered_to_sinks = 0;
    for op in &snap.operators {
        let row = by_class
            .get_mut(class_of(&op.name))
            .expect("every class has a row");
        row.stats.absorb(&op.stats);
        if let Some(f) = &op.frontier {
            row.frontier.merge(f);
        }
        if roots.contains(&op.node) {
            offered_to_sinks += op.stats.deltas_out;
        }
    }
    Operators {
        by_class,
        offered_to_sinks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_names_fall_into_four_classes() {
        assert_eq!(class_of("WSCAN[T=2000,β=100]"), "WSCAN");
        assert_eq!(class_of("S-PATH[→l1]"), "S-PATH");
        assert_eq!(class_of("PATTERN[4 inputs → l9]"), "PATTERN");
        assert_eq!(class_of("PATTERN-WCOJ[3 inputs → l2]"), "PATTERN");
        assert_eq!(class_of("UNION[l4]"), "OTHER");
        assert_eq!(class_of("PATH-NT[→l1]"), "OTHER");
    }
}
