//! # sgq-bench — the benchmark harness for the paper's evaluation
//!
//! Shared setup for the `repro` binary, which prints every table, figure
//! and ablation of §7 in the paper's format. Workloads follow §7.1: Q1–Q7
//! of Table 1 over SO-like and SNB-like streams, a window of `T = 30·β`
//! with slide `β` ("|W| = 30 days and β = 1 day"), tail latency = p99
//! per-slide processing time, throughput = edges/s.
//!
//! Scale is configurable: streams are generated in *ticks* (1 edge ≈ 1
//! tick) and windows derived from the span, preserving the paper's
//! window-to-stream proportions at laptop scale.

use sgq_core::engine::{Engine, EngineOptions, PathImpl};
use sgq_core::metrics::RunStats;
use sgq_core::planner::Plan;
use sgq_datagen::{resolve, snb_stream, so_stream, workloads, RawStream, SnbConfig, SoConfig};
use sgq_dd::DdEngine;
use sgq_query::{RqProgram, SgqQuery, WindowSpec};
use workloads::Dataset;

/// Experiment scale: stream sizes and the derived window geometry.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Edges per generated stream.
    pub edges: usize,
    /// Vertices (users / persons).
    pub vertices: u64,
    /// "Days" the stream spans (the paper's SO covers ~8 years with 30-day
    /// windows; we default to 60 windowable days).
    pub days: u64,
}

impl Scale {
    /// `repro` binary default scale.
    pub fn repro() -> Scale {
        Scale {
            edges: 20_000,
            vertices: 2_500,
            days: 60,
        }
    }

    /// Scales edge count by `f` (for quick CLI adjustment).
    pub fn scaled(self, f: f64) -> Scale {
        Scale {
            edges: ((self.edges as f64 * f) as usize).max(100),
            vertices: ((self.vertices as f64 * f.sqrt()) as u64).max(10),
            ..self
        }
    }

    /// Stream span in ticks.
    pub fn span(&self) -> u64 {
        self.edges as u64
    }

    /// Ticks per simulated "day".
    pub fn ticks_per_day(&self) -> u64 {
        (self.span() / self.days).max(1)
    }

    /// The paper's default window: 30 days, sliding by 1 day.
    pub fn default_window(&self) -> WindowSpec {
        WindowSpec::new(30 * self.ticks_per_day(), self.ticks_per_day())
    }

    /// A window of `days` days with slide `slide_days` days.
    pub fn window(&self, days: u64, slide_days_num: u64, slide_days_den: u64) -> WindowSpec {
        let day = self.ticks_per_day();
        WindowSpec::new(days * day, ((day * slide_days_num) / slide_days_den).max(1))
    }

    /// Generates the raw stream for a dataset at this scale.
    pub fn stream(&self, ds: Dataset) -> RawStream {
        match ds {
            Dataset::So => {
                so_stream(&SoConfig::new(self.vertices, self.edges).with_span(self.span()))
            }
            Dataset::Snb => {
                snb_stream(&SnbConfig::new(self.vertices, self.edges).with_span(self.span()))
            }
        }
    }
}

/// Which engine/plan to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The SGA engine with S-PATH (the paper's "SGA" rows).
    Sga,
    /// The SGA engine with the negative-tuple PATH of \[57\] (Table 3 rows).
    SgaNegPath,
    /// The DD-style incremental baseline (the paper's "DD" rows).
    Dd,
}

impl System {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            System::Sga => "SGA",
            System::SgaNegPath => "S-PATH[neg]",
            System::Dd => "DD",
        }
    }
}

/// Runs query `Qn` on `ds` at `scale` under `window`, returning run stats.
pub fn run_query(
    n: usize,
    ds: Dataset,
    raw: &RawStream,
    window: WindowSpec,
    system: System,
) -> RunStats {
    let program = workloads::query(n, ds);
    run_program(&program, raw, window, system)
}

/// Runs an arbitrary program over a raw stream.
pub fn run_program(
    program: &RqProgram,
    raw: &RawStream,
    window: WindowSpec,
    system: System,
) -> RunStats {
    match system {
        System::Sga | System::SgaNegPath => {
            // Like the paper's prototype, paths are *recoverable* from the
            // Δ-PATH index (parent pointers); the measured result stream
            // carries pairs, so per-emission materialisation is off here
            // (`repro ablations` measures its cost separately).
            let opts = EngineOptions {
                path_impl: if system == System::Sga {
                    PathImpl::Direct
                } else {
                    PathImpl::NegativeTuple
                },
                materialize_paths: false,
                ..Default::default()
            };
            run_sga(program, raw, window, opts, None).0
        }
        System::Dd => {
            let query = SgqQuery::new(program.clone(), window);
            let mut dd = DdEngine::new(&query);
            dd.run(&resolve(raw, program.labels()))
        }
    }
}

/// Runs a program on the SGA engine under explicit options, tuple at a
/// time or, with `epoch_ticks`, in epochs of that many ticks; returns the
/// run stats and the engine, for its post-run metrics.
pub fn run_sga(
    program: &RqProgram,
    raw: &RawStream,
    window: WindowSpec,
    opts: EngineOptions,
    epoch_ticks: Option<u64>,
) -> (RunStats, Engine) {
    let stream = resolve(raw, program.labels());
    let mut engine = Engine::from_query_with(&SgqQuery::new(program.clone(), window), opts);
    let stats = match epoch_ticks {
        None => engine.run(&stream),
        Some(ticks) => engine.run_batched(&stream, ticks),
    };
    (stats, engine)
}

/// The extended latency/state JSON fields of a `repro --stats` run
/// record: p50/p99/p99.9 slide latency (seconds) and the peak retained
/// state entries. Returned as a fragment (no braces) so callers
/// splice it into their own row objects.
pub fn latency_fields(stats: &RunStats) -> String {
    let profile = stats.latency_profile();
    format!(
        concat!(
            "\"p50_s\": {:.6}, \"p99_s\": {:.6}, ",
            "\"p999_s\": {:.6}, \"peak_state\": {}"
        ),
        profile.percentile(0.50).as_secs_f64(),
        profile.percentile(0.99).as_secs_f64(),
        profile.percentile(0.999).as_secs_f64(),
        stats.peak_state
    )
}

/// Runs an explicit (rewritten) plan over a raw stream; returns the run
/// stats and the engine, for its counted work.
pub fn run_plan(plan: &Plan, raw: &RawStream) -> (RunStats, Engine) {
    let stream = resolve(raw, &plan.labels);
    let mut engine = Engine::from_plan(plan);
    let stats = engine.run(&stream);
    (stats, engine)
}

/// Formats a stats row like the paper's tables: throughput (edges/s) and
/// p99 tail latency (seconds).
pub fn row(stats: &RunStats) -> String {
    format!(
        "{:>9.0} ev/s  {:>9.4} s",
        stats.throughput(),
        stats.tail_latency().as_secs_f64()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_runs_every_cell_of_table2() {
        let scale = Scale {
            edges: 400,
            vertices: 50,
            days: 20,
        };
        for ds in [Dataset::So, Dataset::Snb] {
            let raw = scale.stream(ds);
            for n in 1..=7 {
                for sys in [System::Sga, System::Dd, System::SgaNegPath] {
                    let stats = run_query(n, ds, &raw, scale.default_window(), sys);
                    assert_eq!(stats.edges as usize + stats_skipped(&raw, n, ds), raw.len());
                    assert!(stats.throughput() > 0.0, "{ds:?} Q{n} {sys:?}");
                }
            }
        }
    }

    /// Edges whose label a query does not reference are discarded before
    /// the engine (§7.2.1), so `stats.edges` counts only resolved ones.
    fn stats_skipped(raw: &RawStream, n: usize, ds: Dataset) -> usize {
        let program = workloads::query(n, ds);
        raw.len() - resolve(raw, program.labels()).len()
    }

    #[test]
    fn scaled_changes_sizes() {
        let s = Scale::repro().scaled(2.0);
        assert!(s.edges > Scale::repro().edges);
        let w = s.default_window();
        assert_eq!(w.size, 30 * w.slide);
    }
}
