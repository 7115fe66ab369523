//! Spans recorded by the benchmark around each call into a layer of the
//! program. Kept in memory; written out as JSONL when the run ends.

use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer, e.g. `multiquery.ingest`.
    pub name: &'static str,
    /// Shared by every span of one unit of work (the epoch index).
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log. A disabled recorder costs one branch per call,
/// so the untraced passes run the same code.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the returned handle to [`Recorder::end`].
    pub fn start(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Total duration of all spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Total self time of all spans named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are not counted
/// twice, and a child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),    // parent
            span(Some(0), 10, 30), // child
            span(Some(0), 20, 50), // overlaps the first child
            span(Some(0), 70, 80), // disjoint child
            span(Some(1), 12, 18), // grandchild: charged to span 1 only
        ];
        let own = self_times(&spans);
        // children cover [10,50) and [70,80) = 50 ns
        assert_eq!(own[0], 50);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn child_is_clipped_to_parent() {
        let spans = vec![
            span(None, 10, 20),
            span(Some(0), 5, 15),
            span(Some(0), 18, 40),
        ];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let h = r.start("x", 1, None);
        r.end(h);
        assert!(r.spans.is_empty());
        let mut r = Recorder::new(true);
        let outer = r.start("outer", 1, None);
        let inner = r.start("inner", 1, outer);
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.self_ns("outer") <= r.total_ns("outer"));
    }
}
