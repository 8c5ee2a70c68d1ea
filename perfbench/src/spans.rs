//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each public call into a
//! layer — nothing inside the program is instrumented. A disabled tracer
//! runs the closure and records nothing, so the untimed and traced runs
//! share one code path per workload.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to, and its kind (`unit`, `setup`
    /// or `leg`).
    pub rep: u32,
    pub kind: &'static str,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. All spans live in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    kind: &'static str,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            kind: "unit",
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (a traced run alternates).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the repetition id and kind stamped on spans from now on.
    pub fn set_rep(&mut self, rep: u32, kind: &'static str) {
        self.rep = rep;
        self.kind = kind;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span measured by the caller, inside the current span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                rep: self.rep,
                kind: self.kind,
            });
        }
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            kind: self.kind,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{},\"kind\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, parent, s.rep, s.kind
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover (children may not overlap one another on one
/// thread, but the union is taken anyway).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
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

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
            kind: "unit",
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("graph.build", 10, 30, Some(0)),
            span("engine.run", 40, 90, Some(0)),
            span("advice.busy", 50, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a.x", 10, 50, Some(0)),
            span("a.y", 30, 60, Some(0)),
            span("a.z", 95, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 5);
    }

    #[test]
    fn tracer_nests_and_stamps_reps() {
        let mut t = Tracer::new(true);
        t.set_rep(3, "unit");
        let v = t.span("outer", |t| t.span("inner.call", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].rep, s[1].rep), (3, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].layer(), "inner");
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("outer", |_| 1), 1);
        assert!(t.spans().is_empty());
    }
}
