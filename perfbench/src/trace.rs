//! Outside-in span tracing: the benchmark opens a span around every call it
//! makes into a layer, keeps the spans in memory and writes them out when
//! the run ends. Off, `begin`/`end` return before reading the clock.

use std::io::{self, Write};
use std::time::Instant;

/// Name of the root span each epoch runs under.
pub const EPOCH: &str = "epoch";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub epoch: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }
    }

    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            epoch: self.epoch,
        });
        let n = self.open.len();
        if n > 1 {
            self.spans[self.open[n - 1]].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("span ended without begin");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Records a child of the innermost open span from a duration the
    /// program measured itself, ending at the current instant.
    pub fn record_ending_now(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.epoch
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ch)| s.dur_ns() - covered(s.start_ns, s.end_ns, ch))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Total self time per span name.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// `1 − Σ self time of every non-root span ÷ Σ root-span wall time`: the
/// share of epoch wall time no layer span accounts for.
pub fn unaccounted_share(spans: &[Span]) -> f64 {
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let accounted: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_some())
        .map(|(_, t)| t)
        .sum();
    if wall == 0 {
        0.0
    } else {
        1.0 - accounted as f64 / wall as f64
    }
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
            epoch: 0,
        }
    }

    /// epoch [0,100) ⊃ a [10,50) ⊃ { b [20,30), c [25,40) }, d [60,90).
    fn nested() -> Vec<Span> {
        vec![
            span(EPOCH, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 25, 40, Some(1)),
            span("d", 60, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // a: 40 long, children cover [20,40) once despite overlapping.
        assert_eq!(self_times(&nested()), vec![30, 20, 10, 15, 30]);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = nested();
        let total: u64 = self_times(&spans).iter().sum();
        // Overlapping siblings b and c double-count [25,30).
        assert_eq!(total, 100 + 5);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(EPOCH, 0, 10, None), span("a", 5, 20, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn unaccounted_share_is_root_self_over_wall() {
        let spans = nested();
        // Non-root self: 20 + 10 + 15 + 30 = 75 of 100 → 0.25 unaccounted.
        assert!((unaccounted_share(&spans) - 0.25).abs() < 1e-12);
        let two_epochs = vec![
            span(EPOCH, 0, 100, None),
            span("a", 0, 90, Some(0)),
            span(EPOCH, 100, 200, None),
            span("a", 100, 200, Some(2)),
        ];
        assert!((unaccounted_share(&two_epochs) - 0.05).abs() < 1e-12);
        assert_eq!(unaccounted_share(&[]), 0.0);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut on = Tracer::new(true);
        on.begin(EPOCH);
        on.span("a", on_work);
        on.record_ending_now("q", 0);
        on.end();
        let parents: Vec<_> = on.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);

        let mut off = Tracer::new(false);
        off.begin(EPOCH);
        off.span("a", on_work);
        off.end();
        assert!(off.spans().is_empty());
    }

    fn on_work() -> u64 {
        std::hint::black_box(7)
    }

    #[test]
    fn self_by_name_sums_spans_of_one_name() {
        let spans = nested();
        let by = self_by_name(&spans);
        assert_eq!(by[0], (EPOCH, 30));
        assert_eq!(by.iter().find(|(n, _)| *n == "d").unwrap().1, 30);
    }
}
