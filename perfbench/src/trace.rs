//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a workspace crate's public API; nothing inside the program
//! is instrumented. Spans live in memory until the run ends and are then
//! written out as JSON lines. Recording is per thread and off unless
//! [`start`] was called on that thread, so the untraced run pays one
//! thread-local check per call at most.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Workspace crate the call goes into (`vpu`, `kernels`, ...).
    pub layer: &'static str,
    /// The call, e.g. `vpu.decode`.
    pub name: &'static str,
    /// Identifier shared by the spans of one request or cell.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since recording started.
    pub start_s: f64,
    /// Seconds since recording started.
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread (discarding any earlier ones).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Tags the spans recorded from now on with request `id`.
pub fn set_request(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

/// Runs `f` inside a span named `name` in `layer` (a plain call when
/// this thread is not recording).
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start_s = rec.t0.elapsed().as_secs_f64();
        rec.spans.push(Span {
            layer,
            name,
            request: rec.request,
            parent: rec.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recorder outlives its open spans");
            rec.spans[idx].end_s = rec.t0.elapsed().as_secs_f64();
            rec.open.pop();
        });
    }
    out
}

/// Stops recording on this thread and returns every span recorded.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (spans from
/// several threads under one parent); the covered part is the length of
/// the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.duration_s() - covered(kids, s.start_s, s.end_s)).max(0.0))
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Sum of self times and number of spans per key (`key` picks the
/// layer or the call name), in first-seen order.
pub fn totals(
    spans: &[Span],
    self_s: &[f64],
    key: impl Fn(&Span) -> &'static str,
) -> Vec<(&'static str, f64, u64)> {
    let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_s) {
        let k = key(s);
        match out.iter_mut().find(|(name, ..)| *name == k) {
            Some(entry) => {
                entry.1 += t;
                entry.2 += 1;
            }
            None => out.push((k, *t, 1)),
        }
    }
    out
}

/// One JSON object per span, one per line.
pub fn to_json_lines(spans: &[Span], self_s: &[f64]) -> String {
    let mut out = String::new();
    for (i, (s, t)) in spans.iter().zip(self_s).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{t}}}",
            s.request, s.layer, s.name, s.start_s, s.end_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            layer: "test",
            name,
            request: 0,
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 4.0, 5.0),
            span("a.inner", Some(1), 1.5, 2.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![7.0, 1.5, 1.0, 0.5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children from different threads overlap on [3, 4]: the
        // parent's covered time is the union [2, 6], not 2 + 3.
        let spans = [
            span("root", None, 0.0, 10.0),
            span("x", Some(0), 2.0, 4.0),
            span("y", Some(0), 3.0, 6.0),
        ];
        assert_eq!(self_times(&spans)[0], 6.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", None, 1.0, 5.0),
            span("x", Some(0), 0.0, 2.0),
            span("y", Some(0), 4.0, 9.0),
            span("z", Some(0), 1.5, 1.8),
        ];
        // Covered: [1, 2] and [4, 5]; z lies inside [1, 2].
        assert!((self_times(&spans)[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        start();
        set_request(7);
        let v = super::span("core", "outer", || super::span("vpu", "inner", || 41) + 1);
        assert_eq!(v, 42);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_s >= s.start_s));
        let t = self_times(&spans);
        let by_layer = totals(&spans, &t, |s| s.layer);
        assert_eq!(by_layer.len(), 2);
        assert!((t[0] + t[1] - spans[0].duration_s()).abs() < 1e-9);
    }

    #[test]
    fn span_is_a_plain_call_when_not_recording() {
        assert!(finish().is_empty());
        assert_eq!(super::span("core", "x", || 3), 3);
        assert!(finish().is_empty());
    }
}
