//! In-memory span recorder for the traced replay.
//!
//! Each call into a layer gets one span: name, start, end, parent span
//! and request id. Spans stay in memory until the run ends. A layer's
//! self time is its span's duration minus the union of its children's
//! intervals, so overlapping children are not subtracted twice.
//! A disabled recorder reads no clock, which is how the replay measures
//! the recorder's own overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.stages.extract`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the call served.
    pub request: u64,
}

/// Collects spans; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        out
    }

    /// Adds a finished span directly.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Recorder::spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| {
                let covered = union_len(span.start_ns, span.end_ns, kids);
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *totals.entry(span.name).or_insert(0) += own;
        }
        totals
    }

    /// Total duration of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent","request"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}\n",
                span.name, span.start_ns, span.end_ns, parent, span.request
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut rec = Recorder::new(true);
        let root = rec.push(span("request", 0, 100, None));
        // Children overlap on [20, 30) and one pokes past the parent.
        rec.push(span("a", 10, 30, Some(root)));
        rec.push(span("b", 20, 50, Some(root)));
        rec.push(span("c", 90, 120, Some(root)));
        let selfs = rec.self_times_ns();
        // Union inside [0, 100): [10, 50) + [90, 100) = 50.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
    }

    #[test]
    fn nested_spans_record_parents_and_names_aggregate() {
        let mut rec = Recorder::new(true);
        let value = rec.span("request", 7, |rec| {
            let a = rec.span("parse", 7, |_| 2);
            let b = rec.span("parse", 7, |rec| rec.span("inner", 7, |_| 3));
            a + b
        });
        assert_eq!(value, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let by_name = rec.self_time_by_name();
        assert_eq!(by_name.len(), 3);
        let total: u64 = by_name.values().sum();
        assert_eq!(
            total,
            rec.total_ns("request"),
            "self times partition the root"
        );
        assert_eq!(rec.to_json_lines().lines().count(), 4);
    }

    #[test]
    fn a_disabled_recorder_runs_the_calls_without_spans() {
        let mut rec = Recorder::new(false);
        let value = rec.span("request", 1, |rec| rec.span("inner", 1, |_| 42));
        assert_eq!(value, 42);
        assert!(rec.spans().is_empty());
    }
}
