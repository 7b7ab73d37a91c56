//! In-memory spans and counters recorded around calls into the workspace's
//! public functions.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent); a layer's self time is its span time minus the time
//! its direct children cover. Spans stay in memory until the run ends. A
//! disabled tracer records nothing and costs one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `bmc.encode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a pass-through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        let end_ns = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = end_ns;
        out
    }

    /// Records one observation of a count (work done at a layer boundary).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts
                .borrow_mut()
                .entry(name)
                .or_default()
                .push(value);
        }
    }

    /// Appends another thread's recording; its parent links are rebased.
    pub fn absorb(&self, other: Recording) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len();
        spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
        let mut counts = self.counts.borrow_mut();
        for (name, values) in other.counts {
            counts.entry(name).or_default().extend(values);
        }
    }

    /// Everything recorded so far.
    pub fn finish(self) -> Recording {
        Recording {
            spans: self.spans.into_inner(),
            counts: self.counts.into_inner(),
        }
    }
}

/// The spans and counts of a finished tracer.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Observations per counter name.
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

/// Totals of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean span duration in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.calls as f64)
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (which run inside it, one after another, on the same thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Per-name totals, sorted by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // verdict [0,100) ⊃ new [10,40) ⊃ encode [15,35); verdict ⊃ localize [50,90).
        let spans = vec![
            span("verdict", 0, 100, None),
            span("new", 10, 40, Some(0)),
            span("encode", 15, 35, Some(1)),
            span("localize", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let t = totals(&spans);
        assert_eq!(
            t["verdict"],
            SpanTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(t["encode"].self_ns, 20);
    }

    #[test]
    fn recorded_spans_nest_through_the_open_stack() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("a", || tracer.span("a.inner", || ()));
            tracer.span("b", || ());
        });
        tracer.span("next", || ());
        let recording = tracer.finish();
        let parents: Vec<(&str, Option<usize>)> =
            recording.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None),
                ("a", Some(0)),
                ("a.inner", Some(1)),
                ("b", Some(0)),
                ("next", None)
            ]
        );
        let self_sum: u64 = self_times(&recording.spans).iter().sum();
        let roots: u64 = recording
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(self_sum, roots, "self times partition the root spans");
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_records_nothing() {
        let main = Tracer::new(true);
        main.span("x", || ());
        let worker = Tracer::new(true);
        worker.span("y", || worker.span("z", || ()));
        worker.count("calls", 2.0);
        main.absorb(worker.finish());
        let recording = main.finish();
        assert_eq!(recording.spans[2].parent, Some(1));
        assert_eq!(recording.counts["calls"], vec![2.0]);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        off.count("calls", 1.0);
        let empty = off.finish();
        assert!(empty.spans.is_empty() && empty.counts.is_empty());
    }
}
