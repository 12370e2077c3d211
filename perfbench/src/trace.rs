//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span names the crate (layer) and the public call, its start and end on
//! a monotonic clock, the span that was open when it began (its parent), the
//! operation it served and the phase it ran in. Spans stay in memory and are
//! written once, when the run ends. A disabled tracer records nothing and
//! costs one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The crate the call enters.
    pub layer: &'static str,
    /// The public function called.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (query, replay, probe) the span belongs to.
    pub op: u64,
    /// `"pass"` for measured passes, `"probe"` for one-off layer probes.
    pub phase: &'static str,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-span self time: the span's duration minus the part of it covered by
/// its direct children. Calls on one thread nest, so children never overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, child)| span.duration_ns().saturating_sub(child))
        .collect()
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
    phase: Cell<&'static str>,
}

/// Closes a span when dropped, so a call that panics still ends its span.
struct Close<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index].end_ns = end;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
            phase: Cell::new("pass"),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Sets the phase later spans are filed under.
    pub fn set_phase(&self, phase: &'static str) {
        self.phase.set(phase);
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name: name.into(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
                phase: self.phase.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let _close = Close {
            tracer: self,
            index,
        };
        f()
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total self time (ns) and call count per layer over the spans of
    /// `phase`.
    pub fn layer_totals(&self, phase: &str) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.borrow();
        let mut totals = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times_ns(&spans)) {
            if span.phase == phase {
                let entry = totals.entry(span.layer).or_insert((0, 0));
                entry.0 += own;
                entry.1 += 1;
            }
        }
        totals
    }

    /// Durations (ns) of the spans whose name is `name` or starts with
    /// `name/`, in the given phase.
    pub fn durations_ns(&self, phase: &str, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.phase == phase)
            .filter(|s| {
                s.name == name
                    || s.name
                        .strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with('/'))
            })
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"layer\": {:?}, \"name\": {:?}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"phase\": {:?}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.op, s.phase
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "l",
            name: "n".into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            phase: "pass",
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
            span(50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's interval");
    }

    #[test]
    fn nested_calls_record_parents_and_layers() {
        let tracer = Tracer::new(true);
        tracer.next_op();
        let v = tracer.span("outer", "f", || tracer.span("inner", "g/x", || 7));
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tracer.durations_ns("pass", "g").len(), 1);
        assert!(tracer.durations_ns("pass", "f/").is_empty());
        let totals = tracer.layer_totals("pass");
        assert_eq!(totals["outer"].1, 1);
        assert_eq!(totals["inner"].1, 1);
    }

    #[test]
    fn a_panicking_call_still_closes_its_span() {
        let tracer = Tracer::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.span("l", "boom", || panic!("expected"))
        }));
        assert!(caught.is_err());
        tracer.span("l", "after", || ());
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, None, "the failed span must not stay open");
        assert!(spans[0].end_ns > 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("l", "n", || 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
