//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions (nothing inside the program is instrumented). A span's name
//! is `<layer>.<what>`; its layer is the part before the first dot. Spans
//! are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Spans of one unit of work (a pass, an interval, a job) share it.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Token for an open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans while on; every call is a no-op while off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts recording iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off between units of work (the traced run
    /// alternates traced and untraced units to measure the overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.stack.last().map(|&p| p as u32),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, group);
        let r = f();
        self.end(open);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of the spans called `name`, per group.
    pub fn totals_by_group(&self, name: &str) -> Vec<f64> {
        let mut by_group: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_group.entry(s.group).or_insert(0) += s.duration_ns();
        }
        by_group.into_values().map(|ns| ns as f64).collect()
    }

    /// Self time per layer: each span's duration minus the part its
    /// direct children cover, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Total duration of the root spans (the traced wall time).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as a JSON array of `{name, group, parent, start_ns,
    /// end_ns}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"group\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, parent, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench.pass", None, 0, 100),
            span("sim.run", Some(0), 10, 70),
            span("sched.retarget", Some(1), 20, 30),
            span("sim.new", Some(0), 70, 80),
        ];
        let by_layer = t.self_ns_by_layer();
        assert_eq!(by_layer["bench"], 100 - 60 - 10);
        assert_eq!(by_layer["sim"], (60 - 10) + 10);
        assert_eq!(by_layer["sched"], 10);
        assert_eq!(t.root_ns(), 100);
    }

    #[test]
    fn off_records_nothing_and_nesting_links_parents() {
        let mut t = Tracer::new(false);
        let o = t.begin("bench.x", 1);
        t.end(o);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let outer = t.begin("bench.outer", 7);
        t.span("sim.inner", 7, || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t
            .to_json()
            .contains("\"name\":\"sim.inner\",\"group\":7,\"parent\":0"));
    }
}
