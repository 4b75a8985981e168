//! Spans recorded from outside the program, around calls into public
//! functions of each layer. Kept in memory, written out at the end.
//!
//! A span is `{name, start, end, parent, op}`. The top-level span of a
//! traced cycle is named [`CYCLE`]; per-layer times are reported as the
//! median over cycles of the per-cycle sum, so they do not depend on how
//! many cycles the time budget allowed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one traced cycle (`op` = cycle index).
pub const CYCLE: &str = "cycle";

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.read`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The operation (query, request, column) the span belongs to.
    pub op: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// In-memory span recorder. With tracing off every call is a no-op, so
/// the control cycles of a traced run execute the same code.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder, initially on or off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off (between cycles only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between cycles");
        self.enabled = enabled;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time one call as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    /// Record a span whose start and end were observed by the caller
    /// (concurrent requests of one round overlap, so they cannot nest on
    /// the stack). The parent is the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u32, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-cycle sums of the durations (seconds) of spans named `name`,
    /// in cycle order. A cycle without such a span contributes 0.
    pub fn per_cycle(&self, name: &str) -> Vec<f64> {
        self.per_root(CYCLE, name)
    }

    /// [`Tracer::per_cycle`] under root spans named `root`: a probe that
    /// is not part of the workload's cycle keeps its own roots, so it
    /// neither counts as a cycle nor lengthens one.
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        self.per_root_where(root, name, |_, s| s.dur() as f64 / 1e9)
    }

    /// Per-cycle sums of the *self* times (seconds) of spans named `name`.
    pub fn per_cycle_self(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.per_root_where(CYCLE, name, |i, _| selfs[i] as f64 / 1e9)
    }

    /// Per-cycle counts of spans named `name`.
    pub fn per_cycle_count(&self, name: &str) -> Vec<f64> {
        self.per_root_where(CYCLE, name, |_, _| 1.0)
    }

    fn per_root_where(
        &self,
        root: &str,
        name: &str,
        value: impl Fn(usize, &Span) -> f64,
    ) -> Vec<f64> {
        let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                sums.entry(i as u32).or_insert(0.0);
            }
            if s.name == name {
                let top = self.root_of(i);
                if self.spans[top].name == root {
                    *sums.entry(top as u32).or_insert(0.0) += value(i, s);
                }
            }
        }
        sums.into_values().collect()
    }

    /// The parentless span `i` sits under (itself, if it has no parent).
    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p as usize;
        }
        i
    }

    /// Total self time (seconds) per span name, largest first.
    pub fn self_time_table(&self) -> Vec<(&'static str, f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += ns;
            e.1 += 1;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (ns, n))| (name, ns as f64 / 1e9, n))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The spans as a JSON document, one span per line.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(header);
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Self time of every span in nanoseconds: its duration minus the part
/// of its interval that its child spans cover. Children are clipped to
/// the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
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
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_nested_children() {
        // cycle [0,100] > query [10,90] > read [20,40], parse [40,70]
        let spans = vec![
            span(CYCLE, 0, 100, None),
            span("query", 10, 90, Some(0)),
            span("read", 20, 40, Some(1)),
            span("parse", 40, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
    }

    #[test]
    fn self_time_overlapping_and_overhanging_children() {
        // Two overlapping requests [10,60] and [30,80] cover [10,80] once;
        // a child that overhangs the parent's end is clipped to it.
        let spans = vec![
            span("round", 0, 100, None),
            span("request", 10, 60, Some(0)),
            span("request", 30, 80, Some(0)),
            span("request", 90, 130, Some(0)),
            span("request", 40, 50, Some(0)), // fully inside another child
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn children_plus_self_equal_the_parent_when_sequential() {
        let mut t = Tracer::new(true);
        let c = t.begin(CYCLE, 0);
        let q = t.begin("query", 7);
        t.leaf("read", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("parse", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(q);
        t.end(c);
        let total = t.per_cycle("query")[0];
        let parts = t.per_cycle("read")[0] + t.per_cycle("parse")[0] + t.per_cycle_self("query")[0];
        assert!((total - parts).abs() < 1e-9, "{total} vs {parts}");
        assert_eq!(t.per_cycle_count("read"), vec![1.0]);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].op, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_cycles_are_separate() {
        let mut t = Tracer::new(false);
        let c = t.begin(CYCLE, 0);
        t.leaf("read", 0, || ());
        t.record("request", 0, 1, 2);
        t.end(c);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        for cycle in 0..2 {
            let c = t.begin(CYCLE, cycle);
            if cycle == 1 {
                t.leaf("read", 0, || ());
            }
            t.end(c);
        }
        assert_eq!(t.per_cycle_count("read"), vec![0.0, 1.0]);
        assert!(t.to_json("").contains("\"parent\": null"));
    }
}
