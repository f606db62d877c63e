//! Spans around the calls into each layer, kept in memory and written
//! out when the traced run ends.
//!
//! The program under test is not instrumented: spans are recorded by
//! the harness around its own calls into each layer's public
//! functions. A span carries its name, its layer, start and end, the
//! span that caused it, and the document (by spec digest) and cell it
//! worked on. Calls too short and too many to keep one by one — a
//! policy forward per monitor interval, a store read per cell — are
//! folded into one *aggregate* span per parent, which keeps their
//! count and their summed duration.
//!
//! A span's self time is its busy time minus the busy time of its
//! children; a layer's self time is the sum over its spans. With the
//! tracer disabled [`Tracer::span`] and [`Tracer::leaf`] reduce to
//! calling the closure, without a clock read, so the same replay code
//! gives the untraced total that the tracing overhead is measured
//! against.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer of the harness's own glue: time under it is *not*
/// attributed to the program.
pub const HARNESS: &str = "harness";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items handled: the calls folded into an aggregate, or the
    /// items (cells, documents) the one call of a plain span covered.
    pub units: u64,
    /// Time inside the call(s): `end - start` for a plain span, the
    /// sum over the folded calls for an aggregate.
    pub busy_ns: u64,
    /// Index into [`Tracer::digests`] of the document worked on.
    pub doc: Option<usize>,
    pub cell: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// The open spans, innermost last, each with the aggregates
    /// recorded under it so far as `(name, span id)`.
    stack: Vec<(usize, Vec<(&'static str, usize)>)>,
    /// Spec digests of the documents seen, indexed by [`Span::doc`].
    pub digests: Vec<String>,
    doc: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            digests: Vec::new(),
            doc: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to the document with this
    /// spec digest.
    pub fn set_doc(&mut self, digest: &str) {
        if !self.enabled {
            return;
        }
        let known = self.digests.iter().position(|d| d == digest);
        self.doc = Some(known.unwrap_or_else(|| {
            self.digests.push(digest.to_string());
            self.digests.len() - 1
        }));
    }

    /// Runs `f` inside a new span, child of the innermost open one,
    /// working on one item: cell number `cell` if given.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        cell: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_over(name, layer, 1, cell, f)
    }

    /// [`Tracer::span`] for a call that handles `units` items at once.
    pub fn span_over<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        units: u64,
        cell: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().map(|(id, _)| *id),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            units,
            busy_ns: 0,
            doc: self.doc,
            cell,
        });
        self.stack.push((id, Vec::new()));
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].busy_ns = end_ns - start_ns;
        out
    }

    /// Runs `f` as one call of the aggregate span `name` under the
    /// innermost open span, creating the aggregate on its first call.
    /// `f` records no spans of its own.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn leaf<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (parent, aggregates) = self
            .stack
            .last()
            .expect("an aggregate is recorded inside a span");
        let parent = *parent;
        let found = aggregates.iter().find(|(n, _)| *n == name).map(|(_, i)| *i);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        match found {
            Some(i) => {
                let s = &mut self.spans[i];
                s.end_ns = end_ns;
                s.units += 1;
                s.busy_ns += end_ns - start_ns;
            }
            None => {
                let id = self.spans.len();
                self.spans.push(Span {
                    parent: Some(parent),
                    name,
                    layer,
                    start_ns,
                    end_ns,
                    units: 1,
                    busy_ns: end_ns - start_ns,
                    doc: self.doc,
                    cell: None,
                });
                self.stack
                    .last_mut()
                    .expect("checked above")
                    .1
                    .push((name, id));
            }
        }
        out
    }

    /// Self time of every span: its busy time minus its children's.
    /// A child cannot be busy for longer than its parent ran, so self
    /// times are never negative; the subtraction saturates only to
    /// absorb clock granularity.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// Self time summed by layer, nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by_layer.entry(s.layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Busy nanoseconds and work items of all spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(busy, units), s| {
                (busy + s.busy_ns, units + s.units)
            })
    }

    /// Share of the root spans' time that lies in spans of a named
    /// layer (everything but [`HARNESS`]).
    pub fn attributed_share(&self) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.busy_ns)
            .sum();
        let harness = self.layer_self_ns().get(HARNESS).copied().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            1.0 - harness as f64 / total as f64
        }
    }

    /// The trace as a JSON document (see benchmark/README.md).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(id, (s, own))| {
                let digest = s.doc.map(|d| Value::Str(self.digests[d].clone()));
                crate::object(vec![
                    ("id", Value::U64(id as u64)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("name", Value::Str(s.name.to_string())),
                    ("layer", Value::Str(s.layer.to_string())),
                    ("start_ns", Value::U64(s.start_ns)),
                    ("end_ns", Value::U64(s.end_ns)),
                    ("units", Value::U64(s.units)),
                    ("busy_ns", Value::U64(s.busy_ns)),
                    ("self_ns", Value::U64(own)),
                    ("spec_digest", digest.unwrap_or(Value::Null)),
                    ("cell", opt(s.cell)),
                ])
            })
            .collect();
        let doc = crate::object(vec![
            ("workload", Value::Str(workload.to_string())),
            ("seed", seed.to_value()),
            ("spans", Value::Arr(spans)),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            parent,
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            units: 1,
            busy_ns: end - start,
            doc: None,
            cell: None,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(None, HARNESS, 0, 100),
            span(Some(0), "a", 10, 60),
            span(Some(1), "b", 20, 30),
            span(Some(1), "b", 30, 45),
            span(Some(0), "a", 60, 90),
        ];
        assert_eq!(t.self_ns(), vec![20, 25, 10, 15, 30]);
        let layers = t.layer_self_ns();
        assert_eq!(layers[HARNESS], 20);
        assert_eq!(layers["a"], 55);
        assert_eq!(layers["b"], 25);
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert!((t.attributed_share() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn an_aggregate_counts_busy_time_not_its_extent() {
        let mut t = Tracer::new(true);
        t.spans = vec![span(None, "a", 0, 100)];
        // Two folded calls of 10 ns each, 50 ns apart.
        t.spans.push(Span {
            units: 2,
            busy_ns: 20,
            ..span(Some(0), "b", 10, 80)
        });
        assert_eq!(t.self_ns(), vec![80, 20]);
    }

    #[test]
    fn recorded_spans_nest_and_never_go_negative() {
        let mut t = Tracer::new(true);
        t.set_doc("d1");
        t.span("root", HARNESS, None, |t| {
            for cell in 0..3 {
                t.span("cell", "a", Some(cell), |t| {
                    for _ in 0..5 {
                        t.leaf("step", "b", || std::hint::black_box(1 + 1));
                    }
                    t.leaf("other", "c", || ());
                });
            }
        });
        // root + 3 × (cell + 2 aggregates)
        assert_eq!(t.spans.len(), 10);
        assert_eq!(t.total("step"), (t.total("step").0, 15));
        for (s, own) in t.spans.iter().zip(t.self_ns()) {
            assert!(own <= s.busy_ns);
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(t.spans[p].start_ns <= s.start_ns && s.end_ns <= t.spans[p].end_ns);
            }
        }
        let cells: Vec<_> = t.spans.iter().filter_map(|s| s.cell).collect();
        assert_eq!(cells, vec![0, 1, 2]);
        assert!(t.to_json("w", 1).contains("\"spec_digest\":\"d1\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("root", HARNESS, None, |t| t.leaf("x", "a", || 7));
        assert_eq!(t.leaf("outside any span", "a", || 8), 8);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
