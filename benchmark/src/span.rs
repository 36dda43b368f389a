//! Spans the benchmark records around its own calls into each layer.
//!
//! No probe lives inside any crate: a span is opened before a public call
//! and closed after it. Spans stay in memory and are written to
//! `benchmark/out/trace.<workload>.jsonl` when a traced run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Spans of one job share a run id.
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder, shared by reference with client threads.
pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a span holder panicked");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("a span holder panicked")[id].end_ns = end_ns;
    }

    /// Record a span around `f`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        run: u32,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span holder panicked")
    }
}

/// Scope `f` under `name` when a recorder is present, else just run it —
/// untraced runs record nothing.
pub fn scoped<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<usize>,
    run: u32,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match rec {
        Some(r) => r.scope(name, parent, run, |id| f(Some(id))),
        None => f(None),
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap each other (two client
/// threads under one batch span), so the covered part is the union of
/// their intervals clipped to the parent, not the sum of their durations.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Total self time per span name, descending — "where the traced run's
/// wall went, by layer boundary".
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut rows: Vec<(&'static str, u64, usize)> = Vec::new();
    for s in spans {
        let t = self_time_ns(spans, s.id);
        match rows.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += t;
                row.2 += 1;
            }
            None => rows.push((s.name, t, 1)),
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Write one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"run\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.name,
            s.run,
            s.start_ns,
            s.end_ns,
            self_time_ns(spans, s.id)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads: [10, 60) and [40, 90) cover [10, 90) = 80.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 90),
            // Nested inside span 1's interval: adds nothing.
            span(3, Some(0), 20, 30),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 50, 120),
            span(2, Some(0), 190, 300),
            span(3, Some(1), 100, 200),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let rec = Recorder::new();
        let inner_parent = rec.scope("outer", None, 7, |outer| {
            rec.scope("inner", Some(outer), 7, |_| {});
            outer
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(inner_parent));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_time_by_name(&spans);
        let total: u64 = by_name.iter().map(|r| r.1).sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }
}
