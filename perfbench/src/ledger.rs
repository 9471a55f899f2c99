//! The traced run's span ledger: spans the benchmark records around its
//! calls into each crate, kept in memory and written out at the end.
//!
//! A span carries a name, the crate (layer) it times, the operation it
//! belongs to, its parent span, and start/end offsets from the ledger's
//! creation. A span's *self time* is its duration minus the part of its
//! interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use soccar_obs::TraceSnapshot;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &str, layer: &'static str, op: u64) -> usize {
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            op,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes span `idx` (and any span left open inside it), returning
    /// its duration.
    pub fn close(&mut self, idx: usize) -> Duration {
        let end = self.origin.elapsed();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == idx {
                break;
            }
        }
        self.spans[idx].duration()
    }

    /// Times `f` under a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, layer, op);
        let out = f();
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (by the program's own recorder
    /// or stage report) as a child of the innermost open span.
    pub fn insert(
        &mut self,
        name: &str,
        layer: &'static str,
        op: u64,
        start: Instant,
        elapsed: Duration,
    ) {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name: name.to_owned(),
            layer,
            op,
            parent: self.stack.last().copied(),
            start,
            end: start + elapsed,
        });
    }

    /// Copies the spans of a `soccar_obs` recorder snapshot into the
    /// ledger, keeping their tree: the recorder's root spans become
    /// children of `parent`. `origin` is when the recorder was created
    /// (its span offsets count from there), and `layer` names the crate a
    /// span times. Spans still open in the snapshot are left out.
    pub fn import(
        &mut self,
        snap: &TraceSnapshot,
        origin: Instant,
        op: u64,
        parent: Option<usize>,
        layer: impl Fn(&str) -> &'static str,
    ) {
        let base = origin.saturating_duration_since(self.origin);
        let mut index: Vec<Option<usize>> = vec![None; snap.spans.len()];
        for (i, span) in snap.spans.iter().enumerate() {
            let Some(elapsed) = span.elapsed else {
                continue;
            };
            let start = base + span.start;
            index[i] = Some(self.spans.len());
            self.spans.push(Span {
                name: span.name.clone(),
                layer: layer(&span.name),
                op,
                parent: span.parent.map_or(parent, |p| index[p].or(parent)),
                start,
                end: start + elapsed,
            });
        }
    }

    /// Self time of every span: its interval minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = span.start;
                for &(s, e) in kids.iter() {
                    let s = s.max(cursor);
                    let e = e.min(span.end);
                    if e > s {
                        covered += e - s;
                        cursor = e;
                    }
                }
                span.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// For each operation that has spans named in `names`, their summed
    /// duration in ms.
    pub fn per_op_ms(&self, names: &[&str]) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
        {
            *per_op.entry(span.op).or_default() += span.duration().as_secs_f64() * 1e3;
        }
        per_op.into_values().collect()
    }

    /// The root span (operation) each span descends from.
    fn roots(&self) -> Vec<usize> {
        let mut roots: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            roots.push(span.parent.map_or(i, |p| roots[p]));
        }
        roots
    }

    /// The per-layer table: for each kind of operation (root span name),
    /// the self time per operation of every (layer, span) under it and
    /// its share of the operation's wall time.
    pub fn table(&self) -> String {
        let selfs = self.self_times();
        let roots = self.roots();
        // root name -> (ops, total ns, (layer, span) -> self ns)
        type Rows = BTreeMap<(&'static str, String), u128>;
        let mut classes: BTreeMap<&str, (u64, u128, Rows)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = &self.spans[roots[i]];
            let entry = classes.entry(root.name.as_str()).or_default();
            if roots[i] == i {
                entry.0 += 1;
                entry.1 += span.duration().as_nanos();
            }
            *entry.2.entry((span.layer, span.name.clone())).or_default() += selfs[i].as_nanos();
        }
        let mut out = String::new();
        for (class, (ops, total, rows)) in &classes {
            let per_op = |ns: u128| ns as f64 / 1e6 / (*ops).max(1) as f64;
            let _ = writeln!(out, "{class}: {ops} ops, {:.3} ms/op", per_op(*total));
            let mut layers: BTreeMap<&str, u128> = BTreeMap::new();
            for ((layer, _), ns) in rows {
                *layers.entry(layer).or_default() += ns;
            }
            let share = |ns: u128| 100.0 * ns as f64 / (*total).max(1) as f64;
            let _ = writeln!(
                out,
                "  {:<18} {:<28} {:>12} {:>7}",
                "layer", "span", "self ms/op", "share"
            );
            let mut sorted: Vec<_> = layers.into_iter().collect();
            sorted.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
            for (layer, ns) in sorted {
                let _ = writeln!(
                    out,
                    "  {layer:<18} {:<28} {:>12.3} {:>6.1}%",
                    "(all)",
                    per_op(ns),
                    share(ns)
                );
                for ((l, name), ns) in rows {
                    if *l == layer {
                        let _ = writeln!(
                            out,
                            "  {:<18} {name:<28} {:>12.3} {:>6.1}%",
                            "",
                            per_op(*ns),
                            share(*ns)
                        );
                    }
                }
            }
        }
        out
    }

    /// The span file: one JSON object per line.
    pub fn to_ndjson(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                span.name,
                span.layer,
                span.op,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                selfs[i].as_secs_f64() * 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut ledger = Ledger::new();
        let t0 = ledger.origin;
        ledger.stack.clear();
        let root = ledger.open("op", "a", 0);
        ledger.insert("x", "b", 0, t0, Duration::from_millis(3));
        ledger.insert(
            "y",
            "b",
            0,
            t0 + Duration::from_millis(2),
            Duration::from_millis(3),
        );
        ledger.spans[root].start = Duration::ZERO;
        ledger.spans[root].end = Duration::from_millis(10);
        ledger.stack.clear();
        let selfs = ledger.self_times();
        // Children cover [0, 5) once despite overlapping.
        assert_eq!(selfs[root], Duration::from_millis(5));
        assert_eq!(selfs[1], Duration::from_millis(3));
        assert!(ledger.table().contains("op: 1 ops, 10.000 ms/op"));
    }
}
