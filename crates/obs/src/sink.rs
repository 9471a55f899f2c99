//! Trace sinks: newline-delimited JSON and a human-readable span tree.
//!
//! The NDJSON stream is schema-versioned ([`TRACE_SCHEMA_VERSION`]) and
//! comes in two flavours:
//!
//! * **full** ([`to_ndjson`]) — spans with `start_us`/`elapsed_us`, all
//!   counters, gauges, and histograms;
//! * **canonical** ([`to_ndjson_canonical`]) — the deterministic view:
//!   span timing fields and all gauges (which carry wall-clock-derived
//!   values) are dropped, so two runs of the same design with the same
//!   configuration emit byte-identical streams regardless of the worker
//!   count. Golden tests and CI gates compare this form.
//!
//! Line grammar (one JSON object per line, `type` first):
//!
//! ```text
//! {"type":"meta","schema":1,"tool":"soccar-obs","canonical":false}
//! {"type":"span","id":0,"parent":null,"name":"pipeline.analyze","fields":{...},"start_us":12,"elapsed_us":3456}
//! {"type":"counter","name":"smt.queries","value":42}
//! {"type":"gauge","name":"exec.extract.utilization","value":0.87}
//! {"type":"histogram","name":"smt.sat_clauses","count":9,"sum":1234,"buckets":[[255,2],[511,7]]}
//! ```

use std::fmt::Write as _;

use crate::json::Writer;
use crate::recorder::{Histogram, TraceSnapshot, Value};

/// Version of the NDJSON trace schema. Bump on any breaking change to the
/// line grammar; additive fields do not bump it (see docs/OBSERVABILITY.md
/// for the policy).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

fn write_value(w: &mut Writer<'_>, v: &Value) {
    match v {
        Value::U64(n) => w.u64(*n),
        Value::I64(n) => w.i64(*n),
        Value::F64(x) => w.f64(*x),
        Value::Str(s) => w.string(s),
        Value::Bool(b) => w.bool(*b),
    };
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn render(snap: &TraceSnapshot, canonical: bool) -> String {
    let mut out = String::new();
    // Each line is one top-level object; the writer separates them with
    // newlines.
    let mut w = Writer::compact(&mut out);
    w.begin_object().key("type").string("meta");
    w.key("schema").u64(TRACE_SCHEMA_VERSION.into());
    w.key("tool").string("soccar-obs");
    w.key("canonical").bool(canonical).end_object();
    for (id, span) in snap.spans.iter().enumerate() {
        w.begin_object().key("type").string("span");
        w.key("id").u64(id as u64).key("parent");
        match span.parent {
            Some(p) => w.u64(p as u64),
            None => w.null(),
        };
        w.key("name").string(&span.name);
        w.key("fields").begin_object();
        for (k, v) in &span.fields {
            write_value(w.key(k), v);
        }
        w.end_object();
        if !canonical {
            w.key("start_us").u64(micros(span.start));
            match span.elapsed {
                Some(e) => w.key("elapsed_us").u64(micros(e)),
                None => w.key("elapsed_us").null(),
            };
        }
        w.end_object();
    }
    for (name, value) in &snap.counters {
        w.begin_object().key("type").string("counter");
        w.key("name").string(name);
        w.key("value").u64(*value).end_object();
    }
    if !canonical {
        for (name, value) in &snap.gauges {
            w.begin_object().key("type").string("gauge");
            w.key("name").string(name);
            w.key("value").f64(*value).end_object();
        }
    }
    for (name, h) in &snap.histograms {
        w.begin_object().key("type").string("histogram");
        w.key("name").string(name);
        w.key("count").u64(h.count);
        w.key("sum").u64(h.sum);
        w.key("buckets").begin_array();
        for (bits, count) in &h.buckets {
            let upper = Histogram::bucket_upper(*bits);
            w.begin_array().u64(upper).u64(*count).end_array();
        }
        w.end_array().end_object();
    }
    out.push('\n');
    out
}

/// Serializes a snapshot as full NDJSON (timing included).
#[must_use]
pub fn to_ndjson(snap: &TraceSnapshot) -> String {
    render(snap, false)
}

/// Serializes a snapshot as canonical NDJSON: no span timing, no gauges.
/// Byte-identical across runs and worker counts for the same design and
/// configuration.
#[must_use]
pub fn to_ndjson_canonical(snap: &TraceSnapshot) -> String {
    render(snap, true)
}

/// Renders the span tree with durations and fields, for `--verbose`,
/// followed by the run's counters and histogram summaries:
///
/// ```text
/// pipeline.analyze  128.4ms
///   rtl.parse  3.1ms  modules=12
///   concolic.round  9.8ms  round=1
///     concolic.simulate  6.1ms
///     concolic.plan  3.6ms
/// counters:
///   smt.queries  42
/// histograms:
///   smt.propagations  count=42 sum=9001
/// ```
#[must_use]
pub fn render_tree(snap: &TraceSnapshot) -> String {
    let mut depth = vec![0usize; snap.spans.len()];
    for (i, span) in snap.spans.iter().enumerate() {
        depth[i] = span.parent.map_or(0, |p| depth[p] + 1);
    }
    let mut out = String::new();
    for (i, span) in snap.spans.iter().enumerate() {
        for _ in 0..depth[i] {
            out.push_str("  ");
        }
        out.push_str(&span.name);
        match span.elapsed {
            Some(e) => {
                let _ = write!(out, "  {:.1}ms", e.as_secs_f64() * 1e3);
            }
            None => out.push_str("  (open)"),
        }
        for (k, v) in &span.fields {
            out.push_str("  ");
            out.push_str(k);
            out.push('=');
            match v {
                Value::Str(s) => out.push_str(s),
                other => write_value(&mut Writer::compact(&mut out), other),
            }
        }
        out.push('\n');
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name}  {value}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.histograms {
            let _ = writeln!(out, "  {name}  count={} sum={}", h.count, h.sum);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> TraceSnapshot {
        let rec = Recorder::enabled();
        let mut outer = rec.span("pipeline.analyze");
        outer.record("top", "soc");
        let inner = rec.span("rtl.parse");
        rec.counter_add("rtl.modules", 12);
        rec.gauge_set("exec.util", 0.5);
        rec.histogram_record("smt.clauses", 300);
        rec.histogram_record("smt.clauses", 5);
        inner.close();
        outer.close();
        rec.snapshot()
    }

    #[test]
    fn ndjson_lines_have_type_first_and_meta_header() {
        let text = to_ndjson(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\",\"schema\":1,"));
        assert!(lines.iter().all(|l| l.starts_with("{\"type\":\"")));
        assert!(lines.iter().all(|l| l.ends_with('}')));
        assert!(text.contains("\"elapsed_us\":"));
        assert!(text.contains("\"type\":\"gauge\""));
        assert!(text.contains("\"buckets\":[[7,1],[511,1]]"));
    }

    #[test]
    fn canonical_drops_timing_and_gauges() {
        let text = to_ndjson_canonical(&sample());
        assert!(!text.contains("elapsed_us"));
        assert!(!text.contains("start_us"));
        assert!(!text.contains("\"type\":\"gauge\""));
        assert!(text.contains("\"canonical\":true"));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
    }

    #[test]
    fn tree_indents_children() {
        let tree = render_tree(&sample());
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("pipeline.analyze  "));
        assert!(lines[0].contains("top=soc"));
        assert!(lines[1].starts_with("  rtl.parse  "));
        assert!(tree.contains("counters:\n  rtl.modules  12\n"));
        assert!(tree.contains("histograms:\n  smt.clauses  count=2 sum=305\n"));
    }
}
