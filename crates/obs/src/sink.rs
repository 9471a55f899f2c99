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

use crate::recorder::{Histogram, TraceSnapshot, Value};

/// Version of the NDJSON trace schema. Bump on any breaking change to the
/// line grammar; additive fields do not bump it (see docs/OBSERVABILITY.md
/// for the policy).
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Appends `s` as a JSON string literal with escaping.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn push_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => push_json_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

fn push_fields(out: &mut String, fields: &[(String, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_value(out, v);
    }
    out.push('}');
}

fn push_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str("{\"type\":\"histogram\",\"name\":");
    push_json_str(out, name);
    let _ = write!(
        out,
        ",\"count\":{},\"sum\":{},\"buckets\":[",
        h.count, h.sum
    );
    for (i, (bits, count)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{count}]", Histogram::bucket_upper(*bits));
    }
    out.push_str("]}\n");
}

fn render(snap: &TraceSnapshot, canonical: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"schema\":{TRACE_SCHEMA_VERSION},\"tool\":\"soccar-obs\",\"canonical\":{canonical}}}"
    );
    for (id, span) in snap.spans.iter().enumerate() {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{id},\"parent\":");
        match span.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        push_json_str(&mut out, &span.name);
        out.push_str(",\"fields\":");
        push_fields(&mut out, &span.fields);
        if !canonical {
            let _ = write!(out, ",\"start_us\":{}", span.start.as_micros());
            out.push_str(",\"elapsed_us\":");
            match span.elapsed {
                Some(e) => {
                    let _ = write!(out, "{}", e.as_micros());
                }
                None => out.push_str("null"),
            }
        }
        out.push_str("}\n");
    }
    for (name, value) in &snap.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        push_json_str(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    if !canonical {
        for (name, value) in &snap.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            push_json_value(&mut out, &Value::F64(*value));
            out.push_str("}\n");
        }
    }
    for (name, h) in &snap.histograms {
        push_histogram(&mut out, name, h);
    }
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
                other => push_json_value(&mut out, other),
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

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\n\u{1}");
        assert_eq!(s, "\"a\\\"b\\n\\u0001\"");
    }
}
