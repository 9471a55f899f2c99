//! # soccar-obs
//!
//! The observability substrate of the SoCCAR workspace: structured
//! tracing (hierarchical [`Recorder::span`]s with monotonic timing) and
//! metrics (counters, gauges, power-of-two histograms) behind one
//! thread-safe, cheaply clonable [`Recorder`] handle, with three sinks:
//!
//! * a human-readable span tree ([`render_tree`]) for `--verbose`;
//! * schema-versioned NDJSON ([`to_ndjson`] / [`to_ndjson_canonical`])
//!   for `soccar --trace-out`;
//! * the canonical `BENCH_<soc>.json` counter record ([`mod@bench`]) that
//!   the CI `bench-smoke` job gates field by field against checked-in
//!   baselines.
//!
//! It also holds the workspace's one JSON layer ([`mod@json`]): the
//! string escaper, the streaming [`json::Writer`] every JSON producer
//! uses, and the depth-limited [`json::Json`] reader, and the byte tests
//! ([`mod@words`]) that let the JSON reader and the frontend's line table
//! scan a request eight bytes at a time.
//!
//! The crate is dependency-free so every other crate — `soccar-rtl`,
//! `soccar-cfg`, `soccar-smt`, `soccar-concolic`, `soccar` — can link it
//! without touching the vendored stubs. Instrumentation is designed to be
//! free when disabled: a [`Recorder::disabled`] handle is a `None` and
//! every operation returns immediately.
//!
//! The paper's evaluation (Table IV, Fig. 4) is a measurement story —
//! detection rounds, solver queries, wall-clock per variant — and this
//! crate is where those numbers become machine-readable instead of
//! vanishing with the process.
//!
//! # Examples
//!
//! ```
//! use soccar_obs::{span, Recorder};
//!
//! let rec = Recorder::enabled();
//! for round in 1..=2u64 {
//!     let _round_span = span!(rec, "concolic.round", round = round);
//!     rec.counter_add("smt.queries", 3);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.counters["smt.queries"], 6);
//! assert!(soccar_obs::to_ndjson_canonical(&snap).contains("concolic.round"));
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod recorder;
pub mod sink;
pub mod words;

pub use bench::{diff_against_baseline, BenchReport, BenchVariant, BENCH_SCHEMA_VERSION};
pub use recorder::{Histogram, Recorder, SpanData, SpanGuard, TraceSnapshot, Value};
pub use sink::{render_tree, to_ndjson, to_ndjson_canonical, TRACE_SCHEMA_VERSION};

/// Opens a span on a [`Recorder`] with optional `key = value` fields:
///
/// ```
/// # use soccar_obs::{span, Recorder};
/// # let rec = Recorder::enabled();
/// let span = span!(rec, "cfg.extract", modules = 12u64, top = "soc");
/// let elapsed = span.close();
/// ```
///
/// Field values go through [`Value::from`], so integers, floats, bools,
/// and strings all work. The guard closes (recording the duration) on
/// drop, or explicitly via [`SpanGuard::close`], which returns the
/// duration.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __soccar_span = $rec.span($name);
        $(__soccar_span.record(stringify!($key), $crate::Value::from($val));)*
        __soccar_span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_records_fields() {
        let rec = Recorder::enabled();
        let g = span!(rec, "stage", n = 3u64, label = "x", ok = true);
        g.close();
        let snap = rec.snapshot();
        assert_eq!(snap.spans[0].name, "stage");
        assert_eq!(
            snap.spans[0].fields,
            vec![
                ("n".to_owned(), Value::U64(3)),
                ("label".to_owned(), Value::Str("x".to_owned())),
                ("ok".to_owned(), Value::Bool(true)),
            ]
        );
    }

    #[test]
    fn span_macro_works_without_fields_and_on_disabled() {
        let rec = Recorder::disabled();
        let g = span!(rec, "noop");
        let _ = g.close();
        assert!(rec.snapshot().spans.is_empty());
    }
}
