//! The [`Recorder`]: a thread-safe handle collecting spans and metrics.
//!
//! A `Recorder` is a cheap clone (an `Arc` under the hood, or nothing at
//! all when disabled), so it can be handed to every stage of the pipeline
//! and into worker-pool closures alike. The rules that keep the collected
//! data *deterministic* across worker counts (DESIGN.md §9):
//!
//! * **spans** are opened and closed only on the serial control path —
//!   the pipeline driver, the per-round loop — never inside a
//!   `parallel_map` task, so the span stream is identical for every
//!   `--jobs` value;
//! * **counters** and **histograms** may be bumped from worker threads:
//!   increments commute, and the sinks render them sorted by name, so the
//!   final values are job-count invariant as long as the *set* of
//!   recorded operations is (every pool task runs whatever the worker
//!   count, and flips are solved on the calling thread as the decision
//!   walk reads them);
//! * **gauges** carry wall-clock-derived values (utilization, busy time)
//!   and are dropped from every canonical serialization.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A field or metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::$variant(v as $cast)
            }
        })*
    };
}

value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One recorded span: a named region of the serial control path with
/// monotonic timing, an optional parent, and key-value fields.
#[derive(Debug, Clone)]
pub struct SpanData {
    /// Dotted span name (`concolic.round`).
    pub name: String,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<usize>,
    /// Fields, in record order.
    pub fields: Vec<(String, Value)>,
    /// Offset from recorder creation at open.
    pub start: Duration,
    /// Wall-clock duration; `None` while the span is still open.
    pub elapsed: Option<Duration>,
}

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `k` counts samples whose bit-length is `k` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7, …),
/// so merge order never changes the result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `bit-length → sample count`.
    pub buckets: BTreeMap<u32, u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(64 - v.leading_zeros()).or_insert(0) += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Inclusive upper bound of bucket `bits` (`2^bits - 1`).
    #[must_use]
    pub fn bucket_upper(bits: u32) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    state: Mutex<State>,
}

/// An immutable copy of everything a recorder has collected, for sinks.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Spans in open order (indices are span ids).
    pub spans: Vec<SpanData>,
    /// Counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, sorted by name (wall-clock-derived; non-canonical).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, sorted by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// The tracing/metrics handle. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use soccar_obs::Recorder;
///
/// let rec = Recorder::enabled();
/// {
///     let mut span = rec.span("demo.stage");
///     span.record("items", 3u64);
///     rec.counter_add("demo.widgets", 3);
/// } // span closes (and times) on drop
/// let snap = rec.snapshot();
/// assert_eq!(snap.spans.len(), 1);
/// assert_eq!(snap.counters["demo.widgets"], 3);
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recording handle.
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A no-op handle: every operation is a cheap early return, so
    /// instrumented code pays almost nothing when tracing is off.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// `true` when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, State>> {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().expect("recorder poisoned"))
    }

    /// Opens a span. The returned guard times the region even on a
    /// disabled recorder (so stage timings flow through one code path);
    /// it records into the span tree only when enabled.
    pub fn span(&self, name: &str) -> SpanGuard {
        let idx = self.inner.as_ref().map(|inner| {
            let mut st = inner.state.lock().expect("recorder poisoned");
            let idx = st.spans.len();
            let parent = st.stack.last().copied();
            st.spans.push(SpanData {
                name: name.to_owned(),
                parent,
                fields: Vec::new(),
                start: inner.start.elapsed(),
                elapsed: None,
            });
            st.stack.push(idx);
            idx
        });
        SpanGuard {
            rec: self.clone(),
            idx,
            started: Instant::now(),
            closed: false,
        }
    }

    /// Times a closure under a span, returning its result and duration.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let span = self.span(name);
        let out = f();
        (out, span.close())
    }

    /// Adds to a (creating-on-first-use) counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(mut st) = self.lock() {
            *st.counters.entry(name.to_owned()).or_insert(0) += n;
        }
    }

    /// Current value of a counter (0 when absent or disabled).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock()
            .and_then(|st| st.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// Sets a gauge. Gauges hold wall-clock-derived values and are
    /// excluded from canonical serializations.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(mut st) = self.lock() {
            st.gauges.insert(name.to_owned(), v);
        }
    }

    /// Records a sample into a power-of-two-bucketed histogram.
    pub fn histogram_record(&self, name: &str, v: u64) {
        if let Some(mut st) = self.lock() {
            st.histograms.entry(name.to_owned()).or_default().record(v);
        }
    }

    /// Copies out everything collected so far.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        match self.lock() {
            None => TraceSnapshot::default(),
            Some(st) => TraceSnapshot {
                spans: st.spans.clone(),
                counters: st.counters.clone(),
                gauges: st.gauges.clone(),
                histograms: st.histograms.clone(),
            },
        }
    }

    fn close_span(&self, idx: usize, elapsed: Duration, late_fields: Vec<(String, Value)>) {
        if let Some(mut st) = self.lock() {
            st.spans[idx].elapsed = Some(elapsed);
            st.spans[idx].fields.extend(late_fields);
            // Well-formed nesting pops the top; tolerate stragglers.
            if st.stack.last() == Some(&idx) {
                st.stack.pop();
            } else if let Some(pos) = st.stack.iter().position(|i| *i == idx) {
                st.stack.remove(pos);
            }
        }
    }
}

/// Guard for an open span; closes (and records the duration) on drop.
///
/// Created by [`Recorder::span`] or the [`span!`](crate::span!) macro.
#[must_use = "dropping the guard immediately records a zero-length span"]
#[derive(Debug)]
pub struct SpanGuard {
    rec: Recorder,
    idx: Option<usize>,
    started: Instant,
    closed: bool,
}

impl SpanGuard {
    /// Attaches a field to the span (no-op on a disabled recorder).
    pub fn record(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(idx) = self.idx {
            if let Some(mut st) = self.rec.lock() {
                st.spans[idx].fields.push((key.to_owned(), value.into()));
            }
        }
    }

    /// Closes the span, returning its wall-clock duration. Works on
    /// disabled recorders too, which is what lets stage reports derive
    /// their timing from the span API unconditionally.
    pub fn close(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let elapsed = self.started.elapsed();
        if !self.closed {
            self.closed = true;
            if let Some(idx) = self.idx {
                self.rec.close_span(idx, elapsed, Vec::new());
            }
        }
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert_but_still_times() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter_add("x", 5);
        rec.gauge_set("g", 1.0);
        rec.histogram_record("h", 7);
        let span = rec.span("stage");
        std::thread::sleep(Duration::from_millis(2));
        let took = span.close();
        assert!(took >= Duration::from_millis(2));
        let snap = rec.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(rec.counter_value("x"), 0);
    }

    #[test]
    fn spans_nest_by_open_order() {
        let rec = Recorder::enabled();
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        inner.close();
        let sibling = rec.span("sibling");
        sibling.close();
        outer.close();
        let top = rec.span("top2");
        top.close();
        let snap = rec.snapshot();
        let parents: Vec<Option<usize>> = snap.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(snap.spans.iter().all(|s| s.elapsed.is_some()));
    }

    #[test]
    fn guard_drop_closes_the_span() {
        let rec = Recorder::enabled();
        {
            let mut g = rec.span("scoped");
            g.record("k", 1u64);
        }
        let snap = rec.snapshot();
        assert!(snap.spans[0].elapsed.is_some());
        assert_eq!(snap.spans[0].fields[0].0, "k");
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter_value("hits"), 400);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.buckets[&0], 1); // 0
        assert_eq!(h.buckets[&1], 1); // 1
        assert_eq!(h.buckets[&2], 2); // 2,3
        assert_eq!(h.buckets[&3], 2); // 4..7
        assert_eq!(h.buckets[&4], 1); // 8
        assert_eq!(h.buckets[&64], 1); // u64::MAX
        assert_eq!(h.sum, u64::MAX); // saturated
        assert_eq!(Histogram::bucket_upper(3), 7);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn time_helper_returns_result_and_duration() {
        let rec = Recorder::enabled();
        let (out, took) = rec.time("timed", || 42);
        assert_eq!(out, 42);
        assert!(took <= Duration::from_secs(1));
        assert_eq!(rec.snapshot().spans[0].name, "timed");
    }
}
