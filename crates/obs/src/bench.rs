//! The `BENCH_<soc>.json` emitter: canonical, schema-versioned perf
//! records so the repository carries a benchmark trajectory CI can gate
//! (docs/OBSERVABILITY.md). Counters are exact and deterministic, so the
//! CI gate compares them against the checked-in baseline
//! ([`diff_against_baseline`]). Wall-clock timings end in `_q`, are
//! bucketed to power-of-two milliseconds ([`quantize_seconds`]), and are
//! reported, never gated.

use std::collections::BTreeMap;

use crate::json::{Json, Writer};

/// Version of the bench-JSON schema. Bump on renamed/removed fields or
/// changed quantization; adding counters is additive and does not bump.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One benchmark unit (a bug-seeded SoC variant) inside a report.
#[derive(Debug, Clone, Default)]
pub struct BenchVariant {
    /// Display name (`ClusterSoC Variant #1`).
    pub variant: String,
    /// Exact, deterministic counters (`detected`, `rounds`,
    /// `solver_calls`, …), serialized sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Named quantized timings in seconds (key must end in `_q`, e.g.
    /// `flip_incremental_q`). Reported, not gated — the baseline
    /// comparison skips `_q` keys. Additive to schema v1.
    pub timings_q: BTreeMap<String, f64>,
    /// Quantized verification wall-clock, in seconds. Reported, not gated.
    pub seconds_q: f64,
}

/// A `BENCH_<soc>.json` document.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// SoC slug (`clustersoc`, `autosoc`) — lowercased into the file name.
    pub soc: String,
    /// `full` or `smoke` (the CI reduced-rounds mode). Baselines only
    /// compare against reports of the same mode.
    pub mode: String,
    /// Per-variant records, in `soccar_soc::variants()` order.
    pub variants: Vec<BenchVariant>,
}

impl BenchReport {
    /// The canonical file name for this report.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.soc.to_lowercase())
    }

    /// Pretty-printed JSON, one field per line, trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::pretty(&mut out);
        w.begin_object()
            .key("schema")
            .u64(BENCH_SCHEMA_VERSION.into());
        w.key("soc").string(&self.soc);
        w.key("mode").string(&self.mode);
        w.key("variants").begin_array();
        for v in &self.variants {
            w.begin_object().key("variant").string(&v.variant);
            for (name, value) in &v.counters {
                w.key(name).u64(*value);
            }
            for (name, value) in &v.timings_q {
                debug_assert!(name.ends_with("_q"), "timing key must end in _q: {name}");
                w.key(name).f64(*value);
            }
            w.key("seconds_q").f64(v.seconds_q).end_object();
        }
        w.end_array().end_object();
        out.push('\n');
        out
    }
}

/// Quantizes a duration in seconds to the nearest power-of-two
/// milliseconds bucket (minimum 1 ms), returned in seconds. Stable under
/// the ordinary run-to-run noise of a benchmark machine, coarse enough
/// that a real regression moves it a whole bucket.
#[must_use]
pub fn quantize_seconds(secs: f64) -> f64 {
    let ms = (secs * 1e3).max(1.0);
    let exp = ms.log2().round();
    2f64.powf(exp) / 1e3
}

/// Compares a freshly generated report against a checked-in baseline,
/// field by field, so line layout does not matter: the top-level fields,
/// then each variant's (matched by position), must have the same keys in
/// the same order with equal values, skipping keys that end in `_q`.
/// Returns one mismatch per differing variant, naming it and its first
/// differing field — empty means the gate passes.
#[must_use]
pub fn diff_against_baseline(current: &str, baseline: &str) -> Vec<String> {
    let parse = |side, text| Json::parse(text).map_err(|e| vec![format!("{side} report: {e}")]);
    let (current, baseline) = match (parse("current", current), parse("baseline", baseline)) {
        (Ok(current), Ok(baseline)) => (current, baseline),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let (base, cur) = (variants(&baseline), variants(&current));
    let variant_pairs = (0..base.len().max(cur.len())).map(|i| {
        let (b, c) = (base.get(i), cur.get(i));
        (b.unwrap_or(&Json::Null), c.unwrap_or(&Json::Null))
    });
    std::iter::once((&baseline, &current))
        .chain(variant_pairs)
        .filter_map(|(b, c)| {
            let diff = first_difference(b, c)?;
            let name = b.str_field("variant").or(c.str_field("variant"));
            let who = name.map_or("report".to_owned(), |n| format!("variant `{n}`"));
            Some(format!("{who}: {diff}"))
        })
        .collect()
}

fn variants(doc: &Json) -> &[Json] {
    doc.get("variants")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// The first gated field — any but the `_q` timings and the `variants`
/// array — where `current` departs from `baseline` in key, value or
/// position.
fn first_difference(baseline: &Json, current: &Json) -> Option<String> {
    let gated = |doc: &Json| -> Vec<String> {
        match doc {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(key, _)| !key.ends_with("_q") && key != "variants")
                .map(|(key, value)| format!("`{key}` = {value}"))
                .collect(),
            _ => Vec::new(),
        }
    };
    let (base, cur) = (gated(baseline), gated(current));
    let i = (0..base.len().max(cur.len())).find(|&i| base.get(i) != cur.get(i))?;
    let show = |field: Option<&String>| field.map_or("no field".to_owned(), String::clone);
    Some(format!(
        "baseline {} vs current {}",
        show(base.get(i)),
        show(cur.get(i))
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut counters = BTreeMap::new();
        counters.insert("detected".to_owned(), 2);
        counters.insert("rounds".to_owned(), 17);
        BenchReport {
            soc: "ClusterSoC".to_owned(),
            mode: "smoke".to_owned(),
            variants: vec![
                BenchVariant {
                    variant: "ClusterSoC Variant #1".to_owned(),
                    counters: counters.clone(),
                    timings_q: BTreeMap::from([("flip_incremental_q".to_owned(), 0.004)]),
                    seconds_q: 0.256,
                },
                BenchVariant {
                    variant: "ClusterSoC Variant #2".to_owned(),
                    counters,
                    timings_q: BTreeMap::new(),
                    seconds_q: 0.512,
                },
            ],
        }
    }

    #[test]
    fn json_shape_and_file_name() {
        let r = sample();
        assert_eq!(r.file_name(), "BENCH_clustersoc.json");
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": 1,\n  \"soc\": \"ClusterSoC\","));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"variant\": \"ClusterSoC Variant #1\""));
        assert!(json.contains("\"detected\": 2,"));
        assert!(json.contains("\"flip_incremental_q\": 0.004,"));
        assert!(json.contains("\"seconds_q\": 0.256"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn empty_report_is_valid() {
        let r = BenchReport {
            soc: "x".into(),
            mode: "full".into(),
            variants: Vec::new(),
        };
        assert!(r.to_json().ends_with("\"variants\": []\n}\n"));
    }

    #[test]
    fn quantization_buckets_to_powers_of_two_ms() {
        assert_eq!(quantize_seconds(0.0), 0.001); // floor at 1 ms
        assert_eq!(quantize_seconds(0.0009), 0.001);
        assert_eq!(quantize_seconds(0.1), 0.128); // 100 ms → 128 ms bucket
        assert_eq!(quantize_seconds(0.2), 0.256);
        assert_eq!(quantize_seconds(1.3), 1.024);
        assert_eq!(quantize_seconds(1.6), 2.048);
    }

    /// Asserts the gate reports exactly one mismatch, led by `who` (the
    /// variant, not a line number) and naming `field`.
    fn assert_one_mismatch(current: &str, who: &str, field: &str) {
        let diffs = diff_against_baseline(current, &sample().to_json());
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with(&format!("{who}: ")), "{diffs:?}");
        assert!(diffs[0].contains(&format!("`{field}`")), "{diffs:?}");
    }

    #[test]
    fn gate_skips_timings_and_layout() {
        let baseline = sample().to_json();
        let mut retimed = sample();
        retimed.variants[0].seconds_q = 99.0;
        retimed.variants[1].seconds_q = 0.001;
        retimed.variants[0]
            .timings_q
            .insert("flip_incremental_q".to_owned(), 8.192);
        assert!(diff_against_baseline(&retimed.to_json(), &baseline).is_empty());

        let reflowed = Json::parse(&baseline).expect("parses").to_string();
        assert!(!reflowed.contains('\n'));
        assert!(diff_against_baseline(&reflowed, &baseline).is_empty());
    }

    #[test]
    fn gate_names_the_variant_and_field_of_every_counter_drift() {
        let v1 = "variant `ClusterSoC Variant #1`";
        let v2 = "variant `ClusterSoC Variant #2`";

        let mut changed = sample();
        changed.variants[1].counters.insert("rounds".to_owned(), 18);
        assert_one_mismatch(&changed.to_json(), v2, "rounds");

        let mut missing = sample();
        missing.variants[0].counters.remove("detected");
        assert_one_mismatch(&missing.to_json(), v1, "detected");

        let mut extra = sample();
        extra.variants[0]
            .counters
            .insert("solver_calls".to_owned(), 4);
        assert_one_mismatch(&extra.to_json(), v1, "solver_calls");

        let reordered = sample().to_json().replacen(
            "\"detected\": 2,\n      \"rounds\": 17,",
            "\"rounds\": 17,\n      \"detected\": 2,",
            1,
        );
        assert_one_mismatch(&reordered, v1, "rounds");

        let mut renamed = sample();
        renamed.variants[1].variant = "ClusterSoC Variant #9".to_owned();
        assert_one_mismatch(&renamed.to_json(), v2, "variant");

        let mut other_mode = sample();
        other_mode.mode = "full".to_owned();
        assert_one_mismatch(&other_mode.to_json(), "report", "mode");
    }

    #[test]
    fn gate_reports_added_and_dropped_variants_and_bad_json() {
        let mut fewer = sample();
        fewer.variants.pop();
        let diffs = diff_against_baseline(&fewer.to_json(), &sample().to_json());
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("variant `ClusterSoC Variant #2`: baseline `variant`"));
        assert!(diffs[0].ends_with("vs current no field"), "{diffs:?}");
        let diffs = diff_against_baseline(&sample().to_json(), &fewer.to_json());
        assert!(diffs[0].starts_with("variant `ClusterSoC Variant #2`: baseline no field"));

        let diffs = diff_against_baseline("{", &sample().to_json());
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("current report: json parse error"));
    }
}
