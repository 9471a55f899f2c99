//! The `BENCH_<soc>.json` emitter: canonical, schema-versioned records
//! of exact, deterministic counters so the repository carries a
//! benchmark trajectory CI can gate (docs/OBSERVABILITY.md). The CI gate
//! compares every field against the checked-in baseline
//! ([`diff_against_baseline`]). The records hold no timings: perfbench
//! is what times SoCCAR.

use std::collections::BTreeMap;

use crate::json::{Json, Writer};

/// Version of the bench-JSON schema. Bump on renamed or removed fields;
/// adding counters is additive and does not bump. Version 2 dropped the
/// per-variant quantized wall-clock timing.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// One benchmark unit (a bug-seeded SoC variant) inside a report.
#[derive(Debug, Clone, Default)]
pub struct BenchVariant {
    /// Display name (`ClusterSoC Variant #1`).
    pub variant: String,
    /// Exact, deterministic counters (`detected`, `rounds`,
    /// `solver_calls`, …), serialized sorted by name.
    pub counters: BTreeMap<String, u64>,
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
            w.end_object();
        }
        w.end_array().end_object();
        out.push('\n');
        out
    }
}

/// Compares a freshly generated report against a checked-in baseline,
/// field by field, so line layout does not matter: the top-level fields,
/// then each variant's (matched by position), must have the same keys in
/// the same order with equal values.
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

/// The first field — any but the `variants` array — where `current`
/// departs from `baseline` in key, value or position.
fn first_difference(baseline: &Json, current: &Json) -> Option<String> {
    let gated = |doc: &Json| -> Vec<String> {
        match doc {
            Json::Obj(fields) => fields
                .iter()
                .filter(|(key, _)| key != "variants")
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
                },
                BenchVariant {
                    variant: "ClusterSoC Variant #2".to_owned(),
                    counters,
                },
            ],
        }
    }

    #[test]
    fn json_shape_and_file_name() {
        let r = sample();
        assert_eq!(r.file_name(), "BENCH_clustersoc.json");
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": 2,\n  \"soc\": \"ClusterSoC\","));
        assert!(json.contains("\"mode\": \"smoke\""));
        assert!(json.contains("\"variant\": \"ClusterSoC Variant #1\""));
        assert!(json.contains("\"detected\": 2,"));
        assert!(json.contains("\"rounds\": 17\n    },"));
        assert!(!json.contains("_q\""));
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

    /// Asserts the gate reports exactly one mismatch, led by `who` (the
    /// variant, not a line number) and naming `field`.
    fn assert_one_mismatch(current: &str, who: &str, field: &str) {
        let diffs = diff_against_baseline(current, &sample().to_json());
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with(&format!("{who}: ")), "{diffs:?}");
        assert!(diffs[0].contains(&format!("`{field}`")), "{diffs:?}");
    }

    #[test]
    fn gate_skips_layout() {
        let baseline = sample().to_json();
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
            "\"detected\": 2,\n      \"rounds\": 17\n",
            "\"rounds\": 17,\n      \"detected\": 2\n",
            1,
        );
        assert_ne!(reordered, sample().to_json());
        assert_one_mismatch(&reordered, v1, "rounds");

        let mut renamed = sample();
        renamed.variants[1].variant = "ClusterSoC Variant #9".to_owned();
        assert_one_mismatch(&renamed.to_json(), v2, "variant");

        let mut other_mode = sample();
        other_mode.mode = "full".to_owned();
        assert_one_mismatch(&other_mode.to_json(), "report", "mode");

        // A schema-v1 baseline still carrying its timing fails by name.
        let current = sample().to_json();
        let stale = current.replacen(
            "\"rounds\": 17\n    },",
            "\"rounds\": 17,\n      \"seconds_q\": 0.256\n    },",
            1,
        );
        assert_eq!(
            diff_against_baseline(&current, &stale),
            ["variant `ClusterSoC Variant #1`: baseline `seconds_q` = 0.256 vs current no field"]
        );
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
