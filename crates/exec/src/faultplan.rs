//! Deterministic fault-injection plans (`SOCCAR_FAULTS`).
//!
//! A [`FaultPlan`] is a *stateless* map from injection-point name to a set
//! of 1-based occurrence indices. Production code consults the plan at
//! named injection points with a **caller-supplied deterministic index**
//! (a serial sequence number, a task's input index — never a completion
//! order or a global atomic), so the injected fault set is identical for
//! every job count and every run. That is what lets the chaos tests
//! demand byte-identical canonical reports under an active plan.
//!
//! # Grammar
//!
//! ```text
//! plan    := entry ("," entry)*
//! entry   := kind "@" occurrence          e.g.  solver_unknown@3
//!          | kind "@" site ":" occurrence e.g.  task_panic@extract:1
//! ```
//!
//! `kind@site:N` addresses the point named `kind:site`; `kind@N`
//! addresses the point named `kind`. Occurrences are 1-based; the same
//! point may appear in several entries (`solver_unknown@1,solver_unknown@3`).
//!
//! # Injection-point registry
//!
//! | point | index semantics | effect |
//! |---|---|---|
//! | `solver_unknown` | global flip-candidate sequence number (serial, per analysis) | the flip solve returns `CheckResult::Unknown` |
//! | `task_panic:extract` | module index in the cfg extraction fan-out | the extraction task panics |
//! | `task_panic:flips` | flip-candidate sequence number | the flip solve task panics |
//! | `shed:admission` | connection admission attempt (serial, per server) | the connection is shed with a `busy` envelope |
//!
//! Pipeline points derive their index from input position, never from
//! scheduling, so injection is identical for every job count. The
//! serve-layer point indexes the serial per-server sequence of
//! admissions; it is deterministic for a serial connection stream, which
//! is how the chaos-serve suite drives it. New points must document their index semantics here and in
//! `docs/RESILIENCE.md`.
//!
//! Unknown point names are rejected at parse time (a typo in a chaos
//! plan must fail loudly, not silently inject nothing); the registry of
//! valid names is [`KNOWN_POINTS`].

/// Every injection point production code consults, exactly as spelled in
/// [`FaultPlan::should_inject`] calls. [`FaultPlan::parse`] rejects any
/// entry naming a point outside this list.
pub const KNOWN_POINTS: &[&str] = &[
    "solver_unknown",
    "task_panic:extract",
    "task_panic:flips",
    "shed:admission",
];

use std::collections::{BTreeMap, BTreeSet};

/// The environment variable consulted by [`FaultPlan::from_env`].
pub const FAULTS_ENV: &str = "SOCCAR_FAULTS";

/// A parsed, deterministic fault-injection plan.
///
/// # Examples
///
/// ```
/// use soccar_exec::FaultPlan;
///
/// let plan = FaultPlan::parse("solver_unknown@3,task_panic@extract:1").unwrap();
/// assert!(plan.should_inject("solver_unknown", 3));
/// assert!(!plan.should_inject("solver_unknown", 2));
/// assert!(plan.should_inject("task_panic:extract", 1));
/// assert!(FaultPlan::default().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: BTreeMap<String, BTreeSet<u64>>,
}

impl FaultPlan {
    /// Parses a plan from the `SOCCAR_FAULTS` grammar (see module docs).
    ///
    /// An empty or all-whitespace spec parses to the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry if an entry lacks the
    /// `@`, names an empty kind/site, has a non-positive occurrence, or
    /// addresses an injection point not in [`KNOWN_POINTS`] (typos must
    /// fail loudly, not silently inject nothing).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut points: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry.split_once('@').ok_or_else(|| {
                format!(
                    "fault entry `{entry}`: expected `kind@occurrence` or `kind@site:occurrence`"
                )
            })?;
            if kind.is_empty() {
                return Err(format!("fault entry `{entry}`: empty fault kind"));
            }
            let (point, occ_str) = match rest.split_once(':') {
                Some((site, occ)) => {
                    if site.is_empty() {
                        return Err(format!("fault entry `{entry}`: empty site name"));
                    }
                    (format!("{kind}:{site}"), occ)
                }
                None => (kind.to_owned(), rest),
            };
            if !KNOWN_POINTS.contains(&point.as_str()) {
                return Err(format!(
                    "fault entry `{entry}`: unknown injection point `{point}` \
                     (known points: {})",
                    KNOWN_POINTS.join(", ")
                ));
            }
            let occ: u64 = occ_str.trim().parse().map_err(|_| {
                format!("fault entry `{entry}`: occurrence `{occ_str}` is not an integer")
            })?;
            if occ == 0 {
                return Err(format!("fault entry `{entry}`: occurrences are 1-based"));
            }
            points.entry(point).or_default().insert(occ);
        }
        Ok(FaultPlan { points })
    }

    /// Reads the plan from the `SOCCAR_FAULTS` environment variable; an
    /// unset variable yields the empty plan.
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::parse`].
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(s) => FaultPlan::parse(&s),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// `true` if the plan injects nothing (the production default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` if the plan injects a fault at `point` for this 1-based
    /// `occurrence`. Stateless: the same call always returns the same
    /// answer, regardless of thread or call order.
    #[must_use]
    pub fn should_inject(&self, point: &str, occurrence: u64) -> bool {
        self.points
            .get(point)
            .is_some_and(|occs| occs.contains(&occurrence))
    }

    /// Iterates over `(point, occurrence)` pairs in sorted order.
    pub fn injections(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.points
            .iter()
            .flat_map(|(p, occs)| occs.iter().map(move |o| (p.as_str(), *o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_sited_entries() {
        let plan = FaultPlan::parse("solver_unknown@3,task_panic@extract:1,task_panic@flips:2")
            .expect("valid plan");
        assert!(plan.should_inject("solver_unknown", 3));
        assert!(plan.should_inject("task_panic:extract", 1));
        assert!(plan.should_inject("task_panic:flips", 2));
        assert!(!plan.should_inject("solver_unknown", 1));
        assert!(!plan.should_inject("task_panic:flips", 1));
        assert_eq!(
            plan.injections().collect::<Vec<_>>(),
            vec![
                ("solver_unknown", 3),
                ("task_panic:extract", 1),
                ("task_panic:flips", 2)
            ]
        );
    }

    #[test]
    fn repeated_points_accumulate_occurrences() {
        let plan = FaultPlan::parse("solver_unknown@1, solver_unknown@4").expect("valid");
        assert!(plan.should_inject("solver_unknown", 1));
        assert!(plan.should_inject("solver_unknown", 4));
        assert!(!plan.should_inject("solver_unknown", 2));
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("").expect("ok").is_empty());
        assert!(FaultPlan::parse("  , ,").expect("ok").is_empty());
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(FaultPlan::parse("solver_unknown").is_err()); // no @
        assert!(FaultPlan::parse("@3").is_err()); // empty kind
        assert!(FaultPlan::parse("task_panic@:1").is_err()); // empty site
        assert!(FaultPlan::parse("solver_unknown@x").is_err()); // non-integer
        assert!(FaultPlan::parse("solver_unknown@0").is_err()); // 0-based
    }

    #[test]
    fn unknown_points_are_rejected_with_a_named_error() {
        // A bare typo of a known kind.
        let err = FaultPlan::parse("solver_unknwon@1").expect_err("typo must fail");
        assert!(
            err.contains("unknown injection point `solver_unknwon`"),
            "{err}"
        );
        assert!(err.contains("known points:"), "{err}");
        // A known kind at an unregistered site.
        let err = FaultPlan::parse("task_panic@compose:1").expect_err("bad site");
        assert!(err.contains("`task_panic:compose`"), "{err}");
        // A sited kind spelled without its site parses the site token as
        // the occurrence-free point name and is rejected by the registry.
        let err = FaultPlan::parse("shed@admission").expect_err("missing occurrence");
        assert!(err.contains("unknown injection point `shed`"), "{err}");
        // A point that no code consults any more.
        let err = FaultPlan::parse("round_timeout@1").expect_err("retired point");
        assert!(
            err.contains("unknown injection point `round_timeout`"),
            "{err}"
        );
        // One bad entry poisons the whole plan, even with valid siblings.
        assert!(FaultPlan::parse("solver_unknown@1,bogus@2").is_err());
    }

    #[test]
    fn serve_layer_points_parse() {
        let plan = FaultPlan::parse("shed@admission:4").expect("serve-layer plan");
        assert!(plan.should_inject("shed:admission", 4));
        assert!(!plan.should_inject("shed:admission", 1));
    }

    #[test]
    fn every_registered_point_round_trips_through_parse() {
        for point in KNOWN_POINTS {
            let entry = match point.split_once(':') {
                Some((kind, site)) => format!("{kind}@{site}:7"),
                None => format!("{point}@7"),
            };
            let plan = FaultPlan::parse(&entry).unwrap_or_else(|e| panic!("{entry}: {e}"));
            assert!(plan.should_inject(point, 7), "{entry}");
        }
    }
}
