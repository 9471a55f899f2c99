//! Composition of per-module AR_CFGs into the SoC-level AR_CFG
//! `AR(S) = AR[M_1] ‖ AR[M_2] ‖ … ‖ AR[M_k]`, plus reset-domain analysis.
//!
//! The composer walks the instance tree from the top module using the
//! connection profiles of Algorithm 2, instantiates each module's AR_CFG
//! under its hierarchical path, and traces every instance-local reset back
//! to its *domain source* — the top-level input (or internal generator)
//! that drives it. Instances sharing a source form one **reset domain**,
//! the unit at which SoCCAR injects partial asynchronous resets.

use std::collections::HashMap;

use soccar_rtl::ast::SourceUnit;

use crate::connect::{connection_profiles_with, ConnectionProfile, ResetTable};
use crate::extract::{ArCfg, GovernorAnalysis};
use crate::reset_id::ResetNaming;

/// A reference to one reset-governed event in the composed CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalEventRef {
    /// Hierarchical instance path (`top.u_crypto.u_aes`).
    pub instance: String,
    /// Index into that instance's [`ArCfg::events`].
    pub event_index: usize,
}

/// One instantiated AR_CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceArCfg {
    /// Hierarchical instance path.
    pub path: String,
    /// Module name.
    pub module: String,
    /// The module's AR_CFG.
    pub cfg: ArCfg,
}

/// A reset domain: the set of instance-local resets driven (transitively)
/// by one source signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetDomain {
    /// Hierarchical name of the domain source (`top.por_n`, or an
    /// instance-local signal if the reset is generated internally).
    pub source: String,
    /// `true` if the source is an input port of the top module (and can
    /// therefore be pulsed directly by a stimulus program).
    pub top_level: bool,
    /// Assertion polarity of the source.
    pub active_low: bool,
    /// `(instance path, local reset name)` members.
    pub members: Vec<(String, String)>,
    /// Reset-governed events controlled by this domain.
    pub events: Vec<GlobalEventRef>,
}

/// The composed SoC-level AR_CFG.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SocArCfg {
    /// Per-instance AR_CFGs (instances with empty AR_CFGs included, so the
    /// structure mirrors the full hierarchy).
    pub instances: Vec<InstanceArCfg>,
    /// Reset domains, ordered by source name.
    pub reset_domains: Vec<ResetDomain>,
}

impl SocArCfg {
    /// Total number of reset-governed events across all instances.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.instances.iter().map(|i| i.cfg.events.len()).sum()
    }

    /// Finds an instance by hierarchical path.
    #[must_use]
    pub fn instance(&self, path: &str) -> Option<&InstanceArCfg> {
        self.instances.iter().find(|i| i.path == path)
    }

    /// Finds the domain containing `(instance, local reset)`.
    #[must_use]
    pub fn domain_of(&self, instance: &str, reset: &str) -> Option<&ResetDomain> {
        self.reset_domains
            .iter()
            .find(|d| d.members.iter().any(|(i, r)| i == instance && r == reset))
    }
}

/// Composes the SoC-level AR_CFG for `top`.
///
/// # Errors
///
/// Returns a message naming the missing module if `top` (or any
/// instantiated module) is not defined in the unit.
pub fn compose_soc(
    unit: &SourceUnit,
    top: &str,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
) -> Result<SocArCfg, String> {
    compose_soc_resilient(
        unit,
        top,
        naming,
        analysis,
        1,
        soccar_exec::FailurePolicy::FailFast,
        &soccar_exec::FaultPlan::default(),
        &soccar_obs::Recorder::disabled(),
    )
    .map(|(soc, _, _)| soc)
}

/// Like [`compose_soc`], running the per-module extraction (the hot half
/// of the stage) on up to `jobs` workers under an explicit failure policy
/// and fault plan (see [`extract_all_resilient`]). The compose walk
/// itself stays serial — it is a cheap hierarchy traversal — and sees
/// extraction results in source order, so the output is identical for
/// every `jobs` value. Also returns the extraction pool's utilization
/// counters.
///
/// Under an observability recorder the extraction fan-out and the serial
/// compose walk each get a span (`cfg.extract`, `cfg.compose`), and the
/// extracted graph's size lands in counters — `cfg.nodes` (all hardware
/// events of the full per-module CFGs), `cfg.edges` (governor→event
/// edges, i.e. reset-governed events), `cfg.ar_events`,
/// `cfg.reset_domains`, `cfg.instances`.
///
/// Under [`FailurePolicy::KeepGoing`] a module whose extraction panics is
/// treated as contributing no reset-governed events: composition still
/// succeeds, the returned reasons name every dropped module, and the
/// `resilience.extract_failed` counter records how many there were.
///
/// # Errors
///
/// As [`compose_soc`].
///
/// [`extract_all_resilient`]: crate::extract::extract_all_resilient
/// [`FailurePolicy::KeepGoing`]: soccar_exec::FailurePolicy::KeepGoing
#[allow(clippy::too_many_arguments)]
pub fn compose_soc_resilient(
    unit: &SourceUnit,
    top: &str,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
    jobs: usize,
    policy: soccar_exec::FailurePolicy,
    plan: &soccar_exec::FaultPlan,
    recorder: &soccar_obs::Recorder,
) -> Result<(SocArCfg, soccar_exec::PoolStats, Vec<String>), String> {
    if unit.module(top).is_none() {
        return Err(format!("top module `{top}` not found"));
    }
    let mut extract_span = soccar_obs::span!(
        recorder,
        "cfg.extract",
        modules = unit.modules.len(),
        jobs = jobs
    );
    let (extracted, stats, degraded) =
        crate::extract::extract_all_resilient(unit, naming, analysis, jobs, policy, plan);
    if !degraded.is_empty() {
        recorder.counter_add("resilience.extract_failed", degraded.len() as u64);
    }
    let nodes: usize = extracted.iter().map(|(cfg, _)| cfg.events.len()).sum();
    let edges: usize = extracted
        .iter()
        .map(|(cfg, _)| cfg.events.iter().filter(|e| e.governor.is_some()).count())
        .sum();
    recorder.counter_add("cfg.nodes", nodes as u64);
    recorder.counter_add("cfg.edges", edges as u64);
    extract_span.record("nodes", nodes);
    extract_span.record("edges", edges);
    drop(extract_span);
    // Algorithm 2 reads each child's resets from the extraction, which
    // already identified them.
    let table = ResetTable::new(
        extracted
            .iter()
            .map(|(cfg, _)| (cfg.module.as_str(), cfg.resets.as_slice())),
    );
    // A module defined twice resolves to its first definition, as in
    // elaboration, lint and the reset table.
    let mut profiles: HashMap<String, ConnectionProfile> = HashMap::new();
    for p in connection_profiles_with(unit, naming, &table) {
        profiles.entry(p.module.clone()).or_insert(p);
    }
    let mut ar_cfgs: HashMap<String, ArCfg> = HashMap::new();
    for (_, ar) in extracted {
        ar_cfgs.entry(ar.module.clone()).or_insert(ar);
    }
    let soc = compose_soc_prepared(unit, top, &profiles, &ar_cfgs, recorder)?;
    Ok((soc, stats, degraded))
}

/// The serial compose walk over already-extracted per-module AR_CFGs —
/// the second half of [`compose_soc_resilient`]: it instantiates the
/// hierarchy from `top`, traces reset domains, and emits the
/// `cfg.compose` span and `cfg.instances`/`cfg.reset_domains`/
/// `cfg.ar_events` counters. Fails naming any instantiated module that
/// has no entry in `ar_cfgs`.
fn compose_soc_prepared(
    unit: &SourceUnit,
    top: &str,
    profiles: &HashMap<String, ConnectionProfile>,
    ar_cfgs: &HashMap<String, ArCfg>,
    recorder: &soccar_obs::Recorder,
) -> Result<SocArCfg, String> {
    let mut compose_span = soccar_obs::span!(recorder, "cfg.compose", top = top);

    let mut soc = SocArCfg::default();
    // (instance path, local reset name) → domain source key.
    let mut reset_source: HashMap<(String, String), String> = HashMap::new();
    let mut source_meta: HashMap<String, (bool, bool)> = HashMap::new(); // key → (top_level, active_low)

    // Seed: the top instance's resets are their own sources.
    let top_ar = &ar_cfgs[top];
    for r in &top_ar.resets {
        let key = format!("{top}.{}", r.name);
        reset_source.insert((top.to_owned(), r.name.clone()), key.clone());
        let is_input = unit.module(top).is_some_and(|m| m.port(&r.name).is_some());
        source_meta.insert(key, (is_input, r.active_low));
    }

    // Breadth-first over the instance tree.
    let mut queue: Vec<(String, String)> = vec![(top.to_owned(), top.to_owned())]; // (module, path)
    while let Some((module_name, path)) = queue.pop() {
        let Some(ar) = ar_cfgs.get(&module_name) else {
            return Err(format!("module `{module_name}` not found"));
        };
        soc.instances.push(InstanceArCfg {
            path: path.clone(),
            module: module_name.clone(),
            cfg: ar.clone(),
        });
        let Some(profile) = profiles.get(&module_name) else {
            continue;
        };
        for child in &profile.children {
            let child_path = format!("{path}.{}", child.instance);
            if let Some(child_ar) = ar_cfgs.get(&child.module) {
                for r in &child_ar.resets {
                    let conn = child.reset_conns.iter().find(|c| c.formal == r.name);
                    let source = match conn.and_then(|c| c.actual.as_ref()) {
                        Some(actual) => reset_source
                            .get(&(path.clone(), actual.clone()))
                            .cloned()
                            .unwrap_or_else(|| {
                                // Parent signal is not itself a traced
                                // reset: it becomes a domain source
                                // (internally generated reset).
                                let key = format!("{path}.{actual}");
                                source_meta
                                    .entry(key.clone())
                                    .or_insert((false, r.active_low));
                                key
                            }),
                        None => {
                            // Unconnected or expression-driven: the child
                            // local reset is its own domain source.
                            let key = format!("{child_path}.{}", r.name);
                            source_meta
                                .entry(key.clone())
                                .or_insert((false, r.active_low));
                            key
                        }
                    };
                    reset_source.insert((child_path.clone(), r.name.clone()), source);
                }
            }
            queue.push((child.module.clone(), child_path));
        }
    }

    // Group members and events into domains.
    let mut domains: HashMap<String, ResetDomain> = HashMap::new();
    for ((inst, local), source) in &reset_source {
        let (top_level, active_low) = *source_meta.get(source).expect("every source has metadata");
        let d = domains
            .entry(source.clone())
            .or_insert_with(|| ResetDomain {
                source: source.clone(),
                top_level,
                active_low,
                members: Vec::new(),
                events: Vec::new(),
            });
        d.members.push((inst.clone(), local.clone()));
    }
    for inst in &soc.instances {
        for (ei, ev) in inst.cfg.events.iter().enumerate() {
            let Some(g) = &ev.governor else { continue };
            if let Some(source) = reset_source.get(&(inst.path.clone(), g.reset.clone())) {
                if let Some(d) = domains.get_mut(source) {
                    d.events.push(GlobalEventRef {
                        instance: inst.path.clone(),
                        event_index: ei,
                    });
                }
            }
        }
    }
    let mut domains: Vec<ResetDomain> = domains.into_values().collect();
    for d in &mut domains {
        d.members.sort();
        d.events.sort_by(|a, b| {
            (a.instance.as_str(), a.event_index).cmp(&(b.instance.as_str(), b.event_index))
        });
    }
    domains.sort_by(|a, b| a.source.cmp(&b.source));
    soc.reset_domains = domains;
    soc.instances.sort_by(|a, b| a.path.cmp(&b.path));
    recorder.counter_add("cfg.instances", soc.instances.len() as u64);
    recorder.counter_add("cfg.reset_domains", soc.reset_domains.len() as u64);
    recorder.counter_add("cfg.ar_events", soc.event_count() as u64);
    compose_span.record("instances", soc.instances.len());
    compose_span.record("reset_domains", soc.reset_domains.len());
    compose_span.record("ar_events", soc.event_count());
    drop(compose_span);
    Ok(soc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    const TWO_DOMAIN_SOC: &str = "
        module ip(input clk, input rst_n, input [3:0] d, output reg [3:0] q);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) q <= 4'd0; else q <= d;
        endmodule
        module cluster(input clk, input c_rst_n, input [3:0] d, output [3:0] q);
          ip u_a (.clk(clk), .rst_n(c_rst_n), .d(d), .q(q));
          ip u_b (.clk(clk), .rst_n(c_rst_n), .d(d), .q());
        endmodule
        module top(input clk, input sys_rst_n, input io_rst_n, input [3:0] d, output [3:0] q);
          cluster u_cl (.clk(clk), .c_rst_n(sys_rst_n), .d(d), .q(q));
          ip u_io (.clk(clk), .rst_n(io_rst_n), .d(d), .q());
        endmodule";

    fn compose(src: &str) -> SocArCfg {
        let unit = parse(FileId(0), src).expect("parse");
        compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose")
    }

    #[test]
    fn hierarchy_instantiated() {
        let soc = compose(TWO_DOMAIN_SOC);
        let paths: Vec<&str> = soc.instances.iter().map(|i| i.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "top",
                "top.u_cl",
                "top.u_cl.u_a",
                "top.u_cl.u_b",
                "top.u_io"
            ]
        );
        assert_eq!(soc.event_count(), 3); // three ip instances
    }

    #[test]
    fn reset_domains_traced_to_top() {
        let soc = compose(TWO_DOMAIN_SOC);
        assert_eq!(soc.reset_domains.len(), 2);
        let sys = soc
            .reset_domains
            .iter()
            .find(|d| d.source == "top.sys_rst_n")
            .expect("sys domain");
        assert!(sys.top_level);
        assert!(sys.active_low);
        // Members: top-local + cluster-local + two leaves.
        assert!(sys
            .members
            .contains(&("top.u_cl.u_a".to_owned(), "rst_n".to_owned())));
        assert!(sys
            .members
            .contains(&("top.u_cl.u_b".to_owned(), "rst_n".to_owned())));
        assert_eq!(sys.events.len(), 2);

        let io = soc
            .reset_domains
            .iter()
            .find(|d| d.source == "top.io_rst_n")
            .expect("io domain");
        assert_eq!(io.events.len(), 1);
        assert_eq!(io.events[0].instance, "top.u_io");
    }

    #[test]
    fn domain_lookup_helpers() {
        let soc = compose(TWO_DOMAIN_SOC);
        let d = soc.domain_of("top.u_io", "rst_n").expect("domain");
        assert_eq!(d.source, "top.io_rst_n");
        assert!(soc.instance("top.u_cl.u_a").is_some());
        assert!(soc.instance("top.nope").is_none());
    }

    #[test]
    fn internally_generated_reset_forms_own_domain() {
        let soc = compose(
            "module ip(input clk, input rst_n, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0; else q <= 1'b1;
             endmodule
             module top(input clk, input [3:0] ctl);
               wire gen_rst_n;
               assign gen_rst_n = ctl == 4'hF;
               ip u (.clk(clk), .rst_n(gen_rst_n));
             endmodule",
        );
        // gen_rst_n matches no top reset; it becomes its own source.
        let d = soc.domain_of("top.u", "rst_n").expect("domain");
        assert_eq!(d.source, "top.gen_rst_n");
        assert!(!d.top_level);
    }

    #[test]
    fn keep_going_drops_failed_module_and_reports_it() {
        let unit = parse(FileId(0), TWO_DOMAIN_SOC).expect("parse");
        // Module index 1 is `ip` (the only reset-governed module): inject
        // a panic into its extraction and keep going.
        let plan = soccar_exec::FaultPlan::parse("task_panic@extract:1").expect("plan");
        let (soc, _, degraded) = compose_soc_resilient(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
            2,
            soccar_exec::FailurePolicy::KeepGoing,
            &plan,
            &soccar_obs::Recorder::disabled(),
        )
        .expect("compose");
        assert_eq!(degraded.len(), 1, "degraded: {degraded:?}");
        assert!(degraded[0].contains("module `ip`"), "{degraded:?}");
        assert!(degraded[0].contains("task_panic@extract:1"), "{degraded:?}");
        // The hierarchy survives; the failed module just governs nothing.
        assert_eq!(soc.instances.len(), 5);
        assert_eq!(soc.event_count(), 0);
        // Determinism: the same plan at jobs=1 produces the same result.
        let (soc1, _, degraded1) = compose_soc_resilient(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
            1,
            soccar_exec::FailurePolicy::KeepGoing,
            &plan,
            &soccar_obs::Recorder::disabled(),
        )
        .expect("compose");
        assert_eq!(degraded, degraded1);
        assert_eq!(soc.instances.len(), soc1.instances.len());
        assert_eq!(soc.event_count(), soc1.event_count());
    }

    #[test]
    fn missing_top_is_error() {
        let unit = parse(FileId(0), "module a(input x); endmodule").expect("parse");
        assert!(compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit
        )
        .is_err());
    }
}
