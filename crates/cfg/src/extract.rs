//! AR_CFG generation — the paper's **Algorithm 1**.
//!
//! For each module the extractor builds the full CFG of hardware events
//! (one event per procedural arm, with its governing condition `v`), then
//! projects out the events governed by asynchronous resets:
//!
//! 1. every `always` block is a hardware event source; its sensitivity
//!    list and leading conditional establish the governors;
//! 2. a *subCFG* connects a governor `v` to the events `e` it gates;
//! 3. the AR_CFG `AR[M_i]` keeps only events whose governor involves an
//!    identified reset signal.
//!
//! Two analysis levels mirror the paper:
//!
//! * [`GovernorAnalysis::Explicit`] — the published tool: a reset governs
//!   an event only when it appears edge-qualified in the sensitivity list
//!   **and** the block's leading conditional tests it. This is the rule
//!   that *misses* the implicit-governor SHA256 bug of AutoSoC Variant #2
//!   (Section V-C), and we reproduce that miss faithfully.
//! * [`GovernorAnalysis::Refined`] — the paper's proposed extension
//!   ("more refined comprehension of the RTL constructs and in particular
//!   the interplay of clock and asynchronous resets to create implicit
//!   governors"): a reset edge in the sensitivity list governs the whole
//!   block even without an explicit leading test, including blocks where
//!   the reset is composed with a clock level.

use soccar_rtl::ast::{AlwaysBlock, Expr, Module, Sensitivity, SourceUnit, Stmt};
use soccar_rtl::span::Span;

use crate::reset_id::{identify_resets, leading_if, ResetNaming, ResetSignal};

/// Which governor-detection rules to apply (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GovernorAnalysis {
    /// The paper's published extraction rules.
    #[default]
    Explicit,
    /// The paper's proposed implicit-governor extension.
    Refined,
}

/// Identifies an extracted event within a module: `always` block index
/// plus arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventArm {
    /// The reset arm of a guarded block (`if (!rst_n) ...`).
    ResetArm,
    /// The operational (non-reset) arm.
    OperationalArm,
    /// The entire block (implicit governor; Refined mode only).
    WholeBlock,
}

/// How a reset governs an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Governor {
    /// The governing reset signal (local name).
    pub reset: String,
    /// Assertion polarity.
    pub active_low: bool,
    /// `true` if the governor is explicit (leading conditional tests the
    /// reset), `false` for implicit governors.
    pub explicit: bool,
    /// `true` if the event is additionally gated by a clock *level* inside
    /// the block (the SHA256-bug construct).
    pub composed_with_clock: bool,
}

/// A hardware event `e` of the paper: one procedural arm with its
/// governing condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareEvent {
    /// Declaring module.
    pub module: String,
    /// Index among the module's `always` blocks.
    pub always_index: u32,
    /// Which arm of the block.
    pub arm: EventArm,
    /// The reset governor, if this event is reset-governed.
    pub governor: Option<Governor>,
    /// Signals assigned within the arm (payload surface).
    pub assigned: Vec<String>,
    /// Source location of the arm.
    pub span: Span,
}

/// The full CFG of one module (`[M_i]` in Algorithm 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleCfg {
    /// Module name.
    pub module: String,
    /// All extracted events.
    pub events: Vec<HardwareEvent>,
    /// Identified reset signals.
    pub resets: Vec<ResetSignal>,
}

/// The asynchronous-reset projection (`AR[M_i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArCfg {
    /// Module name.
    pub module: String,
    /// Reset-governed events only.
    pub events: Vec<HardwareEvent>,
    /// Identified reset signals.
    pub resets: Vec<ResetSignal>,
}

impl ArCfg {
    /// `true` if the module has no reset-governed events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Extracts the full CFG of `module` (Algorithm 1, lines 2–9).
#[must_use]
pub fn extract_module_cfg(
    module: &Module,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
) -> ModuleCfg {
    extract_module_cfg_with(module, identify_resets(module, naming), naming, analysis)
}

/// [`extract_module_cfg`] over resets already identified by
/// [`identify_resets`] for this module and naming convention.
#[must_use]
pub fn extract_module_cfg_with(
    module: &Module,
    resets: Vec<ResetSignal>,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
) -> ModuleCfg {
    let mut events = Vec::new();
    for (idx, block) in module.always_blocks().enumerate() {
        extract_block_events(
            module,
            idx as u32,
            block,
            &resets,
            naming,
            analysis,
            &mut events,
        );
    }
    ModuleCfg {
        module: module.name.clone(),
        events,
        resets,
    }
}

/// Projects the AR_CFG out of a full module CFG (Algorithm 1, lines 10–15).
#[must_use]
pub fn project_ar_cfg(cfg: &ModuleCfg) -> ArCfg {
    ArCfg {
        module: cfg.module.clone(),
        events: cfg
            .events
            .iter()
            .filter(|e| e.governor.is_some())
            .cloned()
            .collect(),
        resets: cfg.resets.clone(),
    }
}

/// Convenience: extract and project every module of a source unit.
#[must_use]
pub fn extract_all(
    unit: &SourceUnit,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
) -> Vec<(ModuleCfg, ArCfg)> {
    extract_all_jobs(unit, naming, analysis, 1).0
}

/// Like [`extract_all`], fanning the per-module extraction (Algorithm 1 is
/// embarrassingly parallel across modules) over up to `jobs` workers.
///
/// Results come back in source order regardless of `jobs` — the pool
/// merges by module index, never by completion order — so the downstream
/// serial compose step sees an identical input either way. Also returns
/// the pool's utilization counters for stage reporting.
#[must_use]
pub fn extract_all_jobs(
    unit: &SourceUnit,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
    jobs: usize,
) -> (Vec<(ModuleCfg, ArCfg)>, soccar_exec::PoolStats) {
    let (cfgs, stats, reasons) = extract_all_resilient(
        unit,
        naming,
        analysis,
        jobs,
        soccar_exec::FailurePolicy::FailFast,
        &soccar_exec::FaultPlan::default(),
    );
    debug_assert!(reasons.is_empty(), "FailFast never degrades");
    (cfgs, stats)
}

/// Like [`extract_all_jobs`] under an explicit [`FailurePolicy`] and
/// [`FaultPlan`].
///
/// Under [`FailurePolicy::KeepGoing`] a module whose extraction panics
/// contributes an *empty* CFG (its name resolves, it governs nothing)
/// plus a degradation reason, instead of aborting the stage. The fault
/// plan's `task_panic@extract:N` point fires on the 1-based *source
/// index* of the module — a deterministic key, independent of worker
/// scheduling.
///
/// [`FailurePolicy`]: soccar_exec::FailurePolicy
/// [`FaultPlan`]: soccar_exec::FaultPlan
/// [`FailurePolicy::KeepGoing`]: soccar_exec::FailurePolicy::KeepGoing
#[must_use]
pub fn extract_all_resilient(
    unit: &SourceUnit,
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
    jobs: usize,
    policy: soccar_exec::FailurePolicy,
    plan: &soccar_exec::FaultPlan,
) -> (Vec<(ModuleCfg, ArCfg)>, soccar_exec::PoolStats, Vec<String>) {
    let items: Vec<(u64, &Module)> = unit
        .modules
        .iter()
        .enumerate()
        .map(|(i, m)| ((i + 1) as u64, m))
        .collect();
    let (outcomes, stats) = soccar_exec::parallel_map_policy(jobs, &items, policy, |(idx, m)| {
        if plan.should_inject("task_panic:extract", *idx) {
            panic!("injected fault: task_panic@extract:{idx}");
        }
        let cfg = extract_module_cfg(m, naming, analysis);
        let ar = project_ar_cfg(&cfg);
        (cfg, ar)
    });
    let mut reasons = Vec::new();
    let cfgs = outcomes
        .into_iter()
        .zip(&items)
        .map(|(outcome, (_, m))| match outcome {
            soccar_exec::TaskOutcome::Ok(pair) => pair,
            soccar_exec::TaskOutcome::Failed { panic } => {
                reasons.push(format!("module `{}`: extraction failed: {panic}", m.name));
                (
                    ModuleCfg {
                        module: m.name.clone(),
                        events: Vec::new(),
                        resets: Vec::new(),
                    },
                    ArCfg {
                        module: m.name.clone(),
                        events: Vec::new(),
                        resets: Vec::new(),
                    },
                )
            }
        })
        .collect();
    (cfgs, stats, reasons)
}

fn extract_block_events(
    module: &Module,
    always_index: u32,
    block: &AlwaysBlock,
    resets: &[ResetSignal],
    naming: &ResetNaming,
    analysis: GovernorAnalysis,
    out: &mut Vec<HardwareEvent>,
) {
    let edge_resets: Vec<&ResetSignal> = match &block.sensitivity {
        Sensitivity::List(items) => items
            .iter()
            .filter(|i| i.edge.is_some())
            .filter_map(|i| resets.iter().find(|r| r.name == i.signal))
            .collect(),
        Sensitivity::Star => Vec::new(),
    };

    // Case A: edge-sensitive block with a reset in the sensitivity list.
    if !edge_resets.is_empty() {
        if let Some((cond, then_stmt, else_stmt)) = leading_if(&block.body) {
            if let Some(reset) = edge_resets.iter().find(|r| cond.is_signal_test(&r.name)) {
                // Explicit governor: classic reset template.
                out.push(HardwareEvent {
                    module: module.name.clone(),
                    always_index,
                    arm: EventArm::ResetArm,
                    governor: Some(Governor {
                        reset: reset.name.clone(),
                        active_low: reset.active_low,
                        explicit: true,
                        composed_with_clock: false,
                    }),
                    assigned: assigned_signals(then_stmt),
                    span: then_stmt.span(),
                });
                out.push(HardwareEvent {
                    module: module.name.clone(),
                    always_index,
                    arm: EventArm::OperationalArm,
                    governor: None,
                    assigned: else_stmt.map(assigned_signals).unwrap_or_default(),
                    span: else_stmt.map_or(block.span, Stmt::span),
                });
                return;
            }
        }
        // No leading test of the reset: implicit governor. The Explicit
        // analysis cannot see it — the exact blind spot of Section V-C.
        match analysis {
            GovernorAnalysis::Explicit => {
                out.push(HardwareEvent {
                    module: module.name.clone(),
                    always_index,
                    arm: EventArm::WholeBlock,
                    governor: None, // missed
                    assigned: assigned_signals(&block.body),
                    span: block.span,
                });
            }
            GovernorAnalysis::Refined => {
                let reset = edge_resets[0];
                let composed = tests_clock_level(&block.body, naming);
                out.push(HardwareEvent {
                    module: module.name.clone(),
                    always_index,
                    arm: EventArm::WholeBlock,
                    governor: Some(Governor {
                        reset: reset.name.clone(),
                        active_low: reset.active_low,
                        explicit: false,
                        composed_with_clock: composed,
                    }),
                    assigned: assigned_signals(&block.body),
                    span: block.span,
                });
            }
        }
        return;
    }

    // Case B: combinational / level block testing a reset in its leading
    // conditional (synchronous-style reset logic): explicit governor.
    if let Some((cond, then_stmt, else_stmt)) = leading_if(&block.body) {
        if let Some(reset) = resets.iter().find(|r| cond.is_signal_test(&r.name)) {
            out.push(HardwareEvent {
                module: module.name.clone(),
                always_index,
                arm: EventArm::ResetArm,
                governor: Some(Governor {
                    reset: reset.name.clone(),
                    active_low: reset.active_low,
                    explicit: true,
                    composed_with_clock: false,
                }),
                assigned: assigned_signals(then_stmt),
                span: then_stmt.span(),
            });
            out.push(HardwareEvent {
                module: module.name.clone(),
                always_index,
                arm: EventArm::OperationalArm,
                governor: None,
                assigned: else_stmt.map(assigned_signals).unwrap_or_default(),
                span: else_stmt.map_or(block.span, Stmt::span),
            });
            return;
        }
    }

    // Case C: ordinary block, no reset involvement.
    out.push(HardwareEvent {
        module: module.name.clone(),
        always_index,
        arm: EventArm::WholeBlock,
        governor: None,
        assigned: assigned_signals(&block.body),
        span: block.span,
    });
}

/// Collects target signal base names assigned anywhere in `stmt`.
#[must_use]
pub fn assigned_signals(stmt: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    walk_assigned(stmt, &mut out);
    out.sort();
    out.dedup();
    out
}

fn walk_assigned(stmt: &Stmt, out: &mut Vec<String>) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                walk_assigned(s, out);
            }
        }
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            walk_assigned(then_stmt, out);
            if let Some(e) = else_stmt {
                walk_assigned(e, out);
            }
        }
        Stmt::Case { arms, .. } => {
            for arm in arms {
                walk_assigned(&arm.body, out);
            }
        }
        Stmt::Blocking { lhs, .. } | Stmt::NonBlocking { lhs, .. } => {
            lvalue_bases(lhs, out);
        }
        Stmt::For { var, body, .. } => {
            out.push(var.clone());
            walk_assigned(body, out);
        }
        Stmt::Null { .. } => {}
    }
}

fn lvalue_bases(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Ident { name, .. } => out.push(name.clone()),
        Expr::Index { base, .. }
        | Expr::PartSelect { base, .. }
        | Expr::IndexedPartSelect { base, .. } => out.push(base.clone()),
        Expr::Concat { parts, .. } => {
            for p in parts {
                lvalue_bases(p, out);
            }
        }
        _ => {}
    }
}

/// `true` if any `if` condition inside `stmt` tests a clock-named signal
/// at level (the clock-composition marker of the SHA256 construct).
///
/// Public so the lint rules (`implicit-governor`) can classify the same
/// construct the Refined extraction recognizes.
#[must_use]
pub fn tests_clock_level(stmt: &Stmt, naming: &ResetNaming) -> bool {
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter().any(|s| tests_clock_level(s, naming)),
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            ..
        } => {
            let mut reads = Vec::new();
            cond.collect_reads(&mut reads);
            reads.iter().any(|r| naming.is_clock_name(r))
                || tests_clock_level(then_stmt, naming)
                || else_stmt
                    .as_deref()
                    .is_some_and(|e| tests_clock_level(e, naming))
        }
        Stmt::Case { arms, .. } => arms.iter().any(|a| tests_clock_level(&a.body, naming)),
        Stmt::For { body, .. } => tests_clock_level(body, naming),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    fn extract(src: &str, analysis: GovernorAnalysis) -> (ModuleCfg, ArCfg) {
        let unit = parse(FileId(0), src).expect("parse");
        let cfg = extract_module_cfg(&unit.modules[0], &ResetNaming::new(), analysis);
        let ar = project_ar_cfg(&cfg);
        (cfg, ar)
    }

    const CLASSIC: &str = "module m(input clk, rst_n, input [7:0] d, output reg [7:0] q, k);
        always @(posedge clk or negedge rst_n)
          if (!rst_n) begin q <= 8'd0; end
          else begin q <= d; k <= d; end
      endmodule";

    #[test]
    fn classic_reset_template_extracted() {
        let (cfg, ar) = extract(CLASSIC, GovernorAnalysis::Explicit);
        assert_eq!(cfg.events.len(), 2);
        assert_eq!(ar.events.len(), 1);
        let ev = &ar.events[0];
        assert_eq!(ev.arm, EventArm::ResetArm);
        let g = ev.governor.as_ref().expect("governed");
        assert_eq!(g.reset, "rst_n");
        assert!(g.explicit);
        assert!(g.active_low);
        assert_eq!(ev.assigned, vec!["q".to_owned()]);
        // Operational arm assigns both.
        let op = cfg
            .events
            .iter()
            .find(|e| e.arm == EventArm::OperationalArm)
            .expect("op arm");
        assert_eq!(op.assigned, vec!["k".to_owned(), "q".to_owned()]);
    }

    #[test]
    fn plain_clocked_block_not_in_ar_cfg() {
        let (cfg, ar) = extract(
            "module m(input clk, input [3:0] d, output reg [3:0] q);
               always @(posedge clk) q <= d;
             endmodule",
            GovernorAnalysis::Explicit,
        );
        assert_eq!(cfg.events.len(), 1);
        assert!(ar.is_empty());
    }

    const IMPLICIT: &str =
        "module sha(input clk, input sec_rst_n, input [7:0] pt, output reg [7:0] ct);
        always @(negedge sec_rst_n)
          if (clk) ct <= pt;
      endmodule";

    #[test]
    fn implicit_governor_missed_by_explicit_analysis() {
        // The Section V-C blind spot, reproduced.
        let (cfg, ar) = extract(IMPLICIT, GovernorAnalysis::Explicit);
        assert_eq!(cfg.events.len(), 1);
        assert!(
            ar.is_empty(),
            "explicit analysis must miss the implicit governor"
        );
    }

    #[test]
    fn implicit_governor_found_by_refined_analysis() {
        let (_, ar) = extract(IMPLICIT, GovernorAnalysis::Refined);
        assert_eq!(ar.events.len(), 1);
        let g = ar.events[0].governor.as_ref().expect("governed");
        assert!(!g.explicit);
        assert!(g.composed_with_clock);
        assert_eq!(ar.events[0].arm, EventArm::WholeBlock);
    }

    #[test]
    fn combinational_reset_logic_is_governed() {
        let (_, ar) = extract(
            "module m(input rst_n, input [3:0] d, output reg [3:0] y);
               always @* if (!rst_n) y = 4'd0; else y = d;
             endmodule",
            GovernorAnalysis::Explicit,
        );
        assert_eq!(ar.events.len(), 1);
        assert!(ar.events[0].governor.as_ref().expect("g").explicit);
    }

    #[test]
    fn multiple_blocks_indexed() {
        let src = "module m(input clk, rst_n, input [3:0] d, output reg [3:0] a, b);
            always @(posedge clk or negedge rst_n)
              if (!rst_n) a <= 4'd0; else a <= d;
            always @(posedge clk) b <= d;
          endmodule";
        let (cfg, ar) = extract(src, GovernorAnalysis::Explicit);
        assert_eq!(cfg.events.len(), 3);
        assert_eq!(ar.events.len(), 1);
        assert_eq!(ar.events[0].always_index, 0);
    }

    #[test]
    fn active_high_reset_governor() {
        let (_, ar) = extract(
            "module m(input clk, input reset, output reg q);
               always @(posedge clk or posedge reset)
                 if (reset) q <= 1'b0; else q <= 1'b1;
             endmodule",
            GovernorAnalysis::Explicit,
        );
        let g = ar.events[0].governor.as_ref().expect("g");
        assert!(!g.active_low);
    }

    #[test]
    fn extract_all_covers_every_module() {
        let unit = parse(FileId(0), &format!("{CLASSIC} {IMPLICIT}")).expect("parse");
        let all = extract_all(&unit, &ResetNaming::new(), GovernorAnalysis::Explicit);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1.events.len(), 1);
        assert!(all[1].1.is_empty());
    }

    #[test]
    fn case_and_for_assignments_collected() {
        let (cfg, _) = extract(
            "module m(input clk, input [1:0] s, output reg [3:0] a, b);
               integer i;
               always @(posedge clk) begin
                 case (s)
                   2'd0: a <= 4'd1;
                   default: b <= 4'd2;
                 endcase
                 for (i = 0; i < 2; i = i + 1) a <= a + 4'd1;
               end
             endmodule",
            GovernorAnalysis::Explicit,
        );
        let ev = &cfg.events[0];
        assert!(ev.assigned.contains(&"a".to_owned()));
        assert!(ev.assigned.contains(&"b".to_owned()));
        assert!(ev.assigned.contains(&"i".to_owned()));
    }
}
