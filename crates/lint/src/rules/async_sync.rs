//! `async-reset-unsynchronized` — asynchronous reset consumed without a
//! release synchronizer.
//!
//! Asserting an asynchronous reset is safe at any time, but *releasing* it
//! near the sink's active clock edge can violate recovery/removal timing
//! and drop different flops out of reset on different cycles. The standard
//! fix is a 2-FF release synchronizer in the sink clock domain. This rule
//! flags every module that consumes a raw asynchronous reset in a clocked
//! block while containing no recognizable synchronizer for it.

use std::collections::BTreeSet;

use soccar_cfg::leading_if;
use soccar_rtl::ast::{Expr, Stmt};

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::{lhs_base_names, LintRule, SYNC_MARKERS};

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncResetUnsynchronized;

impl LintRule for AsyncResetUnsynchronized {
    fn id(&self) -> &'static str {
        "async-reset-unsynchronized"
    }

    fn description(&self) -> &'static str {
        "async reset consumed with no 2-FF release synchronizer in the sink clock domain"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, _: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        let mut reported = BTreeSet::new();
        for block in view.module.always_blocks() {
            if view.clock_of(block).is_none() {
                continue; // reset-only sensitivity: implicit-governor's case
            }
            for item in view.async_resets_of(block) {
                let name = item.signal.to_ascii_lowercase();
                if SYNC_MARKERS.iter().any(|m| name.contains(m)) {
                    continue; // already a synchronized copy by naming
                }
                if has_release_synchronizer(view, &item.signal) {
                    continue;
                }
                if reported.insert(item.signal.clone()) {
                    out.push(Diagnostic::new(
                        self.id(),
                        self.default_severity(),
                        &view.module.name,
                        block.span,
                        format!(
                            "asynchronous reset `{}` is consumed directly; no 2-FF \
                             release synchronizer for it exists in this module, so \
                             reset release can violate recovery/removal timing",
                            item.signal
                        ),
                    ));
                }
            }
        }
    }
}

/// `true` if `view` contains a recognizable 2-FF release synchronizer for
/// reset `r`: a clocked block with `r` edge-qualified, a leading test of
/// `r`, and an operational arm that shifts a constant through a chain of
/// at least two registers (`meta <= 1'b1; sync <= meta;`).
fn has_release_synchronizer(view: &ModuleView<'_>, r: &str) -> bool {
    view.module.always_blocks().any(|block| {
        view.clock_of(block).is_some()
            && view.async_resets_of(block).iter().any(|i| i.signal == r)
            && leading_if(&block.body).is_some_and(|(cond, _, els)| {
                cond.is_signal_test(r) && els.is_some_and(is_constant_shift_chain)
            })
    })
}

/// `true` if the statement is a chain of ≥2 register assignments where one
/// register is fed a constant and another is fed from a register assigned
/// in the same arm.
fn is_constant_shift_chain(arm: &Stmt) -> bool {
    let mut assigns: Vec<(Vec<String>, &Expr)> = Vec::new();
    collect_assigns(arm, &mut assigns);
    if assigns.len() < 2 {
        return false;
    }
    let targets: BTreeSet<&str> = assigns
        .iter()
        .flat_map(|(lhs, _)| lhs.iter().map(String::as_str))
        .collect();
    let feeds_constant = assigns
        .iter()
        .any(|(_, rhs)| matches!(rhs, Expr::Number { .. }));
    let shifts_stage = assigns
        .iter()
        .any(|(_, rhs)| matches!(rhs, Expr::Ident { name, .. } if targets.contains(name.as_str())));
    feeds_constant && shifts_stage
}

fn collect_assigns<'a>(stmt: &'a Stmt, out: &mut Vec<(Vec<String>, &'a Expr)>) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                collect_assigns(s, out);
            }
        }
        Stmt::Blocking { lhs, rhs, .. } | Stmt::NonBlocking { lhs, rhs, .. } => {
            let mut bases = Vec::new();
            lhs_base_names(lhs, &mut bases);
            out.push((bases, rhs));
        }
        _ => {}
    }
}
