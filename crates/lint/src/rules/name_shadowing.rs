//! `reset-name-shadowing` — a signal that matches the reset naming
//! convention but is not structurally a reset.
//!
//! SoCCAR's reset identification (paper footnote 1) leans on a naming
//! convention. A data signal named `rst_count` or `clear_pending` matches
//! the convention while carrying no reset semantics, polluting the reset
//! inventory and the domain analysis built on it. This rule flags
//! declared signals whose name matches the convention but that are never
//! edge-qualified in a sensitivity list, never tested by a leading reset
//! conditional, and never forwarded to a child reset port.

use soccar_rtl::span::Span;

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::{LintRule, SYNC_MARKERS};

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResetNameShadowing;

impl LintRule for ResetNameShadowing {
    fn id(&self) -> &'static str {
        "reset-name-shadowing"
    }

    fn description(&self) -> &'static str {
        "signal matching the reset naming convention that is not structurally a reset"
    }

    fn default_severity(&self) -> Severity {
        Severity::Info
    }

    fn check(&self, ctx: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        let mut candidates: Vec<(&str, Span)> = view
            .module
            .ports
            .iter()
            .map(|p| (p.name.as_str(), p.span))
            .collect();
        candidates.extend(
            view.module
                .net_decls()
                .flat_map(|d| &d.names)
                .map(|d| (d.name.as_str(), d.span)),
        );
        for (name, span) in candidates {
            if !ctx.naming.is_reset_name(name) {
                continue;
            }
            let lower = name.to_ascii_lowercase();
            if SYNC_MARKERS.iter().any(|m| lower.contains(m)) {
                continue; // synchronizer stages are reset infrastructure
            }
            if used_as_reset(ctx, view, name) {
                continue;
            }
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                &view.module.name,
                span,
                format!(
                    "`{name}` matches the reset naming convention but is never used \
                     as a reset (no edge sensitivity, no leading reset test, not \
                     forwarded to a child reset port); it shadows name-based reset \
                     identification"
                ),
            ));
        }
    }
}

fn used_as_reset(ctx: &LintContext<'_>, view: &ModuleView<'_>, name: &str) -> bool {
    // Edge-qualified anywhere, or tested by a leading conditional.
    for block in view.module.always_blocks() {
        if block.edge_items().any(|i| i.signal == name) {
            return true;
        }
        if soccar_cfg::leading_condition_tests(&block.body, name) {
            return true;
        }
    }
    // Forwarded (possibly through an expression) into a child reset port.
    for inst in view.module.instances() {
        let child = ctx.resets_of(&inst.module);
        for conn in &inst.conns {
            let Some(expr) = &conn.expr else { continue };
            let mut reads = Vec::new();
            expr.collect_reads(&mut reads);
            if !reads.iter().any(|r| r == name) {
                continue;
            }
            let port_is_reset = match child {
                Some(resets) => resets.iter().any(|r| r.name == conn.port),
                None => ctx.naming.is_reset_name(&conn.port),
            };
            if port_is_reset {
                return true;
            }
        }
    }
    false
}
