//! `combinational-reset-gen` — a reset derived from combinational logic.
//!
//! A reset produced by an `assign` or a combinational `always` block can
//! glitch while its input cone settles; consumed asynchronously, every
//! glitch is a spurious reset pulse. Resets should be registered (and
//! their release synchronized — see `async-reset-unsynchronized`).

use std::collections::BTreeSet;

use soccar_cfg::assigned_signals;

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::{lhs_base_names, LintRule};

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombinationalResetGen;

impl LintRule for CombinationalResetGen {
    fn id(&self) -> &'static str {
        "combinational-reset-gen"
    }

    fn description(&self) -> &'static str {
        "reset signal driven by combinational logic (assign or always @*)"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, ctx: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        // Reset sinks: consumed asynchronously here, or forwarded to a
        // port the child module identifies as a reset.
        let mut sinks: BTreeSet<String> = view
            .module
            .always_blocks()
            .flat_map(|b| view.async_resets_of(b))
            .map(|i| i.signal.clone())
            .collect();
        if let Some(profile) = ctx.profile(&view.module.name) {
            sinks.extend(
                profile
                    .children
                    .iter()
                    .flat_map(|c| &c.reset_conns)
                    .filter_map(|conn| conn.actual.clone()),
            );
        }
        if sinks.is_empty() {
            return;
        }
        for (lhs, _, span) in view.module.assigns() {
            let mut bases = Vec::new();
            lhs_base_names(lhs, &mut bases);
            for base in bases {
                if sinks.contains(&base) {
                    out.push(Diagnostic::new(
                        self.id(),
                        self.default_severity(),
                        &view.module.name,
                        span,
                        format!(
                            "reset `{base}` is driven by a continuous assignment; \
                             combinational glitches become spurious asynchronous \
                             reset pulses"
                        ),
                    ));
                }
            }
        }
        for block in view.module.always_blocks() {
            if !block.is_combinational() {
                continue;
            }
            for signal in assigned_signals(&block.body) {
                if sinks.contains(&signal) {
                    out.push(Diagnostic::new(
                        self.id(),
                        self.default_severity(),
                        &view.module.name,
                        block.span,
                        format!(
                            "reset `{signal}` is driven by a combinational always \
                             block; combinational glitches become spurious \
                             asynchronous reset pulses"
                        ),
                    ));
                }
            }
        }
    }
}
