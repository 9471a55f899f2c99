//! `implicit-governor` — an always block governed by an asynchronous reset
//! with no explicit leading reset test.
//!
//! This is the SoCCAR Section V-C blind spot, reproduced by AutoSoC
//! Variant #2's SHA256 engine:
//!
//! ```verilog
//! always @(negedge rst_n)
//!   if (clk) ct_out <= pt_reg;
//! ```
//!
//! The reset appears edge-qualified in the sensitivity list but is never
//! tested by the block's leading conditional, so the Explicit governor
//! analysis extracts **no** governor and the block's behavior under reset
//! goes unexplored. When the body additionally tests a clock at level, the
//! block fires only on a reset edge composed with a specific clock phase —
//! the exact construct used to exfiltrate plaintext in the paper. The
//! static rule flags the construct directly, naming the module, so it is
//! caught even when the concolic stage runs in Explicit mode.

use soccar_cfg::{leading_if, tests_clock_level};

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::LintRule;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImplicitGovernor;

impl LintRule for ImplicitGovernor {
    fn id(&self) -> &'static str {
        "implicit-governor"
    }

    fn description(&self) -> &'static str {
        "always block governed by an async reset with no leading reset test (Section V-C blind spot)"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, ctx: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        for block in view.module.always_blocks() {
            let resets = view.async_resets_of(block);
            if resets.is_empty() {
                continue;
            }
            let explicit = leading_if(&block.body)
                .is_some_and(|(cond, _, _)| resets.iter().any(|r| cond.is_signal_test(&r.signal)));
            if explicit {
                continue;
            }
            let composed = tests_clock_level(&block.body, ctx.naming);
            let reset_names = resets
                .iter()
                .map(|r| format!("`{}`", r.signal))
                .collect::<Vec<_>>()
                .join(", ");
            let detail = if composed {
                "; the body tests a clock at level, so the block fires only on a \
                 reset edge composed with that clock phase"
            } else {
                ""
            };
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                &view.module.name,
                block.span,
                format!(
                    "module `{}` has an always block sensitive to reset {reset_names} \
                     with no leading reset test: the reset governs it only implicitly \
                     and the Explicit governor analysis extracts nothing{detail}",
                    view.module.name
                ),
            ));
        }
    }
}
