//! `reset-crosses-domains` — a reset generated in one clock domain
//! resetting registers clocked by another.
//!
//! A reset asserted by a flop in domain `clk_a` and consumed
//! asynchronously by flops in domain `clk_b` releases with `clk_a` timing
//! into `clk_b` logic: the receiving registers can leave reset at any
//! phase of their own clock. This is the classic reset-domain-crossing
//! (RDC) hazard, and the paper's Table III "reset interactions across
//! domains" bug class grows out of exactly this structure.

use std::collections::BTreeMap;

use soccar_cfg::assigned_signals;

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::LintRule;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResetCrossesDomains;

impl LintRule for ResetCrossesDomains {
    fn id(&self) -> &'static str {
        "reset-crosses-domains"
    }

    fn description(&self) -> &'static str {
        "reset generated in one clock domain resets registers clocked by another"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, _: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        // Which clock each locally generated signal belongs to.
        let mut gen_domain: BTreeMap<String, String> = BTreeMap::new();
        for block in view.module.always_blocks() {
            let Some(clock) = view.clock_of(block) else {
                continue;
            };
            for signal in assigned_signals(&block.body) {
                gen_domain
                    .entry(signal)
                    .or_insert_with(|| clock.signal.clone());
            }
        }
        for block in view.module.always_blocks() {
            let Some(sink_clock) = view.clock_of(block) else {
                continue;
            };
            for reset in view.async_resets_of(block) {
                let Some(src_clock) = gen_domain.get(&reset.signal) else {
                    continue; // external reset: origin unknown here
                };
                if src_clock != &sink_clock.signal {
                    out.push(Diagnostic::new(
                        self.id(),
                        self.default_severity(),
                        &view.module.name,
                        block.span,
                        format!(
                            "reset `{}` is generated by a register in clock domain \
                             `{src_clock}` but asynchronously resets registers clocked \
                             by `{}`; its release is untimed in the receiving domain",
                            reset.signal, sink_clock.signal
                        ),
                    ));
                }
            }
        }
    }
}
