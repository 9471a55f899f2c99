//! `partial-reset-domain` — registers split between reset-governed and
//! never-reset.
//!
//! Two findings, in decreasing severity:
//!
//! 1. **Error** — inside one guarded block, a register assigned in the
//!    operational arm but not in the reset arm: reset leaves it holding
//!    pre-reset (possibly secret) state. This is exactly the paper's
//!    Table III *information leakage* class, and the construct the
//!    `LeakExplicit` bug seeds (`key_reg`/`pt_reg` not scrubbed).
//! 2. **Info** — a module that is otherwise reset-governed also contains
//!    clocked registers with no reset at all. Sometimes deliberate
//!    (verification monitors), but worth surfacing because those
//!    registers silently escape every reset-domain property.

use std::collections::BTreeSet;

use soccar_cfg::{assigned_signals, EventArm};

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};
use crate::rules::LintRule;

/// See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialResetDomain;

impl LintRule for PartialResetDomain {
    fn id(&self) -> &'static str {
        "partial-reset-domain"
    }

    fn description(&self) -> &'static str {
        "registers split between reset-governed and never-reset"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, _: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>) {
        // Finding 1: operational-arm registers the reset arm misses.
        for reset_ev in &view.cfg.events {
            if reset_ev.arm != EventArm::ResetArm {
                continue;
            }
            let Some(governor) = &reset_ev.governor else {
                continue;
            };
            let Some(op_ev) = view.cfg.events.iter().find(|e| {
                e.always_index == reset_ev.always_index && e.arm == EventArm::OperationalArm
            }) else {
                continue;
            };
            let cleared: BTreeSet<&str> = reset_ev.assigned.iter().map(String::as_str).collect();
            let missing: Vec<&str> = op_ev
                .assigned
                .iter()
                .map(String::as_str)
                .filter(|s| !cleared.contains(s))
                .collect();
            if !missing.is_empty() {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    &view.module.name,
                    op_ev.span,
                    format!(
                        "register(s) {} are assigned in the operational arm but not \
                         in the `{}` reset arm; reset leaves them holding pre-reset \
                         state",
                        name_list(&missing),
                        governor.reset
                    ),
                ));
            }
        }

        // Finding 2: never-reset registers in a reset-governed module.
        let governed: BTreeSet<String> = view
            .module
            .always_blocks()
            .filter(|b| !view.async_resets_of(b).is_empty())
            .flat_map(|b| assigned_signals(&b.body))
            .collect();
        if governed.is_empty() {
            return;
        }
        for block in view.module.always_blocks() {
            if block.is_combinational() || !view.async_resets_of(block).is_empty() {
                continue;
            }
            let unreset: Vec<String> = assigned_signals(&block.body)
                .into_iter()
                .filter(|s| !governed.contains(s))
                .collect();
            if !unreset.is_empty() {
                let unreset: Vec<&str> = unreset.iter().map(String::as_str).collect();
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Info,
                    &view.module.name,
                    block.span,
                    format!(
                        "register(s) {} are clocked but never reset while the rest \
                         of the module is reset-governed; they escape every \
                         reset-domain property",
                        name_list(&unreset)
                    ),
                ));
            }
        }
    }
}

fn name_list(names: &[&str]) -> String {
    names
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}
