//! The lint rule trait and the built-in rule set.
//!
//! Each rule is a stateless object behind the [`LintRule`] trait, run
//! over one module at a time; the registry ([`crate::Linter`]) owns a
//! `Vec<Box<dyn LintRule>>`, so new rules — including rules defined
//! outside this crate — plug in without touching the runner. Rules emit
//! [`Diagnostic`]s at their [`LintRule::default_severity`]; per-rule
//! `allow`/`deny` configuration is applied afterwards by the registry.

use soccar_rtl::ast::Expr;

use crate::context::{LintContext, ModuleView};
use crate::diagnostic::{Diagnostic, Severity};

mod async_sync;
mod comb_reset;
mod cross_domain;
mod implicit_governor;
mod name_shadowing;
mod partial_domain;

pub use async_sync::AsyncResetUnsynchronized;
pub use comb_reset::CombinationalResetGen;
pub use cross_domain::ResetCrossesDomains;
pub use implicit_governor::ImplicitGovernor;
pub use name_shadowing::ResetNameShadowing;
pub use partial_domain::PartialResetDomain;

/// A single static check over the design.
///
/// A large design is linted module by module on the worker pool, so a
/// rule is shared across threads: it must be `Send + Sync`.
pub trait LintRule: Send + Sync {
    /// Stable kebab-case identifier used in configuration and output.
    fn id(&self) -> &'static str;

    /// One-line description for `--help`-style listings and docs.
    fn description(&self) -> &'static str;

    /// Severity findings carry unless the registry overrides it.
    fn default_severity(&self) -> Severity;

    /// Runs the rule over one module, appending findings in that module
    /// to `out`. Design-wide facts (child resets, connection profiles)
    /// come from `ctx`.
    fn check(&self, ctx: &LintContext<'_>, view: &ModuleView<'_>, out: &mut Vec<Diagnostic>);
}

impl std::fmt::Debug for dyn LintRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LintRule({})", self.id())
    }
}

/// The built-in rule set, in stable id order.
#[must_use]
pub fn default_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(AsyncResetUnsynchronized),
        Box::new(CombinationalResetGen),
        Box::new(ImplicitGovernor),
        Box::new(PartialResetDomain),
        Box::new(ResetCrossesDomains),
        Box::new(ResetNameShadowing),
    ]
}

/// Name fragments that mark a signal as a synchronizer stage or an
/// already-synchronized copy (cf. the learn_vhdl-style CDC rule sets).
pub(crate) const SYNC_MARKERS: [&str; 7] =
    ["_sync", "_synced", "_meta", "_d1", "_d2", "_ff1", "_ff2"];

/// Collects the base identifier names an lvalue expression writes.
pub(crate) fn lhs_base_names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Ident { name, .. } => out.push(name.clone()),
        Expr::Index { base, .. }
        | Expr::PartSelect { base, .. }
        | Expr::IndexedPartSelect { base, .. } => out.push(base.clone()),
        Expr::Concat { parts, .. } => {
            for p in parts {
                lhs_base_names(p, out);
            }
        }
        _ => {}
    }
}
