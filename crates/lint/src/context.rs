//! Shared analysis context handed to every lint rule.
//!
//! The design-wide facts — each module's identified resets and the
//! Algorithm 2 connection profiles — are computed once per lint run
//! ([`DesignFacts`]) and depend only on the design's structure, so a
//! caller may keep them across runs of the same structure. A module's
//! Explicit-mode CFG (what the published extraction sees) is computed
//! only when that module is linted ([`LintContext::view`]).

use std::collections::HashMap;

use soccar_cfg::{
    connection_profiles_with, extract_module_cfg_with, identify_resets, ConnectionProfile,
    GovernorAnalysis, ModuleCfg, ResetNaming, ResetSignal, ResetTable,
};
use soccar_rtl::ast::{AlwaysBlock, SensItem, SourceUnit};

/// Per-module pre-computed analysis shared by the rules.
#[derive(Debug)]
pub struct ModuleView<'a> {
    /// The module AST.
    pub module: &'a soccar_rtl::ast::Module,
    /// The full Explicit-mode CFG (what the published tool extracts),
    /// including the module's identified resets.
    pub cfg: ModuleCfg,
}

impl ModuleView<'_> {
    /// `true` if `name` is an identified reset of this module.
    #[must_use]
    pub fn is_reset(&self, name: &str) -> bool {
        self.cfg.resets.iter().any(|r| r.name == name)
    }

    /// Edge-qualified sensitivity items of `block` that are identified
    /// resets of this module.
    #[must_use]
    pub fn async_resets_of<'b>(&self, block: &'b AlwaysBlock) -> Vec<&'b SensItem> {
        block
            .edge_items()
            .filter(|i| self.is_reset(&i.signal))
            .collect()
    }

    /// The clock of `block`: the first edge-qualified item that is not an
    /// identified reset.
    #[must_use]
    pub fn clock_of<'b>(&self, block: &'b AlwaysBlock) -> Option<&'b SensItem> {
        block.edge_items().find(|i| !self.is_reset(&i.signal))
    }
}

/// The design-wide facts rules read across modules. They depend only on
/// the unit's structure and the reset naming convention.
#[derive(Debug, Clone)]
pub struct DesignFacts {
    /// Identified resets of each module, in source order.
    pub resets: Vec<Vec<ResetSignal>>,
    /// Algorithm 2 connection profiles, one per module, in source order.
    pub profiles: Vec<ConnectionProfile>,
    /// Index of the first module of each name.
    by_name: HashMap<String, usize>,
}

impl DesignFacts {
    /// Identifies every module's resets once and builds the connection
    /// profiles from them.
    pub(crate) fn build(unit: &SourceUnit, naming: &ResetNaming) -> DesignFacts {
        let resets: Vec<Vec<ResetSignal>> = unit
            .modules
            .iter()
            .map(|m| identify_resets(m, naming))
            .collect();
        let table = ResetTable::new(
            unit.modules
                .iter()
                .zip(&resets)
                .map(|(m, r)| (m.name.as_str(), r.as_slice())),
        );
        let profiles = connection_profiles_with(unit, naming, &table);
        let mut by_name = HashMap::with_capacity(unit.modules.len());
        for (i, m) in unit.modules.iter().enumerate() {
            by_name.entry(m.name.clone()).or_insert(i);
        }
        DesignFacts {
            resets,
            profiles,
            by_name,
        }
    }
}

/// Everything a [`crate::LintRule`] may consult.
#[derive(Debug, Clone, Copy)]
pub struct LintContext<'a> {
    /// The parsed design.
    pub unit: &'a SourceUnit,
    /// Naming convention in force.
    pub naming: &'a ResetNaming,
    /// Design-wide facts of `unit` under `naming`.
    pub facts: &'a DesignFacts,
}

impl<'a> LintContext<'a> {
    /// The view of module `index`: its Explicit-mode CFG, extracted over
    /// the resets the facts already hold.
    #[must_use]
    pub fn view(&self, index: usize) -> ModuleView<'a> {
        let module = &self.unit.modules[index];
        ModuleView {
            module,
            cfg: extract_module_cfg_with(
                module,
                self.facts.resets[index].clone(),
                self.naming,
                GovernorAnalysis::Explicit,
            ),
        }
    }

    /// The connection profile of the first module named `module`, if it
    /// exists.
    #[must_use]
    pub fn profile(&self, module: &str) -> Option<&'a ConnectionProfile> {
        let facts: &'a DesignFacts = self.facts;
        facts.by_name.get(module).map(|&i| &facts.profiles[i])
    }

    /// The identified resets of the first module named `module`, if it
    /// exists.
    #[must_use]
    pub fn resets_of(&self, module: &str) -> Option<&'a [ResetSignal]> {
        let facts: &'a DesignFacts = self.facts;
        facts
            .by_name
            .get(module)
            .map(|&i| facts.resets[i].as_slice())
    }
}
