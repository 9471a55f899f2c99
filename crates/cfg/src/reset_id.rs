//! Reset-signal identification.
//!
//! The paper (footnote 1) identifies reset signals by "a universal naming
//! format with terms such as `resetn` or `rst`", optionally refined by the
//! automated clock/reset analysis of EDA tools. This module implements
//! both: a configurable name heuristic and a structural analysis (a signal
//! that appears edge-qualified in a sensitivity list *alongside* a clock
//! and is tested by the leading conditional of the block is a reset
//! regardless of its name).

use soccar_rtl::ast::{Edge, Module, Sensitivity, Stmt};

/// Configurable reset naming convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetNaming {
    patterns: Vec<String>,
    clock_patterns: Vec<String>,
}

impl Default for ResetNaming {
    fn default() -> ResetNaming {
        ResetNaming {
            patterns: vec!["rst".into(), "reset".into(), "clear".into()],
            clock_patterns: vec!["clk".into(), "clock".into()],
        }
    }
}

impl ResetNaming {
    /// The default convention (`rst`, `reset`, `clear` / `clk`, `clock`).
    #[must_use]
    pub fn new() -> ResetNaming {
        ResetNaming::default()
    }

    /// Replaces the reset name patterns.
    #[must_use]
    pub fn with_patterns(mut self, patterns: Vec<String>) -> ResetNaming {
        self.patterns = patterns;
        self
    }

    /// `true` if `name` looks like a reset by naming convention.
    #[must_use]
    pub fn is_reset_name(&self, name: &str) -> bool {
        looks_like_reset_name(name, &self.patterns)
    }

    /// `true` if `name` looks like a clock by naming convention.
    #[must_use]
    pub fn is_clock_name(&self, name: &str) -> bool {
        self.clock_patterns
            .iter()
            .any(|p| lowercase_contains(name, p))
    }
}

/// Case-insensitive substring match of `name` against `patterns` — the
/// naming heuristic shared by reset identification and the lint rules
/// (e.g. `reset-name-shadowing` reuses it to find reset-looking signals
/// that are not structurally resets).
#[must_use]
pub fn looks_like_reset_name(name: &str, patterns: &[String]) -> bool {
    patterns.iter().any(|p| lowercase_contains(name, p))
}

/// `name.to_ascii_lowercase().contains(pattern)`, without the copy.
fn lowercase_contains(name: &str, pattern: &str) -> bool {
    let pattern = pattern.as_bytes();
    pattern.is_empty()
        || name.as_bytes().windows(pattern.len()).any(|w| {
            w.iter()
                .zip(pattern)
                .all(|(c, p)| c.to_ascii_lowercase() == *p)
        })
}

/// How a reset signal was identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetEvidence {
    /// Name heuristic only.
    Name,
    /// Structural analysis only (edge-qualified + leading conditional).
    Structural,
    /// Both agree.
    Both,
}

/// An identified reset signal of one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetSignal {
    /// Local signal name.
    pub name: String,
    /// Assertion polarity: `true` for active-low (`rst_n`) resets.
    pub active_low: bool,
    /// How it was identified.
    pub evidence: ResetEvidence,
}

/// Identifies the reset signals of `module`.
///
/// A signal qualifies if (a) its name matches the convention and it appears
/// edge-qualified in some sensitivity list, or (b) structurally: it is
/// edge-qualified in a list together with at least one other edge signal
/// and the block's leading conditional tests it. Polarity comes from the
/// edge (negedge → active-low), falling back to the name (`_n`/`n`
/// suffix → active-low).
///
/// # Examples
///
/// ```
/// use soccar_cfg::reset_id::{identify_resets, ResetNaming};
/// use soccar_rtl::{parser::parse, span::FileId};
///
/// let unit = parse(FileId(0), "module m(input clk, input rst_n, output reg q);
///   always @(posedge clk or negedge rst_n)
///     if (!rst_n) q <= 1'b0; else q <= 1'b1;
/// endmodule").expect("parse");
/// let resets = identify_resets(&unit.modules[0], &ResetNaming::new());
/// assert_eq!(resets.len(), 1);
/// assert_eq!(resets[0].name, "rst_n");
/// assert!(resets[0].active_low);
/// ```
#[must_use]
pub fn identify_resets(module: &Module, naming: &ResetNaming) -> Vec<ResetSignal> {
    let mut found: Vec<ResetSignal> = Vec::new();
    let mut note = |name: &str, active_low: bool, evidence: ResetEvidence| {
        if let Some(existing) = found.iter_mut().find(|r| r.name == name) {
            if existing.evidence != evidence {
                existing.evidence = ResetEvidence::Both;
            }
            return;
        }
        found.push(ResetSignal {
            name: name.to_owned(),
            active_low,
            evidence,
        });
    };

    for block in module.always_blocks() {
        let Sensitivity::List(items) = &block.sensitivity else {
            continue;
        };
        let edge_items: Vec<_> = items.iter().filter(|i| i.edge.is_some()).collect();
        for item in &edge_items {
            let active_low = match item.edge {
                Some(Edge::Neg) => true,
                Some(Edge::Pos) => false,
                None => name_suggests_active_low(&item.signal),
            };
            let name_hit = naming.is_reset_name(&item.signal);
            let tested = leading_condition_tests(&block.body, &item.signal);
            let structural_hit =
                edge_items.len() >= 2 && tested && !naming.is_clock_name(&item.signal);
            match (name_hit, structural_hit) {
                (true, true) => note(&item.signal, active_low, ResetEvidence::Both),
                (true, false) => note(&item.signal, active_low, ResetEvidence::Name),
                (false, true) => note(&item.signal, active_low, ResetEvidence::Structural),
                (false, false) => {}
            }
        }
    }
    // Ports that match the naming convention but never appear in a
    // sensitivity list (e.g. resets merely forwarded to children) are
    // reported with Name evidence so domain tracing can follow them.
    for port in &module.ports {
        if naming.is_reset_name(&port.name) && !found.iter().any(|r| r.name == port.name) {
            found.push(ResetSignal {
                name: port.name.clone(),
                active_low: name_suggests_active_low(&port.name),
                evidence: ResetEvidence::Name,
            });
        }
    }
    found
}

/// `true` if the name ends in an active-low marker (`_n`, `_ni`, `n`
/// directly after `rst`/`reset`).
#[must_use]
pub fn name_suggests_active_low(name: &str) -> bool {
    let name = name.as_bytes();
    ["_n", "_ni", "resetn", "rstn"].iter().any(|suffix| {
        name.len() >= suffix.len()
            && name[name.len() - suffix.len()..].eq_ignore_ascii_case(suffix.as_bytes())
    })
}

/// Returns `true` if the first statement of `body` (descending through
/// `begin` blocks) is an `if` whose condition tests `signal`.
#[must_use]
pub fn leading_condition_tests(body: &Stmt, signal: &str) -> bool {
    leading_if(body).is_some_and(|(cond, _, _)| cond.is_signal_test(signal))
}

/// Descends through `begin` wrappers to the first `if`, returning
/// `(condition, then, else)`.
#[must_use]
pub fn leading_if(body: &Stmt) -> Option<(&soccar_rtl::ast::Expr, &Stmt, Option<&Stmt>)> {
    match body {
        Stmt::Block { stmts, .. } => stmts.first().and_then(leading_if),
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
            ..
        } => Some((cond, then_stmt, else_stmt.as_deref())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    fn module(src: &str) -> soccar_rtl::ast::Module {
        let mut unit = parse(FileId(0), src).expect("parse");
        unit.modules.remove(0)
    }

    #[test]
    fn named_active_low_reset() {
        let m = module(
            "module m(input clk, rst_n, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0; else q <= 1'b1;
             endmodule",
        );
        let r = identify_resets(&m, &ResetNaming::new());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "rst_n");
        assert!(r[0].active_low);
        assert_eq!(r[0].evidence, ResetEvidence::Both);
    }

    #[test]
    fn named_active_high_reset() {
        let m = module(
            "module m(input clk, input reset, output reg q);
               always @(posedge clk or posedge reset)
                 if (reset) q <= 1'b0; else q <= 1'b1;
             endmodule",
        );
        let r = identify_resets(&m, &ResetNaming::new());
        assert_eq!(r.len(), 1);
        assert!(!r[0].active_low);
    }

    #[test]
    fn structural_reset_with_odd_name() {
        // `init_b` matches no pattern but is clearly a reset structurally.
        let m = module(
            "module m(input clk, input init_b, output reg q);
               always @(posedge clk or negedge init_b)
                 if (!init_b) q <= 1'b0; else q <= 1'b1;
             endmodule",
        );
        let r = identify_resets(&m, &ResetNaming::new());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "init_b");
        assert_eq!(r[0].evidence, ResetEvidence::Structural);
        assert!(r[0].active_low);
    }

    #[test]
    fn clock_not_misidentified() {
        let m = module(
            "module m(input clk, rst_n, output reg q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0; else q <= 1'b1;
             endmodule",
        );
        let r = identify_resets(&m, &ResetNaming::new());
        assert!(r.iter().all(|s| s.name != "clk"));
    }

    #[test]
    fn forwarded_reset_port_reported() {
        // A module that only forwards the reset to a child still reports it.
        let m = module("module hub(input rst_n, input clk); endmodule");
        let r = identify_resets(&m, &ResetNaming::new());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "rst_n");
        assert_eq!(r[0].evidence, ResetEvidence::Name);
    }

    #[test]
    fn implicit_governor_block_not_structurally_flagged() {
        // The SHA256 bug construct: reset edge alone in the sensitivity
        // list, body gated by the clock level — there is no *leading test
        // of the reset*, so structural evidence does not fire; only the
        // name heuristic sees it.
        let m = module(
            "module m(input clk, sec_rst_n, input [7:0] d, output reg [7:0] q);
               always @(negedge sec_rst_n)
                 if (clk) q <= d;
             endmodule",
        );
        let r = identify_resets(&m, &ResetNaming::new());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].evidence, ResetEvidence::Name);
    }

    #[test]
    fn leading_if_descends_blocks() {
        let m = module(
            "module m(input clk, rst, output reg q);
               always @(posedge clk or posedge rst) begin
                 if (rst) q <= 1'b0; else q <= 1'b1;
               end
             endmodule",
        );
        let blk = m.always_blocks().next().expect("block");
        assert!(leading_condition_tests(&blk.body, "rst"));
        assert!(!leading_condition_tests(&blk.body, "clk"));
    }

    #[test]
    fn active_low_name_suffixes() {
        assert!(name_suggests_active_low("rst_n"));
        assert!(name_suggests_active_low("po_resetn"));
        assert!(name_suggests_active_low("RSTN"));
        assert!(!name_suggests_active_low("reset"));
        assert!(!name_suggests_active_low("rst_in"));
    }

    #[test]
    fn custom_patterns() {
        let naming = ResetNaming::new().with_patterns(vec!["nuke".into()]);
        assert!(naming.is_reset_name("nuke_all"));
        assert!(!naming.is_reset_name("rst_n"));
    }
}
