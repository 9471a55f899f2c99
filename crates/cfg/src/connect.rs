//! Module connection profiles — the paper's **Algorithm 2**.
//!
//! A static traversal of each module's structure collects every sub-module
//! invocation together with the "logistic information required to compute
//! the connected CFG (e.g., clocks, resets)": which parent signal drives
//! each child clock and reset port.

use std::collections::HashMap;

use soccar_rtl::ast::{Expr, Module, SourceUnit};

use crate::reset_id::{identify_resets, ResetNaming, ResetSignal};

/// One port binding relevant to CFG composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalConn {
    /// Formal port name in the child.
    pub formal: String,
    /// Actual signal name in the parent, when the connection is a simple
    /// identifier (composition only needs to trace identifiers; an
    /// expression-driven reset is recorded as `None` and starts its own
    /// domain).
    pub actual: Option<String>,
}

/// One sub-module invocation found in a parent module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildConn {
    /// Instance name.
    pub instance: String,
    /// Child module name.
    pub module: String,
    /// Connections to ports the child identifies as resets.
    pub reset_conns: Vec<SignalConn>,
    /// Connections to ports that look like clocks.
    pub clock_conns: Vec<SignalConn>,
}

/// The connection profile `CN[M_i]` of one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionProfile {
    /// Module name.
    pub module: String,
    /// Sub-module invocations in source order.
    pub children: Vec<ChildConn>,
}

/// Each module's identified resets, looked up by module name. When two
/// modules share a name the first one wins, as in [`SourceUnit::module`].
#[derive(Debug)]
pub struct ResetTable<'a> {
    by_name: HashMap<&'a str, &'a [ResetSignal]>,
}

impl<'a> ResetTable<'a> {
    /// Builds the table from `(module name, resets)` pairs in source
    /// order.
    pub fn new(modules: impl IntoIterator<Item = (&'a str, &'a [ResetSignal])>) -> ResetTable<'a> {
        let mut by_name = HashMap::new();
        for (name, resets) in modules {
            by_name.entry(name).or_insert(resets);
        }
        ResetTable { by_name }
    }

    /// The resets of the first module named `module`, if there is one.
    #[must_use]
    pub fn get(&self, module: &str) -> Option<&'a [ResetSignal]> {
        self.by_name.get(module).copied()
    }
}

/// Builds connection profiles for every module in the unit
/// (Algorithm 2: collect IPs, discover invoked modules, record their
/// clock/reset connections), identifying each module's resets once.
///
/// # Examples
///
/// ```
/// use soccar_cfg::connect::connection_profiles;
/// use soccar_cfg::reset_id::ResetNaming;
/// use soccar_rtl::{parser::parse, span::FileId};
///
/// let unit = parse(FileId(0), "
///   module leaf(input clk, input rst_n); endmodule
///   module top(input clk, input sys_rst_n);
///     leaf u (.clk(clk), .rst_n(sys_rst_n));
///   endmodule").expect("parse");
/// let profiles = connection_profiles(&unit, &ResetNaming::new());
/// let top = profiles.iter().find(|p| p.module == "top").expect("top");
/// assert_eq!(top.children[0].reset_conns[0].actual.as_deref(), Some("sys_rst_n"));
/// ```
#[must_use]
pub fn connection_profiles(unit: &SourceUnit, naming: &ResetNaming) -> Vec<ConnectionProfile> {
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
    connection_profiles_with(unit, naming, &table)
}

/// [`connection_profiles`] reading each child's resets from `resets`,
/// which must hold every module of `unit`.
#[must_use]
pub fn connection_profiles_with(
    unit: &SourceUnit,
    naming: &ResetNaming,
    resets: &ResetTable<'_>,
) -> Vec<ConnectionProfile> {
    unit.modules
        .iter()
        .map(|m| profile_module(m, naming, resets))
        .collect()
}

fn profile_module(
    module: &Module,
    naming: &ResetNaming,
    resets: &ResetTable<'_>,
) -> ConnectionProfile {
    let mut children = Vec::new();
    for inst in module.instances() {
        let Some(child_resets) = resets.get(&inst.module) else {
            // Unknown module: recorded with no connection info so the
            // composer can still report it.
            children.push(ChildConn {
                instance: inst.name.clone(),
                module: inst.module.clone(),
                reset_conns: Vec::new(),
                clock_conns: Vec::new(),
            });
            continue;
        };
        let mut reset_conns = Vec::new();
        let mut clock_conns = Vec::new();
        for conn in &inst.conns {
            let actual = conn.expr.as_ref().and_then(ident_of);
            if child_resets.iter().any(|r| r.name == conn.port) {
                reset_conns.push(SignalConn {
                    formal: conn.port.clone(),
                    actual,
                });
            } else if naming.is_clock_name(&conn.port) {
                clock_conns.push(SignalConn {
                    formal: conn.port.clone(),
                    actual,
                });
            }
        }
        children.push(ChildConn {
            instance: inst.name.clone(),
            module: inst.module.clone(),
            reset_conns,
            clock_conns,
        });
    }
    ConnectionProfile {
        module: module.name.clone(),
        children,
    }
}

fn ident_of(e: &Expr) -> Option<String> {
    match e {
        Expr::Ident { name, .. } => Some(name.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    #[test]
    fn profiles_trace_reset_and_clock_ports() {
        let unit = parse(
            FileId(0),
            "module ip(input clk, input rst_n, input [3:0] d); endmodule
             module top(input main_clk, input por_n, input [3:0] x);
               ip u0 (.clk(main_clk), .rst_n(por_n), .d(x));
               ip u1 (.clk(main_clk), .rst_n(por_n), .d(4'd0));
             endmodule",
        )
        .expect("parse");
        let profiles = connection_profiles(&unit, &ResetNaming::new());
        let top = profiles.iter().find(|p| p.module == "top").expect("top");
        assert_eq!(top.children.len(), 2);
        assert_eq!(top.children[0].instance, "u0");
        assert_eq!(top.children[0].module, "ip");
        assert_eq!(
            top.children[0].reset_conns,
            vec![SignalConn {
                formal: "rst_n".into(),
                actual: Some("por_n".into())
            }]
        );
        assert_eq!(
            top.children[0].clock_conns,
            vec![SignalConn {
                formal: "clk".into(),
                actual: Some("main_clk".into())
            }]
        );
        let ip = profiles.iter().find(|p| p.module == "ip").expect("ip");
        assert!(ip.children.is_empty());
    }

    #[test]
    fn expression_driven_reset_recorded_without_actual() {
        let unit = parse(
            FileId(0),
            "module ip(input rst_n); endmodule
             module top(input a, b);
               ip u (.rst_n(a & b));
             endmodule",
        )
        .expect("parse");
        let profiles = connection_profiles(&unit, &ResetNaming::new());
        let top = profiles.iter().find(|p| p.module == "top").expect("top");
        assert_eq!(top.children[0].reset_conns[0].actual, None);
    }

    #[test]
    fn unknown_child_module_tolerated() {
        let unit = parse(
            FileId(0),
            "module top(input a); mystery u (.x(a)); endmodule",
        )
        .expect("parse");
        let profiles = connection_profiles(&unit, &ResetNaming::new());
        assert_eq!(profiles[0].children.len(), 1);
        assert_eq!(profiles[0].children[0].module, "mystery");
    }
}
