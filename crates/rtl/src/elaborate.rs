//! Elaboration: AST → flattened [`Design`].
//!
//! Responsibilities:
//!
//! * Resolve the instance hierarchy recursively from the named top module,
//!   binding parameter overrides and folding all constant expressions.
//! * Create one [`Net`]/[`Memory`] per declaration per instance, with
//!   hierarchical names (`top.u_cpu.pc`).
//! * Lower statements and expressions into the width-annotated IR, applying
//!   Verilog context-determined width rules (operands of arithmetic and
//!   bitwise operators are extended to the final width *before* the
//!   operation; truncation happens only at the assignment boundary).
//! * Turn port connections into continuous-assignment processes.
//! * Allocate a [`crate::design::BranchSiteId`] for every `if` and every `case` arm so the
//!   CFG extractor and concolic engine can refer to static branches.

use std::collections::HashMap;

use crate::ast::{
    AlwaysBlock, BinaryOp, CaseArm, CaseKind, Declarator, Expr, Instance, Item, Module, NetKind,
    PortDir, Range, Sensitivity, SourceUnit, Stmt, UnaryOp,
};
use crate::constfold::{eval_const, eval_const_u64, ConstEnv};
use crate::design::{
    Design, InstanceId, InstanceInfo, LValue, MemId, Memory, Net, NetId, Process, ProcessId,
    ProcessOrigin, RCaseArm, RExpr, RStmt, SiteInfo, SiteKind, Trigger,
};
use crate::error::{RtlError, RtlErrorKind, RtlResult};
use crate::span::Span;
use crate::value::LogicVec;

const MAX_HIERARCHY_DEPTH: u32 = 64;

/// The most net bits one elaborated design may declare, summed over every
/// instance's ports, wires, regs and integers. Each net is also capped at
/// 2^20 bits, but a small file of many such nets would ask the simulator
/// for gigabytes of state. Memories stay outside the sum: their words are
/// allocated lazily. 2^24 is about 69 times the 243,132 net bits of the
/// largest pinned design, x50 (`gen:11:73`).
pub const MAX_DESIGN_NET_BITS: u64 = 1 << 24;

/// Elaborates `unit` with `top` as the root module.
///
/// # Errors
///
/// Returns the first semantic or elaboration error: unknown top module,
/// undeclared identifiers, non-constant ranges, port mismatches, unsupported
/// constructs (mixed edge/level sensitivity, non-zero-based packed ranges),
/// recursive instantiation deeper than 64 levels, or more than
/// [`MAX_DESIGN_NET_BITS`] net bits in total.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), soccar_rtl::error::RtlError> {
/// use soccar_rtl::{elaborate::elaborate, parser::parse, span::FileId};
///
/// let unit = parse(FileId(0), "module top(input wire a, output wire y);
///   assign y = ~a;
/// endmodule")?;
/// let design = elaborate(&unit, "top")?;
/// assert!(design.find_net("top.a").is_some());
/// # Ok(())
/// # }
/// ```
pub fn elaborate(unit: &SourceUnit, top: &str) -> RtlResult<Design> {
    elaborate_traced(unit, top, &soccar_obs::Recorder::disabled())
}

/// [`elaborate`] under an observability recorder: one `rtl.elaborate`
/// span carrying the elaborated design's size, plus `rtl.nets` /
/// `rtl.processes` / `rtl.branch_sites` counters.
///
/// # Errors
///
/// As [`elaborate`].
pub fn elaborate_traced(
    unit: &SourceUnit,
    top: &str,
    recorder: &soccar_obs::Recorder,
) -> RtlResult<Design> {
    let mut span = soccar_obs::span!(recorder, "rtl.elaborate", top = top);
    let design = elaborate_inner(unit, top)?;
    let stats = design.stats();
    recorder.counter_add("rtl.nets", stats.nets as u64);
    recorder.counter_add("rtl.processes", stats.processes as u64);
    recorder.counter_add("rtl.branch_sites", stats.branch_sites as u64);
    span.record("nets", stats.nets);
    span.record("instances", stats.instances);
    span.record("processes", stats.processes);
    Ok(design)
}

fn elaborate_inner(unit: &SourceUnit, top: &str) -> RtlResult<Design> {
    let mut e = Elaborator {
        unit,
        design: Design::new(top),
        net_bits: 0,
    };
    let top_module = unit.module(top).ok_or_else(|| {
        RtlError::new(
            RtlErrorKind::Elaborate,
            format!("top module `{top}` not found"),
            Span::dummy(),
        )
    })?;
    e.instantiate(top_module, top.to_owned(), None, &[], 0)?;
    Ok(e.design)
}

struct Elaborator<'a> {
    unit: &'a SourceUnit,
    design: Design,
    /// Net bits declared so far (see [`MAX_DESIGN_NET_BITS`]).
    net_bits: u64,
}

/// Per-instance symbol table.
struct Scope {
    instance: InstanceId,
    prefix: String,
    consts: ConstEnv,
    nets: HashMap<String, NetId>,
    mems: HashMap<String, MemId>,
}

impl Scope {
    fn err(&self, msg: impl Into<String>, span: Span) -> RtlError {
        RtlError::new(RtlErrorKind::Semantic, msg, span)
    }
}

impl<'a> Elaborator<'a> {
    /// Elaborates one instance of `module`; returns its scope so the parent
    /// can wire ports.
    fn instantiate(
        &mut self,
        module: &Module,
        hier_name: String,
        parent: Option<InstanceId>,
        param_overrides: &[(String, LogicVec)],
        depth: u32,
    ) -> RtlResult<Scope> {
        if depth > MAX_HIERARCHY_DEPTH {
            return Err(RtlError::new(
                RtlErrorKind::Elaborate,
                format!("instance hierarchy deeper than {MAX_HIERARCHY_DEPTH} (recursive instantiation?)"),
                module.span,
            ));
        }
        let instance = self.design.add_instance(InstanceInfo {
            name: hier_name.clone(),
            module: module.name.clone(),
            parent,
            params: Vec::new(),
        });
        let mut scope = Scope {
            instance,
            prefix: hier_name,
            consts: ConstEnv::new(),
            nets: HashMap::new(),
            mems: HashMap::new(),
        };
        // Header parameters: overrides win, defaults may reference earlier
        // parameters.
        let mut resolved_params = Vec::new();
        for p in &module.params {
            let value = match param_overrides.iter().find(|(n, _)| n == &p.name) {
                Some((_, v)) => v.clone(),
                None => eval_const(&p.value, &scope.consts)?,
            };
            scope.consts.bind(&p.name, value.clone());
            resolved_params.push((p.name.clone(), value));
        }
        for (name, _) in param_overrides {
            if !module.params.iter().any(|p| &p.name == name) {
                return Err(RtlError::new(
                    RtlErrorKind::Elaborate,
                    format!("module `{}` has no parameter `{name}`", module.name),
                    module.span,
                ));
            }
        }
        // Record resolved parameters on the instance (the entry was added
        // before parameter defaults were folded).
        self.design.instance_mut(instance).params = resolved_params;

        // Ports become nets.
        let is_top = parent.is_none();
        for port in &module.ports {
            let width = self.range_width(port.range.as_ref(), &scope)?;
            self.count_net_bits(width, port.span)?;
            let id = self.design.add_net(Net {
                name: format!("{}.{}", scope.prefix, port.name),
                local_name: port.name.clone(),
                width,
                kind: port.kind,
                instance,
                is_top_input: is_top && port.dir == PortDir::Input,
                is_top_output: is_top && port.dir == PortDir::Output,
                init: None,
            });
            scope.nets.insert(port.name.clone(), id);
        }

        // Pass 1: declarations and parameters (in source order, so
        // localparams can use earlier nets' parameters).
        for item in &module.items {
            match item {
                Item::Param(p) => {
                    let value = eval_const(&p.value, &scope.consts)?;
                    scope.consts.bind(&p.name, value);
                }
                Item::Net(decl) => {
                    let width = if decl.kind == NetKind::Integer {
                        32
                    } else {
                        self.range_width(decl.range.as_ref(), &scope)?
                    };
                    for d in &decl.names {
                        self.declare(&mut scope, decl.kind, width, d)?;
                    }
                }
                _ => {}
            }
        }

        // Pass 2: behaviour.
        let mut always_index = 0u32;
        for item in &module.items {
            match item {
                Item::Param(_) | Item::Net(_) => {}
                Item::Assign { lhs, rhs, span } => {
                    self.lower_cont_assign(&mut scope, &module.name, lhs, rhs, *span)?;
                }
                Item::Always(block) => {
                    self.lower_always(&mut scope, &module.name, block, always_index)?;
                    always_index += 1;
                }
                Item::Initial { body, span } => {
                    let pid = self.next_process_id();
                    let body = self.lower_stmt(&mut scope, body, pid)?;
                    self.design.add_process(Process {
                        trigger: Trigger::Once,
                        body,
                        instance: scope.instance,
                        origin: ProcessOrigin {
                            module: module.name.clone(),
                            always_index: None,
                            span: *span,
                        },
                    });
                }
                Item::Instance(inst) => {
                    self.lower_instance(&mut scope, &module.name, inst, depth)?;
                }
            }
        }

        // Wire initializers become constant continuous assignments; reg
        // initializers were stored on the net during `declare`.
        for item in &module.items {
            if let Item::Net(decl) = item {
                if decl.kind == NetKind::Wire {
                    for d in &decl.names {
                        if let Some(init) = &d.init {
                            let net = scope.nets[&d.name];
                            let value = eval_const(init, &scope.consts)?;
                            let width = self.design.net(net).width;
                            let pid = self.next_process_id();
                            let _ = pid;
                            self.design.add_process(Process {
                                trigger: Trigger::Once,
                                body: RStmt::Assign {
                                    lhs: LValue::Net(net),
                                    rhs: RExpr::Const(value.resize(width)),
                                    nonblocking: false,
                                },
                                instance: scope.instance,
                                origin: ProcessOrigin {
                                    module: module.name.clone(),
                                    always_index: None,
                                    span: d.span,
                                },
                            });
                        }
                    }
                }
            }
        }

        Ok(scope)
    }

    fn next_process_id(&self) -> ProcessId {
        ProcessId(self.design.processes().len() as u32)
    }

    /// Counts `width` more declared net bits, failing with a
    /// [`RtlErrorKind::Limit`] error before the net is created if the
    /// design's total passes [`MAX_DESIGN_NET_BITS`].
    fn count_net_bits(&mut self, width: u32, span: Span) -> RtlResult<()> {
        self.net_bits += u64::from(width);
        if self.net_bits > MAX_DESIGN_NET_BITS {
            return Err(RtlError::new(
                RtlErrorKind::Limit,
                format!("design declares more than {MAX_DESIGN_NET_BITS} net bits"),
                span,
            ));
        }
        Ok(())
    }

    fn range_width(&self, range: Option<&Range>, scope: &Scope) -> RtlResult<u32> {
        let Some(r) = range else { return Ok(1) };
        let msb = eval_const_u64(&r.msb, &scope.consts)?;
        let lsb = eval_const_u64(&r.lsb, &scope.consts)?;
        if lsb != 0 {
            return Err(RtlError::new(
                RtlErrorKind::Unsupported,
                "packed ranges must be `[msb:0]` in the subset",
                r.span,
            ));
        }
        if msb >= 1 << 20 {
            return Err(RtlError::new(
                RtlErrorKind::Elaborate,
                "packed range unreasonably wide",
                r.span,
            ));
        }
        Ok(msb as u32 + 1)
    }

    fn declare(
        &mut self,
        scope: &mut Scope,
        kind: NetKind,
        width: u32,
        d: &Declarator,
    ) -> RtlResult<()> {
        if scope.nets.contains_key(&d.name) || scope.mems.contains_key(&d.name) {
            // Redeclaration of an ANSI port (`output reg [3:0] q;` body
            // repeats) is rejected: ANSI headers fully declare ports.
            return Err(scope.err(
                format!("`{}` is already declared in this module", d.name),
                d.span,
            ));
        }
        if let Some(arr) = &d.array {
            if kind != NetKind::Reg {
                return Err(scope.err("memories must be declared `reg`", d.span));
            }
            let a = eval_const_u64(&arr.msb, &scope.consts)?;
            let b = eval_const_u64(&arr.lsb, &scope.consts)?;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let depth = (hi - lo + 1) as u32;
            if d.init.is_some() {
                return Err(scope.err("memories cannot have initializers", d.span));
            }
            let id = self.design.add_memory(Memory {
                name: format!("{}.{}", scope.prefix, d.name),
                local_name: d.name.clone(),
                width,
                depth,
                base: lo as u32,
                instance: scope.instance,
            });
            scope.mems.insert(d.name.clone(), id);
        } else {
            self.count_net_bits(width, d.span)?;
            let init = match (&d.init, kind) {
                (Some(e), NetKind::Reg | NetKind::Integer) => {
                    Some(eval_const(e, &scope.consts)?.resize(width))
                }
                _ => None, // wire initializers handled as assigns
            };
            let id = self.design.add_net(Net {
                name: format!("{}.{}", scope.prefix, d.name),
                local_name: d.name.clone(),
                width,
                kind,
                instance: scope.instance,
                is_top_input: false,
                is_top_output: false,
                init,
            });
            scope.nets.insert(d.name.clone(), id);
        }
        Ok(())
    }

    fn lower_cont_assign(
        &mut self,
        scope: &mut Scope,
        module: &str,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> RtlResult<()> {
        let pid = self.next_process_id();
        let lv = self.lower_lvalue(scope, lhs)?;
        let width = lv.width(&self.design);
        let r = self.lower_expr(scope, rhs)?;
        let r = widen(r, width);
        let body = RStmt::Assign {
            lhs: lv,
            rhs: r,
            nonblocking: false,
        };
        let mut reads = Vec::new();
        collect_stmt_reads(&body, &mut reads);
        reads.sort_unstable();
        reads.dedup();
        let _ = pid;
        self.design.add_process(Process {
            trigger: Trigger::AnyChange(reads),
            body,
            instance: scope.instance,
            origin: ProcessOrigin {
                module: module.to_owned(),
                always_index: None,
                span,
            },
        });
        Ok(())
    }

    fn lower_always(
        &mut self,
        scope: &mut Scope,
        module: &str,
        block: &AlwaysBlock,
        always_index: u32,
    ) -> RtlResult<()> {
        let pid = self.next_process_id();
        let body = self.lower_stmt(scope, &block.body, pid)?;
        let trigger = match &block.sensitivity {
            Sensitivity::Star => {
                let mut reads = Vec::new();
                collect_stmt_reads(&body, &mut reads);
                reads.sort_unstable();
                reads.dedup();
                Trigger::AnyChange(reads)
            }
            Sensitivity::List(items) => {
                let any_edge = items.iter().any(|i| i.edge.is_some());
                let all_edge = items.iter().all(|i| i.edge.is_some());
                if any_edge && !all_edge {
                    return Err(RtlError::new(
                        RtlErrorKind::Unsupported,
                        "mixed edge/level sensitivity lists are outside the subset",
                        block.span,
                    ));
                }
                let mut resolved = Vec::new();
                for item in items {
                    let net = *scope.nets.get(&item.signal).ok_or_else(|| {
                        scope.err(
                            format!("undeclared signal `{}` in sensitivity list", item.signal),
                            item.span,
                        )
                    })?;
                    resolved.push((net, item.edge));
                }
                if all_edge {
                    Trigger::Edges(
                        resolved
                            .into_iter()
                            .map(|(n, e)| (n, e.expect("all edges")))
                            .collect(),
                    )
                } else {
                    Trigger::AnyChange(resolved.into_iter().map(|(n, _)| n).collect())
                }
            }
        };
        let added = self.design.add_process(Process {
            trigger,
            body,
            instance: scope.instance,
            origin: ProcessOrigin {
                module: module.to_owned(),
                always_index: Some(always_index),
                span: block.span,
            },
        });
        debug_assert_eq!(added, pid);
        Ok(())
    }

    fn lower_instance(
        &mut self,
        scope: &mut Scope,
        module: &str,
        inst: &Instance,
        depth: u32,
    ) -> RtlResult<()> {
        let child_def = self.unit.module(&inst.module).ok_or_else(|| {
            RtlError::new(
                RtlErrorKind::Elaborate,
                format!("unknown module `{}`", inst.module),
                inst.span,
            )
        })?;
        let mut overrides = Vec::new();
        for p in &inst.params {
            let Some(expr) = &p.expr else {
                continue;
            };
            overrides.push((p.port.clone(), eval_const(expr, &scope.consts)?));
        }
        let child_hier = format!("{}.{}", scope.prefix, inst.name);
        let child_scope = self.instantiate(
            child_def,
            child_hier,
            Some(scope.instance),
            &overrides,
            depth + 1,
        )?;
        // Wire up ports.
        for conn in &inst.conns {
            if child_def.port(&conn.port).is_none() {
                return Err(RtlError::new(
                    RtlErrorKind::Elaborate,
                    format!("module `{}` has no port `{}`", inst.module, conn.port),
                    conn.span,
                ));
            }
        }
        for port in &child_def.ports {
            let Some(conn) = inst.conns.iter().find(|c| c.port == port.name) else {
                continue; // unconnected: input floats X, output dangles
            };
            let Some(actual) = &conn.expr else {
                continue; // explicitly unconnected `.p()`
            };
            let child_net = child_scope.nets[&port.name];
            let child_width = self.design.net(child_net).width;
            match port.dir {
                PortDir::Input => {
                    let r = self.lower_expr(scope, actual)?;
                    let r = widen(r, child_width);
                    let body = RStmt::Assign {
                        lhs: LValue::Net(child_net),
                        rhs: r,
                        nonblocking: false,
                    };
                    let mut reads = Vec::new();
                    collect_stmt_reads(&body, &mut reads);
                    reads.sort_unstable();
                    reads.dedup();
                    self.design.add_process(Process {
                        trigger: Trigger::AnyChange(reads),
                        body,
                        instance: scope.instance,
                        origin: ProcessOrigin {
                            module: module.to_owned(),
                            always_index: None,
                            span: conn.span,
                        },
                    });
                }
                PortDir::Output => {
                    let lv = self.lower_lvalue(scope, actual)?;
                    let width = lv.width(&self.design);
                    let rhs = widen(
                        RExpr::Net {
                            net: child_net,
                            width: child_width,
                        },
                        width,
                    );
                    self.design.add_process(Process {
                        trigger: Trigger::AnyChange(vec![child_net]),
                        body: RStmt::Assign {
                            lhs: lv,
                            rhs,
                            nonblocking: false,
                        },
                        instance: scope.instance,
                        origin: ProcessOrigin {
                            module: module.to_owned(),
                            always_index: None,
                            span: conn.span,
                        },
                    });
                }
            }
        }
        Ok(())
    }

    /// Dispatches on the statement's kind. Each kind is its own function,
    /// as in the parser, so a nesting level's stack holds only the locals
    /// of the kinds on its path: `MAX_STMT_DEPTH` is sized against that.
    fn lower_stmt(&mut self, scope: &mut Scope, stmt: &Stmt, pid: ProcessId) -> RtlResult<RStmt> {
        match stmt {
            Stmt::Block { stmts, .. } => self.lower_block(scope, stmts, pid),
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
                span,
            } => self.lower_if(scope, cond, then_stmt, else_stmt.as_deref(), *span, pid),
            Stmt::Case {
                kind,
                selector,
                arms,
                ..
            } => self.lower_case(scope, *kind, selector, arms, pid),
            Stmt::Blocking { lhs, rhs, .. } => self.lower_assign(scope, lhs, rhs, false),
            Stmt::NonBlocking { lhs, rhs, .. } => self.lower_assign(scope, lhs, rhs, true),
            Stmt::For { .. } => self.lower_for(scope, stmt, pid),
            Stmt::Null { .. } => Ok(RStmt::Null),
        }
    }

    fn lower_block(
        &mut self,
        scope: &mut Scope,
        stmts: &[Stmt],
        pid: ProcessId,
    ) -> RtlResult<RStmt> {
        let stmts = stmts
            .iter()
            .map(|s| self.lower_stmt(scope, s, pid))
            .collect::<RtlResult<Vec<_>>>()?;
        Ok(RStmt::Block(stmts))
    }

    fn lower_if(
        &mut self,
        scope: &mut Scope,
        cond: &Expr,
        then_stmt: &Stmt,
        else_stmt: Option<&Stmt>,
        span: Span,
        pid: ProcessId,
    ) -> RtlResult<RStmt> {
        let cond = self.lower_expr(scope, cond)?;
        let site = self.design.add_site(SiteInfo {
            process: pid,
            kind: SiteKind::If,
            span,
        });
        let then_stmt = Box::new(self.lower_stmt(scope, then_stmt, pid)?);
        let else_stmt = match else_stmt {
            Some(e) => Some(Box::new(self.lower_stmt(scope, e, pid)?)),
            None => None,
        };
        Ok(RStmt::If {
            site,
            cond,
            then_stmt,
            else_stmt,
        })
    }

    fn lower_case(
        &mut self,
        scope: &mut Scope,
        kind: CaseKind,
        selector: &Expr,
        arms: &[CaseArm],
        pid: ProcessId,
    ) -> RtlResult<RStmt> {
        let selector = self.lower_expr(scope, selector)?;
        let sel_width = selector.width();
        let mut rarms = Vec::new();
        for arm in arms {
            let labels = arm
                .labels
                .iter()
                .map(|l| Ok(eval_const(l, &scope.consts)?.resize(sel_width)))
                .collect::<RtlResult<Vec<_>>>()?;
            let site = if labels.is_empty() {
                None
            } else {
                Some(self.design.add_site(SiteInfo {
                    process: pid,
                    kind: SiteKind::CaseArm,
                    span: arm.span,
                }))
            };
            rarms.push(RCaseArm {
                labels,
                site,
                body: self.lower_stmt(scope, &arm.body, pid)?,
            });
        }
        Ok(RStmt::Case {
            kind,
            selector,
            arms: rarms,
        })
    }

    fn lower_assign(
        &mut self,
        scope: &mut Scope,
        lhs: &Expr,
        rhs: &Expr,
        nonblocking: bool,
    ) -> RtlResult<RStmt> {
        let lv = self.lower_lvalue(scope, lhs)?;
        let width = lv.width(&self.design);
        let r = self.lower_expr(scope, rhs)?;
        Ok(RStmt::Assign {
            lhs: lv,
            rhs: widen(r, width),
            nonblocking,
        })
    }

    /// Lowers a `for` statement (`stmt` is one).
    fn lower_for(&mut self, scope: &mut Scope, stmt: &Stmt, pid: ProcessId) -> RtlResult<RStmt> {
        let Stmt::For {
            var,
            init,
            cond,
            step,
            body,
            span,
        } = stmt
        else {
            unreachable!("lower_stmt passes only `for` statements here")
        };
        let var_net = *scope
            .nets
            .get(var)
            .ok_or_else(|| scope.err(format!("undeclared loop variable `{var}`"), *span))?;
        let width = self.design.net(var_net).width;
        let init = widen(self.lower_expr(scope, init)?, width);
        let cond = self.lower_expr(scope, cond)?;
        let step = widen(self.lower_expr(scope, step)?, width);
        Ok(RStmt::For {
            var: var_net,
            init,
            cond,
            step,
            body: Box::new(self.lower_stmt(scope, body, pid)?),
        })
    }

    fn lower_lvalue(&mut self, scope: &mut Scope, expr: &Expr) -> RtlResult<LValue> {
        match expr {
            Expr::Ident { name, span } => {
                if let Some(net) = scope.nets.get(name) {
                    Ok(LValue::Net(*net))
                } else if scope.mems.contains_key(name) {
                    Err(scope.err(
                        format!("memory `{name}` must be assigned element-wise"),
                        *span,
                    ))
                } else {
                    Err(scope.err(format!("undeclared identifier `{name}`"), *span))
                }
            }
            Expr::Index { base, index, span } => {
                if let Some(mem) = scope.mems.get(base).copied() {
                    let base_off = self.design.memory(mem).base;
                    let idx = self.lower_expr(scope, index)?;
                    let idx = offset_index(idx, base_off);
                    Ok(LValue::MemWrite { mem, index: idx })
                } else if let Some(net) = scope.nets.get(base).copied() {
                    let idx = self.lower_expr(scope, index)?;
                    if let RExpr::Const(c) = &idx {
                        let lo = c
                            .to_u64()
                            .ok_or_else(|| scope.err("constant index has unknown bits", *span))?
                            as u32;
                        Ok(LValue::Slice { net, lo, width: 1 })
                    } else {
                        Ok(LValue::IndexBit { net, index: idx })
                    }
                } else {
                    Err(scope.err(format!("undeclared identifier `{base}`"), *span))
                }
            }
            Expr::PartSelect {
                base,
                msb,
                lsb,
                span,
            } => {
                let net = *scope
                    .nets
                    .get(base)
                    .ok_or_else(|| scope.err(format!("undeclared identifier `{base}`"), *span))?;
                let m = eval_const_u64(msb, &scope.consts)? as u32;
                let l = eval_const_u64(lsb, &scope.consts)? as u32;
                if m < l {
                    return Err(scope.err("part-select must be [msb:lsb] with msb >= lsb", *span));
                }
                Ok(LValue::Slice {
                    net,
                    lo: l,
                    width: m - l + 1,
                })
            }
            Expr::IndexedPartSelect {
                base,
                start,
                width,
                ascending,
                span,
            } => {
                let net = *scope
                    .nets
                    .get(base)
                    .ok_or_else(|| scope.err(format!("undeclared identifier `{base}`"), *span))?;
                let w = eval_const_u64(width, &scope.consts)? as u32;
                let start = self.lower_expr(scope, start)?;
                let start = normalize_ips_start(start, w, *ascending);
                if let RExpr::Const(c) = &start {
                    let lo = c
                        .to_u64()
                        .ok_or_else(|| scope.err("constant start has unknown bits", *span))?
                        as u32;
                    Ok(LValue::Slice { net, lo, width: w })
                } else {
                    Ok(LValue::DynSlice {
                        net,
                        start,
                        width: w,
                    })
                }
            }
            Expr::Concat { parts, .. } => Ok(LValue::Concat(
                parts
                    .iter()
                    .map(|p| self.lower_lvalue(scope, p))
                    .collect::<RtlResult<Vec<_>>>()?,
            )),
            other => Err(scope.err("expression is not a valid assignment target", other.span())),
        }
    }

    fn lower_expr(&mut self, scope: &mut Scope, expr: &Expr) -> RtlResult<RExpr> {
        match expr {
            Expr::Number { value, .. } => Ok(RExpr::Const(value.clone())),
            Expr::Ident { name, span } => {
                if let Some(v) = scope.consts.get(name) {
                    Ok(RExpr::Const(v.clone()))
                } else if let Some(net) = scope.nets.get(name) {
                    Ok(RExpr::Net {
                        net: *net,
                        width: self.design.net(*net).width,
                    })
                } else if scope.mems.contains_key(name) {
                    Err(scope.err(format!("memory `{name}` must be read element-wise"), *span))
                } else {
                    Err(scope.err(format!("undeclared identifier `{name}`"), *span))
                }
            }
            Expr::Unary { op, operand, span } => {
                let inner = self.lower_expr(scope, operand)?;
                let width = match op {
                    UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus => inner.width(),
                    _ => 1,
                };
                let _ = span;
                Ok(RExpr::Unary {
                    op: *op,
                    width,
                    operand: Box::new(inner),
                })
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let a = self.lower_expr(scope, lhs)?;
                let b = self.lower_expr(scope, rhs)?;
                match op {
                    BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::Div
                    | BinaryOp::Mod
                    | BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor
                    | BinaryOp::Xnor => {
                        let w = a.width().max(b.width());
                        Ok(RExpr::Binary {
                            op: *op,
                            width: w,
                            lhs: Box::new(widen(a, w)),
                            rhs: Box::new(widen(b, w)),
                        })
                    }
                    BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::CaseEq
                    | BinaryOp::CaseNe
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge => {
                        let w = a.width().max(b.width());
                        Ok(RExpr::Binary {
                            op: *op,
                            width: 1,
                            lhs: Box::new(widen(a, w)),
                            rhs: Box::new(widen(b, w)),
                        })
                    }
                    BinaryOp::LogicalAnd | BinaryOp::LogicalOr => Ok(RExpr::Binary {
                        op: *op,
                        width: 1,
                        lhs: Box::new(a),
                        rhs: Box::new(b),
                    }),
                    BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => {
                        let w = a.width();
                        Ok(RExpr::Binary {
                            op: *op,
                            width: w,
                            lhs: Box::new(a),
                            rhs: Box::new(b),
                        })
                    }
                    BinaryOp::Pow => {
                        // Runtime power is outside the subset; constant
                        // powers fold in `eval_const` contexts.
                        Err(RtlError::new(
                            RtlErrorKind::Unsupported,
                            "`**` is only supported in constant expressions",
                            *span,
                        ))
                    }
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let c = self.lower_expr(scope, cond)?;
                let t = self.lower_expr(scope, then_expr)?;
                let e = self.lower_expr(scope, else_expr)?;
                let w = t.width().max(e.width());
                Ok(RExpr::Ternary {
                    width: w,
                    cond: Box::new(c),
                    then_expr: Box::new(widen(t, w)),
                    else_expr: Box::new(widen(e, w)),
                })
            }
            Expr::Concat { parts, span } => {
                if parts.is_empty() {
                    return Err(scope.err("empty concatenation", *span));
                }
                let lowered = parts
                    .iter()
                    .map(|p| self.lower_expr(scope, p))
                    .collect::<RtlResult<Vec<_>>>()?;
                let width = lowered.iter().map(RExpr::width).sum();
                Ok(RExpr::Concat {
                    width,
                    parts: lowered,
                })
            }
            Expr::Repeat { count, expr, span } => {
                let c = eval_const_u64(count, &scope.consts)?;
                if c == 0 {
                    return Err(scope.err("replication count must be positive", *span));
                }
                let inner = self.lower_expr(scope, expr)?;
                Ok(RExpr::Repeat {
                    width: inner.width() * c as u32,
                    count: c as u32,
                    expr: Box::new(inner),
                })
            }
            Expr::Index { base, index, span } => {
                if let Some(mem) = scope.mems.get(base).copied() {
                    let base_off = self.design.memory(mem).base;
                    let width = self.design.memory(mem).width;
                    let idx = self.lower_expr(scope, index)?;
                    Ok(RExpr::MemRead {
                        mem,
                        width,
                        index: Box::new(offset_index(idx, base_off)),
                    })
                } else if let Some(net) = scope.nets.get(base).copied() {
                    let idx = self.lower_expr(scope, index)?;
                    if let RExpr::Const(c) = &idx {
                        let lo = c
                            .to_u64()
                            .ok_or_else(|| scope.err("constant index has unknown bits", *span))?
                            as u32;
                        Ok(RExpr::Slice { net, lo, width: 1 })
                    } else {
                        Ok(RExpr::IndexBit {
                            net,
                            index: Box::new(idx),
                        })
                    }
                } else if scope.consts.get(base).is_some() {
                    let v = eval_const(expr, &scope.consts)?;
                    let _ = v;
                    Err(scope.err("bit-selects on parameters are outside the subset", *span))
                } else {
                    Err(scope.err(format!("undeclared identifier `{base}`"), *span))
                }
            }
            Expr::PartSelect {
                base,
                msb,
                lsb,
                span,
            } => {
                let net = *scope
                    .nets
                    .get(base)
                    .ok_or_else(|| scope.err(format!("undeclared identifier `{base}`"), *span))?;
                let m = eval_const_u64(msb, &scope.consts)? as u32;
                let l = eval_const_u64(lsb, &scope.consts)? as u32;
                if m < l {
                    return Err(scope.err("part-select must be [msb:lsb] with msb >= lsb", *span));
                }
                Ok(RExpr::Slice {
                    net,
                    lo: l,
                    width: m - l + 1,
                })
            }
            Expr::IndexedPartSelect {
                base,
                start,
                width,
                ascending,
                span,
            } => {
                let net = *scope
                    .nets
                    .get(base)
                    .ok_or_else(|| scope.err(format!("undeclared identifier `{base}`"), *span))?;
                let w = eval_const_u64(width, &scope.consts)? as u32;
                let s = self.lower_expr(scope, start)?;
                let s = normalize_ips_start(s, w, *ascending);
                if let RExpr::Const(c) = &s {
                    let lo = c
                        .to_u64()
                        .ok_or_else(|| scope.err("constant start has unknown bits", *span))?
                        as u32;
                    Ok(RExpr::Slice { net, lo, width: w })
                } else {
                    Ok(RExpr::DynSlice {
                        net,
                        start: Box::new(s),
                        width: w,
                    })
                }
            }
        }
    }
}

/// Normalizes an indexed-part-select start expression to a low-bit index:
/// ascending (`+:`) keeps `start`; descending (`-:`) becomes
/// `start - (width-1)`.
fn normalize_ips_start(start: RExpr, width: u32, ascending: bool) -> RExpr {
    if ascending || width == 1 {
        return constfold_rexpr(start);
    }
    let w = start.width().max(32);
    let off = RExpr::Const(LogicVec::from_u64(w, u64::from(width - 1)));
    constfold_rexpr(RExpr::Binary {
        op: BinaryOp::Sub,
        width: w,
        lhs: Box::new(widen(start, w)),
        rhs: Box::new(off),
    })
}

/// Adds a constant base offset subtraction to a memory index (for arrays
/// declared `[base:hi]` with non-zero base).
fn offset_index(index: RExpr, base: u32) -> RExpr {
    if base == 0 {
        return index;
    }
    let w = index.width().max(32);
    constfold_rexpr(RExpr::Binary {
        op: BinaryOp::Sub,
        width: w,
        lhs: Box::new(widen(index, w)),
        rhs: Box::new(RExpr::Const(LogicVec::from_u64(w, u64::from(base)))),
    })
}

/// Shallow constant folding for elaboration-synthesized expressions.
fn constfold_rexpr(e: RExpr) -> RExpr {
    match &e {
        RExpr::Binary {
            op: BinaryOp::Sub,
            width,
            lhs,
            rhs,
        } => {
            if let (RExpr::Const(a), RExpr::Const(b)) = (&**lhs, &**rhs) {
                return RExpr::Const(a.sub(b).resize(*width));
            }
            e
        }
        RExpr::Resize { width, expr } => {
            if let RExpr::Const(c) = &**expr {
                return RExpr::Const(c.resize(*width));
            }
            e
        }
        _ => e,
    }
}

/// Applies Verilog context-width rules: if `w` is wider than the
/// expression's self-determined width, the widening is *pushed into*
/// arithmetic, bitwise, mux and shift operands (so carries are preserved);
/// if `w` is narrower, the value is computed at full width and truncated.
#[must_use]
pub fn widen(e: RExpr, w: u32) -> RExpr {
    let sw = e.width();
    if sw == w {
        return e;
    }
    if w < sw {
        // Truncation happens after evaluation.
        return match e {
            RExpr::Const(c) => RExpr::Const(c.resize(w)),
            other => RExpr::Resize {
                width: w,
                expr: Box::new(other),
            },
        };
    }
    match e {
        RExpr::Const(c) => RExpr::Const(c.resize(w)),
        RExpr::Binary { op, lhs, rhs, .. }
            if matches!(
                op,
                BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor
                    | BinaryOp::Xnor
            ) =>
        {
            RExpr::Binary {
                op,
                width: w,
                lhs: Box::new(widen(*lhs, w)),
                rhs: Box::new(widen(*rhs, w)),
            }
        }
        RExpr::Binary { op, lhs, rhs, .. }
            if matches!(op, BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr) =>
        {
            RExpr::Binary {
                op,
                width: w,
                lhs: Box::new(widen(*lhs, w)),
                rhs,
            }
        }
        RExpr::Unary { op, operand, .. }
            if matches!(op, UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus) =>
        {
            RExpr::Unary {
                op,
                width: w,
                operand: Box::new(widen(*operand, w)),
            }
        }
        RExpr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => RExpr::Ternary {
            width: w,
            cond,
            then_expr: Box::new(widen(*then_expr, w)),
            else_expr: Box::new(widen(*else_expr, w)),
        },
        other => RExpr::Resize {
            width: w,
            expr: Box::new(other),
        },
    }
}

/// Collects the nets read anywhere in a lowered statement (conditions,
/// right-hand sides, loop bounds and dynamic-index expressions of targets).
pub fn collect_stmt_reads(stmt: &RStmt, out: &mut Vec<NetId>) {
    match stmt {
        RStmt::Block(stmts) => {
            for s in stmts {
                collect_stmt_reads(s, out);
            }
        }
        RStmt::If {
            cond,
            then_stmt,
            else_stmt,
            ..
        } => {
            cond.collect_net_reads(out);
            collect_stmt_reads(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_stmt_reads(e, out);
            }
        }
        RStmt::Case { selector, arms, .. } => {
            selector.collect_net_reads(out);
            for arm in arms {
                collect_stmt_reads(&arm.body, out);
            }
        }
        RStmt::Assign { lhs, rhs, .. } => {
            rhs.collect_net_reads(out);
            collect_lvalue_index_reads(lhs, out);
        }
        RStmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            init.collect_net_reads(out);
            cond.collect_net_reads(out);
            step.collect_net_reads(out);
            collect_stmt_reads(body, out);
        }
        RStmt::Null => {}
    }
}

fn collect_lvalue_index_reads(lv: &LValue, out: &mut Vec<NetId>) {
    match lv {
        LValue::Net(_) | LValue::Slice { .. } => {}
        LValue::IndexBit { index, .. } => index.collect_net_reads(out),
        LValue::DynSlice { start, .. } => start.collect_net_reads(out),
        LValue::MemWrite { index, .. } => index.collect_net_reads(out),
        LValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_index_reads(p, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::span::FileId;

    fn elab(src: &str) -> Design {
        let unit = parse(FileId(0), src).expect("parse");
        elaborate(&unit, "top").expect("elaborate")
    }

    fn elab_err(src: &str) -> RtlError {
        let unit = parse(FileId(0), src).expect("parse");
        elaborate(&unit, "top").expect_err("expected elaboration failure")
    }

    #[test]
    fn simple_module() {
        let d = elab("module top(input wire a, output wire y); assign y = ~a; endmodule");
        assert!(d.find_net("top.a").is_some());
        assert!(d.find_net("top.y").is_some());
        assert_eq!(d.processes().len(), 1);
        assert_eq!(d.top_inputs().count(), 1);
        assert_eq!(d.top_outputs().count(), 1);
    }

    #[test]
    fn parameters_resolve_widths() {
        let d = elab(
            "module top #(parameter W = 8)(input [W-1:0] a, output [W-1:0] y);
               assign y = a + {W{1'b1}};
             endmodule",
        );
        let a = d.find_net("top.a").expect("net");
        assert_eq!(d.net(a).width, 8);
    }

    #[test]
    fn hierarchy_and_param_overrides() {
        let d = elab(
            "module leaf #(parameter W = 4)(input [W-1:0] d, output [W-1:0] q);
               assign q = d;
             endmodule
             module top(input [7:0] d, output [7:0] q);
               leaf #(.W(8)) u_leaf (.d(d), .q(q));
             endmodule",
        );
        assert_eq!(d.instances().len(), 2);
        let leaf_d = d.find_net("top.u_leaf.d").expect("net");
        assert_eq!(d.net(leaf_d).width, 8);
        let inst = d.instance(crate::design::InstanceId(1));
        assert_eq!(inst.module, "leaf");
        assert_eq!(inst.params[0].0, "W");
        assert_eq!(inst.params[0].1.to_u64(), Some(8));
        // Two port-binding processes plus the leaf's assign.
        assert_eq!(d.processes().len(), 3);
    }

    #[test]
    fn always_edge_trigger_resolved() {
        let d = elab(
            "module top(input clk, rst_n, output reg [3:0] q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
        );
        let p = &d.processes()[0];
        match &p.trigger {
            Trigger::Edges(edges) => {
                assert_eq!(edges.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.origin.always_index, Some(0));
        // One site for the `if`.
        assert_eq!(d.sites().len(), 1);
    }

    #[test]
    fn star_sensitivity_computes_read_set() {
        let d = elab(
            "module top(input [3:0] a, b, input s, output reg [3:0] y);
               always @* if (s) y = a; else y = b;
             endmodule",
        );
        match &d.processes()[0].trigger {
            Trigger::AnyChange(reads) => {
                let names: Vec<_> = reads.iter().map(|n| d.net(*n).local_name.clone()).collect();
                assert!(names.contains(&"a".to_owned()));
                assert!(names.contains(&"b".to_owned()));
                assert!(names.contains(&"s".to_owned()));
                assert!(!names.contains(&"y".to_owned()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_declaration() {
        let d = elab(
            "module top(input clk, input [7:0] addr, wdata, input we, output reg [7:0] rdata);
               reg [7:0] mem [0:255];
               always @(posedge clk) begin
                 if (we) mem[addr] <= wdata;
                 rdata <= mem[addr];
               end
             endmodule",
        );
        let m = d.find_memory("top.mem").expect("memory");
        assert_eq!(d.memory(m).depth, 256);
        assert_eq!(d.memory(m).width, 8);
        assert_eq!(d.memory(m).base, 0);
    }

    #[test]
    fn context_width_preserves_carry() {
        // `sum = a + b` with 9-bit sum must widen the operands first.
        let d = elab(
            "module top(input [7:0] a, b, output [8:0] sum);
               assign sum = a + b;
             endmodule",
        );
        match &d.processes()[0].body {
            RStmt::Assign { rhs, .. } => {
                assert_eq!(rhs.width(), 9);
                match rhs {
                    RExpr::Binary {
                        op: BinaryOp::Add,
                        lhs,
                        ..
                    } => {
                        assert_eq!(lhs.width(), 9, "operand must be pre-widened");
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn narrowing_truncates_after_eval() {
        let d = elab(
            "module top(input [7:0] a, b, output [3:0] y);
               assign y = a + b;
             endmodule",
        );
        match &d.processes()[0].body {
            RStmt::Assign { rhs, .. } => {
                assert_eq!(rhs.width(), 4);
                assert!(matches!(rhs, RExpr::Resize { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_labels_fold_and_get_sites() {
        let d = elab(
            "module top(input [1:0] s, output reg [3:0] y);
               localparam SEL2 = 2'd2;
               always @* case (s)
                 2'd0: y = 4'd1;
                 SEL2: y = 4'd2;
                 default: y = 4'd0;
               endcase
             endmodule",
        );
        // Two labelled arms → two case-arm sites.
        assert_eq!(d.sites().len(), 2);
        match &d.processes()[0].body {
            RStmt::Case { arms, .. } => {
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[1].labels[0].to_u64(), Some(2));
                assert!(arms[2].site.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reg_initializer_stored() {
        let d = elab(
            "module top(output reg [3:0] q); initial q = q; endmodule
                      ",
        );
        let _ = d;
        let d2 = elab("module top(input clk); reg [3:0] q = 4'd5; endmodule");
        let q = d2.find_net("top.q").expect("q");
        assert_eq!(d2.net(q).init.as_ref().and_then(LogicVec::to_u64), Some(5));
    }

    #[test]
    fn errors_reported() {
        assert!(elab_err("module top(input a); assign b = a; endmodule")
            .message
            .contains("undeclared"));
        assert!(elab_err("module top(input a); sub u(.x(a)); endmodule")
            .message
            .contains("unknown module"));
        let e = elab_err(
            "module leaf(input a); endmodule
             module top(input a); leaf u(.nope(a)); endmodule",
        );
        assert!(e.message.contains("no port"));
        let e = elab_err(
            "module leaf #(parameter W=1)(input a); endmodule
             module top(input a); leaf #(.Q(2)) u(.a(a)); endmodule",
        );
        assert!(e.message.contains("no parameter"));
    }

    #[test]
    fn mixed_sensitivity_rejected() {
        let e = elab_err(
            "module top(input clk, d, output reg q);
               always @(posedge clk or d) q <= d;
             endmodule",
        );
        assert_eq!(e.kind, RtlErrorKind::Unsupported);
    }

    #[test]
    fn nonzero_lsb_range_rejected() {
        let e = elab_err("module top(input [8:1] a); endmodule");
        assert_eq!(e.kind, RtlErrorKind::Unsupported);
    }

    #[test]
    fn recursive_instantiation_caught() {
        let e = elab_err("module top(input a); top u(.a(a)); endmodule");
        assert!(e.message.contains("hierarchy"));
    }

    #[test]
    fn memory_with_base_offset() {
        let d = elab(
            "module top(input clk, input [3:0] addr, output reg [7:0] q);
               reg [7:0] mem [4:7];
               always @(posedge clk) q <= mem[addr];
             endmodule",
        );
        let m = d.find_memory("top.mem").expect("m");
        assert_eq!(d.memory(m).depth, 4);
        assert_eq!(d.memory(m).base, 4);
    }

    #[test]
    fn concat_lvalue_widths() {
        let d = elab(
            "module top(input [3:0] a, b, output reg c, output reg [3:0] s);
               always @* {c, s} = a + b;
             endmodule",
        );
        match &d.processes()[0].body {
            RStmt::Assign { lhs, rhs, .. } => {
                assert_eq!(lhs.width(&d), 5);
                assert_eq!(rhs.width(), 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unconnected_ports_allowed() {
        let d = elab(
            "module leaf(input a, output y); assign y = a; endmodule
             module top(input a); leaf u(.a(a), .y()); endmodule",
        );
        // Only the input binding + leaf assign.
        assert_eq!(d.processes().len(), 2);
    }
}
