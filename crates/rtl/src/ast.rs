//! Abstract syntax tree for the Verilog subset.
//!
//! The AST is deliberately close to the source: the CFG extractor
//! (`soccar-cfg`) reasons about `always` blocks, sensitivity lists and
//! leading conditionals exactly as SoCCAR's Algorithm 1 describes, and the
//! bug-insertion engine (`soccar-soc`) mutates these nodes directly.

use std::fmt;

use crate::span::Span;
use crate::value::LogicVec;

/// A parsed source unit: one or more module definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceUnit {
    /// Modules in source order.
    pub modules: Vec<Module>,
}

impl SourceUnit {
    /// Finds a module by name.
    #[must_use]
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The byte offset where the last module ends: the source's size
    /// less trailing comments and whitespace. The per-module stages size
    /// their worker pools by it (see
    /// [`crate::fingerprint::fanout_jobs`]).
    #[must_use]
    pub fn extent(&self) -> usize {
        self.modules.last().map_or(0, |m| m.span.end as usize)
    }
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven from inside the module.
    Output,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
        })
    }
}

/// Net kind of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Continuous-assignment net.
    Wire,
    /// Procedural variable.
    Reg,
    /// 32-bit procedural variable (loop counters).
    Integer,
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetKind::Wire => "wire",
            NetKind::Reg => "reg",
            NetKind::Integer => "integer",
        })
    }
}

/// A `[msb:lsb]` packed range; both bounds are constant expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// Most-significant bound expression.
    pub msb: Expr,
    /// Least-significant bound expression.
    pub lsb: Expr,
    /// Source location of the whole range.
    pub span: Span,
}

/// A module port in the header.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// `reg` outputs are procedural; everything else is a wire.
    pub kind: NetKind,
    /// Optional packed range.
    pub range: Option<Range>,
    /// Source location.
    pub span: Span,
}

/// A parameter (or localparam) declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Default / assigned value expression (constant).
    pub value: Expr,
    /// `true` for `localparam` (not overridable at instantiation).
    pub local: bool,
    /// Source location.
    pub span: Span,
}

/// One declarator in a net declaration: `name`, optional unpacked
/// (memory) range, optional initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Declared name.
    pub name: String,
    /// Memory dimension `[lo:hi]` if this is an array.
    pub array: Option<Range>,
    /// Optional `= expr` initializer (constant; wires only in subset).
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A net/variable declaration item.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDecl {
    /// Wire / reg / integer.
    pub kind: NetKind,
    /// Optional packed range shared by all declarators.
    pub range: Option<Range>,
    /// Declared names.
    pub names: Vec<Declarator>,
    /// Source location.
    pub span: Span,
}

/// Edge qualifier in a sensitivity list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// `posedge`.
    Pos,
    /// `negedge`.
    Neg,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Edge::Pos => "posedge",
            Edge::Neg => "negedge",
        })
    }
}

/// One entry of an `@(...)` event list.
#[derive(Debug, Clone, PartialEq)]
pub struct SensItem {
    /// Edge qualifier; `None` for level sensitivity.
    pub edge: Option<Edge>,
    /// The watched signal (an identifier in the subset).
    pub signal: String,
    /// Source location.
    pub span: Span,
}

/// Sensitivity specification of an `always` block.
#[derive(Debug, Clone, PartialEq)]
pub enum Sensitivity {
    /// `@*` / `@(*)`: combinational, inferred read set.
    Star,
    /// Explicit event list.
    List(Vec<SensItem>),
}

impl Sensitivity {
    /// Items of an explicit list; empty for `Star`.
    #[must_use]
    pub fn items(&self) -> &[SensItem] {
        match self {
            Sensitivity::Star => &[],
            Sensitivity::List(items) => items,
        }
    }

    /// `true` if any item is edge-qualified.
    #[must_use]
    pub fn has_edges(&self) -> bool {
        self.items().iter().any(|i| i.edge.is_some())
    }
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysBlock {
    /// The `@(...)` event control.
    pub sensitivity: Sensitivity,
    /// Body statement.
    pub body: Stmt,
    /// Source location (of the `always` keyword through the body).
    pub span: Span,
}

impl AlwaysBlock {
    /// Edge-qualified entries of the sensitivity list.
    pub fn edge_items(&self) -> impl Iterator<Item = &SensItem> {
        self.sensitivity.items().iter().filter(|i| i.edge.is_some())
    }

    /// `true` if the block is combinational (`@*` or a level-only list).
    #[must_use]
    pub fn is_combinational(&self) -> bool {
        !self.sensitivity.has_edges()
    }
}

/// A named connection in an instantiation: `.port(expr)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PortConn {
    /// Formal port name.
    pub port: String,
    /// Actual expression; `None` for an explicitly unconnected port.
    pub expr: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module definition.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// `#(.P(v), ...)` parameter overrides.
    pub params: Vec<PortConn>,
    /// Port connections (named form only in the subset).
    pub conns: Vec<PortConn>,
    /// Source location.
    pub span: Span,
}

/// A module item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Net/variable declaration.
    Net(NetDecl),
    /// `parameter`/`localparam`.
    Param(ParamDecl),
    /// `assign lhs = rhs;`
    Assign {
        /// Left-hand side (lvalue expression).
        lhs: Expr,
        /// Right-hand side.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// `always @(...) ...`
    Always(AlwaysBlock),
    /// `initial ...` (used only to preload memories/registers in tests).
    Initial {
        /// Body statement.
        body: Stmt,
        /// Source location.
        span: Span,
    },
    /// Module instantiation.
    Instance(Instance),
}

impl Item {
    /// The item's source location.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Item::Net(d) => d.span,
            Item::Param(p) => p.span,
            Item::Assign { span, .. } | Item::Initial { span, .. } => *span,
            Item::Always(a) => a.span,
            Item::Instance(i) => i.span,
        }
    }
}

/// A module definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Header parameter list (`#(parameter ...)`).
    pub params: Vec<ParamDecl>,
    /// ANSI-style port list.
    pub ports: Vec<Port>,
    /// Body items.
    pub items: Vec<Item>,
    /// Source location.
    pub span: Span,
}

impl Module {
    /// Iterates over the `always` blocks of the module.
    pub fn always_blocks(&self) -> impl Iterator<Item = &AlwaysBlock> {
        self.items.iter().filter_map(|i| match i {
            Item::Always(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over the instances of the module.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.items.iter().filter_map(|i| match i {
            Item::Instance(inst) => Some(inst),
            _ => None,
        })
    }

    /// Finds a port by name.
    #[must_use]
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates over the continuous assignments of the module as
    /// `(lhs, rhs, span)` triples.
    pub fn assigns(&self) -> impl Iterator<Item = (&Expr, &Expr, Span)> {
        self.items.iter().filter_map(|i| match i {
            Item::Assign { lhs, rhs, span } => Some((lhs, rhs, *span)),
            _ => None,
        })
    }

    /// Iterates over the net/variable declarations of the module.
    pub fn net_decls(&self) -> impl Iterator<Item = &NetDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Net(d) => Some(d),
            _ => None,
        })
    }
}

/// `case` flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Exact (4-state) comparison.
    Case,
    /// `z`/`?` bits in labels are wildcards.
    Casez,
    /// `x` and `z` bits in labels are wildcards.
    Casex,
}

/// One arm of a case statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Labels; empty means `default`.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
    /// Source location.
    pub span: Span,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin ... end`.
    Block {
        /// Statements in order.
        stmts: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_stmt: Box<Stmt>,
        /// Optional else branch.
        else_stmt: Option<Box<Stmt>>,
        /// Source location.
        span: Span,
    },
    /// `case/casez/casex (sel) ... endcase`.
    Case {
        /// Flavor.
        kind: CaseKind,
        /// Selector.
        selector: Expr,
        /// Arms (a `default` arm has empty labels).
        arms: Vec<CaseArm>,
        /// Source location.
        span: Span,
    },
    /// Blocking assignment `lhs = rhs;`.
    Blocking {
        /// Lvalue.
        lhs: Expr,
        /// Value.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// Non-blocking assignment `lhs <= rhs;`.
    NonBlocking {
        /// Lvalue.
        lhs: Expr,
        /// Value.
        rhs: Expr,
        /// Source location.
        span: Span,
    },
    /// Bounded `for` loop (executed procedurally by the interpreter).
    For {
        /// Loop variable name (an `integer` or `reg`).
        var: String,
        /// Initial value.
        init: Expr,
        /// Continuation condition.
        cond: Expr,
        /// Step expression assigned back to `var` each iteration.
        step: Expr,
        /// Body.
        body: Box<Stmt>,
        /// Source location.
        span: Span,
    },
    /// Null statement `;` (also used for ignored system tasks).
    Null {
        /// Source location.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source location.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Stmt::Block { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Case { span, .. }
            | Stmt::Blocking { span, .. }
            | Stmt::NonBlocking { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Null { span } => *span,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `~` bitwise not.
    Not,
    /// `!` logical not.
    LogicalNot,
    /// `-` negation.
    Neg,
    /// `+` no-op.
    Plus,
    /// `&` reduction and.
    RedAnd,
    /// `|` reduction or.
    RedOr,
    /// `^` reduction xor.
    RedXor,
    /// `~&` reduction nand (parsed as `~` of `&` in subset sources, kept
    /// for completeness of the printer).
    RedNand,
    /// `~|` reduction nor.
    RedNor,
    /// `~^` reduction xnor.
    RedXnor,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants name their Verilog operator
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    And,
    Or,
    Xor,
    Xnor,
    LogicalAnd,
    LogicalOr,
    Eq,
    Ne,
    CaseEq,
    CaseNe,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
    AShr,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal number.
    Number {
        /// Value (width already applied).
        value: LogicVec,
        /// Whether the literal had an explicit size.
        sized: bool,
        /// Source location.
        span: Span,
    },
    /// Identifier reference.
    Ident {
        /// Referenced name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `cond ? then : else`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `{a, b, c}`.
    Concat {
        /// Parts, MSB part first (Verilog order).
        parts: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// `{n{expr}}`.
    Repeat {
        /// Replication count (constant).
        count: Box<Expr>,
        /// Replicated expression.
        expr: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `base[index]` — bit-select or memory element.
    Index {
        /// Indexed identifier.
        base: String,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `base[msb:lsb]` — constant part-select.
    PartSelect {
        /// Selected identifier.
        base: String,
        /// MSB bound (constant).
        msb: Box<Expr>,
        /// LSB bound (constant).
        lsb: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `base[start +: width]` — indexed part-select.
    IndexedPartSelect {
        /// Selected identifier.
        base: String,
        /// Start bit expression.
        start: Box<Expr>,
        /// Width (constant).
        width: Box<Expr>,
        /// `true` for `+:`, `false` for `-:`.
        ascending: bool,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// The expression's source location.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Expr::Number { span, .. }
            | Expr::Ident { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Concat { span, .. }
            | Expr::Repeat { span, .. }
            | Expr::Index { span, .. }
            | Expr::PartSelect { span, .. }
            | Expr::IndexedPartSelect { span, .. } => *span,
        }
    }

    /// Convenience constructor for an identifier with a dummy span.
    #[must_use]
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident {
            name: name.into(),
            span: Span::dummy(),
        }
    }

    /// Convenience constructor for a sized number with a dummy span.
    #[must_use]
    pub fn number(width: u32, value: u64) -> Expr {
        Expr::Number {
            value: LogicVec::from_u64(width, value),
            sized: true,
            span: Span::dummy(),
        }
    }

    /// Collects every identifier read by this expression into `out`.
    ///
    /// Used for `@*` read-set inference and continuous-assign sensitivity.
    pub fn collect_reads(&self, out: &mut Vec<String>) {
        match self {
            Expr::Number { .. } => {}
            Expr::Ident { name, .. } => out.push(name.clone()),
            Expr::Unary { operand, .. } => operand.collect_reads(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_reads(out);
                rhs.collect_reads(out);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.collect_reads(out);
                then_expr.collect_reads(out);
                else_expr.collect_reads(out);
            }
            Expr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_reads(out);
                }
            }
            Expr::Repeat { count, expr, .. } => {
                count.collect_reads(out);
                expr.collect_reads(out);
            }
            Expr::Index { base, index, .. } => {
                out.push(base.clone());
                index.collect_reads(out);
            }
            Expr::PartSelect { base, msb, lsb, .. } => {
                out.push(base.clone());
                msb.collect_reads(out);
                lsb.collect_reads(out);
            }
            Expr::IndexedPartSelect {
                base, start, width, ..
            } => {
                out.push(base.clone());
                start.collect_reads(out);
                width.collect_reads(out);
            }
        }
    }

    /// `true` if the expression is a single reference to `name` or its
    /// logical/bitwise negation — the shapes a reset guard takes
    /// (`if (rst)`, `if (!rst_n)`, `if (~rst_n)`).
    #[must_use]
    pub fn is_signal_test(&self, name: &str) -> bool {
        match self {
            Expr::Ident { name: n, .. } => n == name,
            Expr::Unary {
                op: UnaryOp::LogicalNot | UnaryOp::Not,
                operand,
                ..
            } => operand.is_signal_test(name),
            Expr::Binary {
                op: BinaryOp::Eq | BinaryOp::Ne,
                lhs,
                rhs,
                ..
            } => {
                (matches!(&**lhs, Expr::Ident { name: n, .. } if n == name)
                    && matches!(&**rhs, Expr::Number { .. }))
                    || (matches!(&**rhs, Expr::Ident { name: n, .. } if n == name)
                        && matches!(&**lhs, Expr::Number { .. }))
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reads_walks_everything() {
        let e = Expr::Ternary {
            cond: Box::new(Expr::ident("c")),
            then_expr: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(Expr::ident("a")),
                rhs: Box::new(Expr::Index {
                    base: "mem".into(),
                    index: Box::new(Expr::ident("i")),
                    span: Span::dummy(),
                }),
                span: Span::dummy(),
            }),
            else_expr: Box::new(Expr::number(8, 0)),
            span: Span::dummy(),
        };
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        assert_eq!(reads, vec!["c", "a", "mem", "i"]);
    }

    #[test]
    fn is_signal_test_recognizes_reset_guards() {
        let direct = Expr::ident("rst");
        assert!(direct.is_signal_test("rst"));
        let not = Expr::Unary {
            op: UnaryOp::LogicalNot,
            operand: Box::new(Expr::ident("rst_n")),
            span: Span::dummy(),
        };
        assert!(not.is_signal_test("rst_n"));
        assert!(!not.is_signal_test("clk"));
        let eq = Expr::Binary {
            op: BinaryOp::Eq,
            lhs: Box::new(Expr::ident("rst_n")),
            rhs: Box::new(Expr::number(1, 0)),
            span: Span::dummy(),
        };
        assert!(eq.is_signal_test("rst_n"));
    }

    #[test]
    fn module_accessors() {
        let m = Module {
            name: "m".into(),
            params: vec![],
            ports: vec![Port {
                name: "clk".into(),
                dir: PortDir::Input,
                kind: NetKind::Wire,
                range: None,
                span: Span::dummy(),
            }],
            items: vec![Item::Always(AlwaysBlock {
                sensitivity: Sensitivity::Star,
                body: Stmt::Null {
                    span: Span::dummy(),
                },
                span: Span::dummy(),
            })],
            span: Span::dummy(),
        };
        assert!(m.port("clk").is_some());
        assert!(m.port("nope").is_none());
        assert_eq!(m.always_blocks().count(), 1);
        assert_eq!(m.instances().count(), 0);
    }

    #[test]
    fn sensitivity_helpers() {
        let s = Sensitivity::List(vec![SensItem {
            edge: Some(Edge::Pos),
            signal: "clk".into(),
            span: Span::dummy(),
        }]);
        assert!(s.has_edges());
        assert!(!Sensitivity::Star.has_edges());
        assert_eq!(Sensitivity::Star.items().len(), 0);
    }
}
