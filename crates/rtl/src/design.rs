//! The elaborated design: a flattened, name-resolved, width-annotated IR.
//!
//! [`crate::elaborate::elaborate`] lowers a parsed [`crate::ast::SourceUnit`]
//! into a [`Design`]: every instance of every module gets its own nets,
//! memories and processes, port connections become continuous-assignment
//! processes, parameters are folded away, and every expression node carries
//! its final (context-determined) width. The simulator, the concolic engine,
//! the CFG binder and the synthesis estimator all work from this structure.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{BinaryOp, Edge, NetKind, UnaryOp};
use crate::span::Span;
use crate::value::LogicVec;

/// Index of a net (scalar/vector signal) in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a memory (unpacked array) in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// Index of a process in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Index of an instance in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Index of a static branch site (an `if` or one `case` comparison) in a
/// [`Design`]. The concolic engine records path constraints per site; the
/// AR_CFG binder maps extracted events onto sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchSiteId(pub u32);

/// A flattened signal.
#[derive(Debug, Clone)]
pub struct Net {
    /// Hierarchical name, e.g. `top.u_cpu.pc`.
    pub name: String,
    /// Name within its declaring module.
    pub local_name: String,
    /// Width in bits.
    pub width: u32,
    /// Declaration kind.
    pub kind: NetKind,
    /// Declaring instance.
    pub instance: InstanceId,
    /// `true` if this is an input port of the top module.
    pub is_top_input: bool,
    /// `true` if this is an output port of the top module.
    pub is_top_output: bool,
    /// Declared initializer (from `reg x = ...`), if any.
    pub init: Option<LogicVec>,
}

/// A flattened memory array.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Hierarchical name.
    pub name: String,
    /// Name within its declaring module.
    pub local_name: String,
    /// Element width in bits.
    pub width: u32,
    /// Number of elements.
    pub depth: u32,
    /// Lowest valid address (arrays may be declared `[base:base+n-1]`).
    pub base: u32,
    /// Declaring instance.
    pub instance: InstanceId,
}

/// A resolved, width-annotated expression.
///
/// Every variant's first-class `width` is the *final* width after context
/// determination; the interpreter never widens implicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Constant.
    Const(LogicVec),
    /// Whole-net read.
    Net {
        /// Net read.
        net: NetId,
        /// Net width (cached).
        width: u32,
    },
    /// Zero-extend or truncate to `width`.
    Resize {
        /// New width.
        width: u32,
        /// Inner expression.
        expr: Box<RExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Result width.
        width: u32,
        /// Operand.
        operand: Box<RExpr>,
    },
    /// Binary operation on equal-width operands (widening already applied).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Result width.
        width: u32,
        /// Left operand.
        lhs: Box<RExpr>,
        /// Right operand.
        rhs: Box<RExpr>,
    },
    /// Multiplexer `cond ? t : e`.
    Ternary {
        /// Result width.
        width: u32,
        /// Condition (1 bit effective).
        cond: Box<RExpr>,
        /// True value.
        then_expr: Box<RExpr>,
        /// False value.
        else_expr: Box<RExpr>,
    },
    /// Concatenation; `parts[0]` is the MSB part.
    Concat {
        /// Total width.
        width: u32,
        /// Parts, MSB first.
        parts: Vec<RExpr>,
    },
    /// Replication.
    Repeat {
        /// Total width.
        width: u32,
        /// Replication count.
        count: u32,
        /// Replicated expression.
        expr: Box<RExpr>,
    },
    /// Constant part-select `net[lo +: width]` (already normalized).
    Slice {
        /// Selected net.
        net: NetId,
        /// Low bit.
        lo: u32,
        /// Width.
        width: u32,
    },
    /// Dynamic single-bit select `net[index]`.
    IndexBit {
        /// Selected net.
        net: NetId,
        /// Index expression (self-determined width).
        index: Box<RExpr>,
    },
    /// Dynamic part-select `net[start +: width]`.
    DynSlice {
        /// Selected net.
        net: NetId,
        /// Start-bit expression.
        start: Box<RExpr>,
        /// Width.
        width: u32,
    },
    /// Memory element read `mem[index]`.
    MemRead {
        /// Memory.
        mem: MemId,
        /// Element width (cached).
        width: u32,
        /// Index expression.
        index: Box<RExpr>,
    },
}

impl RExpr {
    /// The expression's final width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        match self {
            RExpr::Const(v) => v.width(),
            RExpr::Net { width, .. }
            | RExpr::Resize { width, .. }
            | RExpr::Unary { width, .. }
            | RExpr::Binary { width, .. }
            | RExpr::Ternary { width, .. }
            | RExpr::Concat { width, .. }
            | RExpr::Repeat { width, .. }
            | RExpr::Slice { width, .. }
            | RExpr::DynSlice { width, .. }
            | RExpr::MemRead { width, .. } => *width,
            RExpr::IndexBit { .. } => 1,
        }
    }

    /// Collects the nets read by this expression.
    pub fn collect_net_reads(&self, out: &mut Vec<NetId>) {
        match self {
            RExpr::Const(_) => {}
            RExpr::Net { net, .. } => out.push(*net),
            RExpr::Resize { expr, .. } | RExpr::Repeat { expr, .. } => {
                expr.collect_net_reads(out);
            }
            RExpr::Unary { operand, .. } => operand.collect_net_reads(out),
            RExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_net_reads(out);
                rhs.collect_net_reads(out);
            }
            RExpr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.collect_net_reads(out);
                then_expr.collect_net_reads(out);
                else_expr.collect_net_reads(out);
            }
            RExpr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_net_reads(out);
                }
            }
            RExpr::Slice { net, .. } => out.push(*net),
            RExpr::IndexBit { net, index } => {
                out.push(*net);
                index.collect_net_reads(out);
            }
            RExpr::DynSlice { net, start, .. } => {
                out.push(*net);
                start.collect_net_reads(out);
            }
            RExpr::MemRead { index, .. } => index.collect_net_reads(out),
        }
    }
}

/// A resolved assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole net.
    Net(NetId),
    /// Constant bit range of a net.
    Slice {
        /// Target net.
        net: NetId,
        /// Low bit.
        lo: u32,
        /// Width.
        width: u32,
    },
    /// Dynamically indexed single bit.
    IndexBit {
        /// Target net.
        net: NetId,
        /// Index expression.
        index: RExpr,
    },
    /// Dynamically indexed part-select.
    DynSlice {
        /// Target net.
        net: NetId,
        /// Start-bit expression.
        start: RExpr,
        /// Width.
        width: u32,
    },
    /// Memory element write.
    MemWrite {
        /// Target memory.
        mem: MemId,
        /// Index expression.
        index: RExpr,
    },
    /// Concatenated targets, MSB part first.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Total width of the target in bits (given the owning design).
    #[must_use]
    pub fn width(&self, design: &Design) -> u32 {
        match self {
            LValue::Net(n) => design.net(*n).width,
            LValue::Slice { width, .. } | LValue::DynSlice { width, .. } => *width,
            LValue::IndexBit { .. } => 1,
            LValue::MemWrite { mem, .. } => design.memory(*mem).width,
            LValue::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }

    /// The nets (or memory) this lvalue drives.
    pub fn collect_targets(&self, nets: &mut Vec<NetId>, mems: &mut Vec<MemId>) {
        match self {
            LValue::Net(n)
            | LValue::Slice { net: n, .. }
            | LValue::IndexBit { net: n, .. }
            | LValue::DynSlice { net: n, .. } => nets.push(*n),
            LValue::MemWrite { mem, .. } => mems.push(*mem),
            LValue::Concat(parts) => {
                for p in parts {
                    p.collect_targets(nets, mems);
                }
            }
        }
    }
}

/// One constant label of a lowered case arm, extended to the width the
/// selector is compared at.
#[derive(Debug, Clone, PartialEq)]
pub struct RCaseLabel {
    /// The label (4-state). For `casez`/`casex` its wildcard bits are
    /// cleared, so it equals the label ANDed with `care`.
    pub value: LogicVec,
    /// `casez`/`casex`: the care mask, `1` where the selector bit must
    /// match `value` (see [`LogicVec::case_care_mask`]). `None` for a
    /// plain `case`, which compares every bit.
    pub care: Option<LogicVec>,
}

/// One arm of a lowered case statement.
#[derive(Debug, Clone, PartialEq)]
pub struct RCaseArm {
    /// Constant labels. Empty for the default arm.
    pub labels: Vec<RCaseLabel>,
    /// Branch site recording the comparison for this arm (`None` for the
    /// default arm).
    pub site: Option<BranchSiteId>,
    /// Arm body.
    pub body: RStmt,
}

/// A resolved procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Sequence.
    Block(Vec<RStmt>),
    /// Conditional with its branch site.
    If {
        /// Branch site id (for path constraints / AR_CFG binding).
        site: BranchSiteId,
        /// Condition.
        cond: RExpr,
        /// Taken when the condition is true.
        then_stmt: Box<RStmt>,
        /// Taken when the condition is false (if present).
        else_stmt: Option<Box<RStmt>>,
    },
    /// Case dispatch.
    Case {
        /// Selector expression, extended to the widest label. The flavor
        /// (`case`, `casez`, `casex`) lives in each label's care mask.
        selector: RExpr,
        /// Arms in order; at most one default (empty labels).
        arms: Vec<RCaseArm>,
    },
    /// Assignment.
    Assign {
        /// Target.
        lhs: LValue,
        /// Total width of the target, [`LValue::width`] of `lhs`.
        width: u32,
        /// Source (already resized to the target width).
        rhs: RExpr,
        /// `true` for `<=`.
        nonblocking: bool,
    },
    /// Bounded loop over an `integer` net.
    For {
        /// Loop variable (an integer net local to the instance).
        var: NetId,
        /// Initial value.
        init: RExpr,
        /// Continuation condition.
        cond: RExpr,
        /// Step value assigned to `var` each iteration.
        step: RExpr,
        /// Body.
        body: Box<RStmt>,
    },
    /// No-op.
    Null,
}

/// How a process is triggered.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Edge-sensitive `always` block: runs when any listed edge occurs.
    Edges(Vec<(NetId, Edge)>),
    /// Level-sensitive: runs when any listed net changes value
    /// (combinational `always @*`, explicit level lists, continuous
    /// assignments and port bindings).
    AnyChange(Vec<NetId>),
    /// Runs once at time zero (`initial`).
    Once,
}

/// Where a process came from, for AR_CFG binding and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessOrigin {
    /// Declaring module name.
    pub module: String,
    /// Index among the module's `always` blocks (`None` for continuous
    /// assignments, port bindings and `initial` blocks).
    pub always_index: Option<u32>,
    /// Source span of the originating item.
    pub span: Span,
}

/// A runnable process of the elaborated design.
#[derive(Debug, Clone)]
pub struct Process {
    /// Trigger condition.
    pub trigger: Trigger,
    /// Body.
    pub body: RStmt,
    /// Owning instance.
    pub instance: InstanceId,
    /// Provenance.
    pub origin: ProcessOrigin,
}

/// Metadata about one elaborated instance.
#[derive(Debug, Clone)]
pub struct InstanceInfo {
    /// Hierarchical instance name (`top`, `top.u_cpu`, ...).
    pub name: String,
    /// Module definition name.
    pub module: String,
    /// Parent instance (`None` for the top).
    pub parent: Option<InstanceId>,
    /// Resolved parameter values.
    pub params: Vec<(String, LogicVec)>,
}

/// Kinds of branch sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// An `if` condition.
    If,
    /// One label comparison of a `case` arm.
    CaseArm,
}

/// Metadata about one branch site.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Owning process.
    pub process: ProcessId,
    /// Kind.
    pub kind: SiteKind,
    /// Source span of the condition / arm.
    pub span: Span,
}

/// The fully elaborated design.
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// Name of the top module.
    pub top_module: String,
    nets: Vec<Net>,
    memories: Vec<Memory>,
    processes: Vec<Process>,
    instances: Vec<InstanceInfo>,
    sites: Vec<SiteInfo>,
    by_name: HashMap<String, NetId>,
    mem_by_name: HashMap<String, MemId>,
}

impl Design {
    /// Creates an empty design (used by the elaborator).
    #[must_use]
    pub fn new(top_module: impl Into<String>) -> Design {
        Design {
            top_module: top_module.into(),
            ..Design::default()
        }
    }

    /// All nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All memories.
    #[must_use]
    pub fn memories(&self) -> &[Memory] {
        &self.memories
    }

    /// All processes.
    #[must_use]
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// All instances; index 0 is the top.
    #[must_use]
    pub fn instances(&self) -> &[InstanceInfo] {
        &self.instances
    }

    /// All branch sites.
    #[must_use]
    pub fn sites(&self) -> &[SiteInfo] {
        &self.sites
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a net of this design.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Looks up a memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a memory of this design.
    #[must_use]
    pub fn memory(&self, id: MemId) -> &Memory {
        &self.memories[id.0 as usize]
    }

    /// Looks up a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this design.
    #[must_use]
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.0 as usize]
    }

    /// Looks up an instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instance of this design.
    #[must_use]
    pub fn instance(&self, id: InstanceId) -> &InstanceInfo {
        &self.instances[id.0 as usize]
    }

    /// Looks up a branch site.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a site of this design.
    #[must_use]
    pub fn site(&self, id: BranchSiteId) -> &SiteInfo {
        &self.sites[id.0 as usize]
    }

    /// Finds a net by hierarchical name.
    #[must_use]
    pub fn find_net(&self, hier_name: &str) -> Option<NetId> {
        self.by_name.get(hier_name).copied()
    }

    /// Finds a memory by hierarchical name.
    #[must_use]
    pub fn find_memory(&self, hier_name: &str) -> Option<MemId> {
        self.mem_by_name.get(hier_name).copied()
    }

    /// Nets that are input ports of the top module.
    pub fn top_inputs(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_top_input)
            .map(|(i, _)| NetId(i as u32))
    }

    /// Nets that are output ports of the top module.
    pub fn top_outputs(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_top_output)
            .map(|(i, _)| NetId(i as u32))
    }

    /// Registers a net (elaborator use). Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a net with the same hierarchical name already exists.
    pub fn add_net(&mut self, net: Net) -> NetId {
        let id = NetId(self.nets.len() as u32);
        let prev = self.by_name.insert(net.name.clone(), id);
        assert!(prev.is_none(), "duplicate net name {}", net.name);
        self.nets.push(net);
        id
    }

    /// Registers a memory (elaborator use). Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a memory with the same hierarchical name already exists.
    pub fn add_memory(&mut self, mem: Memory) -> MemId {
        let id = MemId(self.memories.len() as u32);
        let prev = self.mem_by_name.insert(mem.name.clone(), id);
        assert!(prev.is_none(), "duplicate memory name {}", mem.name);
        self.memories.push(mem);
        id
    }

    /// Registers a process (elaborator use). Returns its id.
    pub fn add_process(&mut self, process: Process) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(process);
        id
    }

    /// Registers an instance (elaborator use). Returns its id.
    pub fn add_instance(&mut self, inst: InstanceInfo) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(inst);
        id
    }

    /// Mutable access to an instance (elaborator use: parameters are
    /// resolved after the instance entry is created).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instance of this design.
    pub fn instance_mut(&mut self, id: InstanceId) -> &mut InstanceInfo {
        &mut self.instances[id.0 as usize]
    }

    /// Registers a branch site (elaborator use). Returns its id.
    pub fn add_site(&mut self, site: SiteInfo) -> BranchSiteId {
        let id = BranchSiteId(self.sites.len() as u32);
        self.sites.push(site);
        id
    }

    /// Summary statistics (for reports and the synthesis estimator).
    #[must_use]
    pub fn stats(&self) -> DesignStats {
        let reg_bits = self
            .nets
            .iter()
            .filter(|n| n.kind == NetKind::Reg)
            .map(|n| u64::from(n.width))
            .sum();
        let mem_bits = self
            .memories
            .iter()
            .map(|m| u64::from(m.width) * u64::from(m.depth))
            .sum();
        DesignStats {
            nets: self.nets.len(),
            memories: self.memories.len(),
            processes: self.processes.len(),
            instances: self.instances.len(),
            branch_sites: self.sites.len(),
            reg_bits,
            mem_bits,
        }
    }
}

/// Aggregate size statistics of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DesignStats {
    /// Number of nets.
    pub nets: usize,
    /// Number of memories.
    pub memories: usize,
    /// Number of processes.
    pub processes: usize,
    /// Number of instances.
    pub instances: usize,
    /// Number of branch sites.
    pub branch_sites: usize,
    /// Total flip-flop-candidate bits.
    pub reg_bits: u64,
    /// Total memory bits.
    pub mem_bits: u64,
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instances, {} nets, {} memories ({} bits), {} processes, {} branch sites, {} reg bits",
            self.instances, self.nets, self.memories, self.mem_bits, self.processes,
            self.branch_sites, self.reg_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_net(name: &str, width: u32) -> Net {
        Net {
            name: name.into(),
            local_name: name.rsplit('.').next().unwrap_or(name).into(),
            width,
            kind: NetKind::Wire,
            instance: InstanceId(0),
            is_top_input: false,
            is_top_output: false,
            init: None,
        }
    }

    #[test]
    fn add_and_find_nets() {
        let mut d = Design::new("top");
        let a = d.add_net(dummy_net("top.a", 8));
        let b = d.add_net(dummy_net("top.b", 1));
        assert_eq!(d.find_net("top.a"), Some(a));
        assert_eq!(d.find_net("top.b"), Some(b));
        assert_eq!(d.find_net("top.c"), None);
        assert_eq!(d.net(a).width, 8);
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_panics() {
        let mut d = Design::new("top");
        d.add_net(dummy_net("top.a", 1));
        d.add_net(dummy_net("top.a", 1));
    }

    #[test]
    fn rexpr_width_and_reads() {
        let e = RExpr::Binary {
            op: BinaryOp::Add,
            width: 8,
            lhs: Box::new(RExpr::Net {
                net: NetId(0),
                width: 8,
            }),
            rhs: Box::new(RExpr::Resize {
                width: 8,
                expr: Box::new(RExpr::Net {
                    net: NetId(1),
                    width: 4,
                }),
            }),
        };
        assert_eq!(e.width(), 8);
        let mut reads = Vec::new();
        e.collect_net_reads(&mut reads);
        assert_eq!(reads, vec![NetId(0), NetId(1)]);
    }

    #[test]
    fn lvalue_width() {
        let mut d = Design::new("top");
        let a = d.add_net(dummy_net("top.a", 8));
        let b = d.add_net(dummy_net("top.b", 3));
        let lv = LValue::Concat(vec![
            LValue::Net(a),
            LValue::Slice {
                net: b,
                lo: 1,
                width: 2,
            },
        ]);
        assert_eq!(lv.width(&d), 10);
        let mut nets = Vec::new();
        let mut mems = Vec::new();
        lv.collect_targets(&mut nets, &mut mems);
        assert_eq!(nets, vec![a, b]);
        assert!(mems.is_empty());
    }

    #[test]
    fn stats_counts() {
        let mut d = Design::new("top");
        d.add_instance(InstanceInfo {
            name: "top".into(),
            module: "top".into(),
            parent: None,
            params: vec![],
        });
        let mut n = dummy_net("top.q", 16);
        n.kind = NetKind::Reg;
        d.add_net(n);
        d.add_memory(Memory {
            name: "top.mem".into(),
            local_name: "mem".into(),
            width: 8,
            depth: 256,
            base: 0,
            instance: InstanceId(0),
        });
        let s = d.stats();
        assert_eq!(s.reg_bits, 16);
        assert_eq!(s.mem_bits, 2048);
        assert_eq!(s.instances, 1);
        assert!(!s.to_string().is_empty());
    }
}
