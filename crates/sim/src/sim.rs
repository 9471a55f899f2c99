//! The event-driven simulator.
//!
//! [`Simulator`] executes an elaborated [`Design`] with IEEE-1364
//! scheduling semantics restricted to the synthesizable subset:
//!
//! * delta cycles: blocking assignments take effect immediately and wake
//!   sensitive processes; non-blocking assignments are queued and committed
//!   when the active region drains;
//! * edge-sensitive processes wake on 4-state edges of their watched
//!   signals (`0→1`, `0→X`, `X→1` count as posedge, mirrored for negedge) —
//!   this is what makes *asynchronous* resets asynchronous;
//! * level-sensitive processes (`always @*`, continuous assignments, port
//!   bindings) wake whenever a net in their read set changes.
//!
//! The interpreter is generic over an [`Algebra`], so the same code path
//! drives both pure-concrete simulation and the concolic co-simulation.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use soccar_rtl::ast::{CaseKind, Edge, NetKind};
use soccar_rtl::design::{
    Design, LValue, MemId, NetId, ProcessId, RCaseArm, RExpr, RStmt, Trigger,
};
use soccar_rtl::value::{Bit, LogicVec};

use crate::algebra::{Algebra, ConcreteAlgebra};
use crate::error::{SimError, SimResult};

/// Iteration bound for procedural `for` loops.
const FOR_LOOP_LIMIT: u64 = 1 << 20;
/// Process-execution budget per [`Simulator::settle`] call.
const SETTLE_LIMIT: u64 = 1 << 18;

/// How registers (and memories) are initialized at time zero.
///
/// SoCCAR's Algorithm 3 initializes registers to all-ones "so we can
/// validate the major functionalities of asynchronous resets such as
/// register clearance" — a register that should have been cleared by a
/// reset still reads ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitPolicy {
    /// IEEE-1364 default: everything starts `X`.
    #[default]
    X,
    /// Registers and memory elements start at zero.
    Zeros,
    /// Registers and memory elements start at all-ones (the SoCCAR policy).
    Ones,
}

impl InitPolicy {
    fn value(self, width: u32) -> LogicVec {
        match self {
            InitPolicy::X => LogicVec::xes(width),
            InitPolicy::Zeros => LogicVec::zeros(width),
            InitPolicy::Ones => LogicVec::ones(width),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct WakeEntry {
    process: ProcessId,
    edge: Option<Edge>,
}

/// Which processes a change of each net wakes, and on which edge: the
/// design-static half of the scheduler. Build it once per design with
/// [`WakeMap::new`] and share it between simulators through
/// [`Simulator::with_wake_map`]; [`Simulator::with_algebra`] builds a
/// private one.
#[derive(Debug)]
pub struct WakeMap(Vec<Vec<WakeEntry>>);

impl WakeMap {
    /// Builds the wake map of `design`.
    #[must_use]
    pub fn new(design: &Design) -> WakeMap {
        let mut map: Vec<Vec<WakeEntry>> = vec![Vec::new(); design.nets().len()];
        for (i, p) in design.processes().iter().enumerate() {
            let process = ProcessId(i as u32);
            match &p.trigger {
                Trigger::Edges(edges) => {
                    for (net, edge) in edges {
                        map[net.0 as usize].push(WakeEntry {
                            process,
                            edge: Some(*edge),
                        });
                    }
                }
                Trigger::AnyChange(nets) => {
                    for net in nets {
                        map[net.0 as usize].push(WakeEntry {
                            process,
                            edge: None,
                        });
                    }
                }
                Trigger::Once => {}
            }
        }
        WakeMap(map)
    }
}

/// Words per memory page, the unit in which a memory's written words are
/// stored.
const PAGE_WORDS: u64 = 64;

/// One memory's contents. Every word reads `default` until it is
/// written; written words live in 64-word pages allocated on first write
/// and keyed by page index. There is no dense page table, so an untouched
/// memory costs the same at any depth, and a clone copies only the
/// touched pages.
#[derive(Debug, Clone)]
struct MemStore<V> {
    depth: u64,
    default: V,
    pages: BTreeMap<u64, Box<[V]>>,
}

impl<V: Clone> MemStore<V> {
    fn read(&self, addr: u64) -> &V {
        self.pages
            .get(&(addr / PAGE_WORDS))
            .map_or(&self.default, |page| &page[(addr % PAGE_WORDS) as usize])
    }

    fn write(&mut self, addr: u64, value: V) {
        let default = &self.default;
        let page = self
            .pages
            .entry(addr / PAGE_WORDS)
            .or_insert_with(|| vec![default.clone(); PAGE_WORDS as usize].into_boxed_slice());
        page[(addr % PAGE_WORDS) as usize] = value;
    }

    /// Panics with the documented message if `addr` is out of range.
    fn check(&self, addr: u64) {
        assert!(
            addr < self.depth,
            "memory address {addr} out of range (depth {})",
            self.depth
        );
    }
}

#[derive(Debug, Clone)]
enum PrimWrite<V> {
    Net {
        net: NetId,
        lo: u32,
        width: u32,
        value: V,
    },
    Mem {
        mem: MemId,
        addr: u64,
        value: V,
    },
    /// A write whose dynamic index evaluated to X, or to a bit position
    /// past `u32::MAX` (past every net): dropped, per the documented subset
    /// semantics.
    Dropped,
}

/// A recorded value change, for waveform output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time at which the change committed.
    pub time: u64,
    /// Changed net.
    pub net: NetId,
    /// New concrete value.
    pub value: LogicVec,
}

/// The event-driven simulator. See the [module docs](self) for semantics.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use soccar_sim::{InitPolicy, Simulator};
///
/// let (design, _) = soccar_rtl::compile("c.v", "
///   module counter(input clk, input rst_n, output reg [3:0] q);
///     always @(posedge clk or negedge rst_n)
///       if (!rst_n) q <= 4'd0;
///       else        q <= q + 4'd1;
///   endmodule", "counter")?;
/// let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
/// let clk = design.find_net("counter.clk").expect("clk");
/// let rst_n = design.find_net("counter.rst_n").expect("rst_n");
/// let q = design.find_net("counter.q").expect("q");
///
/// sim.write_input(rst_n, soccar_rtl::LogicVec::from_u64(1, 0))?; // async reset
/// sim.settle()?;
/// assert_eq!(sim.net_logic(q).to_u64(), Some(0));
///
/// sim.write_input(rst_n, soccar_rtl::LogicVec::from_u64(1, 1))?;
/// sim.settle()?;
/// for _ in 0..3 { sim.tick(clk)?; }
/// assert_eq!(sim.net_logic(q).to_u64(), Some(3));
/// # Ok(())
/// # }
/// ```
///
/// A simulator on a cloneable algebra is itself cloneable: the clone
/// shares the design and its [`WakeMap`], and copies the nets, queues,
/// run counts and only the memory pages written so far. The concolic
/// engine forks reset-sweep rounds this way from a shared prefix.
#[derive(Debug, Clone)]
pub struct Simulator<'d, A: Algebra> {
    design: &'d Design,
    algebra: A,
    nets: Vec<A::Value>,
    mems: Vec<MemStore<A::Value>>,
    wake_map: Arc<WakeMap>,
    runnable: VecDeque<ProcessId>,
    in_queue: Vec<bool>,
    /// Pending non-blocking writes; the buffer is kept across
    /// [`Simulator::settle`] calls.
    nba_queue: Vec<PrimWrite<A::Value>>,
    /// Scratch for the parts of a concat lvalue, empty between statements.
    writes: Vec<PrimWrite<A::Value>>,
    /// Scratch stack for the parts of concat expressions, empty between
    /// evaluations.
    parts: Vec<A::Value>,
    time: u64,
    tracing: bool,
    trace: Vec<TraceEvent>,
    run_counts: Vec<u64>,
}

impl<'d> Simulator<'d, ConcreteAlgebra> {
    /// Creates a concrete simulator with the given register init policy.
    #[must_use]
    pub fn concrete(design: &'d Design, init: InitPolicy) -> Simulator<'d, ConcreteAlgebra> {
        Simulator::with_algebra(design, ConcreteAlgebra::new(), init)
    }
}

impl<'d, A: Algebra> Simulator<'d, A> {
    /// Creates a simulator driving `design` through `algebra`.
    ///
    /// Registers take their declared initializer if present, otherwise the
    /// `init` policy value; wires start `X` until their drivers settle.
    /// Every memory word reads the `init` policy value until written.
    pub fn with_algebra(design: &'d Design, algebra: A, init: InitPolicy) -> Simulator<'d, A> {
        Simulator::with_wake_map(design, Arc::new(WakeMap::new(design)), algebra, init)
    }

    /// [`Simulator::with_algebra`] with a prebuilt wake map, so that many
    /// simulators of one design share it instead of each building its own.
    ///
    /// # Panics
    ///
    /// Panics if `wake_map` was built for a design with a different net
    /// count.
    pub fn with_wake_map(
        design: &'d Design,
        wake_map: Arc<WakeMap>,
        mut algebra: A,
        init: InitPolicy,
    ) -> Simulator<'d, A> {
        assert_eq!(
            wake_map.0.len(),
            design.nets().len(),
            "wake map built for another design"
        );
        let nets: Vec<A::Value> = design
            .nets()
            .iter()
            .map(|n| {
                let v = match (&n.init, n.kind) {
                    (Some(iv), _) => iv.clone(),
                    (None, NetKind::Reg | NetKind::Integer) => init.value(n.width),
                    (None, NetKind::Wire) => LogicVec::xes(n.width),
                };
                algebra.constant(v)
            })
            .collect();
        let mems = design
            .memories()
            .iter()
            .map(|m| MemStore {
                depth: u64::from(m.depth),
                default: algebra.constant(init.value(m.width)),
                pages: BTreeMap::new(),
            })
            .collect();
        let n_procs = design.processes().len();
        let mut sim = Simulator {
            design,
            algebra,
            nets,
            mems,
            wake_map,
            runnable: VecDeque::new(),
            in_queue: vec![false; n_procs],
            nba_queue: Vec::new(),
            writes: Vec::new(),
            parts: Vec::new(),
            time: 0,
            tracing: false,
            trace: Vec::new(),
            run_counts: vec![0; n_procs],
        };
        // Time-zero region: `initial` processes and one evaluation of every
        // level-sensitive process so combinational values are established.
        for (i, p) in design.processes().iter().enumerate() {
            if matches!(p.trigger, Trigger::Once) {
                sim.enqueue(ProcessId(i as u32));
            }
        }
        for (i, p) in design.processes().iter().enumerate() {
            if matches!(p.trigger, Trigger::AnyChange(_)) {
                sim.enqueue(ProcessId(i as u32));
            }
        }
        sim
    }

    /// The design being simulated.
    #[must_use]
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// Current simulation time (advanced by [`Simulator::tick`] and
    /// [`Simulator::advance_time`]).
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances the simulation clock label (does not run anything).
    pub fn advance_time(&mut self, delta: u64) {
        self.time += delta;
    }

    /// Enables recording of [`TraceEvent`]s for waveform output.
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// The recorded trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// How many times each process has executed (indexed by `ProcessId`).
    /// The concolic engine uses this as coverage evidence for whole-block
    /// (implicit-governor) events.
    #[must_use]
    pub fn process_run_counts(&self) -> &[u64] {
        &self.run_counts
    }

    /// Immutable access to the algebra.
    #[must_use]
    pub fn algebra(&self) -> &A {
        &self.algebra
    }

    /// Mutable access to the algebra (the concolic engine mints symbolic
    /// variables through this).
    pub fn algebra_mut(&mut self) -> &mut A {
        &mut self.algebra
    }

    /// The current value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not part of the design.
    #[must_use]
    pub fn net_value(&self, net: NetId) -> &A::Value {
        &self.nets[net.0 as usize]
    }

    /// The current concrete value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not part of the design.
    #[must_use]
    pub fn net_logic(&self, net: NetId) -> &LogicVec {
        self.algebra.concrete(&self.nets[net.0 as usize])
    }

    /// The current value of a memory element.
    ///
    /// # Panics
    ///
    /// Panics if `mem` is not part of the design or `addr` is out of range.
    #[must_use]
    pub fn mem_value(&self, mem: MemId, addr: u64) -> &A::Value {
        let store = &self.mems[mem.0 as usize];
        store.check(addr);
        store.read(addr)
    }

    /// The current concrete value of a memory element.
    ///
    /// # Panics
    ///
    /// Panics if `mem` is not part of the design or `addr` is out of range.
    #[must_use]
    pub fn mem_logic(&self, mem: MemId, addr: u64) -> &LogicVec {
        self.algebra.concrete(self.mem_value(mem, addr))
    }

    /// Drives a top-level input with a concrete value. Does not settle;
    /// batch several inputs and then call [`Simulator::settle`].
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] if the net is not a top input;
    /// [`SimError::WidthMismatch`] on width disagreement.
    pub fn write_input(&mut self, net: NetId, value: LogicVec) -> SimResult<()> {
        let v = self.algebra.constant(value);
        self.write_input_value(net, v)
    }

    /// Drives a top-level input with an algebra value (the concolic engine
    /// passes values carrying symbolic terms).
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] if the net is not a top input;
    /// [`SimError::WidthMismatch`] on width disagreement.
    pub fn write_input_value(&mut self, net: NetId, value: A::Value) -> SimResult<()> {
        let info = self.design.net(net);
        if !info.is_top_input {
            return Err(SimError::NotAnInput { net });
        }
        let got = self.algebra.concrete(&value).width();
        if got != info.width {
            return Err(SimError::WidthMismatch {
                net,
                expected: info.width,
                got,
            });
        }
        self.commit_net(net, 0, info.width, value);
        Ok(())
    }

    /// Overwrites any net (register poke for test setup). Wakes sensitive
    /// processes exactly like a normal commit.
    ///
    /// # Panics
    ///
    /// Panics if the value width differs from the net width.
    pub fn poke_net(&mut self, net: NetId, value: LogicVec) {
        assert_eq!(
            value.width(),
            self.design.net(net).width,
            "poke width mismatch"
        );
        let v = self.algebra.constant(value);
        let w = self.design.net(net).width;
        self.commit_net(net, 0, w, v);
    }

    /// Overwrites a memory element (no process wakeup: memories are not in
    /// sensitivity lists).
    ///
    /// # Panics
    ///
    /// Panics if the width differs or the address is out of range.
    pub fn poke_mem(&mut self, mem: MemId, addr: u64, value: LogicVec) {
        assert_eq!(
            value.width(),
            self.design.memory(mem).width,
            "poke width mismatch"
        );
        let store = &mut self.mems[mem.0 as usize];
        store.check(addr);
        let v = self.algebra.constant(value);
        store.write(addr, v);
    }

    /// Runs the active and NBA regions until the design stabilizes.
    ///
    /// # Errors
    ///
    /// [`SimError::Unstable`] if the activity budget is exhausted
    /// (combinational loop), or any error from process execution.
    pub fn settle(&mut self) -> SimResult<()> {
        let mut executed: u64 = 0;
        loop {
            while let Some(pid) = self.runnable.pop_front() {
                self.in_queue[pid.0 as usize] = false;
                executed += 1;
                if executed > SETTLE_LIMIT {
                    return Err(SimError::Unstable { executed });
                }
                self.run_process(pid)?;
            }
            if self.nba_queue.is_empty() {
                return Ok(());
            }
            // Committing never queues a write, so the buffer goes back
            // empty, its capacity kept.
            let mut queue = std::mem::take(&mut self.nba_queue);
            for w in queue.drain(..) {
                self.apply_prim_write(w);
            }
            self.nba_queue = queue;
        }
    }

    /// One full clock cycle on `clk`: rise, settle, fall, settle. Advances
    /// time by 2.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::settle`] errors.
    pub fn tick(&mut self, clk: NetId) -> SimResult<()> {
        self.write_input(clk, LogicVec::from_u64(1, 1))?;
        self.settle()?;
        self.time += 1;
        self.write_input(clk, LogicVec::from_u64(1, 0))?;
        self.settle()?;
        self.time += 1;
        Ok(())
    }

    fn enqueue(&mut self, pid: ProcessId) {
        if !self.in_queue[pid.0 as usize] {
            self.in_queue[pid.0 as usize] = true;
            self.runnable.push_back(pid);
        }
    }

    /// Commits a (possibly partial) net write and wakes sensitive
    /// processes if the value changed.
    fn commit_net(&mut self, net: NetId, lo: u32, width: u32, value: A::Value) {
        let idx = net.0 as usize;
        let net_w = self.design.net(net).width;
        let new = if lo == 0 && width >= net_w {
            fit(&mut self.algebra, value, net_w)
        } else {
            splice(&mut self.algebra, &self.nets[idx], net_w, lo, width, value)
        };
        if !A::changed(&self.nets[idx], &new) {
            return;
        }
        let old = std::mem::replace(&mut self.nets[idx], new);
        let old_c = self.algebra.concrete(&old);
        let new_c = self.algebra.concrete(&self.nets[idx]);
        let (old_bit, new_bit) = (old_c.bit(0), new_c.bit(0));
        if self.tracing && old_c != new_c {
            self.trace.push(TraceEvent {
                time: self.time,
                net,
                value: new_c.clone(),
            });
        }
        // Wake processes (index loop avoids cloning the wake list).
        // Level-sensitive entries fire on any algebra-visible change (for
        // the concolic co-algebra that includes symbolic-only changes, so
        // shadow terms propagate even when concrete values are stable);
        // edge entries consult the concrete 4-state edge table.
        for i in 0..self.wake_map.0[idx].len() {
            let WakeEntry { process, edge } = self.wake_map.0[idx][i];
            let fire = match edge {
                None => true,
                Some(edge) => edge_fired(edge, old_bit, new_bit),
            };
            if fire {
                self.enqueue(process);
            }
        }
    }

    /// Queues `w` for the NBA region, or applies it now.
    fn write(&mut self, w: PrimWrite<A::Value>, nonblocking: bool) {
        if nonblocking {
            self.nba_queue.push(w);
        } else {
            self.apply_prim_write(w);
        }
    }

    fn apply_prim_write(&mut self, w: PrimWrite<A::Value>) {
        match w {
            PrimWrite::Net {
                net,
                lo,
                width,
                value,
            } => self.commit_net(net, lo, width, value),
            PrimWrite::Mem { mem, addr, value } => {
                let store = &mut self.mems[mem.0 as usize];
                if addr < store.depth {
                    store.write(addr, value);
                }
            }
            PrimWrite::Dropped => {}
        }
    }

    fn run_process(&mut self, pid: ProcessId) -> SimResult<()> {
        // Copy the `&'d Design` out of `self` first so the statement borrow
        // has lifetime 'd rather than borrowing `self`.
        let design: &'d Design = self.design;
        let body = &design.process(pid).body;
        self.run_counts[pid.0 as usize] += 1;
        self.exec(body, pid)
    }

    fn exec(&mut self, stmt: &RStmt, pid: ProcessId) -> SimResult<()> {
        match stmt {
            RStmt::Block(stmts) => {
                for s in stmts {
                    self.exec(s, pid)?;
                }
                Ok(())
            }
            RStmt::If {
                site,
                cond,
                then_stmt,
                else_stmt,
            } => {
                let c = self.eval(cond);
                let taken = self.algebra.concrete(&c).truthy() == Some(true);
                self.algebra.on_branch(*site, &c, taken);
                if taken {
                    self.exec(then_stmt, pid)
                } else if let Some(e) = else_stmt {
                    self.exec(e, pid)
                } else {
                    Ok(())
                }
            }
            RStmt::Case {
                kind,
                selector,
                arms,
            } => self.exec_case(*kind, selector, arms, pid),
            RStmt::Assign {
                lhs,
                rhs,
                nonblocking,
            } => {
                let value = self.eval(rhs);
                let total = lhs.width(self.design);
                let value = fit(&mut self.algebra, value, total);
                if let LValue::Concat(_) = lhs {
                    // Every part's dynamic index is evaluated before any
                    // part is written.
                    let mut writes = std::mem::take(&mut self.writes);
                    self.flatten_into(lhs, &value, total, &mut writes);
                    for w in writes.drain(..) {
                        self.write(w, *nonblocking);
                    }
                    self.writes = writes;
                } else {
                    let w = self.prim_write(lhs, value);
                    self.write(w, *nonblocking);
                }
                Ok(())
            }
            RStmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let var_w = self.design.net(*var).width;
                let iv = self.eval(init);
                self.commit_net(*var, 0, var_w, iv);
                let mut iters: u64 = 0;
                loop {
                    let c = self.eval(cond);
                    if self.algebra.concrete(&c).truthy() != Some(true) {
                        return Ok(());
                    }
                    iters += 1;
                    if iters > FOR_LOOP_LIMIT {
                        return Err(SimError::LoopLimit { process: pid });
                    }
                    self.exec(body, pid)?;
                    let sv = self.eval(step);
                    self.commit_net(*var, 0, var_w, sv);
                }
            }
            RStmt::Null => Ok(()),
        }
    }

    fn exec_case(
        &mut self,
        kind: CaseKind,
        selector: &RExpr,
        arms: &[RCaseArm],
        pid: ProcessId,
    ) -> SimResult<()> {
        let sel = self.eval(selector);
        let sel_w = self.algebra.concrete(&sel).width();
        for arm in arms {
            if arm.labels.is_empty() {
                continue; // default handled after all labels
            }
            let mut matched = false;
            for label in &arm.labels {
                let m = self.case_label_match(kind, &sel, sel_w, label);
                let hit = self.algebra.concrete(&m).truthy() == Some(true);
                if let Some(site) = arm.site {
                    self.algebra.on_branch(site, &m, hit);
                }
                if hit {
                    matched = true;
                    break;
                }
            }
            if matched {
                return self.exec(&arm.body, pid);
            }
        }
        if let Some(default) = arms.iter().find(|a| a.labels.is_empty()) {
            return self.exec(&default.body, pid);
        }
        Ok(())
    }

    /// Builds the match condition of one case label, honouring wildcard
    /// bits for `casez` (Z/?) and `casex` (X and Z).
    fn case_label_match(
        &mut self,
        kind: CaseKind,
        sel: &A::Value,
        sel_w: u32,
        label: &LogicVec,
    ) -> A::Value {
        let care_mask = match kind {
            CaseKind::Case => None,
            CaseKind::Casez => Some(label.case_care_mask(false)),
            CaseKind::Casex => Some(label.case_care_mask(true)),
        };
        match care_mask {
            None => {
                let l = self.algebra.constant(label.resize(sel_w));
                self.algebra
                    .binary(soccar_rtl::ast::BinaryOp::CaseEq, sel, &l)
            }
            Some(mask) => {
                let mask = mask.resize(sel_w);
                let masked_label = label.resize(sel_w).and(&mask);
                let m = self.algebra.constant(mask);
                let l = self.algebra.constant(masked_label);
                let masked_sel = self.algebra.binary(soccar_rtl::ast::BinaryOp::And, sel, &m);
                self.algebra
                    .binary(soccar_rtl::ast::BinaryOp::CaseEq, &masked_sel, &l)
            }
        }
    }

    /// Flattens an assignment of `value` to a concat lvalue into
    /// primitive writes, most significant part first. Dynamic indices are
    /// evaluated now (IEEE: at scheduling time).
    fn flatten_into(
        &mut self,
        lhs: &LValue,
        value: &A::Value,
        hi_off: u32,
        out: &mut Vec<PrimWrite<A::Value>>,
    ) -> u32 {
        // Returns the offset *below* this lvalue after carving its bits
        // from `value` starting at `hi_off` (exclusive upper bound).
        match lhs {
            LValue::Concat(parts) => {
                let mut off = hi_off;
                for p in parts {
                    off = self.flatten_into(p, value, off, out);
                }
                off
            }
            _ => {
                let w = lhs.width(self.design);
                let lo_off = hi_off - w;
                let part = self.algebra.slice(value, lo_off, w);
                out.push(self.prim_write(lhs, part));
                lo_off
            }
        }
    }

    fn prim_write(&mut self, lhs: &LValue, value: A::Value) -> PrimWrite<A::Value> {
        match lhs {
            LValue::Net(net) => PrimWrite::Net {
                net: *net,
                lo: 0,
                width: self.design.net(*net).width,
                value,
            },
            LValue::Slice { net, lo, width } => PrimWrite::Net {
                net: *net,
                lo: *lo,
                width: *width,
                value,
            },
            LValue::IndexBit { net, index } => {
                let idx = self.eval(index);
                // An index past `u32::MAX` is past every net: dropped.
                match self.algebra.concrete(&idx).to_u64().map(u32::try_from) {
                    Some(Ok(lo)) => PrimWrite::Net {
                        net: *net,
                        lo,
                        width: 1,
                        value,
                    },
                    _ => PrimWrite::Dropped,
                }
            }
            LValue::DynSlice { net, start, width } => {
                let idx = self.eval(start);
                match self.algebra.concrete(&idx).to_u64().map(u32::try_from) {
                    Some(Ok(lo)) => PrimWrite::Net {
                        net: *net,
                        lo,
                        width: *width,
                        value,
                    },
                    _ => PrimWrite::Dropped,
                }
            }
            LValue::MemWrite { mem, index } => {
                let idx = self.eval(index);
                match self.algebra.concrete(&idx).to_u64() {
                    Some(addr) => PrimWrite::Mem {
                        mem: *mem,
                        addr,
                        value,
                    },
                    None => PrimWrite::Dropped,
                }
            }
            LValue::Concat(_) => unreachable!("concat flattened by caller"),
        }
    }

    /// Evaluates an expression against the current state.
    pub fn eval(&mut self, e: &RExpr) -> A::Value {
        match e {
            RExpr::Const(c) => self.algebra.constant(c.clone()),
            RExpr::Net { net, .. } => self.nets[net.0 as usize].clone(),
            RExpr::Resize { width, expr } => {
                let v = self.eval(expr);
                fit(&mut self.algebra, v, *width)
            }
            RExpr::Unary { op, operand, .. } => {
                let v = self.eval(operand);
                self.algebra.unary(*op, &v)
            }
            RExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                self.algebra.binary(*op, &a, &b)
            }
            RExpr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let c = self.eval(cond);
                let t = self.eval(then_expr);
                let f = self.eval(else_expr);
                self.algebra.mux(&c, &t, &f)
            }
            RExpr::Concat { parts, .. } => {
                // Parts are MSB first: evaluate them in order onto the
                // scratch stack, then fold from the LSB side. A nested
                // concat works above `base` and pops what it pushed.
                let base = self.parts.len();
                for p in parts {
                    let v = self.eval(p);
                    self.parts.push(v);
                }
                let mut acc = self.parts.pop().expect("concat is non-empty");
                while self.parts.len() > base {
                    let hi = self.parts.pop().expect("a part above base");
                    acc = self.algebra.concat(&hi, &acc);
                }
                acc
            }
            RExpr::Repeat { count, expr, .. } => {
                let v = self.eval(expr);
                let mut acc = v.clone();
                for _ in 1..*count {
                    acc = self.algebra.concat(&acc, &v);
                }
                acc
            }
            RExpr::Slice { net, lo, width } => {
                self.algebra.slice(&self.nets[net.0 as usize], *lo, *width)
            }
            RExpr::IndexBit { net, index } => {
                let idx = self.eval(index);
                let v = &self.nets[net.0 as usize];
                let shifted = self.algebra.binary(soccar_rtl::ast::BinaryOp::Shr, v, &idx);
                self.algebra.slice(&shifted, 0, 1)
            }
            RExpr::DynSlice { net, start, width } => {
                let idx = self.eval(start);
                let v = &self.nets[net.0 as usize];
                let shifted = self.algebra.binary(soccar_rtl::ast::BinaryOp::Shr, v, &idx);
                self.algebra.slice(&shifted, 0, *width)
            }
            RExpr::MemRead { mem, width, index } => {
                let idx = self.eval(index);
                let store = &self.mems[mem.0 as usize];
                match self.algebra.concrete(&idx).to_u64() {
                    Some(addr) if addr < store.depth => store.read(addr).clone(),
                    _ => self.algebra.constant(LogicVec::xes(*width)),
                }
            }
        }
    }
}

/// 4-state edge detection per IEEE 1364: a posedge is any transition that
/// ends higher than it started among `{0, X/Z, 1}`.
#[must_use]
pub fn edge_fired(edge: Edge, old: Bit, new: Bit) -> bool {
    let rank = |b: Bit| match b {
        Bit::Zero => 0u8,
        Bit::X | Bit::Z => 1,
        Bit::One => 2,
    };
    match edge {
        Edge::Pos => rank(new) > rank(old),
        Edge::Neg => rank(new) < rank(old),
    }
}

/// `value` at `width`: moved if it already has that width, which
/// [`Algebra::resize`] guarantees is the same as resizing it.
fn fit<A: Algebra>(algebra: &mut A, value: A::Value, width: u32) -> A::Value {
    if algebra.concrete(&value).width() == width {
        value
    } else {
        algebra.resize(&value, width)
    }
}

/// Read-modify-write splice of `value` into `old[lo +: width]`.
fn splice<A: Algebra>(
    algebra: &mut A,
    old: &A::Value,
    net_w: u32,
    lo: u32,
    width: u32,
    value: A::Value,
) -> A::Value {
    if lo >= net_w {
        return old.clone();
    }
    let width = width.min(net_w - lo);
    let mid = fit(algebra, value, width);
    let mut acc = if lo > 0 {
        let low = algebra.slice(old, 0, lo);
        algebra.concat(&mid, &low)
    } else {
        mid
    };
    if lo + width < net_w {
        let high = algebra.slice(old, lo + width, net_w - lo - width);
        acc = algebra.concat(&high, &acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str, top: &str) -> soccar_rtl::Design {
        soccar_rtl::compile("t.v", src, top).expect("compile").0
    }

    fn net(d: &soccar_rtl::Design, name: &str) -> NetId {
        d.find_net(name).unwrap_or_else(|| panic!("no net {name}"))
    }

    #[test]
    fn combinational_settles() {
        let d = compile(
            "module t(input [3:0] a, b, output [3:0] y); assign y = a & b; endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.a"), LogicVec::from_u64(4, 0b1100))
            .expect("a");
        s.write_input(net(&d, "t.b"), LogicVec::from_u64(4, 0b1010))
            .expect("b");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.y")).to_u64(), Some(0b1000));
    }

    #[test]
    fn counter_counts_and_resets_asynchronously() {
        let d = compile(
            "module t(input clk, rst_n, output reg [3:0] q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Ones);
        let clk = net(&d, "t.clk");
        let rst = net(&d, "t.rst_n");
        let q = net(&d, "t.q");
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
        s.settle().expect("settle");
        // Ones policy: counter starts at 15.
        assert_eq!(s.net_logic(q).to_u64(), Some(15));
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(q).to_u64(), Some(0)); // wrapped
        s.tick(clk).expect("tick");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(q).to_u64(), Some(2));
        // Async reset while the clock is idle.
        s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(q).to_u64(), Some(0));
        // Held in reset: clocking does not count.
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(q).to_u64(), Some(0));
        s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(q).to_u64(), Some(1));
    }

    #[test]
    fn nonblocking_semantics_swap() {
        let d = compile(
            "module t(input clk, output reg [3:0] a, b);
               initial begin a = 4'd1; b = 4'd2; end
               always @(posedge clk) begin a <= b; b <= a; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        let clk = net(&d, "t.clk");
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.a")).to_u64(), Some(2));
        assert_eq!(s.net_logic(net(&d, "t.b")).to_u64(), Some(1));
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.a")).to_u64(), Some(1));
        assert_eq!(s.net_logic(net(&d, "t.b")).to_u64(), Some(2));
    }

    #[test]
    fn blocking_chains_within_process() {
        let d = compile(
            "module t(input clk, input [3:0] d, output reg [3:0] y);
               reg [3:0] tmp;
               always @(posedge clk) begin tmp = d + 4'd1; y = tmp + 4'd1; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
        let clk = net(&d, "t.clk");
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.write_input(net(&d, "t.d"), LogicVec::from_u64(4, 3))
            .expect("d");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.y")).to_u64(), Some(5));
    }

    #[test]
    fn memory_read_write() {
        let d = compile(
            "module t(input clk, we, input [3:0] addr, input [7:0] wd, output reg [7:0] rd);
               reg [7:0] mem [0:15];
               always @(posedge clk) begin
                 if (we) mem[addr] <= wd;
                 rd <= mem[addr];
               end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
        let clk = net(&d, "t.clk");
        for (n, v, w) in [("t.we", 1u64, 1u32), ("t.addr", 5, 4), ("t.wd", 0xAB, 8)] {
            s.write_input(net(&d, n), LogicVec::from_u64(w, v))
                .expect("in");
        }
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        // NBA ordering: rd sampled old value (0), mem updated.
        assert_eq!(s.net_logic(net(&d, "t.rd")).to_u64(), Some(0));
        let mem = d.find_memory("t.mem").expect("mem");
        assert_eq!(s.mem_logic(mem, 5).to_u64(), Some(0xAB));
        s.write_input(net(&d, "t.we"), LogicVec::from_u64(1, 0))
            .expect("we");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.rd")).to_u64(), Some(0xAB));
    }

    #[test]
    fn hierarchical_design_simulates() {
        let d = compile(
            "module half_adder(input a, b, output s, c);
               assign s = a ^ b; assign c = a & b;
             endmodule
             module t(input [1:0] x, output [1:0] out);
               half_adder u (.a(x[0]), .b(x[1]), .s(out[0]), .c(out[1]));
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.x"), LogicVec::from_u64(2, 0b11))
            .expect("x");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.out")).to_u64(), Some(0b10));
    }

    #[test]
    fn for_loop_executes() {
        let d = compile(
            "module t(input clk, output reg [7:0] sum);
               integer i;
               always @(posedge clk) begin
                 sum = 8'd0;
                 for (i = 0; i < 5; i = i + 1) sum = sum + 8'd2;
               end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
        let clk = net(&d, "t.clk");
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.sum")).to_u64(), Some(10));
    }

    #[test]
    fn case_dispatch_with_wildcards() {
        let d = compile(
            "module t(input [3:0] s, output reg [1:0] y);
               always @* casez (s)
                 4'b1???: y = 2'd3;
                 4'b01??: y = 2'd2;
                 4'b001?: y = 2'd1;
                 default: y = 2'd0;
               endcase
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        let sn = net(&d, "t.s");
        let y = net(&d, "t.y");
        for (input, expect) in [(0b1000u64, 3u64), (0b0101, 2), (0b0011, 1), (0b0001, 0)] {
            s.write_input(sn, LogicVec::from_u64(4, input)).expect("s");
            s.settle().expect("settle");
            assert_eq!(s.net_logic(y).to_u64(), Some(expect), "input {input:b}");
        }
    }

    #[test]
    fn x_propagates_through_uninitialized_register() {
        let d = compile(
            "module t(input clk, input [3:0] d, output reg [3:0] q, output [3:0] y);
               always @(posedge clk) q <= d;
               assign y = q + 4'd1;
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.clk"), LogicVec::from_u64(1, 0))
            .expect("clk");
        s.settle().expect("settle");
        assert!(s.net_logic(net(&d, "t.y")).is_all_x());
    }

    #[test]
    fn ones_policy_reveals_missing_clear() {
        // A "register clearance" scenario: with ones-init, a register that
        // the reset fails to clear still reads ones after reset.
        let d = compile(
            "module t(input clk, rst_n, output reg [7:0] key, output reg [7:0] ctr);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) ctr <= 8'd0;   // BUG: key not cleared
                 else begin ctr <= ctr + 8'd1; key <= key; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Ones);
        let rst = net(&d, "t.rst_n");
        s.write_input(net(&d, "t.clk"), LogicVec::from_u64(1, 0))
            .expect("clk");
        s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
        s.settle().expect("settle");
        s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.ctr")).to_u64(), Some(0));
        assert!(s.net_logic(net(&d, "t.key")).is_all_ones(), "leak visible");
    }

    #[test]
    fn part_select_assignment() {
        let d = compile(
            "module t(input [7:0] d, output reg [7:0] q);
               always @* begin q = 8'd0; q[7:4] = d[3:0]; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.d"), LogicVec::from_u64(8, 0x0A))
            .expect("d");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.q")).to_u64(), Some(0xA0));
    }

    #[test]
    fn concat_lvalue_distributes_msb_first() {
        let d = compile(
            "module t(input [3:0] a, b, output reg c, output reg [3:0] s);
               always @* {c, s} = a + b;
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.a"), LogicVec::from_u64(4, 9))
            .expect("a");
        s.write_input(net(&d, "t.b"), LogicVec::from_u64(4, 8))
            .expect("b");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.c")).to_u64(), Some(1));
        assert_eq!(s.net_logic(net(&d, "t.s")).to_u64(), Some(1));
    }

    #[test]
    fn dynamic_bit_select_read_write() {
        let d = compile(
            "module t(input [2:0] idx, input [7:0] d, output y, output reg [7:0] q);
               assign y = d[idx];
               always @* begin q = 8'd0; q[idx] = 1'b1; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.d"), LogicVec::from_u64(8, 0b0100_0000))
            .expect("d");
        s.write_input(net(&d, "t.idx"), LogicVec::from_u64(3, 6))
            .expect("idx");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.y")).to_u64(), Some(1));
        assert_eq!(s.net_logic(net(&d, "t.q")).to_u64(), Some(0b0100_0000));
    }

    #[test]
    fn dynamic_write_past_u32_index_range_is_dropped() {
        let d = compile(
            "module t(input [39:0] idx, output reg [7:0] q, output reg [7:0] r);
               always @* begin q = 8'd0; q[idx] = 1'b1; end
               always @* begin r = 8'd0; r[idx +: 2] = 2'b11; end
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        // 2^32 + 1 truncates to bit 1 if cast to 32 bits.
        s.write_input(net(&d, "t.idx"), LogicVec::from_u64(40, (1 << 32) + 1))
            .expect("idx");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.q")).to_u64(), Some(0));
        assert_eq!(s.net_logic(net(&d, "t.r")).to_u64(), Some(0));
        s.write_input(net(&d, "t.idx"), LogicVec::from_u64(40, 1))
            .expect("idx");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net(&d, "t.q")).to_u64(), Some(0b10));
        assert_eq!(s.net_logic(net(&d, "t.r")).to_u64(), Some(0b110));
    }

    #[test]
    fn not_an_input_rejected() {
        let d = compile("module t(input a, output y); assign y = a; endmodule", "t");
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        let y = net(&d, "t.y");
        assert_eq!(
            s.write_input(y, LogicVec::from_u64(1, 1)),
            Err(SimError::NotAnInput { net: y })
        );
        let a = net(&d, "t.a");
        assert!(matches!(
            s.write_input(a, LogicVec::from_u64(2, 1)),
            Err(SimError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn combinational_loop_detected() {
        // Pure X feedback reaches a fixed point; to oscillate, the loop must
        // carry *known* values. Seed p with 0 (s=0), then close the loop.
        let d = compile(
            "module t(input s, output y);
               wire p;
               assign p = s ? ~p : 1'b0;
               assign y = p;
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.write_input(net(&d, "t.s"), LogicVec::from_u64(1, 0))
            .expect("s");
        s.settle().expect("settle with loop open");
        assert_eq!(s.net_logic(net(&d, "t.y")).to_u64(), Some(0));
        s.write_input(net(&d, "t.s"), LogicVec::from_u64(1, 1))
            .expect("s");
        let r = s.settle();
        assert!(matches!(r, Err(SimError::Unstable { .. })), "got {r:?}");
    }

    #[test]
    fn edge_table() {
        use Bit::*;
        assert!(edge_fired(Edge::Pos, Zero, One));
        assert!(edge_fired(Edge::Pos, Zero, X));
        assert!(edge_fired(Edge::Pos, X, One));
        assert!(!edge_fired(Edge::Pos, One, Zero));
        assert!(!edge_fired(Edge::Pos, One, One));
        assert!(edge_fired(Edge::Neg, One, Zero));
        assert!(edge_fired(Edge::Neg, One, Z));
        assert!(edge_fired(Edge::Neg, X, Zero));
        assert!(!edge_fired(Edge::Neg, Zero, One));
    }

    #[test]
    fn tracing_records_changes() {
        let d = compile("module t(input a, output y); assign y = ~a; endmodule", "t");
        let mut s = Simulator::concrete(&d, InitPolicy::X);
        s.enable_tracing();
        s.write_input(net(&d, "t.a"), LogicVec::from_u64(1, 0))
            .expect("a");
        s.settle().expect("settle");
        assert!(s.trace().iter().any(|e| e.net == net(&d, "t.y")));
    }

    const RAM: &str = "module t(input clk, we, input [3:0] addr, input [7:0] wd);
                         reg [7:0] mem [0:15];
                         always @(posedge clk) if (we) mem[addr] <= wd;
                       endmodule";

    #[test]
    #[should_panic(expected = "memory address 16 out of range (depth 16)")]
    fn mem_value_panics_past_the_last_word() {
        let d = compile(RAM, "t");
        let s = Simulator::concrete(&d, InitPolicy::Zeros);
        let _ = s.mem_value(d.find_memory("t.mem").expect("mem"), 16);
    }

    #[test]
    #[should_panic(expected = "memory address 16 out of range (depth 16)")]
    fn mem_logic_panics_past_the_last_word() {
        let d = compile(RAM, "t");
        let s = Simulator::concrete(&d, InitPolicy::Zeros);
        let _ = s.mem_logic(d.find_memory("t.mem").expect("mem"), 16);
    }

    #[test]
    #[should_panic(expected = "memory address 16 out of range (depth 16)")]
    fn poke_mem_panics_past_the_last_word() {
        let d = compile(RAM, "t");
        let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
        s.poke_mem(
            d.find_memory("t.mem").expect("mem"),
            16,
            LogicVec::from_u64(8, 1),
        );
    }

    #[test]
    fn unwritten_words_read_the_init_value_and_clones_diverge() {
        let d = compile(RAM, "t");
        let mem = d.find_memory("t.mem").expect("mem");
        let mut s = Simulator::concrete(&d, InitPolicy::Ones);
        s.poke_mem(mem, 3, LogicVec::from_u64(8, 0x5A));
        let mut fork = s.clone();
        fork.poke_mem(mem, 3, LogicVec::from_u64(8, 0x11));
        fork.poke_mem(mem, 15, LogicVec::from_u64(8, 0x22));
        assert_eq!(s.mem_logic(mem, 3).to_u64(), Some(0x5A));
        assert!(s.mem_logic(mem, 15).is_all_ones());
        assert!(s.mem_logic(mem, 4).is_all_ones());
        assert_eq!(fork.mem_logic(mem, 3).to_u64(), Some(0x11));
        assert_eq!(fork.mem_logic(mem, 15).to_u64(), Some(0x22));
    }

    #[test]
    fn shared_wake_map_simulates_like_a_private_one() {
        let d = compile(
            "module t(input clk, rst_n, output reg [3:0] q);
               always @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
            "t",
        );
        let wake = Arc::new(WakeMap::new(&d));
        let clk = net(&d, "t.clk");
        let rst = net(&d, "t.rst_n");
        let mut a = Simulator::concrete(&d, InitPolicy::Ones);
        let mut b = Simulator::with_wake_map(&d, wake, ConcreteAlgebra::new(), InitPolicy::Ones);
        for s in [&mut a, &mut b] {
            s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
            s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
            s.settle().expect("settle");
            s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
            s.settle().expect("settle");
            s.tick(clk).expect("tick");
        }
        assert_eq!(a.net_logic(net(&d, "t.q")), b.net_logic(net(&d, "t.q")));
        assert_eq!(a.process_run_counts(), b.process_run_counts());
    }

    #[test]
    fn initial_blocks_preload_memory() {
        let d = compile(
            "module t(input clk, input [1:0] addr, output reg [7:0] q);
               reg [7:0] rom [0:3];
               integer i;
               initial for (i = 0; i < 4; i = i + 1) rom[i] = 8'd10 + i[7:0];
               always @(posedge clk) q <= rom[addr];
             endmodule",
            "t",
        );
        let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
        let clk = net(&d, "t.clk");
        s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
        s.write_input(net(&d, "t.addr"), LogicVec::from_u64(2, 2))
            .expect("addr");
        s.settle().expect("settle");
        s.tick(clk).expect("tick");
        assert_eq!(s.net_logic(net(&d, "t.q")).to_u64(), Some(12));
    }
}
