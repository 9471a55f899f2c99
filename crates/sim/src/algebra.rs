//! The value algebra abstraction.
//!
//! The simulator's interpreter is generic over an [`Algebra`]: a factory for
//! values and operations on them. The concrete simulator uses
//! [`ConcreteAlgebra`] whose values are plain [`LogicVec`]s and which
//! records the [`BranchCoverage`] of the run; the concolic
//! engine (in `soccar-concolic`) supplies a *co-simulation* algebra whose
//! values pair a `LogicVec` with an optional symbolic term, and whose
//! [`Algebra::on_branch`] hook records path constraints. One interpreter,
//! two executions — exactly the "concrete execution with symbolic
//! piggybacking" of concolic testing.

use soccar_rtl::ast::{BinaryOp, UnaryOp};
use soccar_rtl::design::BranchSiteId;
use soccar_rtl::value::LogicVec;

/// Factory and operation set for simulation values.
///
/// Every value carries a concrete [`LogicVec`] interpretation (exposed via
/// [`Algebra::concrete`]); branch decisions during simulation are always
/// made on the concrete part. Implementations may attach extra state
/// (symbolic terms, taint, coverage) that is threaded through every
/// operation.
pub trait Algebra {
    /// The value type.
    type Value: Clone + std::fmt::Debug;

    /// Lifts a constant.
    fn constant(&mut self, c: LogicVec) -> Self::Value;

    /// The concrete interpretation of a value.
    fn concrete<'a>(&self, v: &'a Self::Value) -> &'a LogicVec;

    /// Applies a unary operator.
    fn unary(&mut self, op: UnaryOp, a: &Self::Value) -> Self::Value;

    /// Applies a binary operator. Operands are pre-widened to equal width
    /// for arithmetic/bitwise/relational operators (the elaborator
    /// guarantees this); shift amounts keep their self-determined width.
    fn binary(&mut self, op: BinaryOp, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Two-way multiplexer: `cond ? t : e` (an unknown condition produces
    /// the Verilog X-merge of both arms on the concrete side).
    fn mux(&mut self, cond: &Self::Value, t: &Self::Value, e: &Self::Value) -> Self::Value;

    /// Concatenation with `hi` in the upper bits.
    fn concat(&mut self, hi: &Self::Value, lo: &Self::Value) -> Self::Value;

    /// `count` copies of `a` side by side (`count ≥ 1`): the value of
    /// `concat(…concat(concat(a, a), a)…, a)`, in time linear in the
    /// result's width.
    fn replicate(&mut self, a: &Self::Value, count: u32) -> Self::Value;

    /// Constant-position slice `[lo +: width]`.
    fn slice(&mut self, a: &Self::Value, lo: u32, width: u32) -> Self::Value;

    /// Zero-extend or truncate.
    ///
    /// A resize to the value's own width must be the identity, with no
    /// side effect on the algebra: the simulator moves a value that
    /// already has its target width instead of calling this, and likewise
    /// skips a [`Algebra::slice`] of a value's full width.
    fn resize(&mut self, a: &Self::Value, width: u32) -> Self::Value;

    /// Notification that the interpreter took (`taken = true`) or skipped a
    /// branch guarded by `cond` at `site`. Default: ignore.
    fn on_branch(&mut self, site: BranchSiteId, cond: &Self::Value, taken: bool) {
        let _ = (site, cond, taken);
    }

    /// Whether a stored value should be considered changed when replaced by
    /// `new` (drives re-evaluation of level-sensitive processes).
    fn changed(old: &Self::Value, new: &Self::Value) -> bool;
}

/// A set of `(site, direction)` branch outcomes: one bit per pair, at
/// index `2·site + direction`.
///
/// The word vector ends at the word of the highest pair inserted (it has
/// no trailing zero word), so the derived equality is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchCoverage {
    words: Vec<u64>,
}

impl BranchCoverage {
    fn index(site: BranchSiteId, dir: bool) -> usize {
        2 * site.0 as usize + usize::from(dir)
    }

    /// Records that `site` went direction `dir`.
    pub fn insert(&mut self, site: BranchSiteId, dir: bool) {
        let i = BranchCoverage::index(site, dir);
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (i % 64);
    }

    /// `true` if `site` went direction `dir`.
    #[must_use]
    pub fn contains(&self, site: BranchSiteId, dir: bool) -> bool {
        let i = BranchCoverage::index(site, dir);
        self.words
            .get(i / 64)
            .is_some_and(|word| word & (1 << (i % 64)) != 0)
    }

    /// Empties the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

/// The plain concrete algebra: values are [`LogicVec`]s, and every branch
/// the interpreter decides lands in the run's [`BranchCoverage`].
#[derive(Debug, Clone, Default)]
pub struct ConcreteAlgebra {
    coverage: BranchCoverage,
}

impl ConcreteAlgebra {
    /// Creates the concrete algebra, with empty coverage.
    #[must_use]
    pub fn new() -> ConcreteAlgebra {
        ConcreteAlgebra::default()
    }

    /// Every `(site, direction)` the run executed.
    #[must_use]
    pub fn coverage(&self) -> &BranchCoverage {
        &self.coverage
    }
}

/// Applies `op` to two concrete values (shared by [`ConcreteAlgebra`] and
/// the concolic co-algebra).
#[must_use]
pub fn concrete_binary(op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
    match op {
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Mul => a.mul(b),
        BinaryOp::Div => a.udiv(b),
        BinaryOp::Mod => a.urem(b),
        BinaryOp::Pow => unreachable!("`**` rejected at elaboration"),
        BinaryOp::And => a.and(b),
        BinaryOp::Or => a.or(b),
        BinaryOp::Xor => a.xor(b),
        BinaryOp::Xnor => a.xor(b).not(),
        BinaryOp::LogicalAnd => a.logical_and(b),
        BinaryOp::LogicalOr => a.logical_or(b),
        BinaryOp::Eq => a.eq_logic(b),
        BinaryOp::Ne => a.ne_logic(b),
        BinaryOp::CaseEq => a.case_eq(b),
        BinaryOp::CaseNe => a.case_eq(b).logical_not(),
        BinaryOp::Lt => a.ult(b),
        BinaryOp::Le => a.ule(b),
        BinaryOp::Gt => b.ult(a),
        BinaryOp::Ge => b.ule(a),
        BinaryOp::Shl => a.shl(b),
        BinaryOp::Shr => a.lshr(b),
        BinaryOp::AShr => a.ashr(b),
    }
}

/// Applies `op` to one concrete value.
#[must_use]
pub fn concrete_unary(op: UnaryOp, a: &LogicVec) -> LogicVec {
    match op {
        UnaryOp::Not => a.not(),
        UnaryOp::LogicalNot => a.logical_not(),
        UnaryOp::Neg => a.neg(),
        UnaryOp::Plus => a.clone(),
        UnaryOp::RedAnd => a.reduce_and(),
        UnaryOp::RedOr => a.reduce_or(),
        UnaryOp::RedXor => a.reduce_xor(),
        UnaryOp::RedNand => a.reduce_and().not(),
        UnaryOp::RedNor => a.reduce_or().not(),
        UnaryOp::RedXnor => a.reduce_xor().not(),
    }
}

/// Verilog mux on concrete values: an unknown condition X-merges the arms
/// (bitwise: equal bits survive, differing bits become X).
#[must_use]
pub fn concrete_mux(cond: &LogicVec, t: &LogicVec, e: &LogicVec) -> LogicVec {
    match cond.truthy() {
        Some(true) => t.clone(),
        Some(false) => e.clone(),
        None => t.x_merge(e),
    }
}

impl Algebra for ConcreteAlgebra {
    type Value = LogicVec;

    fn constant(&mut self, c: LogicVec) -> LogicVec {
        c
    }

    fn concrete<'a>(&self, v: &'a LogicVec) -> &'a LogicVec {
        v
    }

    fn unary(&mut self, op: UnaryOp, a: &LogicVec) -> LogicVec {
        concrete_unary(op, a)
    }

    fn binary(&mut self, op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
        concrete_binary(op, a, b)
    }

    fn mux(&mut self, cond: &LogicVec, t: &LogicVec, e: &LogicVec) -> LogicVec {
        concrete_mux(cond, t, e)
    }

    fn concat(&mut self, hi: &LogicVec, lo: &LogicVec) -> LogicVec {
        hi.concat(lo)
    }

    fn replicate(&mut self, a: &LogicVec, count: u32) -> LogicVec {
        a.replicate(count)
    }

    fn slice(&mut self, a: &LogicVec, lo: u32, width: u32) -> LogicVec {
        a.slice(lo, width)
    }

    fn resize(&mut self, a: &LogicVec, width: u32) -> LogicVec {
        a.resize(width)
    }

    fn on_branch(&mut self, site: BranchSiteId, _cond: &LogicVec, taken: bool) {
        self.coverage.insert(site, taken);
    }

    fn changed(old: &LogicVec, new: &LogicVec) -> bool {
        old != new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_ops_match_logicvec() {
        let mut alg = ConcreteAlgebra::new();
        let a = alg.constant(LogicVec::from_u64(8, 12));
        let b = alg.constant(LogicVec::from_u64(8, 5));
        assert_eq!(alg.binary(BinaryOp::Add, &a, &b).to_u64(), Some(17));
        assert_eq!(alg.binary(BinaryOp::Gt, &a, &b).to_u64(), Some(1));
        assert_eq!(alg.binary(BinaryOp::Ge, &a, &b).to_u64(), Some(1));
        assert_eq!(alg.unary(UnaryOp::RedOr, &a).to_u64(), Some(1));
        assert_eq!(alg.slice(&a, 2, 2).to_u64(), Some(0b11));
        assert_eq!(alg.concat(&a, &b).width(), 16);
    }

    #[test]
    fn replicate_matches_the_concat_chain() {
        let mut alg = ConcreteAlgebra::new();
        let x = LogicVec::xes(1);
        let wide = LogicVec::from_u64(64, 0xA55A_0FF0_1234_5678).concat(&x);
        // Results below, at and above 64 bits, with unknown bits, from
        // one-word and two-word inputs.
        for (v, count) in [
            (LogicVec::from_u64(4, 0b1011).concat(&x), 3),
            (LogicVec::from_u64(7, 0x35).concat(&x), 8),
            (LogicVec::from_u64(6, 0x2D).concat(&x), 13),
            (LogicVec::from_u64(1, 1), 64),
            (wide, 3),
        ] {
            let mut chain = v.clone();
            for _ in 1..count {
                chain = alg.concat(&chain, &v);
            }
            assert_eq!(alg.replicate(&v, count), chain, "{{{count}{{{v:?}}}}}");
        }
    }

    #[test]
    fn mux_with_unknown_condition_merges() {
        let mut alg = ConcreteAlgebra::new();
        let x = LogicVec::xes(1);
        let t = LogicVec::from_u64(4, 0b1010);
        let e = LogicVec::from_u64(4, 0b1001);
        let m = alg.mux(&x, &t, &e);
        // Equal bits survive the X-merge; differing bits go X.
        assert_eq!(m.bit(3), soccar_rtl::Bit::One); // 1 == 1
        assert_eq!(m.bit(2), soccar_rtl::Bit::Zero); // 0 == 0
        assert!(m.bit(1).is_unknown()); // 1 vs 0
        assert!(m.bit(0).is_unknown()); // 0 vs 1
    }

    #[test]
    fn coverage_holds_each_direction_of_each_site() {
        let mut cov = BranchCoverage::default();
        assert!(!cov.contains(BranchSiteId(0), false));
        cov.insert(BranchSiteId(0), true);
        assert!(cov.contains(BranchSiteId(0), true));
        assert!(!cov.contains(BranchSiteId(0), false));
        cov.insert(BranchSiteId(0), false);
        assert!(cov.contains(BranchSiteId(0), false));
        assert!(!cov.contains(BranchSiteId(1), true));
        assert!(!cov.contains(BranchSiteId(1), false));
    }

    #[test]
    fn coverage_spans_word_boundaries() {
        // Sites 31 and 32 straddle the first word boundary (bits 63, 64);
        // site 1000 lands many words past anything inserted before.
        let mut cov = BranchCoverage::default();
        for (site, dir) in [(31, true), (32, false), (1000, true)] {
            cov.insert(BranchSiteId(site), dir);
        }
        for site in [30, 31, 32, 33, 999, 1000, 1001, 5000] {
            for dir in [false, true] {
                let want = matches!((site, dir), (31, true) | (32, false) | (1000, true));
                assert_eq!(cov.contains(BranchSiteId(site), dir), want, "{site} {dir}");
            }
        }
    }

    #[test]
    fn coverage_equality_is_set_equality() {
        let pairs = [(3, true), (70, false), (7, false)];
        let mut a = BranchCoverage::default();
        let mut b = BranchCoverage::default();
        for &(site, dir) in &pairs {
            a.insert(BranchSiteId(site), dir);
        }
        for &(site, dir) in pairs.iter().rev() {
            b.insert(BranchSiteId(site), dir);
        }
        assert_eq!(a, b, "insertion order does not matter");
        b.insert(BranchSiteId(3), true);
        assert_eq!(a, b, "re-inserting a member changes nothing");
        b.insert(BranchSiteId(3), false);
        assert_ne!(a, b, "the other direction is another member");
        a.clear();
        assert_eq!(a, BranchCoverage::default(), "a cleared set is empty");
        a.insert(BranchSiteId(3), true);
        let mut c = BranchCoverage::default();
        c.insert(BranchSiteId(3), true);
        assert_eq!(a, c, "a cleared and refilled set equals a fresh one");
    }

    #[test]
    fn concrete_runs_record_branch_coverage() {
        use crate::sim::{InitPolicy, Simulator};
        let (design, _) = soccar_rtl::compile(
            "t.v",
            "module t(input a, output reg y);
               always @(*) if (a) y = 1'b1; else y = 1'b0;
             endmodule",
            "t",
        )
        .expect("compile");
        let mut sim = Simulator::concrete(&design, InitPolicy::X);
        let a = design.find_net("t.a").expect("a");
        let site = BranchSiteId(0);
        sim.write_input(a, LogicVec::from_u64(1, 1)).expect("a");
        sim.settle().expect("settle");
        assert!(sim.algebra().coverage().contains(site, true));
        assert!(!sim.algebra().coverage().contains(site, false));
        sim.write_input(a, LogicVec::from_u64(1, 0)).expect("a");
        sim.settle().expect("settle");
        assert!(sim.algebra().coverage().contains(site, false));
    }

    #[test]
    fn changed_detects_x_transitions() {
        let x = LogicVec::xes(4);
        let v = LogicVec::from_u64(4, 0);
        assert!(ConcreteAlgebra::changed(&x, &v));
        assert!(!ConcreteAlgebra::changed(&v, &v.clone()));
    }
}
