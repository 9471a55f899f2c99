//! The value algebra abstraction.
//!
//! The simulator's interpreter is generic over an [`Algebra`]: a factory for
//! values and operations on them. The concrete simulator uses
//! [`ConcreteAlgebra`] whose values are plain [`LogicVec`]s; the concolic
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

/// The plain concrete algebra: values are [`LogicVec`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcreteAlgebra;

impl ConcreteAlgebra {
    /// Creates the concrete algebra.
    #[must_use]
    pub fn new() -> ConcreteAlgebra {
        ConcreteAlgebra
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

    fn slice(&mut self, a: &LogicVec, lo: u32, width: u32) -> LogicVec {
        a.slice(lo, width)
    }

    fn resize(&mut self, a: &LogicVec, width: u32) -> LogicVec {
        a.resize(width)
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
    fn changed_detects_x_transitions() {
        let x = LogicVec::xes(4);
        let v = LogicVec::from_u64(4, 0);
        assert!(ConcreteAlgebra::changed(&x, &v));
        assert!(!ConcreteAlgebra::changed(&v, &v.clone()));
    }
}
