//! The concolic co-simulation algebra, and the concrete coverage algebra
//! the reset sweep runs on.
//!
//! [`CoValue`] pairs every simulation value with an optional symbolic term:
//! the concrete half drives execution (branch decisions, memory indices,
//! edge detection), the symbolic half records how the value depends on the
//! symbolic inputs the engine injected. This is the textbook concolic
//! construction — "execute concretely, piggyback symbolic execution".
//!
//! Invariants:
//!
//! * a term is only attached while the concrete value is fully defined
//!   (no X/Z bits) — unknowns drop the shadow;
//! * term width always equals concrete width;
//! * every branch whose condition carries a term is reported through
//!   [`soccar_sim::Algebra::on_branch`] and recorded as a
//!   [`BranchObservation`] in chronological order.
//!
//! Sweep rounds plan no flips, so they need none of that shadow state:
//! [`CoverageAlgebra`] computes the same concrete values and records only
//! `(site, direction)` branch coverage. Both implement [`RoundAlgebra`],
//! the interface the engine's single round driver is generic over.

use std::collections::HashSet;
use std::fmt;

use soccar_rtl::ast::{BinaryOp, UnaryOp};
use soccar_rtl::design::BranchSiteId;
use soccar_rtl::value::LogicVec;
use soccar_sim::algebra::{concrete_binary, concrete_mux, concrete_unary, Algebra};
use soccar_smt::{BvVal, TermGraph, TermId};

/// An algebra the engine's round driver can run a schedule on.
pub trait RoundAlgebra: Algebra + Default {
    /// The value of schedule slot `name` (e.g. `rst_0_3`) holding `value`.
    /// The name is only formatted by algebras that use it.
    fn input(&mut self, name: fmt::Arguments<'_>, value: LogicVec) -> Self::Value;

    /// Branch coverage: every `(site, direction)` executed this run.
    fn coverage(&self) -> &HashSet<(BranchSiteId, bool)>;
}

/// A concrete value with an optional symbolic shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoValue {
    /// The concrete 4-state value.
    pub concrete: LogicVec,
    /// The symbolic term, when the value depends on symbolic inputs and is
    /// fully defined.
    pub term: Option<TermId>,
}

impl CoValue {
    /// A purely concrete value.
    #[must_use]
    pub fn concrete(value: LogicVec) -> CoValue {
        CoValue {
            concrete: value,
            term: None,
        }
    }

    /// `true` if the value carries a symbolic term.
    #[must_use]
    pub fn is_symbolic(&self) -> bool {
        self.term.is_some()
    }
}

/// One recorded branch decision whose condition was symbolic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchObservation {
    /// The static branch site.
    pub site: BranchSiteId,
    /// The (1-bit) condition term at this occurrence.
    pub cond: TermId,
    /// Direction taken by the concrete execution.
    pub taken: bool,
    /// Chronological index within the run.
    pub step: u64,
}

/// The co-simulation algebra: owns the term graph and the branch log.
#[derive(Debug, Default)]
pub struct CoAlgebra {
    /// The shared term graph (vars minted by the engine live here too).
    pub graph: TermGraph,
    observations: Vec<BranchObservation>,
    coverage: HashSet<(BranchSiteId, bool)>,
    step: u64,
}

impl CoAlgebra {
    /// Creates an empty co-algebra.
    #[must_use]
    pub fn new() -> CoAlgebra {
        CoAlgebra::default()
    }

    /// Creates a symbolic value: a fresh (or re-used, by name) variable
    /// whose concrete interpretation is `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` has unknown bits (symbolic inputs must be
    /// two-state).
    pub fn symbolic_input(&mut self, name: &str, value: LogicVec) -> CoValue {
        assert!(
            !value.has_unknown(),
            "symbolic inputs must be fully defined"
        );
        let var = self.graph.var(name, value.width());
        CoValue {
            concrete: value,
            term: Some(var),
        }
    }

    /// Branch observations recorded so far, in chronological order.
    #[must_use]
    pub fn observations(&self) -> &[BranchObservation] {
        &self.observations
    }

    /// Clears the branch log and coverage (between rounds). Terms persist —
    /// they are hash-consed and cheap to keep.
    pub fn reset_observations(&mut self) {
        self.observations.clear();
        self.coverage.clear();
        self.step = 0;
    }

    /// The term of `v`, lifting fully-defined concrete values to constants.
    /// Returns `None` when the concrete value has unknowns.
    fn term_of(&mut self, v: &CoValue) -> Option<TermId> {
        if let Some(t) = v.term {
            return Some(t);
        }
        if v.concrete.has_unknown() {
            return None;
        }
        Some(self.graph.constant(to_bv(&v.concrete)))
    }

    /// Wraps a concrete result with a term, enforcing the no-unknowns
    /// invariant.
    fn wrap(&mut self, concrete: LogicVec, term: Option<TermId>) -> CoValue {
        let term = match term {
            Some(t) if !concrete.has_unknown() => {
                debug_assert_eq!(self.graph.width(t), concrete.width());
                Some(t)
            }
            _ => None,
        };
        CoValue { concrete, term }
    }

    /// A term only matters if at least one operand was genuinely symbolic;
    /// building const-only terms would bloat the graph for nothing.
    fn binary_term(&mut self, op: BinaryOp, a: &CoValue, b: &CoValue) -> Option<TermId> {
        if !a.is_symbolic() && !b.is_symbolic() {
            return None;
        }
        let ta = self.term_of(a)?;
        let tb = self.term_of(b)?;
        let g = &mut self.graph;
        Some(match op {
            BinaryOp::Add => g.add(ta, tb),
            BinaryOp::Sub => g.sub(ta, tb),
            BinaryOp::Mul => g.mul(ta, tb),
            BinaryOp::Div => g.udiv(ta, tb),
            BinaryOp::Mod => g.urem(ta, tb),
            BinaryOp::Pow => return None,
            BinaryOp::And => g.and(ta, tb),
            BinaryOp::Or => g.or(ta, tb),
            BinaryOp::Xor => g.xor(ta, tb),
            BinaryOp::Xnor => {
                let x = g.xor(ta, tb);
                g.not(x)
            }
            BinaryOp::LogicalAnd => {
                let ra = g.red_or(ta);
                let rb = g.red_or(tb);
                g.and(ra, rb)
            }
            BinaryOp::LogicalOr => {
                let ra = g.red_or(ta);
                let rb = g.red_or(tb);
                g.or(ra, rb)
            }
            // Terms are two-state: case equality coincides with equality.
            BinaryOp::Eq | BinaryOp::CaseEq => g.eq(ta, tb),
            BinaryOp::Ne | BinaryOp::CaseNe => g.ne(ta, tb),
            BinaryOp::Lt => g.ult(ta, tb),
            BinaryOp::Le => g.ule(ta, tb),
            BinaryOp::Gt => g.ult(tb, ta),
            BinaryOp::Ge => g.ule(tb, ta),
            BinaryOp::Shl => g.shl(ta, tb),
            BinaryOp::Shr => g.lshr(ta, tb),
            BinaryOp::AShr => g.ashr(ta, tb),
        })
    }
}

/// Converts a fully-defined [`LogicVec`] to a [`BvVal`].
///
/// # Panics
///
/// Panics if `v` has unknown bits.
#[must_use]
pub fn to_bv(v: &LogicVec) -> BvVal {
    assert!(!v.has_unknown(), "cannot convert unknowns to BvVal");
    let bits: Vec<bool> = v.iter_bits().map(|b| b == soccar_rtl::Bit::One).collect();
    BvVal::from_bits(&bits)
}

/// Converts a [`BvVal`] back to a (two-state) [`LogicVec`].
#[must_use]
pub fn from_bv(v: &BvVal) -> LogicVec {
    let bits: Vec<soccar_rtl::Bit> = v
        .iter_bits()
        .map(|b| {
            if b {
                soccar_rtl::Bit::One
            } else {
                soccar_rtl::Bit::Zero
            }
        })
        .collect();
    LogicVec::from_bits(&bits)
}

impl Algebra for CoAlgebra {
    type Value = CoValue;

    fn constant(&mut self, c: LogicVec) -> CoValue {
        CoValue::concrete(c)
    }

    fn concrete<'a>(&self, v: &'a CoValue) -> &'a LogicVec {
        &v.concrete
    }

    fn unary(&mut self, op: UnaryOp, a: &CoValue) -> CoValue {
        let concrete = concrete_unary(op, &a.concrete);
        let term = a.term.map(|t| {
            let g = &mut self.graph;
            match op {
                UnaryOp::Not => g.not(t),
                UnaryOp::LogicalNot => {
                    let r = g.red_or(t);
                    g.not(r)
                }
                UnaryOp::Neg => {
                    let z = g.constant(BvVal::zeros(g.width(t)));
                    g.sub(z, t)
                }
                UnaryOp::Plus => t,
                UnaryOp::RedAnd => g.red_and(t),
                UnaryOp::RedOr => g.red_or(t),
                UnaryOp::RedXor => g.red_xor(t),
                UnaryOp::RedNand => {
                    let r = g.red_and(t);
                    g.not(r)
                }
                UnaryOp::RedNor => {
                    let r = g.red_or(t);
                    g.not(r)
                }
                UnaryOp::RedXnor => {
                    let r = g.red_xor(t);
                    g.not(r)
                }
            }
        });
        self.wrap(concrete, term)
    }

    fn binary(&mut self, op: BinaryOp, a: &CoValue, b: &CoValue) -> CoValue {
        let concrete = concrete_binary(op, &a.concrete, &b.concrete);
        let term = self.binary_term(op, a, b);
        self.wrap(concrete, term)
    }

    fn mux(&mut self, cond: &CoValue, t: &CoValue, e: &CoValue) -> CoValue {
        let concrete = concrete_mux(&cond.concrete, &t.concrete, &e.concrete);
        let term = if cond.is_symbolic() || t.is_symbolic() || e.is_symbolic() {
            (|| {
                let tc = self.term_of(cond)?;
                let tt = self.term_of(t)?;
                let te = self.term_of(e)?;
                let g = &mut self.graph;
                let c1 = g.red_or(tc); // Verilog truthiness
                Some(g.ite(c1, tt, te))
            })()
        } else {
            None
        };
        self.wrap(concrete, term)
    }

    fn concat(&mut self, hi: &CoValue, lo: &CoValue) -> CoValue {
        let concrete = hi.concrete.concat(&lo.concrete);
        let term = if hi.is_symbolic() || lo.is_symbolic() {
            (|| {
                let th = self.term_of(hi)?;
                let tl = self.term_of(lo)?;
                Some(self.graph.concat(th, tl))
            })()
        } else {
            None
        };
        self.wrap(concrete, term)
    }

    fn slice(&mut self, a: &CoValue, lo: u32, width: u32) -> CoValue {
        let concrete = a.concrete.slice(lo, width);
        let term = a.term.and_then(|t| {
            let tw = self.graph.width(t);
            if lo + width <= tw {
                Some(self.graph.extract(lo + width - 1, lo, t))
            } else {
                None // out-of-range slice reads X concretely
            }
        });
        self.wrap(concrete, term)
    }

    fn resize(&mut self, a: &CoValue, width: u32) -> CoValue {
        let concrete = a.concrete.resize(width);
        let term = a.term.map(|t| self.graph.resize(t, width));
        self.wrap(concrete, term)
    }

    fn on_branch(&mut self, site: BranchSiteId, cond: &CoValue, taken: bool) {
        self.step += 1;
        self.coverage.insert((site, taken));
        let Some(t) = cond.term else { return };
        // Normalize the condition to one bit of truthiness.
        let cond1 = self.graph.red_or(t);
        self.observations.push(BranchObservation {
            site,
            cond: cond1,
            taken,
            step: self.step,
        });
    }

    fn changed(old: &CoValue, new: &CoValue) -> bool {
        old.concrete != new.concrete || old.term != new.term
    }
}

impl RoundAlgebra for CoAlgebra {
    fn input(&mut self, name: fmt::Arguments<'_>, value: LogicVec) -> CoValue {
        self.symbolic_input(&name.to_string(), value)
    }

    /// Every `(site, direction)` executed, whether or not the condition
    /// was symbolic.
    fn coverage(&self) -> &HashSet<(BranchSiteId, bool)> {
        &self.coverage
    }
}

/// The concrete coverage algebra: plain [`LogicVec`] values plus the
/// `(site, direction)` branch-coverage set. No symbolic inputs, no terms.
///
/// The one behavioral difference from [`CoAlgebra`] is in
/// [`Algebra::changed`]: the co-algebra also wakes level-sensitive
/// processes when only a term changed. Those re-evaluations see identical
/// concrete values, so branch coverage, the set of processes that ran,
/// and every property verdict are the same on both algebras.
#[derive(Debug, Default)]
pub struct CoverageAlgebra {
    coverage: HashSet<(BranchSiteId, bool)>,
}

impl RoundAlgebra for CoverageAlgebra {
    fn input(&mut self, _name: fmt::Arguments<'_>, value: LogicVec) -> LogicVec {
        value
    }

    fn coverage(&self) -> &HashSet<(BranchSiteId, bool)> {
        &self.coverage
    }
}

impl Algebra for CoverageAlgebra {
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

    fn on_branch(&mut self, site: BranchSiteId, _cond: &LogicVec, taken: bool) {
        self.coverage.insert((site, taken));
    }

    fn changed(old: &LogicVec, new: &LogicVec) -> bool {
        old != new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_only_ops_build_no_terms() {
        let mut alg = CoAlgebra::new();
        let a = alg.constant(LogicVec::from_u64(8, 5));
        let b = alg.constant(LogicVec::from_u64(8, 7));
        let s = alg.binary(BinaryOp::Add, &a, &b);
        assert_eq!(s.concrete.to_u64(), Some(12));
        assert!(!s.is_symbolic());
        assert!(alg.graph.is_empty());
    }

    #[test]
    fn symbolic_propagation_and_solving() {
        use soccar_smt::{CheckResult, Solver};
        let mut alg = CoAlgebra::new();
        let x = alg.symbolic_input("x", LogicVec::from_u64(8, 3));
        let c = alg.constant(LogicVec::from_u64(8, 10));
        let sum = alg.binary(BinaryOp::Add, &x, &c);
        assert_eq!(sum.concrete.to_u64(), Some(13));
        let t = sum.term.expect("term");
        // Solve sum == 42 → x == 32.
        let target = alg.graph.const_u64(8, 42);
        let goal = alg.graph.eq(t, target);
        let mut s = Solver::new();
        s.assert(goal);
        match s.check(&alg.graph) {
            CheckResult::Sat(m) => {
                let xvar = alg.graph.var("x", 8);
                assert_eq!(m.value(xvar).and_then(BvVal::to_u64), Some(32));
            }
            other => panic!("must be sat, got {other:?}"),
        }
    }

    #[test]
    fn unknown_concrete_drops_term() {
        let mut alg = CoAlgebra::new();
        let x = alg.symbolic_input("x", LogicVec::from_u64(8, 3));
        let unknown = alg.constant(LogicVec::xes(8));
        let s = alg.binary(BinaryOp::Add, &x, &unknown);
        assert!(s.concrete.is_all_x());
        assert!(!s.is_symbolic());
    }

    #[test]
    fn shift_by_a_wide_known_amount_keeps_its_term() {
        let mut alg = CoAlgebra::new();
        let x = alg.symbolic_input("x", LogicVec::from_u64(8, 0xFF));
        // 70'h20_0000_0000_0000_0000: fully known, past every bit of `x`.
        let amount = alg.constant(LogicVec::from_u64(1, 1).concat(&LogicVec::zeros(69)));
        let xvar = alg.graph.var("x", 8);
        let env = std::collections::HashMap::from([(xvar, BvVal::from_u64(8, 0xFF))]);
        for (op, want) in [
            (BinaryOp::Shl, 0),
            (BinaryOp::Shr, 0),
            (BinaryOp::AShr, 0xFF),
        ] {
            let v = alg.binary(op, &x, &amount);
            assert_eq!(v.concrete.to_u64(), Some(want), "{op:?}");
            let t = v.term.expect("a known amount keeps the shift's term");
            // The SMT semantics agree with the concrete value.
            assert_eq!(alg.graph.eval(t, &env).to_u64(), Some(want), "{op:?}");
        }
    }

    #[test]
    fn branch_observations_recorded_in_order() {
        let mut alg = CoAlgebra::new();
        let x = alg.symbolic_input("x", LogicVec::from_u64(1, 1));
        let y = alg.constant(LogicVec::from_u64(1, 0));
        alg.on_branch(BranchSiteId(0), &x, true);
        alg.on_branch(BranchSiteId(1), &y, false); // concrete: not recorded
        alg.on_branch(BranchSiteId(2), &x, false);
        let obs = alg.observations();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].site, BranchSiteId(0));
        assert!(obs[0].taken);
        assert_eq!(obs[1].site, BranchSiteId(2));
        assert!(obs[0].step < obs[1].step);
        alg.reset_observations();
        assert!(alg.observations().is_empty());
    }

    #[test]
    fn slice_and_concat_terms() {
        let mut alg = CoAlgebra::new();
        let x = alg.symbolic_input("x", LogicVec::from_u64(8, 0xA5));
        let hi = alg.slice(&x, 4, 4);
        assert_eq!(hi.concrete.to_u64(), Some(0xA));
        assert!(hi.is_symbolic());
        let lo = alg.slice(&x, 0, 4);
        let cat = alg.concat(&hi, &lo);
        assert_eq!(cat.concrete.to_u64(), Some(0xA5));
        assert!(cat.is_symbolic());
        // Out-of-range slice drops the term (concrete has X).
        let oob = alg.slice(&x, 6, 4);
        assert!(!oob.is_symbolic());
    }

    #[test]
    fn bv_conversions_roundtrip() {
        let v = LogicVec::from_u64(12, 0xABC);
        assert_eq!(from_bv(&to_bv(&v)), v);
        let wide = LogicVec::ones(100);
        assert_eq!(from_bv(&to_bv(&wide)), wide);
    }

    #[test]
    #[should_panic(expected = "fully defined")]
    fn symbolic_input_rejects_unknowns() {
        let mut alg = CoAlgebra::new();
        alg.symbolic_input("x", LogicVec::xes(4));
    }

    #[test]
    fn mux_with_symbolic_condition() {
        let mut alg = CoAlgebra::new();
        let c = alg.symbolic_input("c", LogicVec::from_u64(1, 1));
        let a = alg.constant(LogicVec::from_u64(4, 3));
        let b = alg.constant(LogicVec::from_u64(4, 9));
        let m = alg.mux(&c, &a, &b);
        assert_eq!(m.concrete.to_u64(), Some(3));
        assert!(m.is_symbolic());
    }
}
