//! Tseitin bit-blasting of the term graph into CNF.
//!
//! Every term maps to a vector of SAT literals (LSB first). Word-level
//! operators are expanded into standard gate-level circuits: ripple-carry
//! adders, shift-add multipliers, borrow-chain comparators, logarithmic
//! barrel shifters and an unrolled restoring divider. The blaster caches
//! per-term literal vectors, so shared subterms are encoded once.

use std::collections::HashMap;

use crate::sat::{Lit, SatSolver};
use crate::term::{Term, TermGraph, TermId};

/// Bit-blasts terms into a [`SatSolver`].
#[derive(Debug, Clone)]
pub struct BitBlaster {
    /// The solver receiving clauses.
    pub solver: SatSolver,
    cache: HashMap<TermId, Vec<Lit>>,
    true_lit: Lit,
}

impl BitBlaster {
    /// Creates a blaster with a fresh solver (and the constant-true
    /// variable pinned).
    #[must_use]
    pub fn new() -> BitBlaster {
        let mut solver = SatSolver::new();
        let t = solver.new_var();
        solver.add_clause(&[Lit::pos(t)]);
        BitBlaster {
            solver,
            cache: HashMap::new(),
            true_lit: Lit::pos(t),
        }
    }

    /// The always-true literal.
    #[must_use]
    pub fn tru(&self) -> Lit {
        self.true_lit
    }

    /// The always-false literal.
    #[must_use]
    pub fn fls(&self) -> Lit {
        self.true_lit.negate()
    }

    /// Asserts that the 1-bit term `t` is true.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not 1 bit wide.
    pub fn assert_true(&mut self, g: &TermGraph, t: TermId) {
        assert_eq!(g.width(t), 1, "assertions must be 1-bit terms");
        let bits = self.blast(g, t);
        self.solver.add_clause(&[bits[0]]);
    }

    /// Returns the literal vector (LSB first) encoding `id`.
    pub fn blast(&mut self, g: &TermGraph, id: TermId) -> Vec<Lit> {
        if let Some(bits) = self.cache.get(&id) {
            return bits.clone();
        }
        let w = g.width(id) as usize;
        let bits: Vec<Lit> = match g.term(id) {
            Term::Var(_) => (0..w).map(|_| Lit::pos(self.solver.new_var())).collect(),
            Term::Const(c) => c
                .iter_bits()
                .map(|b| if b { self.tru() } else { self.fls() })
                .collect(),
            Term::Not(a) => {
                let a = self.blast(g, *a);
                a.into_iter().map(Lit::negate).collect()
            }
            Term::And(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.and_gate(*x, *y))
                    .collect()
            }
            Term::Or(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.or_gate(*x, *y))
                    .collect()
            }
            Term::Xor(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| self.xor_gate(*x, *y))
                    .collect()
            }
            Term::Add(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.adder(&a, &b, self.fls()).0
            }
            Term::Sub(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                let nb: Vec<Lit> = b.into_iter().map(Lit::negate).collect();
                self.adder(&a, &nb, self.tru()).0
            }
            Term::Mul(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.multiplier(&a, &b)
            }
            Term::Udiv(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.divider(&a, &b).0
            }
            Term::Urem(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.divider(&a, &b).1
            }
            Term::Shl(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.shifter(&a, &b, ShiftKind::Left)
            }
            Term::Lshr(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.shifter(&a, &b, ShiftKind::LogicalRight)
            }
            Term::Ashr(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                self.shifter(&a, &b, ShiftKind::ArithRight)
            }
            Term::Eq(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                vec![self.equality(&a, &b)]
            }
            Term::Ult(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                vec![self.less_than(&a, &b, false)]
            }
            Term::Ule(a, b) => {
                let (a, b) = (self.blast(g, *a), self.blast(g, *b));
                vec![self.less_than(&a, &b, true)]
            }
            Term::Ite(c, t, e) => {
                let c = self.blast(g, *c)[0];
                let (t, e) = (self.blast(g, *t), self.blast(g, *e));
                t.iter()
                    .zip(&e)
                    .map(|(x, y)| self.mux_gate(c, *x, *y))
                    .collect()
            }
            Term::Concat(hi, lo) => {
                let (hi, lo) = (self.blast(g, *hi), self.blast(g, *lo));
                let mut bits = lo;
                bits.extend(hi);
                bits
            }
            Term::Extract { hi, lo, arg } => {
                let a = self.blast(g, *arg);
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Term::ZExt { width, arg } => {
                let mut a = self.blast(g, *arg);
                a.resize(*width as usize, self.fls());
                a
            }
            Term::RedAnd(a) => {
                let a = self.blast(g, *a);
                vec![self.big_and(&a)]
            }
            Term::RedOr(a) => {
                let a = self.blast(g, *a);
                let nots: Vec<Lit> = a.into_iter().map(Lit::negate).collect();
                let all_zero = self.big_and(&nots);
                vec![all_zero.negate()]
            }
            Term::RedXor(a) => {
                let a = self.blast(g, *a);
                let mut acc = self.fls();
                for l in a {
                    acc = self.xor_gate(acc, l);
                }
                vec![acc]
            }
        };
        debug_assert_eq!(bits.len(), w);
        self.cache.insert(id, bits.clone());
        bits
    }

    /// Extracts the model value of `id` (must be blasted) after SAT.
    #[must_use]
    pub fn model_bits(&self, id: TermId) -> Option<Vec<bool>> {
        let bits = self.cache.get(&id)?;
        bits.iter()
            .map(|l| {
                // Unassigned variables (unconstrained bits) default false.
                let v = self.solver.value(l.var()).unwrap_or(false);
                Some(v == l.is_pos())
            })
            .collect()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fls() || b == self.fls() {
            return self.fls();
        }
        if a == self.tru() {
            return b;
        }
        if b == self.tru() {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.fls();
        }
        let c = self.fresh();
        self.solver.add_clause(&[c.negate(), a]);
        self.solver.add_clause(&[c.negate(), b]);
        self.solver.add_clause(&[c, a.negate(), b.negate()]);
        c
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fls() {
            return b;
        }
        if b == self.fls() {
            return a;
        }
        if a == self.tru() {
            return b.negate();
        }
        if b == self.tru() {
            return a.negate();
        }
        if a == b {
            return self.fls();
        }
        if a == b.negate() {
            return self.tru();
        }
        let c = self.fresh();
        self.solver.add_clause(&[c.negate(), a, b]);
        self.solver
            .add_clause(&[c.negate(), a.negate(), b.negate()]);
        self.solver.add_clause(&[c, a, b.negate()]);
        self.solver.add_clause(&[c, a.negate(), b]);
        c
    }

    fn mux_gate(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        if s == self.tru() {
            return t;
        }
        if s == self.fls() {
            return e;
        }
        if t == e {
            return t;
        }
        let c = self.fresh();
        self.solver.add_clause(&[c.negate(), s.negate(), t]);
        self.solver.add_clause(&[c, s.negate(), t.negate()]);
        self.solver.add_clause(&[c.negate(), s, e]);
        self.solver.add_clause(&[c, s, e.negate()]);
        c
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let ab = self.and_gate(a, b);
        let cx = self.and_gate(axb, cin);
        let cout = self.or_gate(ab, cx);
        (sum, cout)
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = cin;
        for (x, y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(*x, *y, carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn multiplier(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.fls(); w];
        for (i, bi) in b.iter().enumerate() {
            // Partial product: (a << i) & b_i, truncated to w bits.
            let mut pp: Vec<Lit> = vec![self.fls(); w];
            for j in 0..w - i {
                pp[i + j] = self.and_gate(a[j], *bi);
            }
            acc = self.adder(&acc, &pp, self.fls()).0;
        }
        acc
    }

    /// Unrolled restoring division; matches [`crate::bv::BvVal::udivrem`]
    /// including the zero-divisor fixed point.
    fn divider(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let mut quo = vec![self.fls(); w];
        let mut rem: Vec<Lit> = vec![self.fls(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // ge = rem >= b  ⇔ ¬(rem < b)
            let lt = self.less_than(&rem, b, false);
            let ge = lt.negate();
            // diff = rem - b
            let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
            let (diff, _) = self.adder(&rem, &nb, self.tru());
            // rem = ge ? diff : rem
            rem = rem
                .iter()
                .zip(&diff)
                .map(|(r, d)| self.mux_gate(ge, *d, *r))
                .collect();
            quo[i] = ge;
        }
        // Zero divisor: quotient is all-ones, remainder = a (BvVal fixed
        // semantics). The restoring circuit above already yields exactly
        // that (rem - 0 keeps rem, every ge is true ... rem ends as a's
        // low bits shifted through), but only for the quotient; force the
        // remainder with a mux on b == 0 to be safe and explicit.
        let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let b_zero = self.big_and(&nb);
        let rem = rem
            .iter()
            .zip(a)
            .map(|(r, av)| self.mux_gate(b_zero, *av, *r))
            .collect();
        let quo = quo
            .iter()
            .map(|q| self.mux_gate(b_zero, self.true_lit, *q))
            .collect();
        (quo, rem)
    }

    fn shifter(&mut self, a: &[Lit], amount: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let fill = match kind {
            ShiftKind::Left | ShiftKind::LogicalRight => self.fls(),
            ShiftKind::ArithRight => a[w - 1],
        };
        let mut cur: Vec<Lit> = a.to_vec();
        // Logarithmic barrel shifter over the meaningful amount bits.
        let meaningful = (usize::BITS - (w - 1).leading_zeros()).max(1) as usize;
        for (stage, s) in amount.iter().enumerate().take(meaningful) {
            let dist = 1usize << stage;
            let shifted: Vec<Lit> = (0..w)
                .map(|i| match kind {
                    ShiftKind::Left => {
                        if i >= dist {
                            cur[i - dist]
                        } else {
                            fill
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                        if i + dist < w {
                            cur[i + dist]
                        } else {
                            fill
                        }
                    }
                })
                .collect();
            cur = cur
                .iter()
                .zip(&shifted)
                .map(|(keep, shift)| self.mux_gate(*s, *shift, *keep))
                .collect();
        }
        // Any higher amount bit set → fully shifted out.
        if amount.len() > meaningful {
            let high = &amount[meaningful..];
            let nots: Vec<Lit> = high.iter().map(|l| l.negate()).collect();
            let none_high = self.big_and(&nots);
            cur = cur
                .into_iter()
                .map(|bit| self.mux_gate(none_high, bit, fill))
                .collect();
        }
        cur
    }

    fn equality(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let xnors: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(x, y)| self.xor_gate(*x, *y).negate())
            .collect();
        self.big_and(&xnors)
    }

    /// `a < b` (or `a <= b` when `or_equal`) via a borrow chain.
    fn less_than(&mut self, a: &[Lit], b: &[Lit], or_equal: bool) -> Lit {
        let mut lt = if or_equal { self.tru() } else { self.fls() };
        for (x, y) in a.iter().zip(b) {
            // lt_i = (¬x ∧ y) ∨ ((x ≡ y) ∧ lt_{i-1})
            let nx_and_y = self.and_gate(x.negate(), *y);
            let eq = self.xor_gate(*x, *y).negate();
            let keep = self.and_gate(eq, lt);
            lt = self.or_gate(nx_and_y, keep);
        }
        lt
    }

    fn big_and(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.tru();
        for l in lits {
            acc = self.and_gate(acc, *l);
        }
        acc
    }
}

impl Default for BitBlaster {
    fn default() -> BitBlaster {
        BitBlaster::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::BvVal;
    use crate::sat::SatOutcome;

    /// Blasts `t`, asserts it equals `expect`, and checks SAT/UNSAT.
    fn assert_forced(g: &mut TermGraph, t: TermId, expect: &BvVal, sat: bool) {
        let mut bb = BitBlaster::new();
        let c = g.constant(expect.clone());
        let eq = g.eq(t, c);
        bb.assert_true(g, eq);
        let out = bb.solver.solve();
        assert_eq!(out == SatOutcome::Sat, sat);
    }

    #[test]
    fn adder_circuit() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c200 = g.const_u64(8, 200);
        let sum = g.add(x, c200);
        // x + 200 == 44 (mod 256) → x == 100.
        let mut bb = BitBlaster::new();
        let c44 = g.const_u64(8, 44);
        let eq = g.eq(sum, c44);
        bb.assert_true(&g, eq);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let bits = bb.model_bits(x).expect("model");
        let v = BvVal::from_bits(&bits);
        assert_eq!(v.to_u64(), Some(100));
    }

    #[test]
    fn subtraction_and_unsat() {
        let mut g = TermGraph::new();
        let x = g.var("x", 4);
        let d = g.sub(x, x);
        // x - x == 1 is unsat (folds to const 0 == 1 actually).
        assert_forced(&mut g, d, &BvVal::from_u64(4, 1), false);
    }

    #[test]
    fn multiplier_finds_factors() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let y = g.var("y", 8);
        let p = g.mul(x, y);
        let mut bb = BitBlaster::new();
        let c = g.const_u64(8, 77); // 7 * 11
        let eq = g.eq(p, c);
        bb.assert_true(&g, eq);
        // Exclude trivial factorizations.
        let one = g.const_u64(8, 1);
        let x_gt_1 = g.ult(one, x);
        let y_gt_1 = g.ult(one, y);
        bb.assert_true(&g, x_gt_1);
        bb.assert_true(&g, y_gt_1);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let xv = BvVal::from_bits(&bb.model_bits(x).expect("x"))
            .to_u64()
            .expect("x");
        let yv = BvVal::from_bits(&bb.model_bits(y).expect("y"))
            .to_u64()
            .expect("y");
        assert_eq!((xv * yv) & 0xFF, 77);
        assert!(xv > 1 && yv > 1);
    }

    #[test]
    fn comparison_chain() {
        let mut g = TermGraph::new();
        let x = g.var("x", 6);
        let c10 = g.const_u64(6, 10);
        let c12 = g.const_u64(6, 12);
        let lo = g.ult(c10, x);
        let hi = g.ult(x, c12);
        let both = g.and(lo, hi);
        let mut bb = BitBlaster::new();
        bb.assert_true(&g, both);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let xv = BvVal::from_bits(&bb.model_bits(x).expect("x"))
            .to_u64()
            .expect("x");
        assert_eq!(xv, 11);
    }

    #[test]
    fn shifts_by_variable_amount() {
        let mut g = TermGraph::new();
        let amt = g.var("amt", 4);
        let c1 = g.const_u64(8, 1);
        let shifted = g.shl(c1, amt);
        // 1 << amt == 32 → amt == 5.
        let mut bb = BitBlaster::new();
        let c32 = g.const_u64(8, 32);
        let eq = g.eq(shifted, c32);
        bb.assert_true(&g, eq);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let a = BvVal::from_bits(&bb.model_bits(amt).expect("amt"))
            .to_u64()
            .expect("amt");
        assert_eq!(a, 5);
    }

    #[test]
    fn shift_overflow_forces_zero() {
        let mut g = TermGraph::new();
        let amt = g.var("amt", 4);
        let c3 = g.const_u64(4, 3);
        let shifted = g.shl(c3, amt); // 4-bit value
        let zero = g.constant(BvVal::zeros(4));
        let is_zero = g.eq(shifted, zero);
        let mut bb = BitBlaster::new();
        bb.assert_true(&g, is_zero);
        // amt must be >= 4 (or 3, since 3<<3 = 24 & 0xF = 8 ≠ 0; 3<<2=12≠0).
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let a = BvVal::from_bits(&bb.model_bits(amt).expect("amt"))
            .to_u64()
            .expect("amt");
        assert!(a >= 4, "amt = {a}");
    }

    #[test]
    fn ite_and_reductions() {
        let mut g = TermGraph::new();
        let c = g.var("c", 1);
        let a = g.const_u64(4, 0b1111);
        let b = g.const_u64(4, 0b0111);
        let m = g.ite(c, a, b);
        let all = g.red_and(m);
        let mut bb = BitBlaster::new();
        bb.assert_true(&g, all);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let cv = bb.model_bits(c).expect("c");
        assert!(cv[0], "condition must pick the all-ones arm");
    }

    #[test]
    fn division_circuit() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c7 = g.const_u64(8, 7);
        let q = g.udiv(x, c7);
        let r = g.urem(x, c7);
        let mut bb = BitBlaster::new();
        let cq = g.const_u64(8, 9);
        let cr = g.const_u64(8, 4);
        let eq_q = g.eq(q, cq);
        let eq_r = g.eq(r, cr);
        bb.assert_true(&g, eq_q);
        bb.assert_true(&g, eq_r);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
        let xv = BvVal::from_bits(&bb.model_bits(x).expect("x"))
            .to_u64()
            .expect("x");
        assert_eq!(xv, 9 * 7 + 4);
    }

    #[test]
    fn concat_extract_roundtrip() {
        let mut g = TermGraph::new();
        let hi = g.var("hi", 4);
        let lo = g.var("lo", 4);
        let cat = g.concat(hi, lo);
        let back_hi = g.extract(7, 4, cat);
        let eq = {
            let c = g.const_u64(4, 0xA);
            g.eq(back_hi, c)
        };
        let lo_c = {
            let c = g.const_u64(4, 0x5);
            g.eq(lo, c)
        };
        let cat_c = {
            let c = g.const_u64(8, 0xA5);
            g.eq(cat, c)
        };
        let mut bb = BitBlaster::new();
        bb.assert_true(&g, eq);
        bb.assert_true(&g, lo_c);
        bb.assert_true(&g, cat_c);
        assert_eq!(bb.solver.solve(), SatOutcome::Sat);
    }
}
