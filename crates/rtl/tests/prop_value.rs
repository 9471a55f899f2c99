//! Property tests for the four-state value library: algebraic laws over
//! random fully-defined vectors, unknown-propagation invariants, and
//! slice/concat round trips.

use proptest::prelude::*;
use soccar_rtl::value::{Bit, LogicVec};

fn logic_vec(width: u32) -> impl Strategy<Value = LogicVec> {
    proptest::collection::vec(0u8..2, width as usize).prop_map(move |bits| {
        let bs: Vec<Bit> = bits
            .iter()
            .map(|b| if *b == 1 { Bit::One } else { Bit::Zero })
            .collect();
        LogicVec::from_bits(&bs)
    })
}

fn logic_vec_4state(width: u32) -> impl Strategy<Value = LogicVec> {
    proptest::collection::vec(0u8..4, width as usize).prop_map(move |bits| {
        let bs: Vec<Bit> = bits
            .iter()
            .map(|b| match b {
                0 => Bit::Zero,
                1 => Bit::One,
                2 => Bit::X,
                _ => Bit::Z,
            })
            .collect();
        LogicVec::from_bits(&bs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn add_is_commutative_and_associative(
        a in logic_vec(16), b in logic_vec(16), c in logic_vec(16)
    ) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn sub_inverts_add(a in logic_vec(16), b in logic_vec(16)) {
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.sub(&a).to_u64(), Some(0));
        prop_assert_eq!(a.add(&b.neg()), a.sub(&b));
    }

    #[test]
    fn mul_matches_u64(a in 0u64..65536, b in 0u64..65536) {
        let va = LogicVec::from_u64(16, a);
        let vb = LogicVec::from_u64(16, b);
        prop_assert_eq!(va.mul(&vb).to_u64(), Some((a * b) & 0xFFFF));
    }

    #[test]
    fn divrem_reconstructs(a in 1u64..4096, b in 1u64..4096) {
        let va = LogicVec::from_u64(16, a);
        let vb = LogicVec::from_u64(16, b);
        let q = va.udiv(&vb);
        let r = va.urem(&vb);
        prop_assert_eq!(q.mul(&vb).add(&r), va);
        prop_assert!(r.ult(&vb).is_all_ones());
    }

    #[test]
    fn bitwise_de_morgan(a in logic_vec(24), b in logic_vec(24)) {
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        prop_assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
        prop_assert_eq!(a.xor(&b), a.and(&b.not()).or(&a.not().and(&b)));
    }

    #[test]
    fn shifts_compose(a in logic_vec(32), s1 in 0u32..16, s2 in 0u32..16) {
        prop_assert_eq!(
            a.shl_const(s1).shl_const(s2),
            a.shl_const(s1 + s2)
        );
        prop_assert_eq!(
            a.lshr_const(s1).lshr_const(s2),
            a.lshr_const(s1 + s2)
        );
    }

    #[test]
    fn concat_slice_roundtrip(hi in logic_vec_4state(9), lo in logic_vec_4state(7)) {
        let cat = hi.concat(&lo);
        prop_assert_eq!(cat.width(), 16);
        prop_assert_eq!(cat.slice(7, 9), hi);
        prop_assert_eq!(cat.slice(0, 7), lo);
    }

    #[test]
    fn replicate_is_repeated_concat(a in logic_vec_4state(5), n in 1u32..5) {
        let rep = a.replicate(n);
        prop_assert_eq!(rep.width(), 5 * n);
        for i in 0..n {
            prop_assert_eq!(rep.slice(i * 5, 5), a.clone());
        }
    }

    #[test]
    fn unknowns_poison_arithmetic(a in logic_vec(12), x in logic_vec_4state(12)) {
        prop_assume!(x.has_unknown());
        prop_assert!(a.add(&x).is_all_x());
        prop_assert!(a.sub(&x).is_all_x());
        prop_assert!(a.mul(&x).is_all_x());
        prop_assert!(a.eq_logic(&x).is_all_x());
        prop_assert!(a.ult(&x).is_all_x());
    }

    #[test]
    fn case_equality_is_reflexive_total(a in logic_vec_4state(10), b in logic_vec_4state(10)) {
        prop_assert!(a.case_eq(&a).is_all_ones());
        let ab = a.case_eq(&b);
        prop_assert!(ab.is_all_ones() || ab.is_all_zero(), "=== is 2-state");
        prop_assert_eq!(ab.is_all_ones(), a == b);
    }

    #[test]
    fn comparisons_match_u64(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let va = LogicVec::from_u64(24, a);
        let vb = LogicVec::from_u64(24, b);
        prop_assert_eq!(va.ult(&vb).is_all_ones(), a < b);
        prop_assert_eq!(va.ule(&vb).is_all_ones(), a <= b);
        prop_assert_eq!(va.eq_logic(&vb).is_all_ones(), a == b);
    }

    #[test]
    fn reductions_match_counts(a in logic_vec(20)) {
        let ones = a.count_ones();
        prop_assert_eq!(a.reduce_or().is_all_ones(), ones > 0);
        prop_assert_eq!(a.reduce_and().is_all_ones(), ones == 20);
        prop_assert_eq!(a.reduce_xor().is_all_ones(), ones % 2 == 1);
    }

    #[test]
    fn resize_preserves_low_bits(a in logic_vec_4state(18), w in 1u32..40) {
        let r = a.resize(w);
        prop_assert_eq!(r.width(), w);
        for i in 0..w.min(18) {
            prop_assert_eq!(r.bit(i), a.bit(i));
        }
        for i in 18..w {
            prop_assert_eq!(r.bit(i), Bit::Zero);
        }
    }

    #[test]
    fn bin_str_roundtrip(a in logic_vec_4state(14)) {
        let s = format!("{a:b}");
        let back = LogicVec::from_bin_str(&s).expect("parse");
        prop_assert_eq!(back, a);
    }
}

// ---------------------------------------------------------------------------
// Differential tests: every public operation against a bit-at-a-time
// reference model, on random 4-state values of widths 1-200 that straddle
// the 64-bit word boundaries. Half of the operand pairs fit in one word
// (the single-word path); every binary operator also meets explicit mixed
// pairs, one operand of at most 64 bits and one wider (the multi-word
// fallback).
// ---------------------------------------------------------------------------

/// The bit-at-a-time reference model: the operator semantics `LogicVec`
/// implemented one bit at a time before it went word-parallel, restated on
/// `Vec<Bit>` (LSB first). Arithmetic is bit-serial, two-state and modulo
/// `2^width`.
mod reference {
    use soccar_rtl::value::Bit::{self, One, Zero, X, Z};
    use std::cmp::Ordering;

    pub type Bits = Vec<Bit>;

    pub fn resize(a: &[Bit], w: usize) -> Bits {
        (0..w).map(|i| a.get(i).copied().unwrap_or(Zero)).collect()
    }

    pub fn sign_extend(a: &[Bit], w: usize) -> Bits {
        let msb = a[a.len() - 1];
        (0..w).map(|i| a.get(i).copied().unwrap_or(msb)).collect()
    }

    pub fn known(a: &[Bit]) -> bool {
        !a.iter().any(|b| b.is_unknown())
    }

    fn xes(w: usize) -> Bits {
        vec![X; w]
    }

    fn one_bit(b: bool) -> Bits {
        vec![Bit::from(b)]
    }

    fn bitwise(a: &[Bit], b: &[Bit], f: impl Fn(Bit, Bit) -> Bit) -> Bits {
        let w = a.len().max(b.len());
        let (a, b) = (resize(a, w), resize(b, w));
        a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect()
    }

    pub fn and(a: &[Bit], b: &[Bit]) -> Bits {
        bitwise(a, b, |x, y| match (x, y) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => X,
        })
    }

    pub fn or(a: &[Bit], b: &[Bit]) -> Bits {
        bitwise(a, b, |x, y| match (x, y) {
            (One, _) | (_, One) => One,
            (Zero, Zero) => Zero,
            _ => X,
        })
    }

    pub fn xor(a: &[Bit], b: &[Bit]) -> Bits {
        bitwise(a, b, |x, y| {
            if x.is_unknown() || y.is_unknown() {
                X
            } else {
                Bit::from(x != y)
            }
        })
    }

    pub fn x_merge(a: &[Bit], b: &[Bit]) -> Bits {
        bitwise(a, b, |x, y| if x == y && !x.is_unknown() { x } else { X })
    }

    pub fn not(a: &[Bit]) -> Bits {
        a.iter()
            .map(|b| match b {
                Zero => One,
                One => Zero,
                _ => X,
            })
            .collect()
    }

    pub fn care_mask(a: &[Bit], x_is_wildcard: bool) -> Bits {
        a.iter()
            .map(|b| Bit::from(!(*b == Z || (x_is_wildcard && *b == X))))
            .collect()
    }

    pub fn reduce_and(a: &[Bit]) -> Bits {
        let mut acc = One;
        for b in a {
            acc = match (acc, *b) {
                (Zero, _) | (_, Zero) => Zero,
                (One, One) => One,
                _ => X,
            };
        }
        vec![acc]
    }

    pub fn reduce_or(a: &[Bit]) -> Bits {
        let mut acc = Zero;
        for b in a {
            acc = match (acc, *b) {
                (One, _) | (_, One) => One,
                (Zero, Zero) => Zero,
                _ => X,
            };
        }
        vec![acc]
    }

    pub fn reduce_xor(a: &[Bit]) -> Bits {
        let mut acc = Zero;
        for b in a {
            acc = if acc.is_unknown() || b.is_unknown() {
                X
            } else {
                Bit::from(acc != *b)
            };
        }
        vec![acc]
    }

    pub fn truthy(a: &[Bit]) -> Option<bool> {
        if a.contains(&One) {
            Some(true)
        } else if known(a) {
            Some(false)
        } else {
            None
        }
    }

    fn truth_bit(t: Option<bool>) -> Bits {
        t.map_or_else(|| xes(1), one_bit)
    }

    pub fn logical_not(a: &[Bit]) -> Bits {
        truth_bit(truthy(a).map(|t| !t))
    }

    pub fn logical_and(a: &[Bit], b: &[Bit]) -> Bits {
        truth_bit(match (truthy(a), truthy(b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        })
    }

    pub fn logical_or(a: &[Bit], b: &[Bit]) -> Bits {
        truth_bit(match (truthy(a), truthy(b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        })
    }

    pub fn to_u64(a: &[Bit]) -> Option<u64> {
        if !known(a) || a.iter().skip(64).any(|b| *b == One) {
            return None;
        }
        Some(
            a.iter()
                .take(64)
                .enumerate()
                .map(|(i, b)| u64::from(*b == One) << i)
                .sum(),
        )
    }

    fn ripple_add(a: &[Bit], b: &[Bit], w: usize) -> Bits {
        let (a, b) = (resize(a, w), resize(b, w));
        let mut carry = false;
        let mut out = Vec::with_capacity(w);
        for i in 0..w {
            let (x, y) = (a[i] == One, b[i] == One);
            out.push(Bit::from(x ^ y ^ carry));
            carry = (x && y) || (carry && (x ^ y));
        }
        out
    }

    fn one(w: usize) -> Bits {
        resize(&[One], w)
    }

    pub fn add(a: &[Bit], b: &[Bit]) -> Bits {
        let w = a.len().max(b.len());
        if !known(a) || !known(b) {
            return xes(w);
        }
        ripple_add(a, b, w)
    }

    pub fn sub(a: &[Bit], b: &[Bit]) -> Bits {
        let w = a.len().max(b.len());
        if !known(a) || !known(b) {
            return xes(w);
        }
        let neg_b = ripple_add(&not(&resize(b, w)), &one(w), w);
        ripple_add(a, &neg_b, w)
    }

    pub fn neg(a: &[Bit]) -> Bits {
        if !known(a) {
            return xes(a.len());
        }
        ripple_add(&not(a), &one(a.len()), a.len())
    }

    pub fn mul(a: &[Bit], b: &[Bit]) -> Bits {
        let w = a.len().max(b.len());
        if !known(a) || !known(b) {
            return xes(w);
        }
        let a = resize(a, w);
        let mut acc = resize(&[], w);
        for (i, bit) in resize(b, w).iter().enumerate() {
            if *bit == One {
                acc = ripple_add(&acc, &shl_const(&a, i), w);
            }
        }
        acc
    }

    pub fn ucmp(a: &[Bit], b: &[Bit]) -> Ordering {
        let w = a.len().max(b.len());
        let (a, b) = (resize(a, w), resize(b, w));
        for i in (0..w).rev() {
            match (a[i] == One).cmp(&(b[i] == One)) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Restoring division; `None` when either operand has unknowns or the
    /// divisor is zero.
    pub fn udivrem(a: &[Bit], b: &[Bit]) -> Option<(Bits, Bits)> {
        let w = a.len().max(b.len());
        if !known(a) || !known(b) || !b.contains(&One) {
            return None;
        }
        let (a, b) = (resize(a, w), resize(b, w));
        let mut quo = resize(&[], w);
        let mut rem = resize(&[], w);
        for i in (0..w).rev() {
            rem = shl_const(&rem, 1);
            rem[0] = a[i];
            if ucmp(&rem, &b) != Ordering::Less {
                rem = sub(&rem, &b);
                quo[i] = One;
            }
        }
        Some((quo, rem))
    }

    pub fn shl_const(a: &[Bit], n: usize) -> Bits {
        (0..a.len())
            .map(|i| if i >= n { a[i - n] } else { Zero })
            .collect()
    }

    pub fn lshr_const(a: &[Bit], n: usize) -> Bits {
        (0..a.len())
            .map(|i| a.get(i.saturating_add(n)).copied().unwrap_or(Zero))
            .collect()
    }

    pub fn ashr_const(a: &[Bit], n: usize) -> Bits {
        let msb = a[a.len() - 1];
        (0..a.len())
            .map(|i| a.get(i.saturating_add(n)).copied().unwrap_or(msb))
            .collect()
    }

    /// A shift amount: `None` on unknowns, else its value (any width)
    /// saturated at `w`.
    pub fn shift_amount(amount: &[Bit], w: usize) -> Option<usize> {
        if !known(amount) {
            return None;
        }
        let mut value = 0usize;
        for (i, b) in amount.iter().enumerate() {
            if *b == One {
                if i >= 32 {
                    return Some(w);
                }
                value |= 1 << i;
            }
        }
        Some(value.min(w))
    }

    fn shift(a: &[Bit], amount: &[Bit], f: fn(&[Bit], usize) -> Bits) -> Bits {
        shift_amount(amount, a.len()).map_or_else(|| xes(a.len()), |n| f(a, n))
    }

    pub fn shl(a: &[Bit], amount: &[Bit]) -> Bits {
        shift(a, amount, shl_const)
    }

    pub fn lshr(a: &[Bit], amount: &[Bit]) -> Bits {
        shift(a, amount, lshr_const)
    }

    pub fn ashr(a: &[Bit], amount: &[Bit]) -> Bits {
        shift(a, amount, ashr_const)
    }

    pub fn eq_logic(a: &[Bit], b: &[Bit]) -> Bits {
        if !known(a) || !known(b) {
            return xes(1);
        }
        one_bit(ucmp(a, b) == Ordering::Equal)
    }

    pub fn case_eq(a: &[Bit], b: &[Bit]) -> Bits {
        let w = a.len().max(b.len());
        one_bit(resize(a, w) == resize(b, w))
    }

    pub fn ult(a: &[Bit], b: &[Bit]) -> Bits {
        if !known(a) || !known(b) {
            return xes(1);
        }
        one_bit(ucmp(a, b) == Ordering::Less)
    }

    pub fn ule(a: &[Bit], b: &[Bit]) -> Bits {
        if !known(a) || !known(b) {
            return xes(1);
        }
        one_bit(ucmp(a, b) != Ordering::Greater)
    }

    pub fn concat(hi: &[Bit], lo: &[Bit]) -> Bits {
        lo.iter().chain(hi).copied().collect()
    }

    pub fn replicate(a: &[Bit], n: usize) -> Bits {
        a.repeat(n)
    }

    pub fn slice(a: &[Bit], lo: u64, w: u32) -> Bits {
        (0..u64::from(w))
            .map(|i| {
                usize::try_from(lo + i)
                    .ok()
                    .and_then(|j| a.get(j).copied())
                    .unwrap_or(X)
            })
            .collect()
    }

    pub fn select_bit(a: &[Bit], index: &[Bit]) -> Bits {
        match to_u64(index) {
            Some(i) if i < a.len() as u64 => vec![a[i as usize]],
            _ => xes(1),
        }
    }
}

/// Random 4-state vectors in a width range, half of them at one of its
/// edge widths, each with its own unknown density so that arithmetic sees
/// fully known operands as well as poisoned ones.
#[derive(Clone, Copy)]
struct AnyVec {
    /// Inclusive width range.
    widths: (u32, u32),
    /// Widths drawn half of the time.
    edges: &'static [u32],
}

/// Widths 1-200, straddling the word boundaries.
const ANY: AnyVec = AnyVec {
    widths: (1, 200),
    edges: &[63, 64, 65, 127, 128, 129],
};

/// Widths 1-64: one word per plane.
const NARROW: AnyVec = AnyVec {
    widths: (1, 64),
    edges: &[1, 63, 64],
};

/// Widths 65-200: more than one word per plane.
const WIDE: AnyVec = AnyVec {
    widths: (65, 200),
    edges: &[65, 127, 128, 129],
};

impl Strategy for AnyVec {
    type Value = LogicVec;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> LogicVec {
        let (min, max) = self.widths;
        let width = if rng.next_u64() % 2 == 0 {
            self.edges[(rng.next_u64() % self.edges.len() as u64) as usize]
        } else {
            min + (rng.next_u64() % u64::from(max - min + 1)) as u32
        };
        let mode = rng.next_u64() % 5;
        let bits: Vec<Bit> = (0..width)
            .map(|_| {
                let r = rng.next_u64();
                match mode {
                    // Two-state.
                    0 => Bit::from(r & 1 == 1),
                    // Sparse unknowns.
                    1 if r % 24 == 0 => [Bit::X, Bit::Z][(r >> 8) as usize % 2],
                    1 => Bit::from(r & 1 == 1),
                    // Uniform four-state.
                    2 => [Bit::Zero, Bit::One, Bit::X, Bit::Z][(r % 4) as usize],
                    // Mostly ones (long carry chains).
                    3 => Bit::from(r % 16 != 0),
                    // Mostly zeros (small values, zero divisors).
                    _ => Bit::from(r % 16 == 0),
                }
            })
            .collect();
        LogicVec::from_bits(&bits)
    }
}

/// Operand pairs: half with both operands at most 64 bits wide, a quarter
/// with one operand on each side of 64 bits (in either order), a quarter
/// drawn from [`ANY`] alone.
#[derive(Clone, Copy)]
struct AnyPair;

impl Strategy for AnyPair {
    type Value = (LogicVec, LogicVec);

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> (LogicVec, LogicVec) {
        match rng.next_u64() % 4 {
            0 | 1 => (NARROW.generate(rng), NARROW.generate(rng)),
            2 => {
                let (n, w) = (NARROW.generate(rng), WIDE.generate(rng));
                if rng.next_u64() % 2 == 0 {
                    (n, w)
                } else {
                    (w, n)
                }
            }
            _ => (ANY.generate(rng), ANY.generate(rng)),
        }
    }
}

/// The drawn pair, then the explicit mixed pairs `(narrow, wide)` and
/// `(wide, narrow)`.
fn pairs<'a>(
    ab: &'a (LogicVec, LogicVec),
    narrow: &'a LogicVec,
    wide: &'a LogicVec,
) -> [(&'a LogicVec, &'a LogicVec); 3] {
    [(&ab.0, &ab.1), (narrow, wide), (wide, narrow)]
}

fn bits(v: &LogicVec) -> Vec<Bit> {
    v.iter_bits().collect()
}

/// Asserts that `got` holds exactly the reference bits: equal bit by bit
/// and `==` to the canonical value built from them, so stray bits above
/// the width fail too.
fn check(op: &str, got: &LogicVec, want: &[Bit], inputs: &[&LogicVec]) {
    assert_eq!(
        bits(got),
        want,
        "{op} on {inputs:?}: got {got:?}, want {:?}",
        LogicVec::from_bits(want)
    );
    assert_eq!(
        *got,
        LogicVec::from_bits(want),
        "{op} on {inputs:?}: representation"
    );
}

fn hash_of(v: &LogicVec) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bitwise_and_queries_match_reference(
        ab in AnyPair, n in NARROW, wd in WIDE, w in 1u32..=200
    ) {
        for (a, b) in pairs(&ab, &n, &wd) {
            let (ra, rb) = (bits(a), bits(b));
            let ins = [a, b];
            check("and", &a.and(b), &reference::and(&ra, &rb), &ins);
            check("or", &a.or(b), &reference::or(&ra, &rb), &ins);
            check("xor", &a.xor(b), &reference::xor(&ra, &rb), &ins);
            check("x_merge", &a.x_merge(b), &reference::x_merge(&ra, &rb), &ins);
            check("logical_and", &a.logical_and(b), &reference::logical_and(&ra, &rb), &ins);
            check("logical_or", &a.logical_or(b), &reference::logical_or(&ra, &rb), &ins);
        }
        let a = &ab.0;
        let ra = bits(a);
        let ins = [a];
        check("not", &a.not(), &reference::not(&ra), &ins);
        check("casez mask", &a.case_care_mask(false), &reference::care_mask(&ra, false), &ins);
        check("casex mask", &a.case_care_mask(true), &reference::care_mask(&ra, true), &ins);
        check("reduce_and", &a.reduce_and(), &reference::reduce_and(&ra), &ins);
        check("reduce_or", &a.reduce_or(), &reference::reduce_or(&ra), &ins);
        check("reduce_xor", &a.reduce_xor(), &reference::reduce_xor(&ra), &ins);
        check("logical_not", &a.logical_not(), &reference::logical_not(&ra), &ins);
        check("resize", &a.resize(w), &reference::resize(&ra, w as usize), &ins);
        check("sign_extend", &a.sign_extend(w), &reference::sign_extend(&ra, w as usize), &ins);
        prop_assert_eq!(a.truthy(), reference::truthy(&ra));
        prop_assert_eq!(a.to_u64(), reference::to_u64(&ra));
        prop_assert_eq!(a.has_unknown(), !reference::known(&ra));
        prop_assert_eq!(a.is_all_x(), ra.iter().all(|b| *b == Bit::X));
        prop_assert_eq!(a.is_all_zero(), ra.iter().all(|b| *b == Bit::Zero));
        prop_assert_eq!(a.is_all_ones(), ra.iter().all(|b| *b == Bit::One));
        prop_assert_eq!(a.count_ones() as usize, ra.iter().filter(|b| **b == Bit::One).count());
    }

    #[test]
    fn arithmetic_and_comparisons_match_reference(ab in AnyPair, n in NARROW, wd in WIDE) {
        for (a, b) in pairs(&ab, &n, &wd) {
            let (ra, rb) = (bits(a), bits(b));
            let ins = [a, b];
            check("add", &a.add(b), &reference::add(&ra, &rb), &ins);
            check("sub", &a.sub(b), &reference::sub(&ra, &rb), &ins);
            check("neg", &a.neg(), &reference::neg(&ra), &ins);
            check("mul", &a.mul(b), &reference::mul(&ra, &rb), &ins);
            let w = a.width().max(b.width()) as usize;
            let (q, r) = reference::udivrem(&ra, &rb).unwrap_or_else(|| (vec![Bit::X; w], vec![Bit::X; w]));
            check("udiv", &a.udiv(b), &q, &ins);
            check("urem", &a.urem(b), &r, &ins);
            check("eq_logic", &a.eq_logic(b), &reference::eq_logic(&ra, &rb), &ins);
            check("ne_logic", &a.ne_logic(b), &reference::logical_not(&reference::eq_logic(&ra, &rb)), &ins);
            check("case_eq", &a.case_eq(b), &reference::case_eq(&ra, &rb), &ins);
            check("ult", &a.ult(b), &reference::ult(&ra, &rb), &ins);
            check("ule", &a.ule(b), &reference::ule(&ra, &rb), &ins);
            // The same operations on a value against itself and its low bits.
            let low = a.resize(a.width().min(b.width()));
            check("sub self", &a.sub(a), &reference::sub(&ra, &ra), &[a]);
            check("eq low", &a.eq_logic(&low), &reference::eq_logic(&ra, &bits(&low)), &[a, &low]);
            check("ult low", &low.ult(a), &reference::ult(&bits(&low), &ra), &[&low, a]);
        }
    }

    #[test]
    fn shifts_match_reference(
        ab in AnyPair, nv in NARROW, wv in WIDE, n in 0u32..260, amt_w in 1u32..=80
    ) {
        // Small known amounts of any width, the same amount plus a bit
        // above 64, then arbitrary (often huge or unknown) amounts; each
        // shifts the drawn value, a narrow one and a wide one.
        let small = LogicVec::from_u64(amt_w, u64::from(n));
        let above_64 = LogicVec::ones(1).concat(&small.resize(64 + amt_w));
        for a in [&ab.0, &nv, &wv] {
            let ra = bits(a);
            let ins = [a];
            check("shl_const", &a.shl_const(n), &reference::shl_const(&ra, n as usize), &ins);
            check("lshr_const", &a.lshr_const(n), &reference::lshr_const(&ra, n as usize), &ins);
            check("ashr_const", &a.ashr_const(n), &reference::ashr_const(&ra, n as usize), &ins);
            for amount in [&small, &above_64, &ab.1] {
                let ram = bits(amount);
                let ins = [a, amount];
                check("shl", &a.shl(amount), &reference::shl(&ra, &ram), &ins);
                check("lshr", &a.lshr(amount), &reference::lshr(&ra, &ram), &ins);
                check("ashr", &a.ashr(amount), &reference::ashr(&ra, &ram), &ins);
            }
        }
    }

    #[test]
    fn concat_slice_replicate_match_reference(
        ab in AnyPair, nv in NARROW, wv in WIDE, lo in 0u32..300, w in 1u32..=200, n in 1u32..5
    ) {
        for (a, b) in pairs(&ab, &nv, &wv) {
            let (ra, rb) = (bits(a), bits(b));
            let ins = [a, b];
            check("concat", &a.concat(b), &reference::concat(&ra, &rb), &ins);
            check("select_bit x", &a.select_bit(b), &reference::select_bit(&ra, &rb), &ins);
        }
        let a = &ab.0;
        let ra = bits(a);
        let ins = [a];
        check("replicate", &a.replicate(n), &reference::replicate(&ra, n as usize), &ins);
        check("slice", &a.slice(lo, w), &reference::slice(&ra, u64::from(lo), w), &ins);
        let far = u32::MAX - lo;
        check("slice far", &a.slice(far, w), &reference::slice(&ra, u64::from(far), w), &ins);
        let index = LogicVec::from_u64(9, u64::from(lo));
        check("select_bit", &a.select_bit(&index), &reference::select_bit(&ra, &bits(&index)), &ins);
    }

    #[test]
    fn construction_and_bit_access_match_reference(
        a in ANY, i in 0u32..200, v in 0u8..4, x in 0u64..u64::MAX
    ) {
        let ra = bits(&a);
        prop_assert_eq!(LogicVec::from_bits(&ra), a.clone());
        prop_assert_eq!(LogicVec::from_bin_str(&format!("{a:b}")), Some(a.clone()));
        let text: String = ra.iter().rev().map(|b| b.to_string()).collect();
        prop_assert_eq!(format!("{a:b}"), text);
        let i = i % a.width();
        prop_assert_eq!(a.bit(i), ra[i as usize]);
        let bit = [Bit::Zero, Bit::One, Bit::X, Bit::Z][v as usize];
        let mut set = a.clone();
        set.set_bit(i, bit);
        let mut want = ra.clone();
        want[i as usize] = bit;
        check("set_bit", &set, &want, &[&a]);
        let w = a.width();
        for (made, fill) in [
            (LogicVec::zeros(w), Bit::Zero),
            (LogicVec::ones(w), Bit::One),
            (LogicVec::xes(w), Bit::X),
            (LogicVec::zeds(w), Bit::Z),
        ] {
            check("fill", &made, &vec![fill; w as usize], &[]);
        }
        let rx: Vec<Bit> = (0..64).map(|i| Bit::from((x >> i) & 1 == 1)).collect();
        check("from_u64", &LogicVec::from_u64(w, x), &reference::resize(&rx, w as usize), &[]);
    }

    #[test]
    fn equal_values_built_by_different_paths_are_equal_and_hash_equal(a in ANY, w in 1u32..=200) {
        let paths = [
            a.resize(w),
            a.resize(w.max(a.width()) + 70).resize(w),
            a.slice(0, w.min(a.width())).resize(w),
            LogicVec::from_bits(&bits(&a).into_iter().chain(std::iter::repeat(Bit::Zero)).take(w as usize).collect::<Vec<_>>()),
        ];
        for p in &paths[1..] {
            prop_assert_eq!(p, &paths[0]);
            prop_assert_eq!(hash_of(p), hash_of(&paths[0]));
        }
        // A known value narrowed to 8 bits equals the same value from u64.
        if let Some(v) = a.resize(8).to_u64() {
            let direct = LogicVec::from_u64(8, v);
            prop_assert_eq!(&a.resize(8), &direct);
            prop_assert_eq!(hash_of(&a.resize(8)), hash_of(&direct));
        }
    }
}

#[test]
fn wide_value_resized_to_a_byte_equals_from_u64() {
    let wide = LogicVec::ones(36).concat(&LogicVec::from_u64(64, 0xA5));
    assert_eq!(wide.width(), 100);
    let narrow = wide.resize(8);
    let direct = LogicVec::from_u64(8, 0xA5);
    assert_eq!(narrow, direct);
    assert_eq!(hash_of(&narrow), hash_of(&direct));
}
