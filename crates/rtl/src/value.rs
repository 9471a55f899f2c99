//! Four-state logic values with Verilog operator semantics.
//!
//! [`LogicVec`] is the value type used throughout the reproduction: by the
//! RTL interpreter, the waveform writer, the synthesis estimator and (for the
//! concrete half) the concolic engine. Each bit is one of `0`, `1`, `X`
//! (unknown) or `Z` (high impedance), encoded with a value plane and an XZ
//! plane exactly like classic EDA kernels:
//!
//! | `xz` | `val` | meaning |
//! |------|-------|---------|
//! | 0    | 0     | `0`     |
//! | 0    | 1     | `1`     |
//! | 1    | 0     | `X`     |
//! | 1    | 1     | `Z`     |
//!
//! Operator semantics follow IEEE 1364: bitwise operators use the
//! three-valued truth tables (`Z` inputs behave as `X`), arithmetic and
//! relational operators are fully pessimistic (any `X`/`Z` input poisons the
//! whole result), and case-equality (`===`) compares all four states.
//!
//! # Storage
//!
//! Both planes are little-endian 64-bit words. A vector of at most 64 bits
//! keeps its two words inline, so constructing, cloning and operating on
//! it never touches the heap; a wider vector keeps its `val` words followed
//! by its `xz` words in one boxed slice.
//!
//! When every operand and the result fit in one word, each operator and
//! constructor computes the two result planes with straight-line `u64`
//! code: no slice views, no word loop, no separate masking pass. Any wider
//! operand or result takes the multi-word path, the only path for values
//! over 64 bits, which works a word at a time on both planes and
//! zero-extends the narrower operand implicitly.
//!
//! Invariant: bits above `width` are zero in both planes. Every operation
//! relies on it (zero extension, equality, hashing) and restores it by
//! masking the top word.
//!
//! # Examples
//!
//! ```
//! use soccar_rtl::value::LogicVec;
//!
//! let a = LogicVec::from_u64(8, 0xA5);
//! let b = LogicVec::from_u64(8, 0x0F);
//! assert_eq!((a.and(&b)).to_u64(), Some(0x05));
//! assert_eq!(a.add(&b).to_u64(), Some(0xB4));
//!
//! let x = LogicVec::xes(8);
//! assert!(a.add(&x).is_all_x());
//! ```

use std::fmt;

/// A single four-state logic bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bit {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Bit {
    /// Returns `true` for [`Bit::X`] and [`Bit::Z`] (the "unknown" states).
    #[must_use]
    pub fn is_unknown(self) -> bool {
        matches!(self, Bit::X | Bit::Z)
    }

    fn planes(self) -> (bool, bool) {
        match self {
            Bit::Zero => (false, false),
            Bit::One => (false, true),
            Bit::X => (true, false),
            Bit::Z => (true, true),
        }
    }

    fn from_planes(xz: bool, val: bool) -> Bit {
        match (xz, val) {
            (false, false) => Bit::Zero,
            (false, true) => Bit::One,
            (true, false) => Bit::X,
            (true, true) => Bit::Z,
        }
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Bit::Zero => '0',
            Bit::One => '1',
            Bit::X => 'x',
            Bit::Z => 'z',
        };
        write!(f, "{c}")
    }
}

/// A fixed-width vector of four-state logic bits.
///
/// Widths are arbitrary (not limited to 64 bits). All binary operations
/// extend the narrower operand with zeros first, mirroring the unsigned
/// expression semantics used by the synthesizable subset in this
/// reproduction, and produce a result whose width is the maximum operand
/// width (relational and reduction operators produce one bit).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: u32,
    planes: Planes,
}

/// The `val` and `xz` planes, little-endian 64-bit words. The variant is
/// a function of the width alone, so derived equality and hashing compare
/// values, not representations.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Planes {
    /// `width <= 64`: one word per plane, no heap allocation.
    Inline { val: u64, xz: u64 },
    /// `width > 64`: `n` value words followed by `n` XZ words.
    Heap(Box<[u64]>),
}

fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// The valid bits of the top word of a `width`-bit plane.
fn top_mask(width: u32) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        rem => (1u64 << rem) - 1,
    }
}

/// The low `width` bits set, for `width` in `1..=64`.
fn ones_below(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// The low `n` bits set, for `n` up to and past 64.
fn low_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Word `i` of a plane, zero past its end (implicit zero extension).
fn word(words: &[u64], i: usize) -> u64 {
    words.get(i).copied().unwrap_or(0)
}

/// The 64 bits of `words` starting at bit `pos`, zero past the end.
fn extract(words: &[u64], pos: u64) -> u64 {
    let (w, b) = ((pos / 64) as usize, (pos % 64) as u32);
    let lo = word(words, w) >> b;
    if b == 0 {
        lo
    } else {
        lo | (word(words, w.saturating_add(1)) << (64 - b))
    }
}

/// ORs `src` into `dst` starting at bit `offset`; bits past `dst` must be
/// zero in `src`.
fn or_shifted(dst: &mut [u64], src: &[u64], offset: u32) {
    let (ws, bs) = ((offset / 64) as usize, offset % 64);
    for (i, &w) in src.iter().enumerate() {
        dst[i + ws] |= w << bs;
        if bs > 0 {
            if let Some(d) = dst.get_mut(i + ws + 1) {
                *d |= w >> (64 - bs);
            }
        }
    }
}

/// `true` if the two zero-extended planes are equal.
fn words_eq(a: &[u64], b: &[u64]) -> bool {
    (0..a.len().max(b.len())).all(|i| word(a, i) == word(b, i))
}

impl LogicVec {
    /// A vector whose every plane word is `val` / `xz` (top word masked).
    fn filled(width: u32, val: u64, xz: u64) -> LogicVec {
        assert!(width > 0, "LogicVec width must be non-zero");
        if width <= 64 {
            return LogicVec::narrow(width, val, xz);
        }
        let n = words_for(width);
        let mut words = vec![val; 2 * n];
        words[n..].fill(xz);
        let mut v = LogicVec {
            width,
            planes: Planes::Heap(words.into_boxed_slice()),
        };
        v.mask_top();
        v
    }

    /// A vector of `width` in `1..=64` bits from its two planes, truncated
    /// to `width`.
    #[inline]
    fn narrow(width: u32, val: u64, xz: u64) -> LogicVec {
        let mask = ones_below(width);
        LogicVec {
            width,
            planes: Planes::Inline {
                val: val & mask,
                xz: xz & mask,
            },
        }
    }

    /// A one-bit vector.
    fn from_bit(bit: Bit) -> LogicVec {
        let (xz, val) = bit.planes();
        LogicVec::narrow(1, u64::from(val), u64::from(xz))
    }

    /// Both planes `(val, xz)` when the vector fits in one word.
    #[inline]
    fn narrow_planes(&self) -> Option<(u64, u64)> {
        match self.planes {
            Planes::Inline { val, xz } => Some((val, xz)),
            Planes::Heap(_) => None,
        }
    }

    /// The planes `[a_val, a_xz, b_val, b_xz]` of `self` and `other` when
    /// both, and so any result of their maximum width, fit in one word.
    #[inline]
    fn narrow_pair(&self, other: &LogicVec) -> Option<[u64; 4]> {
        match (&self.planes, &other.planes) {
            (Planes::Inline { val: av, xz: ax }, Planes::Inline { val: bv, xz: bx }) => {
                Some([*av, *ax, *bv, *bx])
            }
            _ => None,
        }
    }

    /// Creates an all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zeros(width: u32) -> LogicVec {
        LogicVec::filled(width, 0, 0)
    }

    /// Creates an all-ones vector of the given width.
    ///
    /// This is the register initialization policy of SoCCAR's Algorithm 3
    /// ("we assign all the registers with ones instead of zeros").
    #[must_use]
    pub fn ones(width: u32) -> LogicVec {
        LogicVec::filled(width, u64::MAX, 0)
    }

    /// Creates an all-`X` vector of the given width.
    #[must_use]
    pub fn xes(width: u32) -> LogicVec {
        LogicVec::filled(width, 0, u64::MAX)
    }

    /// Creates an all-`Z` vector of the given width.
    #[must_use]
    pub fn zeds(width: u32) -> LogicVec {
        LogicVec::filled(width, u64::MAX, u64::MAX)
    }

    /// Creates a vector from the low bits of `value`, zero-extended or
    /// truncated to `width`.
    #[must_use]
    pub fn from_u64(width: u32, value: u64) -> LogicVec {
        if (1..=64).contains(&width) {
            return LogicVec::narrow(width, value, 0);
        }
        // Wider: `value` fills the low word, which is not the top one.
        let mut v = LogicVec::zeros(width);
        v.planes_mut().0[0] = value;
        v
    }

    /// Creates a vector of at most 64 bits from its value and x/z planes
    /// (a bit set in both is `Z`, in `xz` alone `X`), truncated to
    /// `width`. Inlined: the lexer builds every literal with it.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or above 64.
    #[inline]
    pub(crate) fn from_planes(width: u32, val: u64, xz: u64) -> LogicVec {
        assert!(
            (1..=64).contains(&width),
            "from_planes takes one word per plane"
        );
        LogicVec::narrow(width, val, xz)
    }

    /// Creates a one-bit vector from a `bool`.
    #[must_use]
    pub fn from_bool(b: bool) -> LogicVec {
        LogicVec::narrow(1, u64::from(b), 0)
    }

    /// Creates a vector from a slice of bits, index 0 being the LSB.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    #[must_use]
    pub fn from_bits(bits: &[Bit]) -> LogicVec {
        assert!(!bits.is_empty(), "from_bits requires at least one bit");
        if bits.len() <= 64 {
            let (mut val, mut xz) = (0, 0);
            for (i, b) in bits.iter().enumerate() {
                let (x, v) = b.planes();
                val |= u64::from(v) << i;
                xz |= u64::from(x) << i;
            }
            return LogicVec::narrow(bits.len() as u32, val, xz);
        }
        let mut v = LogicVec::zeros(bits.len() as u32);
        for (i, b) in bits.iter().enumerate() {
            v.set_bit(i as u32, *b);
        }
        v
    }

    /// Parses a binary string such as `"10x1"` (MSB first) into a vector.
    ///
    /// Underscores are ignored. Returns `None` on empty or invalid input.
    #[must_use]
    pub fn from_bin_str(s: &str) -> Option<LogicVec> {
        let digit = |c: char| match c {
            '0' => Some(Bit::Zero),
            '1' => Some(Bit::One),
            'x' | 'X' => Some(Bit::X),
            'z' | 'Z' | '?' => Some(Bit::Z),
            _ => None,
        };
        let mut width = 0u32;
        for c in s.chars() {
            match digit(c) {
                Some(_) => width += 1,
                None if c == '_' => {}
                None => return None,
            }
        }
        if width == 0 {
            return None;
        }
        let mut v = LogicVec::zeros(width);
        for (i, b) in s.chars().rev().filter_map(digit).enumerate() {
            v.set_bit(i as u32, b);
        }
        Some(v)
    }

    /// The width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The value plane.
    fn val(&self) -> &[u64] {
        match &self.planes {
            Planes::Inline { val, .. } => std::slice::from_ref(val),
            Planes::Heap(words) => &words[..words.len() / 2],
        }
    }

    /// The XZ plane.
    fn xz(&self) -> &[u64] {
        match &self.planes {
            Planes::Inline { xz, .. } => std::slice::from_ref(xz),
            Planes::Heap(words) => &words[words.len() / 2..],
        }
    }

    /// Both planes, mutably: `(val, xz)`.
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.planes {
            Planes::Inline { val, xz } => (std::slice::from_mut(val), std::slice::from_mut(xz)),
            Planes::Heap(words) => {
                let n = words.len() / 2;
                words.split_at_mut(n)
            }
        }
    }

    /// The valid bits of word `i`.
    fn word_mask(&self, i: usize) -> u64 {
        if i + 1 == words_for(self.width) {
            top_mask(self.width)
        } else {
            u64::MAX
        }
    }

    /// Returns the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    #[must_use]
    pub fn bit(&self, index: u32) -> Bit {
        assert!(index < self.width, "bit index {index} out of range");
        let (val, xz) = self.narrow_planes().unwrap_or_else(|| {
            let w = (index / 64) as usize;
            (self.val()[w], self.xz()[w])
        });
        let b = index % 64;
        Bit::from_planes((xz >> b) & 1 == 1, (val >> b) & 1 == 1)
    }

    /// Sets the bit at `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: u32, bit: Bit) {
        assert!(index < self.width, "bit index {index} out of range");
        self.fill_bits(index, index + 1, bit);
    }

    /// Sets every bit in `[from, to)` (clamped to the width) to `bit`.
    fn fill_bits(&mut self, from: u32, to: u32, bit: Bit) {
        let to = to.min(self.width);
        if from >= to {
            return;
        }
        let (bx, bv) = bit.planes();
        let fill = |plane: u64, m: u64, set: bool| if set { plane | m } else { plane & !m };
        if let Planes::Inline { val, xz } = &mut self.planes {
            let m = low_mask(u64::from(to)) & !low_mask(u64::from(from));
            (*val, *xz) = (fill(*val, m, bv), fill(*xz, m, bx));
            return;
        }
        let (val, xz) = self.planes_mut();
        for w in (from / 64) as usize..=((to - 1) / 64) as usize {
            let base = w as u64 * 64;
            let m =
                low_mask(u64::from(to) - base) & !low_mask(u64::from(from).saturating_sub(base));
            (val[w], xz[w]) = (fill(val[w], m, bv), fill(xz[w], m, bx));
        }
    }

    /// Iterates over the bits, LSB first.
    pub fn iter_bits(&self) -> impl Iterator<Item = Bit> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }

    /// `true` if any bit is `X` or `Z`.
    #[must_use]
    pub fn has_unknown(&self) -> bool {
        match self.narrow_planes() {
            Some((_, xz)) => xz != 0,
            None => self.xz().iter().any(|w| *w != 0),
        }
    }

    /// `true` if every bit of `words` within the width is set.
    fn is_full(&self, words: &[u64]) -> bool {
        words
            .iter()
            .enumerate()
            .all(|(i, w)| *w == self.word_mask(i))
    }

    /// `true` if every bit is `X`.
    #[must_use]
    pub fn is_all_x(&self) -> bool {
        match self.narrow_planes() {
            Some((val, xz)) => val == 0 && xz == ones_below(self.width),
            None => self.is_full(self.xz()) && self.val().iter().all(|w| *w == 0),
        }
    }

    /// `true` if every bit is `0` (no unknowns).
    #[must_use]
    pub fn is_all_zero(&self) -> bool {
        match self.narrow_planes() {
            Some((val, xz)) => val | xz == 0,
            None => !self.has_unknown() && self.val().iter().all(|w| *w == 0),
        }
    }

    /// `true` if every bit is `1` (no unknowns).
    #[must_use]
    pub fn is_all_ones(&self) -> bool {
        match self.narrow_planes() {
            Some((val, xz)) => xz == 0 && val == ones_below(self.width),
            None => !self.has_unknown() && self.is_full(self.val()),
        }
    }

    /// Converts to `u64` if the value fits in 64 bits and has no unknowns.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        if let Some((val, xz)) = self.narrow_planes() {
            return (xz == 0).then_some(val);
        }
        if self.has_unknown() || self.val()[1..].iter().any(|w| *w != 0) {
            return None;
        }
        Some(self.val()[0])
    }

    /// Verilog truthiness: `Some(true)` if any bit is `1`, `Some(false)` if
    /// all bits are `0`, `None` if neither (unknowns present, no `1`s).
    #[must_use]
    pub fn truthy(&self) -> Option<bool> {
        // A '1' bit anywhere makes the value true regardless of unknowns.
        let (one, unknown) = match self.narrow_planes() {
            Some((val, xz)) => (val & !xz != 0, xz != 0),
            None => (
                self.val().iter().zip(self.xz()).any(|(v, x)| v & !x != 0),
                self.has_unknown(),
            ),
        };
        if one {
            Some(true)
        } else if unknown {
            None
        } else {
            Some(false)
        }
    }

    /// Zero-extends or truncates to `width`.
    #[must_use]
    pub fn resize(&self, width: u32) -> LogicVec {
        if let (Some((val, xz)), 1..=64) = (self.narrow_planes(), width) {
            return LogicVec::narrow(width, val, xz);
        }
        let mut out = LogicVec::zeros(width);
        let (val, xz) = out.planes_mut();
        let n = val.len().min(self.val().len());
        val[..n].copy_from_slice(&self.val()[..n]);
        xz[..n].copy_from_slice(&self.xz()[..n]);
        out.mask_top();
        out
    }

    /// Sign-extends or truncates to `width` (MSB of `self` is the sign).
    #[must_use]
    pub fn sign_extend(&self, width: u32) -> LogicVec {
        if width <= self.width {
            return self.resize(width);
        }
        let mut out = self.resize(width);
        out.fill_bits(self.width, width, self.bit(self.width - 1));
        out
    }

    fn mask_top(&mut self) {
        let m = top_mask(self.width);
        let (val, xz) = self.planes_mut();
        let top = val.len() - 1;
        val[top] &= m;
        xz[top] &= m;
    }

    /// Combines the zero-extended planes of `self` and `other` word by
    /// word: `f(a_val, a_xz, b_val, b_xz) -> (val, xz)`. Width = max.
    fn zip_words(
        &self,
        other: &LogicVec,
        f: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    ) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some([av, ax, bv, bx]) = self.narrow_pair(other) {
            let (val, xz) = f(av, ax, bv, bx);
            return LogicVec::narrow(width, val, xz);
        }
        let mut out = LogicVec::zeros(width);
        let (val, xz) = out.planes_mut();
        for i in 0..val.len() {
            (val[i], xz[i]) = f(
                word(self.val(), i),
                word(self.xz(), i),
                word(other.val(), i),
                word(other.xz(), i),
            );
        }
        out.mask_top();
        out
    }

    /// Bitwise NOT. `X`/`Z` bits stay `X`.
    #[must_use]
    pub fn not(&self) -> LogicVec {
        if let Some((val, xz)) = self.narrow_planes() {
            return LogicVec::narrow(self.width, !val & !xz, xz);
        }
        let mut out = self.clone();
        let (val, xz) = out.planes_mut();
        for (v, x) in val.iter_mut().zip(xz.iter()) {
            // X/Z both become X: val plane cleared where xz set.
            *v = !*v & !*x;
        }
        out.mask_top();
        out
    }

    /// Bitwise AND with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn and(&self, other: &LogicVec) -> LogicVec {
        self.zip_words(other, |av, ax, bv, bx| {
            let zero = (!av & !ax) | (!bv & !bx);
            let one = av & !ax & bv & !bx;
            (one, !(zero | one))
        })
    }

    /// Bitwise OR with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn or(&self, other: &LogicVec) -> LogicVec {
        self.zip_words(other, |av, ax, bv, bx| {
            let one = (av & !ax) | (bv & !bx);
            let zero = !av & !ax & !bv & !bx;
            (one, !(zero | one))
        })
    }

    /// Bitwise XOR with IEEE 1364 three-valued semantics.
    #[must_use]
    pub fn xor(&self, other: &LogicVec) -> LogicVec {
        self.zip_words(other, |av, ax, bv, bx| {
            let x = ax | bx;
            ((av ^ bv) & !x, x)
        })
    }

    /// The Verilog X-merge of a mux under an unknown condition: bits where
    /// both operands hold the same known value keep it, every other bit is
    /// `X`. Width = max.
    #[must_use]
    pub fn x_merge(&self, other: &LogicVec) -> LogicVec {
        self.zip_words(other, |av, ax, bv, bx| {
            let same = !ax & !bx & !(av ^ bv);
            (av & same, !same)
        })
    }

    /// The care mask of a `casez`/`casex` label: `1` where the label bit
    /// must match, `0` at its wildcard bits — `Z`/`?` bits, and also `X`
    /// bits when `x_is_wildcard` (`casex`).
    #[must_use]
    pub fn case_care_mask(&self, x_is_wildcard: bool) -> LogicVec {
        let wild = |val: u64, xz: u64| if x_is_wildcard { xz } else { xz & val };
        if let Some((val, xz)) = self.narrow_planes() {
            return LogicVec::narrow(self.width, !wild(val, xz), 0);
        }
        let mut out = self.clone();
        let (val, xz) = out.planes_mut();
        for (v, x) in val.iter_mut().zip(xz.iter_mut()) {
            (*v, *x) = (!wild(*v, *x), 0);
        }
        out.mask_top();
        out
    }

    /// Reduction AND (`&v`): one bit.
    #[must_use]
    pub fn reduce_and(&self) -> LogicVec {
        let (any_zero, unknown) = match self.narrow_planes() {
            Some((val, xz)) => (!val & !xz & ones_below(self.width) != 0, xz != 0),
            None => {
                let (val, xz) = (self.val(), self.xz());
                let any_zero = (0..val.len()).any(|i| !val[i] & !xz[i] & self.word_mask(i) != 0);
                (any_zero, self.has_unknown())
            }
        };
        LogicVec::from_bit(if any_zero {
            Bit::Zero
        } else if unknown {
            Bit::X
        } else {
            Bit::One
        })
    }

    /// Reduction OR (`|v`): one bit.
    #[must_use]
    pub fn reduce_or(&self) -> LogicVec {
        let bit = match self.truthy() {
            Some(b) => Bit::from(b),
            None => Bit::X,
        };
        LogicVec::from_bit(bit)
    }

    /// Reduction XOR (`^v`): one bit.
    #[must_use]
    pub fn reduce_xor(&self) -> LogicVec {
        let bit = if self.has_unknown() {
            Bit::X
        } else {
            Bit::from(self.count_ones() % 2 == 1)
        };
        LogicVec::from_bit(bit)
    }

    /// Logical negation (`!v`): one bit.
    #[must_use]
    pub fn logical_not(&self) -> LogicVec {
        match self.truthy() {
            Some(b) => LogicVec::from_bool(!b),
            None => LogicVec::xes(1),
        }
    }

    /// Logical AND (`&&`): one bit.
    #[must_use]
    pub fn logical_and(&self, other: &LogicVec) -> LogicVec {
        match (self.truthy(), other.truthy()) {
            (Some(false), _) | (_, Some(false)) => LogicVec::from_bool(false),
            (Some(true), Some(true)) => LogicVec::from_bool(true),
            _ => LogicVec::xes(1),
        }
    }

    /// Logical OR (`||`): one bit.
    #[must_use]
    pub fn logical_or(&self, other: &LogicVec) -> LogicVec {
        match (self.truthy(), other.truthy()) {
            (Some(true), _) | (_, Some(true)) => LogicVec::from_bool(true),
            (Some(false), Some(false)) => LogicVec::from_bool(false),
            _ => LogicVec::xes(1),
        }
    }

    fn arith_poisoned(&self, other: &LogicVec, width: u32) -> Option<LogicVec> {
        if self.has_unknown() || other.has_unknown() {
            Some(LogicVec::xes(width))
        } else {
            None
        }
    }

    /// Ripple-carries `f(a_word, b_word, carry) -> (word, carry)` over the
    /// zero-extended value planes. Width = max; any unknown poisons.
    fn carry_chain(&self, other: &LogicVec, f: impl Fn(u64, u64, bool) -> (u64, bool)) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if let Some([a, _, b, _]) = self.narrow_pair(other) {
            return LogicVec::narrow(width, f(a, b, false).0, 0);
        }
        let mut out = LogicVec::zeros(width);
        let (val, _) = out.planes_mut();
        let mut carry = false;
        for (i, w) in val.iter_mut().enumerate() {
            (*w, carry) = f(word(self.val(), i), word(other.val(), i), carry);
        }
        out.mask_top();
        out
    }

    /// Addition, result width = max operand width, carry-out discarded.
    /// Any unknown input bit makes the whole result `X` (IEEE 1364).
    #[must_use]
    pub fn add(&self, other: &LogicVec) -> LogicVec {
        self.carry_chain(other, |a, b, carry| {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            (s2, c1 || c2)
        })
    }

    /// Subtraction (`self - other`), two's complement, width = max.
    #[must_use]
    pub fn sub(&self, other: &LogicVec) -> LogicVec {
        self.carry_chain(other, |a, b, borrow| {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            (d2, b1 || b2)
        })
    }

    /// Two's-complement negation.
    #[must_use]
    pub fn neg(&self) -> LogicVec {
        LogicVec::zeros(self.width).sub(self)
    }

    /// Multiplication, result width = max operand width (truncated).
    #[must_use]
    pub fn mul(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if let Some([a, _, b, _]) = self.narrow_pair(other) {
            return LogicVec::narrow(width, a.wrapping_mul(b), 0);
        }
        let mut out = LogicVec::zeros(width);
        let (acc, _) = out.planes_mut();
        let n = acc.len();
        for i in 0..n {
            let a = u128::from(word(self.val(), i));
            let mut carry = 0u128;
            for j in 0..n - i {
                let cur = u128::from(acc[i + j]) + a * u128::from(word(other.val(), j)) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        out.mask_top();
        out
    }

    /// Unsigned division; division by zero yields all-`X` (IEEE 1364).
    #[must_use]
    pub fn udiv(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if other.is_all_zero() {
            return LogicVec::xes(width);
        }
        self.udivrem(other).0
    }

    /// Unsigned remainder; modulo zero yields all-`X` (IEEE 1364).
    #[must_use]
    pub fn urem(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(p) = self.arith_poisoned(other, width) {
            return p;
        }
        if other.is_all_zero() {
            return LogicVec::xes(width);
        }
        self.udivrem(other).1
    }

    /// Quotient and remainder of two-state operands, `other` non-zero;
    /// width = max. Restoring division above 64 bits.
    fn udivrem(&self, other: &LogicVec) -> (LogicVec, LogicVec) {
        let width = self.width.max(other.width);
        if let Some([a, _, b, _]) = self.narrow_pair(other) {
            return (
                LogicVec::narrow(width, a / b, 0),
                LogicVec::narrow(width, a % b, 0),
            );
        }
        let mut quo = LogicVec::zeros(width);
        let mut rem = LogicVec::zeros(width);
        for i in (0..width).rev() {
            rem = rem.shl_const(1);
            if i < self.width {
                rem.set_bit(0, self.bit(i));
            }
            if rem.ucmp(other) != std::cmp::Ordering::Less {
                rem = rem.sub(other);
                quo.set_bit(i, Bit::One);
            }
        }
        (quo, rem)
    }

    /// Unsigned comparison of the zero-extended value planes (callers
    /// rule out unknowns first).
    fn ucmp(&self, other: &LogicVec) -> std::cmp::Ordering {
        if let Some([a, _, b, _]) = self.narrow_pair(other) {
            return a.cmp(&b);
        }
        let (a, b) = (self.val(), other.val());
        (0..a.len().max(b.len()))
            .rev()
            .map(|i| word(a, i).cmp(&word(b, i)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// Logical shift left by a constant amount; result keeps `self`'s width.
    #[must_use]
    pub fn shl_const(&self, amount: u32) -> LogicVec {
        if amount >= self.width {
            return LogicVec::zeros(self.width);
        }
        if let Some((val, xz)) = self.narrow_planes() {
            return LogicVec::narrow(self.width, val << amount, xz << amount);
        }
        let mut out = LogicVec::zeros(self.width);
        let (ws, bs) = ((amount / 64) as usize, amount % 64);
        let (val, xz) = out.planes_mut();
        for (dst, src) in [(val, self.val()), (xz, self.xz())] {
            for i in ws..dst.len() {
                let carry = if bs > 0 && i > ws {
                    src[i - ws - 1] >> (64 - bs)
                } else {
                    0
                };
                dst[i] = (src[i - ws] << bs) | carry;
            }
        }
        out.mask_top();
        out
    }

    /// Logical shift right by a constant amount; result keeps `self`'s width.
    #[must_use]
    pub fn lshr_const(&self, amount: u32) -> LogicVec {
        self.bits_from(amount, self.width)
    }

    /// Arithmetic shift right by a constant amount (sign bit replicated).
    #[must_use]
    pub fn ashr_const(&self, amount: u32) -> LogicVec {
        let mut out = self.lshr_const(amount);
        out.fill_bits(
            self.width.saturating_sub(amount),
            self.width,
            self.bit(self.width - 1),
        );
        out
    }

    /// The effective amount of a shift by `amount`: `None` if it has
    /// unknown bits, else its value saturated at `self`'s width (the
    /// amount may be wider than 64 bits).
    fn shift_amount(&self, amount: &LogicVec) -> Option<u32> {
        if let Some((val, xz)) = amount.narrow_planes() {
            return (xz == 0).then(|| val.min(u64::from(self.width)) as u32);
        }
        if amount.has_unknown() {
            return None;
        }
        let words = amount.val();
        if words[1..].iter().any(|w| *w != 0) {
            return Some(self.width);
        }
        Some(words[0].min(u64::from(self.width)) as u32)
    }

    /// Logical shift left by a (possibly unknown) vector amount.
    #[must_use]
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        match self.shift_amount(amount) {
            Some(a) => self.shl_const(a),
            None => LogicVec::xes(self.width),
        }
    }

    /// Logical shift right by a (possibly unknown) vector amount.
    #[must_use]
    pub fn lshr(&self, amount: &LogicVec) -> LogicVec {
        match self.shift_amount(amount) {
            Some(a) => self.lshr_const(a),
            None => LogicVec::xes(self.width),
        }
    }

    /// Arithmetic shift right by a (possibly unknown) vector amount.
    #[must_use]
    pub fn ashr(&self, amount: &LogicVec) -> LogicVec {
        match self.shift_amount(amount) {
            Some(a) => self.ashr_const(a),
            None => LogicVec::xes(self.width),
        }
    }

    /// Logical equality (`==`): one bit, `X` if any input bit is unknown.
    #[must_use]
    pub fn eq_logic(&self, other: &LogicVec) -> LogicVec {
        if let Some([av, ax, bv, bx]) = self.narrow_pair(other) {
            return if ax | bx != 0 {
                LogicVec::xes(1)
            } else {
                LogicVec::from_bool(av == bv)
            };
        }
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(words_eq(self.val(), other.val()))
    }

    /// Logical inequality (`!=`).
    #[must_use]
    pub fn ne_logic(&self, other: &LogicVec) -> LogicVec {
        if let Some([av, ax, bv, bx]) = self.narrow_pair(other) {
            return if ax | bx != 0 {
                LogicVec::xes(1)
            } else {
                LogicVec::from_bool(av != bv)
            };
        }
        self.eq_logic(other).logical_not()
    }

    /// Case equality (`===`): compares all four states, always 0 or 1.
    #[must_use]
    pub fn case_eq(&self, other: &LogicVec) -> LogicVec {
        if let Some([av, ax, bv, bx]) = self.narrow_pair(other) {
            return LogicVec::from_bool(av == bv && ax == bx);
        }
        LogicVec::from_bool(words_eq(self.val(), other.val()) && words_eq(self.xz(), other.xz()))
    }

    /// Unsigned less-than (`<`): one bit, `X` on unknowns.
    #[must_use]
    pub fn ult(&self, other: &LogicVec) -> LogicVec {
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(self.ucmp(other).is_lt())
    }

    /// Unsigned less-or-equal (`<=` as comparison).
    #[must_use]
    pub fn ule(&self, other: &LogicVec) -> LogicVec {
        if self.has_unknown() || other.has_unknown() {
            return LogicVec::xes(1);
        }
        LogicVec::from_bool(self.ucmp(other).is_le())
    }

    /// Concatenation: `self` becomes the *high* part (Verilog `{self, low}`).
    #[must_use]
    pub fn concat(&self, low: &LogicVec) -> LogicVec {
        let width = self.width + low.width;
        if let (Some([hv, hx, lv, lx]), true) = (self.narrow_pair(low), width <= 64) {
            let shift = low.width;
            return LogicVec::narrow(width, hv << shift | lv, hx << shift | lx);
        }
        let mut out = low.resize(width);
        let (val, xz) = out.planes_mut();
        or_shifted(val, self.val(), low.width);
        or_shifted(xz, self.xz(), low.width);
        out
    }

    /// Replication: `{count{self}}`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn replicate(&self, count: u32) -> LogicVec {
        assert!(count > 0, "replication count must be non-zero");
        let width = self.width * count;
        if let (Some((val, xz)), true) = (self.narrow_planes(), width <= 64) {
            let (mut v, mut x) = (0, 0);
            for k in 0..count {
                v |= val << (k * self.width);
                x |= xz << (k * self.width);
            }
            return LogicVec::narrow(width, v, x);
        }
        let mut out = LogicVec::zeros(width);
        let (val, xz) = out.planes_mut();
        for k in 0..count {
            or_shifted(val, self.val(), k * self.width);
            or_shifted(xz, self.xz(), k * self.width);
        }
        out
    }

    /// Extracts bits `[lo .. lo+width)`; bits beyond `self` read as `X`
    /// (out-of-range part-selects yield `X` in Verilog).
    #[must_use]
    pub fn slice(&self, lo: u32, width: u32) -> LogicVec {
        let mut out = self.bits_from(lo, width);
        out.fill_bits(self.width.saturating_sub(lo), width, Bit::X);
        out
    }

    /// Bits `[lo .. lo+width)` of both planes, zero past `self`.
    fn bits_from(&self, lo: u32, width: u32) -> LogicVec {
        if let (Some((val, xz)), 1..=64) = (self.narrow_planes(), width) {
            let shr = |plane: u64| plane.checked_shr(lo).unwrap_or(0);
            return LogicVec::narrow(width, shr(val), shr(xz));
        }
        let mut out = LogicVec::zeros(width);
        let (val, xz) = out.planes_mut();
        for (dst, src) in [(val, self.val()), (xz, self.xz())] {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = extract(src, u64::from(lo) + 64 * i as u64);
            }
        }
        out.mask_top();
        out
    }

    /// Dynamic bit-select; an unknown index yields `X` (IEEE 1364).
    #[must_use]
    pub fn select_bit(&self, index: &LogicVec) -> LogicVec {
        match index.to_u64() {
            Some(i) if i < u64::from(self.width) => LogicVec::from_bit(self.bit(i as u32)),
            _ => LogicVec::xes(1),
        }
    }

    /// Counts `1` bits (unknown bits count as zero).
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        if let Some((val, xz)) = self.narrow_planes() {
            return (val & !xz).count_ones();
        }
        self.val()
            .iter()
            .zip(self.xz())
            .map(|(v, x)| (v & !x).count_ones())
            .sum()
    }
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.to_u64() {
            write!(f, "{}'h{:x}", self.width, v)
        } else {
            write!(f, "{self:?}")
        }
    }
}

impl fmt::LowerHex for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width.div_ceil(4)).rev() {
            let nib = self.slice(i * 4, 4.min(self.width - i * 4));
            match nib.to_u64() {
                Some(v) => write!(f, "{v:x}")?,
                None => write!(f, "{}", if nib.is_all_x() { 'x' } else { 'X' })?,
            }
        }
        Ok(())
    }
}

impl fmt::Binary for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = LogicVec::from_u64(8, 0xA5);
        assert_eq!(v.width(), 8);
        assert_eq!(v.bit(0), Bit::One);
        assert_eq!(v.bit(1), Bit::Zero);
        assert_eq!(v.bit(7), Bit::One);
        assert_eq!(v.to_u64(), Some(0xA5));
    }

    #[test]
    fn ones_and_xes() {
        assert!(LogicVec::ones(70).is_all_ones());
        assert!(LogicVec::xes(70).is_all_x());
        assert!(LogicVec::zeros(70).is_all_zero());
        assert_eq!(LogicVec::ones(70).to_u64(), None);
    }

    #[test]
    #[should_panic(expected = "width must be non-zero")]
    fn zero_width_panics() {
        let _ = LogicVec::zeros(0);
    }

    #[test]
    fn from_bin_str_roundtrip() {
        let v = LogicVec::from_bin_str("10x1_z0").expect("parse");
        assert_eq!(v.width(), 6);
        assert_eq!(v.bit(0), Bit::Zero);
        assert_eq!(v.bit(1), Bit::Z);
        assert_eq!(v.bit(2), Bit::One);
        assert_eq!(v.bit(3), Bit::X);
        assert_eq!(v.bit(5), Bit::One);
        assert_eq!(format!("{v:b}"), "10x1z0");
        assert!(LogicVec::from_bin_str("").is_none());
        assert!(LogicVec::from_bin_str("12").is_none());
    }

    #[test]
    fn bitwise_truth_tables() {
        let zero = LogicVec::zeros(1);
        let one = LogicVec::ones(1);
        let x = LogicVec::xes(1);
        let z = LogicVec::zeds(1);
        // AND: 0 dominates.
        assert!(zero.and(&x).is_all_zero());
        assert!(x.and(&zero).is_all_zero());
        assert!(one.and(&x).is_all_x());
        assert!(z.and(&one).is_all_x());
        assert!(one.and(&one).is_all_ones());
        // OR: 1 dominates.
        assert!(one.or(&x).is_all_ones());
        assert!(x.or(&one).is_all_ones());
        assert!(zero.or(&x).is_all_x());
        assert!(zero.or(&zero).is_all_zero());
        // XOR: any unknown poisons.
        assert!(one.xor(&x).is_all_x());
        assert!(one.xor(&zero).is_all_ones());
        assert!(one.xor(&one).is_all_zero());
    }

    #[test]
    fn not_maps_z_to_x() {
        let v = LogicVec::from_bin_str("01xz").expect("parse");
        assert_eq!(format!("{:b}", v.not()), "10xx");
    }

    #[test]
    fn arithmetic_known() {
        let a = LogicVec::from_u64(16, 300);
        let b = LogicVec::from_u64(16, 77);
        assert_eq!(a.add(&b).to_u64(), Some(377));
        assert_eq!(a.sub(&b).to_u64(), Some(223));
        assert_eq!(b.sub(&a).to_u64(), Some((77u64.wrapping_sub(300)) & 0xFFFF));
        assert_eq!(a.mul(&b).to_u64(), Some(300 * 77));
        assert_eq!(a.udiv(&b).to_u64(), Some(300 / 77));
        assert_eq!(a.urem(&b).to_u64(), Some(300 % 77));
    }

    #[test]
    fn arithmetic_overflow_wraps() {
        let a = LogicVec::from_u64(8, 0xFF);
        let b = LogicVec::from_u64(8, 2);
        assert_eq!(a.add(&b).to_u64(), Some(1));
        assert_eq!(a.mul(&b).to_u64(), Some(0xFE));
    }

    #[test]
    fn wide_arithmetic() {
        let a = LogicVec::ones(128);
        let one = LogicVec::from_u64(128, 1);
        assert!(a.add(&one).is_all_zero());
        let b = a.sub(&one);
        assert_eq!(b.bit(0), Bit::Zero);
        assert_eq!(b.bit(127), Bit::One);
    }

    #[test]
    fn arithmetic_poisoned_by_x() {
        let a = LogicVec::from_u64(8, 5);
        let mut b = LogicVec::from_u64(8, 3);
        b.set_bit(2, Bit::X);
        assert!(a.add(&b).is_all_x());
        assert!(a.mul(&b).is_all_x());
        assert!(a.sub(&b).is_all_x());
        assert!(b.neg().is_all_x());
    }

    #[test]
    fn division_by_zero_is_x() {
        let a = LogicVec::from_u64(8, 5);
        let z = LogicVec::zeros(8);
        assert!(a.udiv(&z).is_all_x());
        assert!(a.urem(&z).is_all_x());
    }

    #[test]
    fn shifts() {
        let a = LogicVec::from_u64(8, 0b1001_0110);
        assert_eq!(a.shl_const(2).to_u64(), Some(0b0101_1000));
        assert_eq!(a.lshr_const(2).to_u64(), Some(0b0010_0101));
        assert_eq!(a.ashr_const(2).to_u64(), Some(0b1110_0101));
        assert_eq!(a.shl(&LogicVec::from_u64(4, 9)).to_u64(), Some(0));
        assert!(a.shl(&LogicVec::xes(3)).is_all_x());
    }

    #[test]
    fn shift_by_a_known_amount_wider_than_64_bits() {
        // 70'h20_0000_0000_0000_0000 = 2^69: known, so no X.
        let amount = LogicVec::from_u64(1, 1).concat(&LogicVec::zeros(69));
        let a = LogicVec::from_u64(8, 0xFF);
        assert_eq!(a.shl(&amount).to_u64(), Some(0));
        assert_eq!(a.lshr(&amount).to_u64(), Some(0));
        assert_eq!(a.ashr(&amount).to_u64(), Some(0xFF));
        assert_eq!(LogicVec::from_u64(8, 0x7F).ashr(&amount).to_u64(), Some(0));
        // An unknown bit anywhere in the amount still reads all-X.
        let mut unknown = amount.clone();
        unknown.set_bit(3, Bit::X);
        assert!(a.shl(&unknown).is_all_x());
        assert!(a.ashr(&unknown).is_all_x());
    }

    #[test]
    fn wide_shifts_cross_word_boundaries() {
        let v = LogicVec::from_u64(130, 0x8000_0000_0000_0001);
        let s = v.shl_const(65);
        assert_eq!(s.bit(65), Bit::One);
        assert_eq!(s.bit(128), Bit::One);
        assert_eq!(s.lshr_const(65), v);
        let top = LogicVec::ones(1).concat(&LogicVec::zeros(129));
        assert!(top.ashr_const(129).is_all_ones());
    }

    #[test]
    fn x_merge_keeps_agreeing_known_bits() {
        let t = LogicVec::from_bin_str("1010z").expect("parse");
        let e = LogicVec::from_bin_str("10010").expect("parse");
        assert_eq!(format!("{:b}", t.x_merge(&e)), "10xxx");
    }

    #[test]
    fn case_care_masks() {
        let label = LogicVec::from_bin_str("1x0z").expect("parse");
        assert_eq!(label.case_care_mask(false).to_u64(), Some(0b1110));
        assert_eq!(label.case_care_mask(true).to_u64(), Some(0b1010));
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 7);
        assert!(a.ult(&b).is_all_ones());
        assert!(b.ult(&a).is_all_zero());
        assert!(a.ule(&a).is_all_ones());
        assert!(a.eq_logic(&a).is_all_ones());
        assert!(a.ne_logic(&b).is_all_ones());
        let x = LogicVec::xes(8);
        assert!(a.eq_logic(&x).is_all_x());
        assert!(a.ult(&x).is_all_x());
    }

    #[test]
    fn comparison_mixed_width_zero_extends() {
        let a = LogicVec::from_u64(4, 0xF);
        let b = LogicVec::from_u64(8, 0x0F);
        assert!(a.eq_logic(&b).is_all_ones());
        let c = LogicVec::from_u64(8, 0x1F);
        assert!(a.ult(&c).is_all_ones());
    }

    #[test]
    fn case_equality_sees_four_states() {
        let x = LogicVec::xes(4);
        assert!(x.case_eq(&x).is_all_ones());
        assert!(x.case_eq(&LogicVec::zeds(4)).is_all_zero());
        let a = LogicVec::from_u64(4, 3);
        assert!(a.case_eq(&x).is_all_zero());
    }

    #[test]
    fn concat_replicate_slice() {
        let hi = LogicVec::from_u64(4, 0xA);
        let lo = LogicVec::from_u64(4, 0x5);
        let v = hi.concat(&lo);
        assert_eq!(v.to_u64(), Some(0xA5));
        assert_eq!(lo.replicate(3).to_u64(), Some(0x555));
        assert_eq!(v.slice(4, 4).to_u64(), Some(0xA));
        assert_eq!(v.slice(0, 4).to_u64(), Some(0x5));
        // Out-of-range slice bits read X.
        assert!(v.slice(6, 4).has_unknown());
    }

    #[test]
    fn select_bit_dynamic() {
        let v = LogicVec::from_u64(8, 0b0000_0100);
        assert!(v.select_bit(&LogicVec::from_u64(3, 2)).is_all_ones());
        assert!(v.select_bit(&LogicVec::from_u64(3, 3)).is_all_zero());
        assert!(v.select_bit(&LogicVec::xes(3)).is_all_x());
        assert!(v.select_bit(&LogicVec::from_u64(8, 200)).is_all_x());
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::from_u64(4, 0).truthy(), Some(false));
        assert_eq!(LogicVec::from_u64(4, 2).truthy(), Some(true));
        assert_eq!(LogicVec::xes(4).truthy(), None);
        // A 1 anywhere wins even with Xs around.
        let mut v = LogicVec::xes(4);
        v.set_bit(1, Bit::One);
        assert_eq!(v.truthy(), Some(true));
    }

    #[test]
    fn logical_ops() {
        let t = LogicVec::from_u64(4, 3);
        let f = LogicVec::zeros(4);
        let x = LogicVec::xes(4);
        assert!(t.logical_and(&t).is_all_ones());
        assert!(t.logical_and(&f).is_all_zero());
        assert!(f.logical_and(&x).is_all_zero());
        assert!(t.logical_and(&x).is_all_x());
        assert!(t.logical_or(&x).is_all_ones());
        assert!(f.logical_or(&f).is_all_zero());
        assert!(f.logical_or(&x).is_all_x());
        assert!(t.logical_not().is_all_zero());
        assert!(f.logical_not().is_all_ones());
        assert!(x.logical_not().is_all_x());
    }

    #[test]
    fn reductions() {
        assert!(LogicVec::ones(5).reduce_and().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b11101).reduce_and().is_all_zero());
        assert!(LogicVec::zeros(5).reduce_or().is_all_zero());
        assert!(LogicVec::from_u64(5, 0b00100).reduce_or().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b00111).reduce_xor().is_all_ones());
        assert!(LogicVec::from_u64(5, 0b00110).reduce_xor().is_all_zero());
        assert!(LogicVec::xes(2).reduce_xor().is_all_x());
        // 0 dominates reduce_and even with X present.
        let mut v = LogicVec::xes(4);
        v.set_bit(0, Bit::Zero);
        assert!(v.reduce_and().is_all_zero());
    }

    #[test]
    fn resize_and_sign_extend() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.resize(8).to_u64(), Some(0b0000_1010));
        assert_eq!(v.sign_extend(8).to_u64(), Some(0b1111_1010));
        assert_eq!(v.resize(2).to_u64(), Some(0b10));
        let x = LogicVec::xes(4);
        assert_eq!(x.resize(8).slice(4, 4).to_u64(), Some(0));
    }

    #[test]
    fn display_formats() {
        let v = LogicVec::from_u64(12, 0xABC);
        assert_eq!(format!("{v}"), "12'habc");
        assert_eq!(format!("{v:x}"), "abc");
        let x = LogicVec::from_bin_str("1x0z").expect("parse");
        assert_eq!(format!("{x:b}"), "1x0z");
        assert_eq!(format!("{x:?}"), "4'b1x0z");
    }

    #[test]
    fn count_ones_ignores_unknowns() {
        let v = LogicVec::from_bin_str("1x1z1").expect("parse");
        assert_eq!(v.count_ones(), 3);
    }
}
