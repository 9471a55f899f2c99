//! Allocation guard: every `LogicVec` constructor and operation on values
//! of at most 64 bits must run without touching the heap, and so must
//! lexing a token that carries no text; parsing the x10 stress design
//! stays within a pinned allocation count.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on parallel threads), and each checked expression
//! must leave the calling thread's tally unchanged. Operands are built
//! before the counted region; only the operation itself is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;

use soccar_rtl::lexer::Lexer;
use soccar_rtl::span::FileId;
use soccar_rtl::token::TokenKind;
use soccar_rtl::value::{Bit, LogicVec};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during thread teardown are not an error.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers every call to `System`; the only addition is a
// thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Asserts that evaluating `$e` performs no heap allocation on this thread.
macro_rules! assert_alloc_free {
    ($e:expr) => {{
        let before = allocations();
        let out = black_box($e);
        let n = allocations() - before;
        assert_eq!(n, 0, "`{}` allocated {n} time(s)", stringify!($e));
        out
    }};
}

/// Discards formatted output without allocating.
struct Discard;

impl std::fmt::Write for Discard {
    fn write_str(&mut self, _: &str) -> std::fmt::Result {
        Ok(())
    }
}

/// Hashes without allocating.
struct Sum(u64);

impl Hasher for Sum {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.wrapping_mul(31).wrapping_add(u64::from(*b));
        }
    }
}

const WIDTHS: [u32; 6] = [1, 7, 32, 33, 63, 64];

/// A 4-state value of `width` bits with a mix of 0, 1, X and Z.
fn mixed(width: u32) -> LogicVec {
    let mut v = LogicVec::from_u64(width, 0xA5C3_0F96_5A3C_F069);
    for i in (0..width).step_by(5) {
        v.set_bit(i, if i % 2 == 0 { Bit::X } else { Bit::Z });
    }
    v
}

#[test]
fn constructors_do_not_allocate() {
    let bits = [Bit::One, Bit::Zero, Bit::X, Bit::Z, Bit::One];
    let text = String::from("10x1_z0?");
    for w in WIDTHS {
        assert_alloc_free!(LogicVec::zeros(w));
        assert_alloc_free!(LogicVec::ones(w));
        assert_alloc_free!(LogicVec::xes(w));
        assert_alloc_free!(LogicVec::zeds(w));
        assert_alloc_free!(LogicVec::from_u64(w, 0xDEAD_BEEF));
    }
    assert_alloc_free!(LogicVec::from_bool(true));
    assert_alloc_free!(LogicVec::from_bits(&bits));
    assert_alloc_free!(LogicVec::from_bin_str(&text));
    assert_alloc_free!(LogicVec::from_bin_str("12"));
}

#[test]
fn queries_and_bit_access_do_not_allocate() {
    for w in WIDTHS {
        let a = mixed(w);
        let k = LogicVec::from_u64(w, 0x1234_5678_9ABC_DEF0);
        let mut m = assert_alloc_free!(a.clone());
        assert_alloc_free!(m.set_bit(w - 1, Bit::Z));
        assert_alloc_free!(m.bit(0));
        assert_alloc_free!(a.width());
        assert_alloc_free!(a.iter_bits().filter(|b| b.is_unknown()).count());
        assert_alloc_free!(a.has_unknown());
        assert_alloc_free!(a.is_all_x());
        assert_alloc_free!(a.is_all_zero());
        assert_alloc_free!(a.is_all_ones());
        assert_alloc_free!(k.to_u64());
        assert_alloc_free!(a.truthy());
        assert_alloc_free!(a.count_ones());
        assert_alloc_free!(a == k);
        assert_alloc_free!({
            let mut h = Sum(0);
            a.hash(&mut h);
            h.finish()
        });
        assert_alloc_free!(write!(Discard, "{a:?} {a} {a:x} {a:b} {k} {k:x}")).expect("discarded");
    }
}

#[test]
fn bitwise_and_logical_ops_do_not_allocate() {
    for wa in WIDTHS {
        for wb in WIDTHS {
            let (a, b) = (mixed(wa), LogicVec::from_u64(wb, 0x0FF0_F00F_3C3C_C3C3));
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_alloc_free!(x.and(y));
                assert_alloc_free!(x.or(y));
                assert_alloc_free!(x.xor(y));
                assert_alloc_free!(x.x_merge(y));
                assert_alloc_free!(x.logical_and(y));
                assert_alloc_free!(x.logical_or(y));
            }
            assert_alloc_free!(a.not());
            assert_alloc_free!(a.case_care_mask(false));
            assert_alloc_free!(a.case_care_mask(true));
            assert_alloc_free!(a.reduce_and());
            assert_alloc_free!(a.reduce_or());
            assert_alloc_free!(a.reduce_xor());
            assert_alloc_free!(a.logical_not());
        }
    }
}

#[test]
fn arithmetic_and_comparisons_do_not_allocate() {
    for wa in WIDTHS {
        for wb in WIDTHS {
            let a = LogicVec::from_u64(wa, 0xFEDC_BA98_7654_3210);
            let b = LogicVec::from_u64(wb, 0x0000_0000_0013_0007);
            let x = mixed(wb);
            for (p, q) in [(&a, &b), (&b, &a), (&a, &x)] {
                assert_alloc_free!(p.add(q));
                assert_alloc_free!(p.sub(q));
                assert_alloc_free!(p.mul(q));
                assert_alloc_free!(p.udiv(q));
                assert_alloc_free!(p.urem(q));
                assert_alloc_free!(p.eq_logic(q));
                assert_alloc_free!(p.ne_logic(q));
                assert_alloc_free!(p.case_eq(q));
                assert_alloc_free!(p.ult(q));
                assert_alloc_free!(p.ule(q));
            }
            assert_alloc_free!(a.neg());
            assert_alloc_free!(a.udiv(&LogicVec::zeros(wb)));
        }
    }
}

#[test]
fn shifts_do_not_allocate() {
    // A known amount wider than 64 bits is itself heap-backed, but
    // shifting a narrow value by it must not allocate.
    let huge = LogicVec::ones(1).concat(&LogicVec::zeros(69));
    for w in WIDTHS {
        let a = mixed(w);
        for n in [0, 1, w / 2, w - 1, w, w + 3, 200] {
            let amount = LogicVec::from_u64(9, u64::from(n));
            assert_alloc_free!(a.shl_const(n));
            assert_alloc_free!(a.lshr_const(n));
            assert_alloc_free!(a.ashr_const(n));
            assert_alloc_free!(a.shl(&amount));
            assert_alloc_free!(a.lshr(&amount));
            assert_alloc_free!(a.ashr(&amount));
        }
        assert_alloc_free!(a.shl(&huge));
        assert_alloc_free!(a.ashr(&huge));
        assert_alloc_free!(a.lshr(&LogicVec::xes(4)));
    }
}

#[test]
fn width_changing_ops_do_not_allocate() {
    for w in WIDTHS {
        let a = mixed(w);
        for to in WIDTHS {
            assert_alloc_free!(a.resize(to));
            assert_alloc_free!(a.sign_extend(to));
            assert_alloc_free!(a.slice(w / 3, to));
            assert_alloc_free!(a.slice(u32::MAX - 2, to));
            if w + to <= 64 {
                assert_alloc_free!(a.concat(&mixed(to)));
            }
        }
        for count in 1..=64 / w {
            assert_alloc_free!(a.replicate(count));
        }
        assert_alloc_free!(a.select_bit(&LogicVec::from_u64(7, u64::from(w / 2))));
        assert_alloc_free!(a.select_bit(&LogicVec::xes(7)));
    }
}

#[test]
fn streaming_tokens_without_text_does_not_allocate() {
    // Punctuation, keywords, literals of at most 64 bits and trivia:
    // only identifiers, system names, strings and wider literals own
    // heap memory.
    let source = "module always begin end if else case casez endcase posedge negedge or \
        ( ) [ ] { } ; , : . # @ ? = <= >= < > == != === !== + - * / % & && | || ^ ~ ~^ ! \
        << >> >>> ** +: -: 0 42 1_000 18446744073709551615 8'hA5 4'b1x0z 'd12 12'sd5 8'bx \
        4 'b1010 16'o7_7_7 64'hFFFF_FFFF_FFFF_FFFF 64'hxz?0 // line comment
        /* block comment */ `timescale 1ns/1ps
        endmodule";
    let mut lexer = Lexer::new(FileId(0), source);
    let mut tokens = 0;
    loop {
        let token = assert_alloc_free!(lexer.next_token()).expect("lexes");
        tokens += 1;
        if token.kind == TokenKind::Eof {
            break;
        }
    }
    assert_eq!(tokens, 68);
}

/// The most allocations parsing `gen:11:15` (312 KB, 71,774 tokens) may
/// make: 29,252 measured, plus about 10%. Each identifier's text is
/// allocated once, by the lexer, and moves into the tree.
const X10_PARSE_ALLOCATIONS: u64 = 32_200;

#[test]
fn parsing_the_x10_design_stays_within_its_allocations() {
    let spec = soccar_soc::GenSpec::parse("gen:11:15").expect("spec");
    let source = soccar_soc::generate::generate(&spec).source;
    let before = allocations();
    let unit = soccar_rtl::parser::parse(FileId(0), &source).expect("parses");
    let n = allocations() - before;
    assert_eq!(unit.modules.len(), 169);
    assert!(
        n <= X10_PARSE_ALLOCATIONS,
        "parsing gen:11:15 made {n} allocations"
    );
}

#[test]
fn the_guard_sees_wide_values_allocate() {
    let before = allocations();
    black_box(LogicVec::zeros(65));
    assert!(
        allocations() > before,
        "the counting allocator is not active"
    );
}
