//! Allocation guards: memories are lazy, and the hot loop moves values.
//!
//! A simulator must not pay for memory words it never touches. Building
//! one on a 2^20-word memory allocates nothing per word, running cycles
//! that write `k` words allocates in proportion to `k`, and a clone copies
//! only the pages written so far.
//!
//! Nor may it pay per statement: once its queues and scratch buffers have
//! grown in a warm-up cycle, clocking a design whose nets are at most 64
//! bits wide allocates nothing at all.
//!
//! A counting global allocator tallies the bytes each thread allocates
//! (the test harness runs tests on parallel threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use soccar_rtl::value::LogicVec;
use soccar_sim::{InitPolicy, Simulator};

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with` so allocations during thread teardown are not an error.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers every call to `System`; the only addition is a
// thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates while running `f`.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const DEPTH: u64 = 1 << 20;
/// Words per page of the simulator's memory overlay.
const PAGE_WORDS: u64 = 64;
/// Bytes of one page of 8-bit words.
const PAGE_BYTES: u64 = PAGE_WORDS * std::mem::size_of::<LogicVec>() as u64;
/// What an eager simulator would allocate for the memory alone.
const EAGER_BYTES: u64 = DEPTH * std::mem::size_of::<LogicVec>() as u64;

const RAM: &str = "module ram(input clk, we, input [19:0] addr, input [7:0] wd,
                              output reg [7:0] q);
                     reg [7:0] mem [0:1048575];
                     always @(posedge clk) begin
                       if (we) mem[addr] <= wd;
                       q <= mem[addr];
                     end
                   endmodule";

/// Runs one clock cycle per address, writing `addr & 0xFF` to each.
fn write_words(sim: &mut Simulator<'_, soccar_sim::ConcreteAlgebra>, addrs: &[u64]) {
    let design = sim.design();
    let net = |name: &str| design.find_net(name).expect(name);
    let (clk, we, addr, wd) = (
        net("ram.clk"),
        net("ram.we"),
        net("ram.addr"),
        net("ram.wd"),
    );
    sim.write_input(we, LogicVec::from_u64(1, 1)).expect("we");
    for &a in addrs {
        sim.write_input(addr, LogicVec::from_u64(20, a))
            .expect("addr");
        sim.write_input(wd, LogicVec::from_u64(8, a & 0xFF))
            .expect("wd");
        sim.settle().expect("settle");
        sim.tick(clk).expect("tick");
    }
}

/// `k` addresses on `k` distinct pages.
fn spread(k: u64) -> Vec<u64> {
    (0..k).map(|i| i * (DEPTH / k) + 7).collect()
}

#[test]
fn building_a_simulator_does_not_touch_the_memory() {
    let (design, _) = soccar_rtl::compile("ram.v", RAM, "ram").expect("compile");
    let (sim, bytes) = bytes_allocated(|| Simulator::concrete(&design, InitPolicy::Ones));
    assert!(
        bytes < 64 * 1024,
        "building allocated {bytes} bytes (an eager memory is {EAGER_BYTES})"
    );
    let mem = design.find_memory("ram.mem").expect("mem");
    assert!(sim.mem_logic(mem, DEPTH - 1).is_all_ones());
}

#[test]
fn writes_allocate_in_proportion_to_the_words_written() {
    let (design, _) = soccar_rtl::compile("ram.v", RAM, "ram").expect("compile");
    let mem = design.find_memory("ram.mem").expect("mem");
    for k in [4, 16, 64] {
        let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
        let addrs = spread(k);
        let ((), bytes) = bytes_allocated(|| write_words(&mut sim, &addrs));
        // One page per written word, plus small per-cycle scheduler
        // queues and map nodes.
        let bound = k * (PAGE_BYTES + 2048);
        assert!(
            bytes <= bound,
            "{k} writes allocated {bytes} bytes, over {bound} (an eager memory is {EAGER_BYTES})"
        );
        for &a in &addrs {
            assert_eq!(sim.mem_logic(mem, a).to_u64(), Some(a & 0xFF));
        }
        assert!(sim.mem_logic(mem, addrs[0] + 1).is_all_ones());
    }
}

#[test]
fn a_clone_copies_only_the_touched_pages() {
    let (design, _) = soccar_rtl::compile("ram.v", RAM, "ram").expect("compile");
    let mem = design.find_memory("ram.mem").expect("mem");
    let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
    let (_, untouched) = bytes_allocated(|| sim.clone());
    assert!(
        untouched < 64 * 1024,
        "an untouched clone allocated {untouched} bytes"
    );

    let k = 32;
    let addrs = spread(k);
    write_words(&mut sim, &addrs);
    let (mut fork, bytes) = bytes_allocated(|| sim.clone());
    let pages = bytes - untouched;
    assert!(
        (k * PAGE_BYTES..=k * PAGE_BYTES + 8 * 1024).contains(&pages),
        "a clone with {k} touched pages allocated {pages} bytes beyond an untouched one"
    );

    // The fork is independent of its parent.
    write_words(&mut fork, &[addrs[0] + 1]);
    assert_eq!(
        fork.mem_logic(mem, addrs[0] + 1).to_u64(),
        Some((addrs[0] + 1) & 0xFF)
    );
    assert!(sim.mem_logic(mem, addrs[0] + 1).is_all_ones());
}

/// Every statement kind the interpreter runs per cycle, on nets of at most
/// 64 bits: blocking and non-blocking writes, part-select reads and
/// writes, a concat lvalue, a concat expression, `if` and `case`, plus a
/// level-sensitive process woken by the clocked one.
const HOT: &str = "module hot(input clk, rst_n, input [7:0] d,
                              output reg [15:0] acc, output reg [7:0] lo,
                              output reg c, output reg [1:0] mode,
                              output reg [3:0] nib);
                     reg [7:0] tmp;
                     always @(posedge clk or negedge rst_n)
                       if (!rst_n) begin
                         acc <= 16'd0;
                         mode <= 2'd0;
                       end else begin
                         tmp = d + acc[7:0];
                         acc[15:8] <= tmp;
                         acc[7:0] <= {d[3:0], tmp[7:4]};
                         {c, lo} = tmp + d;
                         case (mode)
                           2'd0: mode <= 2'd1;
                           2'd1: mode <= 2'd2;
                           default: mode <= 2'd0;
                         endcase
                       end
                     always @* nib = acc[3:0] ^ lo[7:4];
                   endmodule";

#[test]
fn clocking_narrow_nets_allocates_nothing_after_warm_up() {
    let (design, _) = soccar_rtl::compile("hot.v", HOT, "hot").expect("compile");
    let net = |name: &str| design.find_net(name).expect(name);
    let (clk, rst_n, d, acc, mode) = (
        net("hot.clk"),
        net("hot.rst_n"),
        net("hot.d"),
        net("hot.acc"),
        net("hot.mode"),
    );
    let mut sim = Simulator::concrete(&design, InitPolicy::Ones);
    sim.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    sim.write_input(rst_n, LogicVec::from_u64(1, 0))
        .expect("rst");
    sim.write_input(d, LogicVec::from_u64(8, 0)).expect("d");
    sim.settle().expect("settle");
    sim.write_input(rst_n, LogicVec::from_u64(1, 1))
        .expect("rst");
    sim.settle().expect("settle");
    // Warm-up: the first cycle sizes the run queue, the NBA queue and the
    // scratch buffers.
    sim.tick(clk).expect("tick");

    const CYCLES: u64 = 64;
    let ((), bytes) = bytes_allocated(|| {
        for i in 0..CYCLES {
            sim.write_input(d, LogicVec::from_u64(8, i * 37 % 256))
                .expect("d");
            sim.settle().expect("settle");
            sim.tick(clk).expect("tick");
        }
    });
    assert_eq!(bytes, 0, "{CYCLES} cycles allocated {bytes} bytes");
    // The cycles really ran: the mode register cycles 0 -> 1 -> 2 -> 0,
    // one step per clock edge after the warm-up's step to 1.
    assert_eq!(sim.net_logic(mode).to_u64(), Some((1 + CYCLES) % 3));
    assert!(sim.net_logic(acc).to_u64().is_some(), "acc left X");
}
