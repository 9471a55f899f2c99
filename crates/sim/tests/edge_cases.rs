//! Simulator edge cases: reset/clock races, X-propagation, write-drop
//! semantics, multi-driver ordering, and timing bookkeeping.

use soccar_rtl::value::LogicVec;
use soccar_sim::{InitPolicy, SimError, Simulator};

fn compile(src: &str, top: &str) -> soccar_rtl::Design {
    soccar_rtl::compile("t.v", src, top)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

#[test]
fn reset_wins_when_asserted_during_clock_edge_settle() {
    // Assert reset and raise the clock in the same settle batch: the reset
    // branch must win (its edge fires, and the guarded body sees rst low).
    let d = compile(
        "module t(input clk, rst_n, output reg [3:0] q);
           always @(posedge clk or negedge rst_n)
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Ones);
    let clk = d.find_net("t.clk").expect("clk");
    let rst = d.find_net("t.rst_n").expect("rst");
    let q = d.find_net("t.q").expect("q");
    s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.settle().expect("settle");
    // Both changes land before one settle.
    s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
    s.write_input(clk, LogicVec::from_u64(1, 1)).expect("clk");
    s.settle().expect("settle");
    assert_eq!(s.net_logic(q).to_u64(), Some(0), "reset dominates");
}

#[test]
fn x_reset_line_produces_x_edge_behaviour_not_crash() {
    let d = compile(
        "module t(input clk, rst_n, output reg [3:0] q);
           always @(posedge clk or negedge rst_n)
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Ones);
    let clk = d.find_net("t.clk").expect("clk");
    let rst = d.find_net("t.rst_n").expect("rst");
    // rst_n starts X (never driven): drive to X explicitly then to 0.
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.write_input(rst, LogicVec::xes(1)).expect("rst");
    s.settle().expect("settle");
    // X→0 is a negedge per the 4-state table: reset arm runs.
    s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
    s.settle().expect("settle");
    let q = d.find_net("t.q").expect("q");
    assert_eq!(s.net_logic(q).to_u64(), Some(0));
}

#[test]
fn nba_with_x_memory_index_is_dropped() {
    let d = compile(
        "module t(input clk, input [3:0] addr, input [7:0] wd, output reg [7:0] rd);
           reg [7:0] mem [0:15];
           integer i;
           initial for (i = 0; i < 16; i = i + 1) mem[i] = 8'd7;
           always @(posedge clk) begin
             mem[addr] <= wd;
             rd <= mem[0];
           end
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    let clk = d.find_net("t.clk").expect("clk");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.write_input(d.find_net("t.wd").expect("wd"), LogicVec::from_u64(8, 0xAA))
        .expect("wd");
    s.write_input(d.find_net("t.addr").expect("addr"), LogicVec::xes(4))
        .expect("addr");
    s.settle().expect("settle");
    s.tick(clk).expect("tick");
    // No element was clobbered by the X-indexed write.
    let mem = d.find_memory("t.mem").expect("mem");
    for a in 0..16 {
        assert_eq!(s.mem_logic(mem, a).to_u64(), Some(7), "element {a}");
    }
}

#[test]
fn out_of_range_memory_read_is_x() {
    let d = compile(
        "module t(input [4:0] addr, output [7:0] rd);
           reg [7:0] mem [0:15];
           assign rd = mem[addr];
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    let addr = d.find_net("t.addr").expect("addr");
    s.write_input(addr, LogicVec::from_u64(5, 20))
        .expect("addr");
    s.settle().expect("settle");
    assert!(s.net_logic(d.find_net("t.rd").expect("rd")).is_all_x());
    s.write_input(addr, LogicVec::from_u64(5, 3)).expect("addr");
    s.settle().expect("settle");
    assert_eq!(
        s.net_logic(d.find_net("t.rd").expect("rd")).to_u64(),
        Some(0)
    );
}

#[test]
fn two_processes_one_target_last_nba_wins() {
    // IEEE 1364: multiple NBAs to the same register in the same time step
    // apply in execution order; our processes execute in ProcessId order.
    let d = compile(
        "module t(input clk, output reg [3:0] q);
           always @(posedge clk) q <= 4'd1;
           always @(posedge clk) q <= 4'd2;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    let clk = d.find_net("t.clk").expect("clk");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.settle().expect("settle");
    s.tick(clk).expect("tick");
    assert_eq!(
        s.net_logic(d.find_net("t.q").expect("q")).to_u64(),
        Some(2),
        "second process's NBA commits last"
    );
}

#[test]
fn time_advances_two_per_tick() {
    let d = compile(
        "module t(input clk, output y); assign y = clk; endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::X);
    let clk = d.find_net("t.clk").expect("clk");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.settle().expect("settle");
    assert_eq!(s.time(), 0);
    for i in 1..=5 {
        s.tick(clk).expect("tick");
        assert_eq!(s.time(), 2 * i);
    }
}

#[test]
fn poke_wakes_dependents() {
    let d = compile(
        "module t(input clk, output reg [3:0] q, output [3:0] y);
           assign y = q ^ 4'hF;
           always @(posedge clk) q <= q;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    s.settle().expect("settle");
    let q = d.find_net("t.q").expect("q");
    let y = d.find_net("t.y").expect("y");
    assert_eq!(s.net_logic(y).to_u64(), Some(0xF));
    s.poke_net(q, LogicVec::from_u64(4, 0b0101));
    s.settle().expect("settle");
    assert_eq!(s.net_logic(y).to_u64(), Some(0b1010));
}

#[test]
fn width_mismatch_and_non_input_errors_are_reported() {
    let d = compile(
        "module t(input [3:0] a, output [3:0] y); assign y = a; endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::X);
    let a = d.find_net("t.a").expect("a");
    let y = d.find_net("t.y").expect("y");
    assert!(matches!(
        s.write_input(a, LogicVec::from_u64(8, 1)),
        Err(SimError::WidthMismatch {
            expected: 4,
            got: 8,
            ..
        })
    ));
    assert!(matches!(
        s.write_input(y, LogicVec::from_u64(4, 1)),
        Err(SimError::NotAnInput { .. })
    ));
}

#[test]
fn partial_reset_does_not_disturb_other_domain() {
    let d = compile(
        "module t(input clk, input a_rst_n, input b_rst_n,
                  output reg [7:0] qa, output reg [7:0] qb);
           always @(posedge clk or negedge a_rst_n)
             if (!a_rst_n) qa <= 8'd0; else qa <= qa + 8'd1;
           always @(posedge clk or negedge b_rst_n)
             if (!b_rst_n) qb <= 8'd0; else qb <= qb + 8'd1;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    let clk = d.find_net("t.clk").expect("clk");
    let ra = d.find_net("t.a_rst_n").expect("ra");
    let rb = d.find_net("t.b_rst_n").expect("rb");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.write_input(ra, LogicVec::from_u64(1, 1)).expect("ra");
    s.write_input(rb, LogicVec::from_u64(1, 1)).expect("rb");
    s.settle().expect("settle");
    for _ in 0..5 {
        s.tick(clk).expect("tick");
    }
    // Partial reset of domain A only.
    s.write_input(ra, LogicVec::from_u64(1, 0)).expect("ra");
    s.settle().expect("settle");
    let qa = d.find_net("t.qa").expect("qa");
    let qb = d.find_net("t.qb").expect("qb");
    assert_eq!(s.net_logic(qa).to_u64(), Some(0));
    assert_eq!(s.net_logic(qb).to_u64(), Some(5), "domain B undisturbed");
}

#[test]
fn trace_and_vcd_capture_reset_event() {
    let d = compile(
        "module t(input clk, rst_n, output reg [3:0] q);
           always @(posedge clk or negedge rst_n)
             if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    s.enable_tracing();
    let clk = d.find_net("t.clk").expect("clk");
    let rst = d.find_net("t.rst_n").expect("rst");
    s.write_input(clk, LogicVec::from_u64(1, 0)).expect("clk");
    s.write_input(rst, LogicVec::from_u64(1, 1)).expect("rst");
    s.settle().expect("settle");
    s.tick(clk).expect("tick"); // q: 0 → 1
    s.tick(clk).expect("tick"); // q: 1 → 2
    s.write_input(rst, LogicVec::from_u64(1, 0)).expect("rst");
    s.settle().expect("settle");
    let q = d.find_net("t.q").expect("q");
    let q_changes: Vec<_> = s.trace().iter().filter(|e| e.net == q).collect();
    assert!(q_changes.len() >= 2, "count + clear recorded");
    assert!(q_changes.last().expect("last").value.is_all_zero());
    let vcd = soccar_sim::vcd::write_vcd(&d, s.trace());
    assert!(vcd.contains("t_q"));
    assert!(vcd.contains("b0000"));
}

#[test]
fn case_items_wider_than_the_selector_compare_at_the_widest_width() {
    // IEEE 1364-2005 §9.5: a 2-bit selector against 3-bit items is
    // zero-extended to 3 bits, so an item with bit 2 set never matches,
    // while a wildcard at bit 2 still lets the low bits match.
    let d = compile(
        "module t(input [1:0] sel, output reg hit, output reg zhit, output reg low);
           always @* begin
             hit = 1'b0;
             case (sel)
               3'b100: hit = 1'b1;
             endcase
             zhit = 1'b0;
             casez (sel)
               3'b1?0: zhit = 1'b1;
             endcase
             low = 1'b0;
             casez (sel)
               3'b?10: low = 1'b1;
             endcase
           end
         endmodule",
        "t",
    );
    let mut s = Simulator::concrete(&d, InitPolicy::Zeros);
    let sel = d.find_net("t.sel").expect("sel");
    let net = |name: &str| d.find_net(&format!("t.{name}")).expect("net");
    for v in 0..4 {
        s.write_input(sel, LogicVec::from_u64(2, v)).expect("sel");
        s.settle().expect("settle");
        assert_eq!(s.net_logic(net("hit")).to_u64(), Some(0), "case, sel = {v}");
        assert_eq!(
            s.net_logic(net("zhit")).to_u64(),
            Some(0),
            "casez, sel = {v}"
        );
        assert_eq!(
            s.net_logic(net("low")).to_u64(),
            Some(u64::from(v == 2)),
            "casez wildcard, sel = {v}"
        );
    }
}
