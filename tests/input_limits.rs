//! Untrusted-input limits: expression and statement nesting bombs are
//! rejected with a named error instead of overflowing the stack, the
//! deepest expressions and statements the parser accepts still analyze
//! end to end on a stack the size of a worker-pool thread (padded past
//! `MIN_FANOUT_BYTES`, so the frontend works on pool threads), a tiny file
//! declaring a huge memory analyzes without allocating it, and a cycle
//! horizon past `MAX_CYCLES` is a named error instead of a failed
//! allocation, and so is a design declaring more than
//! `MAX_DESIGN_NET_BITS` net bits in total, a literal wider than
//! `MAX_LITERAL_BITS`, and an expression wider than `MAX_EXPR_BITS`.

use soccar::{Soccar, SoccarConfig};
use soccar_concolic::{ConcolicConfig, MAX_CYCLES};
use soccar_rtl::constfold::MAX_EXPR_BITS;
use soccar_rtl::elaborate::{elaborate, MAX_DESIGN_NET_BITS};
use soccar_rtl::fingerprint::MIN_FANOUT_BYTES;
use soccar_rtl::lexer::MAX_LITERAL_BITS;
use soccar_rtl::parser::{parse, MAX_EXPR_DEPTH, MAX_STMT_DEPTH};
use soccar_rtl::span::FileId;
use soccar_rtl::RtlErrorKind;

/// The stack size of a worker-pool thread (Rust's default for spawned
/// threads).
const WORKER_STACK: usize = 2 << 20;

/// `source` followed by filler modules that take it past
/// `MIN_FANOUT_BYTES`, so that at two jobs the frontend parses, lints and
/// extracts it module by module on the worker pool, whose threads have
/// [`WORKER_STACK`]-sized stacks.
fn padded(source: &str) -> String {
    let comment = " ".repeat(8 << 10);
    let mut out = source.to_owned();
    let mut i = 0;
    while out.len() < MIN_FANOUT_BYTES {
        out.push_str(&format!("\nmodule pad{i}(); /*{comment}*/ endmodule\n"));
        i += 1;
    }
    out
}

/// Two jobs: the frontend of a padded source fans out.
fn two_jobs() -> SoccarConfig {
    SoccarConfig {
        jobs: 2,
        ..SoccarConfig::default()
    }
}

/// How one nesting level is opened.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Paren,
    Not,
    Concat,
    /// `a ^ (E)`: a binary node per level.
    Binary,
    /// A right-nested ternary chain: every else arm is one level deeper.
    Ternary,
    /// Parentheses, `~`, concatenation and `~` again, in turn.
    Mixed,
}

/// An expression exactly `levels` nesting levels deep: the top level plus
/// `levels - 1` wrappers of the given shape.
fn nested_expr(shape: Shape, levels: usize) -> String {
    let mut e = "a".to_owned();
    for i in 0..levels - 1 {
        let wrapper = match shape {
            Shape::Mixed => [Shape::Paren, Shape::Not, Shape::Concat, Shape::Not][i % 4],
            other => other,
        };
        e = match wrapper {
            Shape::Paren => format!("({e})"),
            Shape::Not => format!("~{e}"),
            Shape::Concat => format!("{{{e}}}"),
            Shape::Binary => format!("a ^ ({e})"),
            Shape::Ternary => format!("a ? a : {e}"),
            Shape::Mixed => unreachable!("resolved above"),
        };
    }
    e
}

/// A reset-governed register fed by `expr`, so the expression is
/// elaborated, simulated and (with `a` symbolic) solved over.
fn design(expr: &str) -> String {
    format!(
        "module top(input clk, input rst_n, input a, output reg y);
           always @(posedge clk or negedge rst_n)
             if (!rst_n) y <= 1'b0;
             else y <= {expr};
         endmodule"
    )
}

const SHAPES: [Shape; 6] = [
    Shape::Paren,
    Shape::Not,
    Shape::Concat,
    Shape::Binary,
    Shape::Ternary,
    Shape::Mixed,
];

#[test]
fn nesting_bomb_is_a_named_limit_error() {
    let bomb = padded(&format!(
        "module top(input a, output y);\n  assign y = {}a{};\nendmodule\n",
        "(".repeat(200_000),
        ")".repeat(200_000)
    ));
    let err = parse(FileId(0), &bomb).expect_err("the bomb must be rejected");
    assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
    assert!(
        err.to_string()
            .contains(&format!("deeper than {MAX_EXPR_DEPTH} levels")),
        "{err}"
    );
    // The whole pipeline reports it as a frontend error, not an abort.
    let result = Soccar::new(two_jobs()).analyze("bomb.v", &bomb, "top", Vec::new());
    let err = result.expect_err("the bomb must not analyze");
    assert!(err.to_string().contains("input limit exceeded"), "{err}");
}

#[test]
fn depth_limit_is_exact_for_every_shape() {
    for shape in SHAPES {
        parse(FileId(0), &design(&nested_expr(shape, MAX_EXPR_DEPTH)))
            .unwrap_or_else(|e| panic!("{shape:?}: the limit itself is accepted: {e}"));
        let err = parse(FileId(0), &design(&nested_expr(shape, MAX_EXPR_DEPTH + 1)))
            .expect_err("one level past the limit is rejected");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{shape:?}: {err}");
    }
}

#[test]
fn deepest_accepted_expressions_analyze_on_a_worker_stack() {
    for shape in SHAPES {
        let source = padded(&design(&nested_expr(shape, MAX_EXPR_DEPTH)));
        let outcome = std::thread::Builder::new()
            .stack_size(WORKER_STACK)
            .spawn(move || {
                let config = SoccarConfig {
                    concolic: ConcolicConfig {
                        cycles: 6,
                        max_rounds: 3,
                        symbolic_inputs: vec!["top.a".into()],
                        ..ConcolicConfig::default()
                    },
                    jobs: 2,
                    ..SoccarConfig::default()
                };
                Soccar::new(config)
                    .analyze("deep.v", &source, "top", Vec::new())
                    .map(|r| (r.concolic.rounds, r.concolic.targets_total))
                    .map_err(|e| e.to_string())
            })
            .expect("spawn")
            .join()
            .unwrap_or_else(|_| panic!("{shape:?}: the analysis panicked"));
        let (rounds, targets) = outcome
            .unwrap_or_else(|e| panic!("{shape:?}: the deepest accepted expression fails: {e}"));
        assert!(
            rounds > 0 && targets > 0,
            "{shape:?}: rounds {rounds}, targets {targets}"
        );
    }
}

/// How one statement nesting level is opened.
#[derive(Debug, Clone, Copy)]
enum StmtShape {
    If,
    Begin,
    /// An `else if` chain: every else arm is one level deeper.
    ElseIf,
    Case,
    For,
}

const STMT_SHAPES: [StmtShape; 5] = [
    StmtShape::If,
    StmtShape::Begin,
    StmtShape::ElseIf,
    StmtShape::Case,
    StmtShape::For,
];

/// A statement exactly `levels` nesting levels deep: the assignment
/// `y <= rhs;` inside `levels - 1` statements of the given shape.
fn nested_stmt(shape: StmtShape, levels: usize, rhs: &str) -> String {
    let mut s = format!("y <= {rhs};");
    for _ in 0..levels - 1 {
        s = match shape {
            StmtShape::If => format!("if (a) {s}"),
            StmtShape::Begin => format!("begin {s} end"),
            StmtShape::ElseIf => format!("if (a) y <= 1'b0; else {s}"),
            StmtShape::Case => format!("case (a) 1'b0: {s} default: y <= 1'b1; endcase"),
            StmtShape::For => format!("for (i = 0; i < 1; i = i + 1) {s}"),
        };
    }
    s
}

/// A reset-governed register whose else arm is `body`. The process's
/// `if` is the first statement level, so `body` starts at the second.
fn stmt_design(body: &str) -> String {
    format!(
        "module top(input clk, input rst_n, input a, output reg y);
           integer i;
           always @(posedge clk or negedge rst_n)
             if (!rst_n) y <= 1'b0;
             else {body}
         endmodule"
    )
}

/// The two statement bombs: 5000 nested `if (a)` (35 KB) and 5000
/// nested `begin` (50 KB), each padded past `MIN_FANOUT_BYTES`. Both
/// used to abort `soccar analyze` with a stack overflow.
fn statement_bombs() -> [String; 2] {
    [
        padded(&format!(
            "module top(input a, output reg y);\n  always @(a) {}y = a;\nendmodule\n",
            "if (a) ".repeat(5000)
        )),
        padded(&format!(
            "module top(input a, output reg y);\n  always @(a) {}y = a;{}\nendmodule\n",
            "begin ".repeat(5000),
            " end".repeat(5000)
        )),
    ]
}

#[test]
fn statement_nesting_bombs_are_named_limit_errors() {
    for bomb in statement_bombs() {
        let err = parse(FileId(0), &bomb).expect_err("the bomb must be rejected");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
        assert!(
            err.to_string().contains(&format!(
                "statement nesting deeper than {MAX_STMT_DEPTH} levels"
            )),
            "{err}"
        );
        let result = Soccar::new(two_jobs()).analyze("bomb.v", &bomb, "top", Vec::new());
        let err = result.expect_err("the bomb must not analyze");
        assert!(err.to_string().contains("input limit exceeded"), "{err}");
    }
}

#[test]
fn statement_depth_limit_is_exact_for_every_shape() {
    for shape in STMT_SHAPES {
        parse(
            FileId(0),
            &stmt_design(&nested_stmt(shape, MAX_STMT_DEPTH - 1, "a")),
        )
        .unwrap_or_else(|e| panic!("{shape:?}: the limit itself is accepted: {e}"));
        let err = parse(
            FileId(0),
            &stmt_design(&nested_stmt(shape, MAX_STMT_DEPTH, "a")),
        )
        .expect_err("one level past the limit is rejected");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{shape:?}: {err}");
    }
}

#[test]
fn deepest_accepted_statements_analyze_on_a_worker_stack() {
    // The deepest statements, with the deepest expression at the bottom:
    // the two limits share one stack.
    for stmt_shape in STMT_SHAPES {
        for expr_shape in SHAPES {
            let rhs = nested_expr(expr_shape, MAX_EXPR_DEPTH);
            let source = padded(&stmt_design(&nested_stmt(
                stmt_shape,
                MAX_STMT_DEPTH - 1,
                &rhs,
            )));
            let outcome = std::thread::Builder::new()
                .stack_size(WORKER_STACK)
                .spawn(move || {
                    let config = SoccarConfig {
                        concolic: ConcolicConfig {
                            cycles: 6,
                            max_rounds: 3,
                            symbolic_inputs: vec!["top.a".into()],
                            ..ConcolicConfig::default()
                        },
                        jobs: 2,
                        ..SoccarConfig::default()
                    };
                    Soccar::new(config)
                        .analyze("deep.v", &source, "top", Vec::new())
                        .map(|r| (r.concolic.rounds, r.concolic.targets_total))
                        .map_err(|e| e.to_string())
                })
                .expect("spawn")
                .join()
                .unwrap_or_else(|_| panic!("{stmt_shape:?}/{expr_shape:?}: the analysis panicked"));
            let (rounds, targets) = outcome.unwrap_or_else(|e| {
                panic!("{stmt_shape:?}/{expr_shape:?}: the deepest accepted statement fails: {e}")
            });
            assert!(
                rounds > 0 && targets > 0,
                "{stmt_shape:?}/{expr_shape:?}: rounds {rounds}, targets {targets}"
            );
        }
    }
}

/// Under 200 bytes of source declaring a 2^28-word memory: gigabytes if
/// every word were materialised at time zero.
const MEMORY_BOMB: &str = "module top(input clk, rst_n, input [27:0] a, output reg [7:0] q); \
reg [7:0] m [0:268435455]; always @(posedge clk or negedge rst_n) if (!rst_n) q <= 0; \
else q <= m[a]; endmodule";

#[test]
fn memory_bomb_analyzes_to_completion() {
    let config = SoccarConfig {
        jobs: 2,
        ..SoccarConfig::default()
    };
    let report = Soccar::new(config)
        .analyze("bomb.v", MEMORY_BOMB, "top", Vec::new())
        .expect("the memory bomb analyzes");
    assert!(report.concolic.rounds > 0);
    assert!(report.concolic.targets_total > 0);
}

/// A horizon one past the limit, and one of 2^40 cycles (terabytes of
/// schedule if it were materialised), are both rejected before the
/// engine allocates anything; the limit itself is accepted.
#[test]
fn oversized_cycle_horizon_is_a_named_limit_error() {
    let analyze = |cycles: u64, max_rounds: usize| {
        let config = SoccarConfig {
            concolic: ConcolicConfig {
                cycles,
                max_rounds,
                skip_sweep: true,
                ..ConcolicConfig::default()
            },
            jobs: 1,
            ..SoccarConfig::default()
        };
        Soccar::new(config).analyze("t.v", &design("a"), "top", Vec::new())
    };
    for cycles in [MAX_CYCLES + 1, 1 << 40] {
        let err = analyze(cycles, 12).expect_err("an oversized horizon must not analyze");
        assert_eq!(
            err.to_string(),
            format!(
                "configuration: input limit exceeded: a horizon of {cycles} cycles is longer \
                 than {MAX_CYCLES} cycles"
            )
        );
    }
    let report = analyze(MAX_CYCLES, 1).expect("the limit itself analyzes");
    assert_eq!(report.concolic.rounds, 1);
}

/// A design of `regs` registers of 2^20 bits each, the per-net cap, plus
/// one register of `tail` bits.
fn wide_regs(regs: usize, tail: u64) -> String {
    let mut src = String::from("module top(input clk, input rst_n, output reg q);\n");
    for i in 0..regs {
        src.push_str(&format!("reg [1048575:0] r{i};\n"));
    }
    src.push_str(&format!("reg [{}:0] tail;\n", tail - 1));
    src.push_str(
        "always @(posedge clk or negedge rst_n) if (!rst_n) q <= 0; else q <= 1;\nendmodule\n",
    );
    src
}

/// 3000 registers of 2^20 bits (a 68 KB file): each is under the per-net
/// cap, but together they would ask for about 800 MB of simulator state.
/// They used to abort `soccar analyze` with a failed allocation (exit
/// 134); now elaboration names the limit before creating the net that
/// passes it.
#[test]
fn total_net_width_bomb_is_a_named_limit_error() {
    let bomb = wide_regs(2999, 1 << 20);
    let unit = parse(FileId(0), &bomb).expect("the bomb parses");
    let err = elaborate(&unit, "top").expect_err("the bomb must not elaborate");
    assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
    let result = Soccar::new(SoccarConfig::default()).analyze("bomb.v", &bomb, "top", Vec::new());
    let err = result.expect_err("the bomb must not analyze");
    assert!(
        err.to_string().contains(&format!(
            "input limit exceeded: design declares more than {MAX_DESIGN_NET_BITS} net bits"
        )),
        "{err}"
    );
}

/// The limit is exact: the three one-bit ports, 15 registers of 2^20 bits
/// and one register of 2^20 - 3 bits fill it.
#[test]
fn total_net_width_limit_is_exact() {
    let regs = (MAX_DESIGN_NET_BITS >> 20) as usize - 1;
    let tail = MAX_DESIGN_NET_BITS - ((regs as u64) << 20) - 3;
    let at_limit = parse(FileId(0), &wide_regs(regs, tail)).expect("parses");
    elaborate(&at_limit, "top").expect("the limit itself elaborates");
    let past = parse(FileId(0), &wide_regs(regs, tail + 1)).expect("parses");
    let err = elaborate(&past, "top").expect_err("one bit past the limit is rejected");
    assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
}

/// A one-output module driving `q` from `literal`.
fn literal_design(literal: &str) -> String {
    format!("module top(input a, output q);\n  assign q = a ^ {literal};\nendmodule\n")
}

/// The error every literal past [`MAX_LITERAL_BITS`] gets.
fn literal_limit_error() -> String {
    format!("input limit exceeded: literal wider than {MAX_LITERAL_BITS} bits")
}

/// `4294967295'h1` (13 bytes) used to build two 512 MiB planes in `soccar
/// lint` and abort `soccar analyze` with exit 134. It, a size past `u64`,
/// and a literal whose digits alone spell too many bits are now named
/// limit errors, raised before the value is allocated.
#[test]
fn literal_width_bomb_is_a_named_limit_error() {
    let too_many_digits = format!("'b{}", "1".repeat(MAX_LITERAL_BITS as usize + 1));
    for literal in ["4294967295'h1", "99999999999999999999'hx", &too_many_digits] {
        let src = literal_design(literal);
        let err = parse(FileId(0), &src).expect_err("the bomb must not parse");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
        assert_eq!(err.to_string(), literal_limit_error());
        let result =
            Soccar::new(SoccarConfig::default()).analyze("bomb.v", &src, "top", Vec::new());
        let err = result.expect_err("the bomb must not analyze");
        assert!(err.to_string().contains(&literal_limit_error()), "{err}");
    }
}

/// The limit is exact, for a declared size and for the digits' own
/// width: 2^20 bits lex and elaborate, 2^20 + 1 do not.
#[test]
fn literal_width_limit_is_exact() {
    let max = MAX_LITERAL_BITS as usize;
    let at_limit = [
        format!("{max}'h1"),
        format!("{max}'bx"),
        format!("'b{}", "1".repeat(max)),
        format!("'h{}", "f".repeat(max / 4)),
    ];
    for literal in &at_limit {
        let unit = parse(FileId(0), &literal_design(literal)).expect("the limit itself parses");
        elaborate(&unit, "top").expect("the limit itself elaborates");
    }
    let past = [
        format!("{}'h1", max + 1),
        format!("'b{}", "1".repeat(max + 1)),
        format!("'h{}", "f".repeat(max / 4 + 1)),
    ];
    for literal in &past {
        let err = parse(FileId(0), &literal_design(literal)).expect_err("one bit past the limit");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
    }
}

/// The error every expression past [`MAX_EXPR_BITS`] gets.
fn expr_limit_error() -> String {
    format!("input limit exceeded: expression wider than {MAX_EXPR_BITS} bits")
}

/// A module folding `expr` into a parameter, so the constant evaluator
/// computes its width instead of the lowering.
fn param_design(expr: &str) -> String {
    format!(
        "module top(input a, output q);\n  localparam P = {expr};\n  \
         assign q = a ^ P;\nendmodule\n"
    )
}

/// `{4294967297{a}}` used to be read as `{1{a}}` (the count was cut to 32
/// bits), and the `{1024{ {1024{ {1024{a}} }} }}` bomb (2^30 bits) ran for
/// minutes before a wrapped width panicked. They, a concatenation one bit
/// past the limit and an over-wide part-select are now named limit errors
/// raised at elaboration, in a statement and in a parameter alike.
#[test]
fn expression_width_bomb_is_a_named_limit_error() {
    let bombs = [
        "{4294967297{a}}",
        "{1024{ {1024{ {1024{a}} }} }}",
        "{ {1048576{a}}, a }",
    ];
    let mut sources: Vec<String> = bombs.iter().map(|e| design(e)).collect();
    sources.extend(bombs.iter().map(|e| param_design(&e.replace('a', "1'b1"))));
    sources.push(design("a[4294967295:0]"));
    for src in &sources {
        let unit = parse(FileId(0), src).expect("the bomb parses");
        let err = elaborate(&unit, "top").expect_err("the bomb must not elaborate");
        assert_eq!(err.kind, RtlErrorKind::Limit, "{src}: {err}");
        assert_eq!(err.to_string(), expr_limit_error(), "{src}");
        let result = Soccar::new(SoccarConfig::default()).analyze("bomb.v", src, "top", Vec::new());
        let err = result.expect_err("the bomb must not analyze");
        assert!(err.to_string().contains(&expr_limit_error()), "{err}");
    }
}

/// The limit is exact: a 2^20-bit replication elaborates, in a statement
/// and in a parameter.
#[test]
fn expression_width_limit_is_exact() {
    let at_limit = "{1024{ {1024{a}} }}";
    for src in [
        design(at_limit),
        param_design(&at_limit.replace('a', "1'b1")),
    ] {
        let unit = parse(FileId(0), &src).expect("parses");
        elaborate(&unit, "top").expect("the limit itself elaborates");
    }
}
