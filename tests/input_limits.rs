//! Untrusted-input limits: a nesting bomb is rejected with a named error
//! instead of overflowing the stack, the deepest expressions the parser
//! accepts still analyze end to end on a stack the size of a worker-pool
//! thread, and a tiny file declaring a huge memory analyzes without
//! allocating it.

use soccar::{Soccar, SoccarConfig};
use soccar_concolic::ConcolicConfig;
use soccar_rtl::parser::{parse, MAX_EXPR_DEPTH};
use soccar_rtl::span::FileId;
use soccar_rtl::RtlErrorKind;

/// The stack size of a worker-pool thread (Rust's default for spawned
/// threads).
const WORKER_STACK: usize = 2 << 20;

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
    let bomb = format!(
        "module top(input a, output y);\n  assign y = {}a{};\nendmodule\n",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    let err = parse(FileId(0), &bomb).expect_err("the bomb must be rejected");
    assert_eq!(err.kind, RtlErrorKind::Limit, "{err}");
    assert!(
        err.to_string()
            .contains(&format!("deeper than {MAX_EXPR_DEPTH} levels")),
        "{err}"
    );
    // The whole pipeline reports it as a frontend error, not an abort.
    let result = Soccar::new(SoccarConfig::default()).analyze("bomb.v", &bomb, "top", Vec::new());
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
        let source = design(&nested_expr(shape, MAX_EXPR_DEPTH));
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
                    jobs: 1,
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
