//! Property tests: the bit-blaster must agree with the reference term
//! evaluator on randomly generated term trees, models returned by the
//! solver must satisfy the asserted formulas, and budgeted solves must
//! never give a wrong definite answer.

use std::collections::HashMap;

use proptest::prelude::*;
use soccar_smt::{model_satisfies, BvVal, CheckResult, SolveBudget, Solver, TermGraph, TermId};

/// A compact op encoding for random tree generation.
#[derive(Debug, Clone, Copy)]
enum OpPick {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Lshr,
    Ashr,
    Udiv,
    Urem,
}

fn build_tree(
    g: &mut TermGraph,
    width: u32,
    ops: &[OpPick],
    leaves: &[u64],
    n_vars: u32,
) -> TermId {
    // Deterministically fold leaves with the given ops; leaf i is either a
    // variable (i < n_vars) or a constant.
    let mut nodes: Vec<TermId> = leaves
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if (i as u32) < n_vars {
                g.var(format!("v{i}"), width)
            } else {
                g.constant(BvVal::from_u64(width, *v))
            }
        })
        .collect();
    let mut oi = 0;
    while nodes.len() > 1 {
        let b = nodes.pop().expect("b");
        let a = nodes.pop().expect("a");
        let op = ops[oi % ops.len()];
        oi += 1;
        let n = match op {
            OpPick::Add => g.add(a, b),
            OpPick::Sub => g.sub(a, b),
            OpPick::Mul => g.mul(a, b),
            OpPick::And => g.and(a, b),
            OpPick::Or => g.or(a, b),
            OpPick::Xor => g.xor(a, b),
            OpPick::Shl => g.shl(a, b),
            OpPick::Lshr => g.lshr(a, b),
            OpPick::Ashr => g.ashr(a, b),
            OpPick::Udiv => g.udiv(a, b),
            OpPick::Urem => g.urem(a, b),
        };
        nodes.push(n);
    }
    nodes[0]
}

fn op_strategy() -> impl Strategy<Value = OpPick> {
    prop_oneof![
        Just(OpPick::Add),
        Just(OpPick::Sub),
        Just(OpPick::Mul),
        Just(OpPick::And),
        Just(OpPick::Or),
        Just(OpPick::Xor),
        Just(OpPick::Shl),
        Just(OpPick::Lshr),
        Just(OpPick::Ashr),
        Just(OpPick::Udiv),
        Just(OpPick::Urem),
    ]
}

/// A multiplication-heavy expression over three variables, plus 1-bit
/// goal terms `expr == target` for each requested target: formulas large
/// enough that small budgets run out mid-search.
fn build_goals(g: &mut TermGraph, width: u32, seeds: &[u64], targets: &[u64]) -> Vec<TermId> {
    let vars: Vec<TermId> = (0..3).map(|i| g.var(format!("v{i}"), width)).collect();
    let mut acc = g.mul(vars[0], vars[1]);
    for (i, s) in seeds.iter().enumerate() {
        let c = g.constant(BvVal::from_u64(width, *s));
        acc = match i % 4 {
            0 => {
                let m = g.mul(acc, c);
                g.add(m, vars[2])
            }
            1 => g.xor(acc, vars[1]),
            2 => g.mul(acc, vars[2]),
            _ => {
                let a = g.add(acc, c);
                g.and(a, vars[0])
            }
        };
    }
    targets
        .iter()
        .map(|t| {
            let c = g.constant(BvVal::from_u64(width, *t));
            g.eq(acc, c)
        })
        .collect()
}

/// A fresh solver under `budget` asserting `terms`, checked once.
fn check_all(g: &TermGraph, budget: SolveBudget, terms: &[TermId]) -> CheckResult {
    let mut s = Solver::with_budget(budget);
    for t in terms {
        s.assert(*t);
    }
    s.check(g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forcing a random expression to equal its concretely-evaluated value
    /// must be SAT, and the model must reproduce the inputs' behaviour.
    #[test]
    fn blasted_circuit_matches_reference_eval(
        width in 1u32..10,
        ops in proptest::collection::vec(op_strategy(), 1..6),
        leaves in proptest::collection::vec(0u64..256, 2..7),
        var_values in proptest::collection::vec(0u64..256, 7),
    ) {
        let n_vars = (leaves.len() as u32).min(3);
        let mut g = TermGraph::new();
        let root = build_tree(&mut g, width, &ops, &leaves, n_vars);

        // Reference evaluation with fixed variable values.
        let mut env = HashMap::new();
        for i in 0..n_vars {
            let v = g.var(format!("v{i}"), width);
            env.insert(v, BvVal::from_u64(width, var_values[i as usize]));
        }
        let expected = g.eval(root, &env);

        // Assert (root == expected) ∧ (vars == their values): must be SAT.
        let c = g.constant(expected.clone());
        let eq = g.eq(root, c);
        let mut solver = Solver::new();
        solver.assert(eq);
        for i in 0..n_vars {
            let v = g.var(format!("v{i}"), width);
            let cv = g.constant(BvVal::from_u64(width, var_values[i as usize]));
            let veq = g.eq(v, cv);
            solver.assert(veq);
        }
        let res = solver.check(&g);
        prop_assert!(res.is_sat(), "forcing the concrete value must be SAT");
        let model = res.model().expect("model");
        prop_assert!(model_satisfies(&g, solver.assertions(), model));
    }

    /// Asserting root == expected+1 with pinned inputs must be UNSAT
    /// (functions are deterministic).
    #[test]
    fn determinism_unsat(
        width in 2u32..8,
        ops in proptest::collection::vec(op_strategy(), 1..5),
        leaves in proptest::collection::vec(0u64..64, 2..6),
        var_values in proptest::collection::vec(0u64..64, 6),
    ) {
        let n_vars = (leaves.len() as u32).min(2);
        let mut g = TermGraph::new();
        let root = build_tree(&mut g, width, &ops, &leaves, n_vars);
        let mut env = HashMap::new();
        for i in 0..n_vars {
            let v = g.var(format!("v{i}"), width);
            env.insert(v, BvVal::from_u64(width, var_values[i as usize]));
        }
        let expected = g.eval(root, &env);
        let wrong = expected.add(&BvVal::from_u64(width, 1));
        let c = g.constant(wrong);
        let eq = g.eq(root, c);
        let mut solver = Solver::new();
        solver.assert(eq);
        for i in 0..n_vars {
            let v = g.var(format!("v{i}"), width);
            let cv = g.constant(BvVal::from_u64(width, var_values[i as usize]));
            let veq = g.eq(v, cv);
            solver.assert(veq);
        }
        prop_assert_eq!(solver.check(&g), CheckResult::Unsat);
    }

    /// Models for underconstrained formulas still satisfy them.
    #[test]
    fn models_satisfy_assertions(
        width in 1u32..9,
        ops in proptest::collection::vec(op_strategy(), 1..5),
        leaves in proptest::collection::vec(0u64..256, 2..6),
        target in 0u64..256,
    ) {
        let n_vars = (leaves.len() as u32).min(3);
        let mut g = TermGraph::new();
        let root = build_tree(&mut g, width, &ops, &leaves, n_vars);
        let c = g.constant(BvVal::from_u64(width, target));
        let eq = g.eq(root, c);
        let mut solver = Solver::new();
        solver.assert(eq);
        if let CheckResult::Sat(model) = solver.check(&g) {
            prop_assert!(model_satisfies(&g, solver.assertions(), &model));
        }
        // UNSAT is fine: not every target is reachable.
    }

    /// Budgeted solving is *sound*: whenever a budgeted solve commits to
    /// Sat or Unsat (rather than Unknown), it agrees with the unbudgeted
    /// solve on the same formula, and any model it returns is real.
    #[test]
    fn budgeted_solve_agrees_when_definite(
        width in 1u32..9,
        ops in proptest::collection::vec(op_strategy(), 1..5),
        leaves in proptest::collection::vec(0u64..256, 2..6),
        target in 0u64..256,
        max_conflicts in 1u64..48,
        max_decisions in 1u64..96,
    ) {
        let n_vars = (leaves.len() as u32).min(3);
        let mut g = TermGraph::new();
        let root = build_tree(&mut g, width, &ops, &leaves, n_vars);
        let c = g.constant(BvVal::from_u64(width, target));
        let eq = g.eq(root, c);

        let mut reference = Solver::new();
        reference.assert(eq);
        let expected = reference.check(&g);

        let mut budgeted = Solver::with_budget(SolveBudget {
            max_conflicts: Some(max_conflicts),
            max_decisions: Some(max_decisions),
        });
        budgeted.assert(eq);
        match budgeted.check(&g) {
            CheckResult::Unknown { reason } => {
                prop_assert!(!reason.is_empty(), "Unknown must carry a reason");
            }
            CheckResult::Unsat => prop_assert_eq!(expected, CheckResult::Unsat),
            CheckResult::Sat(model) => {
                prop_assert!(expected.is_sat(), "budgeted Sat but reference Unsat");
                prop_assert!(model_satisfies(&g, budgeted.assertions(), &model));
            }
        }
    }

    /// Flip-shaped budgeted queries stay sound. Each step asserts a
    /// prefix (the previous goal, on odd steps) plus a goal on a fresh
    /// budgeted solver, as one flip query does: a definite answer matches
    /// the unbudgeted truth, `Unknown` names the exhausted budget, and
    /// every model satisfies the asserted terms.
    #[test]
    fn budgeted_prefix_goal_queries_are_sound(
        width in 1u32..7,
        seeds in proptest::collection::vec(0u64..64, 1..5),
        targets in proptest::collection::vec(0u64..64, 2..5),
        max_conflicts in 1u64..32,
        max_decisions in 1u64..64,
    ) {
        let budget = SolveBudget {
            max_conflicts: Some(max_conflicts),
            max_decisions: Some(max_decisions),
        };
        let mut g = TermGraph::new();
        let goals = build_goals(&mut g, width, &seeds, &targets);
        for i in 0..goals.len() {
            let terms: Vec<TermId> = if i % 2 == 0 {
                vec![goals[i]]
            } else {
                vec![goals[i - 1], goals[i]]
            };
            let truth = check_all(&g, SolveBudget::UNLIMITED, &terms);
            prop_assert!(!truth.is_unknown(), "an unlimited budget never runs out");
            match check_all(&g, budget, &terms) {
                CheckResult::Unknown { reason } => {
                    prop_assert!(reason.contains("budget exhausted"), "reason: {}", reason);
                }
                CheckResult::Unsat => prop_assert!(
                    !truth.is_sat(),
                    "step {} budgeted Unsat but truth Sat",
                    i
                ),
                CheckResult::Sat(model) => {
                    prop_assert!(truth.is_sat(), "step {i} budgeted Sat but truth Unsat");
                    prop_assert!(model_satisfies(&g, &terms, &model));
                }
            }
        }
    }
}
