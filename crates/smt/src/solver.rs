//! Word-level solver front-end: assert 1-bit terms, check, extract models.

use std::collections::HashMap;
use std::fmt;

use crate::bitblast::BitBlaster;
use crate::bv::BvVal;
use crate::sat::{SatOutcome, SolveBudget};
use crate::term::{Term, TermGraph, TermId};

/// A satisfying assignment for the asserted formula.
///
/// Every variable term of the graph gets a value (unconstrained bits are
/// zero), so models can be replayed deterministically as concrete stimuli.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<TermId, BvVal>,
}

impl Model {
    /// The value assigned to variable term `var`.
    #[must_use]
    pub fn value(&self, var: TermId) -> Option<&BvVal> {
        self.values.get(&var)
    }

    /// Iterates over `(variable term, value)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &BvVal)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// Number of assigned variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the model assigns no variables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Result of [`Solver::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Satisfiable, with a full model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver's [`SolveBudget`] ran out before the search finished.
    /// Sound but incomplete: callers must treat this as "no answer", not
    /// as either Sat or Unsat. Only produced when a budget is configured.
    Unknown {
        /// Human-readable cause (`budget exhausted: 512 conflicts`),
        /// surfaced in degraded-health reports.
        reason: String,
    },
}

impl CheckResult {
    /// The model if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        match self {
            CheckResult::Sat(m) => Some(m),
            CheckResult::Unsat | CheckResult::Unknown { .. } => None,
        }
    }

    /// `true` if satisfiable.
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    /// `true` if the budget ran out before an answer was reached.
    #[must_use]
    pub fn is_unknown(&self) -> bool {
        matches!(self, CheckResult::Unknown { .. })
    }
}

/// Statistics from one `check` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// SAT variables created by bit-blasting.
    pub sat_vars: usize,
    /// CNF clauses created.
    pub sat_clauses: usize,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL branching decisions.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Total literals across learnt clauses.
    pub learnt_literals: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by two-tier database reduction.
    pub learnt_deleted: u64,
    /// Learnt clauses retained, summed over reduction passes.
    pub learnt_kept: u64,
}

/// A one-shot bit-vector solver over a [`TermGraph`].
///
/// Every [`Solver::check`] bit-blasts the assertions into a fresh CDCL
/// instance; nothing is carried between checks. The graph is only read,
/// so many solvers can check against one shared graph at once.
///
/// # Examples
///
/// ```
/// use soccar_smt::{CheckResult, Solver, TermGraph};
///
/// let mut g = TermGraph::new();
/// let x = g.var("x", 8);
/// let c = g.const_u64(8, 5);
/// let sum = g.add(x, c);
/// let target = g.const_u64(8, 42);
/// let eq = g.eq(sum, target);
///
/// let mut solver = Solver::new();
/// solver.assert(eq);
/// match solver.check(&g) {
///     CheckResult::Sat(model) => {
///         assert_eq!(model.value(x).and_then(|v| v.to_u64()), Some(37));
///     }
///     other => unreachable!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    assertions: Vec<TermId>,
    budget: SolveBudget,
    last_stats: SolveStats,
}

impl Solver {
    /// Creates a solver with no assertions and an unlimited budget.
    #[must_use]
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Creates a solver with no assertions and the given [`SolveBudget`].
    /// An exhausted budget makes [`Solver::check`] return
    /// [`CheckResult::Unknown`] instead of searching forever.
    #[must_use]
    pub fn with_budget(budget: SolveBudget) -> Solver {
        Solver {
            budget,
            ..Solver::default()
        }
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// Replaces the budget for subsequent checks.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// Adds a 1-bit assertion.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
    }

    /// Current assertions.
    #[must_use]
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Statistics of the most recent [`Solver::check`].
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.last_stats
    }

    /// Decides the conjunction of all assertions.
    ///
    /// # Panics
    ///
    /// Panics if any assertion is not a 1-bit term of `graph`.
    pub fn check(&mut self, graph: &TermGraph) -> CheckResult {
        self.check_traced(graph, &soccar_obs::Recorder::disabled())
    }

    /// Like [`Solver::check`] under an observability recorder: bumps the
    /// `smt.queries` counter and one of `smt.sat` / `smt.unsat` /
    /// `smt.unknown`, feeds the query's [`SolveStats`] into the
    /// `smt.sat_vars`, `smt.sat_clauses`, `smt.conflicts`,
    /// `smt.propagations` and `smt.learnt_literals` histograms, and bumps
    /// the CDCL-dynamics counters `smt.restarts`, `smt.learnt_kept` and
    /// `smt.learnt_deleted` when they are nonzero.
    ///
    /// Metrics only — no span is opened, so this is safe to call from
    /// worker threads: counter increments and histogram merges commute,
    /// and the concolic engine solves the same query set regardless of
    /// job count, keeping traces deterministic.
    ///
    /// # Panics
    ///
    /// As [`Solver::check`].
    pub fn check_traced(
        &mut self,
        graph: &TermGraph,
        recorder: &soccar_obs::Recorder,
    ) -> CheckResult {
        let result = self.check_inner(graph);
        recorder.counter_add("smt.queries", 1);
        recorder.counter_add(
            match &result {
                CheckResult::Sat(_) => "smt.sat",
                CheckResult::Unsat => "smt.unsat",
                CheckResult::Unknown { .. } => "smt.unknown",
            },
            1,
        );
        let st = self.last_stats;
        recorder.histogram_record("smt.sat_vars", st.sat_vars as u64);
        recorder.histogram_record("smt.sat_clauses", st.sat_clauses as u64);
        recorder.histogram_record("smt.conflicts", st.conflicts);
        recorder.histogram_record("smt.propagations", st.propagations);
        recorder.histogram_record("smt.learnt_literals", st.learnt_literals);
        for (name, n) in [
            ("smt.restarts", st.restarts),
            ("smt.learnt_kept", st.learnt_kept),
            ("smt.learnt_deleted", st.learnt_deleted),
        ] {
            if n > 0 {
                recorder.counter_add(name, n);
            }
        }
        result
    }

    fn check_inner(&mut self, graph: &TermGraph) -> CheckResult {
        // Fast path: constant assertions.
        if self
            .assertions
            .iter()
            .any(|t| graph.as_const(*t).is_some_and(BvVal::is_zero))
        {
            self.last_stats = SolveStats::default();
            return CheckResult::Unsat;
        }
        let mut bb = BitBlaster::new();
        for t in &self.assertions {
            bb.assert_true(graph, *t);
        }
        // Blast every variable so the model is total.
        for v in graph.vars() {
            bb.blast(graph, *v);
        }
        let outcome = bb.solver.solve_budgeted(self.budget);
        self.last_stats = SolveStats {
            sat_vars: bb.solver.num_vars(),
            sat_clauses: bb.solver.num_clauses(),
            conflicts: bb.solver.conflicts(),
            decisions: bb.solver.decisions(),
            propagations: bb.solver.propagations(),
            learnt_literals: bb.solver.learnt_literals(),
            restarts: bb.solver.restarts(),
            learnt_deleted: bb.solver.learnt_deleted(),
            learnt_kept: bb.solver.learnt_kept(),
        };
        match outcome {
            SatOutcome::Unsat => CheckResult::Unsat,
            SatOutcome::Sat => {
                let mut values = HashMap::new();
                for v in graph.vars() {
                    let bits = bb.model_bits(*v).expect("variable was blasted");
                    values.insert(*v, BvVal::from_bits(&bits));
                }
                CheckResult::Sat(Model { values })
            }
            SatOutcome::Unknown => CheckResult::Unknown {
                reason: format!(
                    "solver budget exhausted ({} conflicts, {} decisions)",
                    self.last_stats.conflicts, self.last_stats.decisions
                ),
            },
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.values.iter().collect();
        entries.sort_by_key(|(id, _)| id.0);
        for (id, v) in entries {
            writeln!(f, "{id} = {v}")?;
        }
        Ok(())
    }
}

/// Validates a model against the assertions using the reference evaluator
/// (used by tests and the concolic engine's self-checks).
#[must_use]
pub fn model_satisfies(graph: &TermGraph, assertions: &[TermId], model: &Model) -> bool {
    let env: HashMap<TermId, BvVal> = model.iter().map(|(k, v)| (k, v.clone())).collect();
    assertions.iter().all(|t| {
        // Any variable not in the model (created after check) defaults 0.
        let mut env = env.clone();
        collect_missing_vars(graph, *t, &mut env);
        !graph.eval(*t, &env).is_zero()
    })
}

fn collect_missing_vars(graph: &TermGraph, t: TermId, env: &mut HashMap<TermId, BvVal>) {
    match graph.term(t) {
        Term::Var(_) => {
            env.entry(t).or_insert_with(|| BvVal::zeros(graph.width(t)));
        }
        Term::Const(_) => {}
        Term::Not(a) | Term::RedAnd(a) | Term::RedOr(a) | Term::RedXor(a) => {
            collect_missing_vars(graph, *a, env);
        }
        Term::Extract { arg, .. } | Term::ZExt { arg, .. } => {
            collect_missing_vars(graph, *arg, env);
        }
        Term::And(a, b)
        | Term::Or(a, b)
        | Term::Xor(a, b)
        | Term::Add(a, b)
        | Term::Sub(a, b)
        | Term::Mul(a, b)
        | Term::Udiv(a, b)
        | Term::Urem(a, b)
        | Term::Shl(a, b)
        | Term::Lshr(a, b)
        | Term::Ashr(a, b)
        | Term::Eq(a, b)
        | Term::Ult(a, b)
        | Term::Ule(a, b)
        | Term::Concat(a, b) => {
            collect_missing_vars(graph, *a, env);
            collect_missing_vars(graph, *b, env);
        }
        Term::Ite(c, t2, e) => {
            collect_missing_vars(graph, *c, env);
            collect_missing_vars(graph, *t2, env);
            collect_missing_vars(graph, *e, env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_with_model() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let y = g.var("y", 16);
        let sum = g.add(x, y);
        let c = g.const_u64(16, 1000);
        let eq = g.eq(sum, c);
        let c400 = g.const_u64(16, 400);
        let xeq = g.eq(x, c400);
        let mut s = Solver::new();
        s.assert(eq);
        s.assert(xeq);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.value(x).and_then(BvVal::to_u64), Some(400));
        assert_eq!(m.value(y).and_then(BvVal::to_u64), Some(600));
        assert!(model_satisfies(&g, s.assertions(), m));
        assert!(s.stats().sat_vars > 0);
    }

    #[test]
    fn unsat_contradiction() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::new();
        s.assert(e1);
        s.assert(e2);
        assert_eq!(s.check(&g), CheckResult::Unsat);
    }

    #[test]
    fn constant_false_fast_path() {
        let mut g = TermGraph::new();
        let f = g.fls();
        let mut s = Solver::new();
        s.assert(f);
        assert_eq!(s.check(&g), CheckResult::Unsat);
        assert_eq!(s.stats().sat_vars, 0);
    }

    #[test]
    fn unconstrained_variables_get_defaults() {
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let _unused = g.var("unused", 4);
        let c = g.const_u64(8, 3);
        let eq = g.eq(x, c);
        let mut s = Solver::new();
        s.assert(eq);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.len(), 2);
        assert!(m.value(_unused).is_some());
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut g = TermGraph::new();
        let x = g.var("x", 16);
        let y = g.var("y", 16);
        let sum = g.add(x, y);
        let c = g.const_u64(16, 1000);
        let eq = g.eq(sum, c);
        // A zero-decision budget forces Unknown on anything propagation
        // alone cannot decide.
        let mut s = Solver::with_budget(SolveBudget {
            max_conflicts: None,
            max_decisions: Some(0),
        });
        s.assert(eq);
        let r = s.check(&g);
        assert!(r.is_unknown());
        assert!(r.model().is_none());
        match &r {
            CheckResult::Unknown { reason } => assert!(reason.contains("budget exhausted")),
            other => unreachable!("{other:?}"),
        }
        // Lifting the budget recovers the definite answer.
        s.set_budget(SolveBudget::UNLIMITED);
        assert!(s.check(&g).is_sat());
    }

    #[test]
    fn unsat_is_still_definite_under_a_budget() {
        // The level-0/fast-path Unsat answers do not consume budget.
        let mut g = TermGraph::new();
        let x = g.var("x", 8);
        let c1 = g.const_u64(8, 1);
        let c2 = g.const_u64(8, 2);
        let e1 = g.eq(x, c1);
        let e2 = g.eq(x, c2);
        let mut s = Solver::with_budget(SolveBudget::conflicts(1));
        s.assert(e1);
        s.assert(e2);
        assert_eq!(s.check(&g), CheckResult::Unsat);
        assert_eq!(s.budget(), SolveBudget::conflicts(1));
    }

    #[test]
    fn reset_style_constraint() {
        // The shape Algorithm 3 solves: clock-edge and reset equivalences.
        // (clk == 1) ∧ (rst_n == 0) ∧ (state == BUSY)
        let mut g = TermGraph::new();
        let clk = g.var("clk", 1);
        let rst_n = g.var("rst_n", 1);
        let state = g.var("state", 2);
        let one = g.tru();
        let zero = g.fls();
        let busy = g.const_u64(2, 2);
        let c1 = g.eq(clk, one);
        let c2 = g.eq(rst_n, zero);
        let c3 = g.eq(state, busy);
        let mut s = Solver::new();
        s.assert(c1);
        s.assert(c2);
        s.assert(c3);
        let r = s.check(&g);
        let m = r.model().expect("sat");
        assert_eq!(m.value(clk).and_then(BvVal::to_u64), Some(1));
        assert_eq!(m.value(rst_n).and_then(BvVal::to_u64), Some(0));
        assert_eq!(m.value(state).and_then(BvVal::to_u64), Some(2));
    }
}
