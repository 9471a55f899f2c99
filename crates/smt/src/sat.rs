//! A CDCL SAT solver.
//!
//! Standard modern architecture, sized for the formulas the concolic engine
//! produces (thousands of variables, tens of thousands of clauses):
//!
//! * two-watched-literal unit propagation;
//! * first-UIP conflict analysis with clause learning and
//!   non-chronological backjumping;
//! * EVSIDS variable activities, branching on the most active variable;
//! * phase saving;
//! * Luby-sequence restarts;
//! * LBD ("glue") scoring of learnt clauses with two-tier learnt-database
//!   reduction at restarts (glue clauses are permanent, the worse half of
//!   the rest is dropped once the database crosses its growth threshold).
//!
//! Every solve is one-shot: the word-level [`crate::Solver`] builds a
//! fresh `SatSolver` per query, so nothing here is kept between queries.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: variable plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    #[must_use]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal.
    #[must_use]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "¬x{}", self.var().0)
        }
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; query assignments via [`SatSolver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The [`SolveBudget`] ran out before the search reached an answer.
    /// The solver state is mid-search; only restarting gives a definite
    /// answer.
    Unknown,
}

/// A resource budget for one [`SatSolver::solve_budgeted`] call.
///
/// Both limits count work done *within the call* (not over the solver's
/// lifetime); `None` means unlimited. The default budget is unlimited,
/// which makes [`SatSolver::solve`] the classic run-to-completion CDCL.
///
/// A budgeted solve is *sound but incomplete*: when it answers
/// [`SatOutcome::Sat`] or [`SatOutcome::Unsat`] the answer is exactly
/// what the unbudgeted solve would return; when the budget runs out it
/// answers [`SatOutcome::Unknown`] instead of looping on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum CDCL conflicts before giving up.
    pub max_conflicts: Option<u64>,
    /// Maximum branching decisions before giving up.
    pub max_decisions: Option<u64>,
}

impl SolveBudget {
    /// The unlimited budget (run to completion).
    pub const UNLIMITED: SolveBudget = SolveBudget {
        max_conflicts: None,
        max_decisions: None,
    };

    /// A budget capping only conflicts.
    #[must_use]
    pub fn conflicts(max: u64) -> SolveBudget {
        SolveBudget {
            max_conflicts: Some(max),
            max_decisions: None,
        }
    }

    /// `true` if no limit is set (the production default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none() && self.max_decisions.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unset,
    True,
    False,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Learnt (eligible for reduction) vs. original (permanent).
    learnt: bool,
    /// Literal-block distance at learn time (0 for originals).
    lbd: u32,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use soccar_smt::sat::{Lit, SatOutcome, SatSolver, Var};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatOutcome::Sat);
/// assert_eq!(s.value(a), Some(false));
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // per literal index: clause indices
    assigns: Vec<Assign>,
    levels: Vec<u32>,
    reasons: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    occurs: Vec<bool>, // var appears in at least one clause
    unsat: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    learnt_literals: u64,
    /// Luby restart multiplier (conflicts before the first restart).
    restart_base: u64,
    /// Learnt clauses accumulated before the first two-tier database
    /// reduction; the threshold then grows by 1.5x per reduction.
    reduce_base: u64,
    /// Live learnt clauses (maintained across learning and deletion).
    num_learnts: usize,
    /// Learnt count that triggers the next reduction (0 = use
    /// `reduce_base`).
    reduce_threshold: u64,
    restarts: u64,
    learnt_deleted: u64,
    learnt_kept: u64,
}

const VAR_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            occurs: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            learnt_literals: 0,
            restart_base: 100,
            reduce_base: 2000,
            num_learnts: 0,
            reduce_threshold: 0,
            restarts: 0,
            learnt_deleted: 0,
            learnt_kept: 0,
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learnt).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Conflicts encountered so far (diagnostics).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Branching decisions made so far (diagnostics).
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Literals propagated by unit propagation so far (diagnostics).
    #[must_use]
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Total literals across all learnt clauses so far (diagnostics).
    #[must_use]
    pub fn learnt_literals(&self) -> u64 {
        self.learnt_literals
    }

    /// Restarts performed so far (diagnostics).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Learnt clauses deleted by two-tier database reduction so far.
    #[must_use]
    pub fn learnt_deleted(&self) -> u64 {
        self.learnt_deleted
    }

    /// Learnt clauses retained, summed over reduction passes.
    #[must_use]
    pub fn learnt_kept(&self) -> u64 {
        self.learnt_kept
    }

    fn reduce_limit(&self) -> u64 {
        if self.reduce_threshold == 0 {
            self.reduce_base.max(8)
        } else {
            self.reduce_threshold
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unset);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.occurs.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Adds a clause. An empty clause makes the instance trivially unsat.
    ///
    /// Adding a clause invalidates the model of a previous solve: the
    /// trail is retracted to decision level 0 first, so the clause is
    /// simplified against (and any unit enqueued on) level-0 state only.
    /// A unit landed on a stale search trail would be popped — and
    /// silently lost — by the next solve's entry backtrack.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        self.backtrack(0);
        // Every mentioned variable gets a defined model value, even if the
        // clause itself is dropped below (tautology / already satisfied).
        for l in lits {
            self.occurs[l.var().0 as usize] = true;
        }
        // Deduplicate and check for tautology.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // x ∨ ¬x: tautology
        }
        // Drop literals already false at level 0; satisfied clauses vanish.
        ls.retain(|l| !(self.value_lit(*l) == Some(false) && self.levels[l.var().0 as usize] == 0));
        if ls
            .iter()
            .any(|l| self.value_lit(*l) == Some(true) && self.levels[l.var().0 as usize] == 0)
        {
            return;
        }
        match ls.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(ls[0], None) {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[ls[0].negate().index()].push(idx);
                self.watches[ls[1].negate().index()].push(idx);
                self.clauses.push(Clause {
                    lits: ls,
                    learnt: false,
                    lbd: 0,
                });
            }
        }
    }

    /// The model value of `v` after [`SatSolver::solve`] returned `Sat`.
    ///
    /// `Sat` models are *partial* over variables that occur in no clause:
    /// such variables are never branched on (see `pick_branch`) and stay
    /// `None`. Callers needing a total assignment pick their own default
    /// — the bit-blaster's `model_bits` defaults unconstrained bits to
    /// `false`.
    #[must_use]
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.0 as usize] {
            Assign::Unset => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_pos())
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) -> bool {
        match self.value_lit(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var().0 as usize;
                self.assigns[v] = if l.is_pos() {
                    Assign::True
                } else {
                    Assign::False
                };
                self.levels[v] = self.decision_level();
                self.reasons[v] = reason;
                self.phase[v] = l.is_pos();
                self.trail.push(l);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ¬l need a new watch or produce units.
            let mut watch_list = std::mem::take(&mut self.watches[l.index()]);
            let mut keep = Vec::with_capacity(watch_list.len());
            let mut conflict = None;
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                i += 1;
                let false_lit = l.negate();
                // Normalize: watched literal in position 1.
                {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci as usize].lits[0];
                if self.value_lit(first) == Some(true) {
                    keep.push(ci);
                    continue;
                }
                // Find a new watch.
                let mut found = None;
                {
                    let c = &self.clauses[ci as usize];
                    for (k, cand) in c.lits.iter().enumerate().skip(2) {
                        if self.value_lit(*cand) != Some(false) {
                            found = Some(k);
                            break;
                        }
                    }
                }
                if let Some(k) = found {
                    let c = &mut self.clauses[ci as usize];
                    c.lits.swap(1, k);
                    let new_watch = c.lits[1];
                    self.watches[new_watch.negate().index()].push(ci);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                keep.push(ci);
                if !self.enqueue(first, Some(ci)) {
                    conflict = Some(ci);
                    // Keep the remaining watchers.
                    keep.extend_from_slice(&watch_list[i..]);
                    break;
                }
            }
            watch_list.clear();
            debug_assert!(self.watches[l.index()].is_empty());
            self.watches[l.index()] = keep;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > ACTIVITY_RESCALE {
            for act in &mut self.activity {
                *act /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 reserved for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        loop {
            // Visit the reason clause.
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[conflict as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var().0 as usize;
                if !seen[v] && self.levels[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.levels[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("resolvent literal").var().0 as usize;
            seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("uip").negate();
                break;
            }
            conflict = self.reasons[pv].expect("non-decision has a reason");
        }
        // Backjump level: second-highest level in the learnt clause.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in position 1 for watching.
        if learnt.len() > 1 {
            let pos = 1 + learnt[1..]
                .iter()
                .position(|l| self.levels[l.var().0 as usize] == bt)
                .expect("literal at backjump level");
            learnt.swap(1, pos);
        }
        // LBD ("glue"): distinct decision levels across the learnt
        // clause, computed before backtracking unassigns the UIP.
        let mut lvls: Vec<u32> = learnt
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .collect();
        lvls.sort_unstable();
        lvls.dedup();
        let lbd = lvls.len() as u32;
        (learnt, bt, lbd)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level to pop");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                let v = l.var().0 as usize;
                self.assigns[v] = Assign::Unset;
                self.reasons[v] = None;
            }
        }
        // Clamp only: literals enqueued at the target level but not yet
        // propagated (units from `add_clause`) must stay queued, or their
        // consequences — including level-0 conflicts — are missed.
        self.prop_head = self.trail.len().min(self.prop_head);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // Lazy max-activity scan (instances are small enough); ties go to
        // the lowest-numbered variable. Variables in no clause are never
        // branched on: they cannot contribute to a conflict, so the model
        // is simply left partial over them (see `value`) and callers
        // choose the default.
        let mut best: Option<Var> = None;
        let mut best_act = -1.0;
        for v in 0..self.num_vars() {
            if self.occurs[v] && self.assigns[v] == Assign::Unset && self.activity[v] > best_act {
                best_act = self.activity[v];
                best = Some(Var(v as u32));
            }
        }
        best.map(|v| Lit::new(v, self.phase[v.0 as usize]))
    }

    /// Decides satisfiability of the accumulated clauses, running the
    /// search to completion (an unlimited [`SolveBudget`]).
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_budgeted(SolveBudget::UNLIMITED)
    }

    /// Like [`SatSolver::solve`], but gives up with [`SatOutcome::Unknown`]
    /// once the budget's conflict or decision limit is reached. Limits
    /// count work done within this call, so re-invoking with a fresh
    /// budget continues the search (learnt clauses are kept).
    pub fn solve_budgeted(&mut self, budget: SolveBudget) -> SatOutcome {
        // Retract whatever a previous call left on the trail.
        self.backtrack(0);
        if self.unsat {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatOutcome::Unsat;
        }
        let conflicts_at_entry = self.conflicts;
        let decisions_at_entry = self.decisions;
        let restart_base = self.restart_base.max(1);
        let mut luby_idx = 1u64;
        let mut conflicts_until_restart = restart_base * luby(luby_idx);
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return SatOutcome::Unsat;
                    }
                    let (learnt, bt, lbd) = self.analyze(conflict);
                    self.learnt_literals += learnt.len() as u64;
                    self.backtrack(bt);
                    if learnt.len() == 1 {
                        let ok = self.enqueue(learnt[0], None);
                        debug_assert!(ok, "learnt unit must be enqueueable");
                    } else {
                        let idx = self.clauses.len() as u32;
                        self.watches[learnt[0].negate().index()].push(idx);
                        self.watches[learnt[1].negate().index()].push(idx);
                        let first = learnt[0];
                        self.clauses.push(Clause {
                            lits: learnt,
                            learnt: true,
                            lbd,
                        });
                        self.num_learnts += 1;
                        let ok = self.enqueue(first, Some(idx));
                        debug_assert!(ok, "uip literal must be enqueueable");
                    }
                    self.var_inc /= VAR_DECAY;
                    // Budget check sits after clause learning so an
                    // interrupted search still keeps what it learnt.
                    if budget
                        .max_conflicts
                        .is_some_and(|max| self.conflicts - conflicts_at_entry >= max)
                    {
                        self.backtrack(0);
                        return SatOutcome::Unknown;
                    }
                    conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                    if conflicts_until_restart == 0 {
                        luby_idx += 1;
                        conflicts_until_restart = restart_base * luby(luby_idx);
                        self.restarts += 1;
                        self.backtrack(0);
                        if self.num_learnts as u64 >= self.reduce_limit() {
                            self.reduce();
                            if self.unsat {
                                return SatOutcome::Unsat;
                            }
                        }
                    }
                }
                None => match self.pick_branch() {
                    None => return SatOutcome::Sat,
                    Some(decision) => {
                        if budget
                            .max_decisions
                            .is_some_and(|max| self.decisions - decisions_at_entry >= max)
                        {
                            self.backtrack(0);
                            return SatOutcome::Unknown;
                        }
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(decision, None);
                        debug_assert!(ok, "decision variable was unset");
                    }
                },
            }
        }
    }

    /// Level-0 maintenance at a restart: simplify every clause against
    /// the level-0 assignment, drop the worse half of the non-glue learnt
    /// clauses, then compact the clause database and rebuild the watch
    /// lists.
    fn reduce(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        // Close the level-0 assignment first (valid watches required).
        if self.propagate().is_some() {
            self.unsat = true;
            return;
        }
        let mut deleted = vec![false; self.clauses.len()];
        if !self.simplify_pass(&mut deleted) {
            return;
        }
        self.reduce_learnts(&mut deleted);
        self.compact(&deleted);
    }

    fn unlink(&mut self, ci: usize, deleted: &mut [bool]) {
        if deleted[ci] {
            return;
        }
        deleted[ci] = true;
        if self.clauses[ci].learnt {
            self.num_learnts -= 1;
        }
    }

    /// Simplifies every clause against the (permanent) level-0
    /// assignment to fixpoint: satisfied clauses are dropped, false
    /// literals stripped, new units enqueued directly. Scanning every
    /// clause per pass is complete unit propagation, so the stale watch
    /// lists are never consulted. Returns `false` on a level-0 conflict
    /// (the solver is latched unsat).
    fn simplify_pass(&mut self, deleted: &mut [bool]) -> bool {
        loop {
            let trail_before = self.trail.len();
            for ci in 0..self.clauses.len() {
                if deleted[ci] {
                    continue;
                }
                let mut satisfied = false;
                let mut has_false = false;
                for &l in &self.clauses[ci].lits {
                    match self.value_lit(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => has_false = true,
                        None => {}
                    }
                }
                if satisfied {
                    self.unlink(ci, deleted);
                    continue;
                }
                if !has_false {
                    continue;
                }
                let mut lits = std::mem::take(&mut self.clauses[ci].lits);
                lits.retain(|&l| self.value_lit(l) != Some(false));
                match lits.len() {
                    0 => {
                        self.unsat = true;
                        return false;
                    }
                    1 => {
                        let unit = lits[0];
                        self.clauses[ci].lits = lits;
                        self.unlink(ci, deleted);
                        if !self.enqueue(unit, None) {
                            self.unsat = true;
                            return false;
                        }
                    }
                    _ => self.clauses[ci].lits = lits,
                }
            }
            if self.trail.len() == trail_before {
                return true;
            }
        }
    }

    /// Two-tier learnt reduction: glue clauses (LBD ≤ 2) are permanent;
    /// of the rest, the worse half (highest LBD first, oldest first
    /// among equals) is deleted.
    fn reduce_learnts(&mut self, deleted: &mut [bool]) {
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| !deleted[i] && self.clauses[i].learnt && self.clauses[i].lbd > 2)
            .collect();
        cands.sort_by(|&a, &b| {
            self.clauses[b]
                .lbd
                .cmp(&self.clauses[a].lbd)
                .then(a.cmp(&b))
        });
        let drop_n = cands.len() / 2;
        for &ci in &cands[..drop_n] {
            self.unlink(ci, deleted);
            self.learnt_deleted += 1;
        }
        self.learnt_kept += self.num_learnts as u64;
        let lim = self.reduce_limit();
        self.reduce_threshold = lim + lim / 2;
    }

    /// Drops deleted clauses and rebuilds the watch lists from scratch.
    /// Precondition (established by `simplify_pass`): no surviving
    /// clause mentions an assigned variable, so watching the first two
    /// literals is sound. Level-0 reasons are cleared — conflict
    /// analysis only dereferences reasons above level 0, so no dangling
    /// clause index survives the compaction.
    fn compact(&mut self, deleted: &[bool]) {
        debug_assert_eq!(self.decision_level(), 0);
        let old = std::mem::take(&mut self.clauses);
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in old.into_iter().enumerate() {
            if deleted[i] {
                continue;
            }
            debug_assert!(c.lits.len() >= 2, "unit/empty clause survived simplify");
            let idx = self.clauses.len() as u32;
            self.watches[c.lits[0].negate().index()].push(idx);
            self.watches[c.lits[1].negate().index()].push(idx);
            self.clauses.push(c);
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().0 as usize;
            self.reasons[v] = None;
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautologies_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::neg(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn chain_propagation() {
        // a ∧ (¬a∨b) ∧ (¬b∨c) ∧ (¬c∨d) forces all true.
        let mut s = SatSolver::new();
        let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vs[0])]);
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        for v in vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT requiring real search.
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][hole]), Lit::neg(p[j][hole])]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // (a⊕b)=1, (b⊕c)=1, a=1 → b=0, c=1.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let xor = |s: &mut SatSolver, x: Var, y: Var| {
            s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
            s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
        };
        xor(&mut s, a, b);
        xor(&mut s, b, c);
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
        assert_eq!(s.value(c), Some(true));
    }

    fn pigeonhole(pigeons: usize, holes: usize) -> SatSolver {
        let mut s = SatSolver::new();
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &vars {
            let lits: Vec<Lit> = row.iter().map(|v| Lit::pos(*v)).collect();
            s.add_clause(&lits);
        }
        for (i, row_i) in vars.iter().enumerate() {
            for row_j in &vars[i + 1..] {
                for (vi, vj) in row_i.iter().zip(row_j) {
                    s.add_clause(&[Lit::neg(*vi), Lit::neg(*vj)]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_yields_unknown_on_hard_unsat() {
        let mut s = pigeonhole(6, 5);
        assert_eq!(
            s.solve_budgeted(SolveBudget::conflicts(1)),
            SatOutcome::Unknown
        );
        assert!(s.conflicts() >= 1);
        // Resuming with no budget still reaches the right answer — the
        // interrupted search kept its learnt clauses.
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn decision_budget_yields_unknown() {
        let mut s = pigeonhole(6, 5);
        let budget = SolveBudget {
            max_conflicts: None,
            max_decisions: Some(1),
        };
        assert_eq!(s.solve_budgeted(budget), SatOutcome::Unknown);
        assert_eq!(s.decisions(), 1);
    }

    #[test]
    fn generous_budget_agrees_with_unbudgeted() {
        let mut a = pigeonhole(4, 3);
        let mut b = pigeonhole(4, 3);
        let budget = SolveBudget {
            max_conflicts: Some(1_000_000),
            max_decisions: Some(1_000_000),
        };
        assert_eq!(a.solve_budgeted(budget), b.solve());
        assert!(SolveBudget::default().is_unlimited());
        assert!(!SolveBudget::conflicts(5).is_unlimited());
    }

    #[test]
    fn units_added_after_a_sat_call_stick() {
        // add_clause used to enqueue new units on the previous call's
        // stale Sat trail; the next solve's entry backtrack then dropped
        // them (or, if the trail falsified the unit, the instance was
        // wrongly latched permanently unsat).
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.value(b), Some(true));
        // The stale trail has b = true, which falsifies this new unit.
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), Some(false));
        // And the unit is a real hard clause, not a lost enqueue.
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn pending_level0_units_propagate_at_solve_entry() {
        // The entry backtrack(0) of a solve must not advance the
        // propagation head past units that add_clause enqueued at level 0
        // but nothing has propagated yet — skipping them here leaves the
        // binary clause below with both watches false and unscanned,
        // turning this Unsat instance into a wrong Sat.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::pos(b)]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn models_are_partial_over_nonoccurring_vars() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let lonely = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert_eq!(s.value(a), Some(true));
        // `lonely` occurs in no clause: never branched on, stays unset.
        assert_eq!(s.value(lonely), None);
    }

    #[test]
    fn aggressive_reduction_keeps_correctness() {
        // A tiny reduce_base + restart_base forces restarts and learnt-DB
        // reductions mid-search on a hard UNSAT instance.
        let mut s = pigeonhole(6, 5);
        s.restart_base = 2;
        s.reduce_base = 8;
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(s.restarts() > 0, "expected restarts under base 2");
        assert!(s.learnt_deleted() > 0, "expected learnt-DB reductions");
    }

    #[test]
    fn random_3sat_brute_force_agreement() {
        // Deterministic pseudo-random instances cross-checked against
        // exhaustive enumeration (≤ 12 vars).
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..40 {
            let n_vars = 4 + (rng() % 9) as usize; // 4..=12
            let n_clauses = 2 + (rng() % (3 * n_vars as u64 + 1)) as usize;
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = (rng() % n_vars as u64) as u32;
                    let pos = rng() % 2 == 0;
                    c.push(Lit::new(Var(v), pos));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0u64..(1 << n_vars) {
                for c in &clauses {
                    if !c.iter().any(|l| ((m >> l.var().0) & 1 == 1) == l.is_pos()) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = SatSolver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve() == SatOutcome::Sat;
            assert_eq!(got, brute_sat, "round {round} disagreed");
            if got {
                // Verify the model satisfies every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(l.is_pos())),
                        "model violates clause in round {round}"
                    );
                }
            }
        }
    }
}
