//! The concolic testing engine — the paper's **Algorithm 3**.
//!
//! Each *round* is one concrete simulation of the SoC with a symbolic
//! shadow riding along ([`crate::coalg::CoAlgebra`]):
//!
//! 1. Round 1 drives random inputs with registers initialized to all-ones
//!    (so un-cleared registers are visible), and a power-on pulse on every
//!    controllable reset domain.
//! 2. During the run, every branch whose condition depends on a symbolic
//!    input (reset lines and selected data inputs are symbolic, fresh
//!    variables per cycle) is logged; security properties ("Restricts")
//!    are checked every cycle and produce *invalidation messages* naming
//!    the violating module.
//! 3. After a round, if a target event of the AR_CFG is still uncovered,
//!    the engine picks one of its branch occurrences, conjoins the path
//!    prefix with the flipped condition — clock edges and reset tests are
//!    already equivalences over per-cycle input variables, exactly the
//!    transformation the paper describes — and asks the solver for a new
//!    input schedule. Every candidate is one one-shot query against the
//!    round's own term graph. The decision walk solves the candidates of
//!    the target it reaches one at a time, on the calling thread, in
//!    stable order, and stops at the first Sat: no candidate the walk
//!    does not read is solved.
//! 4. Once coverage saturates (or no flip is solvable), a systematic
//!    *reset sweep* moves an asynchronous pulse across every cycle of
//!    every domain, exploring the reset-timing space the paper calls
//!    "prohibitive" for plain dynamic validation — here it is tractable
//!    because the AR_CFG restricts attention to reset-governed logic.
//!    Sweep rounds plan no flips, so they run on the simulator's
//!    [`ConcreteAlgebra`] (branch coverage only, no terms).
//!    Each round is a pure function of its `(domain, cycle, seed)`
//!    schedule, and every domain's round at pulse cycle `at` shares its
//!    first `at` cycles: each position simulates that prefix once and
//!    forks one simulator clone per domain ([`SweepPosition`]).
//!    No sweep round reads anything the coverage rounds produce, so the
//!    sweep runs *beside* them: [`ConcolicEngine::run`] hands the
//!    positions of both phases to `jobs − 1` workers (fewer when there
//!    are fewer positions, but one even for a lone position) while the
//!    calling thread runs the coverage loop, then joins the workers until
//!    every position is done ([`soccar_exec::parallel_map_beside`]). The
//!    sweep's rounds merge serially after the coverage rounds, in
//!    `(domain, cycle)` order, so reports are identical for every job
//!    count and to running every round from scratch, in the paper's
//!    order.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use soccar_cfg::bind::BoundEvent;
use soccar_cfg::extract::EventArm;
use soccar_exec::{FailurePolicy, FaultPlan, TaskOutcome};
use soccar_rtl::design::{BranchSiteId, Design, NetId, ProcessId};
use soccar_rtl::value::LogicVec;
use soccar_sim::{Algebra, ConcreteAlgebra, InitPolicy, SimResult, Simulator, WakeMap};
use soccar_smt::{CheckResult, SolveBudget, Solver, Term, TermGraph, TermId};

use crate::coalg::{from_bv, BranchObservation, CoAlgebra, RoundAlgebra};
use crate::property::{PropertyMonitor, SecurityProperty, Violation};
use crate::schedule::TestSchedule;

/// The longest simulation horizon [`ConcolicEngine::new`] accepts, in
/// cycles. Every round materializes a per-cycle schedule, and the reset
/// sweep runs one round per pulse cycle, so the sweep's work grows with
/// the square of the horizon (its memory only linearly). At this limit
/// an analysis takes about 30 s on one core in 14 MB for ClusterSoC, and
/// 84 s in 32 MB for AutoSoC; the bundled configurations use 24 cycles
/// at most.
pub const MAX_CYCLES: u64 = 1024;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ConcolicConfig {
    /// Simulation horizon per round, in cycles (at most [`MAX_CYCLES`]).
    pub cycles: u64,
    /// Maximum concolic rounds before the sweep phase.
    pub max_rounds: usize,
    /// Seed for the round-1 random schedule.
    pub seed: u64,
    /// Register initialization policy (the paper uses all-ones).
    pub init: InitPolicy,
    /// Hierarchical names of top-level data inputs to treat symbolically.
    pub symbolic_inputs: Vec<String>,
    /// Stride of the reset sweep (1 = try every cycle).
    pub sweep_stride: u64,
    /// Skip the sweep phase (coverage-only mode, used by ablations).
    pub skip_sweep: bool,
    /// Additional 1-bit asynchronous event lines (hierarchical names of
    /// top-level inputs) to sweep like reset domains — the paper's
    /// future-work extension to "other asynchronous events" (IRQs,
    /// AMS comparator outputs, sensor strobes). Pulsed active-high.
    pub async_events: Vec<String>,
    /// Worker threads for the reset sweep (`0` = auto via
    /// [`soccar_exec::resolve_jobs`]): up to `jobs − 1` workers run its
    /// pulse positions beside the coverage loop, whose flip solves run inline
    /// on the calling thread. Every job count produces bit-identical
    /// reports: sweep rounds are merged in `(domain, cycle)` order, never
    /// completion order.
    pub jobs: usize,
    /// Resource budget for each flip solve. An exhausted budget yields
    /// [`CheckResult::Unknown`], which the engine records as a *skipped*
    /// flip (degrading the round) instead of aborting. Defaults to
    /// unlimited — the classic run-to-completion behavior.
    pub solver_budget: SolveBudget,
    /// What a panicking flip solve does to the run.
    /// [`FailurePolicy::FailFast`] (default) lets the panic propagate;
    /// [`FailurePolicy::KeepGoing`] catches it, records the flip as
    /// failed, degrades the round, and continues — the CLI's
    /// `--keep-going`.
    pub failure_policy: FailurePolicy,
    /// Deterministic fault-injection plan (chaos testing). The engine
    /// consults the points `solver_unknown` and `task_panic:flips`; see
    /// `soccar_exec::FaultPlan`.
    pub fault_plan: FaultPlan,
}

impl Default for ConcolicConfig {
    fn default() -> ConcolicConfig {
        ConcolicConfig {
            cycles: 24,
            max_rounds: 48,
            seed: 0xC0FFEE,
            init: InitPolicy::Ones,
            symbolic_inputs: Vec::new(),
            sweep_stride: 1,
            skip_sweep: false,
            async_events: Vec::new(),
            jobs: 1,
            solver_budget: SolveBudget::UNLIMITED,
            failure_policy: FailurePolicy::FailFast,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Flip attempts per uncovered target per round: the first observations
/// of each site that took the other direction.
const MAX_FLIP_ATTEMPTS: usize = 4;

/// Maximum path-prefix observations conjoined per flip query.
const MAX_PREFIX: usize = 256;

/// What one coverage target demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TargetGoal {
    /// A branch site must be observed taking direction `dir`.
    Site { site: BranchSiteId, dir: bool },
    /// A process (whole-block implicit event) must execute.
    Process(ProcessId),
}

/// A coverage target derived from the AR_CFG.
#[derive(Debug, Clone)]
struct Target {
    goal: TargetGoal,
    /// Index of the controllable domain to pulse, when direct reset
    /// scheduling can reach the target.
    domain_idx: Option<usize>,
}

/// A property violation together with the schedule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Violated property name.
    pub property: String,
    /// The reproducing schedule.
    pub schedule: TestSchedule,
    /// Round (1-based) at which the violation was first observed.
    pub round: usize,
}

/// The outcome of a full engine run.
#[derive(Debug, Clone)]
pub struct ConcolicReport {
    /// Rounds executed (concolic + sweep).
    pub rounds: usize,
    /// Total coverage targets derived from the AR_CFG.
    pub targets_total: usize,
    /// Targets covered.
    pub targets_covered: usize,
    /// Targets proven out of reach of the controllable inputs.
    pub targets_unreachable: usize,
    /// All distinct invalidation messages.
    pub violations: Vec<Violation>,
    /// Round (1-based) at which the first violation was observed.
    pub first_violation_round: Option<usize>,
    /// One witness schedule per violated property.
    pub witnesses: Vec<Witness>,
    /// Flip queries the decision walk solved: every candidate of the
    /// targets it reached, up to and including the consumed one.
    /// Candidates after it are never solved.
    pub solver_calls: usize,
    /// Of which SAT.
    pub solver_sat: usize,
    /// Read flip attempts the solver gave up on (budget exhaustion or an
    /// injected `solver_unknown` fault). Each is a skipped flip, not a
    /// failure; job-count invariant.
    pub solver_unknown: usize,
    /// Flip solves that panicked (kept going under
    /// `FailurePolicy::KeepGoing`); job-count invariant.
    pub flips_failed: usize,
    /// Rounds whose flip planning was degraded (skipped or panicked
    /// flips).
    pub degraded_rounds: usize,
    /// Sorted, deduplicated human-readable degradation reasons. Empty on
    /// a healthy run.
    pub degraded_reasons: Vec<String>,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The flip solves' counters: they run inline, so `jobs` is 1,
    /// `tasks` counts the solves, and `busy` and `elapsed` are their time
    /// (wall-clock measurements; excluded from canonical report
    /// serializations).
    pub flip_exec: soccar_exec::PoolStats,
    /// Utilization counters of the reset-sweep worker pool, one task per
    /// pulse position of either phase (wall-clock measurements; excluded
    /// from canonical report serializations). The pool runs beside the
    /// coverage rounds, so `elapsed` spans them too, `foreground` times
    /// them, and `busy` is the sweep's own compute.
    pub sweep_exec: soccar_exec::PoolStats,
}

impl ConcolicReport {
    /// `true` if any property was violated.
    #[must_use]
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// `true` if the named property was violated.
    #[must_use]
    pub fn violated(&self, property: &str) -> bool {
        self.violations.iter().any(|v| v.property == property)
    }

    /// `true` if any part of the run was degraded (budget-skipped or
    /// panicked flips, dropped monitors). A degraded run's
    /// results are honest but partial: absence of violations is *not*
    /// evidence of cleanliness.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded_reasons.is_empty()
    }

    /// Coverage ratio over reachable targets.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let reachable = self.targets_total - self.targets_unreachable;
        if reachable == 0 {
            1.0
        } else {
            self.targets_covered as f64 / reachable as f64
        }
    }
}

/// The reset-aware concolic engine. See the [module docs](self).
///
/// The engine is two halves: the round context every round reads and
/// none changes, and the walk state that only the coverage loop and
/// the serial merge change. The sweep's workers share the one while the
/// calling thread drives the coverage loop on the other.
#[derive(Debug)]
pub struct ConcolicEngine<'d> {
    ctx: RoundContext<'d>,
    walk: Walk,
}

/// What every round reads, fixed once the engine is built.
#[derive(Debug)]
struct RoundContext<'d> {
    design: &'d Design,
    /// The design's wake map, built once and shared by every round's
    /// simulator.
    wake_map: Arc<WakeMap>,
    /// Property monitors, resolved once; each round re-arms a clone.
    monitors: Vec<PropertyMonitor>,
    /// Degradation reasons of properties whose monitor failed to resolve,
    /// reported by every round that runs without them.
    dropped_monitors: Vec<String>,
    config: ConcolicConfig,
    clocks: Vec<NetId>,
    plain_inputs: Vec<NetId>,
    domains: Vec<(String, NetId, bool)>,
    inputs: Vec<(String, NetId, u32)>,
    targets: Vec<Target>,
    recorder: soccar_obs::Recorder,
    /// Domains owning at least one clock-composed implicit governor
    /// (Refined analysis only); these also get a high-phase sweep.
    clock_composed: Vec<bool>,
    /// Time zero of every sweep round, built on first use: it depends on
    /// the context alone, so each sweep position clones it.
    sweep_start: OnceLock<SimResult<RoundRun<'d, ConcreteAlgebra>>>,
}

/// The decision walk's state: coverage so far, the walk's bookkeeping and
/// the run's counters.
#[derive(Debug)]
struct Walk {
    covered: Vec<bool>,
    unreachable: Vec<bool>,
    pulse_attempts: HashMap<usize, u64>,
    /// Flip candidates numbered so far. Every round numbers all of its
    /// candidates in target order (see `plan_next`), solved or not, so
    /// the numbers are the deterministic index the fault plan keys on.
    flip_seq: u64,
    /// Flip queries the decision walk read (see
    /// [`ConcolicReport::solver_calls`]), and of which Sat.
    solver_calls: usize,
    solver_sat: usize,
    solver_unknown: usize,
    flips_failed: usize,
    degraded_rounds: usize,
    degraded_reasons: BTreeSet<String>,
    flip_stats: soccar_exec::PoolStats,
    sweep_stats: soccar_exec::PoolStats,
}

/// The rounds' merged results, in round order.
#[derive(Debug, Default)]
struct Findings {
    /// Rounds merged so far.
    rounds: usize,
    /// Cycles simulated; a sweep position's shared prefix counts once.
    sim_cycles: u64,
    violations: Vec<Violation>,
    witnesses: Vec<Witness>,
    first_violation_round: Option<usize>,
}

impl Findings {
    /// Merges the next round's violations: each property violated for
    /// the first time keeps `schedule()` as its witness.
    fn merge(&mut self, schedule: impl Fn() -> TestSchedule, fresh: Vec<Violation>) {
        self.rounds += 1;
        for v in fresh {
            if self.violations.iter().any(|e| e.property == v.property) {
                continue;
            }
            self.witnesses.push(Witness {
                property: v.property.clone(),
                schedule: schedule(),
                round: self.rounds,
            });
            self.violations.push(v);
        }
        if self.first_violation_round.is_none() && !self.violations.is_empty() {
            self.first_violation_round = Some(self.rounds);
        }
    }
}

impl<'d> ConcolicEngine<'d> {
    /// Builds an engine from bound AR_CFG events.
    ///
    /// # Errors
    ///
    /// Returns a message if the horizon exceeds [`MAX_CYCLES`], or if a
    /// configured symbolic input does not exist or is not a top-level
    /// input.
    pub fn new(
        design: &'d Design,
        events: &[BoundEvent],
        properties: Vec<SecurityProperty>,
        config: ConcolicConfig,
    ) -> Result<ConcolicEngine<'d>, String> {
        if config.cycles > MAX_CYCLES {
            return Err(format!(
                "input limit exceeded: a horizon of {} cycles is longer than {MAX_CYCLES} cycles",
                config.cycles
            ));
        }
        // Clocks & leftover inputs, by name.
        let naming = soccar_cfg::ResetNaming::new();
        let mut clocks = Vec::new();
        let mut plain_inputs = Vec::new();
        // Controllable domains (unique, ordered by name).
        let mut domains: Vec<(String, NetId, bool)> = Vec::new();
        for ev in events {
            if !ev.domain_top_level {
                continue;
            }
            let Some(net) = ev.domain_net else { continue };
            if !design.net(net).is_top_input {
                continue;
            }
            if !domains.iter().any(|(s, _, _)| *s == ev.domain_source) {
                domains.push((ev.domain_source.clone(), net, ev.domain_active_low));
            }
        }
        domains.sort_by(|a, b| a.0.cmp(&b.0));
        // Extra asynchronous event lines become pseudo-domains: swept and
        // randomized like resets, but asserted active-high and carrying no
        // AR_CFG events of their own.
        for name in &config.async_events {
            let net = design
                .find_net(name)
                .ok_or_else(|| format!("async event `{name}` not found"))?;
            let info = design.net(net);
            if !info.is_top_input || info.width != 1 {
                return Err(format!("async event `{name}` must be a 1-bit top input"));
            }
            if !domains.iter().any(|(s, _, _)| s == name) {
                domains.push((name.clone(), net, false));
            }
        }
        // Symbolic data inputs.
        let mut inputs = Vec::new();
        for name in &config.symbolic_inputs {
            let net = design
                .find_net(name)
                .ok_or_else(|| format!("symbolic input `{name}` not found"))?;
            if !design.net(net).is_top_input {
                return Err(format!("symbolic input `{name}` is not a top-level input"));
            }
            inputs.push((name.clone(), net, design.net(net).width));
        }
        for net in design.top_inputs() {
            let info = design.net(net);
            let is_domain = domains.iter().any(|(_, n, _)| *n == net);
            let is_symbolic = inputs.iter().any(|(_, n, _)| *n == net);
            if is_domain || is_symbolic {
                continue;
            }
            if naming.is_clock_name(&info.local_name) {
                clocks.push(net);
            } else {
                plain_inputs.push(net);
            }
        }
        // Targets.
        let mut targets = Vec::new();
        let mut seen = HashSet::new();
        for ev in events {
            let domain_idx = domains.iter().position(|(s, _, _)| *s == ev.domain_source);
            if ev.event.arm == EventArm::WholeBlock {
                let goal = TargetGoal::Process(ev.process);
                if seen.insert(goal) {
                    targets.push(Target { goal, domain_idx });
                }
                continue;
            }
            // Explicit event: its own site both ways, plus every nested
            // site of the process (the subCFGs of the reset-governed
            // block), both ways.
            let mut sites: Vec<BranchSiteId> = design
                .sites()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.process == ev.process)
                .map(|(i, _)| BranchSiteId(i as u32))
                .collect();
            sites.sort_unstable();
            for site in sites {
                for dir in [true, false] {
                    let goal = TargetGoal::Site { site, dir };
                    if seen.insert(goal) {
                        targets.push(Target { goal, domain_idx });
                    }
                }
            }
        }
        let n = targets.len();
        let domain_polarity: Vec<(String, bool)> =
            domains.iter().map(|(s, _, al)| (s.clone(), *al)).collect();
        let mut monitors = Vec::new();
        let mut dropped_monitors = Vec::new();
        for p in properties {
            match PropertyMonitor::resolve(design, p, &domain_polarity) {
                Ok(m) => monitors.push(m),
                Err(e) => dropped_monitors.push(format!("property monitor dropped: {e}")),
            }
        }
        let mut clock_composed = vec![false; domains.len()];
        for ev in events {
            let composed = ev
                .event
                .governor
                .as_ref()
                .is_some_and(|g| g.composed_with_clock);
            if composed {
                if let Some(di) = domains.iter().position(|(s, _, _)| *s == ev.domain_source) {
                    clock_composed[di] = true;
                }
            }
        }
        Ok(ConcolicEngine {
            ctx: RoundContext {
                design,
                wake_map: Arc::new(WakeMap::new(design)),
                monitors,
                dropped_monitors,
                config,
                clocks,
                plain_inputs,
                domains,
                inputs,
                targets,
                recorder: soccar_obs::Recorder::disabled(),
                clock_composed,
                sweep_start: OnceLock::new(),
            },
            walk: Walk {
                covered: vec![false; n],
                unreachable: vec![false; n],
                pulse_attempts: HashMap::new(),
                flip_seq: 0,
                solver_calls: 0,
                solver_sat: 0,
                solver_unknown: 0,
                flips_failed: 0,
                degraded_rounds: 0,
                degraded_reasons: BTreeSet::new(),
                flip_stats: soccar_exec::PoolStats {
                    jobs: 1,
                    ..soccar_exec::PoolStats::default()
                },
                sweep_stats: soccar_exec::PoolStats::default(),
            },
        })
    }

    /// Attaches an observability recorder: each concolic round gets a
    /// `concolic.round` span with two serial children, `concolic.simulate`
    /// (the co-simulation) and `concolic.plan` (flip planning, solving
    /// included); each sweep phase gets one `concolic.sweep` /
    /// `concolic.sweep_high` span. The sweep's positions run beside the
    /// coverage rounds, so these spans time only what is left once the
    /// rounds end: the wait for unfinished positions (the first phase's
    /// span) and the serial merge of each phase. Flip planning feeds the
    /// `concolic.flip_candidates` (numbered) / `concolic.flip_consumed`
    /// (solved) / `concolic.flip_sat` counters, and every flip solve
    /// reports through [`Solver::check_traced`]. The solves run inline on
    /// the calling thread, so the solver metrics are identical for every
    /// job count. Every span opens on the calling thread.
    #[must_use]
    pub fn with_recorder(mut self, recorder: soccar_obs::Recorder) -> Self {
        self.ctx.recorder = recorder;
        self
    }

    /// Controllable reset domains `(source, net, active_low)`.
    #[must_use]
    pub fn domains(&self) -> &[(String, NetId, bool)] {
        &self.ctx.domains
    }

    /// Number of coverage targets.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.ctx.targets.len()
    }

    /// Runs Algorithm 3 to completion.
    ///
    /// No sweep round reads anything the coverage loop produces, so the
    /// reset sweep starts with the run: its pulse positions go to
    /// `jobs − 1` workers, or one per position if there are fewer, while
    /// the calling thread runs the coverage loop, and the calling thread
    /// joins them once the loop ends. The
    /// rounds then merge serially, coverage rounds first and the sweep's
    /// in `(domain, cycle)` order, so the report is the one a serial run
    /// of Algorithm 3 gives.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. an unstable design): the
    /// coverage loop's first, else the sweep's first in merge order.
    pub fn run(&mut self) -> SimResult<ConcolicReport> {
        let start = Instant::now();
        let ctx = &self.ctx;
        let walk = &mut self.walk;
        // Both sweep phases' positions, low phase first, as one task list.
        let positions: Vec<SweepPosition> = if ctx.config.skip_sweep {
            Vec::new()
        } else {
            [false, true]
                .into_iter()
                .flat_map(|high| ctx.sweep_positions(high))
                .collect()
        };
        // Set when the coverage loop fails: its error ends the run, so
        // the positions not yet started are skipped.
        let abandoned = AtomicBool::new(false);
        let ((coverage, mut wait_span), outcomes, stats) = soccar_exec::parallel_map_beside(
            ctx.config.jobs,
            &positions,
            // A panicking position is re-raised at merge time, after a
            // coverage error has had its turn.
            FailurePolicy::KeepGoing,
            || {
                let coverage = walk.cover(ctx);
                if coverage.is_err() {
                    abandoned.store(true, Ordering::Relaxed);
                }
                // The first phase's span opens as the loop ends, so it
                // times the wait for unfinished positions, then its merge.
                let span = positions
                    .first()
                    .filter(|_| coverage.is_ok())
                    .map(|pos| ctx.recorder.span(pos.phase()));
                (coverage, span)
            },
            |pos| {
                if abandoned.load(Ordering::Relaxed) {
                    return Vec::new();
                }
                ctx.fork_sweep_position(pos, |run| SweepRound {
                    hits: ctx.target_hits(&run.sim),
                    violations: run.violations,
                    degraded: run.degraded,
                })
            },
        );
        let mut found = coverage?;
        if !positions.is_empty() {
            walk.sweep_stats.absorb(&stats);
        }

        // Phases 2 and 3: the sweep's rounds merge phase by phase in
        // `(domain, cycle)` order, exactly as if run one after another
        // from scratch; the first simulator error in that order ends the
        // run.
        let split = positions
            .iter()
            .position(|pos| pos.high)
            .unwrap_or(positions.len());
        let mut low = outcomes;
        let high = low.split_off(split);
        for (phase, outcomes) in [(&positions[..split], low), (&positions[split..], high)] {
            let Some(first) = phase.first() else {
                continue;
            };
            let mut span = wait_span
                .take()
                .unwrap_or_else(|| ctx.recorder.span(first.phase()));
            // The phase's lowest-index panic ends the run, as in a
            // fail-fast pool.
            if let Some(panic) = outcomes.iter().find_map(TaskOutcome::panic_message) {
                std::panic::resume_unwind(Box::new(panic.to_owned()));
            }
            let mut results: Vec<_> = outcomes
                .into_iter()
                .map(|o| o.ok().expect("panics were re-raised").into_iter())
                .collect();
            for &domain in &first.domains {
                for (pos, at_results) in phase.iter().zip(&mut results) {
                    let round = at_results.next().expect("one round per domain")?;
                    walk.absorb_hits(&round.hits);
                    walk.degraded_reasons.extend(round.degraded);
                    found.merge(|| pos.schedule(domain), round.violations);
                }
            }
            found.sim_cycles += phase.iter().map(SweepPosition::cycles).sum::<u64>();
            span.record("rounds", phase.len() * first.domains.len());
        }

        let covered = walk.covered.iter().filter(|c| **c).count();
        let unreachable = walk.unreachable.iter().filter(|u| **u).count();
        let recorder = &ctx.recorder;
        recorder.counter_add("concolic.rounds", found.rounds as u64);
        recorder.counter_add("sim.cycles", found.sim_cycles);
        // Resilience counters are only bumped when degradation actually
        // happened, keeping healthy-run traces byte-identical to before.
        if walk.solver_unknown > 0 {
            recorder.counter_add("resilience.solver_unknown", walk.solver_unknown as u64);
        }
        if walk.flips_failed > 0 {
            recorder.counter_add("resilience.flips_failed", walk.flips_failed as u64);
        }
        if walk.degraded_rounds > 0 {
            recorder.counter_add("resilience.degraded_rounds", walk.degraded_rounds as u64);
        }
        Ok(ConcolicReport {
            rounds: found.rounds,
            targets_total: ctx.targets.len(),
            targets_covered: covered,
            targets_unreachable: unreachable,
            violations: found.violations,
            first_violation_round: found.first_violation_round,
            witnesses: found.witnesses,
            solver_calls: walk.solver_calls,
            solver_sat: walk.solver_sat,
            solver_unknown: walk.solver_unknown,
            flips_failed: walk.flips_failed,
            degraded_rounds: walk.degraded_rounds,
            degraded_reasons: walk.degraded_reasons.iter().cloned().collect(),
            elapsed: start.elapsed(),
            flip_exec: walk.flip_stats,
            sweep_exec: walk.sweep_stats,
        })
    }

    /// The reset sweep's pulse positions of one phase, in cycle order.
    /// The low phase (`concolic.sweep`) pulses every domain before the
    /// clock edge. The high phase (`concolic.sweep_high`) asserts during
    /// the clock-high phase, and only on the domains the Refined analysis
    /// flagged as having clock-composed implicit governors. The Explicit
    /// analysis never flags any, so the high phase is empty there —
    /// which is precisely why the published tool misses the AutoSoC #2
    /// SHA256 bug.
    ///
    /// Each round pulses one domain at one cycle and is otherwise
    /// randomized from `seed + cycle` (low phase) or `seed + 0x9E37 +
    /// cycle` (high phase), so every round is a pure function of its
    /// `(domain, cycle, seed)` key.
    #[must_use]
    pub fn sweep_positions(&self, high: bool) -> Vec<SweepPosition> {
        self.ctx.sweep_positions(high)
    }

    /// Runs every round of one sweep position on the concrete algebra:
    /// from a clone of the time-zero state every sweep round shares,
    /// cycles `0..at` once on the shared prefix, then, from a clone of
    /// that state, each domain's pulse and the rest of its round.
    /// `finish` reduces each finished round; the results come in
    /// `pos.domains` order, each equal to what
    /// [`ConcolicEngine::execute_round`] gives on
    /// [`SweepPosition::schedule`] from scratch. A simulator error in the
    /// prefix is every domain's error, as it would be from scratch.
    pub fn fork_sweep_position<T>(
        &self,
        pos: &SweepPosition,
        finish: impl Fn(RoundRun<'d, ConcreteAlgebra>) -> T,
    ) -> Vec<SimResult<T>> {
        self.ctx.fork_sweep_position(pos, finish)
    }

    /// One `Simulate(Input, Restricts)` call of Algorithm 3: runs
    /// `schedule` on algebra `A` — [`CoAlgebra`] for coverage rounds,
    /// which plan flips from its branch log, or [`ConcreteAlgebra`] for
    /// sweep rounds, which need only coverage. The schedule's reset tracks
    /// are the engine's [`ConcolicEngine::domains`], in order, as in
    /// every schedule the engine builds.
    ///
    /// Monitors that failed to resolve (or error mid-check) are returned
    /// as degradation reasons instead of being silently ignored or
    /// panicking: the analysis continues, visibly partial.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. an unstable design).
    pub fn execute_round<A: RoundAlgebra>(
        &self,
        schedule: &TestSchedule,
    ) -> SimResult<RoundRun<'d, A>> {
        self.ctx.execute_round(schedule, false)
    }

    /// Replays `schedule` — typically a [`Witness`]'s — as
    /// [`ConcolicEngine::execute_round`] runs it on the concrete algebra,
    /// with the simulator tracing every net change from time zero. The
    /// round is the one the engine checked, so its violations are the
    /// engine's and its trace (for [`soccar_sim::vcd::write_vcd`]) is the
    /// waveform of that round. Cycle `c` spans times `2c` (clock high)
    /// and `2c + 1` (clock low).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, as [`ConcolicEngine::execute_round`].
    pub fn replay(&self, schedule: &TestSchedule) -> SimResult<RoundRun<'d, ConcreteAlgebra>> {
        self.ctx.execute_round(schedule, true)
    }

    /// Runs one concrete round and freezes its symbolic state into a
    /// [`FlipWorkload`], so flip solving can be run and timed on its own.
    /// Does not advance engine coverage state.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors, as [`ConcolicEngine::run`].
    pub fn flip_workload(&self) -> SimResult<FlipWorkload> {
        let ctx = &self.ctx;
        let mut schedule = ctx.base_schedule();
        schedule.randomize(ctx.config.seed);
        let mut sim = ctx.execute_round::<CoAlgebra>(&schedule, false)?.sim;
        let observations = sim.algebra().observations().to_vec();
        let window = FlipWindow::intern(
            &mut sim.algebra_mut().graph,
            &observations,
            0..observations.len(),
            MAX_PREFIX,
        );
        Ok(FlipWorkload {
            graph: sim.algebra().graph.clone(),
            window,
            observations,
            schedule,
            budget: ctx.config.solver_budget,
        })
    }
}

impl<'d> RoundContext<'d> {
    fn base_schedule(&self) -> TestSchedule {
        TestSchedule::quiet(
            self.config.cycles,
            self.domains.clone(),
            self.inputs.clone(),
        )
    }

    /// See [`ConcolicEngine::sweep_positions`].
    fn sweep_positions(&self, high: bool) -> Vec<SweepPosition> {
        let domains: Vec<usize> = (0..self.domains.len())
            .filter(|d| !high || self.clock_composed[*d])
            .collect();
        if domains.is_empty() {
            return Vec::new();
        }
        let stride = usize::try_from(self.config.sweep_stride.max(1)).unwrap_or(usize::MAX);
        let salt = if high { 0x9E37 } else { 0 };
        let quiet = Arc::new(self.base_schedule());
        (1..self.config.cycles)
            .step_by(stride)
            .map(|at| SweepPosition {
                high,
                at,
                domains: domains.clone(),
                seed: self.config.seed.wrapping_add(salt + at),
                quiet: Arc::clone(&quiet),
            })
            .collect()
    }

    /// See [`ConcolicEngine::fork_sweep_position`].
    fn fork_sweep_position<T>(
        &self,
        pos: &SweepPosition,
        finish: impl Fn(RoundRun<'d, ConcreteAlgebra>) -> T,
    ) -> Vec<SimResult<T>> {
        let start = self.sweep_start.get_or_init(|| self.start_round(false));
        let prefix = pos.prefix();
        let shared = start.clone().and_then(|mut run| {
            self.run_cycles(&mut run, &prefix, 0..pos.at)?;
            Ok(run)
        });
        pos.domains
            .iter()
            .map(|&domain| {
                let mut run = shared.clone()?;
                let schedule = pos.with_pulse(prefix.clone(), domain);
                self.run_cycles(&mut run, &schedule, pos.at..schedule.cycles)?;
                Ok(finish(run))
            })
            .collect()
    }

    /// See [`ConcolicEngine::execute_round`]; with `trace`, see
    /// [`ConcolicEngine::replay`].
    fn execute_round<A: RoundAlgebra>(
        &self,
        schedule: &TestSchedule,
        trace: bool,
    ) -> SimResult<RoundRun<'d, A>> {
        let mut run = self.start_round(trace)?;
        self.run_cycles(&mut run, schedule, 0..schedule.cycles)?;
        Ok(run)
    }

    /// Time zero of a round: a fresh simulator with resets deasserted,
    /// clocks parked and uncontrolled inputs zeroed, and freshly armed
    /// monitors. It depends on engine state alone, never on a schedule.
    /// With `trace`, the simulator records every net change from here on.
    fn start_round<A: RoundAlgebra>(&self, trace: bool) -> SimResult<RoundRun<'d, A>> {
        let mut sim = Simulator::with_wake_map(
            self.design,
            Arc::clone(&self.wake_map),
            A::default(),
            self.config.init,
        );
        if trace {
            sim.enable_tracing();
        }
        let mut monitors = self.monitors.clone();
        for mon in &mut monitors {
            mon.reset();
        }
        for &(_, net, active_low) in &self.domains {
            sim.write_input(net, LogicVec::from_u64(1, u64::from(active_low)))?;
        }
        for clk in &self.clocks {
            sim.write_input(*clk, LogicVec::from_u64(1, 0))?;
        }
        for net in &self.plain_inputs {
            let w = self.design.net(*net).width;
            sim.write_input(*net, LogicVec::zeros(w))?;
        }
        sim.settle()?;
        Ok(RoundRun {
            sim,
            violations: Vec::new(),
            degraded: self.dropped_monitors.clone(),
            monitors,
        })
    }

    /// Drives `cycles` of `schedule` on a started round, checking the
    /// monitors after each cycle.
    fn run_cycles<A: RoundAlgebra>(
        &self,
        run: &mut RoundRun<'d, A>,
        schedule: &TestSchedule,
        cycles: Range<u64>,
    ) -> SimResult<()> {
        let sim = &mut run.sim;
        for cycle in cycles {
            for (i, track) in schedule.inputs.iter().enumerate() {
                let v = sim.algebra_mut().input(
                    format_args!("in_{i}_{cycle}"),
                    track.values[cycle as usize].clone(),
                );
                sim.write_input_value(track.net, v)?;
            }
            // Asynchronous reset lines change before the clock edge —
            // except high-phase pulses, which assert after the rise.
            for (d, track) in schedule.resets.iter().enumerate() {
                let hp = track
                    .high_phase
                    .get(cycle as usize)
                    .copied()
                    .unwrap_or(false);
                let value = if hp {
                    LogicVec::from_u64(1, u64::from(track.active_low))
                } else {
                    track.value_at(cycle)
                };
                let v = sim
                    .algebra_mut()
                    .input(format_args!("rst_{d}_{cycle}"), value);
                sim.write_input_value(track.net, v)?;
            }
            sim.settle()?;
            for clk in &self.clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 1))?;
            }
            sim.settle()?;
            // High-phase assertion: the reset edge lands while the clock
            // is high (excites clock-composed implicit governors).
            for (d, track) in schedule.resets.iter().enumerate() {
                if track
                    .high_phase
                    .get(cycle as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    let v = sim
                        .algebra_mut()
                        .input(format_args!("rsthi_{d}_{cycle}"), track.value_at(cycle));
                    sim.write_input_value(track.net, v)?;
                    sim.settle()?;
                }
            }
            sim.advance_time(1);
            for clk in &self.clocks {
                sim.write_input(*clk, LogicVec::from_u64(1, 0))?;
            }
            sim.settle()?;
            sim.advance_time(1);
            for mon in &mut run.monitors {
                match mon.check_cycle(sim, cycle) {
                    Ok(found) => run.violations.extend(found),
                    Err(e) => run.degraded.push(format!("property check skipped: {e}")),
                }
            }
        }
        Ok(())
    }

    /// Indices of the targets a finished round hit: its branch coverage
    /// for site targets, its process run counts for whole-block targets.
    fn target_hits<A: RoundAlgebra>(&self, sim: &Simulator<'d, A>) -> Vec<usize> {
        let site_cov = sim.algebra().coverage();
        let runs = sim.process_run_counts();
        self.targets
            .iter()
            .enumerate()
            .filter(|(_, t)| match &t.goal {
                TargetGoal::Site { site, dir } => site_cov.contains(*site, *dir),
                TargetGoal::Process(p) => runs[p.0 as usize] > 0,
            })
            .map(|(i, _)| i)
            .collect()
    }
}

impl Walk {
    /// Phase 1 of Algorithm 3, the concolic coverage loop: simulates a
    /// round, merges what it covered and violated, and plans the next
    /// round's schedule, until every target is covered or unreachable,
    /// no plan is left, or `max_rounds` rounds have run.
    fn cover(&mut self, ctx: &RoundContext<'_>) -> SimResult<Findings> {
        let mut schedule = ctx.base_schedule();
        schedule.randomize(ctx.config.seed);
        let mut found = Findings::default();
        while found.rounds < ctx.config.max_rounds {
            let round = found.rounds + 1;
            let mut round_span = soccar_obs::span!(ctx.recorder, "concolic.round", round = round);
            let simulate_span = soccar_obs::span!(ctx.recorder, "concolic.simulate");
            let RoundRun {
                mut sim,
                violations,
                degraded,
                ..
            } = ctx.execute_round::<CoAlgebra>(&schedule, false)?;
            simulate_span.close();
            found.sim_cycles += schedule.cycles;
            self.degraded_reasons.extend(degraded);
            self.absorb_hits(&ctx.target_hits(&sim));
            found.merge(|| schedule.clone(), violations);
            round_span.record("covered", self.covered.iter().filter(|c| **c).count());
            round_span.record("violations", found.violations.len());
            if self.all_covered() {
                break;
            }
            let plan_span = soccar_obs::span!(ctx.recorder, "concolic.plan");
            let next = self.plan_next(ctx, &mut sim, &schedule, round);
            plan_span.close();
            match next {
                Some(next) => schedule = next,
                None => break,
            }
        }
        Ok(found)
    }

    fn absorb_hits(&mut self, hits: &[usize]) {
        for &i in hits {
            self.covered[i] = true;
        }
    }

    fn all_covered(&self) -> bool {
        self.covered
            .iter()
            .zip(&self.unreachable)
            .all(|(c, u)| *c || *u)
    }

    /// Picks an uncovered target and produces the next schedule, either by
    /// solver-driven branch flipping or by direct reset scheduling.
    ///
    /// The decision walk comes first and solves only what it reads. It
    /// visits the uncovered targets in order; when it reaches a site
    /// target with flip candidates, it interns a [`FlipWindow`] for just
    /// those candidates and solves them one at a time — one one-shot
    /// query each against the round's frozen term graph — stopping at the
    /// first Sat.
    fn plan_next(
        &mut self,
        ctx: &RoundContext<'_>,
        sim: &mut Simulator<'_, CoAlgebra>,
        schedule: &TestSchedule,
        round: usize,
    ) -> Option<TestSchedule> {
        // Goals are `Copy` ids interned at construction time, so the
        // per-round bookkeeping copies `(index, goal, domain)` triples
        // instead of deep-cloning `Target`s.
        let targets: Vec<(usize, TargetGoal, Option<usize>)> = ctx
            .targets
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.covered[*i] && !self.unreachable[*i])
            .map(|(i, t)| (i, t.goal, t.domain_idx))
            .collect();
        let index = FlipIndex::build(
            sim.algebra().observations(),
            ctx.design.sites().len(),
            MAX_FLIP_ATTEMPTS,
        );
        let mut round_degraded = false;

        // The round's candidates are the uncovered site targets' index
        // entries in target order; the count alone fixes the sequence
        // numbers, without solving anything.
        let total: usize = targets
            .iter()
            .map(|(_, goal, _)| index.candidates(*goal).len())
            .sum();
        ctx.recorder
            .counter_add("concolic.flip_candidates", total as u64);
        // Candidate `i` of the round (in target order) has sequence
        // number `seq_base + i + 1` — the deterministic per-analysis index
        // the fault plan keys on, whether or not the walk solves it.
        let seq_base = self.flip_seq;
        self.flip_seq += total as u64;

        // The serial decision walk.
        let mut walked = 0usize;
        let mut chosen: Option<TestSchedule> = None;
        for (ti, goal, domain_idx) in targets {
            let ks = index.candidates(goal);
            if !ks.is_empty() {
                let TargetGoal::Site { dir, .. } = goal else {
                    unreachable!("only site targets have flip candidates")
                };
                let first_seq = seq_base + walked as u64 + 1;
                walked += ks.len();
                let (next, degraded) =
                    self.solve_candidates(ctx, sim, schedule, round, ks, dir, first_seq);
                round_degraded |= degraded;
                if next.is_some() {
                    chosen = next;
                    break;
                }
                // No flip solved: keep the target for the sweep.
                continue;
            }
            // A site that never ran with a symbolic condition, or a
            // whole-block target: schedule a pulse so the process (and its
            // governor test) runs.
            if let Some(next) = self.schedule_pulse(ctx, ti, domain_idx, schedule) {
                chosen = Some(next);
                break;
            }
        }
        if round_degraded {
            self.degraded_rounds += 1;
        }
        chosen
    }

    /// Solves one site target's flip candidates — observations `ks`, each
    /// flipped towards `dir`, numbered from `first_seq` — one at a time on
    /// the calling thread, in order, up to the first Sat. Returns that Sat
    /// flip's schedule, and whether a solve degraded the round. Unknown
    /// results, and panics under [`FailurePolicy::KeepGoing`], are
    /// *skipped* flips: recorded as degradation, never consumed as
    /// answers. Under [`FailurePolicy::FailFast`] a panic propagates with
    /// its own payload.
    #[allow(clippy::too_many_arguments)]
    fn solve_candidates(
        &mut self,
        ctx: &RoundContext<'_>,
        sim: &mut Simulator<'_, CoAlgebra>,
        schedule: &TestSchedule,
        round: usize,
        ks: &[usize],
        dir: bool,
        first_seq: u64,
    ) -> (Option<TestSchedule>, bool) {
        let (graph, obs) = sim.algebra_mut().graph_and_observations();
        // The negated conditions are interned into the round's own graph
        // (it is append-only and the simulation is over, so existing
        // TermIds keep their meaning); after that every query only reads
        // the graph.
        let window = FlipWindow::intern(graph, obs, ks.iter().copied(), MAX_PREFIX);
        let graph = &*graph;
        let config = &ctx.config;
        let solve = |seq: u64, k: usize| {
            if config.fault_plan.should_inject("task_panic:flips", seq) {
                panic!("injected fault: task_panic@flips:{seq}");
            }
            if config.fault_plan.should_inject("solver_unknown", seq) {
                return FlipOutcome::Unknown(format!("injected fault: solver_unknown@{seq}"));
            }
            let terms = window.terms(obs, k, dir, MAX_PREFIX);
            solve_flip(graph, &terms, schedule, config.solver_budget, &ctx.recorder)
        };
        let mut degraded = false;
        for (seq, &k) in (first_seq..).zip(ks) {
            let started = Instant::now();
            let outcome = if config.failure_policy == FailurePolicy::FailFast {
                Ok(solve(seq, k))
            } else {
                catch_unwind(AssertUnwindSafe(|| solve(seq, k)))
                    .map_err(|payload| soccar_exec::panic_message(payload.as_ref()))
            };
            let took = started.elapsed();
            self.flip_stats.tasks += 1;
            self.flip_stats.busy += took;
            self.flip_stats.elapsed += took;
            self.solver_calls += 1;
            ctx.recorder.counter_add("concolic.flip_consumed", 1);
            match outcome {
                Ok(FlipOutcome::Sat(next)) => {
                    self.solver_sat += 1;
                    ctx.recorder.counter_add("concolic.flip_sat", 1);
                    return (Some(next), degraded);
                }
                Ok(FlipOutcome::Unsat) => {}
                Ok(FlipOutcome::Unknown(reason)) => {
                    self.solver_unknown += 1;
                    degraded = true;
                    self.degraded_reasons
                        .insert(format!("round {round}: flip {seq} skipped: {reason}"));
                }
                Err(panic) => {
                    // "worker panicked" is the canonical reports' wording.
                    self.flips_failed += 1;
                    degraded = true;
                    self.degraded_reasons.insert(format!(
                        "round {round}: flip {seq} worker panicked: {panic}"
                    ));
                }
            }
        }
        (None, degraded)
    }

    /// Direct reset scheduling: assert the target's domain at a rotating
    /// cycle position.
    fn schedule_pulse(
        &mut self,
        ctx: &RoundContext<'_>,
        target_idx: usize,
        domain_idx: Option<usize>,
        schedule: &TestSchedule,
    ) -> Option<TestSchedule> {
        let Some(di) = domain_idx else {
            // No controllable domain reaches this target.
            self.unreachable[target_idx] = true;
            return None;
        };
        let attempt = self.pulse_attempts.entry(target_idx).or_insert(0);
        *attempt += 1;
        if *attempt >= ctx.config.cycles {
            self.unreachable[target_idx] = true;
            return None;
        }
        let at = *attempt; // cycles 1, 2, 3, ...
        let mut next = schedule.clone();
        next.add_pulse(di, at, 1);
        Some(next)
    }
}

/// One pulse position of the reset sweep (see
/// [`ConcolicEngine::sweep_positions`]): every round that pulses one of
/// `domains` at cycle `at` in one phase. The rounds agree with the
/// position's prefix on every cycle before `at`. A position holds no
/// per-cycle data of its own: the prefix is rebuilt from `seed` where it
/// is simulated, so the sweep's memory grows linearly in the horizon.
#[derive(Debug, Clone)]
pub struct SweepPosition {
    /// `true` for the clock-high phase.
    high: bool,
    /// The pulse cycle.
    pub at: u64,
    /// The pulsed domains, as indices into [`ConcolicEngine::domains`].
    pub domains: Vec<usize>,
    /// The prefix's randomization seed.
    seed: u64,
    /// The engine's all-quiet schedule, shared by every position.
    quiet: Arc<TestSchedule>,
}

impl SweepPosition {
    /// The phase's span name: `concolic.sweep` for low-phase pulses,
    /// `concolic.sweep_high` for clock-high-phase pulses.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        if self.high {
            "concolic.sweep_high"
        } else {
            "concolic.sweep"
        }
    }

    /// The full schedule of `domain`'s round: the prefix plus the pulse.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    #[must_use]
    pub fn schedule(&self, domain: usize) -> TestSchedule {
        self.with_pulse(self.prefix(), domain)
    }

    /// The schedule without the pulse: randomized, power-on pulse only.
    fn prefix(&self) -> TestSchedule {
        let mut prefix = TestSchedule::clone(&self.quiet);
        prefix.randomize(self.seed);
        prefix.power_on_only();
        prefix
    }

    /// `prefix` plus `domain`'s pulse.
    fn with_pulse(&self, mut prefix: TestSchedule, domain: usize) -> TestSchedule {
        if self.high {
            prefix.add_high_phase_pulse(domain, self.at);
        } else {
            prefix.add_pulse(domain, self.at, 1);
        }
        prefix
    }

    /// Cycles simulated to run the position: the shared prefix once, then
    /// the rest of each domain's round.
    fn cycles(&self) -> u64 {
        self.at + self.domains.len() as u64 * (self.quiet.cycles - self.at)
    }
}

/// A finished round (see [`ConcolicEngine::execute_round`]).
#[derive(Debug, Clone)]
pub struct RoundRun<'d, A: Algebra> {
    /// The simulator after the last cycle, algebra state included.
    pub sim: Simulator<'d, A>,
    /// Invalidation messages, in the order the monitors raised them.
    pub violations: Vec<Violation>,
    /// Degradation reasons: dropped monitors and skipped checks.
    pub degraded: Vec<String>,
    /// The round's armed property monitors.
    monitors: Vec<PropertyMonitor>,
}

/// What the serial sweep merge keeps of one sweep round.
#[derive(Debug)]
struct SweepRound {
    hits: Vec<usize>,
    violations: Vec<Violation>,
    degraded: Vec<String>,
}

/// One round's frozen symbolic state, packaged so flip solving can run
/// apart from the engine: the term graph with every observation's negated
/// condition already interned, the branch observations, and the schedule
/// they were produced under.
#[derive(Debug, Clone)]
pub struct FlipWorkload {
    graph: TermGraph,
    window: FlipWindow,
    observations: Vec<BranchObservation>,
    schedule: TestSchedule,
    budget: SolveBudget,
}

impl FlipWorkload {
    /// Number of flip candidates a `cap`-limited pass solves (the last
    /// `cap` observations of the round, longest path prefixes first-class).
    #[must_use]
    pub fn candidates(&self, cap: usize) -> usize {
        self.observations.len().min(cap)
    }

    /// The round's term graph, with every query's negated conditions
    /// already interned.
    #[must_use]
    pub fn graph(&self) -> &TermGraph {
        &self.graph
    }

    /// The assertions of the flip queries a `cap`-limited pass solves, in
    /// order: each is the engine's query flipping one of the last `cap`
    /// observations towards the direction it did not take (the path
    /// prefix pinned, then the flipped goal).
    pub fn queries(&self, cap: usize) -> impl Iterator<Item = Vec<TermId>> + '_ {
        let len = self.observations.len();
        (len - self.candidates(cap)..len).map(move |k| {
            let dir = !self.observations[k].taken;
            self.window.terms(&self.observations, k, dir, MAX_PREFIX)
        })
    }

    /// Solves the [`FlipWorkload::queries`] serially, each on a fresh
    /// solver against the shared graph, as the engine does. Returns the
    /// SAT count.
    #[must_use]
    pub fn solve(&self, cap: usize, recorder: &soccar_obs::Recorder) -> usize {
        self.queries(cap)
            .filter(|terms| {
                let outcome = solve_flip(&self.graph, terms, &self.schedule, self.budget, recorder);
                matches!(outcome, FlipOutcome::Sat(_))
            })
            .count()
    }

    /// [`FlipWorkload::solve`] under the name the external benchmark
    /// harness calls. It predates the single flip strategy: the engine
    /// used to keep an incremental solver next to the one-shot one, and
    /// the harness times this entry point by name.
    #[must_use]
    pub fn solve_incremental(&self, cap: usize, recorder: &soccar_obs::Recorder) -> usize {
        self.solve(cap, recorder)
    }
}

/// One round's flip candidates, keyed by `(site, flipped direction)`:
/// the first [`MAX_FLIP_ATTEMPTS`] observations of each site that took the
/// other direction, in chronological order. Built in one pass over the
/// branch log; solving nothing.
#[derive(Debug)]
struct FlipIndex {
    /// Observation indices at `2·site + dir`.
    by_key: Vec<Vec<usize>>,
}

impl FlipIndex {
    fn build(obs: &[BranchObservation], sites: usize, per_key: usize) -> FlipIndex {
        let mut by_key = vec![Vec::new(); 2 * sites];
        for (k, o) in obs.iter().enumerate() {
            let slot = &mut by_key[FlipIndex::key(o.site, !o.taken)];
            if slot.len() < per_key {
                slot.push(k);
            }
        }
        FlipIndex { by_key }
    }

    fn key(site: BranchSiteId, dir: bool) -> usize {
        2 * site.0 as usize + usize::from(dir)
    }

    /// The candidates of `goal`: observation indices to flip towards its
    /// direction (none for whole-block targets).
    fn candidates(&self, goal: TargetGoal) -> &[usize] {
        match goal {
            TargetGoal::Site { site, dir } => &self.by_key[FlipIndex::key(site, dir)],
            TargetGoal::Process(_) => &[],
        }
    }
}

/// Result of one flip solve: a new schedule, a definite "no", or a
/// budget-exhausted "don't know" the engine records and skips.
#[derive(Debug, Clone)]
enum FlipOutcome {
    Sat(TestSchedule),
    Unsat,
    Unknown(String),
}

/// The negated branch conditions of a round's flip window, interned once
/// into the round's graph so that every flip query only reads it.
/// `neg[i]` is `¬obs[start + i].cond`.
#[derive(Debug, Clone)]
struct FlipWindow {
    start: usize,
    neg: Vec<TermId>,
}

impl FlipWindow {
    /// Interns the negations the flip queries of observations `ks` need:
    /// the window `[min(k − max_prefix), max k]`.
    fn intern(
        graph: &mut TermGraph,
        obs: &[BranchObservation],
        ks: impl Iterator<Item = usize> + Clone,
        max_prefix: usize,
    ) -> FlipWindow {
        let start = ks
            .clone()
            .map(|k| k.saturating_sub(max_prefix))
            .min()
            .unwrap_or(0);
        let end = ks.max().map_or(start, |k| k + 1);
        let neg = obs[start..end].iter().map(|o| graph.not(o.cond)).collect();
        FlipWindow { start, neg }
    }

    /// The assertions of the query flipping observation `k` towards
    /// `dir`: up to `max_prefix` earlier observations pinned to the
    /// direction they took, then the flipped goal.
    fn terms(
        &self,
        obs: &[BranchObservation],
        k: usize,
        dir: bool,
        max_prefix: usize,
    ) -> Vec<TermId> {
        let pick = |i: usize, taken: bool| {
            if taken {
                obs[i].cond
            } else {
                self.neg[i - self.start]
            }
        };
        (k.saturating_sub(max_prefix)..k)
            .map(|i| pick(i, obs[i].taken))
            .chain(std::iter::once(pick(k, dir)))
            .collect()
    }
}

/// One flip query: a fresh solver asserting `terms` against the shared
/// round graph. On Sat, rebuilds the schedule from the model.
///
/// Only reads `graph`, so the result is a pure function of
/// `(graph, terms, schedule, budget)`.
fn solve_flip(
    graph: &TermGraph,
    terms: &[TermId],
    schedule: &TestSchedule,
    budget: SolveBudget,
    recorder: &soccar_obs::Recorder,
) -> FlipOutcome {
    let mut solver = Solver::with_budget(budget);
    for t in terms {
        solver.assert(*t);
    }
    match solver.check_traced(graph, recorder) {
        CheckResult::Unsat => FlipOutcome::Unsat,
        CheckResult::Unknown { reason } => FlipOutcome::Unknown(reason),
        CheckResult::Sat(model) => {
            FlipOutcome::Sat(schedule_from_model(graph, schedule, terms, &model))
        }
    }
}

/// Rebuilds a schedule from a flip model. Only variables in the support
/// of the solved constraints are updated; everything else keeps its
/// previous schedule value.
fn schedule_from_model(
    graph: &TermGraph,
    schedule: &TestSchedule,
    constraints: &[TermId],
    model: &soccar_smt::Model,
) -> TestSchedule {
    let mut support = HashSet::new();
    for t in constraints {
        collect_vars(graph, *t, &mut support);
    }
    let mut next = schedule.clone();
    for var in support {
        let Term::Var(name) = graph.term(var) else {
            continue;
        };
        let Some(value) = model.value(var) else {
            continue;
        };
        if let Some((d, c)) = parse_slot(name, "rst_") {
            if d < next.resets.len() && c < next.cycles {
                let track = &mut next.resets[d];
                let line_high = value.to_u64() == Some(1);
                track.asserted[c as usize] = line_high != track.active_low;
            }
        } else if let Some((i, c)) = parse_slot(name, "in_") {
            if i < next.inputs.len() && c < next.cycles {
                next.inputs[i].values[c as usize] = from_bv(value);
            }
        }
    }
    next
}

/// Parses `prefix{index}_{cycle}` variable names.
fn parse_slot(name: &str, prefix: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix(prefix)?;
    let (idx, cycle) = rest.split_once('_')?;
    Some((idx.parse().ok()?, cycle.parse().ok()?))
}

/// Collects variable terms reachable from `t`.
fn collect_vars(graph: &TermGraph, t: TermId, out: &mut HashSet<TermId>) {
    let mut stack = vec![t];
    let mut seen = HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        match graph.term(id) {
            Term::Var(_) => {
                out.insert(id);
            }
            Term::Const(_) => {}
            Term::Not(a) | Term::RedAnd(a) | Term::RedOr(a) | Term::RedXor(a) => stack.push(*a),
            Term::Extract { arg, .. } | Term::ZExt { arg, .. } => stack.push(*arg),
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
                stack.push(*a);
                stack.push(*b);
            }
            Term::Ite(c, a, b) => {
                stack.push(*c);
                stack.push(*a);
                stack.push(*b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PropertyKind;
    use soccar_cfg::{bind_events, compose_soc, GovernorAnalysis, ResetNaming};
    use soccar_rtl::parser::parse;
    use soccar_rtl::span::FileId;

    fn setup(
        src: &str,
        props: Vec<SecurityProperty>,
        analysis: GovernorAnalysis,
        config: ConcolicConfig,
    ) -> ConcolicReport {
        let unit = parse(FileId(0), src).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(&unit, "top", &ResetNaming::new(), analysis).expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let mut engine = ConcolicEngine::new(&design, &bound, props, config).expect("engine");
        engine.run().expect("run")
    }

    const LEAKY_CRYPTO: &str = "
        module aes(input clk, input rst_n, input load, input [7:0] key_in,
                   output reg [7:0] key_reg, output reg [7:0] busy_ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              busy_ctr <= 8'd0;          // BUG: key_reg not cleared
            end else begin
              if (load) key_reg <= key_in;
              busy_ctr <= busy_ctr + 8'd1;
            end
        endmodule
        module top(input clk, input crypto_rst_n, input load, input [7:0] key_in,
                   output [7:0] key_reg, output [7:0] busy);
          aes u_aes (.clk(clk), .rst_n(crypto_rst_n), .load(load),
                     .key_in(key_in), .key_reg(key_reg), .busy_ctr(busy));
        endmodule";

    fn leak_property() -> SecurityProperty {
        SecurityProperty {
            name: "aes-key-cleared".into(),
            module: "aes".into(),
            kind: PropertyKind::ClearedAfterReset {
                domain: "top.crypto_rst_n".into(),
                signal: "top.u_aes.key_reg".into(),
                expected: LogicVec::zeros(8),
                window: 0,
            },
        }
    }

    #[test]
    fn engine_detects_uncleaned_key_register() {
        let report = setup(
            LEAKY_CRYPTO,
            vec![leak_property()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 12,
                max_rounds: 8,
                symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(report.violated("aes-key-cleared"), "report: {report:?}");
        assert!(!report.witnesses.is_empty());
        assert!(report.targets_covered > 0);
    }

    #[test]
    fn clean_design_produces_no_violations() {
        let clean = LEAKY_CRYPTO.replace(
            "busy_ctr <= 8'd0;          // BUG: key_reg not cleared",
            "busy_ctr <= 8'd0; key_reg <= 8'd0;",
        );
        let report = setup(
            &clean,
            vec![leak_property()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 12,
                max_rounds: 16,
                symbolic_inputs: vec!["top.load".into(), "top.key_in".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(!report.has_violations(), "report: {report:?}");
        assert_eq!(report.coverage(), 1.0, "all targets coverable: {report:?}");
    }

    #[test]
    fn solver_flip_reaches_data_guarded_branch() {
        // The reset arm contains a branch guarded by a *data* condition
        // (magic == 8'h5A) that random inputs are unlikely to hit; the
        // solver must construct it.
        let src = "
            module ip(input clk, input rst_n, input [7:0] magic,
                      output reg flag, output reg [7:0] ctr);
              always @(posedge clk or negedge rst_n)
                if (!rst_n) begin
                  if (magic == 8'h5A) flag <= 1'b1;
                  ctr <= 8'd0;
                end else ctr <= ctr + 8'd1;
            endmodule
            module top(input clk, input dom_rst_n, input [7:0] magic,
                       output flag, output [7:0] ctr);
              ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                    .flag(flag), .ctr(ctr));
            endmodule";
        let report = setup(
            src,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 16,
                seed: 7,
                symbolic_inputs: vec!["top.magic".into()],
                skip_sweep: true,
                ..ConcolicConfig::default()
            },
        );
        // Full coverage requires taking the magic branch both ways.
        assert_eq!(
            report.targets_covered, report.targets_total,
            "solver must reach the magic-guarded branch: {report:?}"
        );
        assert!(
            report.solver_sat > 0,
            "at least one flip solved: {report:?}"
        );
    }

    const MAGIC_SRC: &str = "
        module ip(input clk, input rst_n, input [7:0] magic,
                  output reg flag, output reg [7:0] ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              if (magic == 8'h5A) flag <= 1'b1;
              ctr <= 8'd0;
            end else ctr <= ctr + 8'd1;
        endmodule
        module top(input clk, input dom_rst_n, input [7:0] magic,
                   output flag, output [7:0] ctr);
          ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                .flag(flag), .ctr(ctr));
        endmodule";

    #[test]
    fn flip_workload_queries_are_sound_and_counted() {
        // The frozen first-round workload: every candidate is one traced
        // query, and `solve_incremental` is the same pass as `solve`.
        let unit = parse(FileId(0), MAGIC_SRC).expect("parse");
        let design = soccar_rtl::elaborate::elaborate(&unit, "top").expect("elaborate");
        let soc = compose_soc(
            &unit,
            "top",
            &ResetNaming::new(),
            GovernorAnalysis::Explicit,
        )
        .expect("compose");
        let bound = bind_events(&design, &soc).expect("bind");
        let config = ConcolicConfig {
            cycles: 8,
            seed: 7,
            symbolic_inputs: vec!["top.magic".into()],
            ..ConcolicConfig::default()
        };
        let engine = ConcolicEngine::new(&design, &bound, vec![], config).expect("engine");
        let workload = engine.flip_workload().expect("workload");
        let cap = 16;
        assert!(workload.candidates(cap) > 0, "round produced no branches");
        let recorder = soccar_obs::Recorder::enabled();
        let sat = workload.solve(cap, &recorder);
        assert!(sat > 0, "some branch of the magic design is flippable");
        assert_eq!(
            workload.solve_incremental(cap, &soccar_obs::Recorder::disabled()),
            sat
        );
        let snap = recorder.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("smt.queries"), workload.candidates(cap) as u64);
        assert_eq!(counter("smt.sat"), sat as u64);
    }

    #[test]
    fn flip_window_pins_the_prefix_and_flips_the_goal() {
        let mut g = TermGraph::new();
        let obs: Vec<BranchObservation> = (0..5u32)
            .map(|i| BranchObservation {
                site: BranchSiteId(i),
                cond: g.var(format!("c{i}"), 1),
                taken: i % 2 == 0,
                step: u64::from(i),
            })
            .collect();
        // Candidates 3 and 4 with a two-deep prefix need observations 1..=4.
        let window = FlipWindow::intern(&mut g, &obs, [3, 4].into_iter(), 2);
        assert_eq!(window.start, 1);
        assert_eq!(window.neg.len(), 4);
        let terms = window.terms(&obs, 4, false, 2);
        let neg = |g: &mut TermGraph, i: usize| g.not(obs[i].cond);
        // Observation 2 was taken, 3 was not; the goal flips 4 to false.
        let want = vec![obs[2].cond, neg(&mut g, 3), neg(&mut g, 4)];
        assert_eq!(terms, want);
        // A prefix shorter than `max_prefix` starts at observation 0.
        let short = FlipWindow::intern(&mut g, &obs, [1].into_iter(), 2);
        assert_eq!(short.start, 0);
        assert_eq!(
            short.terms(&obs, 1, true, 2),
            vec![obs[0].cond, obs[1].cond]
        );
    }

    #[test]
    fn explicit_analysis_misses_implicit_governor_refined_catches() {
        // The Section V-C scenario as a minimal engine test.
        let src = "
            module sha(input clk, input sec_rst_n, input [7:0] pt,
                       output reg [7:0] ct);
              always @(negedge sec_rst_n)
                if (clk) ct <= pt;      // implicit governor construct
            endmodule
            module top(input clk, input sec_rst_n, input [7:0] pt, output [7:0] ct);
              sha u (.clk(clk), .sec_rst_n(sec_rst_n), .pt(pt), .ct(ct));
            endmodule";
        let prop = SecurityProperty {
            name: "sha-ct-cleared".into(),
            module: "sha".into(),
            kind: PropertyKind::NeverEqual {
                a: "top.u.ct".into(),
                b: "top.u.pt".into(),
                enable: None,
            },
        };
        // Explicit: no AR_CFG events → no reset domains → reset never
        // pulsed → bug not excited.
        let explicit = setup(
            src,
            vec![prop.clone()],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 4,
                symbolic_inputs: vec!["top.pt".into()],
                ..ConcolicConfig::default()
            },
        );
        assert_eq!(explicit.targets_total, 0);
        assert!(!explicit.has_violations(), "{explicit:?}");
        // Refined: the whole block is an event; the domain is pulsed and
        // the leak becomes visible.
        let refined = setup(
            src,
            vec![prop],
            GovernorAnalysis::Refined,
            ConcolicConfig {
                cycles: 10,
                max_rounds: 8,
                symbolic_inputs: vec!["top.pt".into()],
                ..ConcolicConfig::default()
            },
        );
        assert!(refined.targets_total > 0);
        assert!(refined.violated("sha-ct-cleared"), "{refined:?}");
    }

    #[test]
    fn walk_and_sweep_are_job_count_invariant() {
        // The solver-heavy magic-branch design, with its sweep: the round
        // outcome hinges on which flip result is consumed, and the sweep
        // runs beside the walk at more than one job, so any dependence on
        // the job count would show up immediately.
        let src = "
            module ip(input clk, input rst_n, input [7:0] magic,
                      output reg flag, output reg [7:0] ctr);
              always @(posedge clk or negedge rst_n)
                if (!rst_n) begin
                  if (magic == 8'h5A) flag <= 1'b1;
                  ctr <= 8'd0;
                end else ctr <= ctr + 8'd1;
            endmodule
            module top(input clk, input dom_rst_n, input [7:0] magic,
                       output flag, output [7:0] ctr);
              ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                    .flag(flag), .ctr(ctr));
            endmodule";
        let run = |jobs: usize| {
            setup(
                src,
                vec![],
                GovernorAnalysis::Explicit,
                ConcolicConfig {
                    cycles: 10,
                    max_rounds: 16,
                    seed: 7,
                    symbolic_inputs: vec!["top.magic".into()],
                    jobs,
                    ..ConcolicConfig::default()
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.targets_covered, parallel.targets_covered);
        assert_eq!(serial.targets_unreachable, parallel.targets_unreachable);
        assert_eq!(serial.solver_calls, parallel.solver_calls);
        assert_eq!(serial.solver_sat, parallel.solver_sat);
        assert_eq!(serial.violations, parallel.violations);
        assert_eq!(serial.witnesses, parallel.witnesses);
        assert_eq!(serial.first_violation_round, parallel.first_violation_round);
        assert_eq!(parallel.flip_exec.tasks, serial.flip_exec.tasks);
        assert!(parallel.flip_exec.jobs >= 1);
        assert_eq!(serial.solver_unknown, parallel.solver_unknown);
        assert_eq!(serial.flips_failed, parallel.flips_failed);
        assert_eq!(serial.degraded_rounds, parallel.degraded_rounds);
        assert_eq!(serial.degraded_reasons, parallel.degraded_reasons);
    }

    const MAGIC_BRANCH: &str = "
        module ip(input clk, input rst_n, input [7:0] magic,
                  output reg flag, output reg [7:0] ctr);
          always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
              if (magic == 8'h5A) flag <= 1'b1;
              ctr <= 8'd0;
            end else ctr <= ctr + 8'd1;
        endmodule
        module top(input clk, input dom_rst_n, input [7:0] magic,
                   output flag, output [7:0] ctr);
          ip u (.clk(clk), .rst_n(dom_rst_n), .magic(magic),
                .flag(flag), .ctr(ctr));
        endmodule";

    fn magic_config() -> ConcolicConfig {
        ConcolicConfig {
            cycles: 10,
            max_rounds: 16,
            seed: 7,
            symbolic_inputs: vec!["top.magic".into()],
            skip_sweep: true,
            ..ConcolicConfig::default()
        }
    }

    #[test]
    fn solver_budget_exhaustion_degrades_instead_of_aborting() {
        // A zero-decision budget makes every flip solve that needs a
        // branching decision return Unknown; the engine must record the
        // skips and still finish the run. The guard is an inequality so
        // that no flip is decided by unit propagation alone (an equality
        // goal such as `magic == 8'h5A` pins every bit without a single
        // decision, and is answered Sat under any budget).
        let report = setup(
            &MAGIC_BRANCH.replace("magic == 8'h5A", "magic > 8'h5A"),
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                solver_budget: SolveBudget {
                    max_conflicts: None,
                    max_decisions: Some(0),
                },
                ..magic_config()
            },
        );
        assert!(report.solver_unknown > 0, "report: {report:?}");
        assert!(report.is_degraded(), "report: {report:?}");
        assert!(report.degraded_rounds > 0, "report: {report:?}");
        assert!(
            report
                .degraded_reasons
                .iter()
                .any(|r| r.contains("budget exhausted")),
            "report: {report:?}"
        );
        // Unknown flips are skipped, never consumed as SAT.
        assert_eq!(report.solver_sat, 0, "report: {report:?}");
    }

    #[test]
    fn injected_solver_unknown_skips_one_flip() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                fault_plan: FaultPlan::parse("solver_unknown@1").expect("plan"),
                ..magic_config()
            },
        );
        assert_eq!(report.solver_unknown, 1, "report: {report:?}");
        assert!(report.is_degraded());
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r.contains("injected fault: solver_unknown@1")));
        // Later flips still run: the branch is eventually covered.
        assert_eq!(report.targets_covered, report.targets_total);
    }

    #[test]
    fn injected_flip_panic_degrades_round_and_continues() {
        let report = setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                fault_plan: FaultPlan::parse("task_panic@flips:1").expect("plan"),
                failure_policy: FailurePolicy::KeepGoing,
                ..magic_config()
            },
        );
        assert_eq!(report.flips_failed, 1, "report: {report:?}");
        assert!(report.is_degraded());
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r.contains("worker panicked") && r.contains("task_panic@flips:1")));
        assert_eq!(report.targets_covered, report.targets_total);
    }

    #[test]
    fn faulted_runs_are_deterministic_across_job_counts() {
        let run = |jobs: usize| {
            setup(
                MAGIC_BRANCH,
                vec![],
                GovernorAnalysis::Explicit,
                ConcolicConfig {
                    jobs,
                    fault_plan: FaultPlan::parse("solver_unknown@1,task_panic@flips:2")
                        .expect("plan"),
                    failure_policy: FailurePolicy::KeepGoing,
                    ..magic_config()
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.solver_unknown, parallel.solver_unknown);
        assert_eq!(serial.flips_failed, parallel.flips_failed);
        assert_eq!(serial.degraded_rounds, parallel.degraded_rounds);
        assert_eq!(serial.degraded_reasons, parallel.degraded_reasons);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.targets_covered, parallel.targets_covered);
        assert_eq!(serial.solver_calls, parallel.solver_calls);
        assert_eq!(serial.solver_sat, parallel.solver_sat);
    }

    /// Runs the gated-magic design. Its first round numbers four flip
    /// candidates for the magic-guarded branch: #1 is Sat, #2 is Unsat
    /// and #3 is Sat again.
    fn magic_run(jobs: usize, faults: &str, failure_policy: FailurePolicy) -> ConcolicReport {
        setup(
            MAGIC_BRANCH,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                jobs,
                fault_plan: FaultPlan::parse(faults).expect("plan"),
                failure_policy,
                ..magic_config()
            },
        )
    }

    #[test]
    fn solver_calls_count_what_the_walk_reads() {
        for jobs in [1, 2, 4] {
            // Candidate #1 is consumed: one read, none of #2..#4.
            let report = magic_run(jobs, "", FailurePolicy::FailFast);
            assert_eq!(report.solver_calls, 1, "jobs {jobs}: {report:?}");
            assert_eq!(report.solver_sat, 1, "jobs {jobs}: {report:?}");
            // #1 skipped and #2 Unsat: the walk consumes #3.
            let report = magic_run(jobs, "solver_unknown@1", FailurePolicy::FailFast);
            assert_eq!(report.solver_calls, 3, "jobs {jobs}: {report:?}");
            assert_eq!(report.solver_sat, 1, "jobs {jobs}: {report:?}");
            assert_eq!(report.targets_covered, report.targets_total);
        }
    }

    #[test]
    fn flips_are_solved_only_as_the_walk_reads_them() {
        // The first round's target has four candidates; the walk stops at
        // the first Sat, and no candidate after it is solved.
        for jobs in [1, 2] {
            for faults in ["", "solver_unknown@1"] {
                let report = magic_run(jobs, faults, FailurePolicy::FailFast);
                assert_eq!(
                    report.flip_exec.tasks, report.solver_calls,
                    "jobs {jobs}, faults {faults:?}: {report:?}"
                );
                assert_eq!(report.flip_exec.jobs, 1, "{report:?}");
            }
        }
    }

    #[test]
    fn flip_fault_after_the_consumed_candidate_leaves_the_run_healthy() {
        // #2 is never read once #1 is consumed, under either policy.
        for policy in [FailurePolicy::FailFast, FailurePolicy::KeepGoing] {
            for faults in ["task_panic@flips:2", "solver_unknown@2"] {
                let report = magic_run(2, faults, policy);
                assert!(!report.is_degraded(), "{faults}: {report:?}");
                assert_eq!(report.flips_failed, 0, "{faults}: {report:?}");
                assert_eq!(report.solver_unknown, 0, "{faults}: {report:?}");
                assert_eq!(report.solver_calls, 1, "{faults}: {report:?}");
            }
        }
    }

    #[test]
    fn flip_fault_before_the_consumed_candidate_degrades_the_run() {
        // With #1 skipped, the walk reads #2 on its way to #3.
        let report = magic_run(
            2,
            "solver_unknown@1,task_panic@flips:2",
            FailurePolicy::KeepGoing,
        );
        assert_eq!(report.flips_failed, 1, "report: {report:?}");
        assert_eq!(report.solver_calls, 3, "report: {report:?}");
        assert!(report
            .degraded_reasons
            .iter()
            .any(|r| r == "round 1: flip 2 worker panicked: injected fault: task_panic@flips:2"));
        // Fail-fast rethrows the read panic.
        let aborted = std::panic::catch_unwind(|| {
            magic_run(
                2,
                "solver_unknown@1,task_panic@flips:2",
                FailurePolicy::FailFast,
            )
        });
        let payload = aborted.expect_err("a read worker panic aborts a fail-fast run");
        assert_eq!(
            soccar_exec::panic_message(payload.as_ref()),
            "injected fault: task_panic@flips:2"
        );
    }

    #[test]
    fn report_accessors() {
        let report = setup(
            LEAKY_CRYPTO,
            vec![],
            GovernorAnalysis::Explicit,
            ConcolicConfig {
                cycles: 6,
                max_rounds: 2,
                ..ConcolicConfig::default()
            },
        );
        assert!(!report.violated("nonexistent"));
        assert!(report.rounds >= 1);
        assert!(report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn parse_slot_names() {
        assert_eq!(parse_slot("rst_0_12", "rst_"), Some((0, 12)));
        assert_eq!(parse_slot("in_3_7", "in_"), Some((3, 7)));
        assert_eq!(parse_slot("rst_x_7", "rst_"), None);
        assert_eq!(parse_slot("other", "rst_"), None);
    }
}
