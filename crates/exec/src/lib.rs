//! # soccar-exec
//!
//! The parallel execution layer of the SoCCAR pipeline: a dependency-free,
//! hand-rolled **scoped worker pool** (`std::thread` + one atomic work
//! cursor) exposing a deterministic [`parallel_map`] API, and
//! [`parallel_map_beside`], which runs the same pool while the calling
//! thread does serial work of its own and then joins the workers, and
//! [`with_deferred`], which runs one closure beside the caller's work and
//! hands the caller a handle to join it.
//!
//! Every stage that fans out through this crate obeys the project-wide
//! **determinism contract** (DESIGN.md §9):
//!
//! * results are merged **by item index**, never by completion order, so
//!   the output of `parallel_map(jobs, items, f)` is byte-for-byte the
//!   same `Vec` for every `jobs` value;
//! * the worker function receives `&T` and must not communicate with its
//!   siblings — each task's result may depend only on its input;
//! * a panicking task does not poison its siblings: remaining tasks still
//!   run, and what happens afterwards is the caller's
//!   [`FailurePolicy`] — [`FailurePolicy::FailFast`] re-raises the payload
//!   of the **lowest-index** panic on the caller's thread (again
//!   independent of scheduling), while [`FailurePolicy::KeepGoing`] turns
//!   each panic into an index-ordered [`TaskOutcome::Failed`] slot that
//!   preserves the panic message.
//!
//! The pool is *scoped*: workers borrow `items` and `f` from the caller's
//! stack frame and are always joined before [`parallel_map`] returns, so
//! no `'static` bounds are required and no threads outlive the call.
//!
//! Job-count selection is centralized in [`resolve_jobs`]: an explicit
//! request (`--jobs N`) wins, then the `SOCCAR_JOBS` environment variable,
//! then the machine's available parallelism.
//!
//! This crate also hosts the deterministic fault-injection plans
//! ([`FaultPlan`], the `SOCCAR_FAULTS` variable) because it sits below
//! every other crate in the workspace — smt, cfg, concolic, and core all
//! consult the same plan type at their named injection points.
//!
//! # Examples
//!
//! ```
//! use soccar_exec::parallel_map;
//!
//! let squares = parallel_map(4, &[1u64, 2, 3, 4], |n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod faultplan;
mod semaphore;

pub use faultplan::{FaultPlan, FAULTS_ENV, KNOWN_POINTS};
pub use semaphore::{Semaphore, SemaphoreGuard};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The environment variable consulted by [`resolve_jobs`].
pub const JOBS_ENV: &str = "SOCCAR_JOBS";

/// Resolves the worker count for a pool.
///
/// Precedence:
///
/// 1. `explicit` (a `--jobs N` flag), when `Some(n)` with `n > 0`;
/// 2. the `SOCCAR_JOBS` environment variable, when set to a positive
///    integer (anything else is ignored);
/// 3. [`std::thread::available_parallelism`], falling back to 1.
///
/// `Some(0)` is treated like `None` so callers can plumb a plain
/// `usize` config field through with `0 = auto`.
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(s) = std::env::var(JOBS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What a pool does when a task panics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// After all tasks finish, re-raise the payload of the lowest-index
    /// panicking task on the caller's thread (the historical behavior).
    #[default]
    FailFast,
    /// Convert each panic into an index-ordered [`TaskOutcome::Failed`]
    /// slot carrying the panic message, and keep going. Merging stays
    /// deterministic: the failed slot sits exactly where the result
    /// would have.
    KeepGoing,
}

/// The per-task result of a [`parallel_map_policy`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome<R> {
    /// The task completed and produced a value.
    Ok(R),
    /// The task panicked; `panic` is the original payload rendered as a
    /// string (the `&str`/`String` payload verbatim, or a placeholder for
    /// exotic payload types), so degraded reports can say *why* a worker
    /// died.
    Failed {
        /// The panic payload as a message.
        panic: String,
    },
}

impl<R> TaskOutcome<R> {
    /// The value if the task succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            TaskOutcome::Failed { .. } => None,
        }
    }

    /// A reference to the value if the task succeeded.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            TaskOutcome::Failed { .. } => None,
        }
    }

    /// The panic message if the task failed.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed { panic } => Some(panic),
        }
    }

    /// `true` if the task panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, TaskOutcome::Failed { .. })
    }
}

/// Renders a caught panic payload as a string, preserving `&str` and
/// `String` payloads (the overwhelmingly common cases from `panic!` and
/// `assert!`) verbatim.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Worker-utilization counters for one `parallel_map` call (or several,
/// via [`PoolStats::absorb`]). These make a speedup *observable* — the
/// pipeline's stage reports carry them — but they are wall-clock
/// measurements and therefore excluded from canonical (deterministic)
/// report serializations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Workers the pool ran with (the resolved job count).
    pub jobs: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Summed task execution time across all workers.
    pub busy: Duration,
    /// Wall-clock time of the mapped region.
    pub elapsed: Duration,
    /// Wall-clock time the calling thread spent in the foreground work of
    /// [`parallel_map_beside`] before it joined the workers (a plain
    /// map's foreground is empty).
    pub foreground: Duration,
}

impl PoolStats {
    /// Mean worker utilization in `[0, 1]`: busy time divided by the
    /// capacity the pool actually had, `elapsed × jobs` less the calling
    /// thread's foreground time. 1.0 means every worker was busy whenever
    /// it was free to take a task; values near `1/jobs` mean the work was
    /// effectively serial.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let capacity =
            self.elapsed.as_secs_f64() * self.jobs as f64 - self.foreground.as_secs_f64();
        if capacity <= f64::EPSILON {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Folds another call's counters into this one (job counts take the
    /// maximum, everything else accumulates).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.jobs = self.jobs.max(other.jobs);
        self.tasks += other.tasks;
        self.busy += other.busy;
        self.elapsed += other.elapsed;
        self.foreground += other.foreground;
    }
}

type RawResult<R> = Result<R, Box<dyn std::any::Any + Send>>;

/// The shared pool core: maps `f` over `items` on `spawn` workers while
/// the calling thread runs `foreground`; once that returns, the caller
/// claims indices from the same cursor as one more worker until every
/// item is done. Captures task panics and returns `foreground`'s result
/// and per-task `Result`s **in input order**, together with the pool's
/// utilization counters. All public entry points are policy adapters
/// over this.
///
/// No spawned worker means `foreground` runs, then the items inline. A
/// panic in `foreground` stops the cursor, and re-raises once the
/// workers have finished the tasks they hold.
fn map_beside_raw<T, R, G, B, F>(
    spawn: usize,
    items: &[T],
    foreground: B,
    f: F,
) -> (G, Vec<RawResult<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    B: FnOnce() -> G,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();

    // The one worker loop: a shared atomic cursor hands out indices, and
    // each worker keeps `(index, result, task_time)` for the merge.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break done;
            }
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| f(&items[i])));
            done.push((i, result, t.elapsed()));
        }
    };
    let (foreground, finished) = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..spawn).map(|_| scope.spawn(work)).collect();
        let t = Instant::now();
        let foreground = catch_unwind(AssertUnwindSafe(foreground));
        let foreground_time = t.elapsed();
        if foreground.is_err() {
            next.store(items.len(), Ordering::Relaxed);
        }
        let mut finished = work();
        for worker in spawned {
            finished.extend(worker.join().expect("the worker loop catches task panics"));
        }
        (foreground.map(|g| (g, foreground_time)), finished)
    });
    let (foreground, foreground_time) = foreground.unwrap_or_else(|p| resume_unwind(p));

    let mut slots: Vec<Option<RawResult<R>>> = (0..items.len()).map(|_| None).collect();
    let mut busy = Duration::ZERO;
    for (i, result, took) in finished {
        busy += took;
        slots[i] = Some(result);
    }
    let stats = PoolStats {
        jobs: spawn + 1,
        tasks: items.len(),
        busy,
        elapsed: started.elapsed(),
        foreground: foreground_time,
    };
    let results = slots
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect();
    (foreground, results, stats)
}

/// `jobs`, with `0` resolved as in [`resolve_jobs`].
fn resolved(jobs: usize) -> usize {
    if jobs == 0 {
        resolve_jobs(None)
    } else {
        jobs
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning results
/// in **input order** (see the module docs for the determinism contract).
///
/// `jobs == 0` resolves automatically as in [`resolve_jobs`]; `jobs == 1`
/// (or a single item) runs inline on the calling thread with no pool.
///
/// # Panics
///
/// If one or more tasks panic, the panic payload of the lowest-index
/// failing task is re-raised after all tasks have finished
/// ([`FailurePolicy::FailFast`]).
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_stats(jobs, items, f).0
}

/// Like [`parallel_map`], additionally returning the pool's utilization
/// counters for stage reporting.
///
/// # Panics
///
/// As [`parallel_map`].
pub fn parallel_map_stats<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (outcomes, stats) = parallel_map_policy(jobs, items, FailurePolicy::FailFast, f);
    let out = outcomes
        .into_iter()
        .map(|o| o.ok().expect("fail-fast re-raised every panic"))
        .collect();
    (out, stats)
}

/// Like [`parallel_map_stats`], but with an explicit [`FailurePolicy`]:
/// under [`FailurePolicy::KeepGoing`] each panicking task yields an
/// index-ordered [`TaskOutcome::Failed`] slot (carrying the panic
/// message) instead of aborting the caller.
///
/// The calling thread is one of the `jobs` workers, so `min(jobs, items)
/// − 1` threads are spawned: one job or one item runs inline.
///
/// # Panics
///
/// Under [`FailurePolicy::FailFast`], as [`parallel_map`]; never under
/// [`FailurePolicy::KeepGoing`].
pub fn parallel_map_policy<T, R, F>(
    jobs: usize,
    items: &[T],
    policy: FailurePolicy,
    f: F,
) -> (Vec<TaskOutcome<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let spawn = resolved(jobs).min(items.len()).saturating_sub(1);
    let ((), raw, stats) = map_beside_raw(spawn, items, || (), f);
    (apply_policy(raw, policy), stats)
}

/// Like [`parallel_map_policy`], while the calling thread first runs
/// `foreground`: the items go to `min(jobs − 1, items)` spawned workers,
/// and once `foreground` returns, the caller joins them on the same work
/// cursor until every item is done. Returns `foreground`'s result, the
/// index-ordered outcomes and the pool's counters; `elapsed` spans
/// `foreground` too, `foreground` times it, and `busy` counts the tasks
/// alone.
///
/// Use it to overlap independent work with a serial computation that
/// must stay on the calling thread: even a single item runs on a worker
/// while `foreground` runs. `jobs == 1` or an empty `items` spawns no
/// thread: `foreground` runs, then the items inline.
///
/// # Panics
///
/// A panic in `foreground` stops handing out items and re-raises once
/// the workers have finished the tasks they hold. Task panics follow
/// `policy`, as in [`parallel_map_policy`].
pub fn parallel_map_beside<T, R, G, B, F>(
    jobs: usize,
    items: &[T],
    policy: FailurePolicy,
    foreground: B,
    f: F,
) -> (G, Vec<TaskOutcome<R>>, PoolStats)
where
    T: Sync,
    R: Send,
    B: FnOnce() -> G,
    F: Fn(&T) -> R + Sync,
{
    let spawn = (resolved(jobs) - 1).min(items.len());
    let (foreground, raw, stats) = map_beside_raw(spawn, items, foreground, f);
    (foreground, apply_policy(raw, policy), stats)
}

/// Turns the pool's raw per-task results into outcomes under `policy`.
fn apply_policy<R>(raw: Vec<RawResult<R>>, policy: FailurePolicy) -> Vec<TaskOutcome<R>> {
    if policy == FailurePolicy::FailFast {
        // `raw` is index-ordered, so the first error is the lowest-index
        // panic, and its original payload is what re-raises.
        if let Some(pos) = raw.iter().position(Result::is_err) {
            let mut raw = raw;
            let Err(p) = raw.swap_remove(pos) else {
                unreachable!("position() found an Err")
            };
            resume_unwind(p);
        }
    }
    raw.into_iter()
        .map(|r| match r {
            Ok(v) => TaskOutcome::Ok(v),
            Err(p) => TaskOutcome::Failed {
                panic: panic_message(p.as_ref()),
            },
        })
        .collect()
}

/// Runs `main` while `side` runs beside it, and hands `main` a
/// [`Deferred`] handle on `side`'s result.
///
/// At `jobs ≥ 2`, `side` starts on a scoped thread before `main` runs.
/// At `jobs == 1` nothing is spawned: `side` runs inline when `main`
/// calls [`Deferred::join`], so the order of work is that of a serial
/// program that calls `side` at that point. `jobs == 0` resolves as in
/// [`resolve_jobs`].
///
/// A handle that `main` drops unjoined discards `side`: at one job it
/// never runs; otherwise the thread is joined before this returns, and
/// its result, or its panic, is dropped. That lets an early error in
/// `main` outrank whatever `side` did.
///
/// # Panics
///
/// A panic in `main` re-raises once `side` has finished.
///
/// # Examples
///
/// ```
/// let (a, b) = soccar_exec::with_deferred(2, || 6 * 7, |side| (1 + 1, side.join()));
/// assert_eq!((a, b), (2, 42));
/// ```
pub fn with_deferred<S, R, M, O>(jobs: usize, side: S, main: M) -> O
where
    S: FnOnce() -> R + Send,
    R: Send,
    M: for<'scope> FnOnce(Deferred<'scope, S, R>) -> O,
{
    if resolved(jobs) == 1 {
        return main(Deferred(Side::Inline(side)));
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| catch_unwind(AssertUnwindSafe(side)));
        main(Deferred(Side::Spawned(handle)))
    })
}

/// The handle [`with_deferred`] gives its `main` closure: `side`'s
/// result, once joined.
pub struct Deferred<'scope, S, R>(Side<'scope, S, R>);

enum Side<'scope, S, R> {
    Inline(S),
    Spawned(std::thread::ScopedJoinHandle<'scope, RawResult<R>>),
}

impl<S: FnOnce() -> R, R> Deferred<'_, S, R> {
    /// `side`'s result: run inline at one job, else waited for.
    ///
    /// # Panics
    ///
    /// A panic in `side` re-raises here with its own payload.
    pub fn join(self) -> R {
        match self.0 {
            Side::Inline(side) => side(),
            Side::Spawned(handle) => handle
                .join()
                .expect("the side thread catches its panic")
                .unwrap_or_else(|p| resume_unwind(p)),
        }
    }
}

impl<S, R> std::fmt::Debug for Deferred<'_, S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.0 {
            Side::Inline(_) => "inline",
            Side::Spawned(_) => "spawned",
        };
        f.debug_tuple("Deferred").field(&mode).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_arrive_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|n| n * 3 + 1).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(parallel_map(jobs, &items, |n| n * 3 + 1), expect);
        }
    }

    #[test]
    fn staggered_completion_still_merges_by_index() {
        // Later items finish first; the merge must not care.
        let items: Vec<u64> = (0..8).collect();
        let out = parallel_map(4, &items, |n| {
            std::thread::sleep(Duration::from_millis(8 - *n));
            *n
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |n| *n).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |n| n + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_resolves_automatically() {
        assert_eq!(parallel_map(0, &[1u32, 2], |n| *n), vec![1, 2]);
    }

    #[test]
    fn all_tasks_run_even_when_one_panics() {
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(2, &[0u32, 1, 2, 3], |n| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(*n != 1, "boom {n}");
                *n
            })
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 4, "siblings kept running");
    }

    #[test]
    fn lowest_index_panic_wins() {
        for jobs in [1, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map(jobs, &[0u32, 1, 2, 3], |n| {
                    if *n >= 2 {
                        panic!("task {n} failed");
                    }
                    *n
                })
            }));
            let payload = result.expect_err("panics propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("string payload");
            assert_eq!(msg, "task 2 failed", "jobs={jobs}");
        }
    }

    #[test]
    fn keep_going_yields_failed_slots_in_place() {
        for jobs in [1, 4] {
            let (out, stats) =
                parallel_map_policy(jobs, &[0u32, 1, 2, 3], FailurePolicy::KeepGoing, |n| {
                    if *n == 2 {
                        panic!("task {n} exploded");
                    }
                    *n * 10
                });
            assert_eq!(stats.tasks, 4);
            assert_eq!(out[0], TaskOutcome::Ok(0), "jobs={jobs}");
            assert_eq!(out[1], TaskOutcome::Ok(10));
            assert_eq!(
                out[2],
                TaskOutcome::Failed {
                    panic: "task 2 exploded".to_owned()
                },
                "panic payload preserved, jobs={jobs}"
            );
            assert_eq!(out[3], TaskOutcome::Ok(30));
            assert_eq!(out[2].panic_message(), Some("task 2 exploded"));
            assert!(out[2].is_failed());
            assert_eq!(out[3].as_ok(), Some(&30));
        }
    }

    #[test]
    fn fail_fast_policy_rethrows_original_payload() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_policy(2, &[0u32, 1], FailurePolicy::FailFast, |n| {
                assert!(*n != 1, "kaboom");
                *n
            })
        }));
        let payload = result.expect_err("panics propagate");
        assert!(panic_message(payload.as_ref()).contains("kaboom"));
    }

    #[test]
    fn panic_message_preserves_str_and_string_payloads() {
        let p1 = catch_unwind(|| panic!("static message")).expect_err("panics");
        assert_eq!(panic_message(p1.as_ref()), "static message");
        let p2 = catch_unwind(|| panic!("formatted {}", 42)).expect_err("panics");
        assert_eq!(panic_message(p2.as_ref()), "formatted 42");
        let p3 = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).expect_err("panics");
        assert_eq!(panic_message(p3.as_ref()), "<non-string panic payload>");
    }

    #[test]
    fn stats_count_tasks_and_busy_time() {
        let (out, stats) = parallel_map_stats(2, &[1u32, 2, 3], |n| {
            std::thread::sleep(Duration::from_millis(2));
            *n
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.jobs, 2);
        assert!(stats.busy >= Duration::from_millis(6));
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.utilization() > 0.0);
        assert!(stats.utilization() <= 1.0);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = PoolStats {
            jobs: 2,
            tasks: 3,
            busy: Duration::from_millis(10),
            elapsed: Duration::from_millis(6),
            foreground: Duration::from_millis(3),
        };
        let b = PoolStats {
            jobs: 4,
            tasks: 5,
            busy: Duration::from_millis(2),
            elapsed: Duration::from_millis(1),
            foreground: Duration::ZERO,
        };
        a.absorb(&b);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.tasks, 8);
        assert_eq!(a.busy, Duration::from_millis(12));
        assert_eq!(a.elapsed, Duration::from_millis(7));
        assert_eq!(a.foreground, Duration::from_millis(3));
        assert_eq!(PoolStats::default().utilization(), 0.0);
    }

    #[test]
    fn explicit_jobs_beat_everything() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(Some(0)) >= 1);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn beside_returns_the_foreground_result_and_ordered_results() {
        let items: Vec<u64> = (0..64).collect();
        for jobs in [1, 2, 4] {
            let (fg, out, stats) = parallel_map_beside(
                jobs,
                &items,
                FailurePolicy::FailFast,
                || "coverage",
                |n| {
                    std::thread::sleep(Duration::from_micros(64 - n));
                    n * 2
                },
            );
            assert_eq!(fg, "coverage");
            let out: Vec<u64> = out.into_iter().filter_map(TaskOutcome::ok).collect();
            assert_eq!(out, items.iter().map(|n| n * 2).collect::<Vec<_>>());
            assert_eq!(stats.tasks, 64);
            assert_eq!(stats.jobs, jobs);
        }
    }

    #[test]
    fn beside_utilization_excludes_the_foreground_time() {
        // One spawned worker runs both 15 ms tasks while the caller spends
        // 40 ms in the foreground: the pool had about 40 ms of capacity,
        // not 80, and was busy for 30 of it.
        let (_, _, stats) = parallel_map_beside(
            2,
            &[0u32, 1],
            FailurePolicy::FailFast,
            || std::thread::sleep(Duration::from_millis(40)),
            |_| std::thread::sleep(Duration::from_millis(15)),
        );
        assert!(stats.foreground >= Duration::from_millis(40));
        assert!(stats.elapsed >= stats.foreground);
        let over_all = stats.busy.as_secs_f64() / (stats.elapsed.as_secs_f64() * 2.0);
        assert!(stats.utilization() > over_all);
        assert!(stats.utilization() > 0.5, "{stats:?}");
    }

    #[test]
    fn beside_runs_tasks_while_the_foreground_runs() {
        // The foreground waits for a task to finish on another thread,
        // which only a worker spawned beside it can do.
        let ran = AtomicU32::new(0);
        let caller = std::thread::current().id();
        let (seen, out, _) = parallel_map_beside(
            2,
            &[0u32, 1, 2, 3],
            FailurePolicy::FailFast,
            || {
                let deadline = Instant::now() + Duration::from_secs(30);
                while ran.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                ran.load(Ordering::SeqCst)
            },
            |n| {
                if std::thread::current().id() != caller {
                    ran.fetch_add(1, Ordering::SeqCst);
                }
                *n
            },
        );
        assert!(seen > 0, "no task ran beside the foreground");
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn beside_spawns_a_worker_per_item_up_to_jobs_minus_one() {
        let caller = std::thread::current().id();
        let log = std::sync::Mutex::new(Vec::new());
        let cases = [
            (1, vec![0u32, 1, 2], 1),
            (4, Vec::new(), 1),
            (2, vec![7], 2),
            (4, vec![7], 2),
        ];
        for (jobs, items, workers) in cases {
            // The foreground waits for every task when a worker runs
            // them, so each task provably ran beside it.
            let done = AtomicU32::new(0);
            let (fg_thread, out, stats) = parallel_map_beside(
                jobs,
                &items,
                FailurePolicy::FailFast,
                || {
                    log.lock().expect("log").push("foreground");
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while workers > 1
                        && done.load(Ordering::SeqCst) < items.len() as u32
                        && Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    std::thread::current().id()
                },
                |n| {
                    log.lock().expect("log").push("task");
                    done.fetch_add(1, Ordering::SeqCst);
                    (std::thread::current().id(), *n)
                },
            );
            assert_eq!(fg_thread, caller);
            assert_eq!(stats.jobs, workers, "jobs {jobs}, {} items", items.len());
            let on_caller = workers == 1;
            for outcome in out {
                let (thread, _) = outcome.ok().expect("task succeeded");
                assert_eq!(thread == caller, on_caller, "jobs {jobs}: task thread");
            }
            let order = std::mem::take(&mut *log.lock().expect("log"));
            if on_caller {
                // Inline: the foreground first, then the items in order.
                let mut inline = vec!["foreground"];
                inline.extend(items.iter().map(|_| "task"));
                assert_eq!(order, inline, "jobs {jobs}");
            }
        }
    }

    #[test]
    fn plain_maps_keep_one_item_on_the_caller() {
        let caller = std::thread::current().id();
        for jobs in [1, 2, 4] {
            let (out, stats) = parallel_map_stats(jobs, &[7u32], |_| std::thread::current().id());
            assert_eq!(out, vec![caller], "jobs {jobs}");
            assert_eq!(stats.jobs, 1);
        }
        let (_, stats) = parallel_map_stats(4, &[1u32, 2], |n| *n);
        assert_eq!(
            stats.jobs, 2,
            "min(jobs, items) workers, the caller included"
        );
    }

    #[test]
    fn deferred_runs_inline_at_join_on_one_job() {
        let caller = std::thread::current().id();
        let log = std::sync::Mutex::new(Vec::new());
        let push = |what| log.lock().expect("log").push(what);
        let thread = with_deferred(
            1,
            || {
                push("side");
                std::thread::current().id()
            },
            |side| {
                push("main");
                let thread = side.join();
                push("after join");
                thread
            },
        );
        assert_eq!(thread, caller);
        assert_eq!(*log.lock().expect("log"), ["main", "side", "after join"]);
    }

    #[test]
    fn deferred_runs_beside_main_on_two_jobs() {
        // `main` waits for `side` to start, which only a thread spawned
        // beside it can do.
        let caller = std::thread::current().id();
        let started = AtomicU32::new(0);
        let (seen, thread) = with_deferred(
            2,
            || {
                started.store(1, Ordering::SeqCst);
                std::thread::current().id()
            },
            |side| {
                let deadline = Instant::now() + Duration::from_secs(30);
                while started.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                (started.load(Ordering::SeqCst), side.join())
            },
        );
        assert_eq!(seen, 1, "side did not run beside main");
        assert_ne!(thread, caller);
    }

    #[test]
    fn deferred_panic_re_raises_at_join_with_its_payload() {
        for jobs in [1, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_deferred(
                    jobs,
                    || -> u32 { panic!("lint failed") },
                    |side| side.join(),
                )
            }));
            let payload = result.expect_err("the side panic propagates");
            assert_eq!(
                panic_message(payload.as_ref()),
                "lint failed",
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn an_unjoined_deferred_is_discarded() {
        for jobs in [1, 2] {
            let out: Result<u32, &str> = with_deferred(
                jobs,
                || -> u32 { panic!("lint failed") },
                |_side| Err("elaboration failed"),
            );
            assert_eq!(out, Err("elaboration failed"), "jobs {jobs}");
        }
        let ran = AtomicU32::new(0);
        with_deferred(1, || ran.fetch_add(1, Ordering::SeqCst), |side| drop(side));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "one job never runs a dropped side"
        );
    }

    #[test]
    fn deferred_main_panic_propagates() {
        for jobs in [1, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_deferred(jobs, || 1, |_side| -> u32 { panic!("main failed") })
            }));
            let payload = result.expect_err("the main panic propagates");
            assert_eq!(
                panic_message(payload.as_ref()),
                "main failed",
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn beside_rethrows_the_lowest_index_task_panic() {
        for jobs in [1, 2, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_beside(
                    jobs,
                    &[0u32, 1, 2, 3, 4],
                    FailurePolicy::FailFast,
                    || (),
                    |n| {
                        if *n >= 2 {
                            panic!("task {n} failed");
                        }
                        *n
                    },
                )
            }));
            let payload = result.expect_err("panics propagate");
            assert_eq!(
                panic_message(payload.as_ref()),
                "task 2 failed",
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn beside_keep_going_fills_failed_slots_in_place() {
        for jobs in [1, 2, 4] {
            let (fg, out, stats) = parallel_map_beside(
                jobs,
                &[0u32, 1, 2, 3],
                FailurePolicy::KeepGoing,
                || 42,
                |n| {
                    assert!(*n != 1, "task {n} exploded");
                    *n
                },
            );
            assert_eq!(fg, 42);
            assert_eq!(stats.tasks, 4);
            assert_eq!(out[0], TaskOutcome::Ok(0), "jobs={jobs}");
            assert_eq!(out[1].panic_message(), Some("task 1 exploded"));
            assert_eq!(out[2], TaskOutcome::Ok(2));
            assert_eq!(out[3], TaskOutcome::Ok(3));
        }
    }

    #[test]
    fn foreground_panic_stops_the_cursor_and_propagates() {
        let items: Vec<u32> = (0..1000).collect();
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_beside(
                2,
                &items,
                FailurePolicy::FailFast,
                || -> u32 { panic!("foreground failed") },
                |n| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(1));
                    *n
                },
            )
        }));
        let payload = result.expect_err("the foreground panic propagates");
        assert_eq!(panic_message(payload.as_ref()), "foreground failed");
        let ran = ran.load(Ordering::SeqCst);
        assert!(ran < 1000, "{ran} tasks ran after the foreground failed");
    }

    #[test]
    fn borrowed_state_is_usable_from_tasks() {
        // The scoped pool lets tasks borrow caller-stack data.
        let table = [10u64, 20, 30];
        let out = parallel_map(4, &[0usize, 1, 2], |i| table[*i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
