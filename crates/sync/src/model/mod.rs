//! A loom-lite deterministic model checker for the facade types.
//!
//! The stress tests in this workspace
//! (`parallel_serve_matches_sequential_answers`, …) only find an interleaving
//! bug if the OS scheduler happens to produce it. This module removes the
//! luck: a **scenario** is an ordinary closure that spawns *virtual threads*
//! with [`spawn`], and every operation on a facade type
//! ([`crate::ClaimCursor`], [`crate::Generation`], [`crate::Counter`],
//! [`crate::PoisonFlag`], [`crate::Mutex`]) becomes a **schedule point** at
//! which a deterministic scheduler decides which thread performs its next
//! visible operation. Exactly one virtual thread runs between two points, so
//! each execution is one sequentially consistent interleaving chosen by the
//! scheduler — and the full set of interleavings can be enumerated or
//! sampled instead of hoped for.
//!
//! Three exploration strategies ([`Mode`]):
//!
//! * [`Mode::Exhaustive`] — depth-first enumeration of *every* schedule via
//!   an odometer over the decision tree. Use for small scenarios (two to
//!   three threads, a handful of operations each); the schedule count is
//!   multinomial in the operation counts.
//! * [`Mode::Random`] — PCT-style randomized exploration: each iteration
//!   draws its scheduling decisions from a SplitMix64 stream seeded from
//!   `seed` and the iteration index, so a failure names the exact iteration
//!   that produced it and the whole run is reproducible from `seed`.
//! * [`Mode::Replay`] — deterministically re-executes one recorded schedule
//!   (the [`Counterexample::schedule`] of a previous failure).
//!
//! A failing execution (assertion panic in any virtual thread, or a
//! deadlock) stops exploration and is returned as a [`Counterexample`]
//! carrying the schedule and the tail of the operation log; feeding the
//! schedule back through [`Mode::Replay`] reproduces the identical
//! execution, which is what makes counterexamples debuggable.
//!
//! # Instrumentation and cost
//!
//! In normal builds the facade types compile to bare `std::sync::atomic`
//! operations — no thread-local lookups, no branches — and this module is
//! inert (its scheduler is still compiled and unit-tested, but nothing
//! routes through it). Building with `RUSTFLAGS="--cfg bns_model_check"`
//! (see `ci.sh`) turns every facade operation into a schedule point. The
//! scenario suite lives in `crates/check` and only exists under that cfg.
//!
//! # Writing a scenario
//!
//! ```
//! use bns_sync::model::{check, spawn, Mode};
//! use bns_sync::ClaimCursor;
//! use std::sync::Arc;
//!
//! check("two workers claim disjoint indices", Mode::Exhaustive { max_executions: 10_000 }, || {
//!     let cursor = Arc::new(ClaimCursor::new(0));
//!     let workers: Vec<_> = (0..2)
//!         .map(|_| {
//!             let cursor = Arc::clone(&cursor);
//!             spawn(move || cursor.claim())
//!         })
//!         .collect();
//!     let mut claimed: Vec<usize> = workers.into_iter().map(|w| w.join()).collect();
//!     claimed.sort_unstable();
//!     assert_eq!(claimed, vec![0, 1], "claims must be exclusive and complete");
//! });
//! ```
//!
//! Scenario closures run once per explored execution and must be
//! **deterministic given the schedule**: build all state inside the closure,
//! and avoid schedule-visible behavior that depends on `HashMap` iteration
//! order, wall-clock time, or an unseeded RNG. Virtual threads must not
//! perform facade operations from `Drop` impls that can run during a failed
//! execution's unwind.

use crate::splitmix64;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Exploration strategy for [`run`] / [`check`].
#[derive(Debug, Clone)]
pub enum Mode {
    /// Depth-first enumeration of every schedule, stopping (with
    /// [`Report::complete`]` == false`) once `max_executions` have run.
    Exhaustive {
        /// Upper bound on explored executions.
        max_executions: usize,
    },
    /// Seeded randomized exploration: `iterations` executions whose
    /// scheduling decisions come from SplitMix64 streams derived from
    /// `seed` and the iteration index.
    Random {
        /// Base seed; the whole run is a pure function of it.
        seed: u64,
        /// Number of randomized executions.
        iterations: usize,
    },
    /// Re-execute exactly one recorded schedule (a
    /// [`Counterexample::schedule`]).
    Replay {
        /// The thread-id sequence to follow, one entry per decision.
        schedule: Vec<usize>,
    },
}

/// Summary of a passing exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Executions actually run.
    pub executions: usize,
    /// `true` when the decision tree was fully enumerated (always `false`
    /// for [`Mode::Random`], which samples rather than enumerates).
    pub complete: bool,
}

/// A failing execution, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The panic or deadlock message.
    pub message: String,
    /// Thread id chosen at each scheduling decision; feed back through
    /// [`Mode::Replay`] to re-execute this exact interleaving.
    pub schedule: Vec<usize>,
    /// Operation log of the failing execution (`"t<thread> <op>"`).
    pub ops: Vec<String>,
}

impl Counterexample {
    /// The last `n` operations, for compact failure messages.
    pub fn ops_tail(&self, n: usize) -> String {
        let start = self.ops.len().saturating_sub(n);
        self.ops[start..].join("\n")
    }
}

// ---------------------------------------------------------------------------
// Scheduler internals.
// ---------------------------------------------------------------------------

/// Cap on the operation log so pathological scenarios cannot OOM the
/// checker; counterexamples only ever print the tail.
const MAX_OPS: usize = 65_536;

/// Unwind payload used to tear down parked virtual threads once an
/// execution has failed; recognized (and swallowed) by the thread trampoline.
struct AbortUnwind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Runnable,
    BlockedJoin(usize),
    BlockedMutex(usize),
    Finished,
}

#[derive(Debug)]
enum Chooser {
    /// Odometer over the decision tree: `(options, taken)` per depth.
    Dfs {
        stack: Vec<(usize, usize)>,
        depth: usize,
    },
    /// SplitMix64 stream.
    Random { state: u64 },
    /// Follow a recorded thread-id sequence.
    Replay { schedule: Vec<usize>, pos: usize },
}

impl Chooser {
    /// Picks one of `runnable` (sorted thread ids); `Err` on replay
    /// divergence or a nondeterministic scenario.
    fn choose(&mut self, runnable: &[usize]) -> Result<usize, String> {
        match self {
            Chooser::Dfs { stack, depth } => {
                let idx = if *depth < stack.len() {
                    let (options, taken) = stack[*depth];
                    if options != runnable.len() {
                        return Err(format!(
                            "nondeterministic scenario: decision {depth} had {options} option(s) \
                             on a previous execution, {} now",
                            runnable.len()
                        ));
                    }
                    taken
                } else {
                    stack.push((runnable.len(), 0));
                    0
                };
                *depth += 1;
                Ok(runnable[idx])
            }
            Chooser::Random { state } => {
                *state = splitmix64(*state);
                Ok(runnable[(*state % runnable.len() as u64) as usize])
            }
            Chooser::Replay { schedule, pos } => {
                let Some(&want) = schedule.get(*pos) else {
                    return Err(format!(
                        "replay diverged: schedule exhausted after {} decision(s)",
                        *pos
                    ));
                };
                *pos += 1;
                if runnable.contains(&want) {
                    Ok(want)
                } else {
                    Err(format!(
                        "replay diverged at decision {}: thread {want} is not runnable",
                        *pos - 1
                    ))
                }
            }
        }
    }

    /// Advances a DFS odometer to the next unexplored path; `false` when
    /// the tree is exhausted.
    fn advance_dfs(&mut self) -> bool {
        let Chooser::Dfs { stack, depth } = self else {
            return false;
        };
        *depth = 0;
        while let Some((options, taken)) = stack.pop() {
            if taken + 1 < options {
                stack.push((options, taken + 1));
                return true;
            }
        }
        false
    }
}

struct St {
    phases: Vec<Phase>,
    current: usize,
    live: usize,
    abort: bool,
    failure: Option<String>,
    schedule: Vec<usize>,
    ops: Vec<String>,
    chooser: Chooser,
    mutex_owner: HashMap<usize, usize>,
}

struct Exec {
    st: StdMutex<St>,
    cv: Condvar,
}

impl Exec {
    fn new(chooser: Chooser) -> Self {
        Exec {
            st: StdMutex::new(St {
                phases: vec![Phase::Runnable],
                current: 0,
                live: 1,
                abort: false,
                failure: None,
                schedule: Vec::new(),
                ops: Vec::new(),
                chooser,
                mutex_owner: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, St> {
        self.st.lock().expect("model-check scheduler lock poisoned")
    }
}

thread_local! {
    /// The execution this OS thread is a virtual thread of, if any.
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Records a failure and condemns the execution; parked threads wake and
/// unwind via [`AbortUnwind`].
fn fail(exec: &Exec, st: &mut St, message: String) {
    if st.failure.is_none() {
        st.failure = Some(message);
    }
    st.abort = true;
    exec.cv.notify_all();
}

/// Picks the thread that performs the next visible operation. The caller
/// has already set its own phase (Runnable to stay in the race, Blocked or
/// Finished otherwise).
fn reschedule(exec: &Exec, st: &mut St) {
    let runnable: Vec<usize> = st
        .phases
        .iter()
        .enumerate()
        .filter(|(_, p)| **p == Phase::Runnable)
        .map(|(i, _)| i)
        .collect();
    if runnable.is_empty() {
        if st.live > 0 {
            let blocked: Vec<String> = st
                .phases
                .iter()
                .enumerate()
                .filter(|(_, p)| !matches!(p, Phase::Finished))
                .map(|(i, p)| format!("t{i}:{p:?}"))
                .collect();
            fail(exec, st, format!("deadlock: [{}]", blocked.join(", ")));
        }
        return;
    }
    match st.chooser.choose(&runnable) {
        Ok(next) => {
            st.schedule.push(next);
            st.current = next;
            exec.cv.notify_all();
        }
        Err(msg) => fail(exec, st, msg),
    }
}

/// Parks until the scheduler grants this thread; unwinds with
/// [`AbortUnwind`] when the execution is being torn down.
fn wait_granted<'a>(
    exec: &'a Exec,
    mut st: StdMutexGuard<'a, St>,
    me: usize,
) -> StdMutexGuard<'a, St> {
    while !st.abort && st.current != me {
        st = exec
            .cv
            .wait(st)
            .expect("model-check scheduler lock poisoned");
    }
    if st.abort {
        drop(st);
        panic::panic_any(AbortUnwind);
    }
    st
}

fn log_op(st: &mut St, me: usize, label: &str) {
    if st.ops.len() < MAX_OPS {
        st.ops.push(format!("t{me} {label}"));
    }
}

/// A schedule point: lets the scheduler hand the token to any runnable
/// thread before the caller performs its next visible operation. No-op
/// outside an execution.
pub(crate) fn point(label: &'static str) {
    let Some((exec, me)) = current() else { return };
    let mut st = exec.lock();
    if st.abort {
        drop(st);
        panic::panic_any(AbortUnwind);
    }
    reschedule(&exec, &mut st);
    if st.abort {
        drop(st);
        panic::panic_any(AbortUnwind);
    }
    if st.current != me {
        st = wait_granted(&exec, st, me);
    }
    log_op(&mut st, me, label);
}

/// Manual schedule point for scenarios (and the scheduler's own tests) to
/// mark a visible step that is not a facade operation.
pub fn yield_now() {
    point("yield");
}

/// Logical mutex acquisition: a schedule point, then ownership bookkeeping
/// with blocking instead of spinning. No-op outside an execution. The
/// caller takes the real `std::sync::Mutex` afterwards, which is guaranteed
/// uncontended because logical ownership is exclusive.
///
/// [`crate::Mutex`] calls this for you; scenarios only need it to model a
/// bare lock-ordering protocol (e.g. proving an ABBA deadlock) without
/// wrapping data. Pair every call with [`mutex_release`].
pub fn mutex_acquire(key: usize, label: &'static str) {
    let Some((exec, me)) = current() else { return };
    loop {
        let mut st = exec.lock();
        if st.abort {
            drop(st);
            panic::panic_any(AbortUnwind);
        }
        reschedule(&exec, &mut st);
        if st.abort {
            drop(st);
            panic::panic_any(AbortUnwind);
        }
        if st.current != me {
            st = wait_granted(&exec, st, me);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = st.mutex_owner.entry(key) {
            e.insert(me);
            log_op(&mut st, me, label);
            return;
        }
        // Held: block until the owner releases, then retry the acquire.
        st.phases[me] = Phase::BlockedMutex(key);
        reschedule(&exec, &mut st);
        if st.abort {
            drop(st);
            panic::panic_any(AbortUnwind);
        }
        let st = wait_granted(&exec, st, me);
        drop(st);
    }
}

/// Logical mutex release. Runs from guard `Drop`, so it must never panic —
/// including during an abort unwind; it only does bookkeeping and lets the
/// releasing thread keep the token until its next point.
pub fn mutex_release(key: usize) {
    let Some((exec, me)) = current() else { return };
    let Ok(mut st) = exec.st.lock() else { return };
    st.mutex_owner.remove(&key);
    for p in st.phases.iter_mut() {
        if *p == Phase::BlockedMutex(key) {
            *p = Phase::Runnable;
        }
    }
    log_op(&mut st, me, "Mutex::unlock");
}

/// Handle to a virtual thread spawned with [`spawn`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    id: usize,
    result: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (under the scheduler) until the virtual thread finishes and
    /// returns its value. Panics if the target panicked.
    pub fn join(self) -> T {
        let (exec, me) = current().expect("JoinHandle::join outside a model-check execution");
        loop {
            let mut st = exec.lock();
            if st.abort {
                drop(st);
                panic::panic_any(AbortUnwind);
            }
            if st.phases[self.id] == Phase::Finished {
                log_op(&mut st, me, "join");
                drop(st);
                break;
            }
            st.phases[me] = Phase::BlockedJoin(self.id);
            reschedule(&exec, &mut st);
            if st.abort {
                drop(st);
                panic::panic_any(AbortUnwind);
            }
            let st = wait_granted(&exec, st, me);
            drop(st);
        }
        self.result
            .lock()
            .expect("virtual thread result lock poisoned")
            .take()
            .expect("joined virtual thread produced no value")
    }
}

/// Spawns a virtual thread inside the current execution. Panics when called
/// outside one — virtual threads only exist under [`run`] / [`check`].
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (exec, _) = current().expect("bns_sync::model::spawn outside a model-check execution");
    let id = {
        let mut st = exec.lock();
        st.phases.push(Phase::Runnable);
        st.live += 1;
        st.phases.len() - 1
    };
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let child = Arc::clone(&exec);
    std::thread::spawn(move || vthread_main(child, id, f, slot));
    // The child is runnable from here on; give the scheduler the chance to
    // start it before the parent's next operation.
    point("spawn");
    JoinHandle { id, result }
}

/// Trampoline every virtual thread (including the scenario root) runs on:
/// registers with the execution, waits for its first grant, runs the body
/// under `catch_unwind`, then reports its exit to the scheduler.
fn vthread_main<T, F>(exec: Arc<Exec>, id: usize, f: F, slot: Arc<StdMutex<Option<T>>>)
where
    F: FnOnce() -> T,
{
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), id)));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let st = exec.lock();
        let st = wait_granted(&exec, st, id);
        drop(st);
        f()
    }));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut st = exec.lock();
    st.phases[id] = Phase::Finished;
    st.live -= 1;
    match outcome {
        Ok(value) => {
            *slot.lock().expect("virtual thread result lock poisoned") = Some(value);
            for p in st.phases.iter_mut() {
                if *p == Phase::BlockedJoin(id) {
                    *p = Phase::Runnable;
                }
            }
            if st.live > 0 && !st.abort {
                reschedule(&exec, &mut st);
            } else {
                exec.cv.notify_all();
            }
        }
        Err(payload) => {
            if payload.downcast_ref::<AbortUnwind>().is_some() {
                // Teardown of a condemned execution, not a new failure.
                exec.cv.notify_all();
            } else {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "virtual thread panicked".to_string());
                fail(&exec, &mut st, format!("t{id} panicked: {msg}"));
            }
        }
    }
}

/// Explores `scenario` under `mode`. Returns the passing [`Report`], or the
/// first failing execution as a [`Counterexample`].
pub fn run<F>(mode: Mode, scenario: F) -> Result<Report, Box<Counterexample>>
where
    F: Fn() + Sync,
{
    let mut executions = 0usize;
    let mut chooser = match &mode {
        Mode::Exhaustive { .. } => Chooser::Dfs {
            stack: Vec::new(),
            depth: 0,
        },
        Mode::Random { seed, .. } => Chooser::Random {
            state: splitmix64(*seed),
        },
        Mode::Replay { schedule } => Chooser::Replay {
            schedule: schedule.clone(),
            pos: 0,
        },
    };
    loop {
        if let Mode::Random { seed, .. } = &mode {
            // Fresh decorrelated stream per iteration, derived purely from
            // the base seed and the iteration index.
            chooser = Chooser::Random {
                state: splitmix64(seed.wrapping_add(splitmix64(executions as u64))),
            };
        }
        let exec = Arc::new(Exec::new(chooser));
        let root_slot: Arc<StdMutex<Option<()>>> = Arc::new(StdMutex::new(None));
        let scenario_ref = &scenario;
        std::thread::scope(|scope| {
            let exec_root = Arc::clone(&exec);
            let slot = Arc::clone(&root_slot);
            scope.spawn(move || vthread_main(exec_root, 0, scenario_ref, slot));
            let mut st = exec.lock();
            while st.live > 0 {
                st = exec
                    .cv
                    .wait(st)
                    .expect("model-check scheduler lock poisoned");
            }
        });
        executions += 1;
        let (failure, schedule, ops, used) = {
            let mut st = exec.lock();
            (
                st.failure.take(),
                std::mem::take(&mut st.schedule),
                std::mem::take(&mut st.ops),
                std::mem::replace(&mut st.chooser, Chooser::Random { state: 0 }),
            )
        };
        if let Some(message) = failure {
            return Err(Box::new(Counterexample {
                message,
                schedule,
                ops,
            }));
        }
        chooser = used;
        match &mode {
            Mode::Exhaustive { max_executions } => {
                if !chooser.advance_dfs() {
                    return Ok(Report {
                        executions,
                        complete: true,
                    });
                }
                if executions >= *max_executions {
                    return Ok(Report {
                        executions,
                        complete: false,
                    });
                }
            }
            Mode::Random { iterations, .. } => {
                if executions >= *iterations {
                    return Ok(Report {
                        executions,
                        complete: false,
                    });
                }
            }
            Mode::Replay { .. } => {
                return Ok(Report {
                    executions,
                    complete: false,
                })
            }
        }
    }
}

/// [`run`], panicking with a replayable counterexample on failure — the
/// entry point scenario tests use.
pub fn check<F>(name: &str, mode: Mode, scenario: F) -> Report
where
    F: Fn() + Sync,
{
    match run(mode, scenario) {
        Ok(report) => report,
        Err(cex) => panic!(
            "model check '{name}' found a counterexample: {}\n\
             schedule (feed back through Mode::Replay): {:?}\n\
             last operations:\n{}",
            cex.message,
            cex.schedule,
            cex.ops_tail(64)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Exhaustive exploration of a racy read-modify-write must find the
    /// lost update, and the recorded schedule must replay to the same
    /// failure — the checker's own correctness contract.
    fn lost_update_scenario() {
        let x = Arc::new(AtomicU32::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                spawn(move || {
                    // ordering: Relaxed — the bug under test is the
                    // non-atomic load/yield/store sequence, not the cell.
                    let v = x.load(Ordering::Relaxed);
                    yield_now();
                    // ordering: Relaxed — see the load above; the race is
                    // the point of this scenario.
                    x.store(v + 1, Ordering::Relaxed);
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        // ordering: Relaxed — all writers joined; this is a quiesced read.
        let total = x.load(Ordering::Relaxed);
        assert_eq!(total, 2, "increment lost to an interleaving");
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let cex = run(
            Mode::Exhaustive {
                max_executions: 10_000,
            },
            lost_update_scenario,
        )
        .expect_err("the lost update must be found");
        assert!(cex.message.contains("increment lost"), "{}", cex.message);
        assert!(!cex.schedule.is_empty());
    }

    #[test]
    fn counterexample_replays_deterministically() {
        let cex = run(
            Mode::Exhaustive {
                max_executions: 10_000,
            },
            lost_update_scenario,
        )
        .expect_err("the lost update must be found");
        let replayed = run(
            Mode::Replay {
                schedule: cex.schedule.clone(),
            },
            lost_update_scenario,
        )
        .expect_err("replay must reproduce the failure");
        assert_eq!(replayed.message, cex.message);
        assert_eq!(replayed.schedule, cex.schedule);
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let a = run(
            Mode::Random {
                seed: 7,
                iterations: 64,
            },
            lost_update_scenario,
        )
        .expect_err("64 random schedules of a 2-thread race must hit it");
        let b = run(
            Mode::Random {
                seed: 7,
                iterations: 64,
            },
            lost_update_scenario,
        )
        .expect_err("same seed, same outcome");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.message, b.message);
    }

    #[test]
    fn atomic_rmw_passes_exhaustively() {
        let report = check(
            "fetch_add has no lost updates",
            Mode::Exhaustive {
                max_executions: 10_000,
            },
            || {
                let x = Arc::new(AtomicU32::new(0));
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let x = Arc::clone(&x);
                        spawn(move || {
                            yield_now();
                            // ordering: Relaxed — RMW atomicity is the
                            // property under test, not publication.
                            x.fetch_add(1, Ordering::Relaxed);
                            yield_now();
                        })
                    })
                    .collect();
                for w in workers {
                    w.join();
                }
                // ordering: Relaxed — all writers joined; quiesced read.
                assert_eq!(x.load(Ordering::Relaxed), 2);
            },
        );
        assert!(report.complete, "small state space must be enumerable");
        assert!(report.executions > 1, "must explore > 1 interleaving");
    }

    #[test]
    fn exhaustive_execution_count_is_stable() {
        let count = |_: ()| {
            check(
                "stable",
                Mode::Exhaustive {
                    max_executions: 10_000,
                },
                || {
                    let h = spawn(|| {
                        yield_now();
                        yield_now();
                    });
                    yield_now();
                    h.join();
                },
            )
            .executions
        };
        assert_eq!(count(()), count(()), "enumeration must be deterministic");
    }

    #[test]
    fn abba_deadlock_is_detected() {
        let cex = run(
            Mode::Exhaustive {
                max_executions: 10_000,
            },
            || {
                let t1 = spawn(|| {
                    mutex_acquire(1, "lock a");
                    yield_now();
                    mutex_acquire(2, "lock b");
                    mutex_release(2);
                    mutex_release(1);
                });
                let t2 = spawn(|| {
                    mutex_acquire(2, "lock b");
                    yield_now();
                    mutex_acquire(1, "lock a");
                    mutex_release(1);
                    mutex_release(2);
                });
                t1.join();
                t2.join();
            },
        )
        .expect_err("ABBA must deadlock under some schedule");
        assert!(cex.message.contains("deadlock"), "{}", cex.message);
    }

    #[test]
    fn mutex_exclusion_holds() {
        let report = check(
            "logical mutex is exclusive",
            Mode::Exhaustive {
                max_executions: 10_000,
            },
            || {
                let in_cs = Arc::new(AtomicU32::new(0));
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let in_cs = Arc::clone(&in_cs);
                        spawn(move || {
                            mutex_acquire(9, "lock");
                            // ordering: Relaxed — exclusion, not publication,
                            // is the property under test.
                            let was = in_cs.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(was, 0, "two threads inside the critical section");
                            yield_now();
                            // ordering: Relaxed — still inside the modeled
                            // critical section; exclusion is under test.
                            in_cs.fetch_sub(1, Ordering::Relaxed);
                            mutex_release(9);
                        })
                    })
                    .collect();
                for w in workers {
                    w.join();
                }
            },
        );
        assert!(report.complete);
    }

    #[test]
    fn spawn_outside_execution_panics() {
        let err = panic::catch_unwind(|| {
            let _ = spawn(|| ());
        });
        assert!(err.is_err());
    }
}
