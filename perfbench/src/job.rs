//! One checked PPM job, timed from outside the program.
//!
//! A [`Spec`] pairs a node program with the check of its results. Running
//! it wraps the program in a closure that stamps host time when each node
//! enters and leaves the program body, so set-up, spawn, solve and join
//! spans are measured around `ppm_core::run` without timers inside the
//! runtime. Panics and `RecoveryError`s are caught and reported as the
//! job's failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ppm_core::{NodeCtx, PpmConfig, RecoveryError};
use ppm_simnet::{Counters, SimTime, TraceSink};

use crate::alloc::SolveSpan;
use crate::host;

/// Host µs samples of `Vp::global_phase` on VP 0 of each node, recorded
/// by programs the benchmark owns (the ring).
#[derive(Debug, Default, Clone)]
pub struct PhaseSamples {
    /// Whole `global_phase` call.
    pub phase_us: Vec<f64>,
    /// `Phase::get(..).await`.
    pub read_wait_us: Vec<f64>,
    /// From the phase body's return to `global_phase`'s return.
    pub end_wait_us: Vec<f64>,
}

impl PhaseSamples {
    /// Record one phase: its start, the read wait, and the body's end.
    pub fn push(&mut self, start: Instant, read_wait: Duration, body_end: Instant) {
        let now = Instant::now();
        self.phase_us.push((now - start).as_secs_f64() * 1e6);
        self.read_wait_us.push(read_wait.as_secs_f64() * 1e6);
        self.end_wait_us.push((now - body_end).as_secs_f64() * 1e6);
    }
}

#[derive(Default)]
struct ProbeState {
    last_entry: Option<Instant>,
    last_exit: Option<Instant>,
    solve_max_s: f64,
    samples: PhaseSamples,
}

/// Host spans recorded from inside the node closures of one job.
pub struct Probe {
    timed: bool,
    state: Mutex<ProbeState>,
}

impl Probe {
    fn new(timed: bool) -> Self {
        Probe {
            timed,
            state: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ProbeState> {
        // Every update leaves the state valid, so it stays readable even
        // if a node panicked while holding the lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn enter(&self) {
        let now = Instant::now();
        let mut s = self.lock();
        s.last_entry = Some(s.last_entry.map_or(now, |t| t.max(now)));
    }

    fn exit(&self) {
        let now = Instant::now();
        let mut s = self.lock();
        s.last_exit = Some(s.last_exit.map_or(now, |t| t.max(now)));
    }

    /// Run the workload's entry point on this node as its solve span.
    pub fn solve<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = SolveSpan::enter();
        let t = Instant::now();
        let r = f();
        let d = t.elapsed().as_secs_f64();
        let mut s = self.lock();
        s.solve_max_s = s.solve_max_s.max(d);
        r
    }

    /// Whether this is the traced run, which keeps per-phase samples.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Keep one node's phase samples.
    pub fn record_phases(&self, samples: PhaseSamples) {
        let mut s = self.lock();
        s.samples.phase_us.extend(samples.phase_us);
        s.samples.read_wait_us.extend(samples.read_wait_us);
        s.samples.end_wait_us.extend(samples.end_wait_us);
    }
}

/// A node program and the check of its per-node results.
pub type Body<R> = dyn Fn(&mut NodeCtx<'_>, &Probe) -> R + Send + Sync;
/// Checks per-node results and the job's summed counters.
pub type Check<R> = dyn Fn(&[R], &Counters) -> Result<(), String>;

pub struct Spec<R> {
    pub cfg: PpmConfig,
    pub body: Box<Body<R>>,
    pub check: Box<Check<R>>,
}

/// What one run of a job measured.
#[derive(Debug, Clone, Default)]
pub struct JobRun {
    /// `run` call to its return.
    pub wall_s: f64,
    /// Job start to the last node's entry into the program body.
    pub setup_s: f64,
    /// `run` call to the last node's entry into the program body.
    pub spawn_s: f64,
    /// Last node's exit from the program body to `run`'s return.
    pub join_s: f64,
    /// Longest solve span over nodes.
    pub solve_s: f64,
    /// Process user + system CPU seconds over the job.
    pub cpu_s: f64,
    pub makespan: SimTime,
    pub counters: Counters,
    pub samples: PhaseSamples,
    /// Why the job failed: a check, a panic or a `RecoveryError`.
    pub failure: Option<String>,
}

/// A job with its result type erased, so workloads share one measuring loop.
pub trait Job {
    /// Run the job once, traced on `trace` if given.
    fn run(&self, trace: Option<&TraceSink>) -> JobRun;
    fn config(&self) -> PpmConfig;
}

impl<R: Send> Job for Spec<R> {
    fn config(&self) -> PpmConfig {
        self.cfg
    }

    fn run(&self, trace: Option<&TraceSink>) -> JobRun {
        let start = Instant::now();
        let probe = Probe::new(trace.is_some());
        let program = &self.body;
        let body = |node: &mut NodeCtx<'_>| {
            probe.enter();
            let r = program(node, &probe);
            probe.exit();
            r
        };
        let cpu0 = host::cpu_s();
        let call = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| match trace {
            Some(sink) => ppm_core::run_traced(self.cfg, sink, "job", body),
            None => ppm_core::run(self.cfg, body),
        }));
        let end = Instant::now();
        let cpu_s = host::cpu_s() - cpu0;
        let s = std::mem::take(&mut *probe.lock());
        let since =
            |from: Instant, to: Option<Instant>| to.map_or(0.0, |t| (t - from).as_secs_f64());
        let mut run = JobRun {
            wall_s: (end - call).as_secs_f64(),
            setup_s: since(start, s.last_entry),
            spawn_s: since(call, s.last_entry),
            join_s: s.last_exit.map_or(0.0, |t| (end - t).as_secs_f64()),
            solve_s: s.solve_max_s,
            cpu_s,
            samples: s.samples,
            ..JobRun::default()
        };
        match report {
            Ok(report) => {
                run.makespan = report.makespan();
                run.counters = report.total_counters();
                run.failure = (self.check)(&report.results, &run.counters).err();
            }
            Err(payload) => run.failure = Some(panic_message(payload.as_ref())),
        }
        run
    }
}

/// Render a caught panic payload, naming a `RecoveryError` as such.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = payload.downcast_ref::<RecoveryError>() {
        format!("RecoveryError: {e}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with a non-string payload".to_string()
    }
}
