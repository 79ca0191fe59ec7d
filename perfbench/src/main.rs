//! The repository benchmark: one workload per process, measured from
//! outside the program through its public entry points.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload cg_fig1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The workload's PPM job runs again and again for `--seconds` host
//! seconds (at least three times), every run checked against the
//! sequential reference. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` adds one traced run after the measured ones and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod alloc;
mod host;
mod job;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use ppm_simnet::TraceSink;

use crate::alloc::Counting;
use crate::host::{median, percentile, ratio};
use crate::job::JobRun;
use crate::workloads::Baseline;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Measured runs per process at the least, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} wants an integer"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()? as f64),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace wants 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Refuse settings that would silently change what is measured.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built with debug_assertions, which turns the conformance \
                    checker on; build with --release"
            .into());
    }
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PPM_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "PPM_* variables change runtime defaults; unset {}",
            set.join(", ")
        ));
    }
    Ok(())
}

/// Attempted and failed jobs; each failure's reason goes to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            eprintln!("perfbench: {what} failed: {f}");
            self.failed += 1;
        }
    }
}

/// A later run of the same job must repeat the simulated makespan and
/// every counter exactly.
fn repeats(first: &JobRun, run: &JobRun) -> Option<String> {
    if run.failure.is_some() || first.failure.is_some() {
        return run.failure.clone();
    }
    if run.makespan != first.makespan {
        return Some(format!(
            "makespan {:?} differs from the first run's {:?}",
            run.makespan, first.makespan
        ));
    }
    (run.counters != first.counters).then(|| "counters differ from the first run's".into())
}

/// Metrics in output order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(reps: &[JobRun], peak_rss_mb: f64) -> Metrics {
    let col = |f: fn(&JobRun) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let mut m = Metrics::default();
    m.add("wall_s", median(&col(|r| r.wall_s)), "s");
    m.add("setup_s", median(&col(|r| r.setup_s)), "s");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    m.add("sim_makespan_ms", reps[0].makespan.as_ms_f64(), "ms");
    m
}

struct Layers<'a> {
    reps: &'a [JobRun],
    traced: &'a JobRun,
    sink: &'a TraceSink,
    allocs: (u64, u64),
    baseline: Option<&'a Baseline>,
    reference_s: f64,
    nproc: usize,
    host_threads: usize,
    tally: &'a Tally,
}

fn per_layer(l: &Layers<'_>) -> Metrics {
    let col = |f: fn(&JobRun) -> f64| median(&l.reps.iter().map(f).collect::<Vec<_>>());
    let (wall, solve, cpu) = (col(|r| r.wall_s), col(|r| r.solve_s), col(|r| r.cpu_s));
    let c = &l.reps[0].counters;
    let sim = trace::summarize(l.sink);
    let s = &l.traced.samples;
    let accesses = (c.remote_gets + c.remote_puts + c.local_accesses) as f64;
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    let makespan_ms = l.reps[0].makespan.as_ms_f64();
    let b = l.baseline.cloned().unwrap_or_default();
    let mut m = Metrics::default();

    m.add("simnet.cluster.spawn_s", col(|r| r.spawn_s), "s");
    m.add("simnet.cluster.join_s", col(|r| r.join_s), "s");
    m.add("simnet.cluster.cpu_s", cpu, "s");
    m.add(
        "simnet.cluster.cpu_util",
        ratio(cpu, wall * l.nproc as f64),
        "ratio",
    );
    m.add("simnet.cluster.nproc", l.nproc as f64, "count");
    m.add("simnet.router.msgs", c.msgs_sent as f64, "count");
    m.add("simnet.router.bytes", c.bytes_sent as f64, "B");
    m.add("simnet.router.phases", sim.global_phases as f64, "count");
    let per_phase = ratio(c.msgs_sent as f64, sim.global_phases as f64);
    m.add("simnet.router.msgs_per_phase", per_phase, "count");

    m.add("core.exec.solve_s", solve, "s");
    m.add("core.exec.host_threads", l.host_threads as f64, "count");
    m.add("core.exec.allocs", l.allocs.0 as f64, "count");
    m.add("core.exec.alloc_bytes", l.allocs.1 as f64, "B");
    m.add("core.exec.phase_samples", s.phase_us.len() as f64, "count");
    m.add(
        "core.exec.phase_host_us.p50",
        percentile(&s.phase_us, 0.5),
        "us",
    );
    m.add(
        "core.exec.phase_host_us.p99",
        percentile(&s.phase_us, 0.99),
        "us",
    );
    m.add(
        "core.exec.read_wait_us.p50",
        percentile(&s.read_wait_us, 0.5),
        "us",
    );
    m.add(
        "core.exec.end_wait_us.p50",
        percentile(&s.end_wait_us, 0.5),
        "us",
    );
    m.add("core.exec.sim_compute_ms", sim.compute_ms, "ms");
    m.add("core.exec.sim_service_ms", sim.service_ms, "ms");
    m.add("core.exec.sim_comm_ms", sim.comm_ms, "ms");
    m.add("core.exec.sim_barrier_ms", sim.barrier_ms, "ms");
    m.add("core.exec.waves", c.waves as f64, "count");
    m.add("core.exec.bundles", c.bundles_sent as f64, "count");
    let gets_per_bundle = ratio(c.remote_gets as f64, c.bundles_sent as f64);
    m.add("core.exec.gets_per_bundle", gets_per_bundle, "ratio");
    let partial = ratio(c.partial_wakes as f64, c.waves as f64);
    m.add("core.exec.partial_wake_ratio", partial, "ratio");

    m.add("core.state.accesses", accesses, "count");
    m.add(
        "core.state.host_ns_per_access",
        ratio(solve * 1e9, accesses),
        "ns",
    );
    m.add("core.state.remote_gets", c.remote_gets as f64, "count");
    m.add("core.state.remote_puts", c.remote_puts as f64, "count");
    m.add("core.state.cache_lookups", lookups, "count");
    m.add(
        "core.state.cache_hit_ratio",
        ratio(c.cache_hits as f64, lookups),
        "ratio",
    );
    let dedup = ratio(c.dedup_reads as f64, c.remote_gets as f64);
    m.add("core.state.dedup_ratio", dedup, "ratio");

    m.add("core.reliable.failovers", c.failovers as f64, "count");
    m.add(
        "core.reliable.peers_confirmed_dead",
        c.peers_confirmed_dead as f64,
        "count",
    );
    m.add("core.reliable.replica_bytes", c.replica_bytes as f64, "B");
    m.add("core.reliable.retries", c.retries as f64, "count");

    m.add("core.balance.rebalances", sim.rebalances as f64, "count");
    m.add("core.balance.moved_elems", sim.moved_elems as f64, "count");
    m.add(
        "core.balance.mean_node_compute_ms",
        sim.mean_node_compute_ms,
        "ms",
    );
    let imbalance = ratio(sim.max_node_compute_ms, sim.mean_node_compute_ms);
    m.add("core.balance.compute_imbalance", imbalance, "ratio");

    let mpi_ms = b.makespan.as_ms_f64();
    m.add("mps.wall_s", b.wall_s, "s");
    m.add("mps.sim_makespan_ms", mpi_ms, "ms");
    m.add("mps.msgs", b.msgs as f64, "count");
    m.add("mps.ppm_over_mpi", ratio(makespan_ms, mpi_ms), "ratio");

    m.add("apps.reference_s", l.reference_s, "s");
    m.add("simnet.trace.overhead_s", l.traced.wall_s - wall, "s");
    m.add("simnet.trace.events", l.sink.len() as f64, "count");

    m.add("bench.reps", l.reps.len() as f64, "count");
    let failed = l.tally.failed as f64;
    m.add(
        "bench.failed_frac",
        ratio(failed, l.tally.attempted as f64),
        "ratio",
    );
    m
}

fn main() -> ExitCode {
    if let Err(e) = guard() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    // PpmConfig's documented auto rule, with PPM_HOST_THREADS refused above.
    let cfg = wl.job.config();
    let host_threads = match cfg.host_threads {
        0 => nproc.min(cfg.cores_per_node()),
        n => n,
    };
    eprintln!(
        "perfbench: {} seed {} nproc {nproc} host threads {host_threads} reference {:.3} s",
        args.workload, args.seed, wl.reference_s
    );

    let mut tally = Tally::default();
    // One warm-up run, checked but not timed: first-touch page faults and
    // allocator growth would otherwise land on the first measured run. The
    // peak RSS is read right after it: the peak of a process that ran one
    // job. Later runs reuse the memory the allocator kept, so the whole
    // process's peak would grow with the number of runs in the window.
    let warm = wl.job.run(None);
    let peak_rss_mb = host::peak_rss_mb();
    tally.record("warm-up run", warm.failure.clone());
    let mut reps: Vec<JobRun> = Vec::new();
    let window = Instant::now();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds {
        let run = wl.job.run(None);
        eprintln!(
            "perfbench: run {} wall {:.4} s setup {:.5} s makespan {:.6} ms",
            reps.len(),
            run.wall_s,
            run.setup_s,
            run.makespan.as_ms_f64()
        );
        tally.record("measured run", repeats(&warm, &run));
        reps.push(run);
    }
    let baseline = wl.baseline.as_ref().map(|b| b());
    if let Some(b) = &baseline {
        tally.record("MPI baseline", b.failure.clone());
    }

    let metrics = if args.trace {
        let sink = TraceSink::new();
        Counting::enable();
        let traced = wl.job.run(Some(&sink));
        let allocs = Counting::disable();
        tally.record("traced run", repeats(&warm, &traced));
        per_layer(&Layers {
            reps: &reps,
            traced: &traced,
            sink: &sink,
            allocs,
            baseline: baseline.as_ref(),
            reference_s: wl.reference_s,
            nproc,
            host_threads,
            tally: &tally,
        })
    } else {
        end_to_end(&reps, peak_rss_mb)
    };
    for (name, value, unit) in &metrics.0 {
        eprintln!("perfbench: {name:<40} {value:>18} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload ring_1024 --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ring_1024", 7, 15.0, true)
        );
        assert!(args("--workload x --seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed one --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn a_changed_makespan_or_counter_is_a_failure() {
        let first = JobRun::default();
        assert_eq!(repeats(&first, &first.clone()), None);
        let mut moved = first.clone();
        moved.counters.waves += 1;
        assert!(repeats(&first, &moved).is_some());
        let mut failed = first.clone();
        failed.failure = Some("x".into());
        assert_eq!(repeats(&first, &failed), Some("x".into()));
    }
}
