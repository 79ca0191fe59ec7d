//! The four workloads: what each runs, how its input follows the seed, and
//! how its results are checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ppm_apps::barnes_hut::{self as bh, BhParams, Body};
use ppm_apps::cg::{self, CgOutcome, CgParams};
use ppm_apps::pagerank::{self, PrParams};
use ppm_apps::stencil27::Stencil27;
use ppm_core::{AccumOp, PpmConfig};
use ppm_simnet::{Counters, FaultConfig, MachineConfig, SimTime};

use crate::job::{panic_message, Job, PhaseSamples, Spec};

pub const NAMES: [&str; 4] = ["cg_fig1", "bh_fig3", "ring_1024", "pagerank_skewed"];

/// CG iterations per solve (fixed work, as in the paper's Figure 1).
const CG_ITERS: usize = 25;
const CG_NODES: u32 = 8;
const BH_BODIES: usize = 2048;
const BH_NODES: u32 = 4;
const PR_VERTICES: usize = 65_536;
const PR_NODES: u32 = 8;
const RING_NODES: u32 = 1024;
const RING_VPS: usize = 8;
const RING_ROUNDS: u64 = 4;

/// One workload, built from its seed: the PPM job, the host time its
/// sequential reference took, and the MPI baseline where there is one.
pub struct Workload {
    pub job: Box<dyn Job>,
    pub reference_s: f64,
    pub baseline: Option<Box<dyn Fn() -> Baseline>>,
}

/// One run of the MPI baseline job.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub wall_s: f64,
    pub makespan: SimTime,
    pub msgs: u64,
    pub failure: Option<String>,
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "cg_fig1" => cg_fig1(seed),
        "bh_fig3" => bh_fig3(seed),
        "ring_1024" => ring_1024(seed),
        "pagerank_skewed" => pagerank_skewed(seed),
        _ => return None,
    })
}

/// SplitMix64 finaliser: spreads a small seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- CG

/// The Figure 1 problem: the 20 × 20 chimney, 80 planes tall or, by the
/// seed, one plane taller (32 000 or 32 400 rows), with the solution
/// gathered for checking.
pub fn cg_params(seed: u64) -> CgParams {
    let mut p = CgParams::cube(20, CG_ITERS);
    let chimney = Stencil27::chimney(20);
    p.problem = Stencil27 {
        gz: chimney.gz + (mix(seed) % 2) as usize,
        ..chimney
    };
    p
}

/// The tolerances of the CG cross-version tests: `rr` within 1e-9
/// relative and max |Δx| below 1e-8.
pub fn check_cg(out: &CgOutcome, reference: &CgOutcome) -> Result<(), String> {
    if (out.rr - reference.rr).abs() > 1e-9 * (1.0 + reference.rr) {
        return Err(format!("cg: rr {} vs reference {}", out.rr, reference.rr));
    }
    if out.x.len() != reference.x.len() {
        return Err(format!(
            "cg: {} unknowns vs {}",
            out.x.len(),
            reference.x.len()
        ));
    }
    let max_dx = out
        .x
        .iter()
        .zip(&reference.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    if max_dx.is_nan() || max_dx >= 1e-8 {
        return Err(format!("cg: max |dx| = {max_dx}"));
    }
    Ok(())
}

pub fn cg_job(cfg: PpmConfig, p: CgParams, reference: Arc<CgOutcome>) -> Spec<CgOutcome> {
    Spec {
        cfg,
        body: Box::new(move |node, probe| probe.solve(|| cg::ppm::solve(node, &p).0)),
        check: Box::new(move |outs, _| outs.iter().try_for_each(|o| check_cg(o, &reference))),
    }
}

fn cg_fig1(seed: u64) -> Workload {
    let p = cg_params(seed);
    let (reference, reference_s) = timed(|| Arc::new(cg::seq::solve(&p)));
    let job = cg_job(PpmConfig::franklin(CG_NODES), p, reference.clone());
    let baseline = move || {
        let (report, wall_s) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                ppm_mps::run(MachineConfig::franklin(CG_NODES), |comm| {
                    cg::mpi::solve(comm, &p).0
                })
            }))
        });
        match report {
            Ok(r) => Baseline {
                wall_s,
                makespan: r.makespan(),
                msgs: r.total_counters().msgs_sent,
                failure: r
                    .results
                    .iter()
                    .try_for_each(|o| check_cg(o, &reference))
                    .err(),
            },
            Err(e) => Baseline {
                wall_s,
                failure: Some(panic_message(e.as_ref())),
                ..Baseline::default()
            },
        }
    };
    Workload {
        job: Box::new(job),
        reference_s,
        baseline: Some(Box::new(baseline)),
    }
}

// ------------------------------------------------------- Barnes–Hut

/// The Figure 3 shape: a seeded Plummer set, two steps.
pub fn bh_params(seed: u64) -> BhParams {
    let mut p = BhParams::new(BH_BODIES);
    p.steps = 2;
    p.seed = seed;
    p
}

/// Positions must be bit-identical to the sequential reference.
pub fn check_bh(got: &[Body], reference: &[Body]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!("bh: {} bodies vs {}", got.len(), reference.len()));
    }
    let bits = |b: &Body| (b.x.to_bits(), b.y.to_bits(), b.z.to_bits());
    match got
        .iter()
        .zip(reference)
        .position(|(g, r)| bits(g) != bits(r))
    {
        Some(i) => Err(format!(
            "bh: body {i} at {:?}, reference {:?}",
            got[i], reference[i]
        )),
        None => Ok(()),
    }
}

pub fn bh_job(cfg: PpmConfig, p: BhParams, reference: Arc<Vec<Body>>) -> Spec<Vec<Body>> {
    Spec {
        cfg,
        body: Box::new(move |node, probe| probe.solve(|| bh::ppm::simulate(node, &p).0)),
        check: Box::new(move |outs, _| outs.iter().try_for_each(|o| check_bh(o, &reference))),
    }
}

fn bh_fig3(seed: u64) -> Workload {
    let p = bh_params(seed);
    let (reference, reference_s) = timed(|| Arc::new(bh::seq::simulate(&p)));
    Workload {
        job: Box::new(bh_job(PpmConfig::franklin(BH_NODES), p, reference)),
        reference_s,
        baseline: None,
    }
}

// --------------------------------------------------------- PageRank

pub fn pr_params(seed: u64) -> PrParams {
    PrParams {
        seed,
        ..PrParams::skewed(PR_VERTICES)
    }
}

/// Ranks must be within 1e-12 relative of the sequential reference.
pub fn check_pr(got: &[f64], reference: &[f64]) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "pagerank: {} ranks vs {}",
            got.len(),
            reference.len()
        ));
    }
    // Written so that a NaN rank fails.
    let close = |(g, w): (&f64, &f64)| (g - w).abs() <= 1e-12 * w.abs().max(1e-300);
    match got.iter().zip(reference).position(|p| !close(p)) {
        Some(i) => Err(format!(
            "pagerank: rank[{i}] {} vs {}",
            got[i], reference[i]
        )),
        None => Ok(()),
    }
}

pub fn pr_job(cfg: PpmConfig, p: PrParams, reference: Arc<Vec<f64>>) -> Spec<Vec<f64>> {
    Spec {
        cfg,
        body: Box::new(move |node, probe| probe.solve(|| pagerank::ppm::rank(node, &p).0)),
        check: Box::new(move |outs, _| outs.iter().try_for_each(|o| check_pr(o, &reference))),
    }
}

fn pagerank_skewed(seed: u64) -> Workload {
    let p = pr_params(seed);
    let (reference, reference_s) = timed(|| Arc::new(pagerank::seq::rank(&p)));
    let cfg = PpmConfig::franklin(PR_NODES).with_adaptive_balance(true);
    Workload {
        job: Box::new(pr_job(cfg, p, reference)),
        reference_s,
        baseline: None,
    }
}

// ------------------------------------------------------------- Ring

/// The ring's seeded death: a victim other than rank 0, dying at global
/// phase 1 or 2 (of at least 3), so the failover always happens mid-run.
pub fn ring_death(seed: u64, nodes: u32) -> (usize, u64) {
    let m = mix(seed);
    let victim = 1 + (m % (nodes as u64 - 1)) as usize;
    (victim, 1 + (m >> 32) % 2)
}

/// Final state of the ring in closed form: every node's element after the
/// last round, then the shared sum. Round 0 reads the initial values
/// `i + 1`; round `r ≥ 1` reads the values `i + r` written in round
/// `r − 1`. An accumulate does not fold in the phase-start value, so the
/// sum holds the last round's reads only.
pub fn ring_expected(nodes: u32, rounds: u64) -> Vec<u64> {
    let n = nodes as u64;
    let mut bits: Vec<u64> = (0..n).map(|i| i + rounds.max(1)).collect();
    bits.push(n * (n + 1) / 2 + n * rounds.saturating_sub(2));
    bits
}

/// The large-N ring: every node owns one element and reads its
/// predecessor's each phase; VP 0 of each node accumulates the value into
/// a shared sum and rewrites the node's own element. One node dies
/// permanently at `death_phase`; `replication` turns buddy replication on.
/// One host thread per node, as in `large_n`'s first column: under the
/// auto rule every one of 1,024 nodes would start its own VP worker pool.
pub fn ring_job(
    nodes: u32,
    rounds: u64,
    victim: usize,
    death_phase: u64,
    replication: bool,
) -> Spec<Vec<u64>> {
    let cfg = PpmConfig::franklin(nodes)
        .with_replication(replication)
        .with_host_threads(1)
        .with_faults(FaultConfig::NONE.with_permanent_crash(victim, death_phase));
    let n = nodes as usize;
    let expected = ring_expected(nodes, rounds);
    Spec {
        cfg,
        body: Box::new(move |node, probe| {
            let a = node.alloc_global::<u64>(n);
            let acc = node.alloc_global::<u64>(1);
            let me = node.node_id();
            node.with_local_mut(&a, |s| s[0] = me as u64 + 1);
            let samples = Arc::new(Mutex::new(PhaseSamples::default()));
            let timed = probe.timed();
            let vp_samples = samples.clone();
            probe.solve(|| {
                node.ppm_do(RING_VPS, move |vp| {
                    let samples = vp_samples.clone();
                    async move {
                        let r = vp.node_rank();
                        for round in 0..rounds {
                            let start = Instant::now();
                            let (read_wait, body_end) = vp
                                .global_phase(|ph| async move {
                                    let t = Instant::now();
                                    let v = ph.get(&a, (me + n - 1) % n).await;
                                    let read_wait = t.elapsed();
                                    if r == 0 {
                                        ph.accumulate(&acc, 0, AccumOp::Add, v);
                                        ph.put(&a, me, me as u64 + 1 + round);
                                    }
                                    (read_wait, Instant::now())
                                })
                                .await;
                            if timed && r == 0 {
                                samples
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(start, read_wait, body_end);
                            }
                        }
                    }
                })
            });
            let mine = std::mem::take(&mut *samples.lock().unwrap_or_else(PoisonError::into_inner));
            probe.record_phases(mine);
            let mut bits = node.gather_global(&a);
            bits.push(node.gather_global(&acc)[0]);
            bits
        }),
        check: Box::new(move |outs, c: &Counters| {
            if let Some(i) = outs.iter().position(|b| *b != expected) {
                return Err(format!(
                    "ring: node {i} final state differs from the closed form"
                ));
            }
            if c.failovers != 1 || c.peers_confirmed_dead != u64::from(nodes) - 1 {
                return Err(format!(
                    "ring: {} failovers and {} confirmations, want 1 and {}",
                    c.failovers,
                    c.peers_confirmed_dead,
                    nodes - 1
                ));
            }
            Ok(())
        }),
    }
}

fn ring_1024(seed: u64) -> Workload {
    let (victim, death_phase) = ring_death(seed, RING_NODES);
    // The reference is the closed form, computed when the job is built.
    let (job, reference_s) = timed(|| ring_job(RING_NODES, RING_ROUNDS, victim, death_phase, true));
    Workload {
        job: Box::new(job),
        reference_s,
        baseline: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_pick_the_input() {
        assert_eq!(cg_params(7).problem, cg_params(7).problem);
        let heights: Vec<usize> = (0..32).map(|s| cg_params(s).problem.gz).collect();
        assert!(heights.iter().all(|h| (80..=81).contains(h)));
        assert!(heights.contains(&80) && heights.contains(&81));
        for s in 0..64 {
            let (victim, phase) = ring_death(s, RING_NODES);
            assert!((1..RING_NODES as usize).contains(&victim));
            assert!((1..=2).contains(&phase));
        }
    }

    #[test]
    fn ring_closed_form_matches_a_direct_replay() {
        let (n, rounds) = (5u64, 3u64);
        let mut a: Vec<u64> = (1..=n).collect();
        let mut acc = 0;
        for round in 0..rounds {
            acc = a.iter().sum::<u64>();
            a = (0..n).map(|i| i + 1 + round).collect();
        }
        a.push(acc);
        assert_eq!(ring_expected(n as u32, rounds), a);
    }

    fn small_cg() -> (PpmConfig, CgParams, CgOutcome) {
        let mut p = CgParams::cube(6, 5);
        p.rows_per_vp = 16;
        let reference = cg::seq::solve(&p);
        (PpmConfig::new(MachineConfig::new(2, 2)), p, reference)
    }

    #[test]
    fn correct_reference_passes() {
        let (cfg, p, reference) = small_cg();
        let run = cg_job(cfg, p, Arc::new(reference)).run(None);
        assert_eq!(run.failure, None);
        assert!(run.makespan > SimTime::ZERO);
    }

    #[test]
    fn perturbed_reference_counts_as_failure() {
        let (cfg, p, mut reference) = small_cg();
        reference.x[3] += 1e-6;
        let run = cg_job(cfg, p, Arc::new(reference)).run(None);
        assert!(run
            .failure
            .expect("perturbed x must fail")
            .contains("max |dx|"));

        let (cfg, p, mut reference) = small_cg();
        reference.rr *= 1.0 + 1e-6;
        let run = cg_job(cfg, p, Arc::new(reference)).run(None);
        assert!(run.failure.expect("perturbed rr must fail").contains("rr"));

        let p = bh_params(1);
        let mut reference = bh::seq::simulate(&BhParams { n_bodies: 64, ..p });
        reference[5].y = f64::from_bits(reference[5].y.to_bits() ^ 1);
        let run = bh_job(
            PpmConfig::new(MachineConfig::new(2, 2)),
            BhParams { n_bodies: 64, ..p },
            Arc::new(reference),
        )
        .run(None);
        assert!(run
            .failure
            .expect("one-ulp body must fail")
            .contains("body 5"));

        let p = PrParams {
            seed: 3,
            ..PrParams::skewed(512)
        };
        let mut reference = pagerank::seq::rank(&p);
        reference[9] *= 1.0 + 1e-9;
        let cfg = PpmConfig::new(MachineConfig::new(2, 2)).with_adaptive_balance(true);
        let run = pr_job(cfg, p, Arc::new(reference)).run(None);
        assert!(run
            .failure
            .expect("perturbed rank must fail")
            .contains("rank[9]"));
    }

    #[test]
    fn ring_checks_state_and_failover() {
        let run = ring_job(8, 3, 5, 1, true).run(None);
        assert_eq!(run.failure, None);
        assert_eq!(run.counters.failovers, 1);
        // A death phase past the end never fires: the failover check fails.
        let run = ring_job(8, 3, 5, 50, true).run(None);
        assert!(run
            .failure
            .expect("no failover must fail")
            .contains("failovers"));
    }

    #[test]
    fn recovery_error_counts_as_failure() {
        // Without replication a permanent death cannot be recovered.
        let run = ring_job(8, 3, 5, 1, false).run(None);
        assert!(run
            .failure
            .expect("unreplicated death")
            .starts_with("RecoveryError"));
    }
}
