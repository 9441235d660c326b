//! Randomized equivalence tests for the pipelined dispatch engine: on any
//! job set, topology and FIFO depth, `execute_rounds_pipelined` must be
//! bit-identical to the lockstep `execute_rounds` — same results, same
//! simulated per-rank seconds, same aggregate statistics. Stragglers (both
//! the simulated slowdown and the wall-clock hold) may only change *host*
//! timing, never outputs. Cases come from a seeded [`SplitMix64`] stream.

use dpu_kernel::{KernelParams, KernelVariant, NwKernel, PoolConfig};
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq, PackedSeq};
use nw_core::ScoringScheme;
use pim_host::balance::pair_workloads;
use pim_host::dispatch::{execute_rounds, group_jobs, plan_rank, DispatchOutcome, RankPlan};
use pim_host::pipeline::{execute_rounds_pipelined, PipelineOptions};
use pim_host::recovery::{align_pairs_recovering, RecoveryConfig};
use pim_host::{DispatchConfig, Engine};
use pim_sim::{FaultPlan, PimServer, ServerConfig};

fn params() -> KernelParams {
    KernelParams {
        band: 16,
        scheme: ScoringScheme::default(),
        score_only: false,
    }
}

fn kernel() -> NwKernel {
    NwKernel::new(
        PoolConfig {
            pools: 2,
            tasklets: 4,
        },
        KernelVariant::Asm,
    )
}

fn server(fault: FaultPlan, ranks: usize, dpus: usize) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(ranks);
    cfg.dpus_per_rank = dpus;
    cfg.fault = fault;
    PimServer::new(cfg)
}

fn rand_seq(rng: &mut SplitMix64, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.below(4) as u8))
        .collect()
}

/// Penalties heavy enough that an unrelated pair's band-constrained score
/// sinks below `NEG_INF / 2`, the only way the adaptive window ends
/// OutOfBand. A cell is at least its left neighbour minus
/// `gap_open + gap_extend` (<= 9M), so the <= 163 anti-diagonals of a
/// [`rand_jobs`] pair keep every value above `NEG_INF - 1.5G`, inside i32.
fn heavy_params(rng: &mut SplitMix64) -> KernelParams {
    KernelParams {
        scheme: ScoringScheme::new(
            rng.between(1, 4) as i32,
            rng.between(10_000_000, 14_000_000) as i32,
            rng.between(0, 1_000_000) as i32,
            rng.between(5_000_000, 8_000_000) as i32,
        ),
        ..params()
    }
}

/// Random packed pairs: mostly a random sequence and a lightly edited copy,
/// plus some unrelated pairs. Under [`params`] every job stays in-band;
/// under [`heavy_params`] the longer unrelated pairs go OutOfBand — both
/// outcomes must agree across engines.
fn rand_jobs(rng: &mut SplitMix64, n: usize) -> Vec<(PackedSeq, PackedSeq)> {
    (0..n)
        .map(|_| {
            let len = rng.between(20, 80) as usize;
            let a = rand_seq(rng, len);
            if rng.below(4) == 0 {
                let other = rng.between(20, 80) as usize;
                return (a.pack(), rand_seq(rng, other).pack());
            }
            let mut text = a.to_ascii();
            let edits = rng.below(4) as usize;
            for _ in 0..edits {
                let at = rng.below(text.len() as u64) as usize;
                text.insert(at, b"ACGT"[rng.below(4) as usize]);
            }
            let b = DnaSeq::from_ascii(&text).unwrap();
            (a.pack(), b.pack())
        })
        .collect()
}

/// Deterministic plan construction: the same grouping the production modes
/// use (eq.-6 workloads, serpentine `group_jobs`, LPT inside each rank), so
/// building twice yields byte-identical plans for both engines.
fn build_rounds(
    params: KernelParams,
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    n_ranks: usize,
    dpus: usize,
) -> Vec<Vec<RankPlan>> {
    let workloads = pair_workloads(jobs, params.band);
    let groups = group_jobs(&workloads, n_rounds * n_ranks);
    let mut rounds = Vec::new();
    for k in 0..n_rounds {
        let mut plans = Vec::new();
        for r in 0..n_ranks {
            let ids = &groups[k * n_ranks + r];
            let subset: Vec<(PackedSeq, PackedSeq)> =
                ids.iter().map(|&i| jobs[i].clone()).collect();
            plans.push(plan_rank(&subset, ids, dpus, params, 2, 64 << 20).unwrap());
        }
        rounds.push(plans);
    }
    rounds
}

fn assert_bit_identical(lock: &DispatchOutcome, pipe: &DispatchOutcome, label: &str) {
    let sort = |v: &[(usize, dpu_kernel::JobResult)]| {
        let mut v = v.to_vec();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    assert_eq!(sort(&lock.results), sort(&pipe.results), "{label}: results");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&lock.rank_seconds),
        bits(&pipe.rank_seconds),
        "{label}: rank_seconds"
    );
    assert_eq!(
        lock.transfer_seconds.to_bits(),
        pipe.transfer_seconds.to_bits(),
        "{label}: transfer_seconds"
    );
    assert_eq!(
        lock.dpu_seconds.to_bits(),
        pipe.dpu_seconds.to_bits(),
        "{label}: dpu_seconds"
    );
    assert_eq!(lock.bytes_in, pipe.bytes_in, "{label}: bytes_in");
    assert_eq!(lock.bytes_out, pipe.bytes_out, "{label}: bytes_out");
    assert_eq!(lock.stats, pipe.stats, "{label}: stats");
    assert_eq!(
        lock.mean_rank_imbalance.to_bits(),
        pipe.mean_rank_imbalance.to_bits(),
        "{label}: imbalance"
    );
    assert_eq!(lock.workload, pipe.workload, "{label}: workload");
}

/// Run lockstep and pipelined on the same plans, assert they agree, and
/// return the lockstep outcome. `topo` is (ranks, DPUs per rank), `pipe`
/// the pipelined run's (FIFO depth, simulator threads).
fn run_both(
    params: KernelParams,
    fault: FaultPlan,
    topo: (usize, usize),
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    pipe: (usize, usize),
    label: &str,
) -> DispatchOutcome {
    let (ranks, dpus) = topo;
    let (depth, sim_threads) = pipe;
    let kernel = kernel();
    // The lockstep reference always runs the DPUs strictly sequentially
    // (thread budget 1); the pipelined run gets the trial's budget — the
    // comparison therefore also property-checks the intra-rank pool.
    let mut s1 = server(fault.clone(), ranks, dpus);
    let lock = execute_rounds(
        &mut s1,
        &kernel,
        build_rounds(params, jobs, n_rounds, ranks, dpus),
        1,
    )
    .unwrap();
    let mut s2 = server(fault, ranks, dpus);
    let opts = PipelineOptions {
        fifo_depth: depth,
        sim_threads,
        ..Default::default()
    };
    let pipe = execute_rounds_pipelined(
        &mut s2,
        &kernel,
        build_rounds(params, jobs, n_rounds, ranks, dpus),
        &opts,
    )
    .unwrap();
    assert_bit_identical(&lock, &pipe, label);
    lock
}

const TRIALS: usize = 12;

#[test]
fn pipelined_is_bit_identical_on_random_workloads() {
    let mut rng = SplitMix64::new(0xF1F0);
    let mut out_of_band = 0;
    for trial in 0..TRIALS {
        // Every third trial runs the heavy-penalty scheme.
        let heavy = trial % 3 == 2;
        let params = if heavy {
            heavy_params(&mut rng)
        } else {
            params()
        };
        let n = rng.below(25) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(1, 3) as usize;
        let dpus = rng.between(1, 4) as usize;
        let n_rounds = rng.between(1, 3) as usize;
        let depth = rng.between(1, 3) as usize;
        let threads = rng.between(1, 8) as usize;
        let lock = run_both(
            params,
            FaultPlan::default(),
            (ranks, dpus),
            &jobs,
            n_rounds,
            (depth, threads),
            &format!(
                "trial {trial} ({ranks}x{dpus}, {n_rounds} rounds, depth {depth}, \
                 {threads} threads, heavy {heavy})"
            ),
        );
        if heavy {
            out_of_band += lock
                .results
                .iter()
                .filter(|(_, r)| r.status == dpu_kernel::layout::JobStatus::OutOfBand)
                .count();
        }
    }
    // Non-vacuity: the cross-engine check above really covered OutOfBand.
    assert!(
        out_of_band > 0,
        "no heavy-penalty trial produced an OutOfBand job"
    );
}

#[test]
fn pipelined_is_bit_identical_under_simulated_stragglers() {
    let mut rng = SplitMix64::new(0x57A6);
    for trial in 0..6 {
        let n = rng.between(6, 20) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(2, 3) as usize;
        let fault = FaultPlan {
            straggler_ranks: vec![rng.below(ranks as u64) as usize],
            straggler_slowdown: 2.0 + rng.below(2) as f64,
            ..FaultPlan::default()
        };
        run_both(
            params(),
            fault,
            (ranks, 2),
            &jobs,
            2,
            (2, 1 + trial),
            &format!("straggler trial {trial}"),
        );
    }
}

#[test]
fn wall_clock_hold_does_not_change_outputs() {
    // The hold sleeps the host thread on the straggler's odd launches; it
    // must be invisible in every simulated quantity.
    let mut rng = SplitMix64::new(0x401D);
    let jobs = rand_jobs(&mut rng, 12);
    let fault = FaultPlan {
        straggler_ranks: vec![0],
        straggler_slowdown: 2.0,
        straggler_hold_ms: 3.0,
        ..FaultPlan::default()
    };
    run_both(params(), fault, (2, 2), &jobs, 3, (2, 4), "hold");
}

#[test]
fn parallel_intra_rank_is_bit_identical_under_fault_plans() {
    // Satellite 3, fault half: under random topologies, fault plans and
    // thread budgets, the tolerant round executor must produce the same
    // fault draws, per-DPU failures, results and cycle stats whether the
    // rank's DPUs ran sequentially or on the intra-rank pool.
    use pim_host::dispatch::run_round;
    let mut rng = SplitMix64::new(0xACE5);
    for trial in 0..8 {
        let n = rng.between(4, 20) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(1, 3) as usize;
        let dpus = rng.between(2, 6) as usize;
        let threads = rng.between(2, 12) as usize;
        let fault = FaultPlan {
            seed: rng.next_u64(),
            dpu_fault_rate: 0.25,
            corrupt_rate: 0.2,
            disabled_dpus: vec![(
                rng.below(ranks as u64) as usize,
                rng.below(dpus as u64) as usize,
            )],
            ..FaultPlan::default()
        };
        let kernel = kernel();
        let label = format!("fault trial {trial} ({ranks}x{dpus}, {threads} threads)");
        let mut s1 = server(fault.clone(), ranks, dpus);
        let mut s2 = server(fault, ranks, dpus);
        for launch in 0..3 {
            let seq_round = run_round(
                &mut s1,
                &kernel,
                build_rounds(params(), &jobs, 1, ranks, dpus).remove(0),
                true,
                1,
                pim_host::DeadlinePolicy::off(),
                None,
            );
            let par_round = run_round(
                &mut s2,
                &kernel,
                build_rounds(params(), &jobs, 1, ranks, dpus).remove(0),
                true,
                threads,
                pim_host::DeadlinePolicy::off(),
                None,
            );
            for (r, (a, b)) in seq_round.into_iter().zip(par_round).enumerate() {
                let tag = format!("{label}, launch {launch}, rank {r}");
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.results, b.results, "{tag}: results");
                        assert_eq!(a.stats, b.stats, "{tag}: stats");
                        assert_eq!(
                            a.barrier_seconds.to_bits(),
                            b.barrier_seconds.to_bits(),
                            "{tag}: barrier"
                        );
                        assert_eq!(
                            a.imbalance.to_bits(),
                            b.imbalance.to_bits(),
                            "{tag}: imbalance"
                        );
                        assert_eq!(a.bytes_in, b.bytes_in, "{tag}: bytes_in");
                        assert_eq!(a.bytes_out, b.bytes_out, "{tag}: bytes_out");
                        let fail = |v: &[pim_host::dispatch::DpuFailure]| {
                            v.iter()
                                .map(|f| (f.dpu, f.job_ids.clone(), f.error.clone()))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(fail(&a.failures), fail(&b.failures), "{tag}: fault draws");
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{tag}: errors"),
                    (a, b) => panic!("{tag}: outcomes diverge: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn recovery_engines_agree_with_fault_free_reference() {
    // Satellite 3, recovery half: under a chaotic fault plan (a dead rank
    // plus result corruption) both the sync and the pipelined recovery
    // engines must still complete every job with the fault-free answer.
    // Their schedules diverge (retries land on different launches), so the
    // comparison is against the clean reference, not each other.
    let mut rng = SplitMix64::new(0xDEAD);
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..10)
        .map(|_| {
            let len = rng.between(30, 60) as usize;
            let a = rand_seq(&mut rng, len);
            let mut text = a.to_ascii();
            text.insert(5, b'T');
            (a.clone(), DnaSeq::from_ascii(&text).unwrap())
        })
        .collect();
    let mut cfg = DispatchConfig::new(kernel(), params());
    let rcfg = RecoveryConfig::default();

    cfg.engine = Engine::Lockstep;
    let mut clean = server(FaultPlan::default(), 2, 3);
    let (_, reference) = align_pairs_recovering(&mut clean, &cfg, &rcfg, &pairs).unwrap();
    assert_eq!(reference.len(), pairs.len());

    let fault = FaultPlan {
        seed: 7,
        dead_ranks: vec![0],
        corrupt_rate: 0.2,
        ..FaultPlan::default()
    };
    for (engine, label) in [
        (Engine::Lockstep, "sync recovery"),
        (Engine::Pipelined { fifo_depth: 2 }, "pipelined recovery"),
    ] {
        cfg.engine = engine;
        let mut faulty = server(fault.clone(), 2, 3);
        let (report, results) = align_pairs_recovering(&mut faulty, &cfg, &rcfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert_eq!(report.fault.dead_ranks, vec![0], "{label}: dead rank");
        assert!(report.fault.retried_jobs > 0, "{label}: retried nothing");
    }
}

#[test]
fn engines_survive_hangs_and_silent_corruption_with_audited_results() {
    // Satellite: under a seeded plan mixing tasklet livelocks (reaped by
    // the cycle-budget watchdog, no wall-clock involved) with silent CIGAR
    // corruption (checksum recomputed, only the audit can catch it), both
    // recovery engines must deliver bit-identical results to the fault-free
    // reference — zero lost jobs, zero wrong results. The lockstep engine's
    // schedule is deterministic, so its FaultReport must also replay
    // bit-identically.
    let mut rng = SplitMix64::new(0xBEEF);
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..12)
        .map(|_| {
            let len = rng.between(30, 60) as usize;
            let a = rand_seq(&mut rng, len);
            let mut text = a.to_ascii();
            text.insert(7, b'G');
            (a.clone(), DnaSeq::from_ascii(&text).unwrap())
        })
        .collect();
    let mut cfg = DispatchConfig::new(kernel(), params());
    let rcfg = RecoveryConfig {
        max_attempts: 12,
        quarantine_after: 100,
        audit: true,
        ..Default::default()
    };
    let watched = |fault: FaultPlan| {
        let mut scfg = ServerConfig::with_ranks(2);
        scfg.dpus_per_rank = 3;
        scfg.fault = fault;
        scfg.dpu.watchdog_cycles = 2_000_000;
        pim_sim::PimServer::new(scfg)
    };

    cfg.engine = Engine::Lockstep;
    let mut clean = watched(FaultPlan::default());
    let (_, reference) = align_pairs_recovering(&mut clean, &cfg, &rcfg, &pairs).unwrap();
    assert_eq!(reference.len(), pairs.len());

    let fault = FaultPlan {
        seed: 0x5EED,
        hang_rate: 0.25,
        silent_corrupt_rate: 0.3,
        ..FaultPlan::default()
    };
    let mut lockstep_reports = Vec::new();
    for (engine, label) in [
        (Engine::Lockstep, "sync"),
        (Engine::Lockstep, "sync replay"),
        (Engine::Pipelined { fifo_depth: 2 }, "pipelined"),
    ] {
        cfg.engine = engine;
        let mut faulty = watched(fault.clone());
        let (report, results) = align_pairs_recovering(&mut faulty, &cfg, &rcfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert!(
            report.fault.watchdog_expired > 0,
            "{label}: no hang reaped: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.budget_escalations > 0,
            "{label}: expiries must escalate the budget"
        );
        assert!(
            report.fault.silent_corruptions > 0,
            "{label}: no corruption injected: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.audit_failures > 0,
            "{label}: the audit must reject the mutated CIGARs"
        );
        assert_eq!(report.fault.corrupt_results, 0, "{label}: checksums pass");
        assert_eq!(report.fault.cpu_fallbacks, 0, "{label}: retries suffice");
        if matches!(engine, Engine::Lockstep) {
            lockstep_reports.push(report.fault.clone());
        }
    }
    assert_eq!(
        lockstep_reports[0], lockstep_reports[1],
        "lockstep fault accounting must replay bit-identically"
    );
}
