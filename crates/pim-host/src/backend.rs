//! Peer alignment backends behind one [`Backend`] trait.
//!
//! The paper's §5.6 observes that the host cores sit idle while DPUs run.
//! PR 9 promotes the CPU path from an error-fallback/static-split sidecar
//! to a *first-class peer*: [`SimPimBackend`] wraps the PiM server behind
//! fault-tolerant dispatch, [`CpuPoolBackend`]
//! wraps the kernel-identical [`AdaptiveAligner`] on a work-stealing
//! thread pool, and both speak the same batch interface and self-report
//! measured throughput in eq.-6 workload units per second.
//!
//! Throughput is an EWMA over completed batches — a *feedback loop*, not
//! a hand-fed estimate. The first batch is not blind either: both lanes
//! are seeded from one timed probe of the adaptive engine, the DP loop
//! every backend runs per job, taken once per process. The CPU pool
//! multiplies it by its worker threads, the simulated PiM server by the
//! simulation threads that execute its DPUs, so the router has a
//! defensible prior before any batch completes and the two priors differ
//! only by those thread counts.
//!
//! Both backends honor the bit-identity contract: for in-band pairs the
//! CPU pool's adaptive aligner produces exactly the score and CIGAR the
//! DPU kernels produce, which is what makes dynamic routing (and result
//! caching) invisible to callers.

use crate::dispatch::DispatchConfig;
use crate::recovery::{align_pairs_recovering, FaultReport, RecoveryConfig};
use crate::report::ExecutionReport;
use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::cigar::Cigar;
use nw_core::error::AlignError;
use nw_core::seq::DnaSeq;
use nw_core::{AdaptiveAligner, ScoringScheme};
use pim_sim::{PimServer, SimError};
use std::sync::Mutex;
use std::time::Instant;

/// Exponentially weighted moving average of measured throughput.
///
/// Seeded from a micro-probe of the adaptive engine and then
/// updated from every completed batch; the weight favors recent samples
/// because a one-shot run only sees a handful of batches.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputEwma {
    rate: f64,
    samples: u64,
}

/// Weight of the newest sample. High on purpose: the seed is a prior, and
/// a few real batches should dominate it quickly.
const EWMA_ALPHA: f64 = 0.4;

impl ThroughputEwma {
    /// Start from a modeled rate (units/second, clamped positive).
    pub fn seeded(rate: f64) -> Self {
        ThroughputEwma {
            rate: rate.max(1.0),
            samples: 0,
        }
    }

    /// Fold in one completed batch.
    pub fn observe(&mut self, units: f64, seconds: f64) {
        if units <= 0.0 || seconds <= 1e-12 {
            return;
        }
        let sample = units / seconds;
        // First real measurement replaces the model seed outright.
        self.rate = if self.samples == 0 {
            sample
        } else {
            (1.0 - EWMA_ALPHA) * self.rate + EWMA_ALPHA * sample
        };
        self.samples += 1;
    }

    /// Current estimate in units/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Batches observed so far (0 = still running on the seed).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Everything one batch execution produced.
#[derive(Debug)]
pub struct BackendBatch {
    /// Per-pair results, in the batch's input order.
    pub results: Vec<JobResult>,
    /// Measured host wall seconds for the batch (what the router's
    /// cost model predicts and the EWMA consumes).
    pub seconds: f64,
    /// The PiM execution report, when the backend produces one.
    pub report: Option<ExecutionReport>,
    /// Fault-recovery counters, when the backend tracks them.
    pub fault: Option<FaultReport>,
}

/// A first-class alignment backend: runs batches, reports its measured
/// throughput so the router can price the next batch.
pub trait Backend: Send {
    /// Stable short name ("pim", "cpu") used in reports and bench JSON.
    fn name(&self) -> &'static str;
    /// Current measured throughput estimate in eq.-6 units per second.
    fn units_per_second(&self) -> f64;
    /// Align a batch; updates the throughput estimate as a side effect.
    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError>;
}

/// Total eq.-6 workload of a pair list at a band width.
pub fn batch_units(pairs: &[(DnaSeq, DnaSeq)], band: usize) -> f64 {
    pairs
        .iter()
        .map(|(a, b)| crate::balance::workload(a.len(), b.len(), band) as f64)
        .sum()
}

/// Length of the synthetic pair the throughput probe aligns: long enough
/// that per-job overheads are amortized, short enough to be in every
/// workload's range.
const SEED_JOB_LEN: usize = 384;

/// Seed PiM throughput (eq.-6 units per *host* second). The simulator
/// never interprets a job: each DPU's work is the adaptive engine run on
/// one of the simulation threads, so the prior is the single-thread engine
/// rate ([`engine_probe_rate`]) times the threads that run DPUs
/// concurrently ([`sim_lanes`]). The estimate is deliberately rough — it
/// only has to be the right order of magnitude until the first batch's
/// measurement replaces it.
pub fn seed_pim_rate(cfg: &DispatchConfig, dpus: usize) -> f64 {
    engine_probe_rate(cfg.params.scheme, cfg.params.band) * sim_lanes(cfg, dpus) as f64
}

/// Simulated DPUs that execute at once: the resolved simulation thread
/// budget, never more than there are DPUs.
fn sim_lanes(cfg: &DispatchConfig, dpus: usize) -> usize {
    crate::dispatch::resolve_sim_threads(cfg.sim_threads).clamp(1, dpus.max(1))
}

/// The PiM server as a backend: fault-tolerant dispatch (lockstep or
/// pipelined per the [`DispatchConfig`]) over the full recovery ladder, so
/// injected faults degrade throughput instead of failing batches.
pub struct SimPimBackend<'a> {
    server: &'a mut PimServer,
    cfg: DispatchConfig,
    rcfg: RecoveryConfig,
    ewma: ThroughputEwma,
}

impl<'a> SimPimBackend<'a> {
    /// Wrap `server`; the throughput seed comes from the engine probe and
    /// the simulation threads ([`seed_pim_rate`]).
    pub fn new(server: &'a mut PimServer, cfg: DispatchConfig, rcfg: RecoveryConfig) -> Self {
        let dpus = server.cfg().ranks * server.cfg().dpus_per_rank;
        let ewma = ThroughputEwma::seeded(seed_pim_rate(&cfg, dpus));
        SimPimBackend {
            server,
            cfg,
            rcfg,
            ewma,
        }
    }

    /// The dispatch configuration this backend runs.
    pub fn dispatch_config(&self) -> &DispatchConfig {
        &self.cfg
    }
}

impl Backend for SimPimBackend<'_> {
    fn name(&self) -> &'static str {
        "pim"
    }

    fn units_per_second(&self) -> f64 {
        self.ewma.rate()
    }

    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError> {
        if pairs.is_empty() {
            return Ok(BackendBatch {
                results: Vec::new(),
                seconds: 0.0,
                report: None,
                fault: None,
            });
        }
        let t = Instant::now();
        let (report, results) = align_pairs_recovering(self.server, &self.cfg, &self.rcfg, pairs)?;
        let seconds = t.elapsed().as_secs_f64();
        self.ewma
            .observe(batch_units(pairs, self.cfg.params.band), seconds);
        Ok(BackendBatch {
            results,
            seconds,
            fault: Some(report.fault.clone()),
            report: Some(report),
        })
    }
}

/// The host cores as a backend: the kernel-identical adaptive aligner on
/// the work-stealing pool, producing bit-identical results to the DPU path
/// for every in-band pair.
pub struct CpuPoolBackend {
    aligner: AdaptiveAligner,
    threads: usize,
    band: usize,
    score_only: bool,
    ewma: ThroughputEwma,
}

impl CpuPoolBackend {
    /// A pool of `threads` workers aligning with band `band`. The
    /// throughput seed is the engine probe ([`engine_probe_rate`]) times
    /// `threads`.
    pub fn new(scheme: ScoringScheme, band: usize, score_only: bool, threads: usize) -> Self {
        let threads = threads.max(1);
        let aligner = AdaptiveAligner::new(scheme, band);
        let ewma = ThroughputEwma::seeded(engine_probe_rate(scheme, band) * threads as f64);
        CpuPoolBackend {
            aligner,
            threads,
            band,
            score_only,
            ewma,
        }
    }

    /// Map one CPU alignment outcome onto the kernel's result layout,
    /// mirroring the DPU contract: out-of-band/failed pairs surface as
    /// `OutOfBand`, score-only mode strips the CIGAR.
    fn to_job_result(&self, res: Result<nw_core::Alignment, AlignError>) -> JobResult {
        match res {
            Ok(aln) => JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: if self.score_only {
                    Cigar::new()
                } else {
                    aln.cigar
                },
            },
            Err(_) => JobResult {
                status: JobStatus::OutOfBand,
                score: 0,
                cigar: Cigar::new(),
            },
        }
    }
}

/// Single-thread units/second of the adaptive engine on a representative
/// synthetic pair. Timed once per `(scheme, band)` per process and then
/// reused, so every lane's prior scales the same sample.
fn engine_probe_rate(scheme: ScoringScheme, band: usize) -> f64 {
    static RATES: Mutex<Vec<((ScoringScheme, usize), f64)>> = Mutex::new(Vec::new());
    let mut rates = RATES.lock().expect("engine probe cache");
    if let Some(&(_, rate)) = rates.iter().find(|(key, _)| *key == (scheme, band)) {
        return rate;
    }
    let aligner = AdaptiveAligner::new(scheme, band);
    let text: String = "ACGTGGTCATTACGGA".repeat(SEED_JOB_LEN / 16);
    let a = DnaSeq::from_ascii(text.as_bytes()).expect("probe seq");
    let mut btext = text.clone();
    btext.replace_range(8..9, "T");
    let b = DnaSeq::from_ascii(btext.as_bytes()).expect("probe seq");
    let units = crate::balance::workload(a.len(), b.len(), band) as f64;
    let t = Instant::now();
    let mut reps = 0u32;
    while reps < 4 || t.elapsed().as_micros() < 200 {
        std::hint::black_box(aligner.align(&a, &b)).ok();
        reps += 1;
    }
    let per = t.elapsed().as_secs_f64() / f64::from(reps);
    let rate = units / per.max(1e-9);
    rates.push(((scheme, band), rate));
    rate
}

impl Backend for CpuPoolBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn units_per_second(&self) -> f64 {
        self.ewma.rate()
    }

    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError> {
        if pairs.is_empty() {
            return Ok(BackendBatch {
                results: Vec::new(),
                seconds: 0.0,
                report: None,
                fault: None,
            });
        }
        let (raw, elapsed) =
            cpu_baseline::driver::run_batch(self.threads, pairs, |a, b| self.aligner.align(a, b));
        let seconds = elapsed.as_secs_f64();
        let results = raw.into_iter().map(|r| self.to_job_result(r)).collect();
        self.ewma.observe(batch_units(pairs, self.band), seconds);
        Ok(BackendBatch {
            results,
            seconds,
            report: None,
            fault: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_kernel::{KernelParams, NwKernel};
    use pim_sim::ServerConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(4 + k % 4);
                let mut b = a.clone();
                b.insert_str(4 + k % 6, "TT");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    fn dispatch_config() -> DispatchConfig {
        let params = KernelParams {
            band: 32,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        DispatchConfig::new(NwKernel::paper_default(), params)
    }

    #[test]
    fn ewma_replaces_seed_then_blends() {
        let mut e = ThroughputEwma::seeded(1000.0);
        assert_eq!(e.rate(), 1000.0);
        e.observe(100.0, 1.0);
        assert_eq!(e.rate(), 100.0, "first sample replaces the seed");
        e.observe(200.0, 1.0);
        assert!(e.rate() > 100.0 && e.rate() < 200.0, "blend: {}", e.rate());
        // Degenerate samples are ignored.
        e.observe(0.0, 1.0);
        e.observe(10.0, 0.0);
        assert_eq!(e.samples(), 2);
    }

    #[test]
    fn both_backends_agree_bit_identically() {
        let ps = pairs(12);
        let cfg = dispatch_config();
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let mut pim = SimPimBackend::new(&mut server, cfg, RecoveryConfig::default());
        let pim_out = pim.run_batch(&ps).unwrap();
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 2);
        let cpu_out = cpu.run_batch(&ps).unwrap();
        assert_eq!(pim_out.results.len(), cpu_out.results.len());
        for (i, (p, c)) in pim_out.results.iter().zip(&cpu_out.results).enumerate() {
            assert_eq!(p, c, "pair {i} diverged between backends");
        }
        // Both measured a real batch, so the EWMA left its seed.
        assert!(pim.units_per_second() > 0.0);
        assert!(cpu.units_per_second() > 0.0);
    }

    #[test]
    fn pim_seed_is_finite_and_scales_with_sim_threads() {
        let mut cfg = dispatch_config();
        cfg.sim_threads = 1;
        let rate = seed_pim_rate(&cfg, 8);
        assert!(rate.is_finite() && rate > 0.0, "seed rate {rate}");
        // The probe is timed once per process, so the prior scales exactly
        // with the threads that run DPUs at once, capped by the DPU count.
        cfg.sim_threads = 4;
        assert_eq!(seed_pim_rate(&cfg, 8), 4.0 * rate);
        assert_eq!(seed_pim_rate(&cfg, 2), 2.0 * rate);
        assert_eq!(seed_pim_rate(&cfg, 0), rate);
        // The CPU pool scales the same sample by its worker threads.
        let band = cfg.params.band;
        let cpu = CpuPoolBackend::new(cfg.params.scheme, band, false, 4);
        assert_eq!(cpu.units_per_second(), 4.0 * rate);
    }

    #[test]
    fn score_only_cpu_results_strip_cigars() {
        let ps = pairs(4);
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, true, 1);
        let out = cpu.run_batch(&ps).unwrap();
        for r in &out.results {
            assert_eq!(r.status, JobStatus::Ok);
            assert!(r.cigar.runs().is_empty());
        }
    }
}
