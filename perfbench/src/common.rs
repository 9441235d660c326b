//! Pieces every workload shares: the oracle, the run outcome, memory
//! readings, and the warm-up pair.

use datasets::{SyntheticParams, SyntheticPreset};
use dpu_kernel::layout::{JobResult, JobStatus};
use dpu_kernel::KernelParams;
use nw_core::{AdaptiveAligner, DnaSeq, ScoringScheme};
use upmem_nw_service::json::Json;

pub type Pair = (DnaSeq, DnaSeq);

/// The oracle's answer for one pair.
#[derive(Debug, Clone)]
pub struct Expected {
    pub score: i64,
    pub cigar: String,
    pub cells: u64,
    /// The answer as the system's result type (for cache and reply replays).
    pub result: JobResult,
}

impl Expected {
    /// Does a delivered answer equal the oracle on score and CIGAR?
    pub fn matches(&self, score: i64, cigar: &str) -> bool {
        self.score == score && self.cigar == cigar
    }

    pub fn matches_result(&self, r: &JobResult) -> bool {
        r.status == JobStatus::Ok && self.matches(i64::from(r.score), &r.cigar.to_string())
    }
}

pub fn kernel_params(band: usize) -> KernelParams {
    KernelParams {
        band,
        scheme: ScoringScheme::default(),
        score_only: false,
    }
}

/// One oracle answer: `AdaptiveAligner` at the same band and scheme the
/// system runs.
pub fn oracle_one(aligner: &AdaptiveAligner, (a, b): (&DnaSeq, &DnaSeq)) -> Expected {
    let out = aligner
        .align_traced(a, b)
        .expect("generated pairs are valid DNA and align within any band");
    Expected {
        score: i64::from(out.alignment.score),
        cigar: out.alignment.cigar.to_string(),
        cells: out.cells,
        result: JobResult {
            status: JobStatus::Ok,
            score: out.alignment.score,
            cigar: out.alignment.cigar,
        },
    }
}

/// Oracle answers for `pairs`, computed on two threads (the host has two
/// cores; this always runs outside a timed region).
pub fn oracle(pairs: &[Pair], band: usize) -> Vec<Expected> {
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), band);
    let half = pairs.len().div_ceil(2);
    std::thread::scope(|s| {
        let chunks: Vec<_> = pairs
            .chunks(half.max(1))
            .map(|c| {
                let aligner = &aligner;
                s.spawn(move || {
                    c.iter()
                        .map(|(a, b)| oracle_one(aligner, (a, b)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// A pair that belongs to no workload, answered once during set-up.
pub fn warmup_pair(seed: u64, preset: SyntheticPreset) -> Pair {
    SyntheticParams::preset(preset, seed ^ 0x5EED_0F3A_1200_0001)
        .generate(1)
        .remove(0)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (align-long: batches; serve-*: requests).
    pub attempted: u64,
    /// Units that failed: a wrong answer, a reject, or a late reply.
    pub failed: u64,
    /// Answers that differed from the oracle (any makes the run incorrect).
    pub wrong: u64,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
}

/// The splitmix64 finalizer: a bijective 64-bit hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Follow a dotted path of object keys.
pub fn path<'a>(v: &'a Json, dotted: &str) -> Option<&'a Json> {
    dotted.split('.').try_fold(v, |v, k| v.get(k))
}

/// Numeric field at a dotted path, or an error naming it.
pub fn field(v: &Json, dotted: &str) -> Result<f64, String> {
    path(v, dotted)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {dotted:?}"))
}

/// Render a measured number with all its digits (`null` if not finite).
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
