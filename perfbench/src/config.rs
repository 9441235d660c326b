//! Load constants, read from `perfbench/config.json` so every rate, limit,
//! window and fault rate the benchmark uses is written down in one file.

use crate::common::{field, path as json_path};
use upmem_nw_service::json::Json;

#[derive(Debug, Clone)]
pub struct Config {
    /// Band width every workload aligns at (a multiple of 16).
    pub band: usize,
    /// Fresh set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// A served request answered later than this counts as failed.
    pub latency_limit_ms: f64,
    pub long: LongCfg,
    pub serve: ServeCfg,
}

#[derive(Debug, Clone)]
pub struct LongCfg {
    /// Distinct S10000 pairs in the pool the timed loop cycles through.
    pub pairs: usize,
    /// Pairs per `align_pairs` call.
    pub batch_pairs: usize,
    pub dpus_per_rank: usize,
}

#[derive(Debug, Clone)]
pub struct ServeCfg {
    pub pairs_per_request: usize,
    pub dpus: usize,
    /// The daemon's `--cache` capacity, in results.
    pub cache: usize,
    /// The daemon's `--queue-requests` admission bound.
    pub queue_requests: usize,
    /// Outstanding requests in the closed-loop phase.
    pub closed_window: usize,
    /// Share of `--seconds` spent in closed-loop phases; the rest goes to
    /// open-loop phases.
    pub closed_share: f64,
    /// Rounds of one closed-loop then one open-loop phase per run.
    pub slices: usize,
    /// Distinct requests in serve-hot's working set.
    pub hot_requests: usize,
    /// Leading pairs replayed through `align_pairs` for the simulated-time
    /// and L0 count figures of the serve workloads.
    pub sample_pairs: usize,
    /// `{"op":"stats"}` round trips timed in a traced run.
    pub pings: usize,
    /// Open-loop Poisson rate per workload, requests per second.
    pub open_rate_unique: f64,
    pub open_rate_hot: f64,
    pub open_rate_faulty: f64,
    /// serve-faulty's fault plan.
    pub dpu_fault_rate: f64,
    pub corrupt_cigars: f64,
    pub quarantine: usize,
    pub retries: usize,
}

impl Config {
    pub fn load(path: &str, smoke: bool) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        // `smoke` overrides apply on top of the full-size constants.
        let get = |key: &str| -> Result<f64, String> {
            if smoke {
                if let Some(v) = json_path(&root, &format!("smoke.{key}")).and_then(Json::as_f64) {
                    return Ok(v);
                }
            }
            field(&root, key).map_err(|e| format!("{path}: {e}"))
        };
        let int = |key: &str| get(key).map(|v| v as usize);
        let cfg = Config {
            band: int("band")?,
            setup_repeats: int("setup_repeats")?.max(1),
            latency_limit_ms: get("latency_limit_ms")?,
            long: LongCfg {
                pairs: int("align_long.pairs")?,
                batch_pairs: int("align_long.batch_pairs")?.max(1),
                dpus_per_rank: int("align_long.dpus_per_rank")?,
            },
            serve: ServeCfg {
                pairs_per_request: int("serve.pairs_per_request")?.max(1),
                dpus: int("serve.dpus")?,
                cache: int("serve.cache")?,
                queue_requests: int("serve.queue_requests")?,
                closed_window: int("serve.closed_window")?.max(1),
                closed_share: get("serve.closed_share")?,
                slices: int("serve.slices")?.max(1),
                hot_requests: int("serve.hot_requests")?.max(1),
                sample_pairs: int("serve.sample_pairs")?.max(1),
                pings: int("serve.pings")?.max(1),
                open_rate_unique: get("serve.open_rate_rps.serve-unique")?,
                open_rate_hot: get("serve.open_rate_rps.serve-hot")?,
                open_rate_faulty: get("serve.open_rate_rps.serve-faulty")?,
                dpu_fault_rate: get("serve.faulty.dpu_fault_rate")?,
                corrupt_cigars: get("serve.faulty.corrupt_cigars")?,
                quarantine: int("serve.faulty.quarantine")?,
                retries: int("serve.faulty.retries")?,
            },
        };
        if !cfg.band.is_multiple_of(16) || cfg.band == 0 {
            return Err(format!("{path}: band must be a positive multiple of 16"));
        }
        if !(0.0..1.0).contains(&cfg.serve.closed_share) || cfg.long.batch_pairs > cfg.long.pairs {
            return Err(format!("{path}: inconsistent closed_share or batch size"));
        }
        Ok(cfg)
    }
}
