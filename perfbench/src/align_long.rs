//! align-long: S10000 pairs (about 10 kb, 2% divergence) through
//! `pim_host::align_pairs` on one rank with one simulation thread — the
//! paper's long-read regime, where per-pair DP dwarfs host dispatch.
//!
//! The timed loop makes passes over a fixed pool of pairs, in batches of
//! `batch_pairs` with one `align_pairs` call per batch, until the passes
//! took `--seconds` in all. `pairs_per_s` is the pairs aligned over that
//! time, and `sim_dpu_s` sums `ExecutionReport::total_seconds()` over one
//! pass, so it repeats exactly for a seed. Between passes, fresh processes
//! are timed to their first answer for `setup_s`.

use crate::common::{
    kernel_params, oracle, oracle_one, peak_rss_mb, warmup_pair, Expected, Outcome, Pair,
};
use crate::config::Config;
use crate::replay::off_path;
use crate::stats::median;
use crate::trace::Trace;
use datasets::{SyntheticParams, SyntheticPreset};
use dpu_kernel::NwKernel;
use nw_core::{AdaptiveAligner, ScoringScheme};
use pim_host::encode::Encoder;
use pim_host::{align_pairs, DispatchConfig, ExecutionReport, PipelineMetrics};
use pim_sim::{PimServer, ServerConfig};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

fn system(cfg: &Config) -> (PimServer, DispatchConfig) {
    let mut scfg = ServerConfig::with_ranks(1);
    scfg.dpus_per_rank = cfg.long.dpus_per_rank;
    let mut dcfg = DispatchConfig::new(NwKernel::paper_default(), kernel_params(cfg.band));
    dcfg.sim_threads = 1;
    (PimServer::new(scfg), dcfg)
}

/// The set-up probe, run in a fresh process: build the system and answer
/// the warm-up pair. The parent times this process from spawn to "ready".
/// The warm-up pair is a short S1000 pair, so that set-up measures start-up
/// and the one-time calibration rather than one long alignment.
pub fn setup_probe(cfg: &Config, seed: u64) -> Result<(), String> {
    let (mut server, dcfg) = system(cfg);
    let pair = warmup_pair(seed, SyntheticPreset::S1000);
    let (_, res) = align_pairs(&mut server, &dcfg, std::slice::from_ref(&pair))
        .map_err(|e| format!("warm-up align failed: {e}"))?;
    let want = oracle_one(
        &AdaptiveAligner::new(ScoringScheme::default(), cfg.band),
        (&pair.0, &pair.1),
    );
    if !want.matches_result(&res[0]) {
        return Err("warm-up pair answered wrongly".into());
    }
    println!("ready");
    Ok(())
}

struct Batch {
    pairs: usize,
    ok: bool,
    report: ExecutionReport,
    span: Option<usize>,
}

/// Time a fresh process from spawn until it answered the warm-up pair
/// (see [`setup_probe`]).
pub fn time_setup(probe: &mut Command) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut child = probe
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .map_err(|e| e.to_string())?;
    let t = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    if line.trim() != "ready" || !status.success() {
        return Err(format!("set-up probe failed ({status})"));
    }
    Ok(t)
}

struct Phase {
    batches: Vec<Batch>,
    /// Wall time of each pass over the pool.
    passes: Vec<f64>,
}

impl Phase {
    fn pairs_per_s(&self) -> f64 {
        self.batches.iter().map(|b| b.pairs).sum::<usize>() as f64 / self.passes.iter().sum::<f64>()
    }
}

/// Passes over the pool until they took `seconds` in all. After each pass
/// `between` is called with the share of `seconds` used so far; its time
/// is not counted.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    server: &mut PimServer,
    dcfg: &DispatchConfig,
    pool: &[Pair],
    expected: &[Expected],
    cfg: &Config,
    seconds: f64,
    mut trace: Option<&mut Trace>,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> Result<Phase, String> {
    let chunks: Vec<(usize, usize)> = (0..pool.len())
        .step_by(cfg.long.batch_pairs)
        .map(|lo| (lo, (lo + cfg.long.batch_pairs).min(pool.len())))
        .collect();
    let run = trace.as_deref_mut().map(|t| t.open("run", 0, None));
    let mut batches = Vec::new();
    let mut passes = Vec::new();
    let mut pass_t0 = Instant::now();
    for (i, &(lo, hi)) in chunks.iter().cycle().enumerate() {
        if i > 0 && i % chunks.len() == 0 {
            passes.push(pass_t0.elapsed().as_secs_f64());
            let used = passes.iter().sum::<f64>() / seconds;
            between(used.min(1.0))?;
            if used >= 1.0 {
                break;
            }
            pass_t0 = Instant::now();
        }
        let b0 = Instant::now();
        let (report, res) = align_pairs(server, dcfg, &pool[lo..hi])
            .map_err(|e| format!("align_pairs failed: {e}"))?;
        let b1 = Instant::now();
        let span = trace
            .as_deref_mut()
            .map(|t| t.record("pim_host.dispatch", i as u64, run, b0, b1));
        let ok = res.len() == hi - lo
            && res
                .iter()
                .zip(&expected[lo..hi])
                .all(|(r, e)| e.matches_result(r));
        batches.push(Batch {
            pairs: hi - lo,
            ok,
            report,
            span,
        });
    }
    if let (Some(t), Some(run)) = (trace, run) {
        t.close(run);
    }
    Ok(Phase { batches, passes })
}

pub fn run(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    probe: &mut Command,
    trace: Option<&mut Trace>,
) -> Result<Outcome, String> {
    let pool = SyntheticParams::preset(SyntheticPreset::S10000, seed).generate(cfg.long.pairs);
    let expected = oracle(&pool, cfg.band);
    let (mut server, dcfg) = system(cfg);
    let warm = warmup_pair(seed, SyntheticPreset::S10000);
    align_pairs(&mut server, &dcfg, std::slice::from_ref(&warm))
        .map_err(|e| format!("warm-up align failed: {e}"))?;

    let mut setups = Vec::with_capacity(cfg.setup_repeats);
    let mut sample_setup = |used: f64| {
        while (setups.len() as f64) < (cfg.setup_repeats as f64 * used).ceil() {
            setups.push(time_setup(probe)?);
        }
        Ok(())
    };
    let phase = timed_phase(
        &mut server,
        &dcfg,
        &pool,
        &expected,
        cfg,
        seconds,
        None,
        &mut sample_setup,
    )?;
    let rss = peak_rss_mb(None)?;
    let n_batches = pool.len().div_ceil(cfg.long.batch_pairs);
    let first_pass = &phase.batches[..n_batches];
    let sim_dpu_s: f64 = first_pass.iter().map(|b| b.report.total_seconds()).sum();
    let ok = phase.batches.iter().filter(|b| b.ok).count() as u64;
    let mut out = Outcome {
        attempted: phase.batches.len() as u64,
        failed: phase.batches.len() as u64 - ok,
        wrong: phase.batches.len() as u64 - ok,
        e2e: vec![
            ("setup_s", median(&setups)),
            ("pairs_per_s", phase.pairs_per_s()),
            ("ok_share", ok as f64 / phase.batches.len() as f64),
            ("peak_rss_mb", rss),
            ("sim_dpu_s", sim_dpu_s),
        ],
        layers: Vec::new(),
    };
    let Some(trace) = trace else {
        return Ok(out);
    };

    // Traced run: the same loop again with a span per `align_pairs` call.
    // The first pass's batches are then replayed through L0 and the
    // encoder as children of their call, with the engine's own plan and
    // decode counters recorded as children too. What no child explains is
    // the residual.
    let traced = timed_phase(
        &mut server,
        &dcfg,
        &pool,
        &expected,
        cfg,
        seconds,
        Some(&mut *trace),
        &mut |_| Ok(()),
    )?;
    let traced_ok = traced.batches.iter().filter(|b| b.ok).count() as u64;
    let traced_bad = traced.batches.len() as u64 - traced_ok;
    out.attempted += traced.batches.len() as u64;
    out.failed += traced_bad;
    out.wrong += traced_bad;
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), cfg.band);
    let mut pipe = PipelineMetrics::default();
    let mut report = ExecutionReport::default();
    // One pass of the pool is replayed: every pair once.
    let first_pass = &traced.batches[..n_batches];
    for (i, b) in first_pass.iter().enumerate() {
        let lo = i * cfg.long.batch_pairs;
        let pairs = &pool[lo..lo + b.pairs];
        let span = b.span;
        trace.time("nw_core.align", i as u64, span, || {
            for p in pairs {
                black_box(oracle_one(&aligner, (&p.0, &p.1)));
            }
        });
        let mut enc = Encoder::new(0xDA7A);
        trace.time("pim_host.encode", i as u64, span, || {
            for (a, b) in pairs {
                black_box((enc.encode_seq(a), enc.encode_seq(b)));
            }
        });
        if let Some(p) = &b.report.pipeline {
            trace.record_secs(
                "pim_host.plan",
                i as u64,
                span,
                p.plan_seconds - p.plan_overlap_seconds,
            );
            trace.record_secs("pim_host.decode", i as u64, span, p.decode_seconds);
            pipe.plan_seconds += p.plan_seconds;
            pipe.decode_seconds += p.decode_seconds;
            pipe.rank_busy_seconds
                .push(p.rank_busy_seconds.iter().sum());
            pipe.rank_stall_seconds
                .push(p.rank_stall_seconds.iter().sum());
            pipe.max_fifo_occupancy
                .push(p.max_fifo_occupancy.iter().copied().max().unwrap_or(0));
        }
        report.merge(&b.report);
    }
    let off = off_path(
        trace,
        &pool,
        &expected,
        cfg.band,
        cfg.serve.pairs_per_request,
    );

    let cells: u64 = expected.iter().map(|e| e.cells).sum();
    let align_s = trace.total("nw_core.align");
    let spans: Vec<usize> = first_pass.iter().filter_map(|b| b.span).collect();
    let dispatch_s: f64 = spans.iter().map(|&sp| trace.secs(sp)).sum();
    let retried = report.fault.retried_jobs as f64;
    let residual: f64 = spans.iter().map(|&sp| trace.self_secs(sp)).sum();
    let traced_wall: f64 = traced.passes.iter().sum();
    let overhead = traced_wall
        - traced.batches.iter().map(|b| b.pairs).sum::<usize>() as f64 / phase.pairs_per_s();
    out.layers = vec![
        ("nw_core.cells", cells as f64),
        ("nw_core.align_s", align_s),
        ("nw_core.cells_per_s", cells as f64 / align_s),
        ("nw_core.jobkey_us", off.jobkey_us),
        (
            "pim_sim.instructions",
            report.stats.total.instructions as f64,
        ),
        (
            "pim_sim.dma_bytes",
            (report.stats.total.dma_read_bytes + report.stats.total.dma_write_bytes) as f64,
        ),
        ("pim_sim.dpu_s", report.dpu_seconds),
        ("pim_sim.transfer_s", report.transfer_seconds),
        (
            "pim_sim.pipeline_utilization",
            report.pipeline_utilization(),
        ),
        ("pim_host.encode_s", trace.total("pim_host.encode")),
        ("pim_host.plan_s", pipe.plan_seconds),
        ("pim_host.decode_s", pipe.decode_seconds),
        ("pim_host.rank_busy_s", pipe.rank_busy_seconds.iter().sum()),
        (
            "pim_host.rank_stall_s",
            pipe.rank_stall_seconds.iter().sum(),
        ),
        (
            "pim_host.fifo_max",
            pipe.max_fifo_occupancy.iter().copied().max().unwrap_or(0) as f64,
        ),
        ("pim_host.dispatch_s", dispatch_s),
        ("pim_host.overhead_share", 1.0 - align_s / dispatch_s),
        ("pim_host.recovery.retried_jobs", retried),
        (
            "pim_host.recovery.cpu_fallbacks",
            report.fault.cpu_fallbacks as f64,
        ),
        (
            "pim_host.recovery.audit_failures",
            report.fault.audit_failures as f64,
        ),
        (
            "pim_host.recovery.useful_share",
            pool.len() as f64 / (pool.len() as f64 + retried),
        ),
        ("pim_host.cache.hit_rate", 0.0),
        ("pim_host.cache.inserts", 0.0),
        ("pim_host.cache.evictions", 0.0),
        ("pim_host.cache.lookup_us", off.lookup_us),
        ("pim_host.cache.insert_us", off.insert_us),
        ("pim_host.wal.appends", 0.0),
        ("pim_host.wal.bytes", 0.0),
        ("service.journal.appends", 0.0),
        ("service.journal.bytes", 0.0),
        ("service.proto.parse_us", off.parse_us),
        ("service.proto.reply_us", off.reply_us),
        ("service.ping_ms", 0.0),
        ("service.pim_utilization", 0.0),
        ("service.max_queue_depth", 0.0),
        ("client.latency_p50_ms", 0.0),
        ("client.latency_p90_ms", 0.0),
        ("client.late_p90_ms", 0.0),
        ("client.requests", traced.batches.len() as f64),
        ("trace.residual_s", residual),
        ("trace.residual_share", residual / dispatch_s),
        ("trace.overhead_s", overhead),
        ("trace.overhead_share", overhead / traced_wall),
    ];
    Ok(out)
}
