//! serve-faulty (and serve-unique and serve-hot, which the self-test
//! runs): the real `upmem-nw serve` daemon (one rank, one simulation
//! thread, durable state in a fresh directory, fsync off) driven by one
//! client connection from two threads.
//!
//! Each run: `slices` rounds of a closed-loop phase (`closed_window`
//! requests outstanding) and an open-loop Poisson phase at the workload's
//! fixed rate, on one daemon. `pairs_per_s` is the pairs answered in the
//! closed-loop phases over their wall time; the latency figures (reported
//! with the traced run's layer metrics) are percentiles over every
//! open-loop request, each timed from when it was due. `setup_s` is the median over `setup_repeats` fresh daemons, each
//! timed from spawn to the answer of one warm-up pair: the one that serves
//! the run, and the rest started and drained between rounds. Every answer
//! is checked against the oracle afterwards; a reject, a shed, a wrong
//! answer or a reply later than `latency_limit_ms` is a failure.

use crate::common::{
    field, kernel_params, mix64, oracle, oracle_one, peak_rss_mb, warmup_pair, Expected, Outcome,
    Pair,
};
use crate::config::Config;
use crate::daemon::{file_len, Daemon, Line};
use crate::replay::request_line;
use crate::stats::{median, percentile};
use crate::trace::Trace;
use datasets::{SyntheticParams, SyntheticPreset};
use dpu_kernel::NwKernel;
use nw_core::{job_key_seqs, AdaptiveAligner, ScoringScheme};
use pim_host::encode::Encoder;
use pim_host::{align_pairs, DispatchConfig, ResultCache};
use pim_sim::{PimServer, ServerConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;
use upmem_nw_service::proto;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Unique,
    Hot,
    Faulty,
}

/// How long before a due time the open-loop generator stops sleeping.
const SPIN: Duration = Duration::from_micros(200);

/// One request sent in a timed phase.
struct Sent {
    seq: usize,
    chunk: usize,
    due: Instant,
    sent: Instant,
}

/// One timed phase: what was sent, what came back, and when it started.
struct Phase {
    t0: Instant,
    sent: Vec<Sent>,
    replies: Vec<Line>,
}

impl Phase {
    /// Wall time from the phase's start to its last reply.
    fn wall(&self) -> f64 {
        self.replies
            .iter()
            .map(|r| r.0)
            .max()
            .map_or(0.0, |end| (end - self.t0).as_secs_f64())
    }
}

/// A reply line checked against the oracle.
struct Checked {
    ok: bool,
    wrong: bool,
    recv: Option<Instant>,
}

fn daemon_flags(cfg: &Config, kind: Kind, seed: u64) -> Vec<String> {
    let mut f: Vec<String> = ["--ranks", "1", "--sim-threads", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    f.extend(["--dpus".into(), cfg.serve.dpus.to_string()]);
    f.extend(["--band".into(), cfg.band.to_string()]);
    f.extend(["--cache".into(), cfg.serve.cache.to_string()]);
    f.extend([
        "--queue-requests".into(),
        cfg.serve.queue_requests.to_string(),
    ]);
    if kind == Kind::Faulty {
        let s = &cfg.serve;
        f.extend([
            "--seed".into(),
            seed.to_string(),
            "--dpu-fault-rate".into(),
            s.dpu_fault_rate.to_string(),
            "--corrupt-cigars".into(),
            s.corrupt_cigars.to_string(),
            "--quarantine".into(),
            s.quarantine.to_string(),
            "--retries".into(),
            s.retries.to_string(),
        ]);
    }
    f
}

fn is_terminal(line: &str) -> bool {
    ["result", "reject", "shed", "error"]
        .iter()
        .any(|t| line.starts_with(&format!("{{\"type\":\"{t}\"")))
}

/// Start a daemon and time it from spawn to the answer of the warm-up pair.
fn start_timed(
    bin: &Path,
    dir: &Path,
    tag: &str,
    flags: &[String],
    warm: &Pair,
    want: &Expected,
) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let mut d = Daemon::start(bin, dir, tag, flags)?;
    d.send(&request_line("warmup", std::slice::from_ref(warm)))?;
    let (at, line) = loop {
        let (at, line) = d.recv()?;
        if is_terminal(&line) {
            break (at, line);
        }
    };
    let setup = (at - t0).as_secs_f64();
    let v = Json::parse(line.trim())?;
    if !answer_matches(&v, std::slice::from_ref(want)) {
        return Err(format!("warm-up pair answered wrongly: {}", line.trim()));
    }
    Ok((d, setup))
}

fn answer_matches(v: &Json, want: &[Expected]) -> bool {
    if v.get("type").and_then(Json::as_str) != Some("result")
        || v.get("disposition").and_then(Json::as_str) != Some("ok")
    {
        return false;
    }
    let Some(results) = v.get("results").and_then(Json::as_arr) else {
        return false;
    };
    results.len() == want.len()
        && results.iter().zip(want).all(|(r, e)| {
            r.get("status").and_then(Json::as_str) == Some("ok")
                && r.get("score").and_then(Json::as_f64) == Some(e.score as f64)
                && r.get("cigar").and_then(Json::as_str) == Some(e.cigar.as_str())
        })
}

/// The requests of a run. Request `i` carries the pairs
/// `pool[i * ppr..(i + 1) * ppr]`, generated from the seed and `i` the
/// first time it is asked for, so a faster program never runs out of
/// fresh pairs.
struct Load {
    kind: Kind,
    seed: u64,
    ppr: usize,
    /// Distinct requests serve-hot cycles through.
    hot: usize,
    pool: Vec<Pair>,
    next: usize,
}

impl Load {
    /// Make sure request `chunk`'s pairs exist.
    fn ensure(&mut self, chunk: usize) {
        while self.pool.len() < (chunk + 1) * self.ppr {
            // Hashed, so that no two requests' generator streams overlap.
            let i = (self.pool.len() / self.ppr) as u64;
            let seed = mix64(self.seed ^ mix64(i));
            self.pool
                .extend(SyntheticParams::preset(SyntheticPreset::S1000, seed).generate(self.ppr));
        }
    }

    /// The request the next send carries: fresh pairs on serve-unique and
    /// serve-faulty, the hot set cycled on serve-hot.
    fn next_chunk(&mut self) -> usize {
        let seq = self.next;
        self.next += 1;
        let chunk = match self.kind {
            Kind::Hot => seq % self.hot,
            _ => seq,
        };
        self.ensure(chunk);
        chunk
    }

    fn pairs(&self, chunk: usize) -> &[Pair] {
        &self.pool[chunk * self.ppr..(chunk + 1) * self.ppr]
    }
}

fn send_req(d: &mut Daemon, load: &mut Load, due: Instant) -> Result<Sent, String> {
    let seq = load.next;
    let chunk = load.next_chunk();
    let line = request_line(&format!("q{seq}"), load.pairs(chunk));
    d.send(&line)?;
    Ok(Sent {
        seq,
        chunk,
        due,
        sent: Instant::now(),
    })
}

/// Closed loop: keep `window` requests outstanding for `span` seconds,
/// then collect the stragglers.
fn closed_phase(
    d: &mut Daemon,
    load: &mut Load,
    window: usize,
    span: f64,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(span);
    let mut sent = Vec::new();
    let mut replies = Vec::new();
    for _ in 0..window {
        sent.push(send_req(d, load, Instant::now())?);
    }
    let mut outstanding = window;
    while outstanding > 0 {
        let (at, line) = d.recv()?;
        if !is_terminal(&line) {
            continue;
        }
        replies.push((at, line));
        outstanding -= 1;
        if Instant::now() < end {
            sent.push(send_req(d, load, Instant::now())?);
            outstanding += 1;
        }
    }
    Ok(Phase { t0, sent, replies })
}

/// Open loop: Poisson arrivals at `rate` requests/s for `span` seconds,
/// sent on schedule whatever the replies do.
fn open_phase(
    d: &mut Daemon,
    load: &mut Load,
    rate: f64,
    span: f64,
    seed: u64,
) -> Result<Phase, String> {
    let mut rng = seed ^ 0x0FE7_100F_u64;
    let mut offsets = Vec::new();
    let mut t = 0.0;
    while t < span {
        offsets.push(t);
        // Unit-mean exponential gap from a splitmix64 stream.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = mix64(rng);
        let u = ((z >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        t += -u.ln() / rate;
    }
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(offsets.len());
    for off in offsets {
        let due = t0 + Duration::from_secs_f64(off);
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by a timer slack that would count as latency.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        sent.push(send_req(d, load, due)?);
    }
    let mut replies = Vec::with_capacity(sent.len());
    while replies.len() < sent.len() {
        let (at, line) = d.recv()?;
        if is_terminal(&line) {
            replies.push((at, line));
        }
    }
    Ok(Phase { t0, sent, replies })
}

/// Match each sent request to its reply and check it against the oracle.
fn check(
    phase: &Phase,
    load: &Load,
    expected: &[Option<Expected>],
    limit_ms: f64,
    from_due: bool,
) -> Result<Vec<Checked>, String> {
    let mut by_id: HashMap<String, (Instant, Json)> = HashMap::new();
    for (at, line) in &phase.replies {
        let v = Json::parse(line.trim())?;
        if let Some(id) = v.get("id").and_then(Json::as_str) {
            by_id.insert(id.to_string(), (*at, v));
        }
    }
    Ok(phase
        .sent
        .iter()
        .map(|s| {
            let Some((at, v)) = by_id.get(&format!("q{}", s.seq)) else {
                return Checked {
                    ok: false,
                    wrong: false,
                    recv: None,
                };
            };
            let lo = s.chunk * load.ppr;
            let want: Vec<Expected> = expected[lo..lo + load.ppr]
                .iter()
                .map(|e| e.clone().expect("oracle computed for every sent pair"))
                .collect();
            let is_result = v.get("type").and_then(Json::as_str) == Some("result")
                && v.get("disposition").and_then(Json::as_str) == Some("ok");
            let right = answer_matches(v, &want);

            let start = if from_due { s.due } else { s.sent };
            let in_time = (*at - start).as_secs_f64() * 1e3 <= limit_ms;
            Checked {
                ok: right && in_time,
                wrong: is_result && !right,
                recv: Some(*at),
            }
        })
        .collect())
}

fn cache_delta(before: &Json, after: &Json, name: &str) -> Result<f64, String> {
    Ok(field(after, &format!("cache.{name}"))? - field(before, &format!("cache.{name}"))?)
}

/// Send `n` requests back to back and collect their answers (untimed).
fn burst(d: &mut Daemon, load: &mut Load, n: usize) -> Result<Phase, String> {
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(n);
    for _ in 0..n {
        sent.push(send_req(d, load, Instant::now())?);
    }
    let mut replies = Vec::with_capacity(n);
    while replies.len() < n {
        let (at, line) = d.recv()?;
        if is_terminal(&line) {
            replies.push((at, line));
        }
    }
    Ok(Phase { t0, sent, replies })
}

/// Pairs answered correctly per second of closed-loop wall time, summed
/// over the given phases.
fn closed_rate(phases: &[(&Phase, &[Checked])], ppr: usize) -> f64 {
    let (mut done, mut wall) = (0, 0.0);
    for (phase, checked) in phases {
        done += checked.iter().filter(|c| c.ok).count() * ppr;
        wall += phase.wall();
    }
    done as f64 / wall
}

/// Replay the daemon's per-request path over a traced closed phase, in
/// this process: parse, job key and cache lookup per pair, then for a miss
/// L0 alignment, encode and the audited insert, then the reply line. Each
/// call is a span whose parent is the phase, so the phase's self time is
/// the wall time no layer explains. L0 answers double as the oracle.
fn replay_path(
    trace: &mut Trace,
    phase: &Phase,
    load: &Load,
    cache: &mut ResultCache,
    expected: &mut [Option<Expected>],
    band: usize,
) -> Result<usize, String> {
    let end = phase.replies.iter().map(|r| r.0).max().unwrap_or(phase.t0);
    let run = trace.record("run", 0, None, phase.t0, end);
    let scheme = ScoringScheme::default();
    let aligner = AdaptiveAligner::new(scheme, band);
    for s in &phase.sent {
        let id = s.seq as u64;
        let line = request_line(&format!("q{}", s.seq), load.pairs(s.chunk));
        let parsed = trace.time("service.proto.parse", id, Some(run), || {
            proto::parse_line(black_box(&line))
        });
        if parsed.is_err() {
            return Err("the daemon's parser refused a request line".into());
        }
        let mut results = Vec::with_capacity(load.ppr);
        for (k, (a, b)) in load.pairs(s.chunk).iter().enumerate() {
            let slot = s.chunk * load.ppr + k;
            let key = trace.time("nw_core.jobkey", id, Some(run), || {
                job_key_seqs(a, b, &scheme, band, false)
            });
            if let Some(hit) = trace.time("pim_host.cache.lookup", id, Some(run), || {
                cache.lookup(&key)
            }) {
                results.push(hit);
                continue;
            }
            let e = trace.time("nw_core.align", id, Some(run), || {
                oracle_one(&aligner, (a, b))
            });
            let mut enc = Encoder::new(0xDA7A);
            let packed = trace.time("pim_host.encode", id, Some(run), || {
                (enc.encode_seq(a), enc.encode_seq(b))
            });
            trace.time("pim_host.cache.insert", id, Some(run), || {
                cache.insert_audited(key, &packed, &e.result, &scheme, band, false)
            });
            results.push(e.result.clone());
            expected[slot] = Some(e);
        }
        let reply = trace.time("service.proto.reply", id, Some(run), || {
            proto::result_line(&format!("q{}", s.seq), false, black_box(&results), 1.0)
        });
        black_box(reply);
    }
    Ok(run)
}

fn mean_us(trace: &Trace, name: &str) -> f64 {
    match trace.count(name) {
        0 => 0.0,
        n => trace.total(name) / n as f64 * 1e6,
    }
}

pub fn run(
    cfg: &Config,
    kind: Kind,
    seed: u64,
    seconds: f64,
    bin: &Path,
    dir: &Path,
    trace: Option<&mut Trace>,
) -> Result<Outcome, String> {
    let s = &cfg.serve;
    let ppr = s.pairs_per_request;
    let mut load = Load {
        kind,
        seed,
        ppr,
        hot: s.hot_requests,
        pool: Vec::new(),
        next: 0,
    };
    let sample_n = s.sample_pairs.div_ceil(ppr) * ppr;
    load.ensure(sample_n / ppr - 1);
    if kind == Kind::Hot {
        load.ensure(s.hot_requests - 1);
    }
    let pool = &load.pool;
    let mut expected: Vec<Option<Expected>> = vec![None; pool.len()];
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), cfg.band);

    // The sample: the workload's leading pairs as one fault-free
    // `align_pairs` batch in this process, on the daemon's topology. The
    // daemon reports no simulated time, so this batch gives `sim_dpu_s`,
    // the `pim_sim.*` and dispatch figures and the L0 rate on this
    // workload's pairs.
    let sample_t0 = Instant::now();
    for (slot, p) in expected[..sample_n].iter_mut().zip(pool) {
        *slot = Some(oracle_one(&aligner, (&p.0, &p.1)));
    }
    let sample_align_s = sample_t0.elapsed().as_secs_f64();
    let mut scfg = ServerConfig::with_ranks(1);
    scfg.dpus_per_rank = s.dpus;
    let mut server = PimServer::new(scfg);
    let mut dcfg = DispatchConfig::new(NwKernel::paper_default(), kernel_params(cfg.band));
    dcfg.sim_threads = 1;
    let d0 = Instant::now();
    let (sample_report, sample_res) = align_pairs(&mut server, &dcfg, &pool[..sample_n])
        .map_err(|e| format!("sample align_pairs failed: {e}"))?;
    let sample_dispatch_s = d0.elapsed().as_secs_f64();
    let mut wrong = sample_res
        .iter()
        .zip(&expected)
        .filter(|(r, e)| !e.as_ref().is_some_and(|e| e.matches_result(r)))
        .count() as u64;
    if kind == Kind::Hot {
        for (slot, e) in expected[sample_n..]
            .iter_mut()
            .zip(oracle(&pool[sample_n..], cfg.band))
        {
            *slot = Some(e);
        }
    }

    // Set-up: fresh daemons, each timed from spawn to its first answer.
    // The first one serves the run; the others start and drain between
    // the rounds of timed phases, so that set-up is sampled across the run.
    let warm = warmup_pair(seed, SyntheticPreset::S1000);
    let warm_want = oracle_one(&aligner, (&warm.0, &warm.1));
    let flags = daemon_flags(cfg, kind, seed);
    let mut setups = Vec::with_capacity(cfg.setup_repeats);
    let (mut d, t) = start_timed(bin, dir, "d0", &flags, &warm, &warm_want)?;
    setups.push(t);
    let mut untimed = Vec::new();
    if kind == Kind::Hot {
        // Untimed warm phase: every hot request once, so that every request
        // of the timed phases is a cache hit.
        untimed.push(burst(&mut d, &mut load, s.hot_requests)?);
    }

    let rate = match kind {
        Kind::Unique => s.open_rate_unique,
        Kind::Hot => s.open_rate_hot,
        Kind::Faulty => s.open_rate_faulty,
    };
    // The timed phases alternate in `slices` rounds, so that each metric
    // samples the whole run rather than one stretch of it.
    let slices = s.slices;
    let closed_span = seconds * s.closed_share;
    let open_span = seconds - closed_span;
    let (mut closed, mut open) = (Vec::with_capacity(slices), Vec::with_capacity(slices));
    let probes = cfg.setup_repeats - 1;
    for k in 0..slices {
        for p in probes * k / slices..probes * (k + 1) / slices {
            let tag = format!("p{p}");
            let (probe, t) = start_timed(bin, dir, &tag, &flags, &warm, &warm_want)?;
            setups.push(t);
            probe.drain()?;
        }
        closed.push(closed_phase(
            &mut d,
            &mut load,
            s.closed_window,
            closed_span / slices as f64,
        )?);
        open.push(open_phase(
            &mut d,
            &mut load,
            rate,
            open_span / slices as f64,
            seed ^ ((k as u64) << 32),
        )?);
    }
    let tracing = trace.is_some();
    let mut traced = None;
    if tracing {
        let (before, _) = d.stats()?;
        let tc = closed_phase(&mut d, &mut load, s.closed_window, closed_span)?;
        let to = open_phase(&mut d, &mut load, rate, open_span, !seed)?;
        let (after, _) = d.stats()?;
        let mut pings = Vec::with_capacity(s.pings);
        for _ in 0..s.pings {
            pings.push(d.stats()?.1.as_secs_f64() * 1e3);
        }
        traced = Some((tc, to, before, after, median(&pings)));
    }
    let rss = peak_rss_mb(Some(d.pid()))?;
    let state_dir = d.state_dir.clone();
    let report = d.drain()?;
    let wal_bytes =
        file_len(&state_dir.join("cache.wal")) + file_len(&state_dir.join("cache.snap"));
    let journal_bytes = file_len(&state_dir.join("requests.journal"));
    expected.resize(load.pool.len(), None);
    let pool = &load.pool;

    // In a traced run the traced closed phase is replayed request by
    // request; its L0 spans are that phase's oracle.
    let mut replay = None;
    if let (Some(trace), Some((tc, ..))) = (trace, traced.as_ref()) {
        let mut cache = ResultCache::new(4 * pool.len().max(1));
        if kind == Kind::Hot {
            let scheme = ScoringScheme::default();
            for ((a, b), e) in pool.iter().zip(&expected) {
                let e = e.as_ref().expect("hot oracle computed up front");
                let key = job_key_seqs(a, b, &scheme, cfg.band, false);
                let packed = (a.pack(), b.pack());
                trace.time("pim_host.cache.insert", 0, None, || {
                    cache.insert_audited(key, &packed, &e.result, &scheme, cfg.band, false)
                });
            }
        }
        let run = replay_path(trace, tc, &load, &mut cache, &mut expected, cfg.band)?;
        replay = Some((trace, run));
    }

    // Oracle for every other pair sent, outside the timed phases.
    let mut phases: Vec<&Phase> = closed.iter().chain(&open).collect();
    if let Some((tc, to, ..)) = &traced {
        phases.extend([tc, to]);
    }
    let mut todo: Vec<usize> = phases
        .iter()
        .flat_map(|p| p.sent.iter().map(|x| x.chunk))
        .flat_map(|c| c * ppr..(c + 1) * ppr)
        .filter(|&i| expected[i].is_none())
        .collect();
    todo.sort_unstable();
    todo.dedup();
    let pairs: Vec<Pair> = todo.iter().map(|&i| pool[i].clone()).collect();
    for (&i, e) in todo.iter().zip(oracle(&pairs, cfg.band)) {
        expected[i] = Some(e);
    }

    let limit = cfg.latency_limit_ms;
    for p in &untimed {
        wrong += check(p, &load, &expected, limit, false)?
            .iter()
            .filter(|c| c.wrong || c.recv.is_none())
            .count() as u64;
    }
    let cc = closed
        .iter()
        .map(|p| check(p, &load, &expected, limit, false))
        .collect::<Result<Vec<_>, _>>()?;
    let oc = open
        .iter()
        .map(|p| check(p, &load, &expected, limit, true))
        .collect::<Result<Vec<_>, _>>()?;
    let timed: Vec<&Checked> = cc.iter().chain(&oc).flatten().collect();
    let mut attempted = timed.len() as u64;
    let mut ok = timed.iter().filter(|c| c.ok).count() as u64;
    wrong += timed.iter().filter(|c| c.wrong).count() as u64;
    let traced_checks = match &traced {
        Some((tc, to, ..)) => Some((
            check(tc, &load, &expected, limit, false)?,
            check(to, &load, &expected, limit, true)?,
        )),
        None => None,
    };
    if let Some((tcc, toc)) = &traced_checks {
        attempted += (tcc.len() + toc.len()) as u64;
        ok += tcc.iter().chain(toc).filter(|c| c.ok).count() as u64;
        wrong += tcc.iter().chain(toc).filter(|c| c.wrong).count() as u64;
    }
    // Open-loop latency, timed from when each request was due, pooled over
    // the open-loop phases.
    let latency: Vec<f64> = open
        .iter()
        .zip(&oc)
        .flat_map(|(p, c)| p.sent.iter().zip(c))
        .filter_map(|(s, c)| c.recv.map(|at| (at - s.due).as_secs_f64() * 1e3))
        .collect();
    let late: Vec<f64> = open
        .iter()
        .flat_map(|p| &p.sent)
        .map(|s| (s.sent - s.due).as_secs_f64() * 1e3)
        .collect();
    let closed_checked: Vec<(&Phase, &[Checked])> =
        closed.iter().zip(cc.iter().map(Vec::as_slice)).collect();
    let pairs_per_s = closed_rate(&closed_checked, ppr);
    let timed_ok = timed.iter().filter(|c| c.ok).count();
    let mut out = Outcome {
        attempted,
        failed: attempted - ok,
        wrong,
        e2e: vec![
            ("setup_s", median(&setups)),
            ("pairs_per_s", pairs_per_s),
            ("ok_share", timed_ok as f64 / timed.len() as f64),
            ("peak_rss_mb", rss),
            ("sim_dpu_s", sample_report.total_seconds()),
        ],
        layers: Vec::new(),
    };
    let (Some((trace, run)), Some((tc, _, before, after, ping_ms)), Some((tcc, _))) =
        (replay, &traced, &traced_checks)
    else {
        return Ok(out);
    };

    let lookups = cache_delta(before, after, "lookups")?;
    let retried = field(&report, "fault.retried_jobs")?;
    let engine_pairs = field(&report, "pairs_completed")? - field(&report, "pairs_from_cache")?;
    let cells: u64 = expected[..sample_n].iter().flatten().map(|e| e.cells).sum();
    let pipe = sample_report.pipeline.clone().unwrap_or_default();
    let traced_pairs = tcc.iter().filter(|c| c.ok).count() * ppr;
    let overhead = tc.wall() - traced_pairs as f64 / pairs_per_s;
    let residual = trace.self_total("run");
    let run_wall = trace.secs(run);
    out.layers = vec![
        ("nw_core.cells", cells as f64),
        ("nw_core.align_s", trace.total("nw_core.align")),
        ("nw_core.cells_per_s", cells as f64 / sample_align_s),
        ("nw_core.jobkey_us", mean_us(trace, "nw_core.jobkey")),
        (
            "pim_sim.instructions",
            sample_report.stats.total.instructions as f64,
        ),
        (
            "pim_sim.dma_bytes",
            (sample_report.stats.total.dma_read_bytes + sample_report.stats.total.dma_write_bytes)
                as f64,
        ),
        ("pim_sim.dpu_s", sample_report.dpu_seconds),
        ("pim_sim.transfer_s", sample_report.transfer_seconds),
        (
            "pim_sim.pipeline_utilization",
            sample_report.pipeline_utilization(),
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
        ("pim_host.dispatch_s", sample_dispatch_s),
        (
            "pim_host.overhead_share",
            1.0 - sample_align_s / sample_dispatch_s,
        ),
        ("pim_host.recovery.retried_jobs", retried),
        (
            "pim_host.recovery.cpu_fallbacks",
            field(&report, "fault.cpu_fallbacks")?,
        ),
        (
            "pim_host.recovery.audit_failures",
            field(&report, "fault.audit_failures")?,
        ),
        (
            "pim_host.recovery.useful_share",
            engine_pairs / (engine_pairs + retried),
        ),
        (
            "pim_host.cache.hit_rate",
            if lookups > 0.0 {
                cache_delta(before, after, "hits")? / lookups
            } else {
                0.0
            },
        ),
        (
            "pim_host.cache.inserts",
            cache_delta(before, after, "inserts")?,
        ),
        (
            "pim_host.cache.evictions",
            cache_delta(before, after, "evictions")?,
        ),
        (
            "pim_host.cache.lookup_us",
            mean_us(trace, "pim_host.cache.lookup"),
        ),
        (
            "pim_host.cache.insert_us",
            mean_us(trace, "pim_host.cache.insert"),
        ),
        (
            "pim_host.wal.appends",
            field(&report, "durability.wal_appends")?,
        ),
        ("pim_host.wal.bytes", wal_bytes),
        (
            "service.journal.appends",
            field(&report, "durability.journal_appends")?,
        ),
        ("service.journal.bytes", journal_bytes),
        (
            "service.proto.parse_us",
            mean_us(trace, "service.proto.parse"),
        ),
        (
            "service.proto.reply_us",
            mean_us(trace, "service.proto.reply"),
        ),
        ("service.ping_ms", *ping_ms),
        (
            "service.pim_utilization",
            field(&report, "pim_utilization")?,
        ),
        (
            "service.max_queue_depth",
            field(&report, "max_queue_depth")?,
        ),
        ("client.latency_p50_ms", percentile(&latency, 50.0)),
        ("client.latency_p90_ms", percentile(&latency, 90.0)),
        ("client.late_p90_ms", percentile(&late, 90.0)),
        ("client.requests", timed.len() as f64),
        ("trace.residual_s", residual),
        ("trace.residual_share", residual / run_wall),
        ("trace.overhead_s", overhead),
        ("trace.overhead_share", overhead / tc.wall()),
    ];
    Ok(out)
}
