//! The repository benchmark. One command runs one workload for one seed:
//!
//! ```text
//! python3 perfbench/run.py --workload align-long|serve-unique|serve-hot|serve-faulty \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` builds the `upmem-nw` daemon and this program, then runs this
//! program with `--daemon <path>`. It generates the workload's inputs from
//! the seed, drives the system through its public entry points, checks
//! every answer against the `nw_core` oracle, and prints one JSON line:
//! with `--trace 0` the end-to-end metrics of `BENCHMARK.json`, with
//! `--trace 1` its per-layer metrics from a separate traced run. A wrong
//! answer makes it exit nonzero. `--selftest` runs every workload at smoke
//! size and checks the benchmark's own invariants.

mod align_long;
mod common;
mod config;
mod daemon;
mod replay;
mod selftest;
mod serve;
mod stats;
mod trace;

use common::{fmt_num, Outcome};
use config::Config;
use dpu_kernel::{CellCosts, NwKernel};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Trace;
use upmem_nw_service::json::{escape, Json};

pub const WORKLOADS: [&str; 4] = ["align-long", "serve-unique", "serve-hot", "serve-faulty"];

/// Where runs keep sockets, daemon state and traces (inside the checkout).
const RUN_DIR: &str = ".bench_run";

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = match key {
                "smoke" | "selftest" | "setup-probe" => "1".to_string(),
                _ => it.next().ok_or_else(|| format!("--{key} needs a value"))?,
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args { flags })
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.flags.get(k).map(String::as_str)
    }

    fn need(&self, k: &str) -> Result<&str, String> {
        self.get(k).ok_or_else(|| format!("missing --{k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.need(k)?.parse().map_err(|_| format!("bad --{k}"))
    }
}

/// The metric names and units `BENCHMARK.json` declares.
pub fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = Json::parse(&text)?;
    v.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!(
                    "BENCHMARK.json {section} entry without name or unit"
                )),
            }
        })
        .collect()
}

fn run_workload(args: &Args) -> Result<(Outcome, Vec<(String, String)>), String> {
    let workload = args.need("workload")?;
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let tracing = match args.need("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let want = declared(if tracing { "per_layer" } else { "end_to_end" })?;
    let cfg = Config::load(args.need("config")?, args.get("smoke").is_some())?;
    let mut trace = tracing.then(Trace::new);
    let mut calibrate_s = 0.0;
    if let Some(t) = trace.as_mut() {
        // The first cost lookup in a fresh process runs the one-time
        // calibration every process pays.
        let t0 = Instant::now();
        std::hint::black_box(CellCosts::for_variant(NwKernel::paper_default().variant));
        calibrate_s = t0.elapsed().as_secs_f64();
        t.record("dpu_kernel.calibrate", 0, None, t0, Instant::now());
    }
    let dir = PathBuf::from(RUN_DIR).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = match workload {
        "align-long" => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut probe = Command::new(exe);
            probe.args(["--setup-probe", "--seed", &seed.to_string()]);
            probe.args(["--config", args.need("config")?]);
            if args.get("smoke").is_some() {
                probe.arg("--smoke");
            }
            align_long::run(&cfg, seed, seconds, &mut probe, trace.as_mut())
        }
        w => {
            let kind = match w {
                "serve-unique" => serve::Kind::Unique,
                "serve-hot" => serve::Kind::Hot,
                _ => serve::Kind::Faulty,
            };
            serve::run(
                &cfg,
                kind,
                seed,
                seconds,
                Path::new(args.need("daemon")?),
                &dir,
                trace.as_mut(),
            )
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = result?;
    if let Some(t) = &trace {
        out.layers.push(("dpu_kernel.calibrate_s", calibrate_s));
        let path = PathBuf::from(RUN_DIR).join(format!("trace-{workload}-{seed}.ndjson"));
        t.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((out, want))
}

fn result_line(out: &Outcome, want: &[(String, String)], tracing: bool) -> Result<String, String> {
    let have = if tracing { &out.layers } else { &out.e2e };
    let mut metrics = Vec::with_capacity(want.len());
    for (name, unit) in want {
        let v = have
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            fmt_num(v),
            escape(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = if args.get("setup-probe").is_some() {
        let seed = args.num("seed");
        let cfg = args
            .need("config")
            .and_then(|c| Config::load(c, args.get("smoke").is_some()));
        match (seed, cfg) {
            (Ok(seed), Ok(cfg)) => align_long::setup_probe(&cfg, seed).map(|()| true),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    } else if args.get("selftest").is_some() {
        selftest::run(args.need("config"), args.need("daemon")).map(|()| true)
    } else {
        run_workload(&args).and_then(|(out, want)| {
            let line = result_line(&out, &want, args.get("trace") == Some("1"))?;
            println!("{line}");
            if out.wrong > 0 {
                eprintln!("perfbench: {} answers differed from the oracle", out.wrong);
            }
            Ok(out.wrong == 0)
        })
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
