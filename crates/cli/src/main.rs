//! `upmem-nw` — align DNA on a simulated UPMEM PiM server.
//!
//! Run it with no arguments for the usage text. That text is built from
//! [`COMMANDS`], the one table of the flags each subcommand takes; a flag
//! its subcommand's line does not list is rejected with exit status 2 and
//! the flag's name.
//!
//! `--watchdog-cycles auto` (the default) derives the per-launch cycle
//! budget from the kernels' symbolic WCET bounds; `0` turns the watchdog
//! off; any other number is an explicit budget. `align --backend` routes
//! pairs through the heterogeneous backend layer (PiM, the CPU pool, the
//! dynamic cost-model router, or the static split); `--cache N` puts a
//! content-addressed result cache of capacity N in front (implies
//! `--backend router`). `serve --cache N` sizes the daemon's persistent
//! result cache (default 4096; 0 disables). `serve --state-dir DIR` turns
//! on crash-safe durability: the result cache persists through a
//! checksummed WAL + snapshot and admitted requests are journaled, so a
//! killed daemon restarted against the same directory recovers its cache
//! and replays unanswered requests (`--cache-path`, `--compact-every`,
//! `--fsync` tune it; `--max-line-bytes` bounds per-connection request
//! buffering). `chaos --crash true` runs the kill-injection harness: it
//! spawns the daemon as a child against a durable state dir, SIGKILLs it
//! at seeded points, and asserts recovery serves bit-identical results
//! with balanced books. `bench --backend true` benchmarks the router
//! against single backends and the cache at 0/30/90% duplicates.

use std::collections::HashMap;
use std::process::ExitCode;
use upmem_nw_cli::{
    cmd_align, cmd_bench, cmd_bench_serve, cmd_chaos, cmd_chaos_crash, cmd_generate, cmd_info,
    cmd_lint, cmd_matrix, cmd_serve, install_interrupt_handler, Algo, BackendChoice, BenchOpts,
    BenchServeOpts, ChaosOpts, CliError, CrashOpts,
};
use upmem_nw_service::ServeOptions;

/// Each subcommand's synopsis, `(head, flags)`. The usage text is built
/// from this table, and a flag is accepted only when the line that applies
/// lists it. A head that carries a `--flag value` pair (`chaos --crash
/// true`) applies when that pair is given.
const COMMANDS: &[(&str, &str)] = &[
    (
        "align",
        "--a <fasta> --b <fasta> [--algo adaptive|static|wfa|exact|pim] [--band N] [--ranks N] \
         [--fifo-depth N] [--sync-dispatch true] [--sim-threads N] [--audit true] \
         [--backend pim|cpu|router|split] [--cache N] [--out file]",
    ),
    ("matrix", "--in <fasta> [--band N] [--ranks N] [--out file]"),
    (
        "generate",
        "--kind s1000|s10000|s30000|16s|pacbio --count N [--seed S] [--out file]",
    ),
    (
        "chaos",
        "[--seed S] [--pairs N] [--ranks N] [--dpus N] [--band N] [--dpu-fault-rate P] \
         [--corrupt-rate P] [--hang-faults P] [--corrupt-cigars P] \
         [--watchdog-cycles auto|0|N] [--deadline SECS] [--audit false] [--disabled N] \
         [--retries N] [--quarantine N] [--fifo-depth N] [--sync-dispatch true] \
         [--sim-threads N]",
    ),
    (
        "chaos --crash true",
        "[--seed S] [--kills N] [--requests N] [--pairs-per-request N] [--ranks N] [--dpus N] \
         [--band N] [--read-len N] [--corrupt-wal true] [--state-root dir]",
    ),
    (
        "bench",
        "[--pairs N] [--ranks N] [--dpus N] [--rounds N] [--band N] [--fifo-depth N] [--seed S] \
         [--straggler-hold-ms MS] [--smoke true] [--sim true] [--serve true] [--backend true] \
         [--pairs-per-request N] [--requests N] [--sim-threads N] [--json file]",
    ),
    (
        "serve",
        "[--socket path] [--ranks N] [--dpus N] [--band N] [--fifo-depth N] [--sim-threads N] \
         [--retries N] [--quarantine N] [--audit false] [--stall-deadline SECS] \
         [--watchdog-cycles N] [--queue-requests N] [--queue-pairs N] [--max-open N] \
         [--max-request-pairs N] [--default-deadline-ms MS] [--seed S] [--dpu-fault-rate P] \
         [--hang-faults P] [--corrupt-cigars P] [--cache N] [--state-dir dir] \
         [--cache-path dir] [--compact-every N] [--fsync true] [--max-line-bytes N] \
         [--json file]",
    ),
    ("info", "[--ranks N]"),
    ("lint", "[--verbose true] [--json true]"),
];

fn usage() -> ! {
    let mut text = String::from("usage:");
    for (head, flags) in COMMANDS {
        text.push_str(&format!("\n  upmem-nw {head} {flags}"));
    }
    eprintln!("{text}");
    std::process::exit(2)
}

/// The `--flag` names a synopsis fragment lists.
fn flag_names(text: &str) -> impl Iterator<Item = &str> {
    text.split_whitespace()
        .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
}

/// The synopsis line that applies to `command` under `flags`: of the lines
/// for that command whose head pairs are all given, the most specific.
fn synopsis(
    command: &str,
    flags: &HashMap<String, String>,
) -> Option<&'static (&'static str, &'static str)> {
    COMMANDS
        .iter()
        .filter(|(head, _)| {
            let words: Vec<&str> = head.split_whitespace().collect();
            words[0] == command
                && words[1..].chunks(2).all(|pair| {
                    let given = pair[0].strip_prefix("--").and_then(|k| flags.get(k));
                    given.map(String::as_str) == pair.get(1).copied()
                })
        })
        .max_by_key(|(head, _)| head.len())
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_else(|| usage());
            flags.insert(key.to_string(), value);
        } else {
            usage();
        }
    }
    flags
}

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let flags = parse_flags(rest);
    let Some((head, listed)) = synopsis(command, &flags) else {
        usage()
    };
    let unlisted = flags.keys().filter(|k| {
        !flag_names(head)
            .chain(flag_names(listed))
            .any(|f| f == k.as_str())
    });
    if let Some(key) = unlisted.min() {
        eprintln!("error: `upmem-nw {head}` does not take --{key}");
        std::process::exit(2)
    }
    // One-shot runs exit with a partial report on Ctrl-C instead of dying
    // mid-write; the engines poll the flag at their planning points.
    if matches!(
        command.as_str(),
        "align" | "matrix" | "chaos" | "bench" | "serve"
    ) {
        install_interrupt_handler();
    }
    let get = |k: &str| flags.get(k).cloned();
    let band: usize = get("band")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(128);
    let ranks: usize = get("ranks")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(4);
    let fifo_depth: usize = get("fifo-depth")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(2);
    let sync_dispatch = get("sync-dispatch").is_some_and(|v| v == "true");
    let sim_threads: usize = get("sim-threads")
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(0);

    let output = match command.as_str() {
        "align" => {
            let a = get("a").unwrap_or_else(|| usage());
            let b = get("b").unwrap_or_else(|| usage());
            let algo = get("algo")
                .map(|v| Algo::parse(&v).unwrap_or_else(|| usage()))
                .unwrap_or(Algo::Adaptive);
            let cache_capacity: usize = get("cache")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(0);
            // --cache without --backend implies the router (the cache sits
            // in front of the routed path only).
            let backend = get("backend")
                .map(|v| BackendChoice::parse(&v).unwrap_or_else(|| usage()))
                .or((cache_capacity > 0).then_some(BackendChoice::Router));
            cmd_align(
                &a,
                &b,
                algo,
                band,
                ranks,
                fifo_depth,
                sync_dispatch,
                sim_threads,
                get("audit").is_some_and(|v| v == "true"),
                backend,
                cache_capacity,
            )?
        }
        "matrix" => {
            let input = get("in").unwrap_or_else(|| usage());
            cmd_matrix(&input, band, ranks)?
        }
        "generate" => {
            let kind = get("kind").unwrap_or_else(|| usage());
            let count: usize = get("count")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or_else(|| usage());
            let seed: u64 = get("seed")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(42);
            cmd_generate(&kind, count, seed)?
        }
        "chaos" if get("crash").is_some_and(|v| v == "true") => {
            let defaults = CrashOpts::default();
            let uint = |k: &str, d: usize| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let opts = CrashOpts {
                seed: get("seed")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.seed),
                kills: uint("kills", defaults.kills),
                requests: uint("requests", defaults.requests),
                pairs_per_request: uint("pairs-per-request", defaults.pairs_per_request),
                ranks: uint("ranks", defaults.ranks),
                dpus: uint("dpus", defaults.dpus),
                band: uint("band", defaults.band),
                read_len: uint("read-len", defaults.read_len),
                state_root: get("state-root").map(std::path::PathBuf::from),
                corrupt_wal: get("corrupt-wal").is_some_and(|v| v == "true"),
                bin: None,
            };
            cmd_chaos_crash(&opts)?
        }
        "chaos" => {
            let defaults = ChaosOpts::default();
            let uint = |k: &str, d: usize| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let rate = |k: &str, d: f64| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let opts = ChaosOpts {
                seed: get("seed")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.seed),
                pairs: uint("pairs", defaults.pairs),
                ranks: uint("ranks", defaults.ranks),
                dpus: uint("dpus", defaults.dpus),
                band: uint("band", defaults.band),
                dpu_fault_rate: rate("dpu-fault-rate", defaults.dpu_fault_rate),
                corrupt_rate: rate("corrupt-rate", defaults.corrupt_rate),
                hang_rate: rate("hang-faults", defaults.hang_rate),
                silent_corrupt_rate: rate("corrupt-cigars", defaults.silent_corrupt_rate),
                watchdog_cycles: match get("watchdog-cycles").as_deref() {
                    None | Some("auto") => defaults.watchdog_cycles,
                    Some(v) => Some(v.parse().unwrap_or_else(|_| usage())),
                },
                deadline_seconds: rate("deadline", defaults.deadline_seconds),
                audit: get("audit").map(|v| v == "true").unwrap_or(defaults.audit),
                disabled: uint("disabled", defaults.disabled),
                retries: uint("retries", defaults.retries),
                quarantine: uint("quarantine", defaults.quarantine),
                fifo_depth: uint("fifo-depth", defaults.fifo_depth),
                sync_dispatch: sync_dispatch || defaults.sync_dispatch,
                sim_threads,
            };
            cmd_chaos(&opts)?
        }
        "bench" if get("serve").is_some_and(|v| v == "true") => {
            let defaults = BenchServeOpts::default();
            let uint = |k: &str, d: usize| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let opts = BenchServeOpts {
                ranks: uint("ranks", defaults.ranks),
                dpus: uint("dpus", defaults.dpus),
                band: uint("band", defaults.band),
                fifo_depth: uint("fifo-depth", defaults.fifo_depth),
                sim_threads,
                seed: get("seed")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.seed),
                pairs_per_request: uint("pairs-per-request", defaults.pairs_per_request),
                requests: uint("requests", defaults.requests),
                smoke: get("smoke").is_some_and(|v| v == "true"),
                json_path: get("json"),
            };
            cmd_bench_serve(&opts)?
        }
        "serve" => {
            let defaults = ServeOptions::default();
            let uint = |k: &str, d: usize| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let rate = |k: &str, d: f64| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let mut fault = pim_sim::FaultPlan {
                seed: get("seed")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(42),
                ..pim_sim::FaultPlan::default()
            };
            fault.dpu_fault_rate = rate("dpu-fault-rate", fault.dpu_fault_rate);
            fault.hang_rate = rate("hang-faults", fault.hang_rate);
            fault.silent_corrupt_rate = rate("corrupt-cigars", fault.silent_corrupt_rate);
            let opts = ServeOptions {
                socket: get("socket")
                    .map(std::path::PathBuf::from)
                    .unwrap_or(defaults.socket),
                ranks: uint("ranks", defaults.ranks),
                dpus: uint("dpus", defaults.dpus),
                band: uint("band", defaults.band),
                fifo_depth: uint("fifo-depth", defaults.fifo_depth),
                sim_threads,
                retries: uint("retries", defaults.retries),
                quarantine: uint("quarantine", defaults.quarantine),
                audit: get("audit").map(|v| v == "true").unwrap_or(defaults.audit),
                stall_deadline_seconds: rate("stall-deadline", defaults.stall_deadline_seconds),
                watchdog_cycles: get("watchdog-cycles")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.watchdog_cycles),
                queue_requests: uint("queue-requests", defaults.queue_requests),
                queue_pairs: uint("queue-pairs", defaults.queue_pairs),
                max_open_tickets: uint("max-open", defaults.max_open_tickets),
                max_pairs_per_request: uint("max-request-pairs", defaults.max_pairs_per_request),
                default_deadline_ms: get("default-deadline-ms")
                    .map(|v| v.parse().unwrap_or_else(|_| usage())),
                fault,
                cache_capacity: uint("cache", defaults.cache_capacity),
                state_dir: get("state-dir").map(std::path::PathBuf::from),
                cache_path: get("cache-path").map(std::path::PathBuf::from),
                compact_every: uint("compact-every", defaults.compact_every),
                fsync: get("fsync").is_some_and(|v| v == "true"),
                max_line_bytes: uint("max-line-bytes", defaults.max_line_bytes),
            };
            cmd_serve(&opts, get("json").as_deref())?
        }
        "bench" => {
            let defaults = BenchOpts::default();
            let uint = |k: &str, d: usize| {
                get(k)
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(d)
            };
            let opts = BenchOpts {
                pairs: uint("pairs", defaults.pairs),
                ranks: uint("ranks", defaults.ranks),
                dpus: uint("dpus", defaults.dpus),
                rounds: uint("rounds", defaults.rounds),
                band: uint("band", defaults.band),
                fifo_depth: uint("fifo-depth", defaults.fifo_depth),
                seed: get("seed")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.seed),
                straggler_hold_ms: get("straggler-hold-ms")
                    .map(|v| v.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(defaults.straggler_hold_ms),
                smoke: get("smoke").is_some_and(|v| v == "true"),
                json_path: get("json"),
                sim_threads,
                sim: get("sim").is_some_and(|v| v == "true"),
                backend: get("backend").is_some_and(|v| v == "true"),
            };
            cmd_bench(&opts)?
        }
        "info" => cmd_info(if flags.contains_key("ranks") {
            ranks
        } else {
            40
        }),
        "lint" => cmd_lint(
            get("verbose").is_some_and(|v| v == "true"),
            get("json").is_some_and(|v| v == "true"),
        )?,
        _ => usage(),
    };
    if let Some(path) = get("out") {
        std::fs::write(path, &output)?;
        Ok(String::new())
    } else {
        Ok(output)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
