//! Smoke-size self-test of the benchmark: every workload in both modes,
//! checked for the invariants its figures rest on.

use crate::common::{field, path};
use crate::{declared, WORKLOADS};
use std::process::Command;
use upmem_nw_service::json::Json;

/// Run one workload at smoke size in a fresh process; return its result.
fn run_one(
    config: &str,
    daemon: &str,
    workload: &str,
    seed: u64,
    trace: u8,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args([
            "--trace",
            &trace.to_string(),
            "--smoke",
            "--config",
            config,
            "--daemon",
            daemon,
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} --trace {trace} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Json::parse(stdout.lines().last().unwrap_or_default().trim())
}

fn metric(v: &Json, name: &str) -> Result<f64, String> {
    path(v, "metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metric {name} missing"))
}

fn check(cond: bool, what: String, failures: &mut Vec<String>) {
    println!("{} {what}", if cond { "ok  " } else { "FAIL" });
    if !cond {
        failures.push(what);
    }
}

pub fn run(config: Result<&str, String>, daemon: Result<&str, String>) -> Result<(), String> {
    let (config, daemon) = (config?, daemon?);
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        for trace in [0u8, 1] {
            let want = declared(if trace == 1 {
                "per_layer"
            } else {
                "end_to_end"
            })?;
            let v = run_one(config, daemon, workload, 7, trace)?;
            let tag = format!("{workload} --trace {trace}");
            check(
                v.get("correct").and_then(Json::as_bool) == Some(true),
                format!("{tag}: correct"),
                &mut failures,
            );
            check(
                field(&v, "attempted")? >= 1.0,
                format!("{tag}: attempted >= 1"),
                &mut failures,
            );
            for (name, unit) in &want {
                let m = path(&v, "metrics").and_then(|m| m.get(name));
                let has_unit =
                    m.and_then(|m| m.get("unit")).and_then(Json::as_str) == Some(unit.as_str());
                let finite = m
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite);
                check(
                    has_unit && finite,
                    format!("{tag}: {name} emitted in {unit}"),
                    &mut failures,
                );
            }
            if trace == 0 {
                check(
                    metric(&v, "ok_share")? == 1.0,
                    format!("{tag}: ok_share is 1"),
                    &mut failures,
                );
                continue;
            }
            let hit = metric(&v, "pim_host.cache.hit_rate")?;
            match workload {
                "serve-hot" => check(
                    hit >= 0.99,
                    format!("{tag}: timed hit rate {hit} >= 0.99"),
                    &mut failures,
                ),
                "serve-unique" | "serve-faulty" => check(
                    hit == 0.0,
                    format!("{tag}: timed hit rate {hit} is 0"),
                    &mut failures,
                ),
                _ => {}
            }
            let retried = metric(&v, "pim_host.recovery.retried_jobs")?;
            let faulty = workload == "serve-faulty";
            check(
                (retried > 0.0) == faulty,
                format!("{tag}: retried_jobs {retried} above 0 only on serve-faulty"),
                &mut failures,
            );
        }
    }
    let a = metric(&run_one(config, daemon, "align-long", 11, 0)?, "sim_dpu_s")?;
    let b = metric(&run_one(config, daemon, "align-long", 11, 0)?, "sim_dpu_s")?;
    check(
        a == b,
        format!("align-long: sim_dpu_s repeats exactly ({a} vs {b})"),
        &mut failures,
    );
    if failures.is_empty() {
        println!("self-test passed");
        Ok(())
    } else {
        Err(format!("{} self-test checks failed", failures.len()))
    }
}
