//! Flag validation of the real `upmem-nw` binary: a flag the subcommand's
//! usage line does not list exits 2 and names the flag, so a stale script
//! fails loudly instead of running with the flag ignored.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_upmem-nw"))
        .args(args)
        .output()
        .expect("spawn upmem-nw")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("--{flag}")),
        "{args:?}: error must name --{flag}: {stderr}"
    );
}

#[test]
fn align_rejects_a_flag_its_usage_does_not_list() {
    assert_rejected(
        &[
            "align",
            "--a",
            "a.fa",
            "--b",
            "b.fa",
            "--algo",
            "pim",
            "--interp-mode",
            "jit",
        ],
        "interp-mode",
    );
}

#[test]
fn flags_are_checked_per_subcommand() {
    // `--kills` belongs to `chaos --crash true` only.
    assert_rejected(&["chaos", "--kills", "3"], "kills");
    // ... and `--pairs` to plain `chaos` only.
    assert_rejected(&["chaos", "--crash", "true", "--pairs", "3"], "pairs");
    // `--out` is an align/matrix/generate flag, not a lint one.
    assert_rejected(&["lint", "--out", "x.txt"], "out");
    let ok = run(&["info", "--ranks", "2"]);
    assert!(ok.status.success(), "info --ranks is listed: {ok:?}");
}
