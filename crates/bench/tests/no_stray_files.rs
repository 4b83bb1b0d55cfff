//! `repro` writes files only where a flag points. A run must leave its
//! working directory alone, and a flag or command `repro` does not know
//! must be rejected before any work starts rather than silently
//! ignored.

use std::ffi::OsString;
use std::process::{Command, Output};

/// Runs `repro` with `args` in a fresh empty directory and returns its
/// output plus the names it left there.
fn repro_in_empty_dir(name: &str, args: &[&str]) -> (Output, Vec<OsString>) {
    let dir = std::env::temp_dir().join(format!("spp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run repro");
    let left = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("clean up");
    (out, left)
}

#[test]
fn a_profile_run_leaves_its_working_directory_empty() {
    let (out, left) = repro_in_empty_dir(
        "no-stray-profile",
        &[
            "profile", "LL", "base", "--scale", "5000", "--seed", "1", "--jobs", "1",
        ],
    );
    assert!(
        out.status.success(),
        "profile must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(left.is_empty(), "profile wrote {left:?}");
}

/// Every retired flag or command is refused as unknown: exit 1, no
/// report, and nothing left behind (in particular no journal file).
#[test]
fn rejected_invocations_exit_1_and_write_nothing() {
    for (args, diagnostic) in [
        (
            &["all", "--bench-out", "b.json"][..],
            "repro: unknown flag \"--bench-out\"",
        ),
        (
            &["faultsim", "--journal", "run.jsonl"],
            "repro: unknown flag \"--journal\"",
        ),
        (&["kv", "--resume"], "repro: unknown flag \"--resume\""),
        (
            &["faultsim", "--iters", "2"],
            "repro: unknown flag \"--iters\"",
        ),
        (&["soak"], "repro: unknown command \"soak\""),
        (
            &["journal", "check", "x.jsonl"],
            "repro: unknown command \"journal\"",
        ),
    ] {
        let (out, left) = repro_in_empty_dir("no-stray-rejected", args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(diagnostic),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}
