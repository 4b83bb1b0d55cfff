//! End-to-end kill-and-resume determinism for the journaled studies
//! (`repro faultsim` and `repro optimize`).
//!
//! The resumability contract: a journaled run that is SIGKILLed
//! mid-campaign and then resumed with `--resume` must print stdout
//! byte-identical to an uninterrupted run of the same command. The
//! journal only changes *where* results come from (replay vs
//! recompute), never *what* is reported.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SCALE: &str = "2400";
const SEED: &str = "7";

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spp-resume-test-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Runs `args` uninterrupted, then journaled and SIGKILLed as soon as
/// the journal shows progress, then resumed; asserts the resumed
/// stdout is byte-identical to the uninterrupted run's and returns the
/// resumed run's stderr.
fn kill_and_resume(args: &[&str], tag: &str) -> String {
    // Uninterrupted reference: no journal at all.
    let reference = repro().args(args).output().expect("reference run");
    assert!(
        reference.status.success(),
        "reference must pass: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Journaled run, killed as soon as the manifest shows progress.
    let journal = tmp(tag);
    let mut child = repro()
        .args(args)
        .arg("--journal")
        .arg(&journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn journaled run");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished = false;
    loop {
        let progressed = std::fs::metadata(&journal)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        if progressed {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            finished = true;
            break;
        }
        assert!(Instant::now() < deadline, "journal never made progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    if !finished {
        // SIGKILL: no destructors, no flush — the harshest interrupt,
        // possibly tearing the line being appended right now.
        child.kill().expect("kill journaled run");
        let _ = child.wait();
    }

    // Resume against the interrupted (possibly torn) manifest.
    let resumed = repro()
        .args(args)
        .arg("--journal")
        .arg(&journal)
        .arg("--resume")
        .output()
        .expect("resumed run");
    assert!(
        resumed.status.success(),
        "resumed run must pass: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed stdout must be byte-identical to the uninterrupted run"
    );
    // Replay diagnostics live on stderr only, keeping stdout pure.
    let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
    assert!(
        stderr.contains("cells replayed"),
        "resume must report replayed cells on stderr: {stderr}"
    );
    std::fs::remove_file(&journal).expect("cleanup");
    stderr
}

#[test]
fn killed_then_resumed_run_matches_uninterrupted_stdout() {
    kill_and_resume(
        &["faultsim", "--scale", SCALE, "--seed", SEED, "--jobs", "2"],
        "kill-faultsim",
    );
}

#[test]
fn killed_optimize_run_keeps_the_cells_it_finished() {
    // Seven cells on one worker, each recorded as it finishes: a kill
    // after the first lands leaves the rest to recompute. A study that
    // recorded its cells only at the end would replay all seven.
    let stderr = kill_and_resume(
        &[
            "optimize", "LL", "logpsf", "--scale", "200", "--seed", SEED, "--jobs", "1",
        ],
        "kill-optimize",
    );
    assert!(
        !stderr.contains(" 7 cells replayed"),
        "the kill must land before the last cell is recorded: {stderr}"
    );
}

#[test]
fn second_resume_replays_every_cell_byte_identically() {
    // A completed journal resumed again: everything replays, stdout is
    // still byte-identical, and the journal grows by nothing.
    let journal = tmp("full");
    let first = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "1",
            "--journal",
        ])
        .arg(&journal)
        .output()
        .expect("first journaled run");
    assert!(first.status.success());
    let len_after_first = std::fs::metadata(&journal).expect("journal exists").len();

    let second = repro()
        .args([
            "faultsim",
            "--scale",
            SCALE,
            "--seed",
            SEED,
            "--jobs",
            "4",
            "--journal",
        ])
        .arg(&journal)
        .arg("--resume")
        .output()
        .expect("second run");
    assert!(second.status.success());
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "full replay at a different job count must not change stdout"
    );
    assert_eq!(
        std::fs::metadata(&journal).expect("journal exists").len(),
        len_after_first,
        "a fully replayed run must append nothing"
    );
    std::fs::remove_file(&journal).expect("cleanup");
}
