//! End-to-end kill-and-resume determinism for the journaled studies
//! (`repro faultsim` and `repro optimize`).
//!
//! The resumability contract: a journaled run that is SIGKILLed
//! mid-campaign and then resumed with `--resume` must print stdout
//! byte-identical to an uninterrupted run of the same command. The
//! journal only changes *where* results come from (replay vs
//! recompute), never *what* is reported.
//!
//! Compatibility: a journal-v1 manifest written before cells stopped
//! being retried (an `attempt` above 1, a `failed` payload carrying
//! `attempts`) still opens and verifies; its `ok` cells replay, and its
//! old-format failure records recompute through the typed bad-payload
//! path.

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

#[test]
fn an_older_journal_v1_manifest_still_verifies_and_resumes() {
    use spp_bench::json::{Fields, Record};
    use spp_bench::{Journal, JournalError, Supervisor};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A cell computing a bare number, journalled as `{"n":…}`.
    #[derive(Debug, Clone, PartialEq)]
    struct N(u64);
    impl Record for N {
        fn fields(&mut self, f: &mut Fields<'_>) {
            f.int("n", &mut self.0);
        }
    }

    // Written by hand in the format the retrying supervisor wrote: an
    // `ok` entry at attempt 1, and a `failed` entry at attempt 3 whose
    // payload carries the retry count.
    let journal = tmp("compat");
    std::fs::write(
        &journal,
        concat!(
            r#"{"schema":"specpersist/journal-v1","key":"compat/ok","attempt":1,"status":"ok","hash":"f9d75069cfc984c0","payload":"{\"n\":42}"}"#,
            "\n",
            r#"{"schema":"specpersist/journal-v1","key":"compat/failed","attempt":3,"status":"failed","hash":"811a64fdbc9368f9","payload":"{\"key\":\"compat/failed\",\"attempts\":3,\"reason\":\"panic: down\",\"snapshot\":null}"}"#,
            "\n",
        ),
    )
    .expect("write journal");
    // Both lines verify at open.
    let (entries, damage) = Journal::verify(&journal).expect("verify");
    assert_eq!((entries, damage.len()), (2, 0), "{damage:?}");
    let j = Journal::open(&journal).expect("open");
    assert!(j.corrupt().is_empty(), "{:?}", j.corrupt());

    let computed = AtomicU32::new(0);
    let outs = Supervisor::new(1, Some(&j)).run_cells(
        &["compat/ok", "compat/failed"],
        |_, k| k.to_string(),
        |_, _| {
            computed.fetch_add(1, Ordering::SeqCst);
            Ok(N(7))
        },
        |_| N(0),
    );
    // The `ok` cell replays.
    assert!(outs[0].replayed);
    assert_eq!(outs[0].result, Ok(N(42)));
    // The old failure record is a typed bad payload, and its cell
    // recomputes.
    assert!(!outs[1].replayed);
    assert_eq!(outs[1].result, Ok(N(7)));
    assert_eq!(
        computed.load(Ordering::SeqCst),
        1,
        "only the failed cell recomputes"
    );
    let errs = j.corrupt();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        matches!(&errs[0], JournalError::BadPayload { key, .. } if key == "compat/failed"),
        "{errs:?}"
    );
    drop(j);
    std::fs::remove_file(&journal).expect("cleanup");
}
