//! The unified study façade behind every `repro` study command.
//!
//! Every `repro` study (`kv`, `litmus`, `multicore`, `faultsim`,
//! `profile`, `optimize`, `crashfuzz`, `soak`) shares the same
//! invocation shape: open a result journal under the resume
//! discipline (the journaled ones; `profile` and `crashfuzz` take no
//! journal), run the study under a timed stage, surface corrupt
//! journal entries, report how many cells replayed, print the text
//! report and the one-line JSON document, and turn the report's
//! verdict into an exit status. That plumbing lives here, once:
//!
//! * [`StudyCli`] carries the shared `--journal`/`--resume` flag state
//!   and opens the journal under the discipline the CLI documents;
//! * [`StudyRunner`] owns the opened journal and the stage label and
//!   drives one study end to end via [`StudyRunner::run`];
//! * [`StudyReport`] is the small contract a study's report must meet
//!   (`ok` / `replayed` / `render_text` / `render_json`).
//!
//! The runner hands the journal to the study, and every journaled
//! study runs its cells on [`crate::Supervisor::run_cells`], which
//! replays and records them; the runner then reports what the journal
//! saw (corrupt lines, undecodable payloads, failed appends).
//!
//! Stage lines count what ran: [`staged`] reads the
//! [`Harness::replays`] counter around the stage, so a stage that
//! replays nothing through the harness reports wall time alone. CI
//! denies local copies of the replay-report and journal-open plumbing
//! in `repro.rs`, and any predicted sim count in the crate.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use crate::journal::Journal;
use crate::Harness;

/// A rejected or failed journal opening, typed so the CLI can map each
/// case onto its own diagnostic without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StudyError {
    /// `--resume` named a journal file that does not exist.
    ResumeMissingJournal(String),
    /// `--journal` named an existing non-empty journal without
    /// `--resume` (mixing two campaigns in one manifest is always a
    /// mistake; replaying one must be explicit).
    JournalNeedsResume(String),
    /// The journal could not be opened (the wrapped
    /// [`crate::JournalError`] rendering).
    Journal(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::ResumeMissingJournal(p) => {
                write!(f, "--resume: journal {p:?} does not exist")
            }
            StudyError::JournalNeedsResume(p) => {
                write!(
                    f,
                    "journal {p:?} already has entries; pass --resume to replay it or pick a fresh path"
                )
            }
            StudyError::Journal(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for StudyError {}

/// Opens the journal at `path` under the CLI's resume discipline:
/// resuming requires the file to exist, and starting fresh requires it
/// to be absent or empty — an existing manifest is never silently
/// appended to and never silently ignored.
pub fn open_journal(path: &Path, resume: bool) -> Result<Journal, StudyError> {
    let display = path.display().to_string();
    let has_entries = std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false);
    if resume && !path.exists() {
        return Err(StudyError::ResumeMissingJournal(display));
    }
    if !resume && has_entries {
        return Err(StudyError::JournalNeedsResume(display));
    }
    Journal::open(path).map_err(|e| StudyError::Journal(e.to_string()))
}

/// The shared journal flag state of one `repro` invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StudyCli {
    /// `--journal PATH`, when given.
    pub journal: Option<String>,
    /// `--resume`.
    pub resume: bool,
}

impl StudyCli {
    /// Opens the journal named by `--journal` (if any) under the resume
    /// discipline. `None` means the command runs unjournaled.
    pub fn open(&self) -> Result<Option<Journal>, StudyError> {
        match &self.journal {
            Some(p) => Ok(Some(open_journal(Path::new(p), self.resume)?)),
            None => Ok(None),
        }
    }
}

/// What a journaled study's report must provide for the runner to
/// drive it: a verdict, a replay count, and the two renderings.
pub trait StudyReport {
    /// `true` when every cell met its oracle — the exit-status verdict.
    fn ok(&self) -> bool;
    /// How many cells were replayed from the journal instead of
    /// recomputed.
    fn replayed(&self) -> usize;
    /// The human-readable tables.
    fn render_text(&self) -> String;
    /// The one-line JSON document.
    fn render_json(&self) -> String;
}

macro_rules! impl_study_report {
    ($($ty:ty => |$r:ident| $replayed:expr),+ $(,)?) => {$(
        impl StudyReport for $ty {
            fn ok(&self) -> bool {
                <$ty>::ok(self)
            }
            fn replayed(&self) -> usize {
                let $r = self;
                $replayed
            }
            fn render_text(&self) -> String {
                <$ty>::render_text(self)
            }
            fn render_json(&self) -> String {
                <$ty>::render_json(self)
            }
        }
    )+};
}

// Crashfuzz and profile are never journaled; a soak replays faultsim
// cells.
impl_study_report!(
    crate::faultsim::FaultReport => |r| r.replayed,
    crate::kv::KvReport => |r| r.replayed,
    crate::litmus::LitmusReport => |r| r.replayed,
    crate::multicore::MulticoreReport => |r| r.replayed,
    crate::optimize::OptimizeReport => |r| r.replayed,
    crate::crashfuzz::FuzzReport => |_r| 0,
    crate::profile::ProfileReport => |_r| 0,
    crate::soak::SoakReport => |r| r.rows.iter().map(|row| row.replayed).sum(),
);

/// Runs one evaluation stage, reporting on stderr the simulator
/// replays it issued through `h` (counted by [`Harness::replays`]), its
/// wall time and its replay rate. A stage that replays nothing through
/// the harness (a study that drives its own simulators) reports wall
/// time alone. Stdout
/// stays byte-identical across `--jobs`.
pub fn staged<T>(h: &Harness, label: &str, f: impl FnOnce() -> T) -> T {
    let before = h.replays();
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    match h.replays() - before {
        0 => eprintln!("# {label}: {dt:.2}s"),
        sims => eprintln!(
            "# {label}: {sims} sims in {dt:.2}s ({:.1} sims/s)",
            sims as f64 / dt.max(1e-9)
        ),
    }
    out
}

/// One study invocation: the stage label (for the stderr line, see
/// [`staged`]) and the opened journal.
#[derive(Debug)]
pub struct StudyRunner {
    label: &'static str,
    journal: Option<Journal>,
}

impl StudyRunner {
    /// Prepares a runner: opens the journal named by `cli` (if any)
    /// under the resume discipline.
    pub fn new(label: &'static str, cli: &StudyCli) -> Result<Self, StudyError> {
        Ok(StudyRunner {
            label,
            journal: cli.open()?,
        })
    }

    /// Surfaces every corrupt or undecodable journal entry (each was
    /// recomputed rather than replayed) and every failed append on
    /// stderr.
    fn report_corrupt(&self) {
        if let Some(j) = &self.journal {
            for e in j.corrupt() {
                eprintln!("repro: journal: {e}");
            }
        }
    }

    /// Drives one study end to end: stage `f` on `h` (handing it the
    /// journal), surface corrupt entries and the replay count on
    /// stderr, print the text report and the JSON line on stdout, and
    /// return the report's verdict for the exit status.
    pub fn run<R: StudyReport>(&self, h: &Harness, f: impl FnOnce(Option<&Journal>) -> R) -> bool {
        let rep = staged(h, self.label, || f(self.journal.as_ref()));
        self.report_corrupt();
        if let Some(j) = &self.journal {
            eprintln!(
                "# journal {}: {} cells replayed",
                j.path().display(),
                rep.replayed()
            );
        }
        print!("{}", rep.render_text());
        println!("{}", rep.render_json());
        rep.ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    struct FakeReport {
        ok: bool,
    }

    impl StudyReport for FakeReport {
        fn ok(&self) -> bool {
            self.ok
        }
        fn replayed(&self) -> usize {
            0
        }
        fn render_text(&self) -> String {
            String::new()
        }
        fn render_json(&self) -> String {
            "{}".to_string()
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spp-study-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn open_journal_enforces_the_resume_discipline() {
        let p = temp_path("discipline");
        // Resuming a journal that does not exist is a typed error.
        assert!(matches!(
            open_journal(&p, true).unwrap_err(),
            StudyError::ResumeMissingJournal(_)
        ));
        // A fresh run against a fresh path opens (and creates) it.
        open_journal(&p, false).unwrap();
        // A fresh run against an existing non-empty journal must not
        // silently mix campaigns.
        std::fs::write(&p, "x\n").unwrap();
        assert!(matches!(
            open_journal(&p, false).unwrap_err(),
            StudyError::JournalNeedsResume(_)
        ));
        // Resuming it is fine (the bogus line surfaces via corrupt()).
        let j = open_journal(&p, true).unwrap();
        assert_eq!(j.corrupt().len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn study_cli_opens_nothing_without_a_journal_flag() {
        let cli = StudyCli::default();
        assert!(cli.open().unwrap().is_none());
        let runner = StudyRunner::new("study-test", &cli).unwrap();
        let h = Harness::default();
        assert!(runner.run(&h, |j| FakeReport { ok: j.is_none() }));
    }

    #[test]
    fn runner_returns_the_report_verdict() {
        let cli = StudyCli::default();
        let runner = StudyRunner::new("study-test", &cli).unwrap();
        let h = Harness::default();
        assert!(runner.run(&h, |_| FakeReport { ok: true }));
        assert!(!runner.run(&h, |_| FakeReport { ok: false }));
    }

    #[test]
    fn runner_hands_the_opened_journal_to_the_study() {
        let p = temp_path("handoff");
        let cli = StudyCli {
            journal: Some(p.display().to_string()),
            resume: false,
        };
        let runner = StudyRunner::new("study-test", &cli).unwrap();
        let h = Harness::default();
        let saw_journal = runner.run(&h, |j| FakeReport { ok: j.is_some() });
        assert!(saw_journal, "the study closure must receive the journal");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn every_error_renders_as_one_line() {
        for e in [
            StudyError::ResumeMissingJournal("/tmp/x.jsonl".into()),
            StudyError::JournalNeedsResume("/tmp/x.jsonl".into()),
            StudyError::Journal("journal \"x\": denied".into()),
        ] {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }
}
