//! The unified study façade behind every `repro` study command.
//!
//! Every `repro` study (`kv`, `litmus`, `multicore`, `faultsim`,
//! `profile`, `optimize`, `crashfuzz`) shares the same invocation
//! shape: run the study under a timed stage, print the text report and
//! the one-line JSON document, and turn the report's verdict into an
//! exit status. That plumbing lives here, once:
//!
//! * [`run_study`] drives one study end to end;
//! * [`StudyReport`] is the small contract a study's report must meet
//!   (`ok` / `render_text` / `render_json`).
//!
//! Stage lines count what ran: [`staged`] reads the
//! [`Harness::replays`] counter around the stage, so a stage that
//! replays nothing through the harness reports wall time alone. CI
//! denies a local copy of `staged` in `repro.rs`, and any predicted
//! sim count in the crate.

use std::time::Instant;

use crate::Harness;

/// What a study's report must provide for [`run_study`] to drive it: a
/// verdict and the two renderings.
pub trait StudyReport {
    /// `true` when every cell met its oracle — the exit-status verdict.
    fn ok(&self) -> bool;
    /// The human-readable tables.
    fn render_text(&self) -> String;
    /// The one-line JSON document.
    fn render_json(&self) -> String;
}

macro_rules! impl_study_report {
    ($($ty:ty),+ $(,)?) => {$(
        impl StudyReport for $ty {
            fn ok(&self) -> bool {
                <$ty>::ok(self)
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

impl_study_report!(
    crate::faultsim::FaultReport,
    crate::kv::KvReport,
    crate::litmus::LitmusReport,
    crate::multicore::MulticoreReport,
    crate::optimize::OptimizeReport,
    crate::crashfuzz::FuzzReport,
    crate::profile::ProfileReport,
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

/// Drives one study end to end: stage `f` on `h` under `label` (see
/// [`staged`]), print the text report and the JSON line on stdout, and
/// return the report's verdict for the exit status.
pub fn run_study<R: StudyReport>(h: &Harness, label: &str, f: impl FnOnce() -> R) -> bool {
    let rep = staged(h, label, f);
    print!("{}", rep.render_text());
    println!("{}", rep.render_json());
    rep.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeReport {
        ok: bool,
    }

    impl StudyReport for FakeReport {
        fn ok(&self) -> bool {
            self.ok
        }
        fn render_text(&self) -> String {
            String::new()
        }
        fn render_json(&self) -> String {
            "{}".to_string()
        }
    }

    #[test]
    fn run_study_returns_the_report_verdict() {
        let h = Harness::default();
        assert!(run_study(&h, "study-test", || FakeReport { ok: true }));
        assert!(!run_study(&h, "study-test", || FakeReport { ok: false }));
    }
}
