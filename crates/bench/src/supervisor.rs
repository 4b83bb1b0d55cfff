//! The supervised worker pool: journal-aware, panic-isolating
//! execution of evaluation cells over [`run_indexed`].
//!
//! [`run_indexed`] gives deterministic input-order results but lets a
//! single panicking cell take the whole matrix down with it — exactly
//! the failure mode that dominates long validation campaigns. The
//! supervisor wraps each cell:
//!
//! 1. **Replay**: if an open [`Journal`] holds a verified entry for the
//!    cell's key, the entry is decoded into the study's blank record
//!    for that cell and served without recomputation (a decode failure
//!    surfaces as a typed
//!    [`JournalError::BadPayload`](crate::journal::JournalError) and the
//!    cell recomputes — never silent reuse).
//! 2. **Isolation**: the cell runs once under `catch_unwind`; a panic
//!    is converted into a failure value, and every other cell keeps
//!    running. A cell is a pure function of its key, so a second
//!    attempt would fail the same way: there are no retries.
//! 3. **Degradation**: a cell that panics or returns a [`CellError`]
//!    becomes a per-cell [`CellFailure`] (reason + diagnostic snapshot)
//!    in the report instead of aborting the matrix; completed cells and
//!    failures are both journalled, so a resumed run replays them
//!    byte-identically.
//!
//! Every journaled study runs its cells here — faultsim, litmus, kv,
//! multicore and optimize — so replay, isolation and journal writes
//! have one implementation.
//! The supervisor takes no codec: results and failures are
//! [`Record`]s, whose one field list ([`Record::fields`]) both writes
//! the journal payload and reads it back.
//! A journal append that fails is kept with the journal's errors
//! ([`Journal::record`]) and reported once at the end of the run.
//!
//! Cells must remain pure functions of their inputs: the supervisor
//! preserves [`run_indexed`]'s input-order result contract, so final
//! stdout is byte-identical across `--jobs` and across
//! interrupted-then-resumed vs. uninterrupted runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::journal::{CellStatus, Entry, Journal};
use crate::json::{self, Fields, Record};
use crate::run_indexed;

/// A cell-level error returned by a supervised run function: what went
/// wrong, plus the machine-state snapshot when the failure carried one
/// (a [`spp_cpu::SimError`] does; a plain panic does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// One-line description of the failure.
    pub reason: String,
    /// The diagnostic snapshot as JSON ([`spp_cpu::DiagnosticSnapshot::to_json`]).
    pub snapshot: Option<String>,
}

impl CellError {
    /// An error without a snapshot (panics, decode failures).
    pub fn new(reason: impl Into<String>) -> Self {
        CellError {
            reason: reason.into(),
            snapshot: None,
        }
    }

    /// An error from a typed simulation failure, carrying its snapshot.
    pub fn from_sim(e: &spp_cpu::SimError) -> Self {
        CellError {
            reason: e.to_string(),
            snapshot: Some(e.snapshot.to_json()),
        }
    }
}

/// A cell that panicked or returned a [`CellError`]: the degraded
/// per-cell record that replaces its result in the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's journal key.
    pub key: String,
    /// The failure reason.
    pub reason: String,
    /// The diagnostic snapshot, if one was captured.
    pub snapshot: Option<String>,
}

/// The journalled payload of a `failed` entry, and the shape reports
/// embed: `{"key","reason","snapshot"}`, with a `null` snapshot when
/// none was captured.
impl Record for CellFailure {
    fn fields(&mut self, f: &mut Fields<'_>) {
        f.spec_str("key", &self.key);
        f.str("reason", &mut self.reason);
        f.nullable_raw("snapshot", &mut self.snapshot);
    }
}

/// One supervised cell's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome<R> {
    /// The cell's journal key.
    pub key: String,
    /// Served from the journal without recomputation?
    pub replayed: bool,
    /// The result, or the degraded failure record.
    pub result: Result<R, CellFailure>,
}

/// The supervised pool configuration: worker budget and an optional
/// journal for replay + recording.
#[derive(Debug, Clone, Copy)]
pub struct Supervisor<'j> {
    /// Worker threads (0 and 1 both mean serial).
    pub jobs: usize,
    /// Replay completed cells from (and record new ones into) this
    /// journal.
    pub journal: Option<&'j Journal>,
}

impl<'j> Supervisor<'j> {
    /// A supervisor replaying from (and recording into) `journal` when
    /// one is attached.
    pub fn new(jobs: usize, journal: Option<&'j Journal>) -> Self {
        Supervisor { jobs, journal }
    }

    /// Runs every item as a supervised cell, returning outcomes in
    /// input order.
    ///
    /// * `key` names the cell for the journal — it must capture
    ///   everything that determines the result.
    /// * `run` computes the cell (pure; may panic or return a typed
    ///   [`CellError`]); it runs once, and a panic or error becomes
    ///   the cell's [`CellFailure`].
    /// * `blank` gives the record a journal entry for the item decodes
    ///   into, its spec fields set from the item. The journal payload
    ///   is the result's [`Record`] encoding; a payload that does not
    ///   decode into the blank is reported to the journal as a typed
    ///   error and the cell recomputes.
    pub fn run_cells<T, R, K, F, B>(
        &self,
        items: &[T],
        key: K,
        run: F,
        blank: B,
    ) -> Vec<CellOutcome<R>>
    where
        T: Sync,
        R: Record + Send,
        K: Fn(usize, &T) -> String + Sync,
        F: Fn(usize, &T) -> Result<R, CellError> + Sync,
        B: Fn(&T) -> R + Sync,
    {
        run_indexed(self.jobs, items, |i, item| {
            let key = key(i, item);
            // Replay path: a verified journal entry short-circuits the
            // computation entirely.
            if let Some(j) = self.journal {
                if let Some(entry) = j.lookup(&key) {
                    match entry.status {
                        CellStatus::Ok => match json::decode(blank(item), &entry.payload) {
                            Some(r) => {
                                return CellOutcome {
                                    key,
                                    replayed: true,
                                    result: Ok(r),
                                }
                            }
                            None => j.report_bad_payload(&key, "result payload rejected"),
                        },
                        CellStatus::Failed => {
                            match json::decode(
                                CellFailure {
                                    key: key.clone(),
                                    ..CellFailure::default()
                                },
                                &entry.payload,
                            ) {
                                Some(f) => {
                                    return CellOutcome {
                                        key,
                                        replayed: true,
                                        result: Err(f),
                                    }
                                }
                                None => j.report_bad_payload(&key, "failure payload rejected"),
                            }
                        }
                    }
                }
            }
            // Compute path: one attempt under panic isolation.
            let result = catch_unwind(AssertUnwindSafe(|| run(i, item)))
                .unwrap_or_else(|panic| Err(CellError::new(panic_message(panic.as_ref()))))
                .map_err(|e| CellFailure {
                    key: key.clone(),
                    reason: e.reason,
                    snapshot: e.snapshot,
                });
            if let Some(j) = self.journal {
                let (status, payload) = match &result {
                    Ok(r) => (CellStatus::Ok, json::encode(r)),
                    Err(f) => (CellStatus::Failed, json::encode(f)),
                };
                j.record(&Entry {
                    key: key.clone(),
                    // A journal-v1 field; every cell runs exactly once.
                    attempt: 1,
                    status,
                    payload,
                });
            }
            CellOutcome {
                key,
                replayed: false,
                result,
            }
        })
    }
}

/// Unwraps supervised outcomes into results in input order: a failed
/// cell becomes `degrade(index, failure)`, the study's own failed-cell
/// record. Also returns how many cells were served from the journal.
pub fn settle<R>(
    outcomes: Vec<CellOutcome<R>>,
    degrade: impl Fn(usize, CellFailure) -> R,
) -> (Vec<R>, usize) {
    let replayed = outcomes.iter().filter(|o| o.replayed).count();
    let results = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.result.unwrap_or_else(|f| degrade(i, f)))
        .collect();
    (results, replayed)
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spp-supervisor-test-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Test cells compute a bare `u64`, journalled as `{"n":…}`.
    impl Record for u64 {
        fn fields(&mut self, f: &mut Fields<'_>) {
            f.int("n", self);
        }
    }

    fn blank(_: &u64) -> u64 {
        0
    }

    #[test]
    fn panicking_cell_degrades_while_others_report() {
        let items: Vec<u64> = (0..16).collect();
        let outs = Supervisor::new(4, None).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                if x == 7 {
                    panic!("injected fault on cell 7");
                }
                Ok(x * 2)
            },
            blank,
        );
        assert_eq!(outs.len(), 16);
        for (i, o) in outs.iter().enumerate() {
            if i == 7 {
                let f = o.result.as_ref().unwrap_err();
                assert!(f.reason.contains("injected fault on cell 7"), "{f:?}");
                assert!(f.snapshot.is_none());
            } else {
                assert_eq!(*o.result.as_ref().unwrap(), i as u64 * 2, "cell {i}");
            }
        }
    }

    #[test]
    fn a_failing_cell_runs_once_and_degrades() {
        let items = [0u64];
        let tries = AtomicU32::new(0);
        let outs = Supervisor::new(1, None).run_cells(
            &items,
            |_, _| "cell/flaky".to_string(),
            |_, _| {
                // Would succeed on a second call: a cell is a pure
                // function of its key, so the supervisor never makes one.
                if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(CellError::new("down"))
                } else {
                    Ok(99)
                }
            },
            blank,
        );
        assert_eq!(
            tries.load(Ordering::SeqCst),
            1,
            "the cell runs exactly once"
        );
        let f = outs[0].result.as_ref().unwrap_err();
        assert_eq!((f.key.as_str(), f.reason.as_str()), ("cell/flaky", "down"));
        assert!(!outs[0].replayed);
    }

    #[test]
    fn journal_replays_completed_cells_and_failures() {
        let p = tmp("replay");
        let items: Vec<u64> = (0..8).collect();
        let computed = AtomicU32::new(0);
        {
            let j = Journal::open(&p).unwrap();
            let outs = Supervisor::new(2, Some(&j)).run_cells(
                &items,
                |_, &x| format!("cell/{x}"),
                |_, &x| {
                    computed.fetch_add(1, Ordering::SeqCst);
                    if x == 3 {
                        Err(CellError {
                            reason: "always down".into(),
                            snapshot: Some("{\"cycle\":5}".into()),
                        })
                    } else {
                        Ok(x + 100)
                    }
                },
                blank,
            );
            assert!(outs[3].result.is_err());
            assert_eq!(
                computed.load(Ordering::SeqCst),
                7 + 1,
                "every cell, the failing one included, runs once"
            );
        }
        // Second run: everything — including the failure — replays.
        let j = Journal::open(&p).unwrap();
        assert!(j.corrupt().is_empty());
        let before = computed.load(Ordering::SeqCst);
        let outs = Supervisor::new(2, Some(&j)).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                computed.fetch_add(1, Ordering::SeqCst);
                Ok(x + 100)
            },
            blank,
        );
        assert_eq!(
            computed.load(Ordering::SeqCst),
            before,
            "nothing recomputes"
        );
        for (i, o) in outs.iter().enumerate() {
            assert!(o.replayed, "cell {i} must replay");
            if i == 3 {
                let f = o.result.as_ref().unwrap_err();
                assert_eq!(f.reason, "always down");
                assert_eq!(f.snapshot.as_deref(), Some("{\"cycle\":5}"));
            } else {
                assert_eq!(*o.result.as_ref().unwrap(), i as u64 + 100);
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn undecodable_payload_recomputes_and_reports() {
        let p = tmp("badpayload");
        {
            let j = Journal::open(&p).unwrap();
            j.append(&Entry {
                key: "cell/0".into(),
                attempt: 1,
                status: CellStatus::Ok,
                payload: "not a number".into(),
            })
            .unwrap();
        }
        let j = Journal::open(&p).unwrap();
        let outs = Supervisor::new(1, Some(&j)).run_cells(
            &[0u64],
            |_, &x| format!("cell/{x}"),
            |_, &x| Ok(x + 1),
            blank,
        );
        assert!(!outs[0].replayed, "bad payload must not be reused");
        assert_eq!(*outs[0].result.as_ref().unwrap(), 1);
        let errs = j.corrupt();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].to_string().contains("cell/0"), "{errs:?}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn settle_degrades_failures_in_place() {
        let items: Vec<u64> = (0..4).collect();
        let outs = Supervisor::new(2, None).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                if x == 2 {
                    panic!("injected fault on cell 2");
                }
                Ok(x * 10)
            },
            blank,
        );
        let (results, replayed) = settle(outs, |i, f| {
            assert!(f.reason.contains("injected fault"), "{f:?}");
            1000 + i as u64
        });
        assert_eq!(results, vec![0, 10, 1002, 30]);
        assert_eq!(replayed, 0);
    }

    #[test]
    fn outcomes_are_input_ordered_at_any_job_count() {
        let items: Vec<u64> = (0..64).collect();
        let run = |_: usize, &x: &u64| {
            if x % 13 == 5 {
                Err(CellError::new(format!("down {x}")))
            } else {
                Ok(x * 3)
            }
        };
        let collect = |jobs| {
            Supervisor::new(jobs, None)
                .run_cells(&items, |_, &x| format!("c/{x}"), run, blank)
                .into_iter()
                .map(|o| (o.key, o.result.map_err(|f| f.reason)))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(8));
    }
}
