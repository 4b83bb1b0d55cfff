//! The supervised worker pool: journal-aware, panic-isolating,
//! retrying execution of evaluation cells over [`run_indexed`].
//!
//! [`run_indexed`] gives deterministic input-order results but lets a
//! single panicking cell take the whole matrix down with it — exactly
//! the failure mode that dominates long validation campaigns. The
//! supervisor wraps each cell:
//!
//! 1. **Replay**: if an open [`Journal`] holds a verified entry for the
//!    cell's key, the entry is decoded and served without recomputation
//!    (a decode failure surfaces as a typed
//!    [`JournalError::BadPayload`](crate::journal::JournalError) and the
//!    cell recomputes — never silent reuse).
//! 2. **Isolation**: the cell runs under `catch_unwind`; a panic is
//!    converted into a failure value, and every other cell keeps
//!    running.
//! 3. **Retry**: a panicking or `Err`-returning cell is retried up to
//!    [`MAX_ATTEMPTS`] times on a *deterministic* schedule — the
//!    attempt counter alone, no wall-clock backoff or randomness — so
//!    retried runs stay reproducible.
//! 4. **Degradation**: a cell that exhausts its budget becomes a
//!    per-cell [`CellFailure`] (reason + diagnostic snapshot) in the
//!    report instead of aborting the matrix; completed cells and
//!    failures are both journalled, so a resumed run replays them
//!    byte-identically.
//!
//! Every journaled study runs its cells here — faultsim, litmus, kv,
//! multicore, optimize, and profile (whose whole report is one cell) —
//! so replay, isolation and journal writes have one implementation.
//! A journal append that fails is kept with the journal's errors
//! ([`Journal::record`]) and reported once at the end of the run.
//!
//! Cells must remain pure functions of their inputs: the supervisor
//! preserves [`run_indexed`]'s input-order result contract, so final
//! stdout is byte-identical across `--jobs` and across
//! interrupted-then-resumed vs. uninterrupted runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::journal::{CellStatus, Entry, Journal};
use crate::json::{parse, JsonObject, Value};
use crate::run_indexed;

/// The bounded, deterministic retry budget: total attempts per cell
/// (first run included).
pub const MAX_ATTEMPTS: u32 = 3;

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

/// A cell that exhausted its retry budget: the degraded per-cell record
/// that replaces its result in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's journal key.
    pub key: String,
    /// Attempts consumed (== the budget).
    pub attempts: u32,
    /// The final attempt's failure reason.
    pub reason: String,
    /// The final attempt's diagnostic snapshot, if one was captured.
    pub snapshot: Option<String>,
}

impl CellFailure {
    /// The failure as a JSON object (the journalled payload of a
    /// `failed` entry, and the shape reports embed).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("key", &self.key)
            .num("attempts", self.attempts)
            .str("reason", &self.reason);
        match &self.snapshot {
            Some(s) => o.raw("snapshot", s.clone()),
            None => o.raw("snapshot", "null".to_string()),
        };
        o.render()
    }

    fn from_json(key: &str, payload: &str) -> Option<CellFailure> {
        let v = parse(payload).ok()?;
        Some(CellFailure {
            key: key.to_string(),
            attempts: v.get("attempts")?.as_u64()? as u32,
            reason: v.get("reason")?.as_str()?.to_string(),
            snapshot: match v.get("snapshot") {
                None | Some(Value::Null) => None,
                Some(s) => Some(render_back(s)),
            },
        })
    }
}

/// Re-renders a parsed snapshot value compactly (exact bytes of the
/// original are not needed — only the diagnostic content).
fn render_back(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n:.6}")
            }
        }
        Value::Str(s) => crate::json::quote(s),
        Value::Arr(items) => crate::json::array(items.iter().map(render_back)),
        Value::Obj(fields) => {
            let mut o = JsonObject::new();
            for (k, val) in fields {
                o.raw(k, render_back(val));
            }
            o.render()
        }
    }
}

/// One supervised cell's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome<R> {
    /// The cell's journal key.
    pub key: String,
    /// Attempts consumed (1 for a first-try success; 0 when replayed).
    pub attempts: u32,
    /// Served from the journal without recomputation?
    pub replayed: bool,
    /// The result, or the degraded failure record.
    pub result: Result<R, CellFailure>,
}

/// The supervised pool configuration: worker budget, retry budget, and
/// an optional journal for replay + recording.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervisor<'j> {
    /// Worker threads (0 and 1 both mean serial).
    pub jobs: usize,
    /// Total attempts per cell; 0 is treated as 1.
    pub max_attempts: u32,
    /// Replay completed cells from (and record new ones into) this
    /// journal.
    pub journal: Option<&'j Journal>,
}

impl<'j> Supervisor<'j> {
    /// A supervisor with the default retry budget, replaying from (and
    /// recording into) `journal` when one is attached.
    pub fn new(jobs: usize, journal: Option<&'j Journal>) -> Self {
        Supervisor {
            jobs,
            max_attempts: MAX_ATTEMPTS,
            journal,
        }
    }

    /// Runs every item as a supervised cell, returning outcomes in
    /// input order.
    ///
    /// * `key` names the cell for the journal — it must capture
    ///   everything that determines the result.
    /// * `run` computes the cell (pure; may panic or return a typed
    ///   [`CellError`]).
    /// * `encode`/`decode` serialize the result for the journal;
    ///   `decode` sees the item, so it can check the payload against
    ///   it. A `decode` rejection is reported to the journal as a
    ///   typed error and the cell recomputes.
    pub fn run_cells<T, R, K, F, E, D>(
        &self,
        items: &[T],
        key: K,
        run: F,
        encode: E,
        decode: D,
    ) -> Vec<CellOutcome<R>>
    where
        T: Sync,
        R: Send,
        K: Fn(usize, &T) -> String + Sync,
        F: Fn(usize, &T) -> Result<R, CellError> + Sync,
        E: Fn(&R) -> String + Sync,
        D: Fn(&T, &str) -> Option<R> + Sync,
    {
        let max_attempts = self.max_attempts.max(1);
        run_indexed(self.jobs, items, |i, item| {
            let key = key(i, item);
            // Replay path: a verified journal entry short-circuits the
            // computation entirely.
            if let Some(j) = self.journal {
                if let Some(entry) = j.lookup(&key) {
                    match entry.status {
                        CellStatus::Ok => match decode(item, &entry.payload) {
                            Some(r) => {
                                return CellOutcome {
                                    key,
                                    attempts: 0,
                                    replayed: true,
                                    result: Ok(r),
                                }
                            }
                            None => j.report_bad_payload(&key, "result payload rejected"),
                        },
                        CellStatus::Failed => match CellFailure::from_json(&key, &entry.payload) {
                            Some(f) => {
                                return CellOutcome {
                                    key,
                                    attempts: f.attempts,
                                    replayed: true,
                                    result: Err(f),
                                }
                            }
                            None => j.report_bad_payload(&key, "failure payload rejected"),
                        },
                    }
                }
            }
            // Compute path: bounded deterministic retry under panic
            // isolation.
            let mut last = CellError::new("cell never ran");
            for attempt in 1..=max_attempts {
                match catch_unwind(AssertUnwindSafe(|| run(i, item))) {
                    Ok(Ok(r)) => {
                        if let Some(j) = self.journal {
                            j.record(&Entry {
                                key: key.clone(),
                                attempt,
                                status: CellStatus::Ok,
                                payload: encode(&r),
                            });
                        }
                        return CellOutcome {
                            key,
                            attempts: attempt,
                            replayed: false,
                            result: Ok(r),
                        };
                    }
                    Ok(Err(e)) => last = e,
                    Err(panic) => last = CellError::new(panic_message(panic.as_ref())),
                }
            }
            let failure = CellFailure {
                key: key.clone(),
                attempts: max_attempts,
                reason: last.reason,
                snapshot: last.snapshot,
            };
            if let Some(j) = self.journal {
                j.record(&Entry {
                    key: key.clone(),
                    attempt: max_attempts,
                    status: CellStatus::Failed,
                    payload: failure.to_json(),
                });
            }
            CellOutcome {
                key,
                attempts: max_attempts,
                replayed: false,
                result: Err(failure),
            }
        })
    }
}

/// Unwraps supervised outcomes into results in input order: a cell
/// that exhausted its retries becomes `degrade(index, failure)`, the
/// study's own failed-cell record. Also returns how many cells were
/// served from the journal.
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

    fn ident_codec() -> (
        impl Fn(&u64) -> String + Sync,
        impl Fn(&u64, &str) -> Option<u64> + Sync,
    ) {
        (|r: &u64| r.to_string(), |_: &u64, s: &str| s.parse().ok())
    }

    #[test]
    fn panicking_cell_degrades_while_others_report() {
        let items: Vec<u64> = (0..16).collect();
        let (enc, dec) = ident_codec();
        let outs = Supervisor::new(4, None).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                if x == 7 {
                    panic!("injected fault on cell 7");
                }
                Ok(x * 2)
            },
            enc,
            dec,
        );
        assert_eq!(outs.len(), 16);
        for (i, o) in outs.iter().enumerate() {
            if i == 7 {
                let f = o.result.as_ref().unwrap_err();
                assert_eq!(f.attempts, MAX_ATTEMPTS);
                assert!(f.reason.contains("injected fault on cell 7"), "{f:?}");
                assert!(f.snapshot.is_none());
            } else {
                assert_eq!(*o.result.as_ref().unwrap(), i as u64 * 2, "cell {i}");
                assert_eq!(o.attempts, 1);
            }
        }
    }

    #[test]
    fn transient_failure_is_retried_deterministically() {
        let items = [0u64];
        let tries = AtomicU32::new(0);
        let (enc, dec) = ident_codec();
        let outs = Supervisor::new(1, None).run_cells(
            &items,
            |_, _| "cell/flaky".to_string(),
            |_, _| {
                // Fails twice, then succeeds: the bounded schedule must
                // absorb it without any wall-clock element.
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(CellError::new("transient"))
                } else {
                    Ok(99)
                }
            },
            enc,
            dec,
        );
        assert_eq!(outs[0].attempts, 3);
        assert_eq!(*outs[0].result.as_ref().unwrap(), 99);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn journal_replays_completed_cells_and_failures() {
        let p = tmp("replay");
        let items: Vec<u64> = (0..8).collect();
        let computed = AtomicU32::new(0);
        {
            let j = Journal::open(&p).unwrap();
            let (enc, dec) = ident_codec();
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
                enc,
                dec,
            );
            assert!(outs[3].result.is_err());
            assert_eq!(
                computed.load(Ordering::SeqCst),
                7 + MAX_ATTEMPTS,
                "failed cell retried to exhaustion"
            );
        }
        // Second run: everything — including the failure — replays.
        let j = Journal::open(&p).unwrap();
        assert!(j.corrupt().is_empty());
        let before = computed.load(Ordering::SeqCst);
        let (enc, dec) = ident_codec();
        let outs = Supervisor::new(2, Some(&j)).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                computed.fetch_add(1, Ordering::SeqCst);
                Ok(x + 100)
            },
            enc,
            dec,
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
                assert_eq!(f.attempts, MAX_ATTEMPTS);
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
        let (enc, dec) = ident_codec();
        let outs = Supervisor::new(1, Some(&j)).run_cells(
            &[0u64],
            |_, &x| format!("cell/{x}"),
            |_, &x| Ok(x + 1),
            enc,
            dec,
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
        let (enc, dec) = ident_codec();
        let outs = Supervisor::new(2, None).run_cells(
            &items,
            |_, &x| format!("cell/{x}"),
            |_, &x| {
                if x == 2 {
                    panic!("injected fault on cell 2");
                }
                Ok(x * 10)
            },
            enc,
            dec,
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
            let (enc, dec) = ident_codec();
            Supervisor::new(jobs, None)
                .run_cells(&items, |_, &x| format!("c/{x}"), run, enc, dec)
                .into_iter()
                .map(|o| (o.key, o.result.map_err(|f| f.reason)))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(8));
    }
}
