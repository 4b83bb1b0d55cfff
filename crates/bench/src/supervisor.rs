//! Supervised cells: panic-isolating execution of evaluation cells
//! over [`run_indexed`].
//!
//! [`run_indexed`] gives deterministic input-order results but lets a
//! single panicking cell take the whole matrix down with it.
//! [`run_cells`] wraps each cell:
//!
//! 1. **Isolation**: the cell runs once under `catch_unwind`; a panic
//!    is converted into a failure value, and every other cell keeps
//!    running. A cell is a pure function of its inputs, so a second
//!    attempt would fail the same way: there are no retries.
//! 2. **Degradation**: a cell that panics or returns a [`CellError`]
//!    comes back as that error (reason and diagnostic snapshot) instead
//!    of aborting the matrix; [`settle`] turns it into the study's own
//!    failed-cell record, and faultsim reports it as a [`CellFailure`].
//!
//! The faultsim, litmus, kv, multicore and optimize studies all run
//! their cells here. Cells must remain pure functions of their inputs:
//! [`run_cells`] preserves [`run_indexed`]'s input-order result
//! contract, so final stdout is byte-identical across `--jobs`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::json::{Fields, Record};
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
    /// An error without a snapshot (panics).
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

/// A failed cell as a report lists it: its key plus the [`CellError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's key.
    pub key: String,
    /// The failure reason.
    pub reason: String,
    /// The diagnostic snapshot, if one was captured.
    pub snapshot: Option<String>,
}

/// The shape reports embed: `{"key","reason","snapshot"}`, with a
/// `null` snapshot when none was captured.
impl Record for CellFailure {
    fn fields(&self, f: &mut Fields) {
        f.str("key", &self.key);
        f.str("reason", &self.reason);
        f.nullable_raw("snapshot", self.snapshot.as_deref());
    }
}

/// Runs every item as a supervised cell on `jobs` workers (0 and 1
/// both mean serial), returning results in input order. `run` computes
/// the cell (pure; may panic or return a typed [`CellError`]); it runs
/// once, and a panic becomes the cell's [`CellError`].
pub fn run_cells<T, R, F>(jobs: usize, items: &[T], run: F) -> Vec<Result<R, CellError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, CellError> + Sync,
{
    run_indexed(jobs, items, |i, item| {
        catch_unwind(AssertUnwindSafe(|| run(i, item)))
            .unwrap_or_else(|panic| Err(CellError::new(panic_message(panic.as_ref()))))
    })
}

/// Unwraps supervised results in input order: a failed cell becomes
/// `degrade(index, error)`, the study's own failed-cell record.
pub fn settle<R>(
    results: Vec<Result<R, CellError>>,
    degrade: impl Fn(usize, CellError) -> R,
) -> Vec<R> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|f| degrade(i, f)))
        .collect()
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
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn panicking_cell_degrades_while_others_report() {
        let items: Vec<u64> = (0..16).collect();
        let outs = run_cells(4, &items, |_, &x| {
            if x == 7 {
                panic!("injected fault on cell 7");
            }
            Ok(x * 2)
        });
        assert_eq!(outs.len(), 16);
        for (i, o) in outs.iter().enumerate() {
            if i == 7 {
                let f = o.as_ref().unwrap_err();
                assert!(f.reason.contains("injected fault on cell 7"), "{f:?}");
                assert!(f.snapshot.is_none());
            } else {
                assert_eq!(*o.as_ref().unwrap(), i as u64 * 2, "cell {i}");
            }
        }
    }

    #[test]
    fn a_failing_cell_runs_once_and_degrades() {
        let items = [0u64];
        let tries = AtomicU32::new(0);
        let outs = run_cells(1, &items, |_, _| {
            // Would succeed on a second call: a cell is a pure
            // function of its inputs, so `run_cells` never makes one.
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(CellError::new("down"))
            } else {
                Ok(99)
            }
        });
        assert_eq!(
            tries.load(Ordering::SeqCst),
            1,
            "the cell runs exactly once"
        );
        assert_eq!(outs[0], Err(CellError::new("down")));
    }

    #[test]
    fn settle_degrades_failures_in_place() {
        let items: Vec<u64> = (0..4).collect();
        let outs = run_cells(2, &items, |_, &x| {
            if x == 2 {
                panic!("injected fault on cell 2");
            }
            Ok(x * 10)
        });
        let results = settle(outs, |i, f| {
            assert!(f.reason.contains("injected fault"), "{f:?}");
            1000 + i as u64
        });
        assert_eq!(results, vec![0, 10, 1002, 30]);
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
        let collect = |jobs| run_cells(jobs, &items, run);
        assert_eq!(collect(1), collect(8));
    }
}
