//! `repro soak` — bounded endurance runs over the fault-injection and
//! crash-consistency matrices with the journaled manifest enabled.
//!
//! Each iteration derives a fresh seed from the base experiment seed
//! (a splitmix64 step, so the schedule is a pure function of the CLI
//! arguments), then:
//!
//! 1. runs the full [`crate::faultsim`] matrix under quiet + storm
//!    plans on the supervised pool, journalling every cell;
//! 2. runs the must-pass `Log+P+Sf` [`crate::crashfuzz`] leg (crash
//!    recovery at every persist boundary plus the SP differential);
//! 3. re-reads and re-verifies the journal from disk, requiring zero
//!    corrupt lines ([`Journal::verify`]);
//! 4. appends an iteration-summary entry to the journal, so the
//!    manifest itself records the endurance history.
//!
//! The soak passes only if every iteration kept architectural state
//! invariant (all faultsim cells `state_ok`, no degraded cells, the
//! crashfuzz leg green) *and* the journal never produced a corrupt
//! line — the two failure modes a long campaign exists to surface.

use spp_pmem::splitmix64;

use crate::crashfuzz::{run_crashfuzz, Leg};
use crate::faultsim::{run_faultsim_opts, FaultsimOpts};
use crate::journal::{CellStatus, Entry};
use crate::json::{array, JsonObject};
use crate::{Experiment, Harness, Journal};

/// The default iteration count of `repro soak`.
pub const DEFAULT_SOAK_ITERS: u64 = 4;

/// One soak iteration's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakIter {
    /// Iteration index (0-based).
    pub iter: u64,
    /// The derived per-iteration seed.
    pub seed: u64,
    /// Did the faultsim matrix pass (state + verdict invariance,
    /// non-vacuity, watchdog)?
    pub faultsim_ok: bool,
    /// Faultsim cells that reported.
    pub cells: usize,
    /// Faultsim cells that failed (panicked or returned a typed error).
    pub failures: usize,
    /// Faultsim cells served from the journal.
    pub replayed: usize,
    /// Did the must-pass `Log+P+Sf` crashfuzz leg pass?
    pub fuzz_ok: bool,
    /// Verified journal entries after this iteration.
    pub journal_entries: usize,
    /// Corrupt journal lines detected by re-verification (must be 0).
    pub journal_corrupt: usize,
}

impl SoakIter {
    /// Did this iteration keep every invariant?
    pub fn ok(&self) -> bool {
        self.faultsim_ok && self.fuzz_ok && self.failures == 0 && self.journal_corrupt == 0
    }
}

/// The full soak outcome.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Scale and *base* seed (per-iteration seeds derive from it).
    pub exp: Experiment,
    /// Iterations requested.
    pub iters: u64,
    /// Per-iteration rows, in order.
    pub rows: Vec<SoakIter>,
}

/// The seed of soak iteration `i` under base experiment `exp`: one
/// splitmix64 step over the base seed and the index, so the whole
/// schedule is reproducible from the CLI arguments alone.
pub fn iter_seed(exp: &Experiment, i: u64) -> u64 {
    splitmix64(exp.seed.wrapping_add(i))
}

/// Runs `iters` soak iterations against `journal`, returning the
/// endurance report. Each iteration uses its own derived seed, so its
/// journal keys are disjoint from every other iteration's.
pub fn run_soak(exp: &Experiment, jobs: usize, iters: u64, journal: &Journal) -> SoakReport {
    let mut rows = Vec::with_capacity(iters as usize);
    for i in 0..iters {
        let seed = iter_seed(exp, i);
        let h = Harness::new(
            Experiment {
                scale: exp.scale,
                seed,
            },
            jobs,
        );
        let fault = run_faultsim_opts(
            &h,
            FaultsimOpts {
                journal: Some(journal),
                ..FaultsimOpts::default()
            },
        );
        let fuzz = run_crashfuzz(&h, Leg::LogPSf);
        // Integrity: re-read the journal from disk and verify every
        // line byte-for-byte against its checksum.
        let (journal_entries, corrupt) = match Journal::verify(journal.path()) {
            Ok((n, errs)) => (n, errs.len()),
            Err(_) => (0, 1),
        };
        let row = SoakIter {
            iter: i,
            seed,
            faultsim_ok: fault.ok(),
            cells: fault.cells.len(),
            failures: fault.failures.len(),
            replayed: fault.replayed,
            fuzz_ok: fuzz.ok(),
            journal_entries,
            journal_corrupt: corrupt,
        };
        // The manifest records its own endurance history.
        journal.record(&Entry {
            key: format!("soak/i{}/s{}/x{:016x}", i, exp.scale, seed),
            attempt: 1,
            status: if row.ok() {
                CellStatus::Ok
            } else {
                CellStatus::Failed
            },
            payload: row_json(&row),
        });
        rows.push(row);
    }
    SoakReport {
        exp: *exp,
        iters,
        rows,
    }
}

fn row_json(r: &SoakIter) -> String {
    let mut o = JsonObject::new();
    o.int("iter", r.iter)
        .int("seed", r.seed)
        .int("faultsim_ok", r.faultsim_ok.into())
        .int("cells", r.cells as u64)
        .int("failures", r.failures as u64)
        .int("fuzz_ok", r.fuzz_ok.into())
        .int("journal_entries", r.journal_entries as u64)
        .int("journal_corrupt", r.journal_corrupt as u64)
        .int("ok", r.ok().into());
    o.render()
}

impl SoakReport {
    /// Did every requested iteration run and keep every invariant?
    pub fn ok(&self) -> bool {
        self.rows.len() as u64 == self.iters && self.rows.iter().all(SoakIter::ok)
    }

    /// Total faultsim cells that degraded across the soak.
    pub fn total_failures(&self) -> usize {
        self.rows.iter().map(|r| r.failures).sum()
    }

    /// Total corrupt journal lines observed across the soak.
    pub fn total_corrupt(&self) -> usize {
        self.rows.iter().map(|r| r.journal_corrupt).sum()
    }

    /// The human-readable report (deterministic; stdout-destined).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== soak (scale 1/{}, base seed {:#x}, {} iterations) ==",
            self.exp.scale, self.exp.seed, self.iters
        );
        let _ = writeln!(
            s,
            "{:<5} {:<18} {:<9} {:>6} {:>7} {:<9} {:>8} {:>8} verdict",
            "iter", "seed", "faultsim", "cells", "failed", "crashfuzz", "entries", "corrupt"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<5} {:#018x} {:<9} {:>6} {:>7} {:<9} {:>8} {:>8} {}",
                r.iter,
                r.seed,
                if r.faultsim_ok { "ok" } else { "FAIL" },
                r.cells,
                r.failures,
                if r.fuzz_ok { "ok" } else { "FAIL" },
                r.journal_entries,
                r.journal_corrupt,
                if r.ok() { "ok" } else { "FAIL" }
            );
        }
        let _ = writeln!(
            s,
            "soak: {} ({} iterations, {} degraded cells, {} corrupt journal lines)",
            if self.ok() { "PASS" } else { "FAIL" },
            self.rows.len(),
            self.total_failures(),
            self.total_corrupt()
        );
        s
    }

    /// The machine-readable report.
    pub fn render_json(&self) -> String {
        crate::schema::emit(crate::schema::SOAK, |root| {
            root.int("scale", self.exp.scale)
                .int("seed", self.exp.seed)
                .int("iters", self.iters)
                .int("ok", self.ok().into())
                .raw("rows", array(self.rows.iter().map(row_json)));
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spp-soak-test-{}-{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn two_iterations_stay_green_and_journal_stays_clean() {
        let p = tmp("green");
        let exp = Experiment {
            scale: 2400,
            seed: 7,
        };
        let j = Journal::open(&p).unwrap();
        let rep = run_soak(&exp, 2, 2, &j);
        assert_eq!(rep.rows.len(), 2);
        assert!(rep.ok(), "{}", rep.render_text());
        assert_eq!(rep.total_corrupt(), 0);
        assert_eq!(rep.total_failures(), 0);
        // Distinct derived seeds mean disjoint journal keys: nothing
        // replays within a single soak.
        assert_ne!(rep.rows[0].seed, rep.rows[1].seed);
        assert_eq!(rep.rows[1].replayed, 0);
        // The manifest grew monotonically and re-verifies from disk.
        assert!(rep.rows[1].journal_entries > rep.rows[0].journal_entries);
        let (n, errs) = Journal::verify(&p).unwrap();
        assert!(errs.is_empty(), "{errs:?}");
        // 29 supervised cells per iteration plus one summary entry
        // (written after the iteration's verify pass).
        assert_eq!(n, 2 * (7 * 4 + 1) + 2);
        let text = rep.render_text();
        assert!(text.contains("soak: PASS"), "{text}");
        let json = rep.render_json();
        assert!(json.contains("\"schema\":\"specpersist/soak-v1\""));
        crate::json::parse(&json).expect("report must parse");
        // Each row prints its seed exactly, so the iteration replays
        // from the report alone (an `f64` round trip would round it).
        for i in 0..2 {
            let seed = format!("\"iter\":{i},\"seed\":{},", iter_seed(&exp, i));
            assert!(json.contains(&seed), "{seed} not in {json}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn rerun_with_same_journal_replays_faultsim_cells() {
        let p = tmp("replay");
        let exp = Experiment {
            scale: 2400,
            seed: 11,
        };
        {
            let j = Journal::open(&p).unwrap();
            assert!(run_soak(&exp, 2, 1, &j).ok());
        }
        let j = Journal::open(&p).unwrap();
        let rep = run_soak(&exp, 2, 1, &j);
        assert!(rep.ok());
        assert_eq!(
            rep.rows[0].replayed,
            7 * 4 + 1,
            "every supervised cell replays on the second soak"
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn iteration_seeds_are_pinned() {
        let exp = Experiment { scale: 50, seed: 0 };
        // splitmix64(0), splitmix64(1): the published reference vector.
        assert_eq!(iter_seed(&exp, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(iter_seed(&exp, 1), 0x910A_2DEC_8902_5CC1);
    }
}
