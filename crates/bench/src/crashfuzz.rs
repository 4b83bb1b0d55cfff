//! `repro crashfuzz` — crash-consistency fuzzing.
//!
//! The paper's premise (§2, Fig. 3) is that `Log+P+Sf` is the *only*
//! failure-safe build variant. This module mechanizes that claim in
//! both directions instead of asserting it from hand-picked crash
//! points:
//!
//! * **Must-pass cells**: for every benchmark × `FlushMode`, the
//!   `Log+P+Sf` build is crash-injected at every persist boundary of
//!   its trace (plus an evenly-spaced sample of non-boundary points)
//!   under several adversarial writeback reorderings
//!   ([`spp_pmem::CrashSim::image_seeded`]); recovery must restore a
//!   consistent structure at an adjacent operation boundary *every*
//!   time.
//! * **Must-fail cells**: the `Log` and `Log+P` builds must each
//!   exhibit at least one detectable inconsistency per benchmark — the
//!   witness is minimized to the lexicographically smallest
//!   `(crash_idx, seed)` pair that fails its oracle.
//!
//! That SP preserves these guarantees — it moves cycles, never
//! committed work — is `repro faultsim`'s state-invariance check.
//!
//! Cells fan out over [`run_indexed`], so `--jobs` changes wall time
//! only: every witness search is a deterministic scan and the report is
//! byte-identical at any job count.
//!
//! [`first_violation`] is the one witness scan of the repo's crash legs
//! (here, `kv`'s crash legs and `optimize`'s oracle legs), and
//! [`Witness`] the one witness type they report. Only the must-pass
//! sweep here keeps its own loop: it scans past a failure to report up
//! to three unexpected witnesses.

use spp_pmem::{persist_boundaries, FlushMode, Variant};
use spp_workloads::oracle::{record_bundle, BundleSpec, OracleViolation, ViolationKind};
use spp_workloads::BenchId;

use crate::json::{array, JsonObject};
use crate::{run_indexed, variant_key, Experiment, Harness};

/// Non-boundary crash points sampled per trace (evenly spaced).
const SAMPLED_POINTS: usize = 64;

/// Adversarial reorderings tried per crash point.
pub const SEEDS_PER_POINT: u64 = 2;

/// Which slice of the fuzz matrix to run (`repro crashfuzz [leg]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Every variant.
    All,
    /// Only the must-fail `Log` cells.
    Log,
    /// Only the must-fail `Log+P` cells.
    LogP,
    /// Only the must-pass `Log+P+Sf` cells.
    LogPSf,
}

impl Leg {
    /// Parses a `repro crashfuzz` leg argument.
    pub fn parse(s: &str) -> Option<Leg> {
        match s.to_ascii_lowercase().as_str() {
            "all" => Some(Leg::All),
            "log" => Some(Leg::Log),
            "logp" | "log+p" => Some(Leg::LogP),
            "logpsf" | "log+p+sf" => Some(Leg::LogPSf),
            _ => None,
        }
    }

    fn variants(self) -> &'static [Variant] {
        match self {
            Leg::All => &[Variant::Log, Variant::LogP, Variant::LogPSf],
            Leg::Log => &[Variant::Log],
            Leg::LogP => &[Variant::LogP],
            Leg::LogPSf => &[Variant::LogPSf],
        }
    }
}

/// A failing crash schedule: the `(crash_idx, seed)` pair whose
/// post-recovery image failed its oracle. The one witness type of every
/// crash leg (crashfuzz, kv, optimize); [`first_violation`] finds the
/// lexicographically smallest one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Crash point (index into the crashed event stream).
    pub crash_idx: usize,
    /// Reordering seed (see [`spp_pmem::CrashSim::image_seeded`]).
    pub seed: u64,
    /// What the oracle rejected.
    pub kind: ViolationKind,
    /// Deterministic human-readable description. Only the crashfuzz
    /// report prints it (through `Witness::reported_json`).
    pub detail: String,
}

impl Witness {
    /// The fields every rendering of the witness carries.
    fn fields(&self) -> JsonObject {
        let mut o = JsonObject::new();
        o.int("crash_idx", self.crash_idx as u64)
            .int("seed", self.seed)
            .str("kind", &self.kind.to_string());
        o
    }

    /// The witness as the kv and optimize cells embed it,
    /// `{"crash_idx","seed","kind"}`.
    pub fn json(&self) -> String {
        self.fields().render()
    }

    /// The witness as the crashfuzz report prints it: the embedded
    /// fields plus its `detail`.
    fn reported_json(&self) -> String {
        let mut o = self.fields();
        o.str("detail", &self.detail);
        o.render()
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash_idx {}, seed {}: {}: {}",
            self.crash_idx, self.seed, self.kind, self.detail
        )
    }
}

/// The sizing used for fuzz bundles at a given experiment scale.
///
/// Fuzzing cost is `crash points × seeds × image clones`, so bundles
/// are much smaller than the timing suite's traces; the scale knob
/// still shrinks them further for smoke runs.
pub fn fuzz_bundle_spec(
    id: BenchId,
    variant: Variant,
    mode: FlushMode,
    exp: &Experiment,
) -> BundleSpec {
    BundleSpec {
        id,
        variant,
        flush_mode: mode,
        init_ops: (4800 / exp.scale).max(8),
        sim_ops: (300 / exp.scale).max(2),
        seed: exp.seed,
    }
}

/// The crash points checked for a trace: every persist boundary
/// (exhaustive — between them only plain stores retire, so the
/// guarantee frontier cannot change) plus up to 64 (`SAMPLED_POINTS`)
/// evenly spaced indices covering the in-between stretches.
pub fn crash_points(events: &[spp_pmem::Event]) -> Vec<usize> {
    let mut pts = persist_boundaries(events);
    let k = SAMPLED_POINTS.min(events.len());
    for i in 0..k {
        pts.push(i * events.len() / k);
    }
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Scans `points × 0..SEEDS_PER_POINT` in lexicographic order, running
/// `check(crash_idx, seed)` on each schedule, and stops at the first
/// failure — the minimal witness when `points` ascend. Returns the
/// number of checks run and the witness, or `None` if every schedule
/// passed.
pub fn first_violation(
    points: impl IntoIterator<Item = usize>,
    mut check: impl FnMut(usize, u64) -> Result<(), OracleViolation>,
) -> (usize, Option<Witness>) {
    let mut checks = 0;
    for crash_idx in points {
        for seed in 0..SEEDS_PER_POINT {
            checks += 1;
            if let Err(v) = check(crash_idx, seed) {
                let witness = Witness {
                    crash_idx,
                    seed,
                    kind: v.kind,
                    detail: v.detail,
                };
                return (checks, Some(witness));
            }
        }
    }
    (checks, None)
}

/// One fuzz cell: a `(benchmark, variant, flush mode)` bundle and its
/// oracle verdict.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Which benchmark.
    pub id: BenchId,
    /// The build variant crashed.
    pub variant: Variant,
    /// The flush instruction the build emitted.
    pub mode: FlushMode,
    /// Recorded event count.
    pub events: usize,
    /// Crash points swept (must-pass cells).
    pub points: usize,
    /// Oracle checks executed.
    pub checks: usize,
    /// Is this a must-fail cell (`Log`/`Log+P`)?
    pub expect_violation: bool,
    /// The minimized witness (must-fail cells that did fail).
    pub witness: Option<Witness>,
    /// Unexpected violations of a must-pass cell (first few).
    pub unexpected: Vec<Witness>,
    /// Did the cell meet its expectation?
    pub ok: bool,
}

/// The full crashfuzz outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Scale/seed the bundles were recorded at.
    pub exp: Experiment,
    /// Reorderings tried per crash point.
    pub seeds_per_point: u64,
    /// Per-cell verdicts, in deterministic matrix order.
    pub cells: Vec<CellReport>,
}

fn run_cell(id: BenchId, variant: Variant, mode: FlushMode, exp: &Experiment) -> CellReport {
    let spec = fuzz_bundle_spec(id, variant, mode, exp);
    let b = record_bundle(&spec);
    let expect_violation = variant != Variant::LogPSf;
    let mut cell = CellReport {
        id,
        variant,
        mode,
        events: b.events().len(),
        points: 0,
        checks: 0,
        expect_violation,
        witness: None,
        unexpected: Vec::new(),
        ok: false,
    };
    if expect_violation {
        // Must-fail: find the lexicographically minimal witness. The
        // scan doubles as the existence proof — if it comes back empty
        // the unsafe build survived every schedule, which is exactly
        // the regression this cell exists to catch.
        (cell.checks, cell.witness) =
            first_violation(0..=b.events().len(), |p, seed| b.check_crash(p, seed));
        cell.ok = cell.witness.is_some();
    } else {
        // Must-pass: sweep every boundary and sampled point under
        // every seed; any violation is a failure-safety bug.
        let pts = crash_points(b.events());
        cell.points = pts.len();
        for &p in &pts {
            for seed in 0..SEEDS_PER_POINT {
                cell.checks += 1;
                if let Err(v) = b.check_crash(p, seed) {
                    if cell.unexpected.len() < 3 {
                        cell.unexpected.push(Witness {
                            crash_idx: p,
                            seed,
                            kind: v.kind,
                            detail: v.detail,
                        });
                    }
                }
            }
        }
        cell.ok = cell.unexpected.is_empty();
    }
    cell
}

/// Runs the crashfuzz matrix for `leg` on the harness's worker budget.
///
/// Cells are independent jobs fanned out via [`run_indexed`]; results
/// come back in input order, so the report is identical at any
/// `--jobs` value.
pub fn run_crashfuzz(h: &Harness, leg: Leg) -> FuzzReport {
    let cells: Vec<(BenchId, Variant, FlushMode)> = BenchId::ALL
        .iter()
        .flat_map(|&id| {
            leg.variants()
                .iter()
                .flat_map(move |&v| FlushMode::ALL.iter().map(move |&m| (id, v, m)))
        })
        .collect();
    let cell_reports = run_indexed(h.jobs, &cells, |_, &(id, v, m)| run_cell(id, v, m, &h.exp));
    FuzzReport {
        exp: h.exp,
        seeds_per_point: SEEDS_PER_POINT,
        cells: cell_reports,
    }
}

impl FuzzReport {
    /// Did every cell meet its expectation?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }

    /// The human-readable report (deterministic; stdout-destined).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== crashfuzz (scale 1/{}, seed {:#x}, {} reorderings/point) ==",
            self.exp.scale, self.exp.seed, self.seeds_per_point
        );
        let _ = writeln!(
            s,
            "{:<5} {:<9} {:<11} {:>7} {:>7} {:>7}  {:<11} verdict",
            "bench", "variant", "flush", "events", "points", "checks", "expectation"
        );
        for c in &self.cells {
            let expectation = if c.expect_violation {
                "must-fail"
            } else {
                "must-pass"
            };
            let verdict = if c.expect_violation {
                match &c.witness {
                    Some(w) => format!(
                        "ok: witness (crash_idx {}, seed {}) {}",
                        w.crash_idx, w.seed, w.kind
                    ),
                    None => "FAIL: no inconsistency found".to_string(),
                }
            } else if c.ok {
                "ok: all schedules recovered".to_string()
            } else {
                let w = &c.unexpected[0];
                format!(
                    "FAIL: {} violation(s), first (crash_idx {}, seed {}) {}",
                    c.unexpected.len(),
                    w.crash_idx,
                    w.seed,
                    w.kind
                )
            };
            let _ = writeln!(
                s,
                "{:<5} {:<9} {:<11} {:>7} {:>7} {:>7}  {:<11} {}",
                c.id.abbrev(),
                variant_key(c.variant),
                c.mode.mnemonic(),
                c.events,
                c.points,
                c.checks,
                expectation,
                verdict
            );
        }
        let _ = writeln!(
            s,
            "crashfuzz: {} ({} cells)",
            if self.ok() { "PASS" } else { "FAIL" },
            self.cells.len()
        );
        s
    }

    /// The machine-readable report.
    pub fn render_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            let mut o = JsonObject::new();
            o.str("bench", c.id.abbrev())
                .str("variant", variant_key(c.variant))
                .str("flush", c.mode.mnemonic())
                .int("events", c.events as u64)
                .int("points", c.points as u64)
                .int("checks", c.checks as u64)
                .str(
                    "expectation",
                    if c.expect_violation {
                        "violation"
                    } else {
                        "recovery"
                    },
                )
                .flag("ok", c.ok)
                .opt_raw("witness", c.witness.as_ref().map(Witness::reported_json));
            if !c.unexpected.is_empty() {
                o.raw(
                    "unexpected",
                    array(c.unexpected.iter().map(Witness::reported_json)),
                );
            }
            o.render()
        });
        crate::schema::emit(crate::schema::CRASHFUZZ, |root| {
            root.int("scale", self.exp.scale)
                .int("seed", self.exp.seed)
                .int("seeds_per_point", self.seeds_per_point)
                .flag("ok", self.ok())
                .raw("cells", array(cells));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_harness(jobs: usize) -> Harness {
        Harness::new(
            Experiment {
                scale: 2400, // init 8 / sim 2 per bundle: the smoke sizing
                seed: 7,
            },
            jobs,
        )
    }

    #[test]
    fn log_leg_finds_minimized_witnesses_everywhere() {
        let rep = run_crashfuzz(&smoke_harness(4), Leg::Log);
        assert_eq!(rep.cells.len(), 21, "7 benchmarks x 3 flush modes");
        for c in &rep.cells {
            assert!(c.expect_violation);
            let w = c
                .witness
                .as_ref()
                .unwrap_or_else(|| panic!("{} {} {}: no witness", c.id, c.variant, c.mode));
            // Minimality: no lexicographically smaller pair fails.
            let spec = fuzz_bundle_spec(c.id, c.variant, c.mode, &rep.exp);
            let b = record_bundle(&spec);
            for idx in 0..=w.crash_idx {
                for seed in 0..rep.seeds_per_point {
                    if (idx, seed) == (w.crash_idx, w.seed) {
                        continue;
                    }
                    if idx == w.crash_idx && seed > w.seed {
                        continue;
                    }
                    assert!(
                        b.check_crash(idx, seed).is_ok(),
                        "{}: ({idx}, {seed}) fails but witness is ({}, {})",
                        c.id,
                        w.crash_idx,
                        w.seed
                    );
                }
            }
        }
        assert!(rep.ok());
    }

    #[test]
    fn logpsf_leg_is_clean() {
        let rep = run_crashfuzz(&smoke_harness(4), Leg::LogPSf);
        assert_eq!(rep.cells.len(), 21);
        for c in &rep.cells {
            assert!(!c.expect_violation);
            assert!(
                c.ok,
                "{} {} {}: {:?}",
                c.id, c.variant, c.mode, c.unexpected
            );
            assert!(c.points > 2, "boundary sweep must cover the trace");
        }
        assert!(rep.ok());
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let a = run_crashfuzz(&smoke_harness(1), Leg::LogP);
        let b = run_crashfuzz(&smoke_harness(8), Leg::LogP);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.ok());
    }

    #[test]
    fn json_shape_is_balanced_and_keyed() {
        let rep = run_crashfuzz(&smoke_harness(4), Leg::Log);
        let j = rep.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"schema\":\"specpersist/crashfuzz-v2\"",
            "\"cells\"",
            "\"witness\"",
            "\"crash_idx\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn leg_parsing() {
        assert_eq!(Leg::parse("all"), Some(Leg::All));
        assert_eq!(Leg::parse("Log"), Some(Leg::Log));
        assert_eq!(Leg::parse("log+p"), Some(Leg::LogP));
        assert_eq!(Leg::parse("LogPSf"), Some(Leg::LogPSf));
        assert_eq!(Leg::parse("base"), None);
    }
}
