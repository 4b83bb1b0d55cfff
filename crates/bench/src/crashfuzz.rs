//! `repro crashfuzz` — crash-consistency fuzzing and differential
//! validation.
//!
//! The paper's premise (§2, Fig. 3) is that `Log+P+Sf` is the *only*
//! failure-safe build variant and that SP preserves exactly its
//! guarantees. This module mechanizes that claim in both directions
//! instead of asserting it from hand-picked crash points:
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
//! * **SP differential**: the `Log+P+Sf` trace is replayed on the
//!   baseline and SP256 cores; committed micro-op counts must agree
//!   with each other and with the trace, class by class — speculation
//!   may only move cycles, never architectural work.
//!
//! Cells fan out over [`run_indexed`], so `--jobs` changes wall time
//! only: every witness search is a deterministic scan and the report is
//! byte-identical at any job count.
//!
//! [`first_violation`] is the one witness scan of the repo's crash legs
//! (here, `faultsim`'s verdicts, `kv`'s crash legs and `optimize`'s
//! oracle legs), and [`Witness`] the one witness type they report and
//! journal. Only the must-pass sweep here keeps its own loop: it scans
//! past a failure to report up to three unexpected witnesses.

use spp_cpu::{CpuConfig, SimResult};
use spp_pmem::{persist_boundaries, FlushMode, TraceCounts, Variant};
use spp_workloads::oracle::{record_bundle, BundleSpec, OracleViolation, ViolationKind};
use spp_workloads::BenchId;

use crate::json::{self, array, Fields, JsonObject, Record};
use crate::{run_indexed, variant_key, Experiment, Harness, TraceKey};

/// Non-boundary crash points sampled per trace (evenly spaced).
const SAMPLED_POINTS: usize = 64;

/// Adversarial reorderings tried per crash point.
pub const SEEDS_PER_POINT: u64 = 2;

/// Which slice of the fuzz matrix to run (`repro crashfuzz [leg]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Every variant plus the SP differential.
    All,
    /// Only the must-fail `Log` cells.
    Log,
    /// Only the must-fail `Log+P` cells.
    LogP,
    /// Only the must-pass `Log+P+Sf` cells plus the SP differential.
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

    fn runs_sp_differential(self) -> bool {
        matches!(self, Leg::All | Leg::LogPSf)
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
    /// Deterministic human-readable description. Not journaled: a
    /// decoded witness carries an empty detail.
    pub detail: String,
}

impl Witness {
    /// The blank witness a journaled one decodes into.
    pub(crate) fn blank() -> Witness {
        Witness {
            crash_idx: 0,
            seed: 0,
            kind: ViolationKind::ALL[0],
            detail: String::new(),
        }
    }
}

/// The journaled fields, `{"crash_idx","seed","kind"}`; a `kind` that
/// names no [`ViolationKind`] rejects the record.
impl Record for Witness {
    fn fields(&mut self, f: &mut Fields<'_>) {
        f.int("crash_idx", &mut self.crash_idx);
        f.int("seed", &mut self.seed);
        f.name("kind", &mut self.kind, &ViolationKind::ALL, |k| {
            k.to_string()
        });
    }
}

/// A witness as the crashfuzz report prints it: the journaled fields
/// plus its `detail`.
#[derive(Clone)]
struct Reported(Witness);

impl Record for Reported {
    fn fields(&mut self, f: &mut Fields<'_>) {
        self.0.fields(f);
        f.str("detail", &mut self.0.detail);
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
/// guarantee frontier cannot change) plus up to [`SAMPLED_POINTS`]
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

/// One SP differential row: committed micro-op classes must be
/// identical between the baseline and SP cores and match the trace.
#[derive(Debug, Clone, Copy)]
pub struct SpReport {
    /// Which benchmark.
    pub id: BenchId,
    /// Micro-ops in the `Log+P+Sf` trace.
    pub trace_uops: u64,
    /// Baseline-core committed totals.
    pub base_uops: u64,
    /// SP256-core committed totals.
    pub sp_uops: u64,
    /// Do all five committed classes and the totals agree?
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
    /// SP differential rows (empty unless the leg includes them).
    pub sp: Vec<SpReport>,
}

/// A run's committed micro-op classes: total, loads, stores, flushes,
/// pcommits and fences.
pub(crate) fn committed_classes(r: &SimResult) -> [u64; 6] {
    [
        r.cpu.committed_uops,
        r.cpu.loads,
        r.cpu.stores,
        r.cpu.flushes,
        r.cpu.pcommits,
        r.cpu.fences,
    ]
}

/// A trace's micro-op classes, in [`committed_classes`] order.
pub(crate) fn trace_classes(c: &TraceCounts) -> [u64; 6] {
    [
        c.total(),
        c.loads,
        c.stores,
        c.flushes,
        c.pcommits,
        c.fences,
    ]
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
/// Cells (and SP differential rows) are independent jobs fanned out via
/// [`run_indexed`]; results come back in input order, so the report is
/// identical at any `--jobs` value.
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
    let sp = if leg.runs_sp_differential() {
        run_indexed(h.jobs, &BenchId::ALL, |_, &id| {
            let t = h.trace(TraceKey::new(id, Variant::LogPSf, &h.exp));
            let base = h.replay(&t.events, &CpuConfig::baseline());
            let sp = h.replay(&t.events, &CpuConfig::with_sp());
            let ok = committed_classes(&base) == committed_classes(&sp)
                && committed_classes(&base) == trace_classes(&t.counts);
            SpReport {
                id,
                trace_uops: t.counts.total(),
                base_uops: base.cpu.committed_uops,
                sp_uops: sp.cpu.committed_uops,
                ok,
            }
        })
    } else {
        Vec::new()
    };
    FuzzReport {
        exp: h.exp,
        seeds_per_point: SEEDS_PER_POINT,
        cells: cell_reports,
        sp,
    }
}

impl FuzzReport {
    /// Did every cell and every SP differential meet its expectation?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok) && self.sp.iter().all(|s| s.ok)
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
        if !self.sp.is_empty() {
            let _ = writeln!(
                s,
                "SP differential (Log+P+Sf trace, committed uop classes, baseline vs SP256):"
            );
            for r in &self.sp {
                let _ = writeln!(
                    s,
                    "{:<5} {} (trace {}, baseline {}, sp256 {})",
                    r.id.abbrev(),
                    if r.ok { "ok" } else { "FAIL" },
                    r.trace_uops,
                    r.base_uops,
                    r.sp_uops
                );
            }
        }
        let _ = writeln!(
            s,
            "crashfuzz: {} ({} cells, {} SP differentials)",
            if self.ok() { "PASS" } else { "FAIL" },
            self.cells.len(),
            self.sp.len()
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
                .int("ok", c.ok.into());
            let wit = |w: &Witness| json::encode(&Reported(w.clone()));
            if let Some(w) = &c.witness {
                o.raw("witness", wit(w));
            }
            if !c.unexpected.is_empty() {
                o.raw("unexpected", array(c.unexpected.iter().map(wit)));
            }
            o.render()
        });
        let sp = self.sp.iter().map(|r| {
            let mut o = JsonObject::new();
            o.str("bench", r.id.abbrev())
                .int("trace_uops", r.trace_uops)
                .int("base_uops", r.base_uops)
                .int("sp_uops", r.sp_uops)
                .int("ok", r.ok.into());
            o.render()
        });
        crate::schema::emit(crate::schema::CRASHFUZZ, |root| {
            root.int("scale", self.exp.scale)
                .int("seed", self.exp.seed)
                .int("seeds_per_point", self.seeds_per_point)
                .int("ok", self.ok().into())
                .raw("cells", array(cells))
                .raw("sp", array(sp));
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
        assert!(rep.sp.is_empty(), "Log leg skips the SP differential");
    }

    #[test]
    fn logpsf_leg_is_clean_and_sp_matches() {
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
        assert_eq!(rep.sp.len(), 7);
        for r in &rep.sp {
            assert!(r.ok, "{}: SP committed classes diverged", r.id);
            assert_eq!(r.base_uops, r.sp_uops);
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
            "\"schema\":\"specpersist/crashfuzz-v1\"",
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
