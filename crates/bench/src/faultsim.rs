//! `repro faultsim` — deterministic hardware fault injection and the
//! timing-only invariance check.
//!
//! A [`FaultSpec`] plan perturbs the simulated hardware at eight
//! injection sites (NVMM latency spikes, WPQ backpressure, bank
//! stalls, delayed/duplicated `pcommit` acks, SSB/checkpoint
//! exhaustion pressure). The faults are *timing-only* by construction:
//! they stretch latencies and deny resources, never drop or corrupt a
//! request. This module mechanizes the resulting invariant across the
//! whole suite:
//!
//! * **State invariance**: for every benchmark × build variant × fault
//!   plan, the faulted run on both the baseline and SP256 cores must
//!   commit exactly the same architectural work — all six committed
//!   micro-op classes — as the fault-free run and as the recorded
//!   trace itself. Only cycle counts may move.
//! * **Verdict invariance**: crash-recovery verdicts are a pure
//!   function of the recorded trace, and the state check proves the
//!   faulted runs commit exactly that trace; each cell therefore
//!   carries the trace's oracle verdict (`Log+P+Sf` recovers, `Log`
//!   and `Log+P` yield a violation, `Base` has no persist discipline
//!   to judge), recomputed from a bounded [`crate::crashfuzz`] sweep
//!   and checked against its expectation.
//! * **Watchdog detection**: one leg runs with a deliberately tiny
//!   no-retire bound, far below the 315-cycle NVMM write stall every
//!   persist barrier incurs, and requires the forward-progress
//!   watchdog to convert the run into a typed
//!   [`spp_cpu::SimError`] with a populated diagnostic snapshot
//!   instead of trusting (or hanging in) a wedged simulation. The
//!   true-livelock fixture — a speculating core whose checkpoint can
//!   never be granted — lives in `spp-cpu`'s unit tests, where the
//!   pipeline internals needed to construct it are in scope.
//!
//! Every fault stream is a splitmix64 counter stream seeded from
//! `(plan seed, component salt, site)`, so cells are pure functions of
//! their inputs: the report is byte-identical at any `--jobs` value.
//!
//! The matrix runs on [`run_cells`]: each `(benchmark, variant)` pair
//! is one supervised cell (six simulations plus the bounded crash
//! verdict). A pair whose simulation panics or returns a typed
//! [`spp_cpu::SimError`] degrades to a keyed per-cell `failures` record
//! carrying the diagnostic snapshot; every other pair still reports.
//! The injected faults are part of the pair's inputs, so a failing
//! pair fails the same way on every run and is never retried.

use spp_cpu::{CpuConfig, SimErrorKind, Simulator};
use spp_mem::{FaultSpec, FaultStats};
use spp_pmem::Variant;
use spp_workloads::oracle::record_bundle;
use spp_workloads::BenchId;

use crate::crashfuzz::{
    committed_classes, crash_points, first_violation, fuzz_bundle_spec, trace_classes,
    SEEDS_PER_POINT,
};
use crate::json::{self, array, Fields, JsonObject, Record};
use crate::supervisor::{run_cells, CellError, CellFailure};
use crate::{variant_key, Harness, TraceKey};

/// The build variants swept by `repro faultsim` (all four: even the
/// un-instrumented `Base` build must be timing-invariant under NVMM
/// and WPQ adversity).
pub const VARIANTS: [Variant; 4] = [Variant::Base, Variant::Log, Variant::LogP, Variant::LogPSf];

/// The named fault plans swept per cell, derived from the experiment
/// seed: background-radiation `quiet` and adversarial `storm`.
pub fn plans(seed: u64) -> [(&'static str, FaultSpec); 2] {
    [
        ("quiet", FaultSpec::quiet(seed)),
        ("storm", FaultSpec::storm(seed)),
    ]
}

/// Stride divisor of a cell's bounded must-pass verdict sweep: it checks
/// every ⌊n/16⌋-th of the bundle's `n` crash points (see
/// `crash_verdict`).
const VERDICT_POINTS: usize = 16;

/// No-retire bound of the watchdog-detection leg: far below the
/// 315-cycle NVMM write stall of every persist barrier, so the first
/// long stall must trip the watchdog.
pub const WATCHDOG_DEMO_BOUND: u64 = 64;

/// One core's run under one plan (or fault-free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Outcome {
    cycles: u64,
    classes: [u64; 6],
    faults: FaultStats,
}

/// One faultsim cell: a `(benchmark, variant, plan)` triple with the
/// fault-free reference and the faulted runs on both cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Which benchmark.
    pub id: BenchId,
    /// The build variant replayed.
    pub variant: Variant,
    /// The fault plan name (`quiet` or `storm`).
    pub plan: &'static str,
    /// Fault-free baseline-core cycles.
    pub base_cycles: u64,
    /// Faulted baseline-core cycles.
    pub base_cycles_faulted: u64,
    /// Fault-free SP256-core cycles.
    pub sp_cycles: u64,
    /// Faulted SP256-core cycles.
    pub sp_cycles_faulted: u64,
    /// Faults injected across both faulted runs.
    pub faults_injected: u64,
    /// Latency directly added by the injected faults, cycles.
    pub extra_cycles: u64,
    /// Did all four runs commit exactly the trace's micro-op classes?
    pub state_ok: bool,
    /// The trace's crash-recovery verdict (`recovers`, `violation`,
    /// or `n/a` for `Base`).
    pub verdict: &'static str,
    /// Does the verdict match the variant's expectation?
    pub verdict_ok: bool,
}

/// The watchdog-detection leg's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// The benchmark whose trace was replayed.
    pub id: BenchId,
    /// The deliberately tiny no-retire bound used.
    pub bound: u64,
    /// Did the watchdog fire with [`SimErrorKind::NoRetireProgress`]?
    pub fired: bool,
    /// Simulated cycle at which the watchdog fired.
    pub cycle: u64,
    /// ROB occupancy captured in the diagnostic snapshot.
    pub rob_len: usize,
    /// The full one-line error (kind plus snapshot).
    pub detail: String,
    /// Fired as expected with a populated snapshot?
    pub ok: bool,
}

/// The full faultsim outcome.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Scale/seed the traces were recorded at.
    pub exp: crate::Experiment,
    /// Per-cell results, in deterministic matrix order (failed pairs
    /// are absent here and present in [`FaultReport::failures`]).
    pub cells: Vec<Cell>,
    /// Pairs that panicked or returned a typed error: degraded
    /// per-cell records carrying the diagnostic snapshot, in matrix
    /// order. Any entry here fails the report.
    pub failures: Vec<CellFailure>,
    /// The watchdog-detection leg.
    pub watchdog: WatchdogReport,
}

/// Options for [`run_faultsim_opts`]: the fault-injection hook the
/// supervision tests use.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultsimOpts {
    /// Fault-injection hook: panic inside this pair's cell,
    /// demonstrating per-cell degradation without touching the
    /// simulator.
    pub inject_panic: Option<(BenchId, Variant)>,
}

/// The bounded crash-recovery verdict of a `(benchmark, variant)`
/// bundle: must-fail variants scan every crash point for the minimal
/// witness (early exit on the first inconsistency); the must-pass
/// variant sweeps every ⌊n/[`VERDICT_POINTS`]⌋-th of its `n` crash
/// points (every point while `n < 32`), at most 31 points.
fn crash_verdict(id: BenchId, variant: Variant, exp: &crate::Experiment) -> &'static str {
    let spec = fuzz_bundle_spec(id, variant, spp_pmem::FlushMode::Clwb, exp);
    let b = record_bundle(&spec);
    let check = |p, seed| b.check_crash(p, seed);
    let (_, witness) = if variant == Variant::LogPSf {
        let pts = crash_points(b.events());
        let step = (pts.len() / VERDICT_POINTS).max(1);
        first_violation(pts.into_iter().step_by(step), check)
    } else {
        first_violation(0..=b.events().len(), check)
    };
    if witness.is_some() {
        "violation"
    } else {
        "recovers"
    }
}

fn run_one(
    h: &Harness,
    id: BenchId,
    variant: Variant,
    fault: Option<FaultSpec>,
    sp: bool,
) -> Result<Outcome, CellError> {
    let t = h.trace(TraceKey::new(id, variant, &h.exp));
    let mut cpu = if sp {
        CpuConfig::with_sp()
    } else {
        CpuConfig::baseline()
    };
    cpu.mem.fault = fault;
    match Simulator::new(&t.events).config(cpu).run() {
        Ok(r) => Ok(Outcome {
            cycles: r.cpu.cycles,
            classes: committed_classes(&r),
            faults: r.faults,
        }),
        Err(e) => Err(CellError::from_sim(&e)),
    }
}

/// One supervised `(benchmark, variant)` pair: two fault-free and four
/// faulted simulations (shared across the two plans) plus the bounded
/// crash verdict, yielding one [`Cell`] per plan. A typed
/// [`spp_cpu::SimError`] anywhere inside propagates as a [`CellError`]
/// so the supervisor can degrade the pair.
fn run_pair(
    h: &Harness,
    id: BenchId,
    v: Variant,
    inject_panic: Option<(BenchId, Variant)>,
) -> Result<Vec<Cell>, CellError> {
    if inject_panic == Some((id, v)) {
        panic!("injected pair fault: {} {}", id.abbrev(), variant_key(v));
    }
    let plans = plans(h.exp.seed);
    let clean_base = run_one(h, id, v, None, false)?;
    let clean_sp = run_one(h, id, v, None, true)?;
    let t = h.trace(TraceKey::new(id, v, &h.exp));
    let reference = trace_classes(&t.counts);
    let verdict = if v == Variant::Base {
        "n/a"
    } else {
        crash_verdict(id, v, &h.exp)
    };
    let verdict_ok = match v {
        Variant::Base => verdict == "n/a",
        Variant::LogPSf => verdict == "recovers",
        Variant::Log | Variant::LogP => verdict == "violation",
    };
    let mut cells = Vec::with_capacity(plans.len());
    for (plan, spec) in plans {
        let fb = run_one(h, id, v, Some(spec), false)?;
        let fs = run_one(h, id, v, Some(spec), true)?;
        let state_ok = [&clean_base, &clean_sp, &fb, &fs]
            .iter()
            .all(|o| o.classes == reference);
        cells.push(Cell {
            id,
            variant: v,
            plan,
            base_cycles: clean_base.cycles,
            base_cycles_faulted: fb.cycles,
            sp_cycles: clean_sp.cycles,
            sp_cycles_faulted: fs.cycles,
            faults_injected: fb.faults.total() + fs.faults.total(),
            extra_cycles: fb.faults.extra_cycles + fs.faults.extra_cycles,
            state_ok,
            verdict,
            verdict_ok,
        });
    }
    Ok(cells)
}

fn watchdog_leg(h: &Harness) -> WatchdogReport {
    let id = BenchId::LinkedList;
    let t = h.trace(TraceKey::new(id, Variant::LogPSf, &h.exp));
    let cpu = CpuConfig {
        watchdog_cycles: WATCHDOG_DEMO_BOUND,
        ..CpuConfig::baseline()
    };
    match Simulator::new(&t.events).config(cpu).run() {
        Err(e) => {
            let fired = matches!(e.kind, SimErrorKind::NoRetireProgress { .. });
            let snapshot_populated = e.snapshot.cycle > 0 && e.snapshot.rob_len > 0;
            WatchdogReport {
                id,
                bound: WATCHDOG_DEMO_BOUND,
                fired,
                cycle: e.snapshot.cycle,
                rob_len: e.snapshot.rob_len,
                detail: e.to_string(),
                ok: fired && snapshot_populated,
            }
        }
        Ok(r) => WatchdogReport {
            id,
            bound: WATCHDOG_DEMO_BOUND,
            fired: false,
            cycle: r.cpu.cycles,
            rob_len: 0,
            detail: "run completed; watchdog never fired".to_string(),
            ok: false,
        },
    }
}

/// Everything besides scale/seed that determines a cell's result,
/// folded into its key.
fn config_hash(exp: &crate::Experiment) -> u64 {
    let ps = plans(exp.seed);
    spp_pmem::hash64(
        format!(
            "faultsim;plans={:#x},{:#x};points={VERDICT_POINTS};seeds={SEEDS_PER_POINT};wd={WATCHDOG_DEMO_BOUND}",
            ps[0].1.seed, ps[1].1.seed
        )
        .as_bytes(),
    )
}

/// The key a failed `(benchmark, variant)` pair is reported under.
fn pair_key(id: BenchId, v: Variant, exp: &crate::Experiment) -> String {
    format!(
        "faultsim/{}/{}/s{}/x{:016x}/clwb/c{:016x}",
        id.abbrev(),
        variant_key(v),
        exp.scale,
        exp.seed,
        config_hash(exp)
    )
}

/// The key a failed watchdog-detection leg is reported under.
fn watchdog_key(exp: &crate::Experiment) -> String {
    format!(
        "faultsim/watchdog/{}/s{}/x{:016x}/b{}/c{:016x}",
        BenchId::LinkedList.abbrev(),
        exp.scale,
        exp.seed,
        WATCHDOG_DEMO_BOUND,
        config_hash(exp)
    )
}

/// One supervised unit of the faultsim matrix.
enum CellTask {
    Pair(BenchId, Variant),
    Watchdog,
}

/// The watchdog leg's report before it runs.
fn unrun_watchdog() -> WatchdogReport {
    WatchdogReport {
        id: BenchId::LinkedList,
        bound: WATCHDOG_DEMO_BOUND,
        fired: false,
        cycle: 0,
        rob_len: 0,
        detail: "watchdog leg did not run".to_string(),
        ok: false,
    }
}

/// A supervised unit's value.
enum CellValue {
    Pair(Vec<Cell>),
    Watchdog(WatchdogReport),
}

/// One cell as a JSON object, the report's `cells` element.
impl Record for Cell {
    fn fields(&self, f: &mut Fields) {
        f.str("bench", self.id.abbrev());
        f.str("variant", variant_key(self.variant));
        f.str("plan", self.plan);
        f.int("base_cycles", self.base_cycles);
        f.int("base_cycles_faulted", self.base_cycles_faulted);
        f.int("sp_cycles", self.sp_cycles);
        f.int("sp_cycles_faulted", self.sp_cycles_faulted);
        f.int("faults", self.faults_injected);
        f.int("extra_cycles", self.extra_cycles);
        f.flag("state_ok", self.state_ok);
        f.str("verdict", self.verdict);
        f.flag("verdict_ok", self.verdict_ok);
    }
}

/// The watchdog leg as a JSON object, the report's `watchdog` field.
impl Record for WatchdogReport {
    fn fields(&self, f: &mut Fields) {
        f.str("bench", self.id.abbrev());
        f.int("bound", self.bound);
        f.flag("fired", self.fired);
        f.int("cycle", self.cycle);
        f.int("rob_len", self.rob_len as u64);
        f.str("detail", &self.detail);
        f.flag("ok", self.ok);
    }
}

/// Runs the faultsim matrix on [`run_cells`].
///
/// Each `(benchmark, variant)` pair — six simulations plus the bounded
/// crash verdict — and the watchdog leg is one supervised cell: panic-
/// isolated, and degraded to a keyed per-cell failure record when it
/// fails. Results come back in input order, so the report is
/// byte-identical at any `--jobs` value.
pub fn run_faultsim_opts(h: &Harness, opts: FaultsimOpts) -> FaultReport {
    let mut tasks: Vec<CellTask> = BenchId::ALL
        .iter()
        .flat_map(|&id| VARIANTS.iter().map(move |&v| CellTask::Pair(id, v)))
        .collect();
    tasks.push(CellTask::Watchdog);
    let results = run_cells(h.jobs, &tasks, |_, t| match t {
        CellTask::Pair(id, v) => run_pair(h, *id, *v, opts.inject_panic).map(CellValue::Pair),
        CellTask::Watchdog => Ok(CellValue::Watchdog(watchdog_leg(h))),
    });
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut watchdog = unrun_watchdog();
    for (r, t) in results.into_iter().zip(&tasks) {
        match r {
            Ok(CellValue::Pair(mut cs)) => cells.append(&mut cs),
            Ok(CellValue::Watchdog(w)) => watchdog = w,
            Err(e) => {
                let key = match t {
                    CellTask::Pair(id, v) => pair_key(*id, *v, &h.exp),
                    CellTask::Watchdog => {
                        watchdog.detail = e.reason.clone();
                        watchdog_key(&h.exp)
                    }
                };
                failures.push(CellFailure {
                    key,
                    reason: e.reason,
                    snapshot: e.snapshot,
                });
            }
        }
    }
    FaultReport {
        exp: h.exp,
        cells,
        failures,
        watchdog,
    }
}

impl FaultReport {
    /// Faults injected across every `storm` cell (the sweep is vacuous
    /// if the adversarial plan never fires).
    pub fn storm_faults(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.plan == "storm")
            .map(|c| c.faults_injected)
            .sum()
    }

    /// Cells whose faulted cycle counts differ from the fault-free
    /// reference (proof the injected faults actually perturb timing).
    pub fn perturbed_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                c.base_cycles_faulted != c.base_cycles || c.sp_cycles_faulted != c.sp_cycles
            })
            .count()
    }

    /// Did every cell keep state and verdict invariant, did no pair
    /// fail, did the storm plan actually inject
    /// and perturb, and did the watchdog leg detect its wedged run?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.state_ok && c.verdict_ok)
            && self.failures.is_empty()
            && self.watchdog.ok
            && self.storm_faults() > 0
            && self.perturbed_cells() > 0
    }

    /// The human-readable report (deterministic; stdout-destined).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let plans = plans(self.exp.seed);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== faultsim (scale 1/{}, seed {:#x}, plans {}) ==",
            self.exp.scale,
            self.exp.seed,
            plans.iter().map(|(n, _)| *n).collect::<Vec<_>>().join("/")
        );
        let _ = writeln!(
            s,
            "{:<5} {:<7} {:<6} {:>12} {:>12} {:>12} {:>12} {:>7} {:<9} state",
            "bench",
            "variant",
            "plan",
            "base",
            "base+fault",
            "sp256",
            "sp256+fault",
            "faults",
            "verdict"
        );
        for c in &self.cells {
            let state = if c.state_ok {
                "ok".to_string()
            } else {
                "FAIL: committed state diverged".to_string()
            };
            let verdict = if c.verdict_ok {
                c.verdict.to_string()
            } else {
                format!("FAIL:{}", c.verdict)
            };
            let _ = writeln!(
                s,
                "{:<5} {:<7} {:<6} {:>12} {:>12} {:>12} {:>12} {:>7} {:<9} {}",
                c.id.abbrev(),
                variant_key(c.variant),
                c.plan,
                c.base_cycles,
                c.base_cycles_faulted,
                c.sp_cycles,
                c.sp_cycles_faulted,
                c.faults_injected,
                verdict,
                state
            );
        }
        for f in &self.failures {
            let _ = writeln!(s, "cell {}: FAILED: {}", f.key, f.reason);
        }
        let w = &self.watchdog;
        let _ = writeln!(
            s,
            "watchdog leg ({} logpsf, bound {}): {}",
            w.id.abbrev(),
            w.bound,
            if w.ok {
                format!("ok: fired at cycle {} (rob {})", w.cycle, w.rob_len)
            } else {
                format!("FAIL: {}", w.detail)
            }
        );
        let _ = writeln!(
            s,
            "faultsim: {} ({} cells, {} failed, {} faults under storm, {} cells perturbed)",
            if self.ok() { "PASS" } else { "FAIL" },
            self.cells.len(),
            self.failures.len(),
            self.storm_faults(),
            self.perturbed_cells()
        );
        s
    }

    /// The machine-readable report.
    pub fn render_json(&self) -> String {
        let plan_list = plans(self.exp.seed).into_iter().map(|(name, spec)| {
            let mut o = JsonObject::new();
            o.str("name", name).int("seed", spec.seed);
            o.render()
        });
        crate::schema::emit(crate::schema::FAULTSIM, |root| {
            root.int("scale", self.exp.scale)
                .int("seed", self.exp.seed)
                .int("ok", self.ok().into())
                .raw("plans", array(plan_list))
                .raw("cells", array(self.cells.iter().map(json::encode)))
                .raw("failures", array(self.failures.iter().map(json::encode)))
                .raw("watchdog", json::encode(&self.watchdog));
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Experiment;

    fn smoke_harness(jobs: usize) -> Harness {
        Harness::new(
            Experiment {
                scale: 2400,
                seed: 7,
            },
            jobs,
        )
    }

    #[test]
    fn invariance_holds_across_the_matrix_at_smoke_scale() {
        let rep = run_faultsim_opts(&smoke_harness(4), FaultsimOpts::default());
        assert_eq!(rep.cells.len(), 7 * 4 * 2, "bench x variant x plan");
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        for c in &rep.cells {
            assert!(
                c.state_ok,
                "{} {} {}: committed state diverged",
                c.id, c.variant, c.plan
            );
            assert!(
                c.verdict_ok,
                "{} {} {}: verdict {}",
                c.id, c.variant, c.plan, c.verdict
            );
        }
        // Non-vacuity: the adversarial plan must actually fire and move
        // cycle counts somewhere in the matrix.
        assert!(rep.storm_faults() > 0, "storm plan never injected");
        assert!(
            rep.perturbed_cells() > 0,
            "faults never moved a cycle count"
        );
        assert!(rep.ok());
    }

    #[test]
    fn watchdog_leg_converts_stall_into_typed_error() {
        let rep = run_faultsim_opts(&smoke_harness(4), FaultsimOpts::default());
        let w = &rep.watchdog;
        assert!(
            w.fired,
            "watchdog must fire under a {}-cycle bound",
            w.bound
        );
        assert!(w.ok, "snapshot not populated: {}", w.detail);
        assert!(w.detail.contains("no retirement progress"), "{}", w.detail);
        assert!(w.detail.contains("rob"), "snapshot missing: {}", w.detail);
        assert!(w.cycle > 0);
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let a = run_faultsim_opts(&smoke_harness(1), FaultsimOpts::default());
        let b = run_faultsim_opts(&smoke_harness(8), FaultsimOpts::default());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.ok());
    }

    #[test]
    fn json_shape_is_balanced_and_keyed() {
        let rep = run_faultsim_opts(&smoke_harness(4), FaultsimOpts::default());
        let j = rep.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"schema\":\"specpersist/faultsim-v1\"",
            "\"plans\"",
            "\"cells\"",
            "\"failures\"",
            "\"watchdog\"",
            "\"verdict\"",
            "\"extra_cycles\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        crate::json::parse(&j).expect("report must parse");
    }

    #[test]
    fn failed_pair_degrades_to_failed_record_while_others_report() {
        let h = smoke_harness(4);
        let rep = run_faultsim_opts(
            &h,
            FaultsimOpts {
                inject_panic: Some((BenchId::LinkedList, Variant::Log)),
            },
        );
        // The injected pair degrades; every other pair still reports.
        assert_eq!(rep.cells.len(), (7 * 4 - 1) * 2);
        assert_eq!(rep.failures.len(), 1);
        let f = &rep.failures[0];
        assert!(
            f.key.contains(&format!(
                "/{}/{}/",
                BenchId::LinkedList.abbrev(),
                variant_key(Variant::Log)
            )),
            "{}",
            f.key
        );
        assert!(f.reason.contains("injected pair fault"), "{}", f.reason);
        assert!(!rep.ok(), "a degraded pair must fail the report");
        let text = rep.render_text();
        assert!(
            text.contains(&format!(
                "cell {}: FAILED: panic: injected pair fault",
                f.key
            )),
            "{text}"
        );
        assert!(text.contains("faultsim: FAIL"), "{text}");
        let json = rep.render_json();
        assert!(json.contains("injected pair fault"), "{json}");
        crate::json::parse(&json).expect("report must parse");
    }
}
