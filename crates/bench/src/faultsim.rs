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
//!   trace itself. Only cycle counts may move. The fault-free pair of
//!   runs is the SP differential: speculation may only move cycles,
//!   never architectural work. Crash-recovery verdicts are a function
//!   of the recorded trace alone, so `repro crashfuzz` owns them.
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
//! The matrix runs on [`run_indexed`]: each `(benchmark, variant)` pair
//! is one cell (six simulations). A pair whose simulation returns a
//! typed [`spp_cpu::SimError`] becomes a `failures` record named
//! `faultsim/{bench}/{variant}` and carrying the diagnostic snapshot;
//! every other pair still reports. The injected faults are part of the
//! pair's inputs, so a failing pair fails the same way on every run.

use spp_cpu::{CpuConfig, SimError, SimErrorKind, SimResult, Simulator};
use spp_mem::{FaultSpec, FaultStats};
use spp_pmem::{TraceCounts, Variant};
use spp_workloads::BenchId;

use crate::json::{array, JsonObject};
use crate::{run_indexed, variant_key, CellFailure, Experiment, Harness, TraceKey};

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
    pub exp: Experiment,
    /// Per-cell results, in deterministic matrix order (failed pairs
    /// are absent here and present in [`FaultReport::failures`]).
    pub cells: Vec<Cell>,
    /// Pairs whose simulation returned a typed error, each carrying
    /// its diagnostic snapshot, in matrix order. Any entry here fails
    /// the report.
    pub failures: Vec<CellFailure>,
    /// The watchdog-detection leg.
    pub watchdog: WatchdogReport,
}

/// A run's committed micro-op classes: total, loads, stores, flushes,
/// pcommits and fences.
fn committed_classes(r: &SimResult) -> [u64; 6] {
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
fn trace_classes(c: &TraceCounts) -> [u64; 6] {
    [
        c.total(),
        c.loads,
        c.stores,
        c.flushes,
        c.pcommits,
        c.fences,
    ]
}

fn run_one(
    h: &Harness,
    id: BenchId,
    variant: Variant,
    fault: Option<FaultSpec>,
    sp: bool,
) -> Result<Outcome, SimError> {
    let t = h.trace(TraceKey::new(id, variant, &h.exp));
    let mut cpu = if sp {
        CpuConfig::with_sp()
    } else {
        CpuConfig::baseline()
    };
    cpu.mem.fault = fault;
    let r = Simulator::new(&t.events).config(cpu).run()?;
    Ok(Outcome {
        cycles: r.cpu.cycles,
        classes: committed_classes(&r),
        faults: r.faults,
    })
}

/// One `(benchmark, variant)` pair: two fault-free and four faulted
/// simulations (shared across the two plans), yielding one [`Cell`]
/// per plan. The first typed [`SimError`] inside fails the whole pair.
fn run_pair(h: &Harness, id: BenchId, v: Variant) -> Result<Vec<Cell>, SimError> {
    let plans = plans(h.exp.seed);
    let clean_base = run_one(h, id, v, None, false)?;
    let clean_sp = run_one(h, id, v, None, true)?;
    let t = h.trace(TraceKey::new(id, v, &h.exp));
    let reference = trace_classes(&t.counts);
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

impl Cell {
    /// The cell as one JSON object, the report's `cells` element.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("bench", self.id.abbrev())
            .str("variant", variant_key(self.variant))
            .str("plan", self.plan)
            .int("base_cycles", self.base_cycles)
            .int("base_cycles_faulted", self.base_cycles_faulted)
            .int("sp_cycles", self.sp_cycles)
            .int("sp_cycles_faulted", self.sp_cycles_faulted)
            .int("faults", self.faults_injected)
            .int("extra_cycles", self.extra_cycles)
            .flag("state_ok", self.state_ok);
        o.render()
    }
}

impl WatchdogReport {
    /// The watchdog leg as one JSON object, the report's `watchdog`
    /// field.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("bench", self.id.abbrev())
            .int("bound", self.bound)
            .flag("fired", self.fired)
            .int("cycle", self.cycle)
            .int("rob_len", self.rob_len as u64)
            .str("detail", &self.detail)
            .flag("ok", self.ok);
        o.render()
    }
}

/// Runs the faultsim matrix: every `(benchmark, variant)` pair — six
/// simulations — on [`run_indexed`], then the watchdog leg. Results
/// come back in input order, so the report is byte-identical at any
/// `--jobs` value.
pub fn run_faultsim(h: &Harness) -> FaultReport {
    let pairs: Vec<(BenchId, Variant)> = BenchId::ALL
        .iter()
        .flat_map(|&id| VARIANTS.iter().map(move |&v| (id, v)))
        .collect();
    let results = run_indexed(h.jobs, &pairs, |_, &(id, v)| run_pair(h, id, v));
    FaultReport::new(h.exp, pairs.into_iter().zip(results), watchdog_leg(h))
}

impl FaultReport {
    /// Assembles the report from each pair's outcome, in matrix order:
    /// a pair whose simulation returned a [`SimError`] becomes a
    /// [`CellFailure`] carrying the error's diagnostic snapshot.
    fn new(
        exp: Experiment,
        pairs: impl IntoIterator<Item = ((BenchId, Variant), Result<Vec<Cell>, SimError>)>,
        watchdog: WatchdogReport,
    ) -> Self {
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        for ((id, v), r) in pairs {
            match r {
                Ok(mut cs) => cells.append(&mut cs),
                Err(e) => failures.push(CellFailure {
                    key: format!("faultsim/{}/{}", id.abbrev(), variant_key(v)),
                    reason: e.to_string(),
                    snapshot: Some(e.snapshot.to_json()),
                }),
            }
        }
        FaultReport {
            exp,
            cells,
            failures,
            watchdog,
        }
    }

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

    /// Did every cell keep state invariant, did no pair fail, did the
    /// storm plan actually inject and perturb, and did the watchdog leg
    /// detect its wedged run?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.state_ok)
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
            "{:<5} {:<7} {:<6} {:>12} {:>12} {:>12} {:>12} {:>7} state",
            "bench", "variant", "plan", "base", "base+fault", "sp256", "sp256+fault", "faults"
        );
        for c in &self.cells {
            let state = if c.state_ok {
                "ok".to_string()
            } else {
                "FAIL: committed state diverged".to_string()
            };
            let _ = writeln!(
                s,
                "{:<5} {:<7} {:<6} {:>12} {:>12} {:>12} {:>12} {:>7} {}",
                c.id.abbrev(),
                variant_key(c.variant),
                c.plan,
                c.base_cycles,
                c.base_cycles_faulted,
                c.sp_cycles,
                c.sp_cycles_faulted,
                c.faults_injected,
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
                .flag("ok", self.ok())
                .raw("plans", array(plan_list))
                .raw("cells", array(self.cells.iter().map(Cell::json)))
                .raw(
                    "failures",
                    array(self.failures.iter().map(CellFailure::json)),
                )
                .raw("watchdog", self.watchdog.json());
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

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
        let rep = run_faultsim(&smoke_harness(4));
        assert_eq!(rep.cells.len(), 7 * 4 * 2, "bench x variant x plan");
        assert!(rep.failures.is_empty(), "{:?}", rep.failures);
        for c in &rep.cells {
            assert!(
                c.state_ok,
                "{} {} {}: committed state diverged",
                c.id, c.variant, c.plan
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
        let w = &watchdog_leg(&smoke_harness(1));
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
        let a = run_faultsim(&smoke_harness(1));
        let b = run_faultsim(&smoke_harness(8));
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.ok());
    }

    #[test]
    fn json_shape_is_balanced_and_keyed() {
        let rep = run_faultsim(&smoke_harness(4));
        let j = rep.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"schema\":\"specpersist/faultsim-v2\"",
            "\"plans\"",
            "\"cells\"",
            "\"failures\"",
            "\"watchdog\"",
            "\"extra_cycles\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        crate::json::parse(&j).expect("report must parse");
    }

    #[test]
    fn a_pair_whose_simulation_errs_becomes_a_failed_record_while_others_report() {
        let h = smoke_harness(1);
        let healthy = (BenchId::LinkedList, Variant::Log);
        let wedged = (BenchId::LinkedList, Variant::LogPSf);
        // A real typed error, no hook: the pair's trace replayed under
        // the watchdog leg's no-retire bound.
        let t = h.trace(TraceKey::new(wedged.0, wedged.1, &h.exp));
        let cpu = CpuConfig {
            watchdog_cycles: WATCHDOG_DEMO_BOUND,
            ..CpuConfig::baseline()
        };
        let err = Simulator::new(&t.events).config(cpu).run().unwrap_err();
        let cells = run_pair(&h, healthy.0, healthy.1).unwrap();
        let pairs = || [(healthy, Ok(cells.clone())), (wedged, Err(err.clone()))];
        let clean = FaultReport::new(h.exp, pairs().into_iter().take(1), watchdog_leg(&h));
        assert!(clean.ok(), "{}", clean.render_text());

        let rep = FaultReport::new(h.exp, pairs(), watchdog_leg(&h));
        assert_eq!(rep.cells, clean.cells, "the healthy pair still reports");
        assert_eq!(rep.failures.len(), 1);
        let f = &rep.failures[0];
        assert_eq!(f.key, "faultsim/LL/logpsf");
        assert_eq!(f.reason, err.to_string());
        assert!(!rep.ok(), "a failed pair must fail the report");
        let text = rep.render_text();
        assert!(
            text.contains(&format!("cell faultsim/LL/logpsf: FAILED: {}\n", err)),
            "{text}"
        );
        assert!(text.contains("faultsim: FAIL"), "{text}");
        let json = crate::json::parse(&rep.render_json()).expect("report must parse");
        let failures = json.get("failures").and_then(|v| v.as_arr()).unwrap();
        let snapshot = failures[0].get("snapshot").unwrap();
        assert_eq!(
            Some(snapshot),
            crate::json::parse(&err.snapshot.to_json()).ok().as_ref()
        );
        assert_eq!(
            snapshot.get("cycle").and_then(|v| v.as_u64()),
            Some(err.snapshot.cycle)
        );
    }
}
