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
//! The matrix runs on the [`Supervisor`]: each `(benchmark, variant)`
//! pair is one supervised cell (six simulations plus the bounded crash
//! verdict), keyed for the journaled result manifest. With a journal
//! attached (`repro faultsim --journal … [--resume]`) completed pairs
//! replay instead of recomputing, so a killed run resumes where it
//! stopped — and because every pair is a pure function of its key, the
//! resumed report is byte-identical to an uninterrupted one. A pair
//! whose simulation panics or returns a typed [`spp_cpu::SimError`] is
//! retried on the supervisor's bounded deterministic schedule and, on
//! exhaustion, degrades to a per-cell `failed` record carrying the
//! diagnostic snapshot; every other pair still reports.

use spp_cpu::{CpuConfig, SimErrorKind, Simulator};
use spp_mem::{FaultSpec, FaultStats};
use spp_pmem::Variant;
use spp_workloads::oracle::record_bundle;
use spp_workloads::BenchId;

use crate::crashfuzz::{
    committed_classes, crash_points, first_violation, fuzz_bundle_spec, trace_classes,
    SEEDS_PER_POINT,
};
use crate::json::{array, parse, JsonObject, Value};
use crate::supervisor::{CellError, CellFailure, Supervisor};
use crate::{variant_key, Harness, Journal, TraceKey};

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
    /// Per-cell results, in deterministic matrix order (pairs that
    /// exhausted their retry budget are absent here and present in
    /// [`FaultReport::failures`]).
    pub cells: Vec<Cell>,
    /// Pairs that exhausted the supervisor's retry budget: degraded
    /// per-cell records carrying the diagnostic snapshot, in matrix
    /// order. Any entry here fails the report.
    pub failures: Vec<CellFailure>,
    /// Supervised cells served from the journal without recomputation
    /// (stderr diagnostics only — never part of the report bytes).
    pub replayed: usize,
    /// The watchdog-detection leg.
    pub watchdog: WatchdogReport,
}

/// Options for [`run_faultsim_opts`]: journal attachment, retry
/// budget, and the fault-injection hook the supervision tests use.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultsimOpts<'j> {
    /// Replay completed pairs from (and record new ones into) this
    /// journal.
    pub journal: Option<&'j Journal>,
    /// Total attempts per pair; 0 means the supervisor default.
    pub max_attempts: u32,
    /// Fault-injection hook: panic inside this pair's cell on every
    /// attempt, demonstrating retry exhaustion and per-cell
    /// degradation without touching the simulator.
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
/// so the supervisor can retry and, on exhaustion, degrade the pair.
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
/// folded into the journal key so entries written under a different
/// configuration can never replay into this run.
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

/// The journal key of one `(benchmark, variant)` pair.
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

/// The journal key of the watchdog-detection leg.
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
#[derive(Debug, Clone, Copy)]
enum CellTask {
    Pair(BenchId, Variant),
    Watchdog,
}

impl CellTask {
    /// Every unit of one run: each `(benchmark, variant)` pair, then
    /// the watchdog leg.
    fn all() -> Vec<CellTask> {
        let mut tasks: Vec<CellTask> = BenchId::ALL
            .iter()
            .flat_map(|&id| VARIANTS.iter().map(move |&v| CellTask::Pair(id, v)))
            .collect();
        tasks.push(CellTask::Watchdog);
        tasks
    }
}

/// Simulator replays one [`run_faultsim_opts`] run issues at `exp`:
/// [`run_pair`] replays both cores fault-free and then under each
/// plan; the watchdog leg is one wedged run.
pub fn stage_sims(exp: &crate::Experiment) -> usize {
    let per_pair = 2 * (1 + plans(exp.seed).len());
    CellTask::all()
        .into_iter()
        .map(|t| match t {
            CellTask::Pair(..) => per_pair,
            CellTask::Watchdog => 1,
        })
        .sum()
}

/// A supervised unit's journalled value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellValue {
    Pair(Vec<Cell>),
    Watchdog(WatchdogReport),
}

fn bench_from_abbrev(s: &str) -> Option<BenchId> {
    BenchId::ALL.iter().copied().find(|b| b.abbrev() == s)
}

fn variant_from_key(s: &str) -> Option<Variant> {
    VARIANTS.iter().copied().find(|&v| variant_key(v) == s)
}

/// Maps a decoded plan name back onto the interned `&'static str` the
/// in-process runner produces, so replayed reports are byte-identical.
fn plan_from_name(s: &str) -> Option<&'static str> {
    match s {
        "quiet" => Some("quiet"),
        "storm" => Some("storm"),
        _ => None,
    }
}

fn verdict_from_name(s: &str) -> Option<&'static str> {
    match s {
        "recovers" => Some("recovers"),
        "violation" => Some("violation"),
        "n/a" => Some("n/a"),
        _ => None,
    }
}

/// One cell as a JSON object (shared by the report and the journal
/// payload codec).
fn cell_json(c: &Cell) -> String {
    let mut o = JsonObject::new();
    o.str("bench", c.id.abbrev())
        .str("variant", variant_key(c.variant))
        .str("plan", c.plan)
        .num("base_cycles", c.base_cycles as f64)
        .num("base_cycles_faulted", c.base_cycles_faulted as f64)
        .num("sp_cycles", c.sp_cycles as f64)
        .num("sp_cycles_faulted", c.sp_cycles_faulted as f64)
        .num("faults", c.faults_injected as f64)
        .num("extra_cycles", c.extra_cycles as f64)
        .num("state_ok", u8::from(c.state_ok))
        .str("verdict", c.verdict)
        .num("verdict_ok", u8::from(c.verdict_ok));
    o.render()
}

fn decode_cell(v: &Value) -> Option<Cell> {
    Some(Cell {
        id: bench_from_abbrev(v.get("bench")?.as_str()?)?,
        variant: variant_from_key(v.get("variant")?.as_str()?)?,
        plan: plan_from_name(v.get("plan")?.as_str()?)?,
        base_cycles: v.get("base_cycles")?.as_u64()?,
        base_cycles_faulted: v.get("base_cycles_faulted")?.as_u64()?,
        sp_cycles: v.get("sp_cycles")?.as_u64()?,
        sp_cycles_faulted: v.get("sp_cycles_faulted")?.as_u64()?,
        faults_injected: v.get("faults")?.as_u64()?,
        extra_cycles: v.get("extra_cycles")?.as_u64()?,
        state_ok: v.get("state_ok")?.as_u64()? != 0,
        verdict: verdict_from_name(v.get("verdict")?.as_str()?)?,
        verdict_ok: v.get("verdict_ok")?.as_u64()? != 0,
    })
}

/// The watchdog leg as a JSON object (shared by the report and the
/// journal payload codec).
fn watchdog_json(w: &WatchdogReport) -> String {
    let mut o = JsonObject::new();
    o.str("bench", w.id.abbrev())
        .num("bound", w.bound as f64)
        .num("fired", u8::from(w.fired))
        .num("cycle", w.cycle as f64)
        .num("rob_len", w.rob_len as f64)
        .str("detail", &w.detail)
        .num("ok", u8::from(w.ok));
    o.render()
}

fn encode_cell_value(v: &CellValue) -> String {
    let mut o = JsonObject::new();
    match v {
        CellValue::Pair(cells) => o.raw("cells", array(cells.iter().map(cell_json))),
        CellValue::Watchdog(w) => o.raw("watchdog", watchdog_json(w)),
    };
    o.render()
}

fn decode_cell_value(payload: &str) -> Option<CellValue> {
    let v = parse(payload).ok()?;
    if let Some(cells) = v.get("cells") {
        let arr = cells.as_arr()?;
        let mut out = Vec::with_capacity(arr.len());
        for c in arr {
            out.push(decode_cell(c)?);
        }
        return Some(CellValue::Pair(out));
    }
    let w = v.get("watchdog")?;
    Some(CellValue::Watchdog(WatchdogReport {
        id: bench_from_abbrev(w.get("bench")?.as_str()?)?,
        bound: w.get("bound")?.as_u64()?,
        fired: w.get("fired")?.as_u64()? != 0,
        cycle: w.get("cycle")?.as_u64()?,
        rob_len: w.get("rob_len")?.as_u64()? as usize,
        detail: w.get("detail")?.as_str()?.to_string(),
        ok: w.get("ok")?.as_u64()? != 0,
    }))
}

/// Runs the faultsim matrix under the [`Supervisor`].
///
/// Each `(benchmark, variant)` pair — six simulations plus the bounded
/// crash verdict — and the watchdog leg is one supervised cell: panic-
/// isolated, retried on the bounded deterministic schedule, journalled
/// under `opts.journal` when one is attached, and degraded to a
/// per-cell failure record on retry exhaustion. Outcomes come back in
/// input order, so the report is byte-identical at any `--jobs` value
/// and across interrupted-then-resumed vs. uninterrupted runs.
pub fn run_faultsim_opts(h: &Harness, opts: FaultsimOpts<'_>) -> FaultReport {
    let tasks = CellTask::all();
    let sup = Supervisor {
        jobs: h.jobs,
        max_attempts: if opts.max_attempts == 0 {
            crate::supervisor::MAX_ATTEMPTS
        } else {
            opts.max_attempts
        },
        journal: opts.journal,
    };
    let outcomes = sup.run_cells(
        &tasks,
        |_, t| match t {
            CellTask::Pair(id, v) => pair_key(*id, *v, &h.exp),
            CellTask::Watchdog => watchdog_key(&h.exp),
        },
        |_, t| match t {
            CellTask::Pair(id, v) => run_pair(h, *id, *v, opts.inject_panic).map(CellValue::Pair),
            CellTask::Watchdog => Ok(CellValue::Watchdog(watchdog_leg(h))),
        },
        encode_cell_value,
        |_, payload| decode_cell_value(payload),
    );
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut replayed = 0;
    let mut watchdog = WatchdogReport {
        id: BenchId::LinkedList,
        bound: WATCHDOG_DEMO_BOUND,
        fired: false,
        cycle: 0,
        rob_len: 0,
        detail: "watchdog leg did not run".to_string(),
        ok: false,
    };
    for (o, t) in outcomes.into_iter().zip(&tasks) {
        if o.replayed {
            replayed += 1;
        }
        match o.result {
            Ok(CellValue::Pair(mut cs)) => cells.append(&mut cs),
            Ok(CellValue::Watchdog(w)) => watchdog = w,
            Err(f) => {
                if matches!(t, CellTask::Watchdog) {
                    watchdog.detail = f.reason.clone();
                }
                failures.push(f);
            }
        }
    }
    FaultReport {
        exp: h.exp,
        cells,
        failures,
        replayed,
        watchdog,
    }
}

/// Runs the faultsim matrix with default supervision (no journal, the
/// default retry budget, no injected faults).
pub fn run_faultsim(h: &Harness) -> FaultReport {
    run_faultsim_opts(h, FaultsimOpts::default())
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
    /// exhaust its retry budget, did the storm plan actually inject
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
            let _ = writeln!(
                s,
                "cell {}: FAILED after {} attempts: {}",
                f.key, f.attempts, f.reason
            );
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
            o.str("name", name).num("seed", spec.seed as f64);
            o.render()
        });
        crate::schema::emit(crate::schema::FAULTSIM, |root| {
            root.num("scale", self.exp.scale as f64)
                .num("seed", self.exp.seed as f64)
                .num("ok", u8::from(self.ok()))
                .raw("plans", array(plan_list))
                .raw("cells", array(self.cells.iter().map(cell_json)))
                .raw("failures", array(self.failures.iter().map(|f| f.to_json())))
                .raw("watchdog", watchdog_json(&self.watchdog));
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
        let rep = run_faultsim(&smoke_harness(4));
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
        let rep = run_faultsim(&smoke_harness(4));
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
    fn exhausted_pair_degrades_to_failed_record_while_others_report() {
        let h = smoke_harness(4);
        let rep = run_faultsim_opts(
            &h,
            FaultsimOpts {
                inject_panic: Some((BenchId::LinkedList, Variant::Log)),
                max_attempts: 2,
                ..FaultsimOpts::default()
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
        assert_eq!(f.attempts, 2, "retry budget consumed");
        assert!(f.reason.contains("injected pair fault"), "{}", f.reason);
        assert!(!rep.ok(), "a degraded pair must fail the report");
        let text = rep.render_text();
        assert!(text.contains("FAILED after 2 attempts"), "{text}");
        assert!(text.contains("faultsim: FAIL"), "{text}");
        let json = rep.render_json();
        assert!(json.contains("injected pair fault"), "{json}");
        crate::json::parse(&json).expect("report must parse");
    }

    #[test]
    fn journaled_rerun_replays_byte_identically() {
        let mut p = std::env::temp_dir();
        p.push(format!("spp-faultsim-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let h = smoke_harness(2);
        let (text, json);
        {
            let j = Journal::open(&p).unwrap();
            let rep = run_faultsim_opts(
                &h,
                FaultsimOpts {
                    journal: Some(&j),
                    ..FaultsimOpts::default()
                },
            );
            assert_eq!(rep.replayed, 0, "first run computes everything");
            assert!(rep.ok());
            text = rep.render_text();
            json = rep.render_json();
        }
        let j = Journal::open(&p).unwrap();
        assert!(j.corrupt().is_empty(), "{:?}", j.corrupt());
        let rep = run_faultsim_opts(
            &h,
            FaultsimOpts {
                journal: Some(&j),
                ..FaultsimOpts::default()
            },
        );
        assert_eq!(rep.replayed, 7 * 4 + 1, "every cell replays");
        assert_eq!(rep.render_text(), text, "replayed stdout byte-identical");
        assert_eq!(rep.render_json(), json);
        std::fs::remove_file(&p).unwrap();
    }
}
