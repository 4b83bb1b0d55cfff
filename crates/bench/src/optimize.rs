//! `repro optimize` — the persist-path trace optimizer.
//!
//! The paper hides persist-barrier latency speculatively; this module
//! works the complementary lever and *removes* redundant persist
//! operations outright. [`analyze`] runs [`spp_pmem::Frontier`] — the
//! writeback-pipeline machine (`issued -> (sfence) -> ordered ->
//! (pcommit) -> in-flight -> (sfence) -> guaranteed`) that
//! [`spp_pmem::CrashSim`] is built on — over a recorded trace and
//! classifies every flush and fence from the stage merges it reports:
//!
//! * **duplicate flush** — a flush whose pipeline entry is overwritten
//!   or max-merged away by a later flush of the same line before its
//!   stage drains; only the `guaranteed` stage ever affects a crash
//!   image, so the loser contributes nothing at any crash point;
//! * **uncovered flush** — a flush that never completes the
//!   `flush; sfence; pcommit; sfence` dance, so its line never reaches
//!   the `guaranteed` frontier (the whole `Log+P` build is this case);
//! * **empty fence** — an `sfence`/`mfence` whose `issued` and
//!   `in-flight` sets are both empty: it drains nothing.
//!
//! The elisions form an [`ElisionPlan`]; [`apply`] rewrites the trace
//! without the elided events, and [`plan_preserves_guarantees`] proves
//! the event-level safety lemma: at every persist boundary of the
//! original trace, every block's guaranteed-store frontier is identical
//! in the optimized trace. On top of that, the study replays the
//! before/after traces on both cores through the event-driven simulator
//! *and* the frozen [`ReferencePipeline`] (cycle parity, stall profile
//! reconciled against the spp-obs collector), proves safety end to end
//! by running the crashfuzz recovery oracle at every persist boundary
//! of an optimized `Log+P+Sf` bundle, and runs the inverted leg —
//! eliding the *required* flushes instead — which must be caught by the
//! same oracle. Both legs scan their schedules with
//! [`crate::crashfuzz::first_violation`].
//!
//! The study's cells run on [`run_indexed`], in input order, so the
//! report is byte-identical at any `--jobs`. A replay whose simulation
//! returns a typed error is a failed cell carrying that error.

use std::collections::{BTreeMap, HashMap, HashSet};

use spp_cpu::{CpuConfig, ReferencePipeline, Simulator};
use spp_obs::{Collector, ProbeHandle};
use spp_pmem::{persist_boundaries, CrashIndex, Event, FlushMode, FlushStage, Frontier, Variant};
use spp_workloads::oracle::record_bundle;
use spp_workloads::BenchId;

use crate::crashfuzz::{crash_points, first_violation, fuzz_bundle_spec, Witness, SEEDS_PER_POINT};
use crate::json::{self, JsonObject};
use crate::profile::stalls_reconcile;
use crate::schema;
use crate::{run_indexed, variant_key, Harness, TraceKey};

// --- the detector -----------------------------------------------------

/// Why an event is elidable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElisionKind {
    /// A flush of a line that a later flush of the same line subsumes
    /// before the stage drains.
    DuplicateFlush,
    /// A flush whose line never reaches the guaranteed frontier — no
    /// persist barrier ever covers it.
    UncoveredFlush,
    /// A fence whose `issued` and `in-flight` sets are both empty.
    EmptyFence,
}

impl ElisionKind {
    /// Kebab key for reports and JSON.
    pub fn key(self) -> &'static str {
        match self {
            ElisionKind::DuplicateFlush => "duplicate-flush",
            ElisionKind::UncoveredFlush => "uncovered-flush",
            ElisionKind::EmptyFence => "empty-fence",
        }
    }
}

/// One elidable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elision {
    /// Index into the analyzed event stream.
    pub idx: usize,
    /// Why it is removable.
    pub kind: ElisionKind,
}

/// The detector's verdict over one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionPlan {
    /// Every elidable event, sorted by trace index.
    pub elisions: Vec<Elision>,
    /// Flush indices the model marks *required*: they won a merge into
    /// the guaranteed frontier, so removing any of them weakens a
    /// durability guarantee (the inverted safety leg elides exactly
    /// these and must be caught).
    pub required: Vec<usize>,
    /// Flush events in the trace.
    pub flushes: u64,
    /// Fence events in the trace.
    pub fences: u64,
}

impl ElisionPlan {
    /// Elisions of one kind.
    pub fn count(&self, kind: ElisionKind) -> u64 {
        self.elisions.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// No elision found.
    pub fn is_empty(&self) -> bool {
        self.elisions.is_empty()
    }
}

/// How far a flush got through the writeback pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Still riding a pipeline stage (uncovered if it ends there).
    Pending,
    /// Entered the guaranteed frontier as a winner: load-bearing.
    Required,
    /// Overwritten or max-merged away before its stage drained.
    Subsumed,
}

/// Runs [`spp_pmem::Frontier`] — the writeback-pipeline machine
/// [`spp_pmem::CrashSim`] reconstructs crash images with — over
/// `events` and proposes the minimal elision plan, reading per-block
/// store counts from the trace's [`CrashIndex`]. Each stage merge the
/// machine reports marks its loser subsumed (stage maps never touch
/// crash images, so only the surviving maximum can ever matter), so the
/// classification is exact with respect to the crash model: an elided
/// event provably never moves any block's guaranteed *store* frontier
/// at any crash point ([`plan_preserves_guarantees`] re-proves this per
/// trace, and the study's oracle leg re-proves it against full
/// recovery). A flush is only `required` when it strictly extends the
/// number of its block's stores that are certainly durable — a flush
/// that wins the guaranteed merge without covering any new store (the
/// line was clean, or an earlier guaranteed flush already covered the
/// same stores) persists nothing and is elidable too.
pub fn analyze(events: &[Event]) -> ElisionPlan {
    let index = CrashIndex::new(events);
    let mut marks: HashMap<usize, Mark> = HashMap::new();
    let mut empty_fences: Vec<usize> = Vec::new();
    let mut frontier = Frontier::default();
    let mut flushes = 0u64;
    let mut fences = 0u64;

    for (idx, ev) in events.iter().enumerate() {
        if matches!(
            ev,
            Event::Clwb { .. } | Event::ClflushOpt { .. } | Event::Clflush { .. }
        ) {
            flushes += 1;
            marks.insert(idx, Mark::Pending);
        } else if ev.is_fence() {
            fences += 1;
            if frontier.fence_is_empty() {
                empty_fences.push(idx);
            }
        }
        frontier.step(idx, ev, |stage, b, i, held| {
            let (flush, mark) = match held {
                Some(old) if i <= old => (i, Mark::Subsumed),
                // Required only when the new frontier covers a store the
                // old one did not (a first guaranteed flush of a clean
                // line persists nothing); the old winner keeps the mark
                // it earned.
                _ if stage == FlushStage::Guaranteed => {
                    let before = held.map_or(0, |old| index.stores_before(b, old));
                    if index.stores_before(b, i) > before {
                        (i, Mark::Required)
                    } else {
                        (i, Mark::Subsumed)
                    }
                }
                Some(old) => (old, Mark::Subsumed),
                None => return,
            };
            marks.insert(flush, mark);
        });
    }

    let mut elisions = Vec::new();
    let mut required = Vec::new();
    for (&idx, &mark) in &marks {
        let kind = match mark {
            Mark::Required => {
                required.push(idx);
                continue;
            }
            Mark::Subsumed => ElisionKind::DuplicateFlush,
            Mark::Pending => ElisionKind::UncoveredFlush,
        };
        elisions.push(Elision { idx, kind });
    }
    elisions.extend(empty_fences.iter().map(|&idx| Elision {
        idx,
        kind: ElisionKind::EmptyFence,
    }));
    elisions.sort_unstable_by_key(|e| e.idx);
    required.sort_unstable();
    ElisionPlan {
        elisions,
        required,
        flushes,
        fences,
    }
}

/// Rewrites `events` without the plan's elided indices. Stores, loads,
/// compute and transaction markers are never elided, so the optimized
/// trace performs the same architectural work.
pub fn apply(events: &[Event], plan: &ElisionPlan) -> Vec<Event> {
    let elide: HashSet<usize> = plan.elisions.iter().map(|e| e.idx).collect();
    events
        .iter()
        .enumerate()
        .filter(|(i, _)| !elide.contains(i))
        .map(|(_, ev)| *ev)
        .collect()
}

/// The guaranteed-store profile of a trace at each of `boundaries`
/// (ascending): for every block, how many of its stores (in per-block
/// order) are certainly durable at that crash point. One sweep over the
/// [`CrashIndex`]'s guarantee changes, the per-block snapshot updated on
/// each, so the whole sweep is `O(n log n)` rather than one crash
/// simulation per boundary.
fn guarantee_profile(events: &[Event], boundaries: &[usize]) -> Vec<BTreeMap<u64, usize>> {
    let index = CrashIndex::new(events);
    let changes = index.guarantee_changes();
    let mut pending = changes.iter().peekable();
    // Live snapshot of covered-store counts per guaranteed block,
    // cloned out at each boundary.
    let mut snapshot: BTreeMap<u64, usize> = BTreeMap::new();
    boundaries
        .iter()
        .map(|&c| {
            while let Some(&(_, b, g)) = pending.next_if(|&&(idx, _, _)| idx < c) {
                let n = index.stores_before(b, g);
                if n > 0 {
                    snapshot.insert(b.raw(), n);
                }
            }
            snapshot.clone()
        })
        .collect()
}

/// The event-level safety lemma: at every persist boundary of `events`,
/// every block's guaranteed-store count is identical in the trace the
/// plan produces (boundaries are mapped through the elision — stores
/// are never elided, so per-block store order aligns one-to-one). The
/// inverted plan (required flushes removed) must fail this check; any
/// plan [`analyze`] returns must pass it.
pub fn plan_preserves_guarantees(events: &[Event], plan: &ElisionPlan) -> bool {
    let optimized = apply(events, plan);
    let elide: HashSet<usize> = plan.elisions.iter().map(|e| e.idx).collect();
    let mut prefix = vec![0usize; events.len() + 1];
    for i in 0..events.len() {
        prefix[i + 1] = prefix[i] + usize::from(!elide.contains(&i));
    }
    let bounds = persist_boundaries(events);
    let mapped: Vec<usize> = bounds.iter().map(|&c| prefix[c]).collect();
    guarantee_profile(events, &bounds) == guarantee_profile(&optimized, &mapped)
}

// --- the study --------------------------------------------------------

/// Which core a replay cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCore {
    /// The stalling baseline core.
    Base,
    /// The SP256 speculative core.
    Sp,
}

impl ReplayCore {
    /// Both cores, in report order.
    pub const ALL: [ReplayCore; 2] = [ReplayCore::Base, ReplayCore::Sp];

    /// Short key for tables and JSON.
    pub fn key(self) -> &'static str {
        match self {
            ReplayCore::Base => "base",
            ReplayCore::Sp => "sp256",
        }
    }

    fn cpu(self) -> CpuConfig {
        match self {
            ReplayCore::Base => CpuConfig::baseline(),
            ReplayCore::Sp => CpuConfig::with_sp(),
        }
    }
}

/// Whether a replay cell runs the recorded or the optimized trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPass {
    /// The trace as recorded.
    Before,
    /// The trace with the elision plan applied.
    After,
}

impl ReplayPass {
    /// Short key for tables and JSON.
    pub fn key(self) -> &'static str {
        match self {
            ReplayPass::Before => "before",
            ReplayPass::After => "after",
        }
    }
}

/// One configuration point of the optimizer study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeCellSpec {
    /// Detect and classify the bench trace's elidable persist events,
    /// and prove the event-level guarantee-preservation lemma.
    Plan,
    /// Replay one (core, before/after) combination: event-driven
    /// simulator with the spp-obs collector attached, plus the frozen
    /// reference pipeline for cycle parity.
    Replay {
        /// Which core.
        core: ReplayCore,
        /// Recorded or optimized trace.
        pass: ReplayPass,
    },
    /// Crashfuzz the *optimized* `Log+P+Sf` bundle at every persist
    /// boundary: recovery must succeed everywhere.
    Oracle,
    /// Elide the *required* flushes instead (a deliberately unsafe
    /// plan): the oracle must catch it with a violation witness.
    Inverted,
}

impl OptimizeCellSpec {
    /// Every cell of the study, in report order.
    pub fn all() -> Vec<OptimizeCellSpec> {
        let mut v = vec![OptimizeCellSpec::Plan];
        for core in ReplayCore::ALL {
            for pass in [ReplayPass::Before, ReplayPass::After] {
                v.push(OptimizeCellSpec::Replay { core, pass });
            }
        }
        v.push(OptimizeCellSpec::Oracle);
        v.push(OptimizeCellSpec::Inverted);
        v
    }
}

/// One measured cell. Fields a leg does not produce stay 0/`None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptCell {
    /// The configuration measured.
    pub spec: OptimizeCellSpec,
    /// The cell's verdict (the inverted cell is `ok` when the unsafe
    /// plan *was* caught).
    pub ok: bool,
    /// Events in the trace the cell analyzed or replayed.
    pub events: u64,
    /// Events after elision (plan/oracle legs and `After` replays).
    pub kept: u64,
    /// Duplicate-flush elisions (plan/oracle legs).
    pub duplicates: u64,
    /// Uncovered-flush elisions.
    pub uncovered: u64,
    /// Empty-fence elisions.
    pub empty_fences: u64,
    /// Flushes the model marks required.
    pub required: u64,
    /// Event-driven simulated cycles (replay legs).
    pub cycles: u64,
    /// Reference-pipeline cycles (must equal `cycles`).
    pub ref_cycles: u64,
    /// Collector-attributed fence stall cycles.
    pub fence_stall: u64,
    /// Collector-attributed SSB-full stall cycles.
    pub ssb_stall: u64,
    /// Collector-attributed checkpoint-full stall cycles.
    pub ckpt_stall: u64,
    /// Collector-attributed backend stall cycles.
    pub backend_stall: u64,
    /// Crash points swept (oracle/inverted legs).
    pub points: u64,
    /// `(crash_idx, seed)` schedules checked.
    pub checks: u64,
    /// The violation witness (inverted leg).
    pub witness: Option<Witness>,
    /// What went wrong, for a failed cell.
    pub error: Option<String>,
}

impl OptCell {
    pub(crate) fn empty(spec: OptimizeCellSpec) -> Self {
        OptCell {
            spec,
            ok: false,
            events: 0,
            kept: 0,
            duplicates: 0,
            uncovered: 0,
            empty_fences: 0,
            required: 0,
            cycles: 0,
            ref_cycles: 0,
            fence_stall: 0,
            ssb_stall: 0,
            ckpt_stall: 0,
            backend_stall: 0,
            points: 0,
            checks: 0,
            witness: None,
            error: None,
        }
    }

    fn fill_plan(&mut self, events: u64, plan: &ElisionPlan) {
        self.events = events;
        self.kept = events - plan.elisions.len() as u64;
        self.duplicates = plan.count(ElisionKind::DuplicateFlush);
        self.uncovered = plan.count(ElisionKind::UncoveredFlush);
        self.empty_fences = plan.count(ElisionKind::EmptyFence);
        self.required = plan.required.len() as u64;
    }
}

/// The optimizer study's full result set for one `(bench, variant)`.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// Which benchmark's trace was optimized.
    pub id: BenchId,
    /// Which build variant of its trace.
    pub variant: Variant,
    /// Scale divisor the trace and bundles were sized from.
    pub scale: u64,
    /// Base seed.
    pub seed: u64,
    /// Every cell, in [`OptimizeCellSpec::all`] order.
    pub cells: Vec<OptCell>,
}

// --- cell execution ---------------------------------------------------

fn run_plan_cell(h: &Harness, id: BenchId, variant: Variant) -> OptCell {
    let mut cell = OptCell::empty(OptimizeCellSpec::Plan);
    let trace = h.trace(TraceKey::new(id, variant, &h.exp));
    let events = &trace.events;
    let plan = analyze(events);
    cell.fill_plan(events.len() as u64, &plan);
    if plan_preserves_guarantees(events, &plan) {
        cell.ok = true;
    } else {
        cell.error = Some("elision plan moved a guarantee frontier".to_string());
    }
    cell
}

fn run_replay_cell(
    h: &Harness,
    id: BenchId,
    variant: Variant,
    core: ReplayCore,
    pass: ReplayPass,
) -> OptCell {
    let mut cell = OptCell::empty(OptimizeCellSpec::Replay { core, pass });
    let recorded = h.trace(TraceKey::new(id, variant, &h.exp));
    let optimized;
    let events: &[Event] = match pass {
        ReplayPass::Before => &recorded.events,
        ReplayPass::After => {
            optimized = apply(&recorded.events, &analyze(&recorded.events));
            &optimized
        }
    };
    cell.events = events.len() as u64;
    let cfg = core.cpu();
    let collector = Collector::shared();
    let sim = match Simulator::new(events)
        .config(cfg)
        .probe(ProbeHandle::new(collector.clone()))
        .run()
    {
        Ok(r) => r,
        Err(e) => {
            cell.error = Some(format!("event-driven replay: {e}"));
            return cell;
        }
    };
    let reference = match ReferencePipeline::new(events, cfg).try_run() {
        Ok(r) => r,
        Err(e) => {
            cell.error = Some(format!("reference replay: {e}"));
            return cell;
        }
    };
    cell.cycles = sim.cpu.cycles;
    cell.ref_cycles = reference.cpu.cycles;
    let stalls = collector.borrow().summary().stalls;
    cell.fence_stall = stalls.fence;
    cell.ssb_stall = stalls.ssb_full;
    cell.ckpt_stall = stalls.checkpoint_full;
    cell.backend_stall = stalls.backend;
    // Reconciliation: the collector's attribution must equal the
    // machine's own stall counters, and both steppers must agree on
    // every architectural number — elision may move cycles, not work.
    let coherent = stalls_reconcile(&stalls, &sim.cpu);
    let parity = reference.cpu.cycles == sim.cpu.cycles
        && reference.cpu.committed_uops == sim.cpu.committed_uops;
    cell.ok = coherent && parity;
    if !coherent {
        cell.error = Some("stall attribution does not reconcile with machine counters".into());
    } else if !parity {
        cell.error = Some(format!(
            "reference pipeline diverged: {} vs {} cycles",
            reference.cpu.cycles, sim.cpu.cycles
        ));
    }
    cell
}

/// The safety bundle both oracle legs share: the `Log+P+Sf` build of
/// the same benchmark (safety must be proven against the full persist
/// protocol regardless of which variant is being tuned).
fn oracle_material(h: &Harness, id: BenchId) -> (spp_workloads::oracle::CrashBundle, ElisionPlan) {
    let spec = fuzz_bundle_spec(id, Variant::LogPSf, FlushMode::default(), &h.exp);
    let b = record_bundle(&spec);
    let plan = analyze(b.events());
    (b, plan)
}

fn run_oracle_cell(h: &Harness, id: BenchId) -> OptCell {
    let mut cell = OptCell::empty(OptimizeCellSpec::Oracle);
    let (b, plan) = oracle_material(h, id);
    cell.fill_plan(b.events().len() as u64, &plan);
    if !plan_preserves_guarantees(b.events(), &plan) {
        cell.error = Some("elision plan moved a guarantee frontier".to_string());
        return cell;
    }
    let optimized = apply(b.events(), &plan);
    let pts = persist_boundaries(&optimized);
    cell.points = pts.len() as u64;
    let stream = b.foreign(optimized);
    let (checks, witness) = first_violation(pts, |p, seed| stream.check_crash(p, seed));
    cell.checks = checks as u64;
    cell.ok = witness.is_none();
    cell.error = witness.map(|w| w.to_string());
    cell
}

fn run_inverted_cell(h: &Harness, id: BenchId) -> OptCell {
    let mut cell = OptCell::empty(OptimizeCellSpec::Inverted);
    let (b, plan) = oracle_material(h, id);
    cell.fill_plan(b.events().len() as u64, &plan);
    if plan.required.is_empty() {
        cell.error = Some("no required flushes to invert: the bundle never persists".into());
        return cell;
    }
    // The deliberately unsafe plan: remove exactly the flushes the
    // model says are load-bearing.
    let unsafe_plan = ElisionPlan {
        elisions: plan
            .required
            .iter()
            .map(|&idx| Elision {
                idx,
                kind: ElisionKind::DuplicateFlush,
            })
            .collect(),
        required: Vec::new(),
        flushes: plan.flushes,
        fences: plan.fences,
    };
    if plan_preserves_guarantees(b.events(), &unsafe_plan) {
        cell.error = Some("event-level check failed to notice the unsafe elision".into());
        return cell;
    }
    let unsafe_events = apply(b.events(), &unsafe_plan);
    cell.kept = unsafe_events.len() as u64;
    let pts = crash_points(&unsafe_events);
    cell.points = pts.len() as u64;
    let stream = b.foreign(unsafe_events);
    let (checks, witness) = first_violation(pts, |p, seed| stream.check_crash(p, seed));
    cell.checks = checks as u64;
    cell.witness = witness;
    cell.ok = cell.witness.is_some();
    if !cell.ok {
        cell.error = Some("eliding every required flush went unnoticed by the oracle".into());
    }
    cell
}

fn run_cell(h: &Harness, id: BenchId, variant: Variant, spec: &OptimizeCellSpec) -> OptCell {
    match *spec {
        OptimizeCellSpec::Plan => run_plan_cell(h, id, variant),
        OptimizeCellSpec::Replay { core, pass } => run_replay_cell(h, id, variant, core, pass),
        OptimizeCellSpec::Oracle => run_oracle_cell(h, id),
        OptimizeCellSpec::Inverted => run_inverted_cell(h, id),
    }
}

// --- codec ------------------------------------------------------------

impl OptCell {
    /// The cell as one JSON object, the report's `cells` element. The
    /// spec fields lead.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        match self.spec {
            OptimizeCellSpec::Plan => {
                o.str("leg", "plan");
            }
            OptimizeCellSpec::Replay { core, pass } => {
                o.str("leg", "replay")
                    .str("core", core.key())
                    .str("pass", pass.key());
            }
            OptimizeCellSpec::Oracle => {
                o.str("leg", "oracle");
            }
            OptimizeCellSpec::Inverted => {
                o.str("leg", "inverted");
            }
        }
        o.flag("ok", self.ok)
            .int("events", self.events)
            .int("kept", self.kept)
            .int("duplicates", self.duplicates)
            .int("uncovered", self.uncovered)
            .int("empty_fences", self.empty_fences)
            .int("required", self.required)
            .int("cycles", self.cycles)
            .int("ref_cycles", self.ref_cycles)
            .int("fence_stall", self.fence_stall)
            .int("ssb_stall", self.ssb_stall)
            .int("ckpt_stall", self.ckpt_stall)
            .int("backend_stall", self.backend_stall)
            .int("points", self.points)
            .int("checks", self.checks)
            .opt_raw("witness", self.witness.as_ref().map(Witness::json))
            .opt_str("error", self.error.as_deref());
        o.render()
    }
}

// --- the study driver -------------------------------------------------

/// Runs the optimizer study for one `(bench, variant)`: every
/// [`OptimizeCellSpec::all`] cell on [`run_indexed`].
pub fn run_optimize(h: &Harness, id: BenchId, variant: Variant) -> OptimizeReport {
    let specs = OptimizeCellSpec::all();
    let cells = run_indexed(h.jobs, &specs, |_, spec| run_cell(h, id, variant, spec));
    OptimizeReport {
        id,
        variant,
        scale: h.exp.scale,
        seed: h.exp.seed,
        cells,
    }
}

impl OptimizeReport {
    fn cell(&self, spec: OptimizeCellSpec) -> &OptCell {
        self.cells
            .iter()
            .find(|c| c.spec == spec)
            .expect("OptimizeCellSpec::all covers the grid")
    }

    fn replay(&self, core: ReplayCore, pass: ReplayPass) -> &OptCell {
        self.cell(OptimizeCellSpec::Replay { core, pass })
    }

    /// Total elisions the plan cell found on the bench trace.
    pub fn elisions(&self) -> u64 {
        let p = self.cell(OptimizeCellSpec::Plan);
        p.duplicates + p.uncovered + p.empty_fences
    }

    /// The study's verdict: every cell ok, and on both cores the
    /// optimized trace is no slower than the recording.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
            && ReplayCore::ALL.iter().all(|&core| {
                self.replay(core, ReplayPass::After).cycles
                    <= self.replay(core, ReplayPass::Before).cycles
            })
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== persist-path optimizer: {} / {} at scale 1/{} (seed {:#x}) ==",
            self.id.name(),
            self.variant,
            self.scale,
            self.seed
        );
        let p = self.cell(OptimizeCellSpec::Plan);
        let _ = writeln!(
            s,
            "-- elision plan ({} events, {} kept) --",
            p.events, p.kept
        );
        let _ = writeln!(s, "duplicate flushes : {}", p.duplicates);
        let _ = writeln!(s, "uncovered flushes : {}", p.uncovered);
        let _ = writeln!(s, "empty fences      : {}", p.empty_fences);
        let _ = writeln!(s, "required flushes  : {}", p.required);
        let _ = writeln!(
            s,
            "guarantee frontiers preserved at every persist boundary: {}",
            if p.ok { "yes" } else { "NO" }
        );
        if let Some(e) = &p.error {
            let _ = writeln!(s, "  {e}");
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "-- before/after replay (event-driven + reference) --");
        let _ = writeln!(
            s,
            "{:<6} {:<7} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}  verdict",
            "core", "trace", "events", "cycles", "ref", "fence", "ssb_full", "ckpt_full", "backend"
        );
        for core in ReplayCore::ALL {
            for pass in [ReplayPass::Before, ReplayPass::After] {
                let c = self.replay(core, pass);
                let verdict = if c.ok {
                    "ok".to_string()
                } else {
                    format!("FAIL: {}", c.error.as_deref().unwrap_or("unknown"))
                };
                let _ = writeln!(
                    s,
                    "{:<6} {:<7} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}  {}",
                    core.key(),
                    pass.key(),
                    c.events,
                    c.cycles,
                    c.ref_cycles,
                    c.fence_stall,
                    c.ssb_stall,
                    c.ckpt_stall,
                    c.backend_stall,
                    verdict
                );
            }
            let before = self.replay(core, ReplayPass::Before);
            let after = self.replay(core, ReplayPass::After);
            if before.cycles > 0 {
                let saved = (1.0 - after.cycles as f64 / before.cycles as f64) * 100.0;
                let _ = writeln!(
                    s,
                    "{}: {} -> {} cycles ({:+.1}%)",
                    core.key(),
                    before.cycles,
                    after.cycles,
                    -saved
                );
            }
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "-- safety: crashfuzz oracle on the optimized Log+P+Sf bundle --"
        );
        let o = self.cell(OptimizeCellSpec::Oracle);
        if o.ok {
            let _ = writeln!(
                s,
                "oracle: recovered everywhere ({} boundaries x {} seeds, {} checks, {} -> {} events)",
                o.points, SEEDS_PER_POINT, o.checks, o.events, o.kept
            );
        } else {
            let _ = writeln!(
                s,
                "oracle: FAILED — {}",
                o.error.as_deref().unwrap_or("unknown")
            );
        }
        let i = self.cell(OptimizeCellSpec::Inverted);
        match &i.witness {
            Some(w) => {
                let _ = writeln!(
                    s,
                    "inverted: unsafe elision caught — witness (crash_idx {}, seed {}) {} \
                     after {} checks ({} required flushes elided)",
                    w.crash_idx, w.seed, w.kind, i.checks, i.required
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "inverted: FAILED — {}",
                    i.error.as_deref().unwrap_or("unknown")
                );
            }
        }
        let _ = writeln!(s, "optimize: {}", if self.ok() { "PASS" } else { "FAIL" });
        s
    }

    /// The study as one `specpersist/optimize-v1` document.
    pub fn render_json(&self) -> String {
        schema::emit(schema::OPTIMIZE, |root| {
            root.str("bench", self.id.abbrev())
                .str("variant", variant_key(self.variant))
                .int("scale", self.scale)
                .int("seed", self.seed)
                .int("seeds_per_point", SEEDS_PER_POINT)
                .int("elisions", self.elisions())
                .flag("ok", self.ok());
            let mut diff = JsonObject::new();
            for core in ReplayCore::ALL {
                diff.raw(
                    &format!("{}_before", core.key()),
                    self.replay(core, ReplayPass::Before).cycles.to_string(),
                )
                .raw(
                    &format!("{}_after", core.key()),
                    self.replay(core, ReplayPass::After).cycles.to_string(),
                );
            }
            root.raw("diff", diff.render())
                .raw("cells", json::array(self.cells.iter().map(OptCell::json)));
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Experiment;
    use spp_pmem::PAddr;

    fn a() -> PAddr {
        PAddr::new(4096)
    }

    fn b() -> PAddr {
        PAddr::new(4096 + 64)
    }

    fn store(addr: PAddr) -> Event {
        Event::Store { addr, size: 8 }
    }

    fn harness() -> Harness {
        Harness::new(
            Experiment {
                scale: 2400,
                seed: 0x5EED,
            },
            2,
        )
    }

    #[test]
    fn duplicate_flush_within_an_epoch_is_elided() {
        let events = vec![
            store(a()),
            Event::Clwb { addr: a() },
            Event::Clwb { addr: a() }, // subsumes the first
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence,
        ];
        let plan = analyze(&events);
        assert_eq!(plan.count(ElisionKind::DuplicateFlush), 1);
        assert_eq!(
            plan.elisions[0],
            Elision {
                idx: 1,
                kind: ElisionKind::DuplicateFlush
            }
        );
        assert_eq!(plan.required, vec![2], "the later flush is the keeper");
        assert!(plan_preserves_guarantees(&events, &plan));
    }

    #[test]
    fn uncovered_flush_is_elided() {
        // No fence ever drains the issued stage: the Log+P shape.
        let events = vec![store(a()), Event::Clwb { addr: a() }, Event::Pcommit];
        let plan = analyze(&events);
        assert_eq!(plan.count(ElisionKind::UncoveredFlush), 1);
        assert!(plan.required.is_empty());
        assert!(plan_preserves_guarantees(&events, &plan));
    }

    #[test]
    fn empty_fence_is_elided_and_full_dance_is_kept() {
        let events = vec![
            Event::Sfence, // nothing issued, nothing in flight: empty
            store(a()),
            Event::Clwb { addr: a() },
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence,
        ];
        let plan = analyze(&events);
        assert_eq!(plan.count(ElisionKind::EmptyFence), 1);
        assert_eq!(plan.elisions[0].idx, 0);
        assert_eq!(plan.required, vec![2]);
        assert!(plan_preserves_guarantees(&events, &plan));
        // The second fence of the dance drains in-flight: not empty.
        // The optimized trace re-analyzes clean (a fixpoint).
        let optimized = apply(&events, &plan);
        assert_eq!(optimized.len(), events.len() - 1);
        assert!(analyze(&optimized).is_empty());
    }

    #[test]
    fn clflush_duplicates_collapse_in_the_ordered_stage() {
        let events = vec![
            store(a()),
            Event::Clflush { addr: a() },
            Event::Clflush { addr: a() },
            Event::Pcommit,
            Event::Sfence,
        ];
        let plan = analyze(&events);
        assert_eq!(plan.count(ElisionKind::DuplicateFlush), 1);
        assert_eq!(plan.elisions[0].idx, 1);
        assert_eq!(plan.required, vec![2]);
        assert!(plan_preserves_guarantees(&events, &plan));
    }

    #[test]
    fn removing_a_required_flush_fails_the_event_level_lemma() {
        let events = vec![
            store(a()),
            store(b()),
            Event::Clwb { addr: a() },
            Event::Clwb { addr: b() },
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence,
        ];
        let plan = analyze(&events);
        assert!(plan.is_empty(), "both flushes are load-bearing");
        assert_eq!(plan.required, vec![2, 3]);
        let unsafe_plan = ElisionPlan {
            elisions: vec![Elision {
                idx: 2,
                kind: ElisionKind::DuplicateFlush,
            }],
            ..plan
        };
        assert!(!plan_preserves_guarantees(&events, &unsafe_plan));
    }

    /// An optimized stream that drops a store is refused by the oracle:
    /// the recording's store values would land on the wrong stores.
    #[test]
    #[should_panic(expected = "is not the recording's next store")]
    fn an_optimized_stream_that_drops_a_store_is_rejected() {
        let (b, mut plan) = oracle_material(&harness(), BenchId::LinkedList);
        let store = b
            .events()
            .iter()
            .position(|e| matches!(e, Event::Store { .. }))
            .expect("the bundle stores");
        plan.elisions.push(Elision {
            idx: store,
            kind: ElisionKind::DuplicateFlush,
        });
        let _ = b.foreign(apply(b.events(), &plan));
    }

    #[test]
    fn bench_traces_analyze_safely_and_logp_is_all_uncovered() {
        let h = harness();
        for variant in [Variant::LogP, Variant::LogPSf] {
            let trace = h.trace(TraceKey::new(BenchId::LinkedList, variant, &h.exp));
            let events = &trace.events;
            let plan = analyze(events);
            assert!(
                plan_preserves_guarantees(events, &plan),
                "{variant}: unsafe plan"
            );
            if variant == Variant::LogP {
                // No fences at all: every flush is uncovered, nothing
                // is required.
                assert!(plan.count(ElisionKind::UncoveredFlush) > 0);
                assert!(plan.required.is_empty());
                assert_eq!(plan.fences, 0);
            } else {
                assert!(!plan.required.is_empty(), "Log+P+Sf must persist");
            }
        }
    }

    #[test]
    fn study_passes_and_finds_elisions_on_logp() {
        let h = harness();
        let rep = run_optimize(&h, BenchId::LinkedList, Variant::LogP);
        assert_eq!(rep.cells.len(), OptimizeCellSpec::all().len());
        assert!(rep.ok(), "{}", rep.render_text());
        assert!(rep.elisions() > 0, "LogP must yield redundant flushes");
        // Measured cycle reduction on the baseline core.
        let before = rep.replay(ReplayCore::Base, ReplayPass::Before);
        let after = rep.replay(ReplayCore::Base, ReplayPass::After);
        assert!(
            after.cycles < before.cycles,
            "eliding {} events must save cycles ({} vs {})",
            rep.elisions(),
            after.cycles,
            before.cycles
        );
        // Reference parity on every replay cell.
        for core in ReplayCore::ALL {
            for pass in [ReplayPass::Before, ReplayPass::After] {
                let c = rep.replay(core, pass);
                assert_eq!(c.cycles, c.ref_cycles, "{:?}/{:?}", core, pass);
            }
        }
        // Safety legs.
        let o = rep.cell(OptimizeCellSpec::Oracle);
        assert!(o.ok && o.points > 2 && o.checks >= o.points);
        let i = rep.cell(OptimizeCellSpec::Inverted);
        assert!(i.ok, "{:?}", i.error);
        assert!(i.witness.is_some());
        assert!(rep.render_text().contains("optimize: PASS"));
        assert!(rep
            .render_json()
            .starts_with("{\"schema\":\"specpersist/optimize-v1\""));
    }

    #[test]
    fn jobs_do_not_change_the_bytes() {
        let exp = harness().exp;
        let a = run_optimize(&Harness::new(exp, 1), BenchId::LinkedList, Variant::LogP);
        let b = run_optimize(&Harness::new(exp, 8), BenchId::LinkedList, Variant::LogP);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
    }
}
