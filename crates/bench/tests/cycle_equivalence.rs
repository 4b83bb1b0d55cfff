//! The full-grid half of the cycle-equivalence gate.
//!
//! The event-driven skip-ahead core (`spp_cpu::Pipeline`) replaced the
//! original cycle-by-cycle stepper for speed; the old stepper survives
//! frozen as `spp_cpu::ReferencePipeline` behind the
//! `reference-stepper` feature precisely so this test can hold the new
//! core to it. Every Table 1 benchmark x build-variant trace — the
//! actual workload traces the evaluation replays, not synthetic ones —
//! must produce an *identical* `SimResult` on both steppers: total
//! cycles, every stall counter, crash verdicts, everything. Both cores
//! are swept (baseline and SP256), fault-free and under the `quiet`
//! and `storm` injection plans, because the skip-ahead scheduler's
//! wake-time arithmetic is exactly the thing a fault-induced latency
//! spike would expose.
//!
//! One cut keeps the grid affordable: a trace with no fence gives the
//! SP256 core nothing to speculate past, so it must behave exactly like
//! the baseline core. For the fence-free builds (`Base`, `Log`,
//! `Log+P`) the SP256 cell therefore compares the fast core's SP256
//! run with its baseline run on the same trace and fault plan, instead
//! of running the reference stepper a second time. The baseline cell
//! of the same trace is still held to the reference, so every trace
//! keeps a check of the fast core.
//!
//! The in-crate property tests (`spp-cpu`'s `reference` module) cover
//! adversarial random traces and rollback corners; this grid covers
//! the shapes the paper's numbers actually rest on. A failure here
//! means a reported figure changed meaning — it is a release blocker,
//! not a flake: everything is deterministic.

use spp_bench::{run_indexed, Experiment, TraceKey};
use spp_cpu::{CpuConfig, ReferencePipeline, SimError, SimResult, Simulator};
use spp_mem::FaultSpec;
use spp_pmem::Variant;
use spp_workloads::BenchId;

/// One small-scale experiment shared by the whole grid: large enough
/// that every trace exercises flushes, pcommits, and fences; small
/// enough that 7 x 4 x 2 cores x 3 plans stays in test budget.
const EXP: Experiment = Experiment {
    scale: 400,
    seed: 0x5EED,
};

/// Asserts two runs of one trace agree exactly: equal `SimResult`s,
/// or on failure the same error kind.
fn assert_same(ctx: &str, a: Result<SimResult, SimError>, b: Result<SimResult, SimError>) {
    match (a, b) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "SimResult diverged: {ctx}"),
        (Err(a), Err(b)) => assert_eq!(a.kind, b.kind, "error kind diverged: {ctx}"),
        (a, b) => panic!(
            "verdict diverged: {ctx}: {:?} vs {:?}",
            a.map(|r| r.cpu.cycles),
            b.map(|r| r.cpu.cycles)
        ),
    }
}

/// The fault legs swept per cell: fault-free, then both named plans.
fn fault_legs(seed: u64) -> [(&'static str, Option<FaultSpec>); 3] {
    [
        ("clean", None),
        ("quiet", Some(FaultSpec::quiet(seed))),
        ("storm", Some(FaultSpec::storm(seed))),
    ]
}

#[test]
fn every_bench_variant_trace_matches_the_reference_stepper() {
    // Every cell is independent, so the grid fans out over every core;
    // a failing cell panics with its context on the worker thread and
    // the scope re-raises the panic here.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let harness = spp_bench::Harness::new(EXP, jobs);
    let cells: Vec<_> = BenchId::ALL
        .iter()
        .flat_map(|&id| Variant::ALL.iter().map(move |&v| (id, v)))
        .flat_map(|(id, v)| [(id, v, "baseline", false), (id, v, "sp256", true)])
        .flat_map(|(id, v, core, sp)| {
            fault_legs(EXP.seed).map(|(leg, f)| (id, v, core, sp, leg, f))
        })
        .collect();
    assert_eq!(cells.len(), 7 * 4 * 2 * 3);
    run_indexed(jobs, &cells, |_, &(id, variant, core, sp, leg, fault)| {
        let trace = harness.trace(TraceKey::new(id, variant, &EXP));
        let mut cfg = if sp {
            CpuConfig::with_sp()
        } else {
            CpuConfig::baseline()
        };
        cfg.mem.fault = fault;
        let ctx = format!("{}/{}/{}/{}", id.abbrev(), variant, core, leg);
        let fast = Simulator::new(&trace.events).config(cfg).run();
        // Only Log+P+Sf fences its persists; the cut below rests on it.
        let fence_free = trace.counts.fences == 0;
        assert_eq!(fence_free, variant != Variant::LogPSf, "{ctx}: fences");
        if sp && fence_free {
            let mut baseline = CpuConfig::baseline();
            baseline.mem.fault = fault;
            let base = Simulator::new(&trace.events).config(baseline).run();
            assert_same(&format!("{ctx} vs baseline"), fast, base);
        } else {
            let slow = ReferencePipeline::new(&trace.events, cfg).try_run();
            assert_same(&format!("{ctx} vs reference"), fast, slow);
        }
    });
}
