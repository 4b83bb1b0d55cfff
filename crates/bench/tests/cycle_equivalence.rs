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
//! The in-crate property tests (`spp-cpu`'s `reference` module) cover
//! adversarial random traces and rollback corners; this grid covers
//! the shapes the paper's numbers actually rest on. A failure here
//! means a reported figure changed meaning — it is a release blocker,
//! not a flake: everything is deterministic.

use spp_bench::{Experiment, TraceKey};
use spp_cpu::{CpuConfig, ReferencePipeline, Simulator};
use spp_mem::FaultSpec;
use spp_pmem::Variant;
use spp_workloads::BenchId;

/// One small-scale experiment shared by the whole grid: large enough
/// that every trace exercises flushes, pcommits, and fences; small
/// enough that 7 x 4 x 2 cores x 3 plans x 2 steppers stays in test
/// budget.
const EXP: Experiment = Experiment {
    scale: 400,
    seed: 0x5EED,
};

/// Runs both steppers on one trace/config and asserts exact
/// `SimResult` equality (or, on failure, the same error kind).
fn assert_equivalent(ctx: &str, events: &[spp_pmem::Event], cfg: CpuConfig) {
    let fast = Simulator::new(events).config(cfg).run();
    let slow = ReferencePipeline::new(events, cfg).try_run();
    match (fast, slow) {
        (Ok(f), Ok(s)) => assert_eq!(f, s, "SimResult diverged: {ctx}"),
        (Err(f), Err(s)) => assert_eq!(f.kind, s.kind, "error kind diverged: {ctx}"),
        (f, s) => panic!(
            "verdict diverged: {ctx}: fast={:?} reference={:?}",
            f.map(|r| r.cpu.cycles),
            s.map(|r| r.cpu.cycles)
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
    let harness = spp_bench::Harness::new(EXP, 1);
    for id in BenchId::ALL {
        for variant in Variant::ALL {
            let trace = harness.trace(TraceKey::new(id, variant, &EXP));
            for (core, sp) in [("baseline", false), ("sp256", true)] {
                for (leg, fault) in fault_legs(EXP.seed) {
                    let mut cfg = if sp {
                        CpuConfig::with_sp()
                    } else {
                        CpuConfig::baseline()
                    };
                    cfg.mem.fault = fault;
                    let ctx = format!("{}/{}/{}/{}", id.abbrev(), variant, core, leg);
                    assert_equivalent(&ctx, &trace.events, cfg);
                }
            }
        }
    }
}
