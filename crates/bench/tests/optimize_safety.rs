//! Property-based safety gate for the persist-path trace optimizer.
//!
//! Two layers of evidence that [`spp_bench::optimize::analyze`] never
//! proposes an unsafe elision:
//!
//! * randomized persist programs — stores, all three flush flavors,
//!   both fences, and `pcommit` in arbitrary order — where the
//!   *reachable crash-image state set* of the optimized trace must
//!   equal the original's at every persist boundary (exhaustively, via
//!   `CrashSim::for_each_image`), and no flush the model marks
//!   required may appear in the elision plan;
//! * the Px86 litmus catalog — every curated and generated program,
//!   every interleaving, every flush mode: the optimized trace's
//!   reachable states must stay inside the reference model's
//!   per-crash-point allowed sets and the program's allowed-state
//!   envelope (`spp_litmus::allowed_union`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use spp_bench::optimize::{analyze, apply, plan_preserves_guarantees, ElisionPlan};
use spp_litmus::{allowed_states, allowed_union, catalog, generate, LitmusProgram, ModelKnob};
use spp_pmem::{persist_boundaries, CrashTrace, Event, FlushMode, PAddr, Space};

/// One op of a tiny random persist program over a few cachelines.
#[derive(Debug, Clone, Copy)]
enum Op {
    Store(u8),
    Clwb(u8),
    ClflushOpt(u8),
    Clflush(u8),
    Sfence,
    Mfence,
    Pcommit,
}

fn addr(loc: u8) -> PAddr {
    LitmusProgram::addr_of(loc)
}

fn op_strategy(locs: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..locs).prop_map(Op::Store),
        (0..locs).prop_map(Op::Store),
        (0..locs).prop_map(Op::Clwb),
        (0..locs).prop_map(Op::Clwb),
        (0..locs).prop_map(Op::ClflushOpt),
        (0..locs).prop_map(Op::Clflush),
        Just(Op::Sfence),
        Just(Op::Sfence),
        Just(Op::Mfence),
        Just(Op::Pcommit),
        Just(Op::Pcommit),
    ]
}

/// Materializes ops as events; store values are distinct so a crash
/// image pins down exactly which store survived.
fn events_of(ops: &[Op]) -> Vec<Event> {
    let mut val = 0u64;
    ops.iter()
        .map(|op| match *op {
            Op::Store(l) => {
                val += 1;
                Event::Store {
                    addr: addr(l),
                    size: 8,
                    value: val,
                }
            }
            Op::Clwb(l) => Event::Clwb { addr: addr(l) },
            Op::ClflushOpt(l) => Event::ClflushOpt { addr: addr(l) },
            Op::Clflush(l) => Event::Clflush { addr: addr(l) },
            Op::Sfence => Event::Sfence,
            Op::Mfence => Event::Mfence,
            Op::Pcommit => Event::Pcommit,
        })
        .collect()
}

/// A trace of a random program, ready to be crashed: the programs
/// start from an empty image.
fn crash_trace(events: Vec<Event>) -> CrashTrace {
    CrashTrace::new(Space::new(), events)
}

/// Every state vector any crash image of `trace` at crash point `c`
/// can show.
fn reachable_at(trace: &CrashTrace, c: usize, locs: u8) -> BTreeSet<Vec<u64>> {
    let mut out = BTreeSet::new();
    trace.at(c).for_each_image(|img| {
        out.insert((0..locs).map(|l| img.read_u64(addr(l))).collect());
    });
    out
}

/// Maps each index of `events` to its position in the optimized trace
/// (the count of retained events before it).
fn index_map(events: &[Event], plan: &ElisionPlan) -> Vec<usize> {
    let elide: HashSet<usize> = plan.elisions.iter().map(|e| e.idx).collect();
    let mut prefix = vec![0usize; events.len() + 1];
    for i in 0..events.len() {
        prefix[i + 1] = prefix[i] + usize::from(!elide.contains(&i));
    }
    prefix
}

/// The shared core of both layers: the plan must be internally
/// consistent, pass the event-level lemma, and leave the reachable
/// crash-state set untouched at every given boundary of the original.
fn assert_plan_is_safe(events: &[Event], boundaries: &[usize], locs: u8) {
    let plan = analyze(events);
    let elided: HashSet<usize> = plan.elisions.iter().map(|e| e.idx).collect();
    for &r in &plan.required {
        assert!(
            !elided.contains(&r),
            "required flush {r} appears in the elision plan"
        );
    }
    assert!(
        plan_preserves_guarantees(events, &plan),
        "plan moved a guarantee frontier: {plan:?}"
    );
    let original = crash_trace(events.to_vec());
    let optimized = crash_trace(apply(events, &plan));
    let prefix = index_map(events, &plan);
    for &c in boundaries {
        assert_eq!(
            reachable_at(&original, c, locs),
            reachable_at(&optimized, prefix[c], locs),
            "reachable crash states diverged at boundary {c} -> {}",
            prefix[c]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized programs: the optimizer must be invisible to every
    /// crash image at every persist boundary.
    #[test]
    fn no_elision_changes_any_reachable_crash_state(
        ops in prop::collection::vec(op_strategy(2), 0..18)
    ) {
        let events = events_of(&ops);
        let boundaries = persist_boundaries(&events);
        assert_plan_is_safe(&events, &boundaries, 2);
    }

    /// Removing any *required* flush instead must be visible to the
    /// event-level lemma (the teeth behind the property above).
    #[test]
    fn eliding_a_required_flush_is_always_detected(
        ops in prop::collection::vec(op_strategy(2), 1..18),
        pick in any::<prop::sample::Index>(),
    ) {
        let events = events_of(&ops);
        let plan = analyze(&events);
        if plan.required.is_empty() {
            // Nothing load-bearing in this draw; vacuous case.
            return Ok(());
        }
        let victim = plan.required[pick.index(plan.required.len())];
        let mut unsafe_plan = plan.clone();
        unsafe_plan.elisions.push(spp_bench::optimize::Elision {
            idx: victim,
            kind: spp_bench::optimize::ElisionKind::DuplicateFlush,
        });
        unsafe_plan.elisions.sort_unstable_by_key(|e| e.idx);
        prop_assert!(
            !plan_preserves_guarantees(&events, &unsafe_plan),
            "eliding required flush {victim} went unnoticed"
        );
    }
}

/// The litmus cross-check: optimized traces of every catalog and
/// generated program, under every flush mode and interleaving, must
/// stay inside the Px86 reference model's allowed sets — both the
/// per-crash-point sets (checked at the mapped boundary) and the
/// program's whole envelope.
#[test]
fn optimized_litmus_traces_stay_inside_the_px86_envelope() {
    let mut programs = catalog();
    programs.extend(generate(0xA11CE, 8));
    for prog in &programs {
        let locs = prog.num_locs() as u8;
        for mode in FlushMode::ALL {
            let envelope = allowed_union(prog, mode, ModelKnob::Honest);
            for il in prog.interleavings() {
                let events = prog.materialize(&il, mode);
                // Layer 1: the general safety property on this trace.
                assert_plan_is_safe(&events, &persist_boundaries(&events), locs);
                // Layer 2: the model's own allowed sets. `materialize`
                // emits one event per op, so op boundaries are event
                // boundaries.
                let allowed = allowed_states(prog, &il, mode, ModelKnob::Honest);
                let plan = analyze(&events);
                let optimized = crash_trace(apply(&events, &plan));
                let prefix = index_map(&events, &plan);
                for (c, allowed_here) in allowed.iter().enumerate() {
                    let states = reachable_at(&optimized, prefix[c], locs);
                    assert!(
                        states.is_subset(allowed_here),
                        "{}: optimized trace reaches a state Px86 forbids \
                         at crash point {c} (mode {mode:?})",
                        prog.name
                    );
                    assert!(
                        states.iter().all(|s| envelope.contains(s)),
                        "{}: optimized trace escapes the allowed envelope",
                        prog.name
                    );
                }
            }
        }
    }
}
