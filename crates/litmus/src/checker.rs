//! The litmus checker: drives each program through the real stack and
//! asserts reachable ⊆ allowed.
//!
//! One **cell** is a `(program, flush-mode)` pair. Per cell the checker
//! runs five legs:
//!
//! 1. **CrashSim** — for every interleaving and every crash index,
//!    exhaustively enumerate `CrashSim`'s post-crash images and check
//!    them against the model's allowed set *at that crash point* (op i
//!    is event i, so indices align one-to-one);
//! 2. **pipeline × {baseline, SP} × {event-driven, reference}** — run
//!    the trace through the real core with the persist-visibility log
//!    enabled, reconstruct the visibility-order trace, crash it at
//!    every boundary, and check the reached states against the model's
//!    allowed *envelope* (union over interleavings × crash points —
//!    the pipeline's visibility order need not match any single
//!    interleaving's indices, but its states must stay inside the
//!    envelope);
//! 3. **SP differential** — speculation must never widen a program's
//!    reachable set: states reached under SP ⊆ states reached by the
//!    same pipeline without SP.
//!
//! A failing cell carries a lexicographically minimized
//! `(interleaving, crash_idx, seed)` witness (crashfuzz-style): the
//! smallest seeded crash that reproduces a forbidden state.

use std::collections::BTreeSet;

use spp_cpu::{reconstruct, CpuConfig, ReferencePipeline, Simulator, VisEvent};
use spp_pmem::{CrashTrace, Event, FlushMode, Space, Trace};
use spp_workloads::litmus::LitmusProgram;

use crate::model::{self, ModelKnob, State};

/// Seeds scanned per crash index during witness minimization.
pub const MINIMIZE_SEEDS: u64 = 4096;

/// A minimized counterexample: the smallest `(interleaving, crash_idx,
/// seed)` — in that lexicographic order — reproducing a state the
/// model forbids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    /// Which leg caught it (`"crashsim"`, `"pipeline-sp"`, …).
    pub leg: &'static str,
    /// Index into [`LitmusProgram::interleavings`].
    pub interleaving: usize,
    /// Crash index into the leg's event trace (the materialized
    /// interleaving for `crashsim`, the reconstructed visibility trace
    /// for pipeline legs).
    pub crash_idx: usize,
    /// `CrashSim::image_seeded` seed reproducing the state; `None` if
    /// only exhaustive enumeration reaches it (then `crash_idx` plus
    /// `for_each_image` reproduces it).
    pub seed: Option<u64>,
    /// The forbidden post-crash state (one value per location).
    pub state: State,
    /// The program, rendered (`t0: St x; … || t1: …`).
    pub program: String,
}

/// The outcome of one `(program, flush-mode)` cell.
#[derive(Debug, Clone, Default)]
pub struct CellOutcome {
    /// Program name (catalog or generator identifier).
    pub program: String,
    /// The program, rendered for reports.
    pub rendered: String,
    /// Flush mode the cell ran under.
    pub mode: FlushMode,
    /// Model weakening in effect (test-only; `Honest` in production).
    pub knob: ModelKnob,
    /// Interleavings enumerated.
    pub interleavings: usize,
    /// Size of the model's allowed envelope.
    pub allowed_states: usize,
    /// Distinct states reached across all legs.
    pub reached_states: usize,
    /// Leg 1: raw `CrashSim` per-crash-point inclusion.
    pub crashsim_ok: bool,
    /// Event-driven core, no speculation, envelope inclusion.
    pub pipe_base_ok: bool,
    /// Event-driven core with SP, envelope inclusion.
    pub pipe_sp_ok: bool,
    /// Frozen reference stepper, no speculation, envelope inclusion.
    pub ref_base_ok: bool,
    /// Frozen reference stepper with SP, envelope inclusion.
    pub ref_sp_ok: bool,
    /// SP ⊆ baseline on the event-driven core.
    pub sp_differential_ok: bool,
    /// SP ⊆ baseline on the reference stepper.
    pub ref_sp_differential_ok: bool,
    /// A pipeline leg died (watchdog/deadlock); fails the cell.
    pub sim_error: Option<String>,
    /// Minimized counterexample for the first failing leg.
    pub witness: Option<Witness>,
}

impl CellOutcome {
    /// Did every leg pass?
    pub fn ok(&self) -> bool {
        self.crashsim_ok
            && self.pipe_base_ok
            && self.pipe_sp_ok
            && self.ref_base_ok
            && self.ref_sp_ok
            && self.sp_differential_ok
            && self.ref_sp_differential_ok
            && self.sim_error.is_none()
    }
}

/// Reads the litmus state vector out of a post-crash image.
fn read_state(img: &Space, locs: usize) -> State {
    (0..locs)
        .map(|l| img.read_u64(LitmusProgram::addr_of(l as u8)))
        .collect()
}

/// Runs `raw`'s events through the chosen core with persist logging and
/// returns the visibility-order reconstruction, each store carrying the
/// value of its source store in `raw`.
fn visibility_trace(raw: &CrashTrace, sp: bool, reference: bool) -> Result<Trace, String> {
    let events = raw.events();
    let cfg = if sp {
        CpuConfig::with_sp()
    } else {
        CpuConfig::baseline()
    };
    let log: Vec<VisEvent> = if reference {
        let mut p = ReferencePipeline::new(events, cfg);
        p.enable_persist_log();
        while !p.is_done() {
            p.step().map_err(|e| e.to_string())?;
        }
        p.take_persist_log()
    } else {
        let mut p = Simulator::new(events)
            .config(cfg)
            .build()
            .map_err(|e| e.to_string())?;
        p.enable_persist_log();
        while !p.is_done() {
            p.step().map_err(|e| e.to_string())?;
        }
        p.take_persist_log()
    };
    // The store ordinal of each raw position: its value's index.
    let ordinals: Vec<usize> = events
        .iter()
        .scan(0, |stores, ev| {
            let ord = *stores;
            *stores += usize::from(matches!(ev, Event::Store { .. }));
            Some(ord)
        })
        .collect();
    let (recon, sources) = reconstruct(events, &log);
    let mut trace = Trace::new();
    for (ev, source) in recon.into_iter().zip(sources) {
        match (ev, source) {
            (Event::Store { addr, size }, Some(i)) => {
                trace.push_store(addr, size, raw.values()[ordinals[i]]);
            }
            _ => trace.push(ev),
        }
    }
    Ok(trace)
}

/// All states `CrashSim` can produce from `trace` crashed at each `c`
/// in `0..=trace.events().len()`.
fn reachable_per_crash(trace: &CrashTrace, locs: usize) -> Vec<BTreeSet<State>> {
    (0..=trace.events().len())
        .map(|c| {
            let mut out = BTreeSet::new();
            trace.at(c).for_each_image(|img| {
                out.insert(read_state(img, locs));
            });
            out
        })
        .collect()
}

/// Lexicographically smallest `(trace, crash_idx, seed)` over the given
/// traces whose seeded crash image falls outside `allowed(trace_idx,
/// crash_idx)`; falls back to a seedless exhaustive witness.
fn minimize(
    traces: &[CrashTrace],
    locs: usize,
    allowed: impl Fn(usize, usize) -> BTreeSet<State>,
) -> Option<(usize, usize, Option<u64>, State)> {
    for (ti, trace) in traces.iter().enumerate() {
        for c in 0..=trace.events().len() {
            let ok = allowed(ti, c);
            let sim = trace.at(c);
            for seed in 0..MINIMIZE_SEEDS {
                let st = read_state(&sim.image_seeded(seed), locs);
                if !ok.contains(&st) {
                    return Some((ti, c, Some(seed), st));
                }
            }
            // Exhaustive fallback: a violating image no seed sampled.
            let mut bad = None;
            sim.for_each_image(|img| {
                let st = read_state(img, locs);
                if bad.is_none() && !ok.contains(&st) {
                    bad = Some(st);
                }
            });
            if let Some(st) = bad {
                return Some((ti, c, None, st));
            }
        }
    }
    None
}

/// Checks one `(program, flush-mode)` cell under the given model knob.
pub fn check_cell(program: &LitmusProgram, mode: FlushMode, knob: ModelKnob) -> CellOutcome {
    let locs = program.num_locs();
    let ils = program.interleavings();
    let rendered = program.to_string();

    // The reference model: per-crash-point sets and the envelope.
    let allowed_per: Vec<Vec<BTreeSet<State>>> = ils
        .iter()
        .map(|il| model::allowed_states(program, il, mode, knob))
        .collect();
    let mut envelope: BTreeSet<State> = BTreeSet::new();
    for per_crash in &allowed_per {
        for set in per_crash {
            envelope.extend(set.iter().cloned());
        }
    }

    // Leg 1: raw CrashSim, per crash point of each interleaving. Every
    // litmus trace is crashed over an empty base image.
    let raw_traces: Vec<CrashTrace> = ils
        .iter()
        .map(|il| CrashTrace::new(Space::new(), program.materialize(il, mode)))
        .collect();
    let mut crashsim_ok = true;
    let mut reached: BTreeSet<State> = BTreeSet::new();
    for (ti, trace) in raw_traces.iter().enumerate() {
        // `allowed_per[ti]` has one entry per crash point: `events().len() + 1`.
        let per_crash = reachable_per_crash(trace, locs);
        for (allowed, states) in allowed_per[ti].iter().zip(per_crash) {
            if !states.is_subset(allowed) {
                crashsim_ok = false;
            }
            reached.extend(states);
        }
    }

    // Legs 2–5: the real cores, checked against the envelope.
    let mut sim_error = None;
    let mut leg_traces: [Vec<CrashTrace>; 4] = Default::default();
    let mut leg_reached: [BTreeSet<State>; 4] = Default::default();
    // Order: [pipe-base, pipe-sp, ref-base, ref-sp].
    for (li, &(sp, reference)) in [(false, false), (true, false), (false, true), (true, true)]
        .iter()
        .enumerate()
    {
        for raw in &raw_traces {
            match visibility_trace(raw, sp, reference) {
                Ok(recon) => {
                    let recon = CrashTrace::new(Space::new(), recon);
                    for states in reachable_per_crash(&recon, locs) {
                        leg_reached[li].extend(states);
                    }
                    leg_traces[li].push(recon);
                }
                Err(e) => {
                    if sim_error.is_none() {
                        sim_error = Some(e);
                    }
                    leg_traces[li].push(CrashTrace::new(Space::new(), Trace::new()));
                }
            }
        }
        reached.extend(leg_reached[li].iter().cloned());
    }
    let pipe_base_ok = leg_reached[0].is_subset(&envelope);
    let pipe_sp_ok = leg_reached[1].is_subset(&envelope);
    let ref_base_ok = leg_reached[2].is_subset(&envelope);
    let ref_sp_ok = leg_reached[3].is_subset(&envelope);
    let sp_differential_ok = leg_reached[1].is_subset(&leg_reached[0]);
    let ref_sp_differential_ok = leg_reached[3].is_subset(&leg_reached[2]);

    // Minimize a witness for the first failing leg (legs in check
    // order; within a leg, lexicographic (interleaving, crash, seed)).
    let mut witness = None;
    if !crashsim_ok {
        witness = minimize(&raw_traces, locs, |ti, c| allowed_per[ti][c].clone()).map(
            |(ti, c, seed, state)| Witness {
                leg: "crashsim",
                interleaving: ti,
                crash_idx: c,
                seed,
                state,
                program: rendered.clone(),
            },
        );
    }
    let pipeline_legs = [
        ("pipeline-base", pipe_base_ok, 0usize),
        ("pipeline-sp", pipe_sp_ok, 1),
        ("reference-base", ref_base_ok, 2),
        ("reference-sp", ref_sp_ok, 3),
    ];
    for (leg, ok, li) in pipeline_legs {
        if witness.is_none() && !ok {
            witness = minimize(&leg_traces[li], locs, |_, _| envelope.clone()).map(
                |(ti, c, seed, state)| Witness {
                    leg,
                    interleaving: ti,
                    crash_idx: c,
                    seed,
                    state,
                    program: rendered.clone(),
                },
            );
        }
    }
    for (leg, ok, li, base_li) in [
        ("sp-differential", sp_differential_ok, 1usize, 0usize),
        ("ref-sp-differential", ref_sp_differential_ok, 3, 2),
    ] {
        if witness.is_none() && !ok {
            let baseline = leg_reached[base_li].clone();
            witness = minimize(&leg_traces[li], locs, |_, _| baseline.clone()).map(
                |(ti, c, seed, state)| Witness {
                    leg,
                    interleaving: ti,
                    crash_idx: c,
                    seed,
                    state,
                    program: rendered.clone(),
                },
            );
        }
    }

    CellOutcome {
        program: program.name.clone(),
        rendered,
        mode,
        knob,
        interleavings: ils.len(),
        allowed_states: envelope.len(),
        reached_states: reached.len(),
        crashsim_ok,
        pipe_base_ok,
        pipe_sp_ok,
        ref_base_ok,
        ref_sp_ok,
        sp_differential_ok,
        ref_sp_differential_ok,
        sim_error,
        witness,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::catalog::{catalog, generate};

    #[test]
    fn honest_catalog_passes_every_mode() {
        for program in catalog() {
            for mode in FlushMode::ALL {
                let out = check_cell(&program, mode, ModelKnob::Honest);
                assert!(
                    out.ok(),
                    "{} under {} failed: crashsim={} pipe=({},{}) ref=({},{}) diff=({},{}) err={:?} witness={:?}",
                    out.program,
                    mode,
                    out.crashsim_ok,
                    out.pipe_base_ok,
                    out.pipe_sp_ok,
                    out.ref_base_ok,
                    out.ref_sp_ok,
                    out.sp_differential_ok,
                    out.ref_sp_differential_ok,
                    out.sim_error,
                    out.witness,
                );
                assert!(out.reached_states <= out.allowed_states);
            }
        }
    }

    #[test]
    fn weakened_model_is_caught_with_a_minimized_witness() {
        let cat = catalog();
        let trap = cat.iter().find(|p| p.name == "knob-trap").unwrap();
        let out = check_cell(
            trap,
            FlushMode::ClflushOpt,
            ModelKnob::ClflushOptProgramOrdered,
        );
        assert!(!out.ok(), "the weakened model must be caught");
        assert!(!out.crashsim_ok, "per-crash-point leg must catch it");
        let w = out.witness.expect("failing cell carries a witness");
        assert_eq!(w.leg, "crashsim");
        assert!(w.seed.is_some(), "seeded reproduction expected");
        // The forbidden state: x stale, the weakly-flushed store lost.
        assert_eq!(w.state[0], 0);
        // Minimality: no earlier (interleaving, crash, seed) violates.
        assert_eq!(w.interleaving, 0);
        // Under the serializing flush the knob is a no-op.
        let out = check_cell(
            trap,
            FlushMode::Clflush,
            ModelKnob::ClflushOptProgramOrdered,
        );
        assert!(out.ok());
    }

    #[test]
    fn generated_programs_pass_honest_checking() {
        for program in generate(0xC0FFEE, 8) {
            for mode in FlushMode::ALL {
                let out = check_cell(&program, mode, ModelKnob::Honest);
                assert!(
                    out.ok(),
                    "{} ({}) under {} failed: witness={:?} err={:?}",
                    out.program,
                    out.rendered,
                    mode,
                    out.witness,
                    out.sim_error,
                );
            }
        }
    }
}
