//! The executable reference Px86 model: exhaustive allowed post-crash
//! states per litmus program, interleaving, and flush mode.
//!
//! The model mirrors the staging discipline `CrashSim` implements —
//! a flush enters *issued*, an `sfence` orders it (*issued* →
//! *ordered*), a `pcommit` moves ordered writebacks into the
//! write-pending queue (*ordered* → *inflight*), and the next `sfence`
//! realizes the guarantee (*inflight* → *guaranteed*); legacy
//! `clflush` skips straight to *ordered* — but is **thread-aware**
//! where `CrashSim` is thread-blind:
//!
//! * an `sfence` on thread *t* orders only thread-*t* issued flushes,
//!   and completes only in-flight writebacks whose `pcommit` was
//!   issued by thread *t* (the ack returns to the issuing core);
//! * a `pcommit` drains the *global* write-pending queue (all ordered
//!   entries, any thread), tagging them with the issuing thread.
//!
//! Because a thread-blind global fence orders strictly more than a
//! per-thread one, the machine under test guarantees at least what the
//! model guarantees, so honest runs satisfy reachable ⊆ allowed; any
//! escape is a real persistency-semantics violation.
//!
//! A crash may persist any suffix-independent subset beyond the
//! guarantees: per location (one cache block each), the persisted
//! value is the guaranteed frontier value or any later store that had
//! reached the coherent domain — exactly `CrashSim`'s per-block cut.
//! Locations are independent (separate blocks), so the allowed set is
//! the cross product of per-location value sets.

use std::collections::BTreeSet;

use spp_workloads::litmus::{LitmusOp, LitmusProgram};

/// A post-crash memory state: the persisted value of each litmus
/// location, in location order (`0` = never persisted).
pub type State = Vec<u64>;

/// Whether a flush instruction is ordered by program order alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKnob {
    /// The faithful Px86 rules.
    #[default]
    Honest,
    /// Test-only weakening detector: treats *optimized* (non-
    /// serializing) flushes — `clwb`/`clflushopt` — as ordered by
    /// program order, the pre-`clflushopt` mental model. This makes
    /// the model claim guarantees the machine never provides, so the
    /// harness must find reachable states the knob-model forbids; a
    /// harness that cannot is too weak to trust. No-op under
    /// [`FlushMode::Clflush`], which really is serializing.
    ClflushOptProgramOrdered,
}

impl ModelKnob {
    /// The stable wire/CLI key (`honest` / `clflushopt-po`), used in
    /// cell keys and `specpersist/litmus-v1` documents.
    pub fn key(self) -> &'static str {
        match self {
            ModelKnob::Honest => "honest",
            ModelKnob::ClflushOptProgramOrdered => "clflushopt-po",
        }
    }

    /// Parses a [`ModelKnob::key`] spelling (case-insensitive; the
    /// long form `clflushopt-program-ordered` is also accepted).
    pub fn parse(s: &str) -> Option<ModelKnob> {
        match s.to_ascii_lowercase().as_str() {
            "honest" => Some(ModelKnob::Honest),
            "clflushopt-po" | "clflushopt-program-ordered" => {
                Some(ModelKnob::ClflushOptProgramOrdered)
            }
            _ => None,
        }
    }
}

use spp_pmem::FlushMode;

/// Lifecycle stage of one flush's writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Executed, unordered: a crash may or may not persist it, and no
    /// guarantee can ever form from it without a fence.
    Issued,
    /// Ordered by the issuing thread's fence (or serializing by
    /// construction): the next `pcommit` will pick it up.
    Ordered,
    /// In the write-pending queue; the payload is the thread whose
    /// `pcommit` issued it (its fence completes the guarantee).
    Inflight(usize),
    /// Durably persisted: the covered stores survive any crash.
    Guaranteed,
}

/// One flush's writeback obligation: it covers the first `covered`
/// stores (in execution order) to `loc`.
#[derive(Debug, Clone, Copy)]
struct WritebackEntry {
    loc: usize,
    covered: usize,
    thread: usize,
    stage: Stage,
}

/// The model's machine state mid-execution of one interleaving.
#[derive(Debug)]
struct ModelState {
    /// Values stored to each location so far, in execution order.
    stores: Vec<Vec<u64>>,
    /// Guaranteed frontier per location: the first `frontier[loc]`
    /// stores are durably persisted.
    frontier: Vec<usize>,
    entries: Vec<WritebackEntry>,
    serializing: bool,
    knob_ordered: bool,
}

impl ModelState {
    fn new(locs: usize, mode: FlushMode, knob: ModelKnob) -> Self {
        ModelState {
            stores: vec![Vec::new(); locs],
            frontier: vec![0; locs],
            entries: Vec::new(),
            serializing: mode == FlushMode::Clflush,
            knob_ordered: knob == ModelKnob::ClflushOptProgramOrdered && mode != FlushMode::Clflush,
        }
    }

    fn apply(&mut self, thread: usize, op: LitmusOp, value: Option<u64>) {
        match op {
            LitmusOp::Store { loc } => {
                let v = value.unwrap_or(0);
                self.stores[loc as usize].push(v);
            }
            LitmusOp::Flush { loc } => {
                let loc = loc as usize;
                self.entries.push(WritebackEntry {
                    loc,
                    covered: self.stores[loc].len(),
                    thread,
                    stage: if self.serializing || self.knob_ordered {
                        Stage::Ordered
                    } else {
                        Stage::Issued
                    },
                });
            }
            LitmusOp::Sfence => {
                // Complete this thread's in-flight writebacks first,
                // then order its issued flushes: one fence never
                // advances the same writeback twice (mirrors
                // `CrashSim`'s drain order).
                for e in &mut self.entries {
                    if e.stage == Stage::Inflight(thread) {
                        e.stage = Stage::Guaranteed;
                        self.frontier[e.loc] = self.frontier[e.loc].max(e.covered);
                    }
                }
                for e in &mut self.entries {
                    if e.stage == Stage::Issued && e.thread == thread {
                        e.stage = Stage::Ordered;
                    }
                }
            }
            LitmusOp::Pcommit => {
                // The write-pending queue is global: every ordered
                // writeback drains, whoever issued it; the ack (and
                // therefore the completing fence) belongs to `thread`.
                for e in &mut self.entries {
                    if e.stage == Stage::Ordered {
                        e.stage = Stage::Inflight(thread);
                    }
                }
            }
        }
    }

    /// Allowed post-crash states right now: per location, the frontier
    /// value or any later store; cross product across locations.
    fn allowed(&self) -> BTreeSet<State> {
        let per_loc: Vec<Vec<u64>> = self
            .stores
            .iter()
            .zip(&self.frontier)
            .map(|(stores, &f)| {
                let mut vals = vec![if f == 0 { 0 } else { stores[f - 1] }];
                for &v in &stores[f..] {
                    if !vals.contains(&v) {
                        vals.push(v);
                    }
                }
                vals
            })
            .collect();
        let mut out = BTreeSet::new();
        let mut state = vec![0u64; per_loc.len()];
        cross(&per_loc, 0, &mut state, &mut out);
        out
    }
}

fn cross(per_loc: &[Vec<u64>], depth: usize, state: &mut State, out: &mut BTreeSet<State>) {
    if depth == per_loc.len() {
        out.insert(state.clone());
        return;
    }
    for &v in &per_loc[depth] {
        state[depth] = v;
        cross(per_loc, depth + 1, state, out);
    }
}

/// Allowed post-crash states of `program` along `interleaving` under
/// `mode`, one set per crash point: entry `c` is the allowed set after
/// the first `c` ops executed (so the result has `len + 1` entries and
/// entry 0 is the all-zero initial state).
pub fn allowed_states(
    program: &LitmusProgram,
    interleaving: &[(usize, usize)],
    mode: FlushMode,
    knob: ModelKnob,
) -> Vec<BTreeSet<State>> {
    let mut m = ModelState::new(program.num_locs(), mode, knob);
    let mut out = Vec::with_capacity(interleaving.len() + 1);
    out.push(m.allowed());
    for &(t, i) in interleaving {
        m.apply(t, program.threads[t][i], program.store_value(t, i));
        out.push(m.allowed());
    }
    out
}

/// The allowed envelope of `program` under `mode`: the union of
/// allowed states over every interleaving and every crash point. This
/// is the reference set the pipeline legs are checked against (their
/// visibility order need not match any one interleaving's crash
/// indices, but every state they can reach must live in the envelope).
pub fn allowed_union(program: &LitmusProgram, mode: FlushMode, knob: ModelKnob) -> BTreeSet<State> {
    let mut union = BTreeSet::new();
    for il in program.interleavings() {
        for set in allowed_states(program, &il, mode, knob) {
            union.extend(set);
        }
    }
    union
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn st(loc: u8) -> LitmusOp {
        LitmusOp::Store { loc }
    }
    fn fl(loc: u8) -> LitmusOp {
        LitmusOp::Flush { loc }
    }

    #[test]
    fn full_epoch_guarantees_the_store() {
        let p = LitmusProgram::single(
            "full-epoch",
            vec![
                st(0),
                fl(0),
                LitmusOp::Sfence,
                LitmusOp::Pcommit,
                LitmusOp::Sfence,
            ],
        );
        let il = p.program_order();
        let sets = allowed_states(&p, &il, FlushMode::Clwb, ModelKnob::Honest);
        assert_eq!(sets[0], BTreeSet::from([vec![0]]));
        // Mid-epoch the store may or may not have persisted.
        assert_eq!(sets[3], BTreeSet::from([vec![0], vec![1]]));
        // After the trailing fence it is guaranteed.
        assert_eq!(sets[5], BTreeSet::from([vec![1]]));
    }

    #[test]
    fn pcommit_without_flush_guarantees_nothing() {
        let p = LitmusProgram::single(
            "no-flush",
            vec![st(0), LitmusOp::Sfence, LitmusOp::Pcommit, LitmusOp::Sfence],
        );
        let sets = allowed_states(&p, &p.program_order(), FlushMode::Clwb, ModelKnob::Honest);
        assert_eq!(*sets.last().unwrap(), BTreeSet::from([vec![0], vec![1]]));
    }

    #[test]
    fn clflush_skips_the_ordering_fence() {
        // St x; Fl x; Pcommit; Sfence — guaranteed only if the flush
        // is serializing.
        let p = LitmusProgram::single(
            "clflush-path",
            vec![st(0), fl(0), LitmusOp::Pcommit, LitmusOp::Sfence],
        );
        let il = p.program_order();
        let weak = allowed_states(&p, &il, FlushMode::ClflushOpt, ModelKnob::Honest);
        assert_eq!(*weak.last().unwrap(), BTreeSet::from([vec![0], vec![1]]));
        let strong = allowed_states(&p, &il, FlushMode::Clflush, ModelKnob::Honest);
        assert_eq!(*strong.last().unwrap(), BTreeSet::from([vec![1]]));
    }

    #[test]
    fn knob_forbids_the_stale_flush_state() {
        // The knob-trap shape: under the weakened model the optimized
        // flush is "ordered" at the pcommit, so (x=0, y=2) — y persists
        // by crash while x stays stale — becomes forbidden, even
        // though the honest model (and real hardware) allows it.
        let p = LitmusProgram::single(
            "knob-trap",
            vec![st(0), fl(0), LitmusOp::Pcommit, LitmusOp::Sfence, st(1)],
        );
        let honest = allowed_union(&p, FlushMode::ClflushOpt, ModelKnob::Honest);
        assert!(honest.contains(&vec![0, 2]));
        let knob = allowed_union(
            &p,
            FlushMode::ClflushOpt,
            ModelKnob::ClflushOptProgramOrdered,
        );
        assert!(!knob.contains(&vec![0, 2]));
        // Serializing flushes are unaffected by the knob.
        let clflush_honest = allowed_union(&p, FlushMode::Clflush, ModelKnob::Honest);
        let clflush_knob =
            allowed_union(&p, FlushMode::Clflush, ModelKnob::ClflushOptProgramOrdered);
        assert_eq!(clflush_honest, clflush_knob);
    }

    #[test]
    fn foreign_fence_orders_nothing_in_the_model() {
        // t0: St x; Fl x || t1: Sfence; Pcommit; Sfence — t1's fences
        // never order t0's issued flush, so x is never guaranteed.
        let p = LitmusProgram::pair(
            "foreign-fence",
            vec![st(0), fl(0)],
            vec![LitmusOp::Sfence, LitmusOp::Pcommit, LitmusOp::Sfence],
        );
        for il in p.interleavings() {
            let sets = allowed_states(&p, &il, FlushMode::Clwb, ModelKnob::Honest);
            assert_eq!(*sets.last().unwrap(), BTreeSet::from([vec![0], vec![1]]));
        }
    }

    #[test]
    fn cross_thread_pcommit_completed_by_issuing_thread() {
        // t0: St x; Fl x; Sfence || t1: Pcommit; Sfence — t1's pcommit
        // drains the global WPQ (picking up t0's ordered flush) and
        // t1's own fence completes it: interleavings where everything
        // lines up guarantee x.
        let p = LitmusProgram::pair(
            "pcommit-relay",
            vec![st(0), fl(0), LitmusOp::Sfence],
            vec![LitmusOp::Pcommit, LitmusOp::Sfence],
        );
        let union = allowed_union(&p, FlushMode::Clwb, ModelKnob::Honest);
        assert!(union.contains(&vec![0]) && union.contains(&vec![1]));
        // The thread-major interleaving: t0 fully orders, then t1
        // commits and fences — guaranteed at the end.
        let sets = allowed_states(&p, &p.program_order(), FlushMode::Clwb, ModelKnob::Honest);
        assert_eq!(*sets.last().unwrap(), BTreeSet::from([vec![1]]));
    }
}
