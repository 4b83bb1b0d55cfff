//! Crash-recovery oracles: deciding whether a post-crash, post-recovery
//! memory image is *consistent* for each benchmark.
//!
//! The structural side of every oracle is the benchmark's own
//! [`Workload::verify`]: AVL balance factors and BST ordering, red-black
//! and B-tree invariants, hash-map membership and chain integrity,
//! linked-list ordering, and string-swap atomicity (torn 256-byte
//! entries are detected by their index-tagged content). This module adds
//! the *transactional* side: after [`recover`] the logical contents must
//! sit exactly at an operation boundary — the state after the last
//! transaction whose `TxEnd` marker precedes the crash, or (when the
//! crash lands between the durable `logged_bit` clear and the `TxEnd`
//! marker itself) the state one operation later. Any other recovered
//! state means a committed operation was lost or a torn one exposed —
//! the §2/Fig. 3 failure the paper's `Log+P+Sf` protocol exists to
//! prevent.
//!
//! A [`CrashBundle`] packages everything an oracle check needs: the
//! durable pre-trace image, the recorded event stream, the undo-log
//! layout, and the expected logical state at every operation boundary.
//! [`CrashBundle::check_crash`] then replays one `(crash_idx, seed)`
//! adversarial writeback schedule end to end: crash simulation →
//! recovery → structural verification → boundary matching.

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_pmem::{recover, CrashTrace, Event, FlushMode, LogLayout, PmemEnv, Space, Variant};

use crate::{make_workload, BenchId, OpOutcome, Workload};

/// Sizing and identity of one crash-fuzzing bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BundleSpec {
    /// Which benchmark.
    pub id: BenchId,
    /// The build variant whose persistence machinery is traced.
    pub variant: Variant,
    /// Which flush instruction the build emits.
    pub flush_mode: FlushMode,
    /// Operations populating the structure (unrecorded).
    pub init_ops: u64,
    /// Recorded operations available as crash targets.
    pub sim_ops: u64,
    /// RNG seed for the operation stream.
    pub seed: u64,
}

/// A recorded run prepared for crash injection: base image, events,
/// per-operation expected states, and the live workload object whose
/// `verify` runs against candidate images.
#[derive(Debug)]
pub struct CrashBundle {
    spec: BundleSpec,
    /// The base image and the recorded events, indexed at the first
    /// crash check.
    trace: CrashTrace,
    /// Positions of the recording's `TxEnd` markers.
    tx_ends: Vec<usize>,
    layout: LogLayout,
    /// Logical contents after 0, 1, ..., `sim_ops` completed operations.
    states: Vec<BTreeSet<u64>>,
    workload: Box<dyn Workload>,
}

/// How a crash image failed its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The recovered structure violated a structural invariant (broken
    /// ordering, torn string, dangling pointer, ...).
    StructureInvalid,
    /// The structure verified, but its contents match no adjacent
    /// operation boundary — a committed operation was lost or a torn
    /// one became visible.
    StateMismatch,
    /// A multi-key scan result is internally inconsistent or mixes two
    /// operation boundaries — a half-applied operation is visible to
    /// range reads.
    ScanInconsistent,
}

impl ViolationKind {
    /// Every kind, in declaration order.
    pub const ALL: [ViolationKind; 3] = [
        ViolationKind::StructureInvalid,
        ViolationKind::StateMismatch,
        ViolationKind::ScanInconsistent,
    ];
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::StructureInvalid => "structure-invalid",
            ViolationKind::StateMismatch => "state-mismatch",
            ViolationKind::ScanInconsistent => "scan-inconsistent",
        })
    }
}

/// Checks one multi-key scan result against the two adjacent operation
/// boundaries: every key must lie in `[lo, hi]`, the result must be
/// strictly ascending (duplicates and disorder are torn-structure
/// symptoms that set-based comparison silently collapses), and the
/// window contents must equal `prev ∩ [lo, hi]` or `next ∩ [lo, hi]` —
/// a scan mixing both states observed a half-applied operation.
///
/// # Errors
///
/// Returns a [`ViolationKind::ScanInconsistent`] violation describing
/// the first failed property.
pub fn check_scan_window(
    scan: &[u64],
    lo: u64,
    hi: u64,
    prev: &BTreeSet<u64>,
    next: &BTreeSet<u64>,
) -> Result<(), OracleViolation> {
    let fail = |detail: String| {
        Err(OracleViolation {
            kind: ViolationKind::ScanInconsistent,
            detail,
        })
    };
    for &k in scan {
        if !(lo..=hi).contains(&k) {
            return fail(format!("scan key {k} outside the window [{lo}, {hi}]"));
        }
    }
    if let Some(w) = scan.windows(2).find(|w| w[0] >= w[1]) {
        return fail(format!(
            "scan result not strictly ascending at {} >= {} (duplicate or disordered key)",
            w[0], w[1]
        ));
    }
    let got: BTreeSet<u64> = scan.iter().copied().collect();
    let pw: BTreeSet<u64> = prev.range(lo..=hi).copied().collect();
    let nw: BTreeSet<u64> = next.range(lo..=hi).copied().collect();
    if got == pw || got == nw {
        Ok(())
    } else {
        fail(format!(
            "scan of [{lo}, {hi}] returned {} keys, matching neither the pre-boundary window \
             ({} keys) nor the post-boundary window ({} keys) — a half-applied operation is \
             visible",
            got.len(),
            pw.len(),
            nw.len()
        ))
    }
}

/// An oracle failure for one `(crash_idx, seed)` schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// What failed.
    pub kind: ViolationKind,
    /// Deterministic human-readable description.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Records a bundle: populate in fast-forward, snapshot the quiesced
/// image, then record `sim_ops` operations while tracking the expected
/// logical state at every boundary.
///
/// Unlike [`crate::record_trace`] this deliberately skips the
/// application-context driver: its megabyte-scale pointer ring would
/// dominate every per-image [`Space`] clone during fuzzing without
/// adding crash-relevant behaviour (driver traffic is never logged, so
/// it cannot change recovery).
///
/// # Panics
///
/// Panics if the freshly populated structure fails verification (a
/// workload bug, never an expected outcome).
pub fn record_bundle(spec: &BundleSpec) -> CrashBundle {
    let mut env = PmemEnv::new(spec.variant);
    env.set_flush_mode(spec.flush_mode);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut w = make_workload(spec.id);
    env.set_recording(false);
    w.setup(&mut env, &mut rng, spec.init_ops);
    env.set_recording(true);
    let base = env.snapshot();
    let mut states: Vec<BTreeSet<u64>> = Vec::with_capacity(spec.sim_ops as usize + 1);
    states.push(
        w.verify(env.space())
            .expect("post-init structure must verify")
            .keys
            .into_iter()
            .collect(),
    );
    for op in 0..spec.sim_ops {
        let mut cur = states.last().expect("non-empty").clone();
        match w.run_op(&mut env, &mut rng, op) {
            OpOutcome::Inserted(k) => {
                cur.insert(k);
            }
            OpOutcome::Deleted(k) => {
                cur.remove(&k);
            }
            OpOutcome::Swapped(..) | OpOutcome::Noop => {}
        }
        states.push(cur);
    }
    let layout = env.log_layout();
    let events = env.take_trace().events;
    CrashBundle {
        spec: *spec,
        tx_ends: tx_ends(&events),
        trace: CrashTrace::new(base, events),
        layout,
        states,
        workload: w,
    }
}

impl CrashBundle {
    /// The spec this bundle was recorded from.
    pub fn spec(&self) -> &BundleSpec {
        &self.spec
    }

    /// The recorded event stream (crash indices range over
    /// `0..=events().len()`).
    pub fn events(&self) -> &[Event] {
        self.trace.events()
    }

    /// Expected logical contents after each completed operation
    /// (`states()[0]` is the post-init state).
    pub fn states(&self) -> &[BTreeSet<u64>] {
        &self.states
    }

    /// Number of `TxEnd` markers before `crash_idx`: the count of
    /// operations certainly completed at the crash.
    pub fn completed_ops(&self, crash_idx: usize) -> usize {
        completed_before(&self.tx_ends, crash_idx)
    }

    /// Runs recovery and the full oracle against `image`, which must be
    /// a candidate NVMM image of a crash at `crash_idx`.
    ///
    /// # Errors
    ///
    /// Returns the violation if the recovered structure is invalid or
    /// its contents match neither adjacent operation boundary.
    pub fn check_image(&self, image: &mut Space, crash_idx: usize) -> Result<(), OracleViolation> {
        self.check_image_at(image, self.completed_ops(crash_idx))
    }

    /// The oracle body, parameterized on the completed-operation count
    /// so foreign event streams (see [`CrashBundle::foreign`]) can
    /// supply their own.
    fn check_image_at(&self, image: &mut Space, completed: usize) -> Result<(), OracleViolation> {
        recover(image, &self.layout);
        let raw_keys = match self.workload.verify(image) {
            Ok(s) => s.keys,
            Err(e) => {
                return Err(OracleViolation {
                    kind: ViolationKind::StructureInvalid,
                    detail: e.to_string(),
                })
            }
        };
        let got: BTreeSet<u64> = raw_keys.iter().copied().collect();
        // The crash may land between the durable logged_bit clear and
        // the (zero-cost) TxEnd marker: the next state is then already
        // durable despite not being counted.
        let next = (completed + 1).min(self.states.len() - 1);
        if got != self.states[completed] && got != self.states[next] {
            return Err(OracleViolation {
                kind: ViolationKind::StateMismatch,
                detail: format!(
                    "recovered contents ({} keys) match neither the state after {completed} \
                     completed operations ({} keys) nor the next boundary ({} keys)",
                    got.len(),
                    self.states[completed].len(),
                    self.states[next].len()
                ),
            });
        }
        // Multi-key scan semantics: the raw key list, read as one full-
        // range scan, must be a consistent view of a single boundary.
        // This catches duplicate keys that set conversion collapses
        // (workloads whose verify returns unsorted keys are sorted
        // first; duplicates survive sorting).
        let mut sorted = raw_keys;
        sorted.sort_unstable();
        check_scan_window(
            &sorted,
            0,
            u64::MAX,
            &self.states[completed],
            &self.states[next],
        )
    }

    /// Replays one adversarial schedule: crash at `crash_idx`, per-block
    /// writeback cuts drawn from `seed` (see
    /// [`spp_pmem::CrashSim::image_seeded`]), then recovery and the
    /// oracle. The recording is indexed once, at the first check; every
    /// later check reuses that index.
    ///
    /// # Errors
    ///
    /// Returns the violation for a failing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `crash_idx > events().len()`.
    pub fn check_crash(&self, crash_idx: usize, seed: u64) -> Result<(), OracleViolation> {
        self.check_crash_of(&self.trace, &self.tx_ends, crash_idx, seed)
    }

    /// Prepares a *foreign* event stream for crash checks against this
    /// bundle's oracle: a transformed replay of the recording (e.g. a
    /// persist-elision plan applied by `spp_bench::optimize`) that must
    /// still satisfy the same recovery oracle. The stream must perform
    /// the same stores and transactions as the recording; only persist
    /// operations may differ. It is crashed over a copy of this
    /// bundle's base image, and its completed-operation count is taken
    /// from `events`, not from the recording.
    pub fn foreign(&self, events: Vec<Event>) -> ForeignStream<'_> {
        ForeignStream {
            bundle: self,
            tx_ends: tx_ends(&events),
            trace: CrashTrace::new(self.trace.base().clone(), events),
        }
    }

    fn check_crash_of(
        &self,
        trace: &CrashTrace,
        tx_ends: &[usize],
        crash_idx: usize,
        seed: u64,
    ) -> Result<(), OracleViolation> {
        let mut img = trace.at(crash_idx).image_seeded(seed);
        self.check_image_at(&mut img, completed_before(tx_ends, crash_idx))
    }
}

/// A foreign event stream prepared for crash checks against a bundle's
/// oracle (see [`CrashBundle::foreign`]).
#[derive(Debug)]
pub struct ForeignStream<'a> {
    bundle: &'a CrashBundle,
    trace: CrashTrace,
    /// Positions of the stream's `TxEnd` markers.
    tx_ends: Vec<usize>,
}

impl ForeignStream<'_> {
    /// Like [`CrashBundle::check_crash`], but crashes the foreign
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns the violation for a failing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `crash_idx` is past the end of the stream.
    pub fn check_crash(&self, crash_idx: usize, seed: u64) -> Result<(), OracleViolation> {
        self.bundle
            .check_crash_of(&self.trace, &self.tx_ends, crash_idx, seed)
    }
}

/// Positions of the `TxEnd` markers in `events`.
fn tx_ends(events: &[Event]) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(ev, Event::TxEnd(_)))
        .map(|(i, _)| i)
        .collect()
}

/// Number of `TxEnd` markers (at positions `tx_ends`) before
/// `crash_idx`: the operations certainly completed at a crash there.
fn completed_before(tx_ends: &[usize], crash_idx: usize) -> usize {
    tx_ends.partition_point(|&i| i < crash_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pmem::persist_boundaries;

    fn spec(id: BenchId, variant: Variant) -> BundleSpec {
        BundleSpec {
            id,
            variant,
            flush_mode: FlushMode::default(),
            init_ops: 40,
            sim_ops: 4,
            seed: 0xFACE,
        }
    }

    #[test]
    fn bundle_records_states_per_op() {
        let b = record_bundle(&spec(BenchId::LinkedList, Variant::LogPSf));
        assert_eq!(b.states().len(), 5);
        assert!(!b.events().is_empty());
        assert_eq!(b.completed_ops(b.events().len()), 4);
        assert_eq!(b.completed_ops(0), 0);
    }

    #[test]
    fn logpsf_passes_oracle_at_every_boundary() {
        for id in [BenchId::LinkedList, BenchId::AvlTree, BenchId::HashMap] {
            let b = record_bundle(&spec(id, Variant::LogPSf));
            for &p in &persist_boundaries(b.events()) {
                for seed in 0..2u64 {
                    if let Err(v) = b.check_crash(p, seed) {
                        panic!("{id} @ {p} seed {seed}: {v}");
                    }
                }
            }
        }
    }

    /// A foreign stream that is the recording itself gets the
    /// recording's verdict at every crash point, failures included.
    #[test]
    fn foreign_stream_of_the_recording_agrees_with_check_crash() {
        let b = record_bundle(&spec(BenchId::LinkedList, Variant::Log));
        let stream = b.foreign(b.events().to_vec());
        let mut failures = 0;
        for p in 0..=b.events().len() {
            let own = b.check_crash(p, 1).map_err(|v| v.to_string());
            failures += usize::from(own.is_err());
            assert_eq!(
                stream.check_crash(p, 1).map_err(|v| v.to_string()),
                own,
                "@{p}"
            );
        }
        assert!(failures > 0, "the Log build must fail somewhere");
    }

    #[test]
    fn log_variant_fails_oracle_somewhere() {
        let mut found = false;
        'outer: for id in [BenchId::LinkedList, BenchId::AvlTree] {
            let b = record_bundle(&spec(id, Variant::Log));
            for &p in &persist_boundaries(b.events()) {
                for seed in 0..4u64 {
                    if b.check_crash(p, seed).is_err() {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "Log (no persist ops) never violated the oracle");
    }

    #[test]
    fn eager_final_image_is_the_last_state() {
        let b = record_bundle(&spec(BenchId::RbTree, Variant::LogPSf));
        let mut img = b.trace.at(b.events().len()).image_everything();
        b.check_image(&mut img, b.events().len())
            .expect("eager final image must be the final state");
    }

    #[test]
    fn string_swap_oracle_detects_torn_swaps() {
        // In the Log build nothing is ever guaranteed: adversarial
        // schedules can tear a 4-block string copy mid-swap, which the
        // index-tagged content check must catch as a violation.
        let b = record_bundle(&spec(BenchId::StringSwap, Variant::Log));
        let mut found = false;
        for &p in &persist_boundaries(b.events()) {
            for seed in 0..8u64 {
                if b.check_crash(p, seed).is_err() {
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "torn string swaps went undetected");
    }

    #[test]
    fn scan_window_flags_half_applied_insert() {
        let prev: BTreeSet<u64> = [1, 5, 9].into();
        // The op inserted key 3. A scan that sees the new key 3 but lost
        // committed key 5 matches neither boundary: half-applied, flagged.
        let next: BTreeSet<u64> = [1, 3, 5, 9].into();
        let err = check_scan_window(&[1, 3, 9], 0, 10, &prev, &next).unwrap_err();
        assert_eq!(err.kind, ViolationKind::ScanInconsistent);
        assert!(err.to_string().contains("half-applied"), "{err}");
        // Both adjacent boundary views are fine.
        check_scan_window(&[1, 5, 9], 0, 10, &prev, &next).unwrap();
        check_scan_window(&[1, 3, 5, 9], 0, 10, &prev, &next).unwrap();
    }

    #[test]
    fn scan_window_flags_duplicates_disorder_and_strays() {
        let s: BTreeSet<u64> = [1, 2].into();
        assert!(check_scan_window(&[1, 1, 2], 0, 10, &s, &s).is_err());
        assert!(check_scan_window(&[2, 1], 0, 10, &s, &s).is_err());
        assert!(check_scan_window(&[1, 2, 11], 0, 10, &s, &s).is_err());
        check_scan_window(&[1, 2], 0, 10, &s, &s).unwrap();
        check_scan_window(&[], 3, 10, &s, &s).unwrap();
    }

    #[test]
    fn scan_window_respects_bounds() {
        let prev: BTreeSet<u64> = [1, 5, 9].into();
        let next: BTreeSet<u64> = [1, 5, 7, 9].into();
        // Window [4, 8]: prev sees {5}, next sees {5, 7}.
        check_scan_window(&[5], 4, 8, &prev, &next).unwrap();
        check_scan_window(&[5, 7], 4, 8, &prev, &next).unwrap();
        // {7} alone dropped committed key 5: neither boundary.
        assert!(check_scan_window(&[7], 4, 8, &prev, &next).is_err());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = OracleViolation {
            kind: ViolationKind::StateMismatch,
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "state-mismatch: x");
        let v2 = OracleViolation {
            kind: ViolationKind::StructureInvalid,
            detail: "y".into(),
        };
        assert!(v2.to_string().starts_with("structure-invalid"));
    }
}
