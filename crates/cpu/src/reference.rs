//! The frozen reference stepper: a verbatim copy of the pipeline as it
//! stood before the event-driven scheduler refactor.
//!
//! This module exists purely as the correctness oracle for the fast
//! core. [`ReferencePipeline`] is the pre-refactor [`crate::Pipeline`]
//! — naive per-cycle scans of the pending persist sets and the full
//! issue window — kept byte-for-byte so the cycle-equivalence gate
//! (`cargo test -p spp-bench --test cycle_equivalence`, plus the
//! proptest in this file) compares the optimized scheduler against the
//! exact semantics it replaced rather than against itself.
//!
//! It is compiled only for tests and behind the `reference-stepper`
//! feature, so release binaries carry no dead slow path. Do not "fix"
//! or optimize this file: any intentional timing change to the live
//! pipeline must land in both, in the same commit, with the equivalence
//! suite re-run.

use std::collections::VecDeque;

use spp_core::{BloomFilter, Blt, EpochManager, Ssb, SsbEntry, SsbOp};
use spp_mem::{AccessKind, Cycle, Fault, FaultSite, FaultState, MemorySystem, PIPE_STREAM};
use spp_obs::{ProbeEvent, ProbeHandle, StallCause};
use spp_pmem::{BlockId, Event, PAddr};

use crate::config::{CpuConfig, SpConfig};
use crate::error::{DiagnosticSnapshot, SimError, SimErrorKind};
use crate::stats::{CpuStats, EpochRetired, SimResult};
use crate::uop::{TraceCursor, Uop, UopKind};
use crate::vislog::{VisEvent, VisOp};

/// Internal step failure: lightweight so it can be raised inside
/// borrow-heavy regions; [`ReferencePipeline::step`] attaches the diagnostic
/// snapshot when converting it into a [`SimError`].
#[derive(Debug, Clone, Copy)]
enum StepErr {
    /// An internal invariant broke.
    Broken(&'static str),
    /// No progress and no scheduled future event.
    Wedged,
    /// The forward-progress watchdog fired at this bound.
    Watchdog(Cycle),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    /// Not yet issued.
    Waiting,
    /// Executing; completes at the cycle.
    Exec(Cycle),
    /// Complete (or retire-time semantics).
    Ready,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    uop: Uop,
    seq: u64,
    state: EState,
    /// For dependent loads: the seq of the previous load in program
    /// order (pointer chasing).
    prev_load: Option<u64>,
}

impl RobEntry {
    fn complete(&self, now: Cycle) -> bool {
        match self.state {
            EState::Ready => true,
            EState::Exec(t) => t <= now,
            EState::Waiting => false,
        }
    }
}

/// Commit gate of one speculative epoch (§4.2.1).
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// Epoch this gate guards.
    epoch: u64,
    /// Absolute cycle the epoch's entry obligation completes; `None`
    /// until the predecessor's drained `sfence-pcommit-sfence` issues
    /// its pcommit.
    ready_at: Option<Cycle>,
    /// Additionally require all older SSB entries drained and their
    /// writebacks visible.
    needs_prior_drain: bool,
}

#[derive(Debug)]
struct SpState {
    cfg: SpConfig,
    ssb: Ssb,
    bloom: BloomFilter,
    bloom_dirty: bool,
    blt: Blt,
    epochs: EpochManager,
    gates: VecDeque<Gate>,
    /// Highest committed epoch id; entries tagged at or below it drain.
    committed_frontier: Option<u64>,
    drain_busy: Cycle,
    /// Max global-visibility time of flushes drained from the SSB.
    drain_visible_frontier: Cycle,
    /// Is the core retiring speculatively?
    speculating: bool,
    /// Per-live-epoch retired micro-op breakdowns (squash accounting).
    retired_per_epoch: VecDeque<(u64, EpochRetired)>,
}

impl SpState {
    fn new(cfg: SpConfig) -> Self {
        SpState {
            ssb: Ssb::new(cfg.ssb),
            bloom: BloomFilter::with_bytes(cfg.bloom_bytes),
            bloom_dirty: false,
            blt: Blt::new(),
            epochs: EpochManager::new(cfg.checkpoints),
            gates: VecDeque::new(),
            committed_frontier: None,
            drain_busy: 0,
            drain_visible_frontier: 0,
            speculating: false,
            retired_per_epoch: VecDeque::new(),
            cfg,
        }
    }

    fn frontier_committed(&self, epoch: u64) -> bool {
        self.committed_frontier.is_some_and(|f| epoch <= f)
    }
}

/// The pipeline simulator. Construct with [`ReferencePipeline::new`], drive with
/// [`run`](ReferencePipeline::run) (or [`step`](ReferencePipeline::step) /
/// [`inject_coherence`](ReferencePipeline::inject_coherence) for fine-grained
/// tests), then read [`result`](ReferencePipeline::result).
#[derive(Debug)]
pub struct ReferencePipeline<'t> {
    cfg: CpuConfig,
    cursor: TraceCursor<'t>,
    mem: MemorySystem,
    now: Cycle,
    fetchq: VecDeque<Uop>,
    rob: VecDeque<RobEntry>,
    seq_base: u64,
    next_seq: u64,
    lsq_used: usize,
    last_load_seq: Option<u64>,
    /// Post-retirement store buffer: block to write plus the source
    /// trace index of the store (persist-visibility attribution).
    store_buffer: VecDeque<(BlockId, usize)>,
    sb_busy: Cycle,
    pending_flushes: Vec<Cycle>,
    pending_pcommits: Vec<Cycle>,
    sp: Option<SpState>,
    /// Pipeline-side fault-injection streams (ack return/duplication,
    /// SSB and checkpoint pressure); `None` without a fault plan.
    faults: Option<FaultState>,
    /// Cycle of the most recent retirement (watchdog reference point).
    last_retire: Cycle,
    stats: CpuStats,
    /// Observability probe (disabled by default — one dead branch per
    /// emission site). Never influences timing or architectural state.
    probe: ProbeHandle,
    /// Cycle the current fence-stall episode opened at, if one is open
    /// (probe bookkeeping only).
    fence_stall_open: Option<Cycle>,
    /// Persist-visibility log (litmus harness). `None` unless enabled —
    /// the default path pays one dead branch per persist effect. Pure
    /// recording: never influences timing or architectural state.
    vislog: Option<Vec<VisEvent>>,
}

impl<'t> ReferencePipeline<'t> {
    /// Builds a pipeline over a recorded event trace with its own
    /// private memory system.
    pub fn new(events: &'t [Event], cfg: CpuConfig) -> Self {
        Self::with_memory(events, cfg, MemorySystem::new(cfg.mem))
    }

    /// Builds a pipeline over an explicitly constructed memory system
    /// (e.g. one sharing its memory controller with other cores — see
    /// [`crate::MultiCore`]).
    pub fn with_memory(events: &'t [Event], cfg: CpuConfig, mem: MemorySystem) -> Self {
        ReferencePipeline {
            cursor: TraceCursor::new(events),
            mem,
            now: 0,
            fetchq: VecDeque::with_capacity(cfg.fetch_queue),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            seq_base: 0,
            next_seq: 0,
            lsq_used: 0,
            last_load_seq: None,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer),
            sb_busy: 0,
            pending_flushes: Vec::new(),
            pending_pcommits: Vec::new(),
            sp: cfg.sp.map(SpState::new),
            faults: cfg.mem.fault.map(|spec| FaultState::new(spec, PIPE_STREAM)),
            last_retire: 0,
            stats: CpuStats::default(),
            probe: ProbeHandle::disabled(),
            fence_stall_open: None,
            vislog: None,
            cfg,
        }
    }

    /// Starts recording the persist-visibility log: one [`VisEvent`]
    /// per store drain, flush posting, `pcommit` issue, and realized
    /// fence. Off by default. See [`crate::vislog`].
    pub fn enable_persist_log(&mut self) {
        self.vislog = Some(Vec::new());
    }

    /// Takes the recorded persist-visibility log (empty if logging was
    /// never enabled). Entries are in recording order; feed them to
    /// [`crate::vislog::reconstruct`], which orders by visibility time.
    pub fn take_persist_log(&mut self) -> Vec<VisEvent> {
        self.vislog.take().unwrap_or_default()
    }

    /// Attaches an observability probe to the pipeline and its memory
    /// system. Probes observe epoch lifecycle, pcommit latency, fence
    /// stalls, and buffer occupancy; they never change simulated timing
    /// or architectural state (pinned by the probe-neutrality tests).
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.mem.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Has every micro-op retired and every buffer drained?
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
            && self.fetchq.is_empty()
            && self.rob.is_empty()
            && self.store_buffer.is_empty()
            && self
                .sp
                .as_ref()
                .is_none_or(|sp| sp.ssb.is_empty() && sp.epochs.is_empty() && !sp.speculating)
    }

    /// Runs to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (watchdog, deadlock, or broken
    /// invariant); use [`ReferencePipeline::try_run`] to handle the error.
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs to completion, surfacing simulation failures as typed
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] (with a [`DiagnosticSnapshot`]) if the
    /// forward-progress watchdog fires, the pipeline deadlocks, or an
    /// internal invariant breaks.
    pub fn try_run(mut self) -> Result<SimResult, SimError> {
        while !self.is_done() {
            self.step()?;
        }
        if let Some(opened) = self.fence_stall_open.take() {
            self.probe.emit(ProbeEvent::FenceStallEnd {
                now: self.now,
                stalled: self.now.saturating_sub(opened),
            });
        }
        Ok(self.result())
    }

    /// Advances one cycle (or skips idle time to the next event).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on watchdog expiry, deadlock, or a broken
    /// internal invariant.
    pub fn step(&mut self) -> Result<(), SimError> {
        match self.step_inner() {
            Ok(()) => Ok(()),
            Err(e) => {
                let kind = match e {
                    StepErr::Broken(what) => SimErrorKind::BrokenInvariant { what },
                    StepErr::Wedged => SimErrorKind::NoFutureEvent,
                    StepErr::Watchdog(bound) => SimErrorKind::NoRetireProgress { bound },
                };
                Err(SimError {
                    kind,
                    snapshot: Box::new(self.snapshot()),
                })
            }
        }
    }

    fn step_inner(&mut self) -> Result<(), StepErr> {
        if !self.probe.is_enabled() {
            return self.step_body();
        }
        // Instrumented path: attribute this step's retirement-stall
        // cycles by diffing the four stall counters around the body, so
        // probe attribution is identical to `CpuStats` by construction.
        let at = self.now;
        let before = self.stats;
        let out = self.step_body();
        self.emit_stall_probes(at, &before);
        out
    }

    /// Emits `RetireStall` deltas and fence-stall episode transitions for
    /// one step that started at cycle `at` with counters `before`.
    fn emit_stall_probes(&mut self, at: Cycle, before: &CpuStats) {
        let s = self.stats;
        let deltas = [
            (
                s.fetch_stall_cycles - before.fetch_stall_cycles,
                StallCause::Backend,
            ),
            (
                s.fence_stall_cycles - before.fence_stall_cycles,
                StallCause::Fence,
            ),
            (
                s.ssb_full_stall_cycles - before.ssb_full_stall_cycles,
                StallCause::SsbFull,
            ),
            (
                s.checkpoint_stall_cycles - before.checkpoint_stall_cycles,
                StallCause::CheckpointFull,
            ),
        ];
        for (cycles, cause) in deltas {
            if cycles > 0 {
                self.probe.emit(ProbeEvent::RetireStall {
                    now: at,
                    cause,
                    cycles,
                });
            }
        }
        let fence_stalling = s.fence_stall_cycles > before.fence_stall_cycles;
        match (self.fence_stall_open, fence_stalling) {
            (None, true) => {
                self.fence_stall_open = Some(at);
                self.probe.emit(ProbeEvent::FenceStallBegin { now: at });
            }
            (Some(opened), false) => {
                self.fence_stall_open = None;
                self.probe.emit(ProbeEvent::FenceStallEnd {
                    now: at,
                    stalled: at.saturating_sub(opened),
                });
            }
            _ => {}
        }
    }

    fn step_body(&mut self) -> Result<(), StepErr> {
        let mut progressed = false;
        progressed |= self.commit_drain()?;
        let retire_block = self.retire()?;
        progressed |= retire_block.progressed;
        progressed |= self.drain_store_buffer();
        progressed |= self.issue();
        let dispatched = self.dispatch();
        progressed |= dispatched > 0;
        progressed |= self.fetch();

        let fetch_stalled = !self.fetchq.is_empty() && dispatched == 0;
        if fetch_stalled {
            self.stats.fetch_stall_cycles += 1;
        }

        if progressed || self.is_done() {
            self.now += 1;
        } else if self.fault_retry(&retire_block) {
            // A fault is denying SSB or checkpoint resources: the denial
            // is re-drawn per attempt, so retry next cycle rather than
            // sleeping until a scheduled event that may never come.
            self.now += 1;
        } else {
            let Some(target) = self.next_event_time() else {
                return Err(StepErr::Wedged);
            };
            debug_assert!(
                target > self.now,
                "no-progress cycle must have a future event"
            );
            let skipped = target - self.now - 1;
            if fetch_stalled {
                self.stats.fetch_stall_cycles += skipped;
            }
            if retire_block.fence {
                self.stats.fence_stall_cycles += skipped;
            }
            if retire_block.ssb_full {
                self.stats.ssb_full_stall_cycles += skipped;
            }
            if retire_block.checkpoint {
                self.stats.checkpoint_stall_cycles += skipped;
            }
            self.now = target;
        }
        self.stats.cycles = self.now;

        let bound = self.cfg.watchdog_cycles;
        if bound > 0 && self.now.saturating_sub(self.last_retire) > bound && !self.is_done() {
            return Err(StepErr::Watchdog(bound));
        }
        Ok(())
    }

    /// Should a no-progress cycle retry instead of sleeping? True when a
    /// resource-denial fault may be the cause (its draw can clear on any
    /// retry, so there need not be a scheduled wake-up event).
    fn fault_retry(&self, block: &RetireBlock) -> bool {
        (block.ssb_full || block.checkpoint)
            && self
                .faults
                .as_ref()
                .is_some_and(|f| f.spec().denies_resources())
    }

    /// Captures the diagnostic state attached to [`SimError`]s (public
    /// so harnesses can also inspect a healthy pipeline mid-run).
    pub fn snapshot(&mut self) -> DiagnosticSnapshot {
        let mut snap = DiagnosticSnapshot {
            cycle: self.now,
            rob_head: self.rob.front().map(|e| e.uop),
            rob_len: self.rob.len(),
            fetchq_len: self.fetchq.len(),
            store_buffer_len: self.store_buffer.len(),
            lsq_used: self.lsq_used,
            pending_flushes: self.pending_flushes.len(),
            pending_pcommits: self.pending_pcommits.len(),
            trace_done: self.cursor.is_done(),
            wpq_depth: self.mem.wpq_occupancy(self.now),
            ..DiagnosticSnapshot::default()
        };
        if let Some(sp) = &self.sp {
            snap.speculating = sp.speculating;
            snap.ssb_len = sp.ssb.len();
            for e in sp.ssb.iter() {
                match snap.ssb_per_epoch.last_mut() {
                    Some(last) if last.0 == e.epoch => last.1 += 1,
                    _ => snap.ssb_per_epoch.push((e.epoch, 1)),
                }
            }
            snap.checkpoints_live = sp.epochs.checkpoints_live();
            snap.checkpoint_capacity = sp.epochs.checkpoint_capacity();
        }
        snap
    }

    /// Assembles the final statistics.
    pub fn result(&self) -> SimResult {
        let mut r = SimResult {
            cpu: self.stats,
            mem: self.mem.stats(),
            mc: self.mem.mc_stats(),
            ..SimResult::default()
        };
        r.cpu.cycles = self.now;
        r.faults = self.mem.fault_stats().merged(
            self.faults
                .as_ref()
                .map(FaultState::stats)
                .unwrap_or_default(),
        );
        if let Some(sp) = &self.sp {
            r.ssb = sp.ssb.stats();
            r.bloom = sp.bloom.stats();
            r.checkpoints = sp.epochs.checkpoint_stats();
            r.blt = sp.blt.stats();
            let (epochs, rollbacks) = sp.epochs.counters();
            r.cpu.epochs = epochs;
            r.cpu.rollbacks = rollbacks;
        }
        r
    }

    // ---- external coherence (tests / multicore harnesses) -------------

    /// Delivers an external coherence request for `block`. Returns
    /// `true` if it conflicted with speculative state and triggered a
    /// rollback to the oldest checkpoint.
    pub fn inject_coherence(&mut self, block: BlockId) -> bool {
        let Some(sp) = &mut self.sp else { return false };
        // Count the snoop even outside speculation (the table is empty
        // then, so it is always a miss): a core's snoop count is a pure
        // function of its peers' store streams, independent of how
        // same-cycle scheduling ties were broken.
        let hit = sp.blt.snoop(block);
        if !sp.epochs.speculating() || !hit {
            return false;
        }
        // Rollback: squash everything younger than the oldest checkpoint.
        // (`speculating()` was checked above, so both are `Some`.)
        let Some(oldest) = sp.epochs.oldest() else {
            return false;
        };
        let oldest_epoch = oldest.id;
        let Some(resume) = sp.epochs.rollback() else {
            return false;
        };
        sp.ssb.flush_from(oldest_epoch);
        sp.gates.clear();
        sp.blt.clear();
        sp.speculating = false;
        let mut squashed = EpochRetired::default();
        for &(_, r) in &sp.retired_per_epoch {
            squashed.merge(r);
        }
        sp.retired_per_epoch.clear();
        self.stats.squashed_uops += squashed.uops;
        squashed.retract(&mut self.stats);
        self.stats.rollbacks += 1;
        self.probe.emit(ProbeEvent::EpochRollback {
            now: self.now,
            squashed_uops: squashed.uops,
        });
        self.probe.emit(ProbeEvent::CheckpointOccupancy {
            now: self.now,
            live: sp.epochs.checkpoints_live(),
            capacity: sp.epochs.checkpoint_capacity(),
        });
        self.probe.emit(ProbeEvent::SsbOccupancy {
            now: self.now,
            occupancy: sp.ssb.len(),
            capacity: sp.cfg.ssb.entries,
        });
        self.fetchq.clear();
        self.rob.clear();
        self.seq_base = self.next_seq;
        self.lsq_used = 0;
        self.last_load_seq = None;
        self.cursor.set_position(resume);
        true
    }

    // ---- fetch / dispatch ---------------------------------------------

    fn fetch(&mut self) -> bool {
        let mut any = false;
        for _ in 0..self.cfg.width {
            if self.fetchq.len() >= self.cfg.fetch_queue {
                break;
            }
            match self.cursor.next_uop() {
                Some(u) => {
                    self.fetchq.push_back(u);
                    any = true;
                }
                None => break,
            }
        }
        any
    }

    fn dispatch(&mut self) -> usize {
        let mut n = 0;
        while n < self.cfg.width {
            let Some(&uop) = self.fetchq.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            if uop.kind.is_mem() && self.lsq_used >= self.cfg.lsq_entries {
                break;
            }
            self.fetchq.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            // Dependent loads chain behind the previous *dependent* load
            // (the pointer chain); independent field reads in between do
            // not break the chain.
            let is_dep = matches!(uop.kind, UopKind::Load { dep: true, .. });
            let prev_load = if is_dep { self.last_load_seq } else { None };
            if is_dep {
                self.last_load_seq = Some(seq);
            }
            if uop.kind.is_mem() {
                self.lsq_used += 1;
            }
            let state = match uop.kind {
                UopKind::Compute | UopKind::Load { .. } | UopKind::Store { .. } => EState::Waiting,
                _ => EState::Ready,
            };
            self.rob.push_back(RobEntry {
                uop,
                seq,
                state,
                prev_load,
            });
            n += 1;
        }
        n
    }

    // ---- issue ----------------------------------------------------------

    fn issue(&mut self) -> bool {
        let mut issued = 0;
        let window = self.cfg.issue_queue.min(self.rob.len());
        for i in 0..window {
            if issued >= self.cfg.width {
                break;
            }
            if self.rob[i].state != EState::Waiting {
                continue;
            }
            match self.rob[i].uop.kind {
                UopKind::Compute | UopKind::Store { .. } => {
                    self.rob[i].state = EState::Exec(self.now + 1);
                    issued += 1;
                }
                UopKind::Load { addr, dep } => {
                    if dep {
                        if let Some(prev) = self.rob[i].prev_load {
                            if prev >= self.seq_base {
                                let idx = (prev - self.seq_base) as usize;
                                if !self.rob[idx].complete(self.now) {
                                    continue;
                                }
                            }
                        }
                    }
                    // Store-to-load forwarding from older, unretired
                    // stores in the window.
                    let forwarded = self
                        .rob
                        .iter()
                        .take(i)
                        .any(|e| matches!(e.uop.kind, UopKind::Store { addr: a } if a == addr));
                    let done = if forwarded {
                        self.stats.lsq_forwards += 1;
                        self.now + 1
                    } else {
                        self.load_completion(addr)
                    };
                    self.rob[i].state = EState::Exec(done);
                    issued += 1;
                }
                _ => {}
            }
        }
        issued > 0
    }

    /// Computes a load's completion: bloom + SSB forwarding path when
    /// speculative state may be buffered, cache hierarchy otherwise.
    fn load_completion(&mut self, addr: PAddr) -> Cycle {
        let now = self.now;
        if let Some(sp) = &mut self.sp {
            if sp.speculating {
                sp.blt.record(addr.block());
            }
            if !sp.ssb.is_empty() && sp.bloom.query(addr) {
                let after_cam = now + sp.cfg.ssb.latency;
                if sp.ssb.forwards(addr) {
                    self.stats.ssb_forwards += 1;
                    return after_cam;
                }
                sp.bloom.record_false_positive();
                let (done, _) = self.mem.access(after_cam, addr.block(), AccessKind::Load);
                return done;
            }
        }
        let (done, _) = self.mem.access(now, addr.block(), AccessKind::Load);
        done
    }

    // ---- retire ----------------------------------------------------------

    fn note_spec_retired(&mut self, kind: UopKind) {
        if let Some(sp) = &mut self.sp {
            if sp.speculating {
                if let Some(back) = sp.retired_per_epoch.back_mut() {
                    back.1.note(kind);
                }
            }
        }
    }

    fn pop_retired(&mut self, class: impl Fn(&mut CpuStats)) -> Result<(), StepErr> {
        let Some(e) = self.rob.pop_front() else {
            return Err(StepErr::Broken("retired from an empty ROB"));
        };
        self.seq_base = e.seq + 1;
        if e.uop.kind.is_mem() {
            self.lsq_used -= 1;
        }
        self.stats.committed_uops += 1;
        class(&mut self.stats);
        self.note_spec_retired(e.uop.kind);
        Ok(())
    }

    /// Draws the SSB-pressure site; `true` when a fault denies this
    /// allocation attempt (the held slots cover all currently free
    /// ones).
    fn ssb_alloc_denied(&mut self) -> bool {
        let free = self.sp.as_ref().map_or(0, |s| s.ssb.free());
        if let Some(f) = self.faults.as_mut() {
            if let Some(Fault::SsbPressure { held }) = f.draw(FaultSite::SsbAlloc) {
                return free <= held;
            }
        }
        false
    }

    /// Draws the checkpoint-pressure site; `true` when a fault denies
    /// this allocation attempt.
    fn checkpoint_alloc_denied(&mut self) -> bool {
        self.faults.as_mut().is_some_and(|f| {
            matches!(
                f.draw(FaultSite::CheckpointAlloc),
                Some(Fault::CheckpointPressure)
            )
        })
    }

    /// Draws the ack-return and ack-duplication sites for a `pcommit`
    /// acknowledged at `done`: returns the (possibly delayed) arrival
    /// and queues a duplicate delivery if one fires.
    fn fault_ack(&mut self, mut done: Cycle) -> Cycle {
        if let Some(f) = self.faults.as_mut() {
            if let Some(Fault::PcommitAckDelay { extra }) = f.draw(FaultSite::AckReturn) {
                done += extra;
            }
            if let Some(Fault::PcommitAckDuplicate { redelivery }) = f.draw(FaultSite::AckDuplicate)
            {
                // The duplicate ack arrives later and must be tolerated:
                // it is one more pending acknowledgement for fences to
                // wait out, never a second drain.
                self.pending_pcommits.push(done + redelivery);
            }
        }
        done
    }

    fn pcommit_outstanding(&self) -> bool {
        self.pending_pcommits.iter().any(|&t| t > self.now)
    }

    fn retire(&mut self) -> Result<RetireBlock, StepErr> {
        let mut block = RetireBlock::default();
        let mut retired = 0;
        while retired < self.cfg.width {
            let Some(head) = self.rob.front().copied() else {
                break;
            };
            if !head.complete(self.now) {
                break;
            }
            let speculating = self.sp.as_ref().is_some_and(|s| s.speculating);
            match head.uop.kind {
                UopKind::Compute => {
                    self.pop_retired(|_| {})?;
                }
                UopKind::Load { .. } => {
                    self.pop_retired(|s| s.loads += 1)?;
                }
                UopKind::Store { addr } => {
                    if !self.retire_store(addr, head.uop.trace_idx, &mut block)? {
                        break;
                    }
                }
                UopKind::Clwb { block: b } | UopKind::ClflushOpt { block: b } => {
                    let invalidate = matches!(head.uop.kind, UopKind::ClflushOpt { .. });
                    // clwb is ordered behind older stores to the same
                    // line: wait for the store buffer to drain.
                    if !self.store_buffer.is_empty() {
                        break;
                    }
                    if speculating || self.ssb_nonempty() {
                        let op = if invalidate {
                            SsbOp::ClflushOpt { block: b }
                        } else {
                            SsbOp::Clwb { block: b }
                        };
                        if !self.push_ssb(op, head.uop.trace_idx)? {
                            block.ssb_full = true;
                            self.stats.ssb_full_stall_cycles += 1;
                            break;
                        }
                    } else {
                        let f = self.mem.flush(self.now, b, invalidate);
                        self.pending_flushes.push(f.visible_at);
                        if let Some(l) = self.vislog.as_mut() {
                            l.push(VisEvent {
                                at: self.now,
                                op: VisOp::Flush {
                                    trace_idx: head.uop.trace_idx,
                                },
                            });
                        }
                    }
                    if self.pcommit_outstanding() {
                        self.stats.stores_while_pcommit += 1;
                    }
                    self.pop_retired(|s| s.flushes += 1)?;
                }
                UopKind::Clflush { block: b } => {
                    if !self.retire_clflush(b, head.uop.trace_idx, speculating, &mut block)? {
                        break;
                    }
                }
                UopKind::Pcommit => {
                    if speculating {
                        if !self.retire_spec_pcommit_pattern(head.uop.trace_idx, &mut block)? {
                            break;
                        }
                    } else if self.ssb_nonempty() {
                        if !self.push_ssb(SsbOp::Pcommit, head.uop.trace_idx)? {
                            block.ssb_full = true;
                            self.stats.ssb_full_stall_cycles += 1;
                            break;
                        }
                        self.pop_retired(|s| s.pcommits += 1)?;
                    } else {
                        if let Some(l) = self.vislog.as_mut() {
                            l.push(VisEvent {
                                at: self.now,
                                op: VisOp::Pcommit,
                            });
                        }
                        let done = self.mem.pcommit(self.now);
                        let done = self.fault_ack(done);
                        let inflight = 1 + self
                            .pending_pcommits
                            .iter()
                            .filter(|&&t| t > self.now)
                            .count() as u64;
                        self.stats.max_inflight_pcommits =
                            self.stats.max_inflight_pcommits.max(inflight);
                        self.pending_pcommits.push(done);
                        self.pop_retired(|s| s.pcommits += 1)?;
                    }
                }
                UopKind::Sfence | UopKind::Mfence => {
                    if !self.retire_fence(speculating, &mut block)? {
                        break;
                    }
                }
            }
            retired += 1;
        }
        if retired > 0 {
            self.last_retire = self.now;
        }
        block.progressed = retired > 0;
        Ok(block)
    }

    fn ssb_nonempty(&self) -> bool {
        self.sp.as_ref().is_some_and(|s| !s.ssb.is_empty())
    }

    /// Pushes an op into the SSB tagged with the current tail epoch and
    /// its source trace index.
    /// `Ok(false)` means the SSB is full (or a fault denied the slot).
    fn push_ssb(&mut self, op: SsbOp, trace_idx: usize) -> Result<bool, StepErr> {
        if self.ssb_alloc_denied() {
            return Ok(false);
        }
        let Some(sp) = self.sp.as_mut() else {
            return Err(StepErr::Broken("SSB push without SP"));
        };
        let epoch = if sp.speculating {
            let Some(youngest) = sp.epochs.youngest() else {
                return Err(StepErr::Broken("speculating with no live epoch"));
            };
            youngest.id
        } else {
            // Post-exit tail: ordered behind the already-committed drain.
            sp.committed_frontier.unwrap_or(0)
        };
        let pushed = if let SsbOp::Store { addr } = op {
            if sp
                .ssb
                .push(SsbEntry {
                    op,
                    epoch,
                    trace_idx,
                })
                .is_err()
            {
                return Ok(false);
            }
            sp.bloom.insert(addr);
            sp.bloom_dirty = true;
            if sp.speculating {
                sp.blt.record(addr.block());
            }
            true
        } else {
            sp.ssb
                .push(SsbEntry {
                    op,
                    epoch,
                    trace_idx,
                })
                .is_ok()
        };
        if pushed {
            self.probe.emit(ProbeEvent::SsbOccupancy {
                now: self.now,
                occupancy: sp.ssb.len(),
                capacity: sp.cfg.ssb.entries,
            });
        }
        Ok(pushed)
    }

    fn retire_store(
        &mut self,
        addr: PAddr,
        trace_idx: usize,
        block: &mut RetireBlock,
    ) -> Result<bool, StepErr> {
        let speculating = self.sp.as_ref().is_some_and(|s| s.speculating);
        if speculating || self.ssb_nonempty() {
            if !self.push_ssb(SsbOp::Store { addr }, trace_idx)? {
                block.ssb_full = true;
                self.stats.ssb_full_stall_cycles += 1;
                return Ok(false);
            }
        } else {
            if self.store_buffer.len() >= self.cfg.store_buffer {
                return Ok(false);
            }
            self.store_buffer.push_back((addr.block(), trace_idx));
        }
        if self.pcommit_outstanding() {
            self.stats.stores_while_pcommit += 1;
        }
        self.pop_retired(|s| s.stores += 1)?;
        Ok(true)
    }

    fn retire_clflush(
        &mut self,
        b: BlockId,
        trace_idx: usize,
        speculating: bool,
        block: &mut RetireBlock,
    ) -> Result<bool, StepErr> {
        if !self.store_buffer.is_empty() {
            return Ok(false);
        }
        if speculating || self.ssb_nonempty() {
            if !self.push_ssb(SsbOp::ClflushOpt { block: b }, trace_idx)? {
                block.ssb_full = true;
                return Ok(false);
            }
            self.pop_retired(|s| s.flushes += 1)?;
            return Ok(true);
        }
        // Legacy clflush serializes: issue once, then hold retirement
        // until visible.
        let Some(head) = self.rob.front() else {
            return Err(StepErr::Broken("clflush retire with an empty ROB"));
        };
        match head.state {
            EState::Ready => {
                let f = self.mem.flush(self.now, b, true);
                if let Some(h) = self.rob.front_mut() {
                    h.state = EState::Exec(f.visible_at);
                }
                if let Some(l) = self.vislog.as_mut() {
                    l.push(VisEvent {
                        at: self.now,
                        op: VisOp::Flush { trace_idx },
                    });
                }
                Ok(false)
            }
            EState::Exec(t) if t <= self.now => {
                self.pop_retired(|s| s.flushes += 1)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Speculative-mode `pcommit` at the head: if followed by an
    /// `sfence` (and combining is on), consume both as the combined SSB
    /// opcode and open a child epoch at the trailing fence.
    fn retire_spec_pcommit_pattern(
        &mut self,
        trace_idx: usize,
        block: &mut RetireBlock,
    ) -> Result<bool, StepErr> {
        let Some(combine) = self.sp.as_ref().map(|s| s.cfg.combine_barrier) else {
            return Err(StepErr::Broken("speculative pcommit without SP"));
        };
        let next_is_sfence = self.rob.len() >= 2 && matches!(self.rob[1].uop.kind, UopKind::Sfence);
        if combine && next_is_sfence {
            return self.consume_combined_barrier(0, block);
        }
        if combine && self.rob.len() < 2 && !(self.cursor.is_done() && self.fetchq.is_empty()) {
            // The sfence is probably right behind; wait for dispatch.
            return Ok(false);
        }
        // Bare in-shadow pcommit: delay it into the SSB.
        if !self.push_ssb(SsbOp::Pcommit, trace_idx)? {
            block.ssb_full = true;
            self.stats.ssb_full_stall_cycles += 1;
            return Ok(false);
        }
        self.pop_retired(|s| s.pcommits += 1)?;
        Ok(true)
    }

    /// Consumes `pcommit`(at head offset 0 or 1) + trailing `sfence`:
    /// pushes the combined opcode, opens a child epoch checkpointed at
    /// the trailing fence. `pcommit_at` is the ROB index of the pcommit.
    /// Consumes nothing unless every resource check passes.
    fn consume_combined_barrier(
        &mut self,
        pcommit_at: usize,
        block: &mut RetireBlock,
    ) -> Result<bool, StepErr> {
        let fence_idx = pcommit_at + 1;
        debug_assert!(matches!(self.rob[pcommit_at].uop.kind, UopKind::Pcommit));
        debug_assert!(matches!(self.rob[fence_idx].uop.kind, UopKind::Sfence));
        let resume_idx = self.rob[fence_idx].uop.trace_idx;
        let pcommit_tidx = self.rob[pcommit_at].uop.trace_idx;
        let ssb_denied = self.ssb_alloc_denied();
        let ckpt_denied = self.checkpoint_alloc_denied();
        {
            let Some(sp) = self.sp.as_mut() else {
                return Err(StepErr::Broken("combined barrier without SP"));
            };
            if sp.ssb.free() < 1 || ssb_denied {
                block.ssb_full = true;
                self.stats.ssb_full_stall_cycles += 1;
                return Ok(false);
            }
            if !sp.epochs.can_begin() || ckpt_denied {
                block.checkpoint = true;
                self.stats.checkpoint_stall_cycles += 1;
                return Ok(false);
            }
            let Some(parent) = sp.epochs.youngest() else {
                return Err(StepErr::Broken("combined barrier while not speculating"));
            };
            let parent = parent.id;
            if sp
                .ssb
                .push(SsbEntry {
                    op: SsbOp::SfencePcommitSfence,
                    epoch: parent,
                    trace_idx: pcommit_tidx,
                })
                .is_err()
            {
                return Err(StepErr::Broken("SSB push failed after free-space check"));
            }
            self.probe.emit(ProbeEvent::SsbOccupancy {
                now: self.now,
                occupancy: sp.ssb.len(),
                capacity: sp.cfg.ssb.entries,
            });
            let Ok(child) = sp.epochs.begin(resume_idx, self.now) else {
                return Err(StepErr::Broken("checkpoint begin failed after can_begin"));
            };
            sp.gates.push_back(Gate {
                epoch: child,
                ready_at: None,
                needs_prior_drain: false,
            });
            sp.retired_per_epoch
                .push_back((child, EpochRetired::default()));
            self.probe.emit(ProbeEvent::EpochBegin {
                now: self.now,
                epoch: child,
            });
            self.probe.emit(ProbeEvent::CheckpointOccupancy {
                now: self.now,
                live: sp.epochs.checkpoints_live(),
                capacity: sp.epochs.checkpoint_capacity(),
            });
        }
        self.stats.epochs += 1;
        // Retire the consumed micro-ops (leading sfence if present,
        // pcommit, trailing sfence).
        for _ in 0..=fence_idx {
            let Some(e) = self.rob.pop_front() else {
                return Err(StepErr::Broken("combined pattern missing its ROB entries"));
            };
            self.seq_base = e.seq + 1;
            self.stats.committed_uops += 1;
            match e.uop.kind {
                UopKind::Pcommit => self.stats.pcommits += 1,
                UopKind::Sfence => self.stats.fences += 1,
                _ => return Err(StepErr::Broken("combined pattern held a non-barrier uop")),
            }
        }
        // Squash attribution: the child's checkpoint resumes at the
        // trailing sfence, so only that micro-op belongs to the child;
        // the leading sfence/pcommit precede the checkpoint and belong
        // to the parent epoch.
        if let Some(sp) = &mut self.sp {
            let n = sp.retired_per_epoch.len();
            debug_assert!(n >= 2, "combined barrier needs a parent epoch");
            if n >= 2 {
                let parent = &mut sp.retired_per_epoch[n - 2].1;
                parent.uops += fence_idx as u64;
                parent.pcommits += 1;
                parent.fences += fence_idx as u64 - 1;
            }
            if let Some(back) = sp.retired_per_epoch.back_mut() {
                back.1.uops += 1;
                back.1.fences += 1;
            }
        }
        Ok(true)
    }

    fn retire_fence(
        &mut self,
        speculating: bool,
        block: &mut RetireBlock,
    ) -> Result<bool, StepErr> {
        if speculating {
            // In-shadow fence: combined pattern or a bare child epoch.
            let Some(combine) = self.sp.as_ref().map(|s| s.cfg.combine_barrier) else {
                return Err(StepErr::Broken("speculative fence without SP"));
            };
            let pat = combine
                && self.rob.len() >= 3
                && matches!(self.rob[0].uop.kind, UopKind::Sfence)
                && matches!(self.rob[1].uop.kind, UopKind::Pcommit)
                && matches!(self.rob[2].uop.kind, UopKind::Sfence);
            if pat {
                // Leading sfence + pcommit + trailing sfence: the
                // combined path checks resources before consuming, so it
                // can take all three directly.
                return self.consume_combined_barrier(1, block);
            }
            if combine && self.rob.len() < 3 && !(self.cursor.is_done() && self.fetchq.is_empty()) {
                return Ok(false); // wait for the rest of the pattern
            }
            // Bare fence: new child epoch (no pending pcommit of its own).
            let Some(head) = self.rob.front() else {
                return Err(StepErr::Broken("fence retire with an empty ROB"));
            };
            let resume_idx = head.uop.trace_idx;
            let ckpt_denied = self.checkpoint_alloc_denied();
            {
                let Some(sp) = self.sp.as_mut() else {
                    return Err(StepErr::Broken("speculative fence without SP"));
                };
                if !sp.epochs.can_begin() || ckpt_denied {
                    block.checkpoint = true;
                    self.stats.checkpoint_stall_cycles += 1;
                    return Ok(false);
                }
                let Ok(child) = sp.epochs.begin(resume_idx, self.now) else {
                    return Err(StepErr::Broken("checkpoint begin failed after can_begin"));
                };
                sp.gates.push_back(Gate {
                    epoch: child,
                    ready_at: Some(self.now),
                    needs_prior_drain: true,
                });
                sp.retired_per_epoch
                    .push_back((child, EpochRetired::default()));
                self.probe.emit(ProbeEvent::EpochBegin {
                    now: self.now,
                    epoch: child,
                });
                self.probe.emit(ProbeEvent::CheckpointOccupancy {
                    now: self.now,
                    live: sp.epochs.checkpoints_live(),
                    capacity: sp.epochs.checkpoint_capacity(),
                });
            }
            self.stats.epochs += 1;
            self.pop_retired(|s| s.fences += 1)?;
            return Ok(true);
        }

        // Non-speculative fence: wait for the store buffer and all
        // posted persist operations.
        if !self.store_buffer.is_empty() {
            block.fence = true;
            self.stats.fence_stall_cycles += 1;
            return Ok(false);
        }
        let now = self.now;
        self.pending_flushes.retain(|&t| t > now);
        self.pending_pcommits.retain(|&t| t > now);
        let flushes_pending = !self.pending_flushes.is_empty();
        let pcommits_pending = !self.pending_pcommits.is_empty();
        let drain_pending = self.ssb_nonempty()
            || self
                .sp
                .as_ref()
                .is_some_and(|s| s.drain_visible_frontier > now);
        if !flushes_pending && !pcommits_pending && !drain_pending {
            if let Some(l) = self.vislog.as_mut() {
                l.push(VisEvent {
                    at: now,
                    op: VisOp::Fence,
                });
            }
            self.pop_retired(|s| s.fences += 1)?;
            return Ok(true);
        }
        // Blocked. Trigger speculation if enabled and the wait involves
        // pcommit acknowledgements or a pending SSB drain (§4.2.1); a
        // pure clwb-visibility wait is short and simply stalls.
        if self.sp.is_some() && (pcommits_pending || drain_pending) {
            let Some(head) = self.rob.front() else {
                return Err(StepErr::Broken("fence retire with an empty ROB"));
            };
            let resume_idx = head.uop.trace_idx;
            let gate_time = self
                .pending_flushes
                .iter()
                .chain(self.pending_pcommits.iter())
                .copied()
                .max()
                .unwrap_or(now);
            let ckpt_denied = self.checkpoint_alloc_denied();
            let Some(sp) = self.sp.as_mut() else {
                return Err(StepErr::Broken("speculation entry without SP"));
            };
            if !sp.epochs.can_begin() || ckpt_denied {
                block.checkpoint = true;
                self.stats.checkpoint_stall_cycles += 1;
                return Ok(false);
            }
            let Ok(e0) = sp.epochs.begin(resume_idx, now) else {
                return Err(StepErr::Broken("checkpoint begin failed after can_begin"));
            };
            sp.gates.push_back(Gate {
                epoch: e0,
                ready_at: Some(gate_time),
                needs_prior_drain: drain_pending,
            });
            sp.retired_per_epoch
                .push_back((e0, EpochRetired::default()));
            sp.speculating = true;
            self.probe.emit(ProbeEvent::EpochBegin { now, epoch: e0 });
            self.probe.emit(ProbeEvent::CheckpointOccupancy {
                now,
                live: sp.epochs.checkpoints_live(),
                capacity: sp.epochs.checkpoint_capacity(),
            });
            self.stats.epochs += 1;
            self.pending_flushes.clear();
            self.pending_pcommits.clear();
            self.pop_retired(|s| s.fences += 1)?;
            return Ok(true);
        }
        block.fence = true;
        self.stats.fence_stall_cycles += 1;
        Ok(false)
    }

    // ---- store buffer ----------------------------------------------------

    fn drain_store_buffer(&mut self) -> bool {
        let mut any = false;
        while self.sb_busy <= self.now {
            let Some((b, trace_idx)) = self.store_buffer.pop_front() else {
                break;
            };
            // Posted write: state effects now, 1/cycle pacing.
            let _ = self.mem.access(self.now, b, AccessKind::Store);
            if let Some(l) = self.vislog.as_mut() {
                l.push(VisEvent {
                    at: self.now,
                    op: VisOp::Store { trace_idx },
                });
            }
            self.sb_busy = self.now + 1;
            any = true;
        }
        any
    }

    // ---- SP commit & drain -------------------------------------------------

    fn commit_drain(&mut self) -> Result<bool, StepErr> {
        let now = self.now;
        let Some(sp) = &mut self.sp else {
            return Ok(false);
        };
        let mut progressed = false;

        // Commit epochs whose gates pass, oldest first.
        while let Some(oldest) = sp.epochs.oldest() {
            let Some(gate) = sp.gates.front() else {
                return Err(StepErr::Broken("live epoch without a commit gate"));
            };
            debug_assert_eq!(gate.epoch, oldest.id);
            let Some(t) = gate.ready_at else { break };
            if t > now {
                break;
            }
            if gate.needs_prior_drain {
                let older_drained = sp.ssb.peek_front().is_none_or(|f| f.epoch >= oldest.id);
                if !older_drained || sp.drain_busy > now || sp.drain_visible_frontier > now {
                    break;
                }
            }
            if sp.epochs.commit_oldest().is_none() {
                return Err(StepErr::Broken("commit of a vanished epoch"));
            }
            sp.gates.pop_front();
            sp.retired_per_epoch.pop_front();
            sp.committed_frontier = Some(oldest.id);
            // Each epoch corresponds to exactly one program fence (the
            // one whose speculative retirement opened it); its ordering
            // guarantee is realized here, at commit.
            if let Some(l) = self.vislog.as_mut() {
                l.push(VisEvent {
                    at: now,
                    op: VisOp::Fence,
                });
            }
            self.probe.emit(ProbeEvent::EpochCommit {
                now,
                epoch: oldest.id,
                began_at: oldest.checkpoint.taken_at,
            });
            self.probe.emit(ProbeEvent::CheckpointOccupancy {
                now,
                live: sp.epochs.checkpoints_live(),
                capacity: sp.epochs.checkpoint_capacity(),
            });
            if sp.epochs.is_empty() {
                // Exiting speculation; the SSB drains in the background.
                sp.speculating = false;
                sp.blt.clear();
            }
            progressed = true;
        }

        // Drain committed entries from the SSB front.
        while sp.drain_busy <= now {
            let Some(front) = sp.ssb.peek_front() else {
                break;
            };
            if !sp.frontier_committed(front.epoch) {
                break;
            }
            let Some(e) = sp.ssb.pop_front() else {
                return Err(StepErr::Broken("SSB entry vanished mid-drain"));
            };
            let t = sp.drain_busy.max(now);
            match e.op {
                SsbOp::Store { addr } => {
                    let _ = self.mem.access(t, addr.block(), AccessKind::Store);
                    if let Some(l) = self.vislog.as_mut() {
                        l.push(VisEvent {
                            at: t,
                            op: VisOp::Store {
                                trace_idx: e.trace_idx,
                            },
                        });
                    }
                    sp.drain_busy = t + 1;
                }
                SsbOp::Clwb { block } => {
                    let f = self.mem.flush(t, block, false);
                    sp.drain_visible_frontier = sp.drain_visible_frontier.max(f.visible_at);
                    if let Some(l) = self.vislog.as_mut() {
                        l.push(VisEvent {
                            at: t,
                            op: VisOp::Flush {
                                trace_idx: e.trace_idx,
                            },
                        });
                    }
                    sp.drain_busy = t + 1;
                }
                SsbOp::ClflushOpt { block } => {
                    let f = self.mem.flush(t, block, true);
                    sp.drain_visible_frontier = sp.drain_visible_frontier.max(f.visible_at);
                    if let Some(l) = self.vislog.as_mut() {
                        l.push(VisEvent {
                            at: t,
                            op: VisOp::Flush {
                                trace_idx: e.trace_idx,
                            },
                        });
                    }
                    sp.drain_busy = t + 1;
                }
                SsbOp::Pcommit => {
                    let _ = self.mem.pcommit(t);
                    if let Some(l) = self.vislog.as_mut() {
                        l.push(VisEvent {
                            at: t,
                            op: VisOp::Pcommit,
                        });
                    }
                    sp.drain_busy = t + 1;
                }
                SsbOp::SfencePcommitSfence => {
                    // The leading fence orders the drained writebacks;
                    // then the pcommit issues and its ack gates the next
                    // epoch.
                    let issue = t.max(sp.drain_visible_frontier);
                    if let Some(l) = self.vislog.as_mut() {
                        l.push(VisEvent {
                            at: issue,
                            op: VisOp::Fence,
                        });
                        l.push(VisEvent {
                            at: issue,
                            op: VisOp::Pcommit,
                        });
                    }
                    let mut done = self.mem.pcommit(issue);
                    // Ack faults apply here too: a delayed ack holds the
                    // next epoch's gate; a duplicate becomes one more
                    // pending acknowledgement for later fences.
                    if let Some(f) = self.faults.as_mut() {
                        if let Some(Fault::PcommitAckDelay { extra }) = f.draw(FaultSite::AckReturn)
                        {
                            done += extra;
                        }
                        if let Some(Fault::PcommitAckDuplicate { redelivery }) =
                            f.draw(FaultSite::AckDuplicate)
                        {
                            self.pending_pcommits.push(done + redelivery);
                        }
                    }
                    let inflight =
                        1 + self.pending_pcommits.iter().filter(|&&pt| pt > now).count() as u64;
                    self.stats.max_inflight_pcommits =
                        self.stats.max_inflight_pcommits.max(inflight);
                    if let Some(g) = sp.gates.front_mut() {
                        if g.ready_at.is_none() {
                            g.ready_at = Some(done);
                        }
                    }
                    sp.drain_busy = issue + 1;
                }
            }
            self.probe.emit(ProbeEvent::SsbOccupancy {
                now,
                occupancy: sp.ssb.len(),
                capacity: sp.cfg.ssb.entries,
            });
            progressed = true;
        }

        // Bloom filter resets on exiting speculative execution — once
        // the post-exit drain finishes, so no buffered store can lose
        // its filter bits (no false negatives). Stores that drained
        // before the reset leave stale bits behind: the false-positive
        // source the paper identifies in Fig. 14.
        if !sp.speculating && sp.ssb.is_empty() && sp.bloom_dirty {
            sp.bloom.reset();
            sp.bloom_dirty = false;
            progressed = true;
        }
        Ok(progressed)
    }

    // ---- idle-time skipping ------------------------------------------------

    /// The next cycle at which anything is scheduled to happen, or
    /// `None` when the pipeline is wedged (no progress possible, ever).
    fn next_event_time(&self) -> Option<Cycle> {
        let mut t = Cycle::MAX;
        for e in &self.rob {
            if let EState::Exec(d) = e.state {
                if d > self.now {
                    t = t.min(d);
                }
            }
        }
        for &p in self
            .pending_flushes
            .iter()
            .chain(self.pending_pcommits.iter())
        {
            if p > self.now {
                t = t.min(p);
            }
        }
        if !self.store_buffer.is_empty() && self.sb_busy > self.now {
            t = t.min(self.sb_busy);
        }
        if let Some(sp) = &self.sp {
            for g in &sp.gates {
                if let Some(r) = g.ready_at {
                    if r > self.now {
                        t = t.min(r);
                    }
                }
            }
            if !sp.ssb.is_empty() && sp.drain_busy > self.now {
                t = t.min(sp.drain_busy);
            }
            if sp.drain_visible_frontier > self.now {
                t = t.min(sp.drain_visible_frontier);
            }
        }
        (t != Cycle::MAX).then_some(t)
    }
}

/// Why retirement stopped this cycle (stall attribution).
#[derive(Debug, Default, Clone, Copy)]
struct RetireBlock {
    progressed: bool,
    fence: bool,
    ssb_full: bool,
    checkpoint: bool,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! The in-crate half of the cycle-equivalence gate: the fast
    //! skip-ahead [`crate::Pipeline`] must reproduce this frozen
    //! stepper's `SimResult` exactly — cycles, every counter, and crash
    //! verdicts — over random traces, fault plans, and rollbacks. The
    //! full 7×4 bench grid runs in `spp-bench`
    //! (`tests/cycle_equivalence.rs`); the properties here cover the
    //! corners a fixed grid misses.

    use super::*;
    use crate::Pipeline;
    use proptest::prelude::*;
    use spp_mem::{FaultSpec, MemConfig};

    fn with_plan(base: CpuConfig, plan: Option<FaultSpec>) -> CpuConfig {
        CpuConfig {
            mem: MemConfig {
                fault: plan,
                ..base.mem
            },
            ..base
        }
    }

    /// Runs both steppers and asserts exact `SimResult` equality (or,
    /// on failure, the same error kind).
    fn assert_equivalent(events: &[Event], cfg: CpuConfig) {
        let fast = Pipeline::new(events, cfg).try_run();
        let slow = ReferencePipeline::new(events, cfg).try_run();
        match (fast, slow) {
            (Ok(f), Ok(s)) => assert_eq!(f, s, "SimResult diverged (sp={})", cfg.sp.is_some()),
            (Err(f), Err(s)) => assert_eq!(f.kind, s.kind, "error kind diverged"),
            (f, s) => panic!(
                "verdict diverged: fast={:?} reference={:?}",
                f.map(|r| r.cpu.cycles),
                s.map(|r| r.cpu.cycles)
            ),
        }
    }

    fn barrier_trace(n: u64) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + i * 64);
            ev.push(Event::Store {
                addr: a,
                size: 8,
                value: i,
            });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Sfence);
            ev.push(Event::Pcommit);
            ev.push(Event::Sfence);
            for j in 0..4 {
                let b = PAddr::new(1 << 20 | (4096 + (i * 4 + j) * 64));
                ev.push(Event::Store {
                    addr: b,
                    size: 8,
                    value: i,
                });
            }
            ev.push(Event::Compute(40));
        }
        ev
    }

    /// `logp`-shaped trace (pcommits, no fences): the shape whose
    /// unbounded pending sets the fast core prunes — exactly where an
    /// over-eager prune would first diverge.
    fn logp_trace(n: u64) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + (i % 64) * 64);
            ev.push(Event::Store {
                addr: a,
                size: 8,
                value: i,
            });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Pcommit);
            ev.push(Event::Compute(4));
        }
        ev
    }

    #[test]
    fn directed_traces_match_across_configs_and_plans() {
        for events in [barrier_trace(40), logp_trace(200)] {
            for base in [CpuConfig::baseline(), CpuConfig::with_sp()] {
                for plan in [None, Some(FaultSpec::quiet(3)), Some(FaultSpec::storm(3))] {
                    assert_equivalent(&events, with_plan(base, plan));
                }
            }
        }
    }

    /// Lockstep equality: both steppers must agree on *every*
    /// intermediate cycle (not just the final result), including across
    /// coherence-triggered rollbacks injected at identical points.
    #[test]
    fn lockstep_with_rollbacks_stays_cycle_identical() {
        let t = barrier_trace(40);
        let cfg = CpuConfig::with_sp();
        let mut fast = Pipeline::new(&t, cfg);
        let mut slow = ReferencePipeline::new(&t, cfg);
        let mut rolled = false;
        for i in 0..200_000 {
            if fast.is_done() {
                break;
            }
            fast.step().unwrap();
            slow.step().unwrap();
            assert_eq!(fast.now(), slow.now(), "clocks diverged at step {i}");
            if i % 7 == 0 {
                let addr = PAddr::new(1 << 20 | (4096 + (i / 7 % 40) * 64));
                let a = fast.inject_coherence(addr.block());
                let b = slow.inject_coherence(addr.block());
                assert_eq!(a, b, "rollback verdicts diverged at step {i}");
                rolled |= a;
            }
        }
        assert!(rolled, "no rollback triggered; the test is vacuous");
        assert!(fast.is_done() && slow.is_done());
        assert_eq!(fast.result(), slow.result());
    }

    /// A wedged machine must fail identically (typed watchdog error at
    /// the same bound), not just a healthy one succeed identically.
    #[test]
    fn watchdog_verdicts_match() {
        let t = vec![Event::Sfence, Event::Compute(8)];
        let cfg = CpuConfig {
            watchdog_cycles: 5_000,
            ..with_plan(CpuConfig::with_sp(), Some(FaultSpec::wedge(1)))
        };
        assert_equivalent(&t, cfg);
    }

    // ---- random traces (proptest) -----------------------------------

    fn arb_event() -> impl Strategy<Value = Event> {
        let addr = (0u64..64).prop_map(|b| PAddr::new(4096 + b * 64 + 8 * (b % 8)));
        prop_oneof![
            (1u32..20).prop_map(Event::Compute),
            (addr.clone(), any::<bool>()).prop_map(|(addr, dep)| Event::Load {
                addr,
                size: 8,
                dep
            }),
            (addr.clone(), 0u64..1000).prop_map(|(addr, value)| Event::Store {
                addr,
                size: 8,
                value
            }),
            addr.clone().prop_map(|a| Event::Clwb { addr: a }),
            addr.clone().prop_map(|a| Event::ClflushOpt { addr: a }),
            addr.prop_map(|a| Event::Clflush { addr: a }),
            Just(Event::Pcommit),
            Just(Event::Sfence),
            Just(Event::Mfence),
        ]
    }

    fn arb_plan() -> impl Strategy<Value = Option<FaultSpec>> {
        prop_oneof![
            Just(None),
            (0u64..1 << 48).prop_map(|s| Some(FaultSpec::quiet(s))),
            (0u64..1 << 48).prop_map(|s| Some(FaultSpec::storm(s))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_traces_are_cycle_equivalent(
            events in proptest::collection::vec(arb_event(), 0..400),
            sp in any::<bool>(),
            plan in arb_plan(),
        ) {
            let base = if sp { CpuConfig::with_sp() } else { CpuConfig::baseline() };
            assert_equivalent(&events, with_plan(base, plan));
        }

        /// SP speculates only past fences, so on a trace without
        /// `Sfence`/`Mfence` the SP256 core must return the baseline
        /// core's `SimResult` exactly, on both steppers and under every
        /// fault plan.
        #[test]
        fn fence_free_traces_run_identically_with_and_without_sp(
            events in proptest::collection::vec(
                arb_event().prop_map(|e| match e {
                    Event::Sfence | Event::Mfence => Event::Pcommit,
                    e => e,
                }),
                0..400,
            ),
            plan in arb_plan(),
        ) {
            let (base, sp) = (
                with_plan(CpuConfig::baseline(), plan),
                with_plan(CpuConfig::with_sp(), plan),
            );
            let fast = (Pipeline::new(&events, base).try_run(), Pipeline::new(&events, sp).try_run());
            prop_assert_eq!(fast.0.unwrap(), fast.1.unwrap());
            let slow = (
                ReferencePipeline::new(&events, base).try_run(),
                ReferencePipeline::new(&events, sp).try_run(),
            );
            prop_assert_eq!(slow.0.unwrap(), slow.1.unwrap());
        }
    }
}
