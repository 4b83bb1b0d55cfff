//! The trace-driven out-of-order pipeline with speculative persistence.
//!
//! A four-wide core (Table 2): fetch queue → ROB/LSQ → out-of-order
//! issue → in-order retirement. All persistence semantics live at
//! retirement:
//!
//! * stores retire into a post-retirement store buffer that drains to
//!   the L1D;
//! * `clwb`/`clflushopt` post a writeback and record its
//!   global-visibility time; `pcommit` posts a WPQ flush and records its
//!   acknowledgement time;
//! * `sfence`/`mfence` retire only once the store buffer is empty and
//!   every posted persist operation is globally visible — the pipeline
//!   stall the paper measures.
//!
//! With SP enabled, a fence blocked solely on pcommit acknowledgements
//! takes a checkpoint and retires speculatively (§4): younger stores go
//! to the SSB (bloom-filter indexed, BLT-tracked), in-shadow PMEM
//! instructions are delayed into the SSB, `sfence-pcommit-sfence`
//! sequences consume one checkpoint and one combined SSB opcode, and
//! epochs commit oldest-first as their pcommits acknowledge.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
/// borrow-heavy regions; [`Pipeline::step`] attaches the diagnostic
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

/// A set of outstanding completion times (posted writeback visibility
/// or pcommit acknowledgements) with amortized pruning.
///
/// Every query filters on `t > now`, and `now` is monotone, so an entry
/// with `t <= now` can never influence a query again and dropping it is
/// invisible to timing. [`prune`](PendingOps::prune) does so in place,
/// only once `now` reaches the earliest live entry, reusing the same
/// backing storage for the whole run. The queries therefore scan only
/// operations still in flight, even on traces that issue pcommits
/// without fences (the `logp` variants), whose history the reference
/// stepper keeps and rescans in full.
#[derive(Debug)]
struct PendingOps {
    times: Vec<Cycle>,
    /// Earliest entry (`Cycle::MAX` when empty) — the prune trigger.
    earliest: Cycle,
}

impl PendingOps {
    fn new() -> Self {
        PendingOps {
            times: Vec::with_capacity(16),
            earliest: Cycle::MAX,
        }
    }

    fn push(&mut self, t: Cycle) {
        self.earliest = self.earliest.min(t);
        self.times.push(t);
    }

    /// Drops entries that completed at or before `now`.
    fn prune(&mut self, now: Cycle) {
        if now < self.earliest {
            return;
        }
        self.times.retain(|&t| t > now);
        self.earliest = self.times.iter().copied().min().unwrap_or(Cycle::MAX);
    }

    /// Is any operation still incomplete at `now`?
    fn outstanding(&self, now: Cycle) -> bool {
        self.times.iter().any(|&t| t > now)
    }

    /// Operations still incomplete at `now`.
    fn outstanding_count(&self, now: Cycle) -> usize {
        self.times.iter().filter(|&&t| t > now).count()
    }

    /// Latest outstanding completion, if any.
    fn last_outstanding(&self, now: Cycle) -> Option<Cycle> {
        self.times.iter().copied().filter(|&t| t > now).max()
    }

    /// Earliest outstanding completion, if any (the event reporter).
    fn next_after(&self, now: Cycle) -> Option<Cycle> {
        self.times.iter().copied().filter(|&t| t > now).min()
    }

    fn clear(&mut self) {
        self.times.clear();
        self.earliest = Cycle::MAX;
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

/// The pipeline simulator. Build with
/// [`Simulator::build`](crate::Simulator::build), drive with
/// [`try_run`](Pipeline::try_run) (or [`step`](Pipeline::step) /
/// [`inject_coherence`](Pipeline::inject_coherence) for fine-grained
/// tests), then read [`result`](Pipeline::result).
#[derive(Debug)]
pub struct Pipeline<'t> {
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
    /// Dispatched-but-unissued micro-ops (their `seq`s, ascending): the
    /// issue stage walks this instead of rescanning the whole issue
    /// window every cycle. Invariant: exactly the ROB entries in state
    /// [`EState::Waiting`].
    waiting: Vec<u64>,
    /// `(seq, granule)` of every `Store` entry in the ROB, ascending by
    /// `seq`: the LSQ's store queue, which store-to-load forwarding
    /// searches instead of the whole ROB. Pushed at dispatch, popped at
    /// store retirement (stores retire in order), cleared on rollback.
    rob_stores: VecDeque<(u64, PAddr)>,
    /// Completion times of ROB entries in [`EState::Exec`] that may
    /// still lie ahead of `now`: a min-heap, so the next-event scheduler
    /// reads the earliest wake-up with one `peek` instead of scanning
    /// the ROB. Times at or before `now` are popped at the top of every
    /// step; the heap is cleared on rollback.
    exec_done: BinaryHeap<Reverse<Cycle>>,
    /// Post-retirement store buffer: block to write plus the source
    /// trace index of the store (persist-visibility attribution).
    store_buffer: VecDeque<(BlockId, usize)>,
    sb_busy: Cycle,
    pending_flushes: PendingOps,
    pending_pcommits: PendingOps,
    sp: Option<SpState>,
    /// Pipeline-side fault-injection streams (ack return/duplication,
    /// SSB and checkpoint pressure); `None` without a fault plan.
    faults: Option<FaultState>,
    /// Cycle of the most recent retirement (watchdog reference point).
    last_retire: Cycle,
    /// Coherence-visible store blocks accumulated since the last
    /// [`drain_snoops_into`](Self::drain_snoops_into), in
    /// memory-admission order. Empty (and never pushed to) unless a
    /// multi-core harness enabled emission — the single-core path pays
    /// one dead branch per drained store.
    snoop_out: Vec<BlockId>,
    /// Collect coherence-visible stores into `snoop_out`?
    emit_snoops: bool,
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

impl<'t> Pipeline<'t> {
    /// Builds a pipeline over an explicitly constructed memory system
    /// (e.g. one sharing its memory controller with other cores — see
    /// [`crate::MultiCore`]).
    pub(crate) fn with_memory(events: &'t [Event], cfg: CpuConfig, mem: MemorySystem) -> Self {
        Pipeline {
            cursor: TraceCursor::new(events),
            mem,
            now: 0,
            fetchq: VecDeque::with_capacity(cfg.fetch_queue),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            seq_base: 0,
            next_seq: 0,
            lsq_used: 0,
            last_load_seq: None,
            waiting: Vec::with_capacity(cfg.rob_entries),
            rob_stores: VecDeque::with_capacity(cfg.rob_entries),
            exec_done: BinaryHeap::with_capacity(cfg.rob_entries),
            store_buffer: VecDeque::with_capacity(cfg.store_buffer),
            sb_busy: 0,
            pending_flushes: PendingOps::new(),
            pending_pcommits: PendingOps::new(),
            sp: cfg.sp.map(SpState::new),
            faults: cfg.mem.fault.map(|spec| FaultState::new(spec, PIPE_STREAM)),
            last_retire: 0,
            snoop_out: Vec::new(),
            emit_snoops: false,
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
        // Amortized drop of completed persist ops — timing-invisible
        // (see `PendingOps`), keeps every later scan this step short.
        self.pending_flushes.prune(self.now);
        self.pending_pcommits.prune(self.now);
        // Likewise, a ROB completion at or before `now` is no wake-up.
        let now = self.now;
        while self.exec_done.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.exec_done.pop();
        }
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
            pending_flushes: self.pending_flushes.outstanding_count(self.now),
            pending_pcommits: self.pending_pcommits.outstanding_count(self.now),
            trace_done: self.cursor.is_done(),
            wpq_depth: self.mem.wpq_occupancy(self.now),
            wpq_next_drain: self.mem.next_completion(self.now),
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

    /// Current trace-decode position (advances with fetch, rewinds on
    /// rollback). A multi-core harness compares positions across
    /// consecutive rollbacks to detect a conflict storm that re-executes
    /// the same window forever.
    pub fn trace_position(&self) -> usize {
        self.cursor.position()
    }

    /// Starts collecting the blocks of coherence-visible stores (store
    /// buffer and committed-SSB drains) for [`Self::drain_snoops_into`].
    /// Off by default: a solo core has nobody to snoop, and collection
    /// must not cost the single-core path an allocation.
    pub(crate) fn enable_snoop_emission(&mut self) {
        self.emit_snoops = true;
    }

    /// Moves the coherence-visible store blocks accumulated since the
    /// last call into `out`, preserving memory-admission order (the
    /// order the shared controller saw the writes).
    pub(crate) fn drain_snoops_into(&mut self, out: &mut Vec<BlockId>) {
        out.append(&mut self.snoop_out);
    }

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
        self.waiting.clear();
        self.rob_stores.clear();
        self.exec_done.clear();
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
            if state == EState::Waiting {
                self.waiting.push(seq);
            }
            if let UopKind::Store { addr } = uop.kind {
                self.rob_stores.push_back((seq, addr));
            }
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

    /// Issues up to `width` micro-ops from the waiting list.
    ///
    /// The list holds the `seq`s of exactly the `Waiting` ROB entries,
    /// ascending, so the stage visits them in program order and makes
    /// the same decisions, with the same fault and memory side effects,
    /// as a front-to-back walk of the issue window, while touching only
    /// the blocked entries. A load searches the store queue
    /// (`rob_stores`) for an older same-granule store, not the ROB.
    /// Issued entries are compacted out in place; nothing allocates.
    fn issue(&mut self) -> bool {
        if self.waiting.is_empty() {
            return false;
        }
        let window = self.cfg.issue_queue.min(self.rob.len());
        let mut issued = 0;
        let mut kept = 0;
        let mut scan = 0;
        while scan < self.waiting.len() {
            if issued >= self.cfg.width {
                break;
            }
            let seq = self.waiting[scan];
            let i = (seq - self.seq_base) as usize;
            if i >= window {
                // Seqs ascend: everything further is younger still.
                break;
            }
            debug_assert_eq!(self.rob[i].seq, seq);
            debug_assert_eq!(self.rob[i].state, EState::Waiting);
            let mut done = None;
            match self.rob[i].uop.kind {
                UopKind::Compute | UopKind::Store { .. } => done = Some(self.now + 1),
                UopKind::Load { addr, dep } => {
                    // Dependent loads wait on the previous load in the
                    // pointer chain (already-retired predecessors count
                    // as complete).
                    let blocked = dep
                        && self.rob[i].prev_load.is_some_and(|prev| {
                            prev >= self.seq_base
                                && !self.rob[(prev - self.seq_base) as usize].complete(self.now)
                        });
                    if !blocked {
                        // Store-to-load forwarding from older, unretired
                        // stores in the window.
                        let forwarded = self
                            .rob_stores
                            .iter()
                            .take_while(|&&(s, _)| s < seq)
                            .any(|&(_, a)| a == addr);
                        done = Some(if forwarded {
                            self.stats.lsq_forwards += 1;
                            self.now + 1
                        } else {
                            self.load_completion(addr)
                        });
                    }
                }
                // Barrier/flush kinds dispatch as `Ready` and never
                // enter the waiting list.
                _ => {}
            }
            if let Some(d) = done {
                self.rob[i].state = EState::Exec(d);
                // This step issues, so it advances `now` by exactly one
                // cycle: a completion at `now + 1` is never ahead of the
                // next query and need not be scheduled.
                if d > self.now + 1 {
                    self.exec_done.push(Reverse(d));
                }
                issued += 1;
            } else {
                self.waiting[kept] = seq;
                kept += 1;
            }
            scan += 1;
        }
        if issued > 0 {
            let len = self.waiting.len();
            self.waiting.copy_within(scan..len, kept);
            self.waiting.truncate(kept + len - scan);
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
        if matches!(e.uop.kind, UopKind::Store { .. }) {
            // The head is the oldest entry, so it is the oldest store.
            let front = self.rob_stores.pop_front();
            debug_assert_eq!(front.map(|(s, _)| s), Some(e.seq));
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
        self.pending_pcommits.outstanding(self.now)
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
                        let inflight = 1 + self.pending_pcommits.outstanding_count(self.now) as u64;
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
                // This step may make no progress, so even `now + 1` can
                // be the next wake-up.
                if f.visible_at > self.now {
                    self.exec_done.push(Reverse(f.visible_at));
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
        let flushes_pending = self.pending_flushes.outstanding(now);
        let pcommits_pending = self.pending_pcommits.outstanding(now);
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
                .last_outstanding(now)
                .into_iter()
                .chain(self.pending_pcommits.last_outstanding(now))
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
            // Posted write: state effects now, 1/cycle pacing. This is
            // where a non-speculative store claims ownership, so it is
            // the point other cores' BLTs must snoop.
            let _ = self.mem.access(self.now, b, AccessKind::Store);
            if self.emit_snoops {
                self.snoop_out.push(b);
            }
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
                    // A speculative store stays invisible in the SSB;
                    // draining it after epoch commit is its coherence
                    // visibility point, so it snoops other cores here.
                    let _ = self.mem.access(t, addr.block(), AccessKind::Store);
                    if self.emit_snoops {
                        self.snoop_out.push(addr.block());
                    }
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
                    let inflight = 1 + self.pending_pcommits.outstanding_count(now) as u64;
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
    //
    // The next-event scheduler: on a no-progress cycle each structure
    // reports the earliest future cycle at which it can change state,
    // and `step_body` jumps `now` straight to the minimum instead of
    // ticking through dead cycles. Two classes of waits are deliberately
    // *not* in the wake set, matching the reference stepper exactly:
    //
    // * Memory-controller (WPQ/bank) timers — their completion times
    //   flow back through the posting interfaces (`access`/`flush`/
    //   `pcommit` all return absolute cycles), so they are already
    //   mirrored into the ROB `Exec` times, the pending persist sets,
    //   and the SP gates. `MemorySystem::next_completion` exposes the
    //   controller-side view for diagnostics.
    // * Fault-plan firing points — resource-denial faults are re-drawn
    //   per attempt, not scheduled; `fault_retry` forces cycle-by-cycle
    //   stepping whenever such a plan is active, because any retry can
    //   clear the denial.
    //
    // The watchdog deadline is likewise not an event: it is a bound
    // checked after every jump, so a skip landing past it converts into
    // the typed watchdog error exactly as cycle-by-cycle stepping would.

    /// Earliest in-flight completion in the ROB after `now`. Every
    /// `Exec` time still ahead of `now` is in `exec_done`: an entry
    /// cannot retire before its completion, so it leaves the ROB early
    /// only through rollback, which clears the heap.
    fn rob_next_event(&self) -> Option<Cycle> {
        self.exec_done.peek().map(|&Reverse(t)| t)
    }

    /// Earliest posted-flush visibility or pcommit acknowledgement
    /// after `now`.
    fn pending_next_event(&self) -> Option<Cycle> {
        match (
            self.pending_flushes.next_after(self.now),
            self.pending_pcommits.next_after(self.now),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Next cycle the store-buffer drain port frees up, if it has work.
    fn store_buffer_next_event(&self) -> Option<Cycle> {
        (!self.store_buffer.is_empty() && self.sb_busy > self.now).then_some(self.sb_busy)
    }

    /// Earliest SP-side event: a commit gate opening, the SSB drain
    /// port freeing up, or a drained writeback becoming visible.
    fn sp_next_event(&self) -> Option<Cycle> {
        let sp = self.sp.as_ref()?;
        let mut t = None;
        let mut fold = |c: Cycle| {
            if c > self.now && t.is_none_or(|b| c < b) {
                t = Some(c);
            }
        };
        for g in &sp.gates {
            if let Some(r) = g.ready_at {
                fold(r);
            }
        }
        // The drain port is a wake source not only while the SSB holds
        // entries but also when a commit gate waits on the drain to
        // finish: the port's busy cycle outlives the last entry by one,
        // and a `needs_prior_drain` gate blocked on it would otherwise
        // wedge with an empty SSB and nothing else scheduled (seen on
        // post-rollback re-execution, where the re-entered epoch's gate
        // opens immediately and only the stale drain holds its commit).
        if !sp.ssb.is_empty() || sp.gates.front().is_some_and(|g| g.needs_prior_drain) {
            fold(sp.drain_busy);
        }
        fold(sp.drain_visible_frontier);
        t
    }

    /// The next cycle at which anything is scheduled to happen, or
    /// `None` when the pipeline is wedged (no progress possible, ever).
    fn next_event_time(&self) -> Option<Cycle> {
        [
            self.rob_next_event(),
            self.pending_next_event(),
            self.store_buffer_next_event(),
            self.sp_next_event(),
        ]
        .into_iter()
        .flatten()
        .min()
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
impl<'t> Pipeline<'t> {
    /// Builds a pipeline over a recorded event trace with its own
    /// private memory system (test shorthand; callers outside this
    /// crate go through [`crate::Simulator`]).
    pub(crate) fn new(events: &'t [Event], cfg: CpuConfig) -> Self {
        Self::with_memory(events, cfg, MemorySystem::new(cfg.mem))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Regression pin for the DESIGN §7 bloom-reset invariant: the
    //! filter resets only once the post-exit drain finishes, so a store
    //! still buffered in the SSB can never lose its filter bits (which
    //! would be a false negative — a missed store-to-load forward).

    use super::*;

    fn barrier_trace(n: u64) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + i * 64);
            ev.push(Event::Store { addr: a, size: 8 });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Sfence);
            ev.push(Event::Pcommit);
            ev.push(Event::Sfence);
            // Several stores in the fence shadow keep the SSB occupied
            // across epoch boundaries, so the post-exit drain spans
            // multiple cycles (the window the invariant is about).
            for j in 0..4 {
                let b = PAddr::new(1 << 20 | (4096 + (i * 4 + j) * 64));
                ev.push(Event::Store { addr: b, size: 8 });
            }
            ev.push(Event::Compute(40));
        }
        ev
    }

    /// Every store currently buffered in the SSB must still be
    /// bloom-positive; otherwise a load could skip the CAM search and
    /// miss a forward.
    fn assert_no_false_negatives(p: &Pipeline<'_>) {
        let sp = p.sp.as_ref().expect("SP enabled");
        for e in sp.ssb.iter() {
            if let SsbOp::Store { addr } = e.op {
                assert!(
                    sp.bloom.contains(addr),
                    "cycle {}: buffered SSB store {addr} lost its bloom bits",
                    p.now
                );
            }
        }
    }

    #[test]
    fn bloom_bits_survive_until_post_exit_drain_finishes() {
        let t = barrier_trace(40);
        let mut p = Pipeline::new(&t, CpuConfig::with_sp());
        let mut mid_drain_windows = 0u64;
        while !p.is_done() {
            p.step().unwrap();
            assert_no_false_negatives(&p);
            let sp = p.sp.as_ref().expect("SP enabled");
            // The dangerous window: speculation has ended but entries
            // are still draining. A premature reset here is exactly
            // what the invariant forbids.
            if !sp.speculating && !sp.ssb.is_empty() {
                mid_drain_windows += 1;
                assert!(
                    sp.bloom_dirty,
                    "cycle {}: filter reset while {} SSB entries were still draining",
                    p.now,
                    sp.ssb.len()
                );
            }
        }
        assert!(
            mid_drain_windows > 0,
            "trace never exercised a post-exit drain window; the test is vacuous"
        );
        let sp = p.sp.as_ref().expect("SP enabled");
        assert!(sp.ssb.is_empty());
        assert!(
            !sp.bloom_dirty,
            "drained pipeline must end with a clean filter"
        );
        assert!(
            p.result().bloom.resets > 0,
            "speculation exits must actually reset the filter"
        );
    }

    #[test]
    fn rollback_keeps_surviving_entries_bloom_positive() {
        // A coherence-triggered rollback flushes the squashed epochs'
        // entries but spares committed, still-draining ones — and must
        // not reset the filter while any survivor is buffered.
        let t = barrier_trace(40);
        let mut p = Pipeline::new(&t, CpuConfig::with_sp());
        let mut rollbacks = 0u64;
        for i in 0.. {
            if p.is_done() {
                break;
            }
            p.step().unwrap();
            assert_no_false_negatives(&p);
            if i % 7 == 0 {
                // Snoop a block a speculative store may have touched.
                let addr = PAddr::new(1 << 20 | (4096 + (i / 7 % 40) * 64));
                let (clears_before, oldest_before) = {
                    let sp = p.sp.as_ref().expect("SP enabled");
                    (sp.blt.stats().clears, sp.epochs.oldest().map(|e| e.id))
                };
                if p.inject_coherence(addr.block()) {
                    rollbacks += 1;
                    assert_no_false_negatives(&p);
                    // Clear accounting must stay consistent across the
                    // rollback: exactly one counted BLT flash-clear,
                    // an empty table, no live speculation, and every
                    // SSB survivor tagged with an epoch older than the
                    // squashed range (flush_from removed the rest).
                    let sp = p.sp.as_ref().expect("SP enabled");
                    assert!(sp.blt.is_empty(), "BLT not flash-cleared by rollback");
                    assert_eq!(
                        sp.blt.stats().clears,
                        clears_before + 1,
                        "rollback must count exactly one BLT clear"
                    );
                    assert!(!sp.epochs.speculating());
                    let squashed_from = oldest_before.expect("rollback implies a live epoch");
                    for e in sp.ssb.iter() {
                        assert!(
                            e.epoch < squashed_from,
                            "cycle {}: SSB entry from squashed epoch {} survived rollback",
                            p.now,
                            e.epoch
                        );
                    }
                }
            }
        }
        assert!(rollbacks > 0, "no rollback triggered; the test is vacuous");
        let r = p.result();
        assert_eq!(
            r.blt.conflicts, rollbacks,
            "each rollback is one BLT conflict"
        );
        assert!(
            r.blt.clears >= rollbacks,
            "every rollback flash-clears the BLT; clean exits add more"
        );
    }

    // ---- fault injection & forward progress -----------------------------

    use spp_mem::{FaultSpec, MemConfig};

    fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
        crate::Simulator::new(events).config(*cfg).run().unwrap()
    }

    fn with_plan(base: CpuConfig, plan: FaultSpec) -> CpuConfig {
        CpuConfig {
            mem: MemConfig {
                fault: Some(plan),
                ..base.mem
            },
            ..base
        }
    }

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

    /// The faultsim invariant at pipeline granularity: timing faults may
    /// move cycle counts but never the committed architectural work.
    #[test]
    fn timing_faults_never_change_committed_work() {
        let t = barrier_trace(30);
        for base in [CpuConfig::baseline(), CpuConfig::with_sp()] {
            let clean = Pipeline::new(&t, base).try_run().unwrap();
            for plan in [FaultSpec::quiet(3), FaultSpec::storm(3)] {
                let faulty = Pipeline::new(&t, with_plan(base, plan)).try_run().unwrap();
                assert_eq!(
                    committed_classes(&clean),
                    committed_classes(&faulty),
                    "plan {plan:?} changed architectural work (sp={})",
                    base.sp.is_some()
                );
            }
        }
    }

    #[test]
    fn storm_plan_actually_injects_and_costs_cycles() {
        let t = barrier_trace(30);
        let clean = Pipeline::new(&t, CpuConfig::with_sp()).try_run().unwrap();
        let faulty = Pipeline::new(&t, with_plan(CpuConfig::with_sp(), FaultSpec::storm(3)))
            .try_run()
            .unwrap();
        assert!(faulty.faults.total() > 0, "storm must fire");
        assert_eq!(clean.faults.total(), 0);
        assert!(
            faulty.cpu.cycles > clean.cpu.cycles,
            "storm faults must cost cycles ({} vs {})",
            faulty.cpu.cycles,
            clean.cpu.cycles
        );
    }

    /// Satellite regression: an sfence arriving while all four
    /// checkpoint-buffer entries are live must stall the ROB head
    /// cleanly (attributed to the checkpoint buffer) and resume once a
    /// predecessor commits — constructed directly rather than hoping a
    /// trace reaches the state.
    #[test]
    fn sfence_with_full_checkpoint_buffer_stalls_cleanly() {
        let t = vec![Event::Sfence, Event::Compute(8)];
        let mut p = Pipeline::new(&t, CpuConfig::with_sp());
        {
            let sp = p.sp.as_mut().unwrap();
            for i in 0..4u64 {
                let id = sp.epochs.begin(0, 0).unwrap();
                sp.gates.push_back(Gate {
                    epoch: id,
                    ready_at: Some(1_000 + i * 500),
                    needs_prior_drain: false,
                });
                sp.retired_per_epoch
                    .push_back((id, EpochRetired::default()));
            }
            assert!(!sp.epochs.can_begin(), "all four checkpoints are live");
            sp.speculating = true;
        }
        while !p.is_done() {
            p.step().unwrap();
        }
        let r = p.result();
        assert!(
            r.cpu.checkpoint_stall_cycles > 0,
            "the head fence must attribute its stall to the checkpoint buffer"
        );
        assert_eq!(r.cpu.fences, 1);
        assert_eq!(r.cpu.committed_uops, 9);
    }

    /// Satellite regression: a constructed livelock — the core is
    /// mid-speculation with its only epoch gated on a combined-barrier
    /// pcommit that will never issue, and the wedge plan denies the head
    /// fence's checkpoint on every retry — must be converted by the
    /// watchdog into a typed error with a populated snapshot, not a
    /// hang.
    #[test]
    fn watchdog_converts_wedged_pipeline_into_typed_error() {
        let t = vec![Event::Sfence, Event::Compute(8)];
        let cfg = CpuConfig {
            watchdog_cycles: 5_000,
            ..with_plan(CpuConfig::with_sp(), FaultSpec::wedge(1))
        };
        let mut p = Pipeline::new(&t, cfg);
        {
            let sp = p.sp.as_mut().unwrap();
            let id = sp.epochs.begin(0, 0).unwrap();
            sp.gates.push_back(Gate {
                epoch: id,
                ready_at: None,
                needs_prior_drain: false,
            });
            sp.retired_per_epoch
                .push_back((id, EpochRetired::default()));
            sp.speculating = true;
        }
        let err = loop {
            match p.step() {
                Ok(()) => assert!(!p.is_done(), "livelock fixture must not finish"),
                Err(e) => break e,
            }
        };
        assert_eq!(
            err.kind,
            crate::SimErrorKind::NoRetireProgress { bound: 5_000 }
        );
        let s = &err.snapshot;
        assert!(s.cycle > 5_000);
        assert!(s.rob_head.is_some(), "the stuck uop must be identified");
        assert!(s.speculating);
        assert_eq!(s.checkpoints_live, 1);
        assert_eq!(s.checkpoint_capacity, 4);
        let msg = err.to_string();
        assert!(msg.contains("no retirement progress"), "got: {msg}");
        assert!(msg.contains("checkpoints"), "got: {msg}");
    }

    /// The other side of the wedge fixture: on a pipeline that has not
    /// begun speculating, the plan denies the very first checkpoint, so
    /// the run never speculates and finishes with the fault-free
    /// architectural work.
    #[test]
    fn wedge_plan_on_a_fresh_pipeline_never_speculates_and_finishes() {
        let t = barrier_trace(30);
        let r = Pipeline::new(&t, with_plan(CpuConfig::with_sp(), FaultSpec::wedge(7)))
            .try_run()
            .unwrap();
        assert_eq!(r.cpu.epochs, 0, "a denied checkpoint cannot open an epoch");
        assert!(
            r.faults.checkpoint_pressure > 0,
            "every checkpoint is denied"
        );
        let clean = simulate(&t, &CpuConfig::with_sp());
        assert!(clean.cpu.epochs > 0, "the trace must want to speculate");
        assert_eq!(committed_classes(&r), committed_classes(&clean));
    }

    /// Satellite: SSB overflow under injected pressure (a tiny SSB plus
    /// a plan that holds most slots) still commits exactly the fault-free
    /// architectural work.
    #[test]
    fn ssb_overflow_under_fault_pressure_keeps_committed_work_identical() {
        let t = barrier_trace(30);
        let small = CpuConfig {
            sp: Some(SpConfig::with_ssb_entries(32)),
            ..CpuConfig::baseline()
        };
        let clean = Pipeline::new(&t, small).try_run().unwrap();
        let plan = FaultSpec {
            ssb_pressure_pm: 300,
            ssb_held_slots: 28,
            ..FaultSpec::none(11)
        };
        let faulty = Pipeline::new(&t, with_plan(small, plan)).try_run().unwrap();
        assert_eq!(committed_classes(&clean), committed_classes(&faulty));
        assert!(faulty.faults.ssb_pressure > 0, "pressure must fire");
    }

    /// Satellite: a rollback landing while ack-delay faults hold the
    /// drain mid-epoch must stay sound — no bloom false negatives, and
    /// the same committed work as a fault-free run (extends the PR 2
    /// bloom-reset soundness tests).
    #[test]
    fn rollback_with_fault_delayed_drain_stays_sound() {
        let t = barrier_trace(40);
        let plan = FaultSpec {
            ack_delay_pm: 400,
            ack_delay_max: 3_000,
            ..FaultSpec::none(13)
        };
        let mut p = Pipeline::new(&t, with_plan(CpuConfig::with_sp(), plan));
        let mut rolled = false;
        for i in 0.. {
            if p.is_done() {
                break;
            }
            p.step().unwrap();
            assert_no_false_negatives(&p);
            if i % 7 == 0 {
                let addr = PAddr::new(1 << 20 | (4096 + (i / 7 % 40) * 64));
                if p.inject_coherence(addr.block()) {
                    rolled = true;
                    assert_no_false_negatives(&p);
                }
            }
        }
        assert!(rolled, "no rollback triggered; the test is vacuous");
        let r = p.result();
        assert!(r.faults.ack_delays > 0, "the plan must actually delay acks");
        let clean = simulate(&t, &CpuConfig::with_sp());
        assert_eq!(r.cpu.committed_uops, clean.cpu.committed_uops);
    }

    /// Identical plans and traces give identical results — the
    /// `--jobs`-invariance precondition at the pipeline level.
    #[test]
    fn faulted_runs_are_deterministic() {
        let t = barrier_trace(20);
        let cfg = with_plan(CpuConfig::with_sp(), FaultSpec::storm(42));
        let a = Pipeline::new(&t, cfg).try_run().unwrap();
        let b = Pipeline::new(&t, cfg).try_run().unwrap();
        assert_eq!(a.cpu.cycles, b.cpu.cycles);
        assert_eq!(a.faults, b.faults);
        assert_eq!(committed_classes(&a), committed_classes(&b));
    }
}
