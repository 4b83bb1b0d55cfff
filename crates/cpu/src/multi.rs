//! True multi-core simulation: shared memory controller *and* shared
//! data (§4.1/§4.2.2).
//!
//! [`MultiCore`] runs N traces on N cores with private cache
//! hierarchies over one shared memory controller. Two effects couple
//! the cores:
//!
//! 1. **Persist interference.** The controller's write-pending queue is
//!    shared, so every core's `pcommit` must drain every core's pending
//!    writes.
//! 2. **Coherence.** When more than one core runs, every
//!    coherence-visible store (a non-speculative store draining from a
//!    core's store buffer, or a committed speculative store draining
//!    from its SSB) is snooped against every *other* core's BLT. A hit
//!    on a speculating core is an atomicity violation: that core rolls
//!    back to its oldest checkpoint and re-executes from the rolled-back
//!    trace position (§4.2.2), attributed to [`spp_core::BltStats`]
//!    `conflicts`.
//!
//! Cores are advanced lagging-core-first with an explicit
//! `(now, core_index)` tie-break, so requests reach the shared
//! controller in near-global time order (the controller clamps the
//! residual skew) and runs are deterministic regardless of construction
//! order. Snoops are delivered immediately after the laggard's step —
//! the earliest point at which the store is globally visible — which
//! preserves the same shared-controller time order.
//!
//! Pathological sharing can livelock: a core whose every re-execution
//! re-touches the contended block is rolled back again and again and its
//! own watchdog never fires (re-execution keeps retiring). The harness
//! therefore tracks consecutive rollbacks to the *same* trace position
//! per core and degrades to a typed [`SimError`]
//! ([`crate::SimErrorKind::ConflictStorm`]) with a diagnostic snapshot
//! once a fixed budget of 64 such rollbacks is exceeded, never a hang.

use std::fmt;

use spp_mem::{shared_mem_ctrl, MemConfigError, MemorySystem};
use spp_pmem::{BlockId, Event};

use crate::config::CpuConfig;
use crate::error::{SimError, SimErrorKind};
use crate::pipeline::Pipeline;
use crate::stats::SimResult;

/// Consecutive-no-progress-rollback budget per core before
/// [`MultiCore::try_run`] declares a conflict storm. Organic storms
/// self-damp (a rolled-back fence re-executes non-speculatively), so a
/// storm this deep indicates a sharing pattern the simulator cannot make
/// progress on.
const STORM_BOUND: u64 = 64;

/// Why a [`MultiCore`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MultiCoreError {
    /// No traces were supplied: there is nothing to simulate.
    NoCores,
    /// The shared memory configuration is structurally invalid.
    Mem(MemConfigError),
}

impl fmt::Display for MultiCoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiCoreError::NoCores => f.write_str("at least one core required"),
            MultiCoreError::Mem(e) => write!(f, "invalid memory configuration: {e}"),
        }
    }
}

impl std::error::Error for MultiCoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MultiCoreError::NoCores => None,
            MultiCoreError::Mem(e) => Some(e),
        }
    }
}

/// Per-core rollback-storm detector: counts consecutive rollbacks that
/// resume at the same trace position (i.e. re-execution made no forward
/// progress before being rolled back again).
#[derive(Debug, Clone, Copy, Default)]
struct StormDetector {
    last_resume: Option<usize>,
    consecutive: u64,
}

impl StormDetector {
    /// Records a rollback that resumed at `resume`; returns the number
    /// of consecutive no-progress rollbacks including this one.
    fn observe(&mut self, resume: usize) -> u64 {
        if self.last_resume == Some(resume) {
            self.consecutive += 1;
        } else {
            self.last_resume = Some(resume);
            self.consecutive = 1;
        }
        self.consecutive
    }
}

/// N cores with private caches sharing one memory controller, with
/// coherence-visible stores snooped against every other core's BLT.
#[derive(Debug)]
pub struct MultiCore<'t> {
    cores: Vec<Pipeline<'t>>,
    /// Snoop delivery is only enabled for true multi-core runs; a
    /// single core has nobody to conflict with and skips the plumbing.
    coherence: bool,
    /// [`STORM_BOUND`]; only the conflict-storm test lowers it.
    storm_bound: u64,
}

impl<'t> MultiCore<'t> {
    /// Builds one pipeline per trace, all on `cfg`, with a shared
    /// memory controller — rejecting degenerate configurations (no
    /// cores, zero memory banks, zero WPQ entries) at construction time.
    ///
    /// Because construction validates the core set,
    /// [`MultiCore::try_run`] on a successfully built instance always
    /// returns at least one result.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCoreError::NoCores`] for an empty trace set and
    /// [`MultiCoreError::Mem`] for an invalid memory configuration.
    pub fn try_new(traces: &[&'t [Event]], cfg: CpuConfig) -> Result<Self, MultiCoreError> {
        if traces.is_empty() {
            return Err(MultiCoreError::NoCores);
        }
        let mc = shared_mem_ctrl(cfg.mem).map_err(MultiCoreError::Mem)?;
        let coherence = traces.len() > 1;
        let cores = traces
            .iter()
            .map(|t| {
                let mut p = Pipeline::with_memory(
                    t,
                    cfg,
                    MemorySystem::with_shared_mc(cfg.mem, mc.clone()),
                );
                if coherence {
                    p.enable_snoop_emission();
                }
                p
            })
            .collect();
        Ok(MultiCore {
            cores,
            coherence,
            storm_bound: STORM_BOUND,
        })
    }

    /// Runs every core to completion, surfacing the first core
    /// simulation failure (watchdog, deadlock, conflict storm, broken
    /// invariant) as a typed error.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first failing core;
    /// [`SimErrorKind::ConflictStorm`] when a core exceeded the fixed
    /// budget of 64 consecutive no-progress rollbacks.
    pub fn try_run(mut self) -> Result<Vec<SimResult>, SimError> {
        let mut storms = vec![StormDetector::default(); self.cores.len()];
        let mut inbox: Vec<BlockId> = Vec::new();
        loop {
            // Advance the laggard among unfinished cores; ties break on
            // the lowest core index so scheduling never depends on
            // incidental iterator order.
            let next = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_done())
                .min_by_key(|(i, c)| (c.now(), *i))
                .map(|(i, _)| i);
            let Some(i) = next else { break };
            self.cores[i].step()?;
            if self.coherence {
                self.cores[i].drain_snoops_into(&mut inbox);
                for &block in &inbox {
                    for (j, core) in self.cores.iter_mut().enumerate() {
                        // Deliver to finished cores too (a no-op for
                        // them): each core's snoop count then depends
                        // only on the trace set, not on completion
                        // order, keeping stats permutation-invariant.
                        if j == i {
                            continue;
                        }
                        if core.inject_coherence(block) {
                            let resume = core.trace_position();
                            if storms[j].observe(resume) > self.storm_bound {
                                return Err(SimError {
                                    kind: SimErrorKind::ConflictStorm {
                                        bound: self.storm_bound,
                                    },
                                    snapshot: Box::new(core.snapshot()),
                                });
                            }
                        }
                    }
                }
                inbox.clear();
            }
        }
        Ok(self.cores.iter().map(|c| c.result()).collect())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::reference::ReferencePipeline;
    use spp_pmem::PAddr;

    fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
        crate::Simulator::new(events).config(*cfg).run().unwrap()
    }

    fn barrier_trace(n: u64, salt: u64) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + (i + salt * 1000) * 64);
            ev.push(Event::Store { addr: a, size: 8 });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Sfence);
            ev.push(Event::Pcommit);
            ev.push(Event::Sfence);
            ev.push(Event::Compute(150));
        }
        ev
    }

    #[test]
    fn single_core_multi_matches_solo() {
        let t = barrier_trace(30, 0);
        let solo = simulate(&t, &CpuConfig::baseline());
        let multi = MultiCore::try_new(&[&t], CpuConfig::baseline())
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].cpu.cycles, solo.cpu.cycles);
        assert_eq!(multi[0].cpu.committed_uops, solo.cpu.committed_uops);
    }

    #[test]
    fn every_core_commits_its_own_trace() {
        let traces: Vec<Vec<Event>> = (0..4).map(|i| barrier_trace(20 + i * 5, i)).collect();
        let refs: Vec<&[Event]> = traces.iter().map(|t| t.as_slice()).collect();
        let results = MultiCore::try_new(&refs, CpuConfig::with_sp())
            .unwrap()
            .try_run()
            .unwrap();
        assert_eq!(results.len(), 4);
        for (r, t) in results.iter().zip(&traces) {
            let expect: u64 = t.iter().map(|e| e.micro_ops()).sum();
            assert_eq!(r.cpu.committed_uops, expect);
        }
    }

    #[test]
    fn sharing_the_controller_slows_persist_heavy_cores() {
        // A bank-limited controller makes the interference visible at
        // this scale (the default 32 banks absorb four cores easily).
        let cfg = CpuConfig {
            mem: spp_mem::MemConfig {
                nvmm_banks: 2,
                ..spp_mem::MemConfig::paper()
            },
            ..CpuConfig::baseline()
        };
        let t = barrier_trace(40, 0);
        let solo = simulate(&t, &cfg).cpu.cycles;
        let traces: Vec<Vec<Event>> = (0..4).map(|i| barrier_trace(40, i)).collect();
        let refs: Vec<&[Event]> = traces.iter().map(|x| x.as_slice()).collect();
        let quad = MultiCore::try_new(&refs, cfg).unwrap().try_run().unwrap();
        let worst = quad.iter().map(|r| r.cpu.cycles).max().unwrap();
        assert!(
            worst > solo,
            "4 cores' pcommits must contend at the shared WPQ (worst {worst} vs solo {solo})"
        );
    }

    #[test]
    fn sp_helps_under_contention_too() {
        let traces: Vec<Vec<Event>> = (0..2).map(|i| barrier_trace(40, i)).collect();
        let refs: Vec<&[Event]> = traces.iter().map(|x| x.as_slice()).collect();
        let base: u64 = MultiCore::try_new(&refs, CpuConfig::baseline())
            .unwrap()
            .try_run()
            .unwrap()
            .iter()
            .map(|r| r.cpu.cycles)
            .max()
            .unwrap();
        let sp: u64 = MultiCore::try_new(&refs, CpuConfig::with_sp())
            .unwrap()
            .try_run()
            .unwrap()
            .iter()
            .map(|r| r.cpu.cycles)
            .max()
            .unwrap();
        assert!(
            sp <= base,
            "SP must not lose under contention ({sp} vs {base})"
        );
    }

    #[test]
    fn laggard_tie_break_is_permutation_invariant() {
        // The `(now, core_index)` tie-break makes scheduling a pure
        // function of the per-core traces: constructing the same cores
        // in a different order must produce identical per-trace results.
        let cfg = CpuConfig {
            mem: spp_mem::MemConfig {
                nvmm_banks: 2,
                ..spp_mem::MemConfig::paper()
            },
            ..CpuConfig::with_sp()
        };
        let traces: Vec<Vec<Event>> = (0..3).map(|i| barrier_trace(25 + i * 3, i)).collect();
        let fwd: Vec<&[Event]> = traces.iter().map(|t| t.as_slice()).collect();
        let perm: Vec<&[Event]> = [2usize, 0, 1].iter().map(|&i| fwd[i]).collect();
        let fwd_results = MultiCore::try_new(&fwd, cfg).unwrap().try_run().unwrap();
        let perm_results = MultiCore::try_new(&perm, cfg).unwrap().try_run().unwrap();
        for (k, &src) in [2usize, 0, 1].iter().enumerate() {
            assert_eq!(
                perm_results[k], fwd_results[src],
                "trace {src} diverged when constructed at position {k}"
            );
        }
    }

    // ---- coherence: conflicts, rollback, and storms ---------------------

    /// Shared block both coherence tests fight over.
    fn shared_addr() -> PAddr {
        PAddr::new(1 << 21)
    }

    /// The victim speculates past a persist barrier and then touches the
    /// shared block speculatively, staying in the speculative window
    /// long enough for the attacker's store to land.
    fn victim_trace() -> Vec<Event> {
        let a = PAddr::new(4096);
        vec![
            Event::Store { addr: a, size: 8 },
            Event::Clwb { addr: a },
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence, // blocks on the pcommit ack -> speculation begins
            Event::Store {
                addr: shared_addr(),
                size: 8,
            },
            Event::Compute(4000),
        ]
    }

    /// The attacker performs a plain (never-speculative) store to the
    /// shared block after a delay that lands inside the victim's
    /// speculative window.
    fn attacker_trace(delay: u32) -> Vec<Event> {
        vec![
            Event::Compute(delay),
            Event::Store {
                addr: shared_addr(),
                size: 8,
            },
            Event::Compute(200),
        ]
    }

    #[test]
    fn blt_conflict_rolls_back_exactly_once_end_to_end() {
        // Two cores share one block; the victim is speculating when the
        // attacker's store becomes coherence-visible. Exactly one
        // rollback, and the victim's architectural state (committed
        // work) is identical to a conflict-free serial run.
        let victim = victim_trace();
        let attacker = attacker_trace(300);
        let results = MultiCore::try_new(&[&victim, &attacker], CpuConfig::with_sp())
            .unwrap()
            .try_run()
            .unwrap();
        let v = &results[0];
        let a = &results[1];
        assert_eq!(v.cpu.rollbacks, 1, "exactly one rollback on the victim");
        assert_eq!(v.blt.conflicts, 1);
        assert!(v.blt.clears >= 1, "the rollback flash-clears the BLT");
        assert_eq!(a.cpu.rollbacks, 0, "the attacker never speculates");

        // Architectural state must match a conflict-free serial run of
        // the same trace (re-execution repairs everything).
        let serial = simulate(&victim, &CpuConfig::with_sp());
        assert_eq!(v.cpu.committed_uops, serial.cpu.committed_uops);
        assert_eq!(
            (
                v.cpu.loads,
                v.cpu.stores,
                v.cpu.flushes,
                v.cpu.pcommits,
                v.cpu.fences
            ),
            (
                serial.cpu.loads,
                serial.cpu.stores,
                serial.cpu.flushes,
                serial.cpu.pcommits,
                serial.cpu.fences
            )
        );
        assert!(v.cpu.squashed_uops > 0, "the rollback squashed work");
    }

    #[test]
    fn disjoint_cores_snoop_but_never_conflict() {
        // Coherence is wired (snoops flow) but address-disjoint traces
        // must never hit a BLT.
        let traces: Vec<Vec<Event>> = (0..2).map(|i| barrier_trace(20, i)).collect();
        let refs: Vec<&[Event]> = traces.iter().map(|t| t.as_slice()).collect();
        let results = MultiCore::try_new(&refs, CpuConfig::with_sp())
            .unwrap()
            .try_run()
            .unwrap();
        for r in &results {
            assert!(r.blt.snoops > 0, "coherence traffic must reach the BLT");
            assert_eq!(r.blt.conflicts, 0);
            assert_eq!(r.cpu.rollbacks, 0);
        }
    }

    #[test]
    fn conflict_storm_degrades_to_typed_error() {
        // Organic storms self-damp (the re-executed fence retires
        // without re-speculating), so force the detector with a zero
        // budget: the very first rollback must surface as a typed
        // ConflictStorm with a diagnostic snapshot — never a hang.
        let victim = victim_trace();
        let attacker = attacker_trace(300);
        let mut mc = MultiCore::try_new(&[&victim, &attacker], CpuConfig::with_sp()).unwrap();
        mc.storm_bound = 0;
        let err = mc.try_run().unwrap_err();
        assert!(matches!(err.kind, SimErrorKind::ConflictStorm { bound: 0 }));
        let msg = err.to_string();
        assert!(msg.contains("conflict storm"), "{msg}");
        assert!(err.to_json().contains("\"kind\":\"conflict_storm:0\""));
    }

    #[test]
    fn multicore_matches_reference_on_disjoint_legs() {
        // Cycle-equivalence of the event-driven multi-core composition
        // against a hand-rolled laggard-first loop of the cycle-accurate
        // reference stepper, on address-disjoint (non-sharing) traces.
        let traces: Vec<Vec<Event>> = (0..2).map(|i| barrier_trace(15, i)).collect();
        let refs: Vec<&[Event]> = traces.iter().map(|t| t.as_slice()).collect();
        for cfg in [CpuConfig::baseline(), CpuConfig::with_sp()] {
            let fast = MultiCore::try_new(&refs, cfg).unwrap().try_run().unwrap();

            let mc = shared_mem_ctrl(cfg.mem).unwrap();
            let mut slow: Vec<ReferencePipeline> = refs
                .iter()
                .map(|t| {
                    ReferencePipeline::with_memory(
                        t,
                        cfg,
                        MemorySystem::with_shared_mc(cfg.mem, mc.clone()),
                    )
                })
                .collect();
            loop {
                let next = slow
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_done())
                    .min_by_key(|(i, c)| (c.now(), *i))
                    .map(|(i, _)| i);
                let Some(i) = next else { break };
                slow[i].step().unwrap();
            }
            for (f, s) in fast.iter().zip(slow.iter()) {
                assert_eq!(f.cpu.cycles, s.result().cpu.cycles);
                assert_eq!(f.cpu.committed_uops, s.result().cpu.committed_uops);
            }
        }
    }

    #[test]
    fn try_new_reports_empty_core_set() {
        let err = MultiCore::try_new(&[], CpuConfig::baseline()).unwrap_err();
        assert_eq!(err, MultiCoreError::NoCores);
        assert_eq!(err.to_string(), "at least one core required");
    }

    #[test]
    fn try_new_reports_invalid_memory_config() {
        let cfg = CpuConfig {
            mem: spp_mem::MemConfig {
                nvmm_banks: 0,
                ..spp_mem::MemConfig::paper()
            },
            ..CpuConfig::baseline()
        };
        let t = barrier_trace(1, 0);
        let err = MultiCore::try_new(&[&t], cfg).unwrap_err();
        assert_eq!(err, MultiCoreError::Mem(spp_mem::MemConfigError::ZeroBanks));
        assert!(err.to_string().contains("nvmm_banks"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
