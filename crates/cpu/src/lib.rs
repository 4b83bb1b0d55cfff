//! # spp-cpu — the trace-driven out-of-order core
//!
//! The pipeline timing model of the `specpersist` reproduction of
//! *"Hiding the Long Latency of Persist Barriers Using Speculative
//! Execution"* (ISCA '17): a four-wide out-of-order core (Table 2) that
//! replays micro-op traces recorded by `spp-pmem`/`spp-workloads`
//! through the `spp-mem` memory system, with the paper's *speculative
//! persistence* (SP) built from the `spp-core` mechanisms.
//!
//! ```
//! use spp_cpu::{CpuConfig, Simulator};
//! use spp_pmem::{PmemEnv, Variant};
//!
//! // Record a tiny persist-barrier trace...
//! let mut env = PmemEnv::new(Variant::LogPSf);
//! let a = env.alloc_block();
//! env.store_u64(a, 1);
//! env.clwb(a);
//! env.persist_barrier();
//! let trace = env.take_trace();
//!
//! // ...and time it with and without speculative persistence.
//! let base = Simulator::new(&trace.events).run().expect("sound config");
//! let sp = Simulator::new(&trace.events)
//!     .config(CpuConfig::with_sp())
//!     .run()
//!     .expect("sound config");
//! assert!(base.cpu.cycles > 0);
//! assert_eq!(base.cpu.committed_uops, sp.cpu.committed_uops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Simulation hot paths must surface faults as typed errors, not abort.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod config;
mod error;
mod multi;
mod pipeline;
#[cfg(any(test, feature = "reference-stepper"))]
mod reference;
mod simulator;
mod stats;
mod uop;
pub mod vislog;

pub use config::{CpuConfig, SpConfig};
pub use error::{DiagnosticSnapshot, SimError, SimErrorKind};
pub use multi::{MultiCore, MultiCoreError};
pub use pipeline::Pipeline;
#[cfg(any(test, feature = "reference-stepper"))]
pub use reference::ReferencePipeline;
pub use simulator::Simulator;
pub use stats::{CpuStats, SimResult};
pub use uop::{Uop, UopKind};
pub use vislog::{reconstruct, VisEvent, VisOp};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spp_pmem::{Event, PAddr, PmemEnv, Variant};

    /// Test-local shorthand on the [`Simulator`] façade.
    fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
        Simulator::new(events).config(*cfg).run().unwrap()
    }

    fn compute(n: u32) -> Event {
        Event::Compute(n)
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = simulate(&[], &CpuConfig::baseline());
        assert_eq!(r.cpu.committed_uops, 0);
    }

    #[test]
    fn compute_throughput_is_width_limited() {
        let events = vec![compute(4000)];
        let r = simulate(&events, &CpuConfig::baseline());
        assert_eq!(r.cpu.committed_uops, 4000);
        // 4-wide: ~1000 cycles plus pipeline fill.
        assert!(
            r.cpu.cycles >= 1000 && r.cpu.cycles < 1100,
            "cycles = {}",
            r.cpu.cycles
        );
    }

    #[test]
    fn dependent_load_chain_serializes_on_memory() {
        // 64 dependent loads to distinct cold blocks: each waits for the
        // previous, each misses to NVMM (~146 cycles).
        let events: Vec<Event> = (0..64)
            .map(|i| Event::Load {
                addr: PAddr::new(i * 64 + 4096),
                size: 8,
                dep: true,
            })
            .collect();
        let r = simulate(&events, &CpuConfig::baseline());
        assert!(
            r.cpu.cycles > 64 * 140,
            "chain must serialize, got {}",
            r.cpu.cycles
        );
        assert_eq!(r.mem.mem_accesses, 64);
    }

    #[test]
    fn independent_loads_overlap() {
        let events: Vec<Event> = (0..64)
            .map(|i| Event::Load {
                addr: PAddr::new(i * 64 + 4096),
                size: 8,
                dep: false,
            })
            .collect();
        let r = simulate(&events, &CpuConfig::baseline());
        assert!(
            r.cpu.cycles < 64 * 100,
            "independent misses must overlap, got {}",
            r.cpu.cycles
        );
    }

    /// Builds a trace of `n` write-ahead-logging-style persist barriers:
    /// store; clwb; sfence; pcommit; sfence; trailing compute.
    fn barrier_trace(n: u64, tail_compute: u32) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + i * 64);
            ev.push(Event::Store { addr: a, size: 8 });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Sfence);
            ev.push(Event::Pcommit);
            ev.push(Event::Sfence);
            ev.push(compute(tail_compute));
        }
        ev
    }

    #[test]
    fn fences_stall_the_baseline() {
        let events = barrier_trace(10, 50);
        let r = simulate(&events, &CpuConfig::baseline());
        assert!(r.cpu.fence_stall_cycles > 0);
        assert!(r.cpu.cycles > 10 * 315, "each barrier waits a WPQ drain");
        assert_eq!(r.cpu.pcommits, 10);
        assert_eq!(r.cpu.fences, 20);
    }

    #[test]
    fn sp_hides_persist_barrier_latency() {
        let events = barrier_trace(50, 200);
        let base = simulate(&events, &CpuConfig::baseline());
        let sp = simulate(&events, &CpuConfig::with_sp());
        assert_eq!(base.cpu.committed_uops, sp.cpu.committed_uops);
        assert!(
            sp.cpu.cycles * 10 < base.cpu.cycles * 9,
            "SP ({}) should beat baseline ({}) clearly",
            sp.cpu.cycles,
            base.cpu.cycles
        );
        assert!(sp.cpu.epochs > 0, "speculation must trigger");
        assert!(sp.ssb.inserts > 0, "stores must pass through the SSB");
    }

    #[test]
    fn sp_epochs_commit_and_drain_fully() {
        let events = barrier_trace(20, 100);
        let r = simulate(&events, &CpuConfig::with_sp());
        assert_eq!(r.cpu.rollbacks, 0);
        assert!(r.checkpoints.taken >= r.cpu.epochs);
        // All pcommits eventually reached the memory controller.
        assert_eq!(r.mc.pcommits, 20);
    }

    #[test]
    fn logp_style_trace_has_concurrent_pcommits() {
        // pcommits with no fences never stall; several can be in flight.
        let mut events = Vec::new();
        for i in 0..8 {
            let a = PAddr::new(4096 + i * 64);
            events.push(Event::Store { addr: a, size: 8 });
            events.push(Event::Clwb { addr: a });
            events.push(Event::Pcommit);
            events.push(compute(4));
        }
        let r = simulate(&events, &CpuConfig::baseline());
        assert!(
            r.cpu.max_inflight_pcommits >= 2,
            "expected overlap, got {}",
            r.cpu.max_inflight_pcommits
        );
        assert_eq!(r.cpu.fence_stall_cycles, 0);
    }

    #[test]
    fn clustered_barriers_use_multiple_checkpoints() {
        // Four barriers back-to-back (a WAL transaction's shape): SP
        // must chain child epochs rather than stalling at each fence.
        let mut events = Vec::new();
        for i in 0..4u64 {
            let a = PAddr::new(4096 + i * 64);
            events.push(Event::Store { addr: a, size: 8 });
            events.push(Event::Clwb { addr: a });
            events.push(Event::Sfence);
            events.push(Event::Pcommit);
            events.push(Event::Sfence);
        }
        events.push(compute(500));
        let r = simulate(&events, &CpuConfig::with_sp());
        assert!(
            r.cpu.epochs >= 3,
            "expected chained epochs, got {}",
            r.cpu.epochs
        );
        assert!(r.checkpoints.high_water >= 2);
    }

    #[test]
    fn ssb_forwarding_serves_speculative_loads() {
        // Store then load the same address inside the speculative
        // shadow: the load must forward from the SSB.
        let a = PAddr::new(8192);
        let mut events = vec![
            Event::Store { addr: a, size: 8 },
            Event::Clwb { addr: a },
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence,
            // In-shadow:
            Event::Store { addr: a, size: 8 },
            compute(400), // let the store retire into the SSB first
            Event::Load {
                addr: a,
                size: 8,
                dep: false,
            },
        ];
        events.push(compute(100));
        let r = simulate(&events, &CpuConfig::with_sp());
        assert!(
            r.cpu.ssb_forwards + r.cpu.lsq_forwards >= 1,
            "load in shadow must forward"
        );
    }

    #[test]
    fn tiny_ssb_limits_speculation_but_stays_correct() {
        let events = barrier_trace(20, 400);
        let big = simulate(
            &events,
            &CpuConfig {
                sp: Some(SpConfig::with_ssb_entries(256)),
                ..CpuConfig::baseline()
            },
        );
        let tiny = simulate(
            &events,
            &CpuConfig {
                sp: Some(SpConfig::with_ssb_entries(32)),
                ..CpuConfig::baseline()
            },
        );
        assert_eq!(big.cpu.committed_uops, tiny.cpu.committed_uops);
    }

    #[test]
    fn coherence_conflict_rolls_back_and_reexecutes() {
        let events = barrier_trace(4, 50);
        let mut p = Simulator::new(&events)
            .config(CpuConfig::with_sp())
            .build()
            .unwrap();
        // Run until speculation is active, then snoop a block the
        // speculative store touched.
        let target = PAddr::new(4096 + 64).block(); // 2nd barrier's store
        let mut rolled = false;
        for _ in 0..200_000 {
            if p.is_done() {
                break;
            }
            p.step().unwrap();
            if !rolled && p.inject_coherence(target) {
                rolled = true;
            }
        }
        assert!(p.is_done(), "pipeline must finish after rollback");
        let r = p.result();
        if rolled {
            assert_eq!(r.cpu.rollbacks, 1);
            assert!(r.blt.conflicts >= 1);
        }
        // Whatever happened, every micro-op still committed exactly once.
        let base = simulate(&events, &CpuConfig::baseline());
        assert_eq!(r.cpu.committed_uops, base.cpu.committed_uops);
    }

    #[test]
    fn legacy_clflush_serializes_retirement() {
        // A clflush of a dirty block holds retirement until the
        // writeback is visible; clflushopt (posted) does not.
        let a = PAddr::new(4096);
        let mk = |legacy: bool| {
            let mut ev = vec![Event::Store { addr: a, size: 8 }];
            ev.push(if legacy {
                Event::Clflush { addr: a }
            } else {
                Event::ClflushOpt { addr: a }
            });
            ev.push(compute(8));
            ev
        };
        let posted = simulate(&mk(false), &CpuConfig::baseline());
        let serial = simulate(&mk(true), &CpuConfig::baseline());
        assert!(
            serial.cpu.cycles > posted.cpu.cycles + 20,
            "clflush ({}) must serialize vs clflushopt ({})",
            serial.cpu.cycles,
            posted.cpu.cycles
        );
    }

    #[test]
    fn snoop_without_speculation_is_ignored() {
        let events = vec![compute(10)];
        let mut p = Simulator::new(&events)
            .config(CpuConfig::with_sp())
            .build()
            .unwrap();
        assert!(!p.inject_coherence(spp_pmem::BlockId::new(64)));
    }

    #[test]
    fn real_workload_trace_matches_uop_count_across_configs() {
        // End-to-end: a real linked-list trace through both configs.
        let mut env = PmemEnv::new(Variant::LogPSf);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let mut w = spp_workloads::make_workload(spp_workloads::BenchId::LinkedList);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, 50);
        env.set_recording(true);
        for op in 0..20 {
            w.run_op(&mut env, &mut rng, op);
        }
        let trace = env.take_trace();
        let base = simulate(&trace.events, &CpuConfig::baseline());
        let sp = simulate(&trace.events, &CpuConfig::with_sp());
        assert_eq!(base.cpu.committed_uops, trace.counts.total());
        assert_eq!(sp.cpu.committed_uops, trace.counts.total());
        assert!(sp.cpu.cycles <= base.cpu.cycles);
        assert!(base.cpu.pcommits == trace.counts.pcommits);
    }
}
