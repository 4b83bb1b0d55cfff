//! Property tests for the pipeline: arbitrary event traces — including
//! pathological fence/pcommit patterns — must terminate, commit every
//! micro-op exactly once, and behave deterministically, with and
//! without speculative persistence.

use proptest::prelude::*;
use spp_cpu::{CpuConfig, SimResult, Simulator, SpConfig};
use spp_pmem::{Event, PAddr};

fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
    Simulator::new(events)
        .config(*cfg)
        .run()
        .expect("property traces must simulate cleanly")
}

/// Strategy: one arbitrary trace event over a small block universe.
fn arb_event() -> impl Strategy<Value = Event> {
    let addr = (0u64..64).prop_map(|b| PAddr::new(4096 + b * 64 + 8 * (b % 8)));
    prop_oneof![
        (1u32..20).prop_map(Event::Compute),
        (addr.clone(), any::<bool>()).prop_map(|(a, dep)| Event::Load {
            addr: a,
            size: 8,
            dep
        }),
        addr.clone().prop_map(|a| Event::Store { addr: a, size: 8 }),
        addr.clone().prop_map(|a| Event::Clwb {
            addr: a.block_base()
        }),
        addr.clone().prop_map(|a| Event::ClflushOpt {
            addr: a.block_base()
        }),
        addr.prop_map(|a| Event::Clflush {
            addr: a.block_base()
        }),
        Just(Event::Pcommit),
        Just(Event::Sfence),
        Just(Event::Mfence),
        (0u64..8).prop_map(Event::TxBegin),
        (0u64..8).prop_map(Event::TxEnd),
    ]
}

fn arb_trace() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(arb_event(), 0..400)
}

fn total_uops(events: &[Event]) -> u64 {
    events.iter().map(|e| e.micro_ops()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any trace terminates on the baseline core with exact commit
    /// accounting. (run() would hang on a deadlock; the pipeline's
    /// internal next-event assertion fires first.)
    #[test]
    fn baseline_commits_every_uop_exactly_once(events in arb_trace()) {
        let r = simulate(&events, &CpuConfig::baseline());
        prop_assert_eq!(r.cpu.committed_uops, total_uops(&events));
    }

    /// Same with speculative persistence — including traces whose fence
    /// patterns never match the combined opcode.
    #[test]
    fn sp_commits_every_uop_exactly_once(events in arb_trace()) {
        let r = simulate(&events, &CpuConfig::with_sp());
        prop_assert_eq!(r.cpu.committed_uops, total_uops(&events));
        prop_assert_eq!(r.cpu.rollbacks, 0);
    }

    /// SP with a tiny SSB and a single checkpoint still terminates and
    /// commits exactly (maximal structural-hazard pressure).
    #[test]
    fn constrained_sp_still_commits_exactly(events in arb_trace()) {
        let cfg = CpuConfig {
            sp: Some(SpConfig {
                ssb: spp_core::SsbConfig::table3(32),
                checkpoints: 1,
                bloom_bytes: 64,
                combine_barrier: false,
            }),
            ..CpuConfig::baseline()
        };
        let r = simulate(&events, &cfg);
        prop_assert_eq!(r.cpu.committed_uops, total_uops(&events));
    }

    /// Simulation is a pure function of (trace, config).
    #[test]
    fn simulation_is_deterministic(events in arb_trace()) {
        for cfg in [CpuConfig::baseline(), CpuConfig::with_sp()] {
            let a = simulate(&events, &cfg);
            let b = simulate(&events, &cfg);
            prop_assert_eq!(a.cpu.cycles, b.cpu.cycles);
            prop_assert_eq!(a.cpu.fetch_stall_cycles, b.cpu.fetch_stall_cycles);
            prop_assert_eq!(a.mc.nvmm_writes, b.mc.nvmm_writes);
            prop_assert_eq!(a.ssb.inserts, b.ssb.inserts);
        }
    }

    /// Cycles are monotone in work: appending events never reduces the
    /// cycle count.
    #[test]
    fn appending_work_never_speeds_things_up(
        events in arb_trace(),
        extra in arb_event(),
    ) {
        let cfg = CpuConfig::baseline();
        let a = simulate(&events, &cfg).cpu.cycles;
        let mut longer = events;
        longer.push(extra);
        let b = simulate(&longer, &cfg).cpu.cycles;
        prop_assert!(b >= a, "adding an event reduced cycles: {a} -> {b}");
    }

    /// Random coherence snoops mid-run: the pipeline may roll back any
    /// number of times but must still finish with exact accounting.
    #[test]
    fn random_snoops_preserve_commit_accounting(
        events in arb_trace(),
        snoop_blocks in prop::collection::vec(0u64..64, 1..8),
        period in 16usize..200,
    ) {
        let expected = total_uops(&events);
        let mut p = Simulator::new(&events)
            .config(CpuConfig::with_sp())
            .build()
            .unwrap();
        let mut i = 0usize;
        let mut steps = 0usize;
        while !p.is_done() {
            p.step().unwrap();
            steps += 1;
            if steps.is_multiple_of(period) {
                let b = spp_pmem::PAddr::new(4096 + snoop_blocks[i % snoop_blocks.len()] * 64);
                p.inject_coherence(b.block());
                i += 1;
            }
            prop_assert!(steps < 5_000_000, "runaway simulation");
        }
        let r = p.result();
        prop_assert_eq!(r.cpu.committed_uops, expected);
    }
}
