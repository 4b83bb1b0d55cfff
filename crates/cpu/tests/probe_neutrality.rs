//! Property: the probe boundary is impenetrable. A consumer may crash
//! at any point in the event stream — the simulation must not observe
//! it, and every counter of the `SimResult` must be identical to an
//! uninstrumented run.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Once;

use proptest::prelude::*;
use spp_cpu::{CpuConfig, SimResult, Simulator};
use spp_obs::{Probe, ProbeEvent, ProbeHandle};
use spp_pmem::{Event, PAddr};

/// A consumer that does real work per event and then detonates after a
/// seeded number of deliveries — the adversarial counterpart of
/// `NullProbe`.
struct ChaosProbe {
    seen: Rc<Cell<u64>>,
    fuse: u64,
    scratch: u64,
}

impl Probe for ChaosProbe {
    fn on(&mut self, ev: &ProbeEvent) {
        self.seen.set(self.seen.get() + 1);
        // Mix the event into live state so delivery cannot be elided.
        self.scratch = self
            .scratch
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(format!("{ev:?}").len() as u64);
        if self.seen.get() == self.fuse {
            panic!("chaos probe detonated (scratch {:#x})", self.scratch);
        }
    }
}

/// The chaos panic is expected; keep it out of the test log while
/// leaving every other panic (a genuine failure) loud.
fn quiet_expected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos probe"));
            if !expected {
                prev(info);
            }
        }));
    });
}

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
        addr.prop_map(|a| Event::Clwb {
            addr: a.block_base()
        }),
        Just(Event::Pcommit),
        Just(Event::Sfence),
        (0u64..8).prop_map(Event::TxBegin),
        (0u64..8).prop_map(Event::TxEnd),
    ]
}

fn arb_trace() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(arb_event(), 0..300)
}

fn run(events: &[Event], cfg: CpuConfig, probe: ProbeHandle) -> SimResult {
    Simulator::new(events)
        .config(cfg)
        .probe(probe)
        .run()
        .expect("property traces must simulate cleanly")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A consumer that panics after an arbitrary number of events
    /// poisons its handle and nothing else: the instrumented run's
    /// result equals the uninstrumented run's, bit for bit.
    #[test]
    fn a_crashing_consumer_cannot_perturb_the_machine(
        events in arb_trace(),
        fuse in 1u64..400,
    ) {
        quiet_expected_panics();
        for cfg in [CpuConfig::baseline(), CpuConfig::with_sp()] {
            let plain = run(&events, cfg, ProbeHandle::disabled());

            let seen = Rc::new(Cell::new(0));
            let handle = ProbeHandle::new(ChaosProbe {
                seen: seen.clone(),
                fuse,
                scratch: 1,
            });
            let chaotic = run(&events, cfg, handle.clone());

            prop_assert_eq!(plain, chaotic,
                "a panicking probe changed the simulation");
            // The handle is poisoned exactly when the fuse was reached
            // before the event stream ran out.
            prop_assert_eq!(handle.is_poisoned(), seen.get() >= fuse);
            // Delivery stops at the detonation: never past the fuse.
            prop_assert!(seen.get() <= fuse);
        }
    }
}
