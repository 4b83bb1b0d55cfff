//! Property tests: every benchmark holds its invariants under random
//! operation sequences, and the Log+P+Sf build recovers to a
//! transaction-atomic state from an adversarial crash at any point.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_pmem::{recover, CrashTrace, PmemEnv, Variant};
use spp_workloads::{make_workload, BenchId, OpOutcome};
use std::collections::BTreeSet;

fn structural_bench_ids() -> impl Strategy<Value = BenchId> {
    prop::sample::select(vec![
        BenchId::Graph,
        BenchId::HashMap,
        BenchId::LinkedList,
        BenchId::AvlTree,
        BenchId::BTree,
        BenchId::RbTree,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants hold at every step of a random op sequence, and the
    /// reported key set tracks the outcomes exactly.
    #[test]
    fn invariants_hold_under_random_ops(
        id in structural_bench_ids(),
        init in 0u64..150,
        ops in 1u64..120,
        seed in any::<u64>(),
    ) {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = make_workload(id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, init);
        let mut oracle: BTreeSet<u64> =
            w.verify(env.space()).unwrap().keys.into_iter().collect();
        for op in 0..ops {
            match w.run_op(&mut env, &mut rng, op) {
                OpOutcome::Inserted(k) => prop_assert!(oracle.insert(k)),
                OpOutcome::Deleted(k) => prop_assert!(oracle.remove(&k)),
                OpOutcome::Swapped(..) | OpOutcome::Noop => {}
            }
        }
        let s = w.verify(env.space()).unwrap();
        let got: BTreeSet<u64> = s.keys.iter().copied().collect();
        prop_assert_eq!(got, oracle);
    }

    /// The headline failure-safety property across the whole suite: crash
    /// the Log+P+Sf build at an arbitrary point with adversarial
    /// writebacks; after recovery the structure is valid and equals the
    /// state after some prefix of the operations.
    #[test]
    fn crash_recovery_is_prefix_consistent(
        id in prop::sample::select(BenchId::ALL.to_vec()),
        init in 2u64..60,
        ops in 1u64..25,
        seed in any::<u64>(),
        crash_frac in 0.0f64..=1.0,
    ) {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = make_workload(id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, init);
        env.set_recording(true);
        let base = env.snapshot();

        // Track the key set after every op prefix.
        let mut states: Vec<BTreeSet<u64>> = Vec::with_capacity(ops as usize + 1);
        let mut cur: BTreeSet<u64> =
            w.verify(env.space()).unwrap().keys.into_iter().collect();
        states.push(cur.clone());
        for op in 0..ops {
            match w.run_op(&mut env, &mut rng, op) {
                OpOutcome::Inserted(k) => { cur.insert(k); }
                OpOutcome::Deleted(k) => { cur.remove(&k); }
                OpOutcome::Swapped(..) | OpOutcome::Noop => {}
            }
            states.push(cur.clone());
        }
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, env.take_trace());

        let crash = ((trace.events().len() as f64) * crash_frac) as usize;
        let mut img = trace.at(crash.min(trace.events().len())).image_guaranteed_only();
        recover(&mut img, &layout);

        let s = w.verify(&img).map_err(|e| {
            TestCaseError::fail(format!("{id}: post-recovery invalid: {e}"))
        })?;
        let got: BTreeSet<u64> = s.keys.iter().copied().collect();
        prop_assert!(
            states.contains(&got),
            "{}: recovered state matches no operation prefix (crash at {}/{})",
            id, crash, trace.events().len()
        );
    }
}
