//! Crash-torture: every benchmark, many crash points, adversarial
//! writebacks — recovery must always restore a consistent,
//! prefix-correct structure.
//!
//! This is the failure-safety claim of the paper's §3.1 exercised end
//! to end: crash the `Log+P+Sf` build at evenly spaced points in its
//! trace, materialize the worst-case NVMM image (only guaranteed
//! persists arrived), run recovery, and structurally verify the result.
//!
//! ```text
//! cargo run --release --example crash_torture
//! ```

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use specpersist::pmem::{recover, CrashTrace, PmemEnv, Variant};
use specpersist::workloads::{make_workload, BenchId, OpOutcome};

const CRASH_POINTS: usize = 40;
const OPS: u64 = 12;

fn main() {
    println!("Crash-torturing every benchmark ({CRASH_POINTS} crash points each)\n");
    let mut total = 0usize;
    for id in BenchId::ALL {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut w = make_workload(id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, 200);
        env.set_recording(true);
        let base = env.snapshot();

        // Track the acceptable post-recovery states: the key set after
        // each operation prefix.
        let mut states: Vec<BTreeSet<u64>> = Vec::new();
        states.push(
            w.verify(env.space())
                .expect("post-init")
                .keys
                .into_iter()
                .collect(),
        );
        for op in 0..OPS {
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
        let trace = CrashTrace::new(base, env.take_trace());

        let mut survived = 0usize;
        for i in 0..CRASH_POINTS {
            let crash = trace.events().len() * i / (CRASH_POINTS - 1).max(1);
            let mut img = trace
                .at(crash.min(trace.events().len()))
                .image_guaranteed_only();
            recover(&mut img, &layout);
            let got: BTreeSet<u64> = w
                .verify(&img)
                .unwrap_or_else(|e| panic!("{id}: crash at {crash}: {e}"))
                .keys
                .into_iter()
                .collect();
            assert!(
                states.contains(&got),
                "{id}: recovered state matches no operation prefix (crash at {crash})"
            );
            survived += 1;
        }
        total += survived;
        println!(
            "  {:<3} {:>3}/{} crash points recovered consistently",
            id.abbrev(),
            survived,
            CRASH_POINTS
        );
    }
    println!("\nAll {total} adversarial crashes recovered to prefix-consistent states.");
}
