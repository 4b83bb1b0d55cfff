//! Cross-crate failure-safety tests: crash injection at persist-ordering
//! boundaries, recovery, and structural verification — for every
//! benchmark, under adversarial and randomized writeback schedules.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specpersist::pmem::{persist_boundaries, recover, CrashTrace, PmemEnv, Variant};
use specpersist::workloads::{make_workload, BenchId, OpOutcome, Workload};

struct Harness {
    w: Box<dyn Workload>,
    trace: CrashTrace,
    layout: specpersist::pmem::LogLayout,
    states: Vec<BTreeSet<u64>>,
}

fn prepare(id: BenchId, init: u64, ops: u64, seed: u64) -> Harness {
    let mut env = PmemEnv::new(Variant::LogPSf);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = make_workload(id);
    env.set_recording(false);
    w.setup(&mut env, &mut rng, init);
    env.set_recording(true);
    let base = env.snapshot();
    let mut states: Vec<BTreeSet<u64>> = Vec::new();
    states.push(
        w.verify(env.space())
            .expect("post-init")
            .keys
            .into_iter()
            .collect(),
    );
    for op in 0..ops {
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
    Harness {
        w,
        trace: CrashTrace::new(base, env.take_trace().events),
        layout,
        states,
    }
}

fn check_image(h: &Harness, image: &mut specpersist::pmem::Space, what: &str) {
    recover(image, &h.layout);
    let got: BTreeSet<u64> =
        h.w.verify(image)
            .unwrap_or_else(|e| panic!("{what}: post-recovery structure invalid: {e}"))
            .keys
            .into_iter()
            .collect();
    assert!(
        h.states.contains(&got),
        "{what}: recovered state matches no operation prefix"
    );
}

/// Crash at every persist boundary (just before and just after every
/// flush, `pcommit`, fence and transaction marker, plus both trace
/// ends: the points where durability state changes) with adversarial
/// writebacks.
#[test]
fn crash_at_every_persist_boundary_recovers() {
    for id in BenchId::ALL {
        let h = prepare(id, 120, 6, 0xAB);
        for crash in persist_boundaries(h.trace.events()) {
            let mut img = h.trace.at(crash).image_guaranteed_only();
            check_image(&h, &mut img, &format!("{id} @event {crash}"));
        }
    }
}

/// Randomized per-block writeback schedules: any mix of stale and fresh
/// blocks must still recover consistently.
#[test]
fn randomized_writeback_schedules_recover() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for id in BenchId::ALL {
        let h = prepare(id, 80, 5, 0xCD);
        for _ in 0..12 {
            let crash = rng.gen_range(0..=h.trace.events().len());
            let sim = h.trace.at(crash);
            let seed: u64 = rng.gen();
            let mut img = sim.image_with(|b, g, c| {
                let x = seed ^ b.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
                g + (x as usize) % (c - g + 1).max(1)
            });
            check_image(&h, &mut img, &format!("{id} random @{crash}"));
        }
    }
}

/// The eager image (everything written back instantly) recovers to the
/// exact final prefix at a trace end.
#[test]
fn eager_image_at_end_is_the_final_state() {
    for id in BenchId::ALL {
        let h = prepare(id, 60, 4, 0xEF);
        let mut img = h.trace.at(h.trace.events().len()).image_everything();
        recover(&mut img, &h.layout);
        let got: BTreeSet<u64> =
            h.w.verify(&img)
                .expect("final image valid")
                .keys
                .into_iter()
                .collect();
        assert_eq!(
            &got,
            h.states.last().expect("states"),
            "{id}: final state mismatch"
        );
    }
}

/// Negative control: without fences (Log+P) there must exist a crash
/// point whose adversarial image is NOT failure safe for at least one
/// benchmark run — demonstrating the fences are load-bearing. (The
/// structure may verify by luck at many points; we only require that
/// recovery CAN observe a state matching no prefix, or an outright
/// verification failure, somewhere.)
#[test]
fn missing_fences_are_observably_unsafe() {
    let mut observed_violation = false;
    'outer: for id in [BenchId::LinkedList, BenchId::AvlTree, BenchId::StringSwap] {
        let mut env = PmemEnv::new(Variant::LogP);
        let mut rng = StdRng::seed_from_u64(0x5AFE);
        let mut w = make_workload(id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, 100);
        env.set_recording(true);
        let base = env.snapshot();
        let mut states: Vec<BTreeSet<u64>> = Vec::new();
        states.push(
            w.verify(env.space())
                .expect("init")
                .keys
                .into_iter()
                .collect(),
        );
        for op in 0..8 {
            let mut cur = states.last().expect("non-empty").clone();
            match w.run_op(&mut env, &mut rng, op) {
                OpOutcome::Inserted(k) => {
                    cur.insert(k);
                }
                OpOutcome::Deleted(k) => {
                    cur.remove(&k);
                }
                _ => {}
            }
            states.push(cur);
        }
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, env.take_trace().events);
        // Without fences nothing is ever *guaranteed*, so the purely
        // adversarial image is just "nothing persisted" — trivially
        // consistent. The danger is mixed writebacks: some blocks
        // raced ahead, others lagged. Sample such schedules.
        let mut rng = StdRng::seed_from_u64(0xBAD);
        for _ in 0..200 {
            let crash = rng.gen_range(0..=trace.events().len());
            let seed: u64 = rng.gen();
            let sim = trace.at(crash);
            let mut img = sim.image_with(|b, g, c| {
                let x = seed ^ b.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
                g + (x as usize) % (c - g + 1).max(1)
            });
            recover(&mut img, &layout);
            let ok = match w.verify(&img) {
                Err(_) => false,
                Ok(s) => states.contains(&s.keys.into_iter().collect()),
            };
            if !ok {
                observed_violation = true;
                break 'outer;
            }
        }
    }
    assert!(
        observed_violation,
        "Log+P (no fences) never exhibited a recovery violation — the crash model \
         may have stopped exercising unordered persists"
    );
}
