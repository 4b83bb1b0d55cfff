//! Property tests for the pmem substrate: crash-image soundness and
//! recovery correctness under randomized programs and crash points.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use spp_pmem::{
    recover, splitmix64, BlockId, CrashSim, CrashTrace, Event, Frontier, PAddr, PmemEnv, Space,
    Variant, BLOCK_SIZE,
};

/// A tiny random "program": a sequence of failure-safe transactions,
/// each updating a random subset of a small array of persistent cells.
#[derive(Debug, Clone)]
struct TxOp {
    cells: Vec<(usize, u64)>, // (cell index, new value)
}

fn tx_ops(n_cells: usize) -> impl Strategy<Value = Vec<TxOp>> {
    prop::collection::vec(
        prop::collection::vec((0..n_cells, any::<u64>()), 1..4).prop_map(|cells| TxOp { cells }),
        1..6,
    )
}

/// Runs the transactions against a fresh env and returns everything a
/// crash test needs.
fn run_program(
    variant: Variant,
    n_cells: usize,
    ops: &[TxOp],
) -> (
    PmemEnv,
    spp_pmem::Space,
    Vec<spp_pmem::PAddr>,
    spp_pmem::Trace,
) {
    let mut env = PmemEnv::new(variant);
    let cells: Vec<_> = (0..n_cells).map(|_| env.alloc_block()).collect();
    // Initial values: cell i holds i, fully persisted before recording.
    env.set_recording(false);
    for (i, &c) in cells.iter().enumerate() {
        env.store_u64(c, i as u64);
    }
    env.set_recording(true);
    let base = env.snapshot();
    for (id, op) in ops.iter().enumerate() {
        env.tx_begin(id as u64);
        for &(i, _) in &op.cells {
            env.tx_log(cells[i], 8);
        }
        env.tx_set_logged();
        for &(i, v) in &op.cells {
            env.store_u64(cells[i], v);
            env.clwb(cells[i]);
        }
        env.tx_commit();
    }
    let trace = env.take_trace();
    (env, base, cells, trace)
}

/// Computes the set of acceptable post-recovery states: after any prefix
/// of committed transactions (each transaction is atomic).
fn acceptable_states(n_cells: usize, ops: &[TxOp]) -> Vec<Vec<u64>> {
    let mut states = Vec::with_capacity(ops.len() + 1);
    let mut cur: Vec<u64> = (0..n_cells as u64).collect();
    states.push(cur.clone());
    for op in ops {
        for &(i, v) in &op.cells {
            cur[i] = v;
        }
        states.push(cur.clone());
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline failure-safety property: in the Log+P+Sf build, an
    /// adversarial crash at ANY event boundary, with the slowest possible
    /// writebacks, recovers to a transaction-atomic state.
    #[test]
    fn wal_recovery_is_transaction_atomic(ops in tx_ops(4), crash_frac in 0.0f64..=1.0) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 4, &ops);
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, trace.events);
        let crash = ((trace.events().len() as f64) * crash_frac) as usize;
        let sim = trace.at(crash.min(trace.events().len()));
        let mut img = sim.image_guaranteed_only();
        recover(&mut img, &layout);
        let state: Vec<u64> = cells.iter().map(|&c| img.read_u64(c)).collect();
        let ok = acceptable_states(4, &ops).contains(&state);
        prop_assert!(ok, "recovered to non-atomic state {state:?}");
    }

    /// Same property under arbitrary (not just adversarial) per-block
    /// writeback schedules, derived from a random seed.
    #[test]
    fn wal_recovery_atomic_under_random_writebacks(
        ops in tx_ops(3),
        crash_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 3, &ops);
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, trace.events);
        let crash = ((trace.events().len() as f64) * crash_frac) as usize;
        let sim = trace.at(crash.min(trace.events().len()));
        // Deterministic pseudo-random cut per block from the seed.
        let mut img = sim.image_with(|b, g, c| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(b.raw().wrapping_mul(0xBF58_476D_1CE4_E5B9));
            g + (h as usize) % (c - g + 1).max(1)
        });
        recover(&mut img, &layout);
        let state: Vec<u64> = cells.iter().map(|&c| img.read_u64(c)).collect();
        let ok = acceptable_states(3, &ops).contains(&state);
        prop_assert!(ok, "recovered to non-atomic state {state:?}");
    }

    /// Negative control: the Log+P build (no fences) is NOT failure safe
    /// in general — but recovery must still never produce a state outside
    /// the per-cell value universe (no wild writes from the log replay).
    #[test]
    fn recovery_never_writes_outside_targets(ops in tx_ops(3), crash_frac in 0.0f64..=1.0) {
        let (env, base, cells, trace) = run_program(Variant::LogP, 3, &ops);
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, trace.events);
        let crash = ((trace.events().len() as f64) * crash_frac) as usize;
        let sim = trace.at(crash.min(trace.events().len()));
        let mut img = sim.image_guaranteed_only();
        recover(&mut img, &layout);
        // An untouched sentinel block far from the program's cells must
        // remain zero after recovery.
        let sentinel = cells.last().unwrap().offset(16 * BLOCK_SIZE);
        prop_assert_eq!(img.read_u64(sentinel), 0);
    }

    /// The eager image (everything written back) always equals the
    /// functional shadow memory at the crash point for stored cells.
    #[test]
    fn eager_image_matches_functional_state(ops in tx_ops(3)) {
        let (env, base, cells, trace) = run_program(Variant::LogPSf, 3, &ops);
        let trace = CrashTrace::new(base, trace.events);
        let sim = trace.at(trace.events().len());
        let img = sim.image_everything();
        for &c in &cells {
            prop_assert_eq!(img.read_u64(c), env.space().read_u64(c));
        }
    }

    /// Guarantee frontiers are monotone in the crash index.
    #[test]
    fn guarantee_frontier_is_monotone(ops in tx_ops(2)) {
        let (_env, base, cells, trace) = run_program(Variant::LogPSf, 2, &ops);
        let trace = CrashTrace::new(base, trace.events);
        let n = trace.events().len();
        let mut prev = vec![0usize; cells.len()];
        for crash in (0..=n).step_by((n / 16).max(1)) {
            let sim = trace.at(crash);
            for (i, &c) in cells.iter().enumerate() {
                let g = sim.guarantee(c.block());
                prop_assert!(g >= prev[i], "frontier went backwards");
                prev[i] = g;
            }
        }
    }
}

// --- the crash index against a replay of the frontier ----------------

/// Blocks the random persist programs touch, and words per block.
const PROGRAM_BLOCKS: u64 = 3;
const PROGRAM_WORDS: u64 = 4;

fn word_addr(block: u64, word: u64) -> PAddr {
    PAddr::new(4096 + block * BLOCK_SIZE + word * 8)
}

/// Every word a program can touch, plus one in a block it never does.
fn all_words() -> Vec<PAddr> {
    (0..=PROGRAM_BLOCKS)
        .flat_map(|b| (0..PROGRAM_WORDS).map(move |w| word_addr(b, w)))
        .collect()
}

/// A random persist program over a few blocks: stores, every flush
/// kind, `pcommit` and both fences.
fn persist_program() -> impl Strategy<Value = Vec<Event>> {
    let op = (
        (0u8..14, 0..PROGRAM_BLOCKS),
        (0..PROGRAM_WORDS, 1..u64::MAX),
    )
        .prop_map(|((kind, b), (w, value))| {
            let addr = word_addr(b, w);
            match kind {
                0..=4 => Event::Store {
                    addr,
                    size: 8,
                    value,
                },
                5 => Event::Clwb { addr },
                6 => Event::ClflushOpt { addr },
                7 => Event::Clflush { addr },
                8 | 9 => Event::Pcommit,
                10 | 11 => Event::Sfence,
                12 => Event::Mfence,
                _ => Event::Compute(1),
            }
        });
    prop::collection::vec(op, 0..28)
}

/// A base image with every word nonzero, so a store that is wrongly
/// dropped or wrongly applied changes what an image reads.
fn program_base() -> Space {
    let mut base = Space::new();
    for (i, &a) in all_words().iter().enumerate() {
        base.write_u64(a, 1000 + i as u64);
    }
    base
}

/// The crash model written out directly: a fresh [`Frontier`] replayed
/// over `events[..crash]`, with each block's stores kept in trace order.
struct Reference {
    crash: usize,
    frontier: Frontier,
    stores: BTreeMap<u64, Vec<(usize, PAddr, u8, u64)>>,
    first_store: Vec<BlockId>,
}

impl Reference {
    fn new(events: &[Event], crash: usize) -> Self {
        let mut r = Reference {
            crash,
            frontier: Frontier::default(),
            stores: BTreeMap::new(),
            first_store: Vec::new(),
        };
        for (idx, ev) in events[..crash].iter().enumerate() {
            if let Event::Store { addr, size, value } = *ev {
                let list = r.stores.entry(addr.block().raw()).or_default();
                if list.is_empty() {
                    r.first_store.push(addr.block());
                }
                list.push((idx, addr, size, value));
            }
            r.frontier.step(idx, ev, |_, _, _, _| {});
        }
        r
    }

    fn dirty(&self) -> Vec<(BlockId, usize)> {
        let g = |b: BlockId| self.frontier.guarantee(b);
        self.first_store.iter().map(|&b| (b, g(b))).collect()
    }

    fn cut_points(&self, b: BlockId) -> Vec<usize> {
        let g = self.frontier.guarantee(b);
        let later = self.stores.get(&b.raw()).into_iter().flatten();
        std::iter::once(g)
            .chain(later.filter(|s| s.0 >= g).map(|s| s.0 + 1))
            .collect()
    }

    /// The image with each dirty block cut at `cut(block, guarantee)`.
    fn image(&self, base: &Space, cut: impl Fn(BlockId, usize) -> usize) -> Vec<u64> {
        let mut img = base.clone();
        for (b, g) in self.dirty() {
            let cut = cut(b, g).clamp(g, self.crash);
            for &(idx, addr, size, value) in &self.stores[&b.raw()] {
                if idx < cut {
                    img.write_uint(addr, size, value);
                }
            }
        }
        read_words(&img)
    }

    /// Every image of the per-block cut cross product.
    fn all_images(&self, base: &Space) -> BTreeSet<Vec<u64>> {
        let mut choices: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new()];
        for (b, _) in self.dirty() {
            choices = choices
                .into_iter()
                .flat_map(|chosen| {
                    self.cut_points(b).into_iter().map(move |cut| {
                        let mut next = chosen.clone();
                        next.insert(b.raw(), cut);
                        next
                    })
                })
                .collect();
        }
        choices
            .iter()
            .map(|chosen| self.image(base, |b, _| chosen[&b.raw()]))
            .collect()
    }
}

fn read_words(img: &Space) -> Vec<u64> {
    all_words().iter().map(|&a| img.read_u64(a)).collect()
}

/// The seeded cut `CrashSim::image_seeded` documents: uniform in
/// `[guarantee, crash]`, hashed from `(seed, block)`.
fn seeded_cut(seed: u64, b: BlockId, g: usize, crash: usize) -> usize {
    let x = splitmix64(seed ^ b.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    g + (x as usize) % (crash - g + 1)
}

/// Asserts that `sim` agrees with the reference on everything a crash
/// check reads.
fn assert_matches_reference(
    sim: &CrashSim<'_>,
    r: &Reference,
    base: &Space,
) -> Result<(), TestCaseError> {
    let c = r.crash;
    for block in 0..=PROGRAM_BLOCKS {
        let b = word_addr(block, 0).block();
        prop_assert_eq!(
            sim.guarantee(b),
            r.frontier.guarantee(b),
            "guarantee @{}",
            c
        );
        prop_assert_eq!(sim.cut_points(b), r.cut_points(b), "cut points @{}", c);
    }
    // Dirty blocks come in first-store order.
    prop_assert_eq!(
        sim.dirty_blocks().collect::<Vec<_>>(),
        r.dirty(),
        "dirty @{}",
        c
    );
    prop_assert_eq!(
        read_words(&sim.image_guaranteed_only()),
        r.image(base, |_, g| g),
        "guaranteed-only image @{}",
        c
    );
    prop_assert_eq!(
        read_words(&sim.image_everything()),
        r.image(base, |_, _| c),
        "eager image @{}",
        c
    );
    for seed in 0..6u64 {
        prop_assert_eq!(
            read_words(&sim.image_seeded(seed)),
            r.image(base, |b, g| seeded_cut(seed, b, g, c)),
            "seeded image @{} seed {}",
            c,
            seed
        );
    }
    let mut states = BTreeSet::new();
    sim.for_each_image(|img| {
        states.insert(read_words(img));
    });
    prop_assert_eq!(states, r.all_images(base), "image set @{}", c);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One crash trace, crashed at every point through its one lazily
    /// built index, agrees with a frontier replayed over that prefix:
    /// guarantees, dirty blocks, cut points, the guaranteed-only, eager
    /// and seeded images and the exhaustive image set.
    #[test]
    fn index_views_equal_prefix_replay(events in persist_program()) {
        let trace = CrashTrace::new(program_base(), events);
        for crash in 0..=trace.events().len() {
            let r = Reference::new(trace.events(), crash);
            assert_matches_reference(&trace.at(crash), &r, trace.base())?;
        }
    }
}
