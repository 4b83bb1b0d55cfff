//! The curated litmus catalog and the seeded generative enumerator.
//!
//! The catalog holds ~21 canonical Px86 shapes — every persist-barrier
//! idiom the paper's workloads exercise plus the classic ways to get
//! one wrong (missing trailing fence, flush without pcommit, foreign
//! fences, cross-thread flushes). The generator extends coverage with
//! pseudo-random programs derived from a `SplitMix64` chain, so a
//! `--seed` sweep explores shapes nobody thought to curate while
//! staying perfectly reproducible.

use spp_pmem::splitmix64;
use spp_workloads::litmus::{LitmusOp, LitmusProgram};

fn st(loc: u8) -> LitmusOp {
    LitmusOp::Store { loc }
}
fn fl(loc: u8) -> LitmusOp {
    LitmusOp::Flush { loc }
}
const SF: LitmusOp = LitmusOp::Sfence;
const PC: LitmusOp = LitmusOp::Pcommit;

/// The curated catalog, in canonical order (stable: cell keys, golden
/// reports, and witness minimization all cite programs by this order).
pub fn catalog() -> Vec<LitmusProgram> {
    vec![
        // -- single-thread epoch anatomy --------------------------------
        LitmusProgram::single("full-epoch", vec![st(0), fl(0), SF, PC, SF]),
        LitmusProgram::single("store-only", vec![st(0), st(1)]),
        LitmusProgram::single("flush-no-fence", vec![st(0), fl(0)]),
        LitmusProgram::single("flush-fence-no-pcommit", vec![st(0), fl(0), SF]),
        LitmusProgram::single("missing-trailing-fence", vec![st(0), fl(0), SF, PC]),
        LitmusProgram::single("pcommit-without-flush", vec![st(0), SF, PC, SF]),
        LitmusProgram::single(
            "two-stores-one-flush",
            vec![st(0), st(1), fl(0), SF, PC, SF],
        ),
        LitmusProgram::single("epoch-then-store", vec![st(0), fl(0), SF, PC, SF, st(1)]),
        LitmusProgram::single("overwrite", vec![st(0), st(0), fl(0), SF]),
        LitmusProgram::single("barriers-only", vec![SF, PC, SF]),
        LitmusProgram::single(
            "flush-both-then-barrier",
            vec![st(0), st(1), fl(0), fl(1), SF, PC],
        ),
        // The knob trap: the weak flush is never ordered (no fence
        // between it and the pcommit), so x can stay stale while the
        // trailing store persists by crash — the exact state the
        // `ClflushOptProgramOrdered` weakening forbids.
        LitmusProgram::single("knob-trap", vec![st(0), fl(0), PC, SF, st(1)]),
        LitmusProgram::single("clflush-path", vec![st(0), fl(0), PC, SF]),
        LitmusProgram::single("double-pcommit", vec![st(0), fl(0), SF, PC, PC, SF]),
        LitmusProgram::single("fence-sandwich", vec![SF, st(0), fl(0), SF]),
        // -- two-thread shapes ------------------------------------------
        LitmusProgram::pair(
            "parallel-epochs",
            vec![st(0), fl(0), SF],
            vec![st(1), fl(1), SF],
        ),
        LitmusProgram::pair("cross-thread-flush", vec![st(0)], vec![fl(0), SF, PC, SF]),
        LitmusProgram::pair("foreign-fence", vec![st(0), fl(0)], vec![SF, PC, SF]),
        LitmusProgram::pair("pcommit-split", vec![st(0), fl(0), SF, PC], vec![SF]),
        LitmusProgram::pair("independent-stores", vec![st(0)], vec![st(1)]),
        LitmusProgram::pair(
            "writer-flusher",
            vec![st(0), st(1)],
            vec![fl(0), SF, PC, SF],
        ),
        LitmusProgram::pair("same-loc-race", vec![st(0)], vec![st(0), fl(0), SF]),
    ]
}

/// Generates `n` pseudo-random litmus programs from `seed`: 1–2
/// threads, 2–6 ops over locations `x`/`y`, every op kind equally
/// likely. Fully determined by `(seed, n)`.
pub fn generate(seed: u64, n: usize) -> Vec<LitmusProgram> {
    let mut state = splitmix64(seed ^ 0x4C49_544D_5553_5F31); // "LITMUS_1"
    let mut next = || {
        state = splitmix64(state);
        state
    };
    (0..n)
        .map(|i| {
            let threads = 1 + (next() % 2) as usize;
            let total = 2 + (next() % 5) as usize; // 2..=6 ops
            let mut per_thread = vec![Vec::new(); threads];
            for k in 0..total {
                let t = if threads == 2 && total >= 2 {
                    // Keep both threads non-empty, otherwise random.
                    if k < 2 {
                        k
                    } else {
                        (next() % 2) as usize
                    }
                } else {
                    0
                };
                let op = match next() % 4 {
                    0 => st((next() % 2) as u8),
                    1 => fl((next() % 2) as u8),
                    2 => SF,
                    _ => PC,
                };
                per_thread[t].push(op);
            }
            LitmusProgram {
                name: format!("gen{i:03}-s{seed:#x}"),
                threads: per_thread,
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_at_least_twenty_well_formed_programs() {
        let cat = catalog();
        assert!(cat.len() >= 20, "catalog has {} programs", cat.len());
        for p in &cat {
            assert!((1..=2).contains(&p.threads.len()), "{}", p.name);
            assert!((2..=6).contains(&p.num_ops()), "{}", p.name);
            assert!(p.num_locs() <= 2, "{}", p.name);
        }
        // Names are unique (they become cell keys).
        let mut names: Vec<_> = cat.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
        // The knob trap must be present: it is what makes the
        // weakened-model self-test demonstrably fail.
        assert!(cat.iter().any(|p| p.name == "knob-trap"));
    }

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let a = generate(7, 10);
        let b = generate(7, 10);
        assert_eq!(a, b);
        let c = generate(8, 10);
        assert_ne!(a, c);
        for p in &a {
            assert!((2..=6).contains(&p.num_ops()), "{}", p.name);
            assert!((1..=2).contains(&p.threads.len()));
            assert!(p.threads.iter().all(|t| !t.is_empty()));
        }
    }
}
