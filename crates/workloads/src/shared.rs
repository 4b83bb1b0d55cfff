//! Shared-NVMM multi-threaded workloads for the true multi-core study.
//!
//! The paper's suite (Table 1) is single-threaded; these generators
//! produce *per-core* traces of concurrent persistent structures in the
//! style of lock-free designs adapted to NVMM — a Treiber-style
//! persistent stack and a Michael-Scott-style persistent queue — with a
//! per-op persist barrier (`sfence; pcommit; sfence`) after every
//! structural update, the pattern SP speculates past.
//!
//! Each core's trace is a **pure function** of `(kind, core, spec)`:
//! independent of how many cores end up in the run, so a 1→N scaling
//! study reuses the same per-core streams and stays `--jobs`- and
//! permutation-deterministic.
//!
//! Sharing is explicit and tunable. Every operation either targets the
//! *shared* structure (its control block — stack top, queue head/tail —
//! lives at a fixed address every core uses) or a structurally
//! identical *core-private* replica in a disjoint address region. The
//! [`SharedSpec::share_pm`] knob sets the per-mille of shared
//! operations: `0` yields fully address-disjoint traces (no coherence
//! conflicts possible), `1000` maximal contention. Node payloads are
//! always allocated from a per-core slice of the arena, so conflicts
//! come from the control pointers — exactly where a Treiber stack or MS
//! queue serializes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_pmem::{Event, PAddr, SharedTrace, Trace};

/// Base of the shared control region (stack top / queue head+tail).
const SHARED_BASE: u64 = 1 << 24;
/// Base of the shared node arena (per-core disjoint slices).
const ARENA_BASE: u64 = SHARED_BASE + (1 << 20);
/// Arena slots per core (slice stride).
const ARENA_SLOTS: u64 = 1 << 16;
/// Base of the per-core private replicas.
const PRIVATE_BASE: u64 = 1 << 28;
/// Bytes reserved per core for its private replica.
const PRIVATE_STRIDE: u64 = 1 << 22;
/// Cache block size in bytes.
const BLOCK: u64 = 64;

/// Which concurrent persistent structure a trace exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SharedKind {
    /// Treiber-style persistent stack: push/pop serialize on one `top`
    /// pointer block.
    TreiberStack,
    /// Michael-Scott-style persistent queue: enqueue serializes on
    /// `tail`, dequeue on `head`.
    MsQueue,
}

impl SharedKind {
    /// All shared workloads, in report order.
    pub const ALL: [SharedKind; 2] = [SharedKind::TreiberStack, SharedKind::MsQueue];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SharedKind::TreiberStack => "Treiber stack",
            SharedKind::MsQueue => "MS queue",
        }
    }

    /// Stable slug for JSON records.
    pub fn key(self) -> &'static str {
        match self {
            SharedKind::TreiberStack => "treiber-stack",
            SharedKind::MsQueue => "ms-queue",
        }
    }
}

/// Sizing and contention knobs for one shared-workload trace set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedSpec {
    /// Operations per core.
    pub ops_per_core: u64,
    /// Per-mille of operations that target the shared structure
    /// (`0` = fully disjoint, `1000` = every op contends).
    pub share_pm: u32,
    /// RNG seed; each `(kind, core)` derives its own stream from it.
    pub seed: u64,
}

/// Addresses for one structure instance (shared or core-private).
struct Layout {
    /// Stack `top` / queue `head` pointer block.
    head: PAddr,
    /// Queue `tail` pointer block (unused by the stack).
    tail: PAddr,
}

impl Layout {
    fn shared() -> Self {
        Layout {
            head: PAddr::new(SHARED_BASE),
            tail: PAddr::new(SHARED_BASE + BLOCK),
        }
    }

    fn private(core: usize) -> Self {
        let base = PRIVATE_BASE + core as u64 * PRIVATE_STRIDE;
        Layout {
            head: PAddr::new(base),
            tail: PAddr::new(base + BLOCK),
        }
    }
}

/// Generates core `core`'s trace for `kind` under `spec`.
///
/// Deterministic in `(kind, core, spec)` and independent of the number
/// of cores that will run alongside, so scaling studies can grow the
/// core set without perturbing existing streams. The trace is timing-
/// only: multicore runs are never crashed, so the store values are
/// dropped.
pub fn shared_trace(kind: SharedKind, core: usize, spec: &SharedSpec) -> SharedTrace {
    let mut rng = StdRng::seed_from_u64(
        spec.seed
            ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((kind as u64 + 1) << 56),
    );
    let shared = Layout::shared();
    let private = Layout::private(core);
    // Per-core slice of the shared arena: node payloads never conflict,
    // only the control pointers do (as in the real structures, where
    // the CAS on top/tail is the serialization point).
    let arena =
        |op: u64| PAddr::new(ARENA_BASE + (core as u64 * ARENA_SLOTS + op % ARENA_SLOTS) * BLOCK);
    let mut t = Trace::new();
    for op in 0..spec.ops_per_core {
        let contended = rng.gen_range(0..1000u32) < spec.share_pm;
        let lay = if contended { &shared } else { &private };
        let node = arena(op);
        let push = rng.gen_range(0..2u32) == 0;
        match kind {
            SharedKind::TreiberStack => {
                if push {
                    push_op(&mut t, lay.head, node, op);
                } else {
                    pop_op(&mut t, lay.head);
                }
            }
            SharedKind::MsQueue => {
                if push {
                    // Enqueue: link behind `tail`, then swing `tail`.
                    push_op(&mut t, lay.tail, node, op);
                } else {
                    // Dequeue: advance `head`.
                    pop_op(&mut t, lay.head);
                }
            }
        }
        t.push(Event::Compute(rng.gen_range(50..120u32)));
    }
    t.into_shared()
}

/// Insert at a control pointer: initialize the node, persist it, then
/// publish by updating the pointer and persisting that too. Two persist
/// barriers per op (§3.1's pattern), the second publishing the shared
/// word other cores read — the coherence-visible step.
fn push_op(t: &mut Trace, ptr: PAddr, node: PAddr, op: u64) {
    // Read the current pointer (address-dependent: pointer chase).
    t.push(Event::Load {
        addr: ptr,
        size: 8,
        dep: true,
    });
    // node.value = op; node.next = old pointer.
    t.push_store(node, 8, op);
    t.push_store(node.offset(8), 8, op);
    t.push(Event::Clwb { addr: node });
    t.push(Event::Sfence);
    t.push(Event::Pcommit);
    t.push(Event::Sfence);
    // Publish: swing the pointer to the new node.
    t.push_store(ptr, 8, op);
    t.push(Event::Clwb { addr: ptr });
    t.push(Event::Sfence);
    t.push(Event::Pcommit);
    t.push(Event::Sfence);
}

/// Remove at a control pointer: chase it to the head node, then swing
/// the pointer past it and persist. One persist barrier per op.
fn pop_op(t: &mut Trace, ptr: PAddr) {
    t.push(Event::Load {
        addr: ptr,
        size: 8,
        dep: true,
    });
    // Read head.next (the node the pointer will move to).
    t.push(Event::Load {
        addr: ptr.offset(8),
        size: 8,
        dep: true,
    });
    t.push_store(ptr, 8, 0);
    t.push(Event::Clwb { addr: ptr });
    t.push(Event::Sfence);
    t.push(Event::Pcommit);
    t.push(Event::Sfence);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn blocks(t: &SharedTrace) -> HashSet<u64> {
        t.events
            .iter()
            .filter_map(|e| match *e {
                Event::Load { addr, .. } | Event::Store { addr, .. } => Some(addr.block().raw()),
                Event::Clwb { addr } => Some(addr.block().raw()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn traces_are_deterministic_and_core_count_independent() {
        let spec = SharedSpec {
            ops_per_core: 40,
            share_pm: 500,
            seed: 42,
        };
        for kind in SharedKind::ALL {
            let a = shared_trace(kind, 1, &spec);
            let b = shared_trace(kind, 1, &spec);
            assert_eq!(a.events, b.events, "{kind:?} not deterministic");
            assert!(a.counts.pcommits >= spec.ops_per_core);
        }
    }

    #[test]
    fn different_cores_and_seeds_get_different_streams() {
        let spec = SharedSpec {
            ops_per_core: 40,
            share_pm: 500,
            seed: 42,
        };
        let c0 = shared_trace(SharedKind::TreiberStack, 0, &spec);
        let c1 = shared_trace(SharedKind::TreiberStack, 1, &spec);
        assert_ne!(c0.events, c1.events, "cores must not mirror each other");
        let reseeded = shared_trace(
            SharedKind::TreiberStack,
            0,
            &SharedSpec { seed: 43, ..spec },
        );
        assert_ne!(c0.events, reseeded.events);
    }

    #[test]
    fn zero_contention_is_fully_address_disjoint() {
        let spec = SharedSpec {
            ops_per_core: 60,
            share_pm: 0,
            seed: 7,
        };
        for kind in SharedKind::ALL {
            let b0 = blocks(&shared_trace(kind, 0, &spec));
            let b1 = blocks(&shared_trace(kind, 1, &spec));
            assert!(
                b0.is_disjoint(&b1),
                "{kind:?}: disjoint leg must share no blocks"
            );
        }
    }

    #[test]
    fn full_contention_shares_the_control_blocks() {
        let spec = SharedSpec {
            ops_per_core: 60,
            share_pm: 1000,
            seed: 7,
        };
        for kind in SharedKind::ALL {
            let b0 = blocks(&shared_trace(kind, 0, &spec));
            let b1 = blocks(&shared_trace(kind, 1, &spec));
            let shared: Vec<_> = b0.intersection(&b1).collect();
            assert!(
                !shared.is_empty(),
                "{kind:?}: contended leg must share control blocks"
            );
        }
    }
}
