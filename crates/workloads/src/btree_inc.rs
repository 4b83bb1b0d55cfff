//! BT-inc: the B-tree with *incremental logging* — the design
//! alternative of §3.2 (Fig. 4) that the paper describes and rejects.
//!
//! Instead of pessimistically undo-logging the whole root-to-leaf path
//! up front (full logging, one set of four persist barriers per
//! operation), incremental logging "breaks rebalancing into multiple
//! steps, where in each step we log as few nodes as needed": every
//! preemptive split / borrow / merge — and the final leaf update — runs
//! as its own write-ahead-logging transaction with its own
//! `sfence-pcommit-sfence` barriers.
//!
//! Consequences, exactly as the paper argues:
//!
//! * only the nodes a step actually modifies are logged (cheap logging);
//! * but an operation that rebalances issues one *set of four pcommits
//!   per step* instead of one per operation (expensive ordering);
//! * a crash can land between steps — each step preserves the B-tree
//!   invariants, so recovery yields a *valid* tree in which the
//!   in-flight key simply is not yet inserted (or not yet removed).
//!
//! Only the logging policy differs from [`BTree`]: an [`IncBTree`]
//! wraps one for its layout, population and verification, and runs
//! BT's own split, root growth and borrow/merge inside its per-step
//! transactions. The `repro incremental` ablation records it from BT's
//! cached population ([`IncBTree::record_trace`]) and compares it with
//! BT's full logging.

use std::any::Any;

use rand::rngs::StdRng;
use spp_pmem::{PAddr, PmemEnv, SharedTrace, Space, Trace};

use crate::btree::{self, BTree, Node};
use crate::spec::BenchId;
use crate::staged::Staged;
use crate::{OpOutcome, TraceSpec, VerifyError, VerifySummary, Workload};

/// Reads a node through plain (untransactional) loads — the descent
/// between incremental steps.
fn read_node(env: &mut PmemEnv, addr: PAddr) -> Node {
    let hdr = env.load_ptr(addr.offset(btree::HDR)).raw(); // dependent: pointer chase
    let leaf = hdr & btree::LEAF_FLAG != 0;
    let n = (hdr & 0xFF) as usize;
    let mut keys = Vec::with_capacity(3);
    for i in 0..n {
        keys.push(env.load_u64(addr.offset(btree::KEYS + 8 * i as u64)));
    }
    let nslots = if leaf { n } else { n + 1 };
    let base = if leaf { btree::VALUES } else { btree::CHILDREN };
    let mut slots = Vec::with_capacity(4);
    for i in 0..nslots {
        slots.push(env.load_u64(addr.offset(base + 8 * i as u64)));
    }
    env.compute(n as u32 + 2);
    Node {
        addr,
        leaf,
        keys,
        slots,
    }
}

/// The BT benchmark with incremental logging.
#[derive(Debug, Default, Clone)]
pub struct IncBTree {
    /// The tree's header and key range, population and verification.
    bt: BTree,
    /// Barrier-step counter (diagnostics: steps per operation).
    steps: u64,
}

impl IncBTree {
    /// Creates an uninitialized benchmark; call
    /// [`setup`](Workload::setup) first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records BT's trace under `ts` with incremental logging. The tree
    /// is BT's population from the setup cache, exactly as
    /// [`record_trace`](crate::record_trace) takes it; only the measured
    /// operations run in per-step transactions.
    ///
    /// # Panics
    ///
    /// Panics if `ts.spec.id` is not [`BenchId::BTree`] or the final
    /// tree fails verification.
    pub fn record_trace(ts: &TraceSpec) -> SharedTrace {
        Self::record(ts).into_shared()
    }

    /// [`record_trace`](Self::record_trace) before its store values are
    /// dropped.
    fn record(ts: &TraceSpec) -> Trace {
        crate::record(ts, |w| {
            let bt = (w as Box<dyn Any>)
                .downcast::<BTree>()
                .expect("incremental logging runs on BT");
            Box::new(IncBTree { bt: *bt, steps: 0 })
        })
    }

    /// Write-ahead-logging steps executed so far (each one is a full
    /// four-barrier transaction).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn root(&self, env: &mut PmemEnv) -> PAddr {
        env.load_ptr(self.bt.header.offset(btree::ROOT))
    }

    /// One incremental step: `build` runs inside its own transaction.
    fn step(&mut self, env: &mut PmemEnv, op_id: u64, build: impl FnOnce(&mut Staged<'_>)) {
        let id = op_id | (self.steps << 32);
        self.steps += 1;
        let mut tx = Staged::begin(env, id);
        build(&mut tx);
        tx.finish();
    }

    /// Splits the full child at `child_idx` of `parent` in one step.
    fn split_step(&mut self, env: &mut PmemEnv, op_id: u64, parent: PAddr, child_idx: usize) {
        self.step(env, op_id, |tx| {
            let mut p = Node::load(tx, parent);
            tx.note_path(p.addr);
            let mut c = Node::load(tx, PAddr::new(p.slots[child_idx]));
            tx.note_path(c.addr);
            BTree::split_child(tx, &mut p, child_idx, &mut c);
        });
    }

    /// Grows a full root in one step.
    fn grow_root_step(&mut self, env: &mut PmemEnv, op_id: u64) {
        let header = self.bt.header;
        let old_root = self.root(env);
        self.step(env, op_id, |tx| {
            tx.note_path(header);
            let mut root = Node::load(tx, old_root);
            tx.note_path(root.addr);
            BTree::grow_root(tx, header, &mut root);
        });
    }

    /// An operation's final step: `edit` changes the leaf at `leaf`,
    /// and the size field follows its key count in the same
    /// transaction, so the key and the size publish together.
    fn leaf_step(
        &mut self,
        env: &mut PmemEnv,
        op_id: u64,
        leaf: PAddr,
        edit: impl FnOnce(&mut Node),
    ) {
        let header = self.bt.header;
        self.step(env, op_id, |tx| {
            let mut node = Node::load(tx, leaf);
            tx.note_path(node.addr);
            tx.note_path(header);
            let before = node.nkeys();
            edit(&mut node);
            node.store(tx);
            let size = tx.read(header.offset(btree::SIZE));
            tx.write(header.offset(btree::SIZE), size + node.nkeys() - before);
        });
    }

    /// Inserts `key` (absent) via per-step transactions.
    fn insert(&mut self, env: &mut PmemEnv, key: u64, op_id: u64) {
        let root = self.root(env);
        if read_node(env, root).nkeys() == btree::MAX_KEYS {
            self.grow_root_step(env, op_id);
        }
        let mut n = self.root(env);
        loop {
            let node = read_node(env, n);
            if node.leaf {
                self.leaf_step(env, op_id, n, |leaf| {
                    let pos = leaf.slot_for(key);
                    leaf.keys.insert(pos, key);
                    leaf.slots.insert(pos, btree::value_for(key));
                });
                return;
            }
            let idx = node.slot_for(key);
            let child = read_node(env, PAddr::new(node.slots[idx]));
            if child.nkeys() == btree::MAX_KEYS {
                self.split_step(env, op_id, n, idx);
                // Re-read the parent: the separator set changed.
                continue;
            }
            n = child.addr;
        }
    }

    /// One borrow-or-merge fix of `parent.slots[idx]` in its own step.
    /// Returns the address of the child that now covers the key range.
    fn fix_step(&mut self, env: &mut PmemEnv, op_id: u64, parent: PAddr, idx: usize) -> PAddr {
        let header = self.bt.header;
        let mut result = PAddr::NULL;
        self.step(env, op_id, |tx| {
            let mut p = Node::load(tx, parent);
            let child = PAddr::new(p.slots[idx]);
            let nkeys = p.nkeys();
            let (covering, sibling) = BTree::fix_child(tx, &mut p, idx);
            debug_assert!(!sibling.is_null(), "fix_step on a child that needed no fix");
            for addr in [p.addr, child, sibling] {
                tx.note_path(addr);
            }
            result = covering.addr;
            // A merge that empties the root hands off in the same step.
            if p.nkeys() < nkeys
                && p.addr == PAddr::new(tx.read(header.offset(btree::ROOT)))
                && p.keys.is_empty()
            {
                tx.note_path(header);
                tx.write_ptr(header.offset(btree::ROOT), result);
            }
        });
        result
    }

    /// Deletes `key` (present) via per-step transactions.
    fn delete(&mut self, env: &mut PmemEnv, key: u64, op_id: u64) {
        let mut n = self.root(env);
        loop {
            let node = read_node(env, n);
            if node.leaf {
                self.leaf_step(env, op_id, n, |leaf| {
                    let pos = leaf
                        .keys
                        .iter()
                        .position(|&k| k == key)
                        .expect("key present");
                    leaf.keys.remove(pos);
                    leaf.slots.remove(pos);
                });
                return;
            }
            let idx = node.slot_for(key);
            let child = read_node(env, PAddr::new(node.slots[idx]));
            n = if child.nkeys() <= btree::MIN_KEYS {
                self.fix_step(env, op_id, n, idx)
            } else {
                child.addr
            };
        }
    }

    /// One insert-or-delete operation on `key`.
    fn op(&mut self, env: &mut PmemEnv, key: u64, op_id: u64) -> OpOutcome {
        // Plain search (no transaction — reads need no failure safety).
        let mut n = self.root(env);
        let found = loop {
            let node = read_node(env, n);
            if node.leaf {
                break node.keys.contains(&key);
            }
            n = PAddr::new(node.slots[node.slot_for(key)]);
        };
        if found {
            self.delete(env, key, op_id);
            OpOutcome::Deleted(key)
        } else {
            self.insert(env, key, op_id);
            OpOutcome::Inserted(key)
        }
    }
}

impl Workload for IncBTree {
    fn id(&self) -> BenchId {
        BenchId::BTree
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    /// Populates through BT's full-logging operations: the tree the
    /// setup cache holds for BT.
    fn setup(&mut self, env: &mut PmemEnv, rng: &mut StdRng, init_ops: u64) {
        self.bt.setup(env, rng, init_ops);
    }

    fn run_op(&mut self, env: &mut PmemEnv, rng: &mut StdRng, op_id: u64) -> OpOutcome {
        let key = self.bt.pick_key(rng);
        self.op(env, key, op_id)
    }

    fn verify(&self, space: &Space) -> Result<VerifySummary, VerifyError> {
        self.bt.verify(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spp_pmem::{recover, CrashTrace, Variant};
    use std::collections::BTreeSet;

    fn fresh(variant: Variant) -> (PmemEnv, IncBTree) {
        let mut env = PmemEnv::new(variant);
        let mut rng = StdRng::seed_from_u64(0);
        let mut bt = IncBTree::new();
        bt.setup(&mut env, &mut rng, 0);
        bt.bt.key_range = u64::MAX;
        (env, bt)
    }

    #[test]
    fn oracle_agreement_random_ops() {
        for v in Variant::ALL {
            let mut env = PmemEnv::new(v);
            let mut rng = StdRng::seed_from_u64(5);
            let mut bt = IncBTree::new();
            env.set_recording(false);
            bt.setup(&mut env, &mut rng, 200);
            let mut oracle: BTreeSet<u64> =
                bt.verify(env.space()).unwrap().keys.into_iter().collect();
            for op in 0..400 {
                match bt.run_op(&mut env, &mut rng, op) {
                    OpOutcome::Inserted(k) => assert!(oracle.insert(k)),
                    OpOutcome::Deleted(k) => assert!(oracle.remove(&k)),
                    _ => unreachable!(),
                }
                if op % 16 == 0 {
                    let s = bt.verify(env.space()).unwrap();
                    let got: BTreeSet<u64> = s.keys.into_iter().collect();
                    assert_eq!(got, oracle, "{v} diverged at op {op}");
                }
            }
        }
    }

    #[test]
    fn rebalancing_ops_take_multiple_steps() {
        let (mut env, mut bt) = fresh(Variant::LogPSf);
        env.set_recording(false);
        for k in 0..64 {
            bt.op(&mut env, k, k);
        }
        bt.steps = 0;
        env.set_recording(true);
        // Ascending inserts into a full rightmost spine force splits:
        // some op must take more than one step.
        for k in 64..96 {
            bt.op(&mut env, k, k);
        }
        assert!(
            bt.steps > 32,
            "expected split steps beyond the leaf steps, got {}",
            bt.steps
        );
        // And each step carries its own 4 pcommits.
        assert_eq!(env.trace().counts.pcommits, bt.steps * 4);
    }

    #[test]
    fn incremental_logs_fewer_blocks_but_more_pcommits() {
        use crate::btree::BTree;
        // Same op stream on both variants; compare trace shapes.
        let run = |full: bool| {
            let mut env = PmemEnv::new(Variant::LogPSf);
            let mut rng = StdRng::seed_from_u64(77);
            env.set_recording(false);
            if full {
                let mut t = BTree::new();
                t.setup(&mut env, &mut rng, 300);
                env.set_recording(true);
                for op in 0..50 {
                    t.run_op(&mut env, &mut rng, op);
                }
            } else {
                let mut t = IncBTree::new();
                t.setup(&mut env, &mut rng, 300);
                env.set_recording(true);
                for op in 0..50 {
                    t.run_op(&mut env, &mut rng, op);
                }
            }
            env.take_trace().counts
        };
        let full = run(true);
        let inc = run(false);
        assert!(
            inc.pcommits >= full.pcommits,
            "incremental must issue at least as many pcommits ({} vs {})",
            inc.pcommits,
            full.pcommits
        );
        // Full logging copies far more old data into the log.
        assert!(
            full.stores > inc.stores,
            "full logging should write more log data ({} vs {})",
            full.stores,
            inc.stores
        );
    }

    #[test]
    fn crash_between_steps_leaves_a_valid_tree() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let mut rng = StdRng::seed_from_u64(9);
        let mut bt = IncBTree::new();
        env.set_recording(false);
        bt.setup(&mut env, &mut rng, 120);
        env.set_recording(true);
        let base = env.snapshot();
        let before: BTreeSet<u64> = bt.verify(env.space()).unwrap().keys.into_iter().collect();
        let mut states = vec![before];
        for op in 0..8 {
            let mut cur = states.last().unwrap().clone();
            match bt.run_op(&mut env, &mut rng, op) {
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
        let trace = CrashTrace::new(base, env.take_trace());
        for i in 0..48 {
            let crash = trace.events().len() * i / 47;
            let mut img = trace.at(crash).image_guaranteed_only();
            recover(&mut img, &layout);
            // The tree must be structurally valid at EVERY point
            // (incremental steps preserve invariants)...
            let s = bt
                .verify(&img)
                .unwrap_or_else(|e| panic!("crash at {crash}: {e}"));
            // ...and its key set must match some operation prefix
            // (splits don't change the key set; only the final leaf
            // step does).
            let got: BTreeSet<u64> = s.keys.into_iter().collect();
            assert!(
                states.contains(&got),
                "crash at {crash}: state matches no prefix"
            );
        }
    }

    /// Pins the incremental trace, events and store values, at a
    /// mid-size point and a drain-heavy one (merges and root shrinks).
    #[test]
    fn incremental_trace_is_pinned() {
        use crate::spec::BenchSpec;
        use crate::testutil::record_uncached;
        use crate::TraceSpec;
        use spp_pmem::hash64;
        let points = [
            (4800, 300, 0x5EED, 0xc447_32f9_aa2a_8021),
            (16, 3000, 9, 0x1979_96c8_101a_1dd1),
        ];
        for (init_ops, sim_ops, seed, want) in points {
            let spec = BenchSpec {
                id: BenchId::BTree,
                init_ops,
                sim_ops,
            };
            let ts = TraceSpec::new(Variant::LogPSf, spec, seed);
            let t = record_uncached(Box::new(IncBTree::new()), &ts);
            let mut bytes = Vec::new();
            for e in &t.events {
                bytes.extend_from_slice(format!("{e:?}\n").as_bytes());
            }
            for &v in &t.values {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            let h = hash64(&bytes);
            assert_eq!(
                h, want,
                "({init_ops}, {sim_ops}, {seed:#x}): digest {h:#018x}"
            );
        }
    }

    /// `record_trace` takes BT's population from the setup cache (under
    /// `Variant::Base`); that must record exactly the events and store
    /// values of a fresh population under the real variant and flush
    /// mode, the drain-heavy pinned point included.
    #[test]
    fn cached_population_records_the_uncached_trace() {
        use crate::spec::BenchSpec;
        use crate::testutil::record_uncached;
        use crate::TraceSpec;
        use spp_pmem::FlushMode;
        let drain = BenchSpec {
            id: BenchId::BTree,
            init_ops: 16,
            sim_ops: 3000,
        };
        let mut specs = vec![TraceSpec::new(Variant::LogPSf, drain, 9)];
        for variant in Variant::ALL {
            for flush_mode in FlushMode::ALL {
                for seed in [1, 0x5EED] {
                    specs.push(TraceSpec {
                        variant,
                        spec: BenchSpec::scaled(BenchId::BTree, 2500),
                        seed,
                        flush_mode,
                    });
                }
            }
        }
        for ts in specs {
            let cached = IncBTree::record(&ts);
            let uncached = record_uncached(Box::new(IncBTree::new()), &ts);
            assert!(cached.events == uncached.events, "{ts:?}: events diverged");
            assert!(cached.values == uncached.values, "{ts:?}: values diverged");
        }
    }

    #[test]
    fn drain_and_refill() {
        let (mut env, mut bt) = fresh(Variant::LogPSf);
        for k in 0..48 {
            bt.op(&mut env, k, k);
        }
        for k in 0..48 {
            assert_eq!(bt.op(&mut env, k, 100 + k), OpOutcome::Deleted(k));
            bt.verify(env.space()).unwrap();
        }
        assert_eq!(bt.verify(env.space()).unwrap().size, 0);
    }
}
