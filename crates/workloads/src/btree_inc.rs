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
//! The `repro incremental` ablation quantifies the trade-off against
//! [`BTree`](crate::btree::BTree)'s full logging.

use rand::rngs::StdRng;
use rand::Rng;
use spp_pmem::{PAddr, PmemEnv, Space};

use crate::btree::{self, Node};
use crate::spec::BenchId;
use crate::staged::Staged;
use crate::{OpOutcome, VerifyError, VerifySummary, Workload};

const MAX_KEYS: u64 = btree::MAX_KEYS;
const MIN_KEYS: u64 = 1;

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
    header: PAddr,
    key_range: u64,
    /// Barrier-step counter (diagnostics: steps per operation).
    steps: u64,
}

impl IncBTree {
    /// Creates an uninitialized benchmark; call
    /// [`setup`](Workload::setup) first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write-ahead-logging steps executed so far (each one is a full
    /// four-barrier transaction).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn root(&self, env: &mut PmemEnv) -> PAddr {
        env.load_ptr(self.header.offset(btree::ROOT))
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
            debug_assert_eq!(c.nkeys(), MAX_KEYS);
            let mut right = Node {
                addr: tx.alloc_block(),
                leaf: c.leaf,
                keys: Vec::new(),
                slots: Vec::new(),
            };
            let sep = if c.leaf {
                right.keys = c.keys.split_off(1);
                right.slots = c.slots.split_off(1);
                right.keys[0]
            } else {
                right.keys = c.keys.split_off(2);
                right.slots = c.slots.split_off(2);
                c.keys.pop().expect("middle key")
            };
            p.keys.insert(child_idx, sep);
            p.slots.insert(child_idx + 1, right.addr.raw());
            c.store(tx);
            right.store(tx);
            p.store(tx);
        });
    }

    /// Grows a full root in one step.
    fn grow_root_step(&mut self, env: &mut PmemEnv, op_id: u64) {
        let header = self.header;
        let old_root = self.root(env);
        self.step(env, op_id, |tx| {
            tx.note_path(header);
            let mut root = Node::load(tx, old_root);
            tx.note_path(root.addr);
            let mut new_root = Node {
                addr: tx.alloc_block(),
                leaf: false,
                keys: Vec::new(),
                slots: Vec::new(),
            };
            new_root.slots.push(root.addr.raw());
            // Inline split of child 0 of the fresh root.
            let mut right = Node {
                addr: tx.alloc_block(),
                leaf: root.leaf,
                keys: Vec::new(),
                slots: Vec::new(),
            };
            let sep = if root.leaf {
                right.keys = root.keys.split_off(1);
                right.slots = root.slots.split_off(1);
                right.keys[0]
            } else {
                right.keys = root.keys.split_off(2);
                right.slots = root.slots.split_off(2);
                root.keys.pop().expect("middle key")
            };
            new_root.keys.push(sep);
            new_root.slots.push(right.addr.raw());
            root.store(tx);
            right.store(tx);
            new_root.store(tx);
            tx.write_ptr(header.offset(btree::ROOT), new_root.addr);
        });
    }

    /// Inserts `key` (absent) via per-step transactions.
    fn insert(&mut self, env: &mut PmemEnv, key: u64, op_id: u64) {
        let root = self.root(env);
        let root_node = read_node(env, root);
        if root_node.nkeys() == MAX_KEYS {
            self.grow_root_step(env, op_id);
        }
        let mut n = self.root(env);
        loop {
            let node = read_node(env, n);
            if node.leaf {
                // Final step: the leaf insert publishes the key and the
                // size together.
                let header = self.header;
                self.step(env, op_id, |tx| {
                    let mut leaf = Node::load(tx, n);
                    tx.note_path(leaf.addr);
                    tx.note_path(header);
                    let pos = leaf
                        .keys
                        .iter()
                        .position(|&k| key < k)
                        .unwrap_or(leaf.keys.len());
                    leaf.keys.insert(pos, key);
                    leaf.slots.insert(pos, btree::value_for(key));
                    leaf.store(tx);
                    let size = tx.read(header.offset(btree::SIZE));
                    tx.write(header.offset(btree::SIZE), size + 1);
                });
                return;
            }
            let idx = node
                .keys
                .iter()
                .position(|&k| key < k)
                .unwrap_or(node.keys.len());
            let child = read_node(env, PAddr::new(node.slots[idx]));
            if child.nkeys() == MAX_KEYS {
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
        let header = self.header;
        let mut result = PAddr::NULL;
        self.step(env, op_id, |tx| {
            let mut p = Node::load(tx, parent);
            tx.note_path(p.addr);
            let mut child = Node::load(tx, PAddr::new(p.slots[idx]));
            tx.note_path(child.addr);
            // Borrow from the left sibling.
            if idx > 0 {
                let mut left = Node::load(tx, PAddr::new(p.slots[idx - 1]));
                if left.nkeys() > MIN_KEYS {
                    tx.note_path(left.addr);
                    if child.leaf {
                        let k = left.keys.pop().expect("donor");
                        let v = left.slots.pop().expect("donor");
                        child.keys.insert(0, k);
                        child.slots.insert(0, v);
                        p.keys[idx - 1] = child.keys[0];
                    } else {
                        let k = left.keys.pop().expect("donor");
                        let c = left.slots.pop().expect("donor");
                        child.keys.insert(0, p.keys[idx - 1]);
                        child.slots.insert(0, c);
                        p.keys[idx - 1] = k;
                    }
                    left.store(tx);
                    child.store(tx);
                    p.store(tx);
                    result = child.addr;
                    return;
                }
            }
            // Borrow from the right sibling.
            if idx < p.slots.len() - 1 {
                let mut right = Node::load(tx, PAddr::new(p.slots[idx + 1]));
                if right.nkeys() > MIN_KEYS {
                    tx.note_path(right.addr);
                    if child.leaf {
                        let k = right.keys.remove(0);
                        let v = right.slots.remove(0);
                        child.keys.push(k);
                        child.slots.push(v);
                        p.keys[idx] = right.keys[0];
                    } else {
                        let k = right.keys.remove(0);
                        let c = right.slots.remove(0);
                        child.keys.push(p.keys[idx]);
                        child.slots.push(c);
                        p.keys[idx] = k;
                    }
                    right.store(tx);
                    child.store(tx);
                    p.store(tx);
                    result = child.addr;
                    return;
                }
            }
            // Merge.
            if idx > 0 {
                let mut left = Node::load(tx, PAddr::new(p.slots[idx - 1]));
                tx.note_path(left.addr);
                let sep = p.keys.remove(idx - 1);
                p.slots.remove(idx);
                if !child.leaf {
                    left.keys.push(sep);
                }
                left.keys.append(&mut child.keys);
                left.slots.append(&mut child.slots);
                left.store(tx);
                p.store(tx);
                result = left.addr;
            } else {
                let mut right = Node::load(tx, PAddr::new(p.slots[idx + 1]));
                tx.note_path(right.addr);
                let sep = p.keys.remove(idx);
                p.slots.remove(idx + 1);
                if !child.leaf {
                    child.keys.push(sep);
                }
                child.keys.append(&mut right.keys);
                child.slots.append(&mut right.slots);
                child.store(tx);
                p.store(tx);
                result = child.addr;
            }
            // Root shrink is published in the same step (the merge that
            // empties the root must atomically hand off).
            if p.addr == PAddr::new(tx.read(header.offset(btree::ROOT))) && p.keys.is_empty() {
                tx.note_path(header);
                tx.write_ptr(header.offset(btree::ROOT), result);
            }
        });
        debug_assert!(!result.is_null());
        result
    }

    /// Deletes `key` (present) via per-step transactions.
    fn delete(&mut self, env: &mut PmemEnv, key: u64, op_id: u64) {
        let mut n = self.root(env);
        loop {
            let node = read_node(env, n);
            if node.leaf {
                let header = self.header;
                self.step(env, op_id, |tx| {
                    let mut leaf = Node::load(tx, n);
                    tx.note_path(leaf.addr);
                    tx.note_path(header);
                    let pos = leaf
                        .keys
                        .iter()
                        .position(|&k| k == key)
                        .expect("key present");
                    leaf.keys.remove(pos);
                    leaf.slots.remove(pos);
                    leaf.store(tx);
                    let size = tx.read(header.offset(btree::SIZE));
                    tx.write(header.offset(btree::SIZE), size - 1);
                });
                return;
            }
            let idx = node
                .keys
                .iter()
                .position(|&k| key < k)
                .unwrap_or(node.keys.len());
            let child = read_node(env, PAddr::new(node.slots[idx]));
            if child.nkeys() <= MIN_KEYS {
                n = self.fix_step(env, op_id, n, idx);
            } else {
                n = child.addr;
            }
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
            let idx = node
                .keys
                .iter()
                .position(|&k| key < k)
                .unwrap_or(node.keys.len());
            n = PAddr::new(node.slots[idx]);
        };
        if found {
            self.delete(env, key, op_id);
            OpOutcome::Deleted(key)
        } else {
            self.insert(env, key, op_id);
            OpOutcome::Inserted(key)
        }
    }

    fn pick_key(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.key_range)
    }
}

impl Workload for IncBTree {
    fn id(&self) -> BenchId {
        BenchId::BTree
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn setup(&mut self, env: &mut PmemEnv, rng: &mut StdRng, init_ops: u64) {
        self.key_range = (2 * init_ops).max(16);
        self.header = env.alloc_block();
        let root = env.alloc_block();
        env.store_u64(root.offset(btree::HDR), btree::LEAF_FLAG);
        env.store_ptr(self.header.offset(btree::ROOT), root);
        env.store_u64(self.header.offset(btree::SIZE), 0);
        env.set_root(btree::ROOT_SLOT, self.header);
        for op in 0..init_ops {
            let key = self.pick_key(rng);
            self.op(env, key, u64::MAX - op);
        }
        self.steps = 0;
    }

    fn run_op(&mut self, env: &mut PmemEnv, rng: &mut StdRng, op_id: u64) -> OpOutcome {
        let key = self.pick_key(rng);
        self.op(env, key, op_id)
    }

    fn verify(&self, space: &Space) -> Result<VerifySummary, VerifyError> {
        // Identical layout and invariants as the full-logging B-tree.
        let h = PAddr::new(space.read_u64(PmemEnv::root_addr(btree::ROOT_SLOT)));
        let root = PAddr::new(space.read_u64(h.offset(btree::ROOT)));
        let mut keys = Vec::new();
        btree::BTree::verify_rec(space, root, None, None, true, &mut keys)?;
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VerifyError::new("BT-inc: leaf scan not strictly sorted"));
        }
        let size = space.read_u64(h.offset(btree::SIZE));
        if keys.len() as u64 != size {
            return Err(VerifyError::new(format!(
                "BT-inc: size field {size} != key count {}",
                keys.len()
            )));
        }
        Ok(VerifySummary { keys, size })
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
        bt.key_range = u64::MAX;
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
