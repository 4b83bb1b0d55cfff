//! BT: a persistent B-tree with full logging (§3.2).
//!
//! Like the paper's 2-3 B-tree example (Figs. 4-5), data lives in the
//! leaves and non-leaf nodes hold separator keys. Each 64-byte node
//! holds up to 3 keys with 4 children (internal) or 3 key/value pairs
//! (leaf) — a 2-3-4 tree. Inserts split full nodes preemptively on the
//! way down; deletes preemptively borrow from or merge with siblings, so
//! both directions finish in a single root-to-leaf pass.
//!
//! Full logging logs every node on the path *and all of its children*
//! (splits touch the path, borrows and merges touch siblings), which is
//! why BT pays the heaviest logging cost of the suite (Fig. 8's 95%).

use rand::rngs::StdRng;
use rand::Rng;
use spp_pmem::{PAddr, PmemEnv, Space};

use crate::spec::BenchId;
use crate::staged::Staged;
use crate::{OpOutcome, VerifyError, VerifySummary, Workload};

/// Maximum keys per node (order-4 / 2-3-4 tree).
pub const MAX_KEYS: u64 = 3;
pub(crate) const MIN_KEYS: u64 = 1;

// Node layout (one 64-byte block).
// header: low byte = nkeys, bit 8 = leaf flag.
pub(crate) const HDR: u64 = 0;
pub(crate) const KEYS: u64 = 8; // 3 x u64 at 8, 16, 24
pub(crate) const CHILDREN: u64 = 32; // internal: 4 x u64 at 32, 40, 48, 56
pub(crate) const VALUES: u64 = 32; // leaf: 3 x u64 at 32, 40, 48

pub(crate) const LEAF_FLAG: u64 = 1 << 8;

// Header block layout.
pub(crate) const ROOT: u64 = 0;
pub(crate) const SIZE: u64 = 8;

pub(crate) const ROOT_SLOT: usize = 0;

pub(crate) fn value_for(key: u64) -> u64 {
    key.wrapping_mul(0x0F0F_F0F0_1234_5679) ^ 0xB7
}

/// The BT benchmark: 2-3-4 B+tree with full-logging WAL transactions.
#[derive(Debug, Default, Clone)]
pub struct BTree {
    pub(crate) header: PAddr,
    pub(crate) key_range: u64,
}

/// A volatile view of one node, read once and written back field by
/// field (models keeping the node in registers while editing).
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) addr: PAddr,
    pub(crate) leaf: bool,
    pub(crate) keys: Vec<u64>,
    /// Children (internal) or values (leaf).
    pub(crate) slots: Vec<u64>,
}

impl Node {
    pub(crate) fn load(tx: &mut Staged<'_>, addr: PAddr) -> Node {
        // First touch of the node: part of the pointer chain.
        let hdr = tx.read_dep(addr.offset(HDR));
        let leaf = hdr & LEAF_FLAG != 0;
        let n = (hdr & 0xFF) as usize;
        let mut keys = Vec::with_capacity(3);
        for i in 0..n {
            keys.push(tx.read(addr.offset(KEYS + 8 * i as u64)));
        }
        let mut slots = Vec::with_capacity(4);
        let nslots = if leaf { n } else { n + 1 };
        let base = if leaf { VALUES } else { CHILDREN };
        for i in 0..nslots {
            slots.push(tx.read(addr.offset(base + 8 * i as u64)));
        }
        Node {
            addr,
            leaf,
            keys,
            slots,
        }
    }

    pub(crate) fn store(&self, tx: &mut Staged<'_>) {
        let hdr = self.keys.len() as u64 | if self.leaf { LEAF_FLAG } else { 0 };
        tx.write(self.addr.offset(HDR), hdr);
        for (i, &k) in self.keys.iter().enumerate() {
            tx.write(self.addr.offset(KEYS + 8 * i as u64), k);
        }
        let base = if self.leaf { VALUES } else { CHILDREN };
        for (i, &s) in self.slots.iter().enumerate() {
            tx.write(self.addr.offset(base + 8 * i as u64), s);
        }
    }

    pub(crate) fn nkeys(&self) -> u64 {
        self.keys.len() as u64
    }

    /// The slot of the first key above `key`: in an internal node the
    /// child whose range covers `key`, in a leaf where `key` would go.
    pub(crate) fn slot_for(&self, key: u64) -> usize {
        self.keys
            .iter()
            .position(|&k| key < k)
            .unwrap_or(self.keys.len())
    }
}

impl BTree {
    /// Creates an uninitialized benchmark; call
    /// [`setup`](Workload::setup) first.
    pub fn new() -> Self {
        Self::default()
    }

    fn new_node(tx: &mut Staged<'_>, leaf: bool) -> Node {
        Node {
            addr: tx.alloc_block(),
            leaf,
            keys: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Does the tree contain `key`? (The op's initial search walk; logs
    /// the full path pessimistically as it goes: every path node plus
    /// the descent child's adjacent siblings, which borrows and merges
    /// write.)
    fn contains(&self, tx: &mut Staged<'_>, key: u64) -> bool {
        let mut n = tx.read_ptr(self.header.offset(ROOT));
        loop {
            let node = Node::load(tx, n);
            tx.note_path(node.addr);
            tx.compute(node.nkeys() as u32 * 2 + 2);
            if node.leaf {
                return node.keys.contains(&key);
            }
            let idx = node.slot_for(key);
            if idx > 0 {
                tx.log_extra(PAddr::new(node.slots[idx - 1]));
            }
            if idx + 1 < node.slots.len() {
                tx.log_extra(PAddr::new(node.slots[idx + 1]));
            }
            n = PAddr::new(node.slots[idx]);
        }
    }

    /// Splits the full child at `child_idx` of `parent`. Both nodes and
    /// the new sibling are written back.
    pub(crate) fn split_child(
        tx: &mut Staged<'_>,
        parent: &mut Node,
        child_idx: usize,
        child: &mut Node,
    ) {
        debug_assert_eq!(child.nkeys(), MAX_KEYS);
        let mut right = Self::new_node(tx, child.leaf);
        let sep = if child.leaf {
            // Leaf split: right half moves, separator is copied up
            // (B+tree style: the key stays in the leaf).
            right.keys = child.keys.split_off(1);
            right.slots = child.slots.split_off(1);
            right.keys[0]
        } else {
            // Internal split: the middle key moves up.
            right.keys = child.keys.split_off(2);
            right.slots = child.slots.split_off(2);
            child.keys.pop().expect("middle key")
        };
        parent.keys.insert(child_idx, sep);
        parent.slots.insert(child_idx + 1, right.addr.raw());
        child.store(tx);
        right.store(tx);
        parent.store(tx);
    }

    /// Grows the full `root`: a new root with `root` as its only child,
    /// which is split at once, published at `header`. Returns the new
    /// root.
    pub(crate) fn grow_root(tx: &mut Staged<'_>, header: PAddr, root: &mut Node) -> Node {
        let mut new_root = Self::new_node(tx, false);
        new_root.slots.push(root.addr.raw());
        Self::split_child(tx, &mut new_root, 0, root);
        tx.write_ptr(header.offset(ROOT), new_root.addr);
        new_root
    }

    /// Inserts `key` (must be absent). Single preemptive-split descent.
    fn insert(&self, tx: &mut Staged<'_>, key: u64) {
        let root_addr = tx.read_ptr(self.header.offset(ROOT));
        let mut node = Node::load(tx, root_addr);
        if node.nkeys() == MAX_KEYS {
            node = Self::grow_root(tx, self.header, &mut node);
        }
        loop {
            tx.compute(node.nkeys() as u32);
            if node.leaf {
                let pos = node.slot_for(key);
                node.keys.insert(pos, key);
                node.slots.insert(pos, value_for(key));
                node.store(tx);
                return;
            }
            let idx = node.slot_for(key);
            let mut child = Node::load(tx, PAddr::new(node.slots[idx]));
            if child.nkeys() == MAX_KEYS {
                Self::split_child(tx, &mut node, idx, &mut child);
                // Re-pick which side of the new separator to descend.
                let idx = node.slot_for(key);
                node = Node::load(tx, PAddr::new(node.slots[idx]));
            } else {
                node = child;
            }
        }
    }

    /// Ensures `parent.slots[idx]` has more than `MIN_KEYS` keys before
    /// descent, borrowing from a sibling or merging. Returns the
    /// (possibly different) child to descend into and the sibling it
    /// borrowed from or merged with (`PAddr::NULL` if it needed
    /// neither).
    pub(crate) fn fix_child(tx: &mut Staged<'_>, parent: &mut Node, idx: usize) -> (Node, PAddr) {
        let mut child = Node::load(tx, PAddr::new(parent.slots[idx]));
        if child.nkeys() > MIN_KEYS {
            return (child, PAddr::NULL);
        }
        // Try borrowing from the left sibling.
        if idx > 0 {
            let mut left = Node::load(tx, PAddr::new(parent.slots[idx - 1]));
            if left.nkeys() > MIN_KEYS {
                if child.leaf {
                    let k = left.keys.pop().expect("donor key");
                    let v = left.slots.pop().expect("donor value");
                    child.keys.insert(0, k);
                    child.slots.insert(0, v);
                    parent.keys[idx - 1] = child.keys[0];
                } else {
                    let k = left.keys.pop().expect("donor key");
                    let c = left.slots.pop().expect("donor child");
                    child.keys.insert(0, parent.keys[idx - 1]);
                    child.slots.insert(0, c);
                    parent.keys[idx - 1] = k;
                }
                left.store(tx);
                child.store(tx);
                parent.store(tx);
                return (child, left.addr);
            }
        }
        // Try borrowing from the right sibling.
        if idx < parent.slots.len() - 1 {
            let mut right = Node::load(tx, PAddr::new(parent.slots[idx + 1]));
            if right.nkeys() > MIN_KEYS {
                if child.leaf {
                    let k = right.keys.remove(0);
                    let v = right.slots.remove(0);
                    child.keys.push(k);
                    child.slots.push(v);
                    parent.keys[idx] = right.keys[0];
                } else {
                    let k = right.keys.remove(0);
                    let c = right.slots.remove(0);
                    child.keys.push(parent.keys[idx]);
                    child.slots.push(c);
                    parent.keys[idx] = k;
                }
                right.store(tx);
                child.store(tx);
                parent.store(tx);
                return (child, right.addr);
            }
        }
        // Merge with a sibling (both at MIN_KEYS).
        if idx > 0 {
            // Merge child into the left sibling.
            let mut left = Node::load(tx, PAddr::new(parent.slots[idx - 1]));
            let sep = parent.keys.remove(idx - 1);
            parent.slots.remove(idx);
            if !child.leaf {
                left.keys.push(sep);
            }
            left.keys.append(&mut child.keys);
            left.slots.append(&mut child.slots);
            left.store(tx);
            parent.store(tx);
            let sibling = left.addr;
            (left, sibling)
        } else {
            // Merge the right sibling into child.
            let mut right = Node::load(tx, PAddr::new(parent.slots[idx + 1]));
            let sep = parent.keys.remove(idx);
            parent.slots.remove(idx + 1);
            if !child.leaf {
                child.keys.push(sep);
            }
            child.keys.append(&mut right.keys);
            child.slots.append(&mut right.slots);
            child.store(tx);
            parent.store(tx);
            (child, right.addr)
        }
    }

    /// Deletes `key` (must be present). Single preemptive-fix descent.
    fn delete(&self, tx: &mut Staged<'_>, key: u64) {
        let root_addr = tx.read_ptr(self.header.offset(ROOT));
        let mut node = Node::load(tx, root_addr);
        loop {
            tx.compute(node.nkeys() as u32);
            if node.leaf {
                let pos = node
                    .keys
                    .iter()
                    .position(|&k| k == key)
                    .expect("key present");
                node.keys.remove(pos);
                node.slots.remove(pos);
                node.store(tx);
                return;
            }
            let idx = node.slot_for(key);
            let (child, _) = Self::fix_child(tx, &mut node, idx);
            // Root shrink: an empty internal root hands off to its child.
            if node.addr == tx.read_ptr(self.header.offset(ROOT)) && node.keys.is_empty() {
                tx.write_ptr(self.header.offset(ROOT), child.addr);
            }
            // The merge/borrow may have moved `key` into `child` from a
            // sibling; `fix_child` keeps descent correct because the
            // returned node always covers `key`'s range.
            node = child;
        }
    }

    /// One insert-or-delete operation on `key`.
    fn op(&self, env: &mut PmemEnv, key: u64, op_id: u64) -> OpOutcome {
        let mut tx = Staged::begin(env, op_id);
        tx.note_path(self.header);
        let found = self.contains(&mut tx, key);
        let size = tx.read(self.header.offset(SIZE));
        let outcome = if found {
            self.delete(&mut tx, key);
            tx.write(self.header.offset(SIZE), size - 1);
            OpOutcome::Deleted(key)
        } else {
            self.insert(&mut tx, key);
            tx.write(self.header.offset(SIZE), size + 1);
            OpOutcome::Inserted(key)
        };
        tx.finish();
        outcome
    }

    pub(crate) fn pick_key(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.key_range)
    }

    /// Recursive structural check; returns the subtree's leaf depth.
    fn verify_rec(
        space: &Space,
        n: PAddr,
        lo: Option<u64>,
        hi: Option<u64>,
        is_root: bool,
        keys: &mut Vec<u64>,
    ) -> Result<u64, VerifyError> {
        let hdr = space.read_u64(n.offset(HDR));
        let leaf = hdr & LEAF_FLAG != 0;
        let nkeys = hdr & 0xFF;
        if nkeys > MAX_KEYS {
            return Err(VerifyError::new(format!("BT: node with {nkeys} keys")));
        }
        if !is_root && nkeys < MIN_KEYS {
            return Err(VerifyError::new("BT: underfull non-root node"));
        }
        let mut ks = Vec::new();
        for i in 0..nkeys {
            ks.push(space.read_u64(n.offset(KEYS + 8 * i)));
        }
        if ks.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VerifyError::new("BT: node keys not strictly sorted"));
        }
        for &k in &ks {
            if lo.is_some_and(|b| k < b) || hi.is_some_and(|b| k >= b) {
                return Err(VerifyError::new(format!(
                    "BT: key {k} outside separator range"
                )));
            }
        }
        if leaf {
            for i in 0..nkeys {
                let k = ks[i as usize];
                if space.read_u64(n.offset(VALUES + 8 * i)) != value_for(k) {
                    return Err(VerifyError::new(format!("BT: torn value for key {k}")));
                }
                keys.push(k);
            }
            return Ok(0);
        }
        let mut depth = None;
        for i in 0..=nkeys {
            let c = PAddr::new(space.read_u64(n.offset(CHILDREN + 8 * i)));
            if c.is_null() {
                return Err(VerifyError::new("BT: null child in internal node"));
            }
            let clo = if i == 0 { lo } else { Some(ks[i as usize - 1]) };
            let chi = if i == nkeys { hi } else { Some(ks[i as usize]) };
            let d = Self::verify_rec(space, c, clo, chi, false, keys)?;
            if *depth.get_or_insert(d) != d {
                return Err(VerifyError::new("BT: leaves at non-uniform depth"));
            }
        }
        Ok(depth.unwrap_or(0) + 1)
    }
}

impl Workload for BTree {
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
        env.store_u64(root.offset(HDR), LEAF_FLAG); // empty leaf
        env.store_ptr(self.header.offset(ROOT), root);
        env.store_u64(self.header.offset(SIZE), 0);
        env.set_root(ROOT_SLOT, self.header);
        for op in 0..init_ops {
            let key = self.pick_key(rng);
            self.op(env, key, u64::MAX - op);
        }
    }

    fn run_op(&mut self, env: &mut PmemEnv, rng: &mut StdRng, op_id: u64) -> OpOutcome {
        let key = self.pick_key(rng);
        self.op(env, key, op_id)
    }

    fn verify(&self, space: &Space) -> Result<VerifySummary, VerifyError> {
        let h = PAddr::new(space.read_u64(PmemEnv::root_addr(ROOT_SLOT)));
        let root = PAddr::new(space.read_u64(h.offset(ROOT)));
        let mut keys = Vec::new();
        Self::verify_rec(space, root, None, None, true, &mut keys)?;
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VerifyError::new("BT: leaf scan not strictly sorted"));
        }
        let size = space.read_u64(h.offset(SIZE));
        if keys.len() as u64 != size {
            return Err(VerifyError::new(format!(
                "BT: size field {size} != key count {}",
                keys.len()
            )));
        }
        Ok(VerifySummary { keys, size })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::oracle_check;
    use rand::SeedableRng;
    use spp_pmem::Variant;

    fn fresh(variant: Variant) -> (PmemEnv, BTree) {
        let mut env = PmemEnv::new(variant);
        let mut rng = StdRng::seed_from_u64(0);
        let mut bt = BTree::new();
        bt.setup(&mut env, &mut rng, 0);
        bt.key_range = u64::MAX;
        (env, bt)
    }

    #[test]
    fn oracle_agreement_all_variants() {
        for v in Variant::ALL {
            oracle_check(BenchId::BTree, v, 200, 400, 6);
        }
    }

    #[test]
    fn ascending_inserts_split_correctly() {
        let (mut env, bt) = fresh(Variant::LogPSf);
        for k in 0..200 {
            assert_eq!(bt.op(&mut env, k, k), OpOutcome::Inserted(k));
        }
        let s = bt.verify(env.space()).unwrap();
        assert_eq!(s.keys, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_delete_exercises_borrow_and_merge() {
        let (mut env, bt) = fresh(Variant::LogPSf);
        for k in 0..128 {
            bt.op(&mut env, k, k);
        }
        // Delete evens, verifying after each (borrows, merges, root
        // shrinks all occur along the way).
        for k in (0..128).step_by(2) {
            assert_eq!(bt.op(&mut env, k, 1000 + k), OpOutcome::Deleted(k));
            bt.verify(env.space()).unwrap();
        }
        let s = bt.verify(env.space()).unwrap();
        assert_eq!(s.keys, (1..128).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn tree_drains_to_empty_and_refills() {
        let (mut env, bt) = fresh(Variant::LogPSf);
        for k in 0..40 {
            bt.op(&mut env, k, k);
        }
        for k in 0..40 {
            assert_eq!(bt.op(&mut env, k, 100 + k), OpOutcome::Deleted(k));
            bt.verify(env.space()).unwrap();
        }
        let s = bt.verify(env.space()).unwrap();
        assert_eq!(s.size, 0);
        for k in [7u64, 3, 11] {
            bt.op(&mut env, k, 200 + k);
        }
        let s = bt.verify(env.space()).unwrap();
        assert_eq!(s.keys, vec![3, 7, 11]);
    }

    #[test]
    fn root_shrinks_on_merge() {
        let (mut env, bt) = fresh(Variant::Base);
        for k in 0..8 {
            bt.op(&mut env, k, k);
        }
        for k in 0..7 {
            bt.op(&mut env, k, 100 + k);
        }
        let s = bt.verify(env.space()).unwrap();
        assert_eq!(s.keys, vec![7]);
        // A single-key tree must be a leaf root again.
        let h = PAddr::new(env.space().read_u64(PmemEnv::root_addr(ROOT_SLOT)));
        let root = PAddr::new(env.space().read_u64(h.offset(ROOT)));
        assert_ne!(env.space().read_u64(root.offset(HDR)) & LEAF_FLAG, 0);
    }

    #[test]
    fn full_logging_logs_children_too() {
        let (mut env, bt) = fresh(Variant::LogPSf);
        env.set_recording(false);
        for k in 0..64 {
            bt.op(&mut env, k * 2, k);
        }
        env.set_recording(true);
        // One op: the logged block count must exceed the path length
        // (children of path nodes are logged pessimistically).
        let mut tx = Staged::begin(&mut env, 0);
        tx.note_path(bt.header);
        let found = bt.contains(&mut tx, 63);
        assert!(!found);
        bt.insert(&mut tx, 63);
        let sz = tx.read(bt.header.offset(SIZE));
        tx.write(bt.header.offset(SIZE), sz + 1);
        let logged = tx.finish();
        assert!(logged >= 6, "expected path+children logging, got {logged}");
    }
}
