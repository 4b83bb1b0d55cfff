//! KV: a crash-recoverable copy-on-write B+tree storage engine with a
//! ring write-ahead log, driven by a YCSB-style mixed workload.
//!
//! This is the suite's production-shaped workload: unlike the paper's
//! seven small structures (one undo-logged operation per transaction),
//! the KV engine has a genuine multi-step recovery path.
//!
//! ## Design
//!
//! - **Stable/working roots.** The on-NVMM tree is immutable between
//!   checkpoints. Mutations copy every node on the root-to-leaf path to
//!   a fresh page (copy-on-write); a volatile working root tracks the
//!   current tree. A *checkpoint* flushes all pages written since the
//!   previous checkpoint, then publishes the working root with one
//!   atomic meta-block write. Pages replaced since the previous
//!   checkpoint are reclaimed only after the *next* checkpoint commits,
//!   so the previous stable tree stays intact for fallback.
//! - **Dual meta blocks.** Checkpoint `seq` writes meta slot `seq % 2`.
//!   Recovery picks the checksum-valid meta with the highest sequence
//!   number; a torn meta write therefore falls back one checkpoint.
//! - **Ring WAL.** Every mutation first appends one checksummed record
//!   (lsn, kind, key, value) to a ring of 64-byte slots and makes it
//!   durable with `clwb; sfence; pcommit; sfence` before touching the
//!   tree. Recovery *replays* the ring from the chosen checkpoint's
//!   LSN, stopping at the first slot whose stored LSN or checksum does
//!   not match — torn-tail detection.
//!   The ring must hold at least two checkpoint intervals
//!   (`wal_cap >= 2 * ckpt_every`) so the fallback meta's records are
//!   never overwritten before its successor commits.
//!
//! The crash oracle ([`KvBundle`]) is replay-based: it recovers a crash
//! image end to end (meta election → structural walk → WAL replay) and
//! requires the result to equal the shadow state at the exact mutation
//! count the surviving WAL tail implies — not merely one of two
//! adjacent states. A test-only knob that elides the WAL record
//! checksum makes the oracle fail, proving the replay path is
//! load-bearing.

use std::collections::{BTreeMap, BTreeSet};

use spp_pmem::{
    hash64, splitmix64, CrashSim, CrashTrace, Event, FlushMode, PAddr, PmemEnv, Space, Variant,
    BLOCK_SIZE,
};

use crate::oracle::{OracleViolation, ViolationKind};
use crate::zipf::Zipf;
use crate::VerifyError;

/// Root-directory slot holding the meta-pair base address.
pub const META_SLOT: usize = 0;

/// Maximum keys per tree node (same 2-3-4 geometry as the paper's BT).
pub const MAX_KEYS: usize = 3;

// Node layout (one 64-byte block), shared with `btree.rs` idiom:
// header low byte = nkeys, bit 8 = leaf flag.
const HDR: u64 = 0;
const KEYS: u64 = 8; // 3 x u64 at 8, 16, 24
const CHILDREN: u64 = 32; // internal: 4 x u64
const VALUES: u64 = 32; // leaf: 3 x u64
const LEAF_FLAG: u64 = 1 << 8;

// Meta block field offsets (u64 each); CKSUM covers the six fields.
const M_SEQ: u64 = 0;
const M_ROOT: u64 = 8;
const M_COUNT: u64 = 16;
const M_LSN: u64 = 24;
const M_WAL_BASE: u64 = 32;
const M_WAL_CAP: u64 = 40;
const M_CKSUM: u64 = 48;

// WAL record field offsets (one 64-byte slot per record).
const R_LSN: u64 = 0;
const R_KIND: u64 = 8;
const R_KEY: u64 = 16;
const R_VAL: u64 = 24;
const R_CKSUM: u64 = 32;

/// WAL record kind: upsert.
const REC_PUT: u64 = 1;

const GOLD: u64 = 0x9E37_79B9_7F4A_7C15;

fn le_cat(fields: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * fields.len());
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

fn record_checksum(lsn: u64, kind: u64, key: u64, val: u64) -> u64 {
    hash64(&le_cat(&[lsn, kind, key, val]))
}

fn meta_checksum(m: &Meta) -> u64 {
    hash64(&le_cat(&[
        m.seq, m.root, m.count, m.lsn, m.wal_base, m.wal_cap,
    ]))
}

/// One decoded checkpoint meta block.
#[derive(Debug, Clone, Copy)]
struct Meta {
    seq: u64,
    root: u64,
    count: u64,
    lsn: u64,
    wal_base: u64,
    wal_cap: u64,
}

fn read_meta(space: &Space, slot: PAddr) -> Option<Meta> {
    let m = Meta {
        seq: space.read_u64(slot.offset(M_SEQ)),
        root: space.read_u64(slot.offset(M_ROOT)),
        count: space.read_u64(slot.offset(M_COUNT)),
        lsn: space.read_u64(slot.offset(M_LSN)),
        wal_base: space.read_u64(slot.offset(M_WAL_BASE)),
        wal_cap: space.read_u64(slot.offset(M_WAL_CAP)),
    };
    (space.read_u64(slot.offset(M_CKSUM)) == meta_checksum(&m) && m.wal_cap >= 2).then_some(m)
}

/// A volatile view of one tree page (read once, edited, written back).
#[derive(Debug, Clone)]
struct Page {
    addr: PAddr,
    leaf: bool,
    keys: Vec<u64>,
    /// Children (internal) or values (leaf).
    slots: Vec<u64>,
}

impl Page {
    fn load(env: &mut PmemEnv, addr: PAddr) -> Page {
        let hdr = env.load_ptr(addr.offset(HDR)).raw(); // dependent first touch
        let leaf = hdr & LEAF_FLAG != 0;
        let n = (hdr & 0xFF) as usize;
        let mut keys = Vec::with_capacity(3);
        for i in 0..n {
            keys.push(env.load_u64(addr.offset(KEYS + 8 * i as u64)));
        }
        let nslots = if leaf { n } else { n + 1 };
        let base = if leaf { VALUES } else { CHILDREN };
        let mut slots = Vec::with_capacity(4);
        for i in 0..nslots {
            slots.push(env.load_u64(addr.offset(base + 8 * i as u64)));
        }
        Page {
            addr,
            leaf,
            keys,
            slots,
        }
    }

    fn store(&self, env: &mut PmemEnv) {
        let hdr = self.keys.len() as u64 | if self.leaf { LEAF_FLAG } else { 0 };
        env.store_u64(self.addr.offset(HDR), hdr);
        for (i, &k) in self.keys.iter().enumerate() {
            env.store_u64(self.addr.offset(KEYS + 8 * i as u64), k);
        }
        let base = if self.leaf { VALUES } else { CHILDREN };
        for (i, &s) in self.slots.iter().enumerate() {
            env.store_u64(self.addr.offset(base + 8 * i as u64), s);
        }
    }

    fn nkeys(&self) -> usize {
        self.keys.len()
    }
}

/// Event-trace coordinates of one WAL append, used by the crash oracle
/// to decide which mutations are guaranteed durable at a crash point.
#[derive(Debug, Clone, Copy)]
pub struct MutationTrace {
    /// The ring slot the record was written to.
    pub wal_slot: PAddr,
    /// Trace index of the record's first store.
    pub first_store_idx: usize,
    /// Trace index of the record's last store (the checksum).
    pub last_store_idx: usize,
}

/// The recovered logical state of a KV image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRecovered {
    /// Full key → value contents after checkpoint walk + WAL replay.
    pub contents: BTreeMap<u64, u64>,
    /// The elected checkpoint's sequence number.
    pub ckpt_seq: u64,
    /// LSN the elected checkpoint was taken at.
    pub stable_lsn: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: u64,
    /// `stable_lsn + replayed`: total mutations recovered.
    pub total_lsn: u64,
}

/// The COW-checkpointed B+tree KV engine.
#[derive(Debug, Clone)]
pub struct KvEngine {
    meta: PAddr,
    wal: PAddr,
    wal_cap: u64,
    ckpt_every: u64,
    /// Working root; diverges from the stable root between checkpoints.
    root: PAddr,
    count: u64,
    lsn: u64,
    stable_lsn: u64,
    ckpt_seq: u64,
    /// Pages written since the last checkpoint (raw addresses; a
    /// `BTreeSet` so checkpoint flush order is deterministic).
    owned: BTreeSet<u64>,
    /// Stable-tree pages replaced since the last checkpoint; reclaimed
    /// only after the next checkpoint commits.
    retired: Vec<PAddr>,
    free: Vec<PAddr>,
    checkpoints: u64,
    elide_checksum: bool,
    track_mutations: bool,
    muts: Vec<MutationTrace>,
}

impl KvEngine {
    /// Creates and persists an empty engine: meta pair, WAL ring, and an
    /// empty leaf root, published as checkpoint 1.
    ///
    /// # Panics
    ///
    /// Panics unless `ckpt_every >= 1` and `wal_cap >= 2 * ckpt_every`
    /// (the ring must hold two checkpoint intervals so a torn-meta
    /// fallback still finds all of its records).
    pub fn create(env: &mut PmemEnv, ckpt_every: u64, wal_cap: u64) -> Self {
        assert!(ckpt_every >= 1, "kv: ckpt_every must be >= 1");
        assert!(
            wal_cap >= 2 * ckpt_every,
            "kv: wal_cap {wal_cap} must be >= 2 * ckpt_every {ckpt_every}"
        );
        let meta = env.alloc_blocks(2);
        let wal = env.alloc_blocks(wal_cap);
        let root = env.alloc_block();
        env.store_u64(root.offset(HDR), LEAF_FLAG); // empty leaf
        env.clwb(root);
        env.set_root(META_SLOT, meta);
        env.clwb(PmemEnv::root_addr(META_SLOT));
        env.persist_barrier();
        let mut engine = KvEngine {
            meta,
            wal,
            wal_cap,
            ckpt_every,
            root,
            count: 0,
            lsn: 0,
            stable_lsn: 0,
            ckpt_seq: 0,
            owned: BTreeSet::new(),
            retired: Vec::new(),
            free: Vec::new(),
            checkpoints: 0,
            elide_checksum: false,
            track_mutations: false,
            muts: Vec::new(),
        };
        engine.write_meta(env, 1);
        engine.ckpt_seq = 1;
        engine
    }

    /// Total mutations applied (the next record's LSN).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// LSN of the most recent checkpoint.
    pub fn stable_lsn(&self) -> u64 {
        self.stable_lsn
    }

    /// Number of key/value pairs stored.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Checkpoints taken since creation (excluding the creation meta).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Free-list length (reclaimed COW pages awaiting reuse).
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Test-only: corrupt every subsequent WAL record checksum. Recovery
    /// replay must then stop short and the oracle must flag the loss —
    /// this knob exists to prove the checksum is load-bearing.
    pub fn set_elide_checksum(&mut self, on: bool) {
        self.elide_checksum = on;
    }

    /// Enables per-mutation trace bookkeeping for the crash oracle.
    /// Off by default: a streamed multi-million-op run must not
    /// accumulate an unbounded side vector.
    pub fn set_track_mutations(&mut self, on: bool) {
        self.track_mutations = on;
    }

    /// Drains the recorded [`MutationTrace`]s.
    pub fn take_mutations(&mut self) -> Vec<MutationTrace> {
        std::mem::take(&mut self.muts)
    }

    fn alloc_page(&mut self, env: &mut PmemEnv) -> PAddr {
        match self.free.pop() {
            Some(p) => p,
            None => env.alloc_block(),
        }
    }

    /// A fresh owned page (split sibling or new root).
    fn fresh_page(&mut self, env: &mut PmemEnv, leaf: bool) -> Page {
        let addr = self.alloc_page(env);
        self.owned.insert(addr.raw());
        Page {
            addr,
            leaf,
            keys: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Copy-on-write: returns an owned page holding `addr`'s contents.
    /// Already-owned pages are edited in place.
    fn cow(&mut self, env: &mut PmemEnv, addr: PAddr) -> PAddr {
        if self.owned.contains(&addr.raw()) {
            return addr;
        }
        let fresh = self.alloc_page(env);
        for i in 0..(BLOCK_SIZE / 8) {
            let v = env.load_u64(addr.offset(8 * i));
            env.store_u64(fresh.offset(8 * i), v);
        }
        self.retired.push(addr);
        self.owned.insert(fresh.raw());
        fresh
    }

    fn split_child(&mut self, env: &mut PmemEnv, parent: &mut Page, idx: usize, child: &mut Page) {
        debug_assert_eq!(child.nkeys(), MAX_KEYS);
        let mut right = self.fresh_page(env, child.leaf);
        let sep = if child.leaf {
            // B+tree leaf split: the separator is *copied* up, the key
            // stays in the right leaf.
            right.keys = child.keys.split_off(1);
            right.slots = child.slots.split_off(1);
            right.keys[0]
        } else {
            right.keys = child.keys.split_off(2);
            right.slots = child.slots.split_off(2);
            child.keys.pop().unwrap_or_default()
        };
        parent.keys.insert(idx, sep);
        parent.slots.insert(idx + 1, right.addr.raw());
        child.store(env);
        right.store(env);
        parent.store(env);
    }

    /// Applies one upsert to the working tree via a single preemptive-
    /// split COW descent. Returns `true` if the key was newly inserted.
    fn apply(&mut self, env: &mut PmemEnv, key: u64, val: u64) -> bool {
        self.root = self.cow(env, self.root);
        let mut node = Page::load(env, self.root);
        if node.nkeys() == MAX_KEYS {
            let mut new_root = self.fresh_page(env, false);
            new_root.slots.push(node.addr.raw());
            self.split_child(env, &mut new_root, 0, &mut node);
            self.root = new_root.addr;
            node = new_root;
        }
        loop {
            env.compute(node.nkeys() as u32 + 1);
            if node.leaf {
                let pos = node.keys.iter().position(|&k| key <= k);
                if let Some(p) = pos {
                    if node.keys[p] == key {
                        node.slots[p] = val; // update
                        node.store(env);
                        return false;
                    }
                }
                let p = pos.unwrap_or(node.keys.len());
                node.keys.insert(p, key);
                node.slots.insert(p, val);
                node.store(env);
                self.count += 1;
                return true;
            }
            let idx = node
                .keys
                .iter()
                .position(|&k| key < k)
                .unwrap_or(node.keys.len());
            let child_addr = self.cow(env, PAddr::new(node.slots[idx]));
            if child_addr.raw() != node.slots[idx] {
                node.slots[idx] = child_addr.raw();
                node.store(env);
            }
            let mut child = Page::load(env, child_addr);
            if child.nkeys() == MAX_KEYS {
                self.split_child(env, &mut node, idx, &mut child);
                let idx = node
                    .keys
                    .iter()
                    .position(|&k| key < k)
                    .unwrap_or(node.keys.len());
                node = Page::load(env, PAddr::new(node.slots[idx]));
            } else {
                node = child;
            }
        }
    }

    /// One durable upsert: WAL append (made durable with a full persist
    /// barrier) → COW tree apply → checkpoint when the interval is due.
    /// Returns `true` if the key was newly inserted.
    pub fn put(&mut self, env: &mut PmemEnv, key: u64, val: u64) -> bool {
        let slot = self.wal.offset((self.lsn % self.wal_cap) * BLOCK_SIZE);
        let first = env.trace().len();
        env.store_u64(slot.offset(R_LSN), self.lsn);
        env.store_u64(slot.offset(R_KIND), REC_PUT);
        env.store_u64(slot.offset(R_KEY), key);
        env.store_u64(slot.offset(R_VAL), val);
        let mut ck = record_checksum(self.lsn, REC_PUT, key, val);
        if self.elide_checksum {
            ck ^= 0xDEAD_BEEF;
        }
        env.store_u64(slot.offset(R_CKSUM), ck);
        env.clwb(slot);
        env.persist_barrier();
        if self.track_mutations && env.recording() {
            self.muts.push(MutationTrace {
                wal_slot: slot,
                first_store_idx: first,
                last_store_idx: first + 4,
            });
        }
        let inserted = self.apply(env, key, val);
        self.lsn += 1;
        if self.lsn - self.stable_lsn >= self.ckpt_every {
            self.checkpoint(env);
        }
        inserted
    }

    fn write_meta(&mut self, env: &mut PmemEnv, seq: u64) {
        let slot = self.meta.offset((seq % 2) * BLOCK_SIZE);
        let m = Meta {
            seq,
            root: self.root.raw(),
            count: self.count,
            lsn: self.lsn,
            wal_base: self.wal.raw(),
            wal_cap: self.wal_cap,
        };
        env.store_u64(slot.offset(M_SEQ), m.seq);
        env.store_u64(slot.offset(M_ROOT), m.root);
        env.store_u64(slot.offset(M_COUNT), m.count);
        env.store_u64(slot.offset(M_LSN), m.lsn);
        env.store_u64(slot.offset(M_WAL_BASE), m.wal_base);
        env.store_u64(slot.offset(M_WAL_CAP), m.wal_cap);
        env.store_u64(slot.offset(M_CKSUM), meta_checksum(&m));
        env.clwb(slot);
        env.persist_barrier();
    }

    /// Publishes the working tree: flush every page written since the
    /// last checkpoint, barrier, then the atomic dual-meta root swap.
    /// Retired pages of the *previous* stable tree become reusable.
    pub fn checkpoint(&mut self, env: &mut PmemEnv) {
        if self.lsn == self.stable_lsn {
            return; // nothing to publish
        }
        for &p in &self.owned {
            env.clwb(PAddr::new(p));
        }
        env.persist_barrier();
        let seq = self.ckpt_seq + 1;
        self.write_meta(env, seq);
        self.ckpt_seq = seq;
        self.stable_lsn = self.lsn;
        let retired = std::mem::take(&mut self.retired);
        self.free.extend(retired);
        self.owned.clear();
        self.checkpoints += 1;
    }

    /// Point lookup against the working tree.
    pub fn get(&self, env: &mut PmemEnv, key: u64) -> Option<u64> {
        let mut addr = self.root;
        loop {
            let node = Page::load(env, addr);
            env.compute(node.nkeys() as u32 + 1);
            if node.leaf {
                return node
                    .keys
                    .iter()
                    .position(|&k| k == key)
                    .map(|p| node.slots[p]);
            }
            let idx = node
                .keys
                .iter()
                .position(|&k| key < k)
                .unwrap_or(node.keys.len());
            addr = PAddr::new(node.slots[idx]);
        }
    }

    /// Range scan: up to `limit` pairs with key >= `lo`, ascending.
    pub fn scan(&self, env: &mut PmemEnv, lo: u64, limit: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(limit);
        Self::scan_rec(env, self.root, lo, limit, &mut out);
        out
    }

    fn scan_rec(env: &mut PmemEnv, addr: PAddr, lo: u64, limit: usize, out: &mut Vec<(u64, u64)>) {
        if out.len() >= limit {
            return;
        }
        let node = Page::load(env, addr);
        env.compute(node.nkeys() as u32 + 1);
        if node.leaf {
            for (i, &k) in node.keys.iter().enumerate() {
                if k >= lo && out.len() < limit {
                    out.push((k, node.slots[i]));
                }
            }
            return;
        }
        for i in 0..node.slots.len() {
            // Child i covers keys < keys[i]; skip it when that whole
            // range is below `lo`.
            if i < node.keys.len() && node.keys[i] <= lo {
                continue;
            }
            Self::scan_rec(env, PAddr::new(node.slots[i]), lo, limit, out);
            if out.len() >= limit {
                return;
            }
        }
    }

    /// Structural walk of a stable tree in `space`, collecting contents.
    /// Checks node arity, key ordering, separator ranges, and uniform
    /// leaf depth.
    fn walk(
        space: &Space,
        addr: PAddr,
        lo: Option<u64>,
        hi: Option<u64>,
        is_root: bool,
        out: &mut BTreeMap<u64, u64>,
    ) -> Result<u64, VerifyError> {
        if addr.is_null() {
            return Err(VerifyError::new("kv: null page pointer"));
        }
        let hdr = space.read_u64(addr.offset(HDR));
        let leaf = hdr & LEAF_FLAG != 0;
        let nkeys = (hdr & 0xFF) as usize;
        if hdr >> 9 != 0 {
            return Err(VerifyError::new("kv: garbage page header"));
        }
        if nkeys > MAX_KEYS {
            return Err(VerifyError::new(format!("kv: page with {nkeys} keys")));
        }
        if !is_root && nkeys == 0 {
            return Err(VerifyError::new("kv: empty non-root page"));
        }
        let mut ks = Vec::with_capacity(nkeys);
        for i in 0..nkeys {
            ks.push(space.read_u64(addr.offset(KEYS + 8 * i as u64)));
        }
        if ks.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VerifyError::new("kv: page keys not strictly sorted"));
        }
        for &k in &ks {
            if lo.is_some_and(|b| k < b) || hi.is_some_and(|b| k >= b) {
                return Err(VerifyError::new(format!(
                    "kv: key {k} outside separator range"
                )));
            }
        }
        if leaf {
            for (i, &k) in ks.iter().enumerate() {
                let v = space.read_u64(addr.offset(VALUES + 8 * i as u64));
                if out.insert(k, v).is_some() {
                    return Err(VerifyError::new(format!("kv: duplicate key {k}")));
                }
            }
            return Ok(0);
        }
        let mut depth = None;
        for i in 0..=nkeys {
            let c = PAddr::new(space.read_u64(addr.offset(CHILDREN + 8 * i as u64)));
            let clo = if i == 0 { lo } else { Some(ks[i - 1]) };
            let chi = if i == nkeys { hi } else { Some(ks[i]) };
            let d = Self::walk(space, c, clo, chi, false, out)?;
            if *depth.get_or_insert(d) != d {
                return Err(VerifyError::new("kv: leaves at non-uniform depth"));
            }
        }
        Ok(depth.unwrap_or(0) + 1)
    }

    /// Recovers the logical contents of a (possibly crash-torn) image:
    /// meta election → stable-tree structural walk → WAL ring replay
    /// with torn-tail detection.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] when no checksum-valid meta exists or
    /// the elected stable tree violates a structural invariant. A torn
    /// WAL *tail* is not an error — replay stops there by design.
    pub fn recover(space: &Space) -> Result<KvRecovered, VerifyError> {
        let meta_base = PAddr::new(space.read_u64(PmemEnv::root_addr(META_SLOT)));
        if meta_base.is_null() {
            return Err(VerifyError::new("kv: null meta directory pointer"));
        }
        let a = read_meta(space, meta_base);
        let b = read_meta(space, meta_base.offset(BLOCK_SIZE));
        let m = match (a, b) {
            (Some(x), Some(y)) => {
                if x.seq >= y.seq {
                    x
                } else {
                    y
                }
            }
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => return Err(VerifyError::new("kv: no checksum-valid meta block")),
        };
        let mut contents = BTreeMap::new();
        Self::walk(space, PAddr::new(m.root), None, None, true, &mut contents)?;
        if contents.len() as u64 != m.count {
            return Err(VerifyError::new(format!(
                "kv: checkpoint count {} != walked keys {}",
                m.count,
                contents.len()
            )));
        }
        let wal = PAddr::new(m.wal_base);
        let mut replayed = 0u64;
        let mut l = m.lsn;
        while replayed < m.wal_cap {
            let slot = wal.offset((l % m.wal_cap) * BLOCK_SIZE);
            let lsn = space.read_u64(slot.offset(R_LSN));
            let kind = space.read_u64(slot.offset(R_KIND));
            let key = space.read_u64(slot.offset(R_KEY));
            let val = space.read_u64(slot.offset(R_VAL));
            let ck = space.read_u64(slot.offset(R_CKSUM));
            if lsn != l || kind != REC_PUT || ck != record_checksum(lsn, kind, key, val) {
                break; // torn tail, stale slot, or corrupt record
            }
            contents.insert(key, val);
            replayed += 1;
            l += 1;
        }
        Ok(KvRecovered {
            contents,
            ckpt_seq: m.seq,
            stable_lsn: m.lsn,
            replayed,
            total_lsn: l,
        })
    }
}

/// Operation mix for the YCSB-style driver, in permille (must sum to
/// 1000).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvMix {
    /// Point lookups per 1000 ops.
    pub read_pm: u32,
    /// Updates of existing keys per 1000 ops.
    pub update_pm: u32,
    /// Inserts of fresh keys per 1000 ops.
    pub insert_pm: u32,
    /// Range scans per 1000 ops.
    pub scan_pm: u32,
    /// Pairs returned per scan.
    pub scan_len: usize,
    /// Zipfian skew for key choice.
    pub theta: f64,
}

impl KvMix {
    /// The default mixed profile: 40% reads, 40% updates, 15% inserts,
    /// 5% scans over a zipf(0.99) key distribution (YCSB-A shaped, with
    /// an insert/scan tail exercising splits and range reads).
    pub const MIXED: KvMix = KvMix {
        read_pm: 400,
        update_pm: 400,
        insert_pm: 150,
        scan_pm: 50,
        scan_len: 16,
        theta: crate::zipf::DEFAULT_THETA,
    };

    /// An update-heavy profile (maximum persist-barrier pressure).
    pub const UPDATE_HEAVY: KvMix = KvMix {
        read_pm: 100,
        update_pm: 850,
        insert_pm: 50,
        scan_pm: 0,
        scan_len: 16,
        theta: crate::zipf::DEFAULT_THETA,
    };
}

impl Default for KvMix {
    fn default() -> Self {
        KvMix::MIXED
    }
}

/// Sizing and identity of one KV run.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    /// Keys loaded before recording starts.
    pub init_keys: u64,
    /// Driver operations to run.
    pub ops: u64,
    /// Mutations between checkpoints.
    pub ckpt_every: u64,
    /// WAL ring slots (must be >= `2 * ckpt_every`).
    pub wal_cap: u64,
    /// Seed for keys, values, and the op mix.
    pub seed: u64,
    /// Operation mix.
    pub mix: KvMix,
}

impl KvSpec {
    /// A small, test-sized spec.
    pub fn small(seed: u64) -> Self {
        KvSpec {
            init_keys: 64,
            ops: 200,
            ckpt_every: 8,
            wal_cap: 16,
            seed,
            mix: KvMix::MIXED,
        }
    }
}

/// Per-run driver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvRunStats {
    /// Ops executed.
    pub ops: u64,
    /// Point reads.
    pub reads: u64,
    /// Updates of existing keys.
    pub updates: u64,
    /// Fresh-key inserts.
    pub inserts: u64,
    /// Range scans.
    pub scans: u64,
    /// Total pairs returned by scans.
    pub scan_items: u64,
    /// WAL records appended (mutations).
    pub mutations: u64,
}

/// The YCSB-style driver: zipfian key choice over the live key
/// population, deterministic op mix, shadow map for oracle states.
#[derive(Debug)]
pub struct KvWorkload {
    spec: KvSpec,
    engine: KvEngine,
    zipf: Zipf,
    /// Insertion-ordered key universe; zipf rank 0 maps to the newest
    /// key, so the hot set tracks recent inserts.
    keys: Vec<u64>,
    next_key: u64,
    shadow: BTreeMap<u64, u64>,
    stats: KvRunStats,
}

fn fresh_key(seed: u64, ordinal: u64) -> u64 {
    // splitmix64 is a bijection, so distinct ordinals give distinct keys.
    splitmix64(seed ^ ordinal.wrapping_mul(GOLD))
}

fn value_for(seed: u64, key: u64, lsn: u64) -> u64 {
    splitmix64(seed ^ key ^ lsn.wrapping_mul(0xA24B_AED4_963E_E407))
}

impl KvWorkload {
    /// Creates an unpopulated driver; call [`KvWorkload::setup`] next.
    ///
    /// # Panics
    ///
    /// Panics if the mix permilles don't sum to 1000 or
    /// `init_keys == 0`.
    pub fn new(spec: KvSpec) -> Self {
        let m = spec.mix;
        assert_eq!(
            m.read_pm + m.update_pm + m.insert_pm + m.scan_pm,
            1000,
            "kv: mix permilles must sum to 1000"
        );
        assert!(spec.init_keys > 0, "kv: init_keys must be > 0");
        KvWorkload {
            spec,
            engine: KvEngine {
                // Placeholder until setup(); never used before it.
                meta: PAddr::NULL,
                wal: PAddr::NULL,
                wal_cap: 2,
                ckpt_every: 1,
                root: PAddr::NULL,
                count: 0,
                lsn: 0,
                stable_lsn: 0,
                ckpt_seq: 0,
                owned: BTreeSet::new(),
                retired: Vec::new(),
                free: Vec::new(),
                checkpoints: 0,
                elide_checksum: false,
                track_mutations: false,
                muts: Vec::new(),
            },
            zipf: Zipf::new(1, 0.0, spec.seed),
            keys: Vec::new(),
            next_key: 0,
            shadow: BTreeMap::new(),
            stats: KvRunStats::default(),
        }
    }

    /// Creates the engine and loads `init_keys` fresh keys, finishing
    /// at a checkpoint boundary (quiesced). Run with recording off to
    /// keep the load phase out of the simulated trace.
    pub fn setup(&mut self, env: &mut PmemEnv) {
        self.engine = KvEngine::create(env, self.spec.ckpt_every, self.spec.wal_cap);
        self.zipf = Zipf::new(
            self.spec.init_keys.max(1),
            self.spec.mix.theta,
            self.spec.seed,
        );
        for _ in 0..self.spec.init_keys {
            self.insert_fresh(env);
        }
        self.engine.checkpoint(env);
        self.stats = KvRunStats::default();
    }

    fn insert_fresh(&mut self, env: &mut PmemEnv) {
        let key = fresh_key(self.spec.seed, self.next_key);
        self.next_key += 1;
        let val = value_for(self.spec.seed, key, self.engine.lsn());
        self.engine.put(env, key, val);
        self.shadow.insert(key, val);
        self.keys.push(key);
        self.stats.mutations += 1;
    }

    fn pick_key(&mut self) -> u64 {
        // Rank 0 = newest key. The zipf range is pinned to init_keys so
        // the stream stays a pure function of the spec; ranks past the
        // current population clamp to the oldest key.
        let r = self.zipf.next_rank() as usize;
        let idx = self.keys.len().saturating_sub(1 + r);
        self.keys[idx]
    }

    /// Runs one driver op. `op_id` must be the dense op index so the op
    /// mix is a pure function of `(seed, op_id)`.
    pub fn run_op(&mut self, env: &mut PmemEnv, op_id: u64) {
        let roll = splitmix64(self.spec.seed ^ 0xABCD ^ op_id.wrapping_mul(GOLD)) % 1000;
        let m = self.spec.mix;
        let roll = roll as u32;
        if roll < m.read_pm {
            let key = self.pick_key();
            let got = self.engine.get(env, key);
            debug_assert_eq!(got, self.shadow.get(&key).copied());
            self.stats.reads += 1;
        } else if roll < m.read_pm + m.update_pm {
            let key = self.pick_key();
            let val = value_for(self.spec.seed, key, self.engine.lsn());
            self.engine.put(env, key, val);
            self.shadow.insert(key, val);
            self.stats.updates += 1;
            self.stats.mutations += 1;
        } else if roll < m.read_pm + m.update_pm + m.insert_pm {
            self.insert_fresh(env);
            self.stats.inserts += 1;
        } else {
            let lo = self.pick_key();
            let got = self.engine.scan(env, lo, m.scan_len);
            self.stats.scan_items += got.len() as u64;
            self.stats.scans += 1;
        }
        self.stats.ops += 1;
    }

    /// The engine (for checkpoint forcing and stats).
    pub fn engine(&self) -> &KvEngine {
        &self.engine
    }

    /// Mutable engine access (oracle knobs).
    pub fn engine_mut(&mut self) -> &mut KvEngine {
        &mut self.engine
    }

    /// The shadow map: the expected logical contents right now.
    pub fn shadow(&self) -> &BTreeMap<u64, u64> {
        &self.shadow
    }

    /// Driver counters.
    pub fn stats(&self) -> KvRunStats {
        self.stats
    }
}

/// Identity of one recorded KV crash bundle.
#[derive(Debug, Clone, Copy)]
pub struct KvBundleSpec {
    /// Build variant whose persistence machinery is traced.
    pub variant: Variant,
    /// Flush instruction the build emits.
    pub flush_mode: FlushMode,
    /// Driver sizing.
    pub spec: KvSpec,
    /// Test-only: corrupt WAL record checksums (the oracle must fail).
    pub elide_checksum: bool,
}

/// A recorded KV run prepared for crash injection: base image, events,
/// per-mutation WAL coordinates, and the shadow state after every
/// mutation.
#[derive(Debug)]
pub struct KvBundle {
    /// The base image and the recorded events. Its index is built at
    /// the first crash check, not at recording (which the benchmark
    /// counts as setup).
    trace: CrashTrace,
    /// Shadow contents after 0, 1, ..., n mutations since the base.
    states: Vec<BTreeMap<u64, u64>>,
    muts: Vec<MutationTrace>,
    base_lsn: u64,
}

/// Records a KV bundle: populate unrecorded, snapshot the quiesced
/// image, then record the mixed-op stream tracking shadow state at
/// every mutation boundary.
///
/// # Panics
///
/// Panics on a driver-level invariant failure (never an expected
/// outcome).
pub fn record_kv_bundle(bspec: &KvBundleSpec) -> KvBundle {
    let mut env = PmemEnv::new(bspec.variant);
    env.set_flush_mode(bspec.flush_mode);
    let mut w = KvWorkload::new(bspec.spec);
    env.set_recording(false);
    w.setup(&mut env);
    env.set_recording(true);
    w.engine_mut().set_track_mutations(true);
    w.engine_mut().set_elide_checksum(bspec.elide_checksum);
    let base = env.snapshot();
    let base_lsn = w.engine().lsn();
    let mut states = vec![w.shadow().clone()];
    let mut seen = 0usize;
    for op in 0..bspec.spec.ops {
        w.run_op(&mut env, op);
        let muts = w.engine().muts.len();
        if muts > seen {
            debug_assert_eq!(muts, seen + 1, "one op appends at most one record");
            states.push(w.shadow().clone());
            seen = muts;
        }
    }
    // A final checkpoint is *not* forced: the trace ends mid-interval so
    // crash points cover the replay-from-WAL path, not just quiesced
    // images.
    let muts = w.engine_mut().take_mutations();
    KvBundle {
        trace: CrashTrace::new(base, env.take_trace()),
        states,
        muts,
        base_lsn,
    }
}

impl KvBundle {
    /// The recorded event stream (crash indices range over
    /// `0..=events().len()`).
    pub fn events(&self) -> &[Event] {
        self.trace.events()
    }

    /// Mutations recorded since the base image.
    pub fn mutation_count(&self) -> usize {
        self.muts.len()
    }

    /// Mutations whose WAL record is guaranteed durable at `crash_idx`
    /// (a contiguous prefix: every record is barriered before the next
    /// begins).
    pub fn completed(&self, sim: &CrashSim<'_>) -> usize {
        self.muts
            .iter()
            .take_while(|m| sim.guarantee(m.wal_slot.block()) > m.last_store_idx)
            .count()
    }

    /// Mutations whose WAL append began before `crash_idx`.
    pub fn started(&self, crash_idx: usize) -> usize {
        self.muts
            .iter()
            .take_while(|m| m.first_store_idx < crash_idx)
            .count()
    }

    /// Runs full replay-based recovery against `image` and checks the
    /// result: the recovered mutation count `j` must satisfy
    /// `completed <= j <= started`, and the recovered contents must
    /// equal the shadow state after exactly `j` mutations — losing a
    /// guaranteed-durable record or resurrecting an unwritten one both
    /// fail.
    ///
    /// # Errors
    ///
    /// Returns the violation for an inconsistent image.
    pub fn check_image(
        &self,
        image: &Space,
        completed: usize,
        started: usize,
    ) -> Result<(), OracleViolation> {
        let rec = KvEngine::recover(image).map_err(|e| OracleViolation {
            kind: ViolationKind::StructureInvalid,
            detail: e.to_string(),
        })?;
        let j64 = rec.total_lsn.saturating_sub(self.base_lsn);
        let j = j64 as usize;
        if j < completed || j > started {
            return Err(OracleViolation {
                kind: ViolationKind::StateMismatch,
                detail: format!(
                    "recovered {j} mutations past the base, but {completed} were guaranteed \
                     durable and only {started} had started"
                ),
            });
        }
        let want = &self.states[j];
        if &rec.contents != want {
            return Err(OracleViolation {
                kind: ViolationKind::StateMismatch,
                detail: format!(
                    "recovered contents ({} keys) differ from the shadow state after {j} \
                     mutations ({} keys)",
                    rec.contents.len(),
                    want.len()
                ),
            });
        }
        Ok(())
    }

    /// Replays one adversarial schedule end to end: crash at
    /// `crash_idx`, per-block writeback cuts drawn from `seed`, then
    /// replay-based recovery and the oracle. The recording is indexed
    /// once, at the first check; every later check reuses that index.
    ///
    /// # Errors
    ///
    /// Returns the violation for a failing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `crash_idx > events().len()`.
    pub fn check_crash(&self, crash_idx: usize, seed: u64) -> Result<(), OracleViolation> {
        let sim = self.trace.at(crash_idx);
        let img = sim.image_seeded(seed);
        self.check_image(&img, self.completed(&sim), self.started(crash_idx))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spp_pmem::persist_boundaries;

    fn run_workload(spec: KvSpec, variant: Variant) -> (PmemEnv, KvWorkload) {
        let mut env = PmemEnv::new(variant);
        let mut w = KvWorkload::new(spec);
        env.set_recording(false);
        w.setup(&mut env);
        env.set_recording(true);
        for op in 0..spec.ops {
            w.run_op(&mut env, op);
        }
        (env, w)
    }

    #[test]
    fn live_engine_agrees_with_shadow_map() {
        let (mut env, w) = run_workload(KvSpec::small(11), Variant::LogPSf);
        let shadow = w.shadow().clone();
        assert!(shadow.len() > 64, "inserts must have grown the tree");
        for (&k, &v) in &shadow {
            assert_eq!(w.engine().get(&mut env, k), Some(v));
        }
        assert_eq!(w.engine().count(), shadow.len() as u64);
        assert!(w.engine().checkpoints() > 1);
    }

    #[test]
    fn scan_matches_shadow_ranges() {
        let (mut env, w) = run_workload(KvSpec::small(5), Variant::Base);
        let shadow = w.shadow();
        for lo in shadow.keys().copied().step_by(7) {
            let got = w.engine().scan(&mut env, lo, 9);
            let want: Vec<(u64, u64)> = shadow.range(lo..).take(9).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "scan from {lo} diverged");
        }
    }

    #[test]
    fn quiesced_image_recovers_exactly() {
        let (mut env, mut w) = run_workload(KvSpec::small(3), Variant::LogPSf);
        w.engine_mut().checkpoint(&mut env);
        let rec = KvEngine::recover(env.space()).expect("quiesced image must recover");
        assert_eq!(&rec.contents, w.shadow());
        assert_eq!(rec.total_lsn, w.engine().lsn());
        assert_eq!(rec.replayed, 0, "post-checkpoint image has no WAL tail");
    }

    #[test]
    fn mid_interval_image_replays_the_wal_tail() {
        // Stop between checkpoints: recovery must replay a non-empty
        // tail to reach the shadow state.
        let spec = KvSpec::small(7);
        let (mut env, mut w) = run_workload(spec, Variant::LogPSf);
        let mut op = spec.ops;
        while w.engine().lsn() == w.engine().stable_lsn() {
            w.run_op(&mut env, op);
            op += 1;
        }
        let rec = KvEngine::recover(env.space()).expect("image must recover");
        assert_eq!(&rec.contents, w.shadow());
        assert!(rec.replayed > 0, "expected a WAL tail replay");
        assert_eq!(rec.total_lsn, w.engine().lsn());
    }

    #[test]
    fn ring_wraps_without_losing_records() {
        // Tiny ring, many mutations: the ring wraps many times over.
        let spec = KvSpec {
            init_keys: 8,
            ops: 400,
            ckpt_every: 2,
            wal_cap: 4,
            ..KvSpec::small(13)
        };
        let (env, w) = run_workload(spec, Variant::LogPSf);
        assert!(
            w.engine().lsn() > 2 * spec.wal_cap,
            "ring must have wrapped"
        );
        let rec = KvEngine::recover(env.space()).expect("image must recover");
        assert_eq!(&rec.contents, w.shadow());
    }

    #[test]
    fn cow_reclaims_pages_bounding_the_heap() {
        let spec = KvSpec {
            init_keys: 32,
            ops: 600,
            ckpt_every: 4,
            wal_cap: 8,
            mix: KvMix::UPDATE_HEAVY,
            ..KvSpec::small(17)
        };
        let mut env = PmemEnv::new(Variant::Base);
        let mut w = KvWorkload::new(spec);
        env.set_recording(false);
        w.setup(&mut env);
        for op in 0..200 {
            w.run_op(&mut env, op);
        }
        let heap_early = env.heap_used();
        for op in 200..spec.ops {
            w.run_op(&mut env, op);
        }
        let grown = env.heap_used() - heap_early;
        // Update-heavy traffic recycles retired pages: the heap must
        // grow far slower than one page per mutation.
        assert!(
            grown < 64 * spec.ops,
            "heap grew {grown} bytes over {} ops: free list not recycling",
            spec.ops - 200
        );
        assert!(w.engine().free_pages() > 0);
    }

    fn bundle_spec(variant: Variant, elide: bool) -> KvBundleSpec {
        KvBundleSpec {
            variant,
            flush_mode: FlushMode::default(),
            spec: KvSpec {
                init_keys: 48,
                ops: 60,
                ckpt_every: 6,
                wal_cap: 12,
                seed: 0xFACE,
                mix: KvMix::MIXED,
            },
            elide_checksum: elide,
        }
    }

    #[test]
    fn logpsf_passes_oracle_at_every_boundary() {
        let b = record_kv_bundle(&bundle_spec(Variant::LogPSf, false));
        assert!(b.mutation_count() > 10);
        for &p in &persist_boundaries(b.events()) {
            for seed in 0..2u64 {
                if let Err(v) = b.check_crash(p, seed) {
                    panic!("kv @ {p} seed {seed}: {v}");
                }
            }
        }
    }

    #[test]
    fn log_variant_fails_oracle_somewhere() {
        // No flushes, no fences: nothing is guaranteed, so adversarial
        // schedules can tear the tree or the WAL into inconsistency.
        let b = record_kv_bundle(&bundle_spec(Variant::Log, false));
        let n = b.events().len();
        let mut found = false;
        'outer: for p in (0..=n).step_by((n / 64).max(1)) {
            for seed in 0..4u64 {
                if b.check_crash(p, seed).is_err() {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "Log (no persist ops) never violated the kv oracle");
    }

    #[test]
    fn elided_checksum_makes_the_oracle_fail() {
        // Corrupt record checksums: replay stops at the first recorded
        // mutation, so any crash image past a durable record recovers
        // short of the guaranteed count. This proves the oracle actually
        // replays the WAL rather than comparing pre/post states.
        let b = record_kv_bundle(&bundle_spec(Variant::LogPSf, true));
        let end = b.events().len();
        let err = b
            .check_crash(end, 0)
            .expect_err("elided checksums must lose guaranteed-durable records");
        assert_eq!(err.kind, ViolationKind::StateMismatch, "{err}");
    }

    #[test]
    fn eager_final_image_is_the_last_state() {
        let b = record_kv_bundle(&bundle_spec(Variant::LogPSf, false));
        let sim = b.trace.at(b.events().len());
        let img = sim.image_everything();
        let n = b.mutation_count();
        b.check_image(&img, n, n)
            .expect("eager final image must be the final state");
    }

    #[test]
    fn torn_meta_falls_back_one_checkpoint() {
        // Quiesce, then hand-tear the newest meta block: recovery must
        // elect the older meta and replay the ring back to the same
        // contents.
        let (mut env, mut w) = run_workload(KvSpec::small(23), Variant::LogPSf);
        w.engine_mut().checkpoint(&mut env);
        let meta = PAddr::new(env.space().read_u64(PmemEnv::root_addr(META_SLOT)));
        let newest = meta.offset((w.engine().ckpt_seq % 2) * BLOCK_SIZE);
        let mut img = env.snapshot();
        img.write_uint(newest.offset(M_CKSUM), 8, 0xBAD);
        let rec = KvEngine::recover(&img).expect("fallback meta must recover");
        assert_eq!(rec.ckpt_seq, w.engine().ckpt_seq - 1);
        assert_eq!(&rec.contents, w.shadow());
    }

    #[test]
    fn both_metas_torn_is_a_structural_error() {
        let (env, w) = run_workload(KvSpec::small(29), Variant::LogPSf);
        let meta = PAddr::new(env.space().read_u64(PmemEnv::root_addr(META_SLOT)));
        let mut img = env.snapshot();
        img.write_uint(meta.offset(M_CKSUM), 8, 1);
        img.write_uint(meta.offset(BLOCK_SIZE + M_CKSUM), 8, 1);
        let _ = w;
        assert!(KvEngine::recover(&img).is_err());
    }

    #[test]
    fn driver_is_deterministic() {
        let (_, a) = run_workload(KvSpec::small(31), Variant::LogPSf);
        let (_, b) = run_workload(KvSpec::small(31), Variant::LogPSf);
        assert_eq!(a.shadow(), b.shadow());
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.mutations, sb.mutations);
        assert_eq!(sa.scan_items, sb.scan_items);
        let (_, c) = run_workload(KvSpec::small(32), Variant::LogPSf);
        assert_ne!(a.shadow(), c.shadow(), "different seeds must diverge");
    }

    #[test]
    fn mix_permilles_are_enforced() {
        let mut spec = KvSpec::small(1);
        spec.mix.read_pm = 999;
        let r = std::panic::catch_unwind(|| KvWorkload::new(spec));
        assert!(r.is_err(), "bad mix must be rejected");
    }
}
