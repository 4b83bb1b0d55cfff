//! Staged transactions: write-set discovery for write-ahead logging.
//!
//! A workload operation runs its algorithm against a [`Staged`] view:
//! reads come from the persistent memory (through the trace recorder),
//! writes are staged in a volatile overlay (registers/stack in a real
//! implementation). When the operation finishes, [`Staged::finish`]
//! drives the four-step WAL protocol of the paper's §3.1:
//!
//! 1. undo-log the *pessimistic* log set — the recorded search path plus
//!    any extra blocks the workload conservatively nominated (the
//!    paper's *full logging* for trees) plus, always, every staged
//!    write block — and make the log durable;
//! 2. durably publish `logged_bit`;
//! 3. apply the staged writes to memory and `clwb` every dirtied block;
//! 4. durably clear `logged_bit`.
//!
//! Because the log set always contains the staged write set, recovery is
//! sound by construction, which the `PmemEnv` strict checks verify at
//! store granularity in debug builds.

use std::collections::{HashMap, HashSet};

use spp_pmem::{BlockId, FastHashBuilder, PAddr, PmemEnv};

/// An in-flight staged transaction (one benchmark operation).
///
/// ```
/// use spp_pmem::{PmemEnv, Variant};
/// use spp_workloads::Staged;
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let cell = env.alloc_block();
/// let mut tx = Staged::begin(&mut env, 0);
/// let old = tx.read(cell);
/// tx.write(cell, old + 1);
/// assert_eq!(tx.read(cell), 1); // reads observe staged writes
/// tx.finish();
/// assert_eq!(env.space().read_u64(cell), 1);
/// ```
#[derive(Debug)]
pub struct Staged<'e> {
    env: &'e mut PmemEnv,
    /// Staged values, keyed by 8-byte granule address.
    overlay: HashMap<u64, u64, FastHashBuilder>,
    /// Granules in first-write order (the order stores are applied).
    write_order: Vec<PAddr>,
    /// Blocks on the structure's search path (full-logging set).
    path: Vec<BlockId>,
    /// Extra blocks conservatively nominated for logging.
    extra: Vec<BlockId>,
    /// Heap watermark at begin: blocks at or above are fresh
    /// allocations and need no undo logging.
    watermark: u64,
}

impl<'e> Staged<'e> {
    /// Opens transaction `id` on `env`.
    pub fn begin(env: &'e mut PmemEnv, id: u64) -> Self {
        let watermark = env.heap_used();
        env.tx_begin(id);
        Staged {
            env,
            overlay: HashMap::default(),
            write_order: Vec::new(),
            path: Vec::new(),
            extra: Vec::new(),
            watermark,
        }
    }

    /// Reads a `u64`. A staged value is served from the overlay (a
    /// register in real code, charged as one compute micro-op); otherwise
    /// this is a load.
    pub fn read(&mut self, addr: PAddr) -> u64 {
        debug_assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        match self.overlay.get(&addr.raw()) {
            Some(&v) => {
                self.env.compute(1);
                v
            }
            None => self.env.load_u64(addr),
        }
    }

    /// Reads a `u64` as part of a pointer chain: the access is marked
    /// address-dependent, so the timing model serializes it behind the
    /// previous dependent load. Use for the first touch of a node whose
    /// address came from a pointer load.
    pub fn read_dep(&mut self, addr: PAddr) -> u64 {
        debug_assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        match self.overlay.get(&addr.raw()) {
            Some(&v) => {
                self.env.compute(1);
                v
            }
            None => {
                self.env.load_ptr(addr).raw() // dependent load
            }
        }
    }

    /// Reads a pointer; an actual memory access is marked
    /// address-dependent (pointer chasing) for the timing model.
    pub fn read_ptr(&mut self, addr: PAddr) -> PAddr {
        debug_assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        match self.overlay.get(&addr.raw()) {
            Some(&v) => {
                self.env.compute(1);
                PAddr::new(v)
            }
            None => self.env.load_ptr(addr),
        }
    }

    /// Stages a `u64` write (one compute micro-op now; the store is
    /// emitted at [`finish`](Self::finish)).
    pub fn write(&mut self, addr: PAddr, value: u64) {
        debug_assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        self.env.compute(1);
        if self.overlay.insert(addr.raw(), value).is_none() {
            self.write_order.push(addr);
        }
    }

    /// Stages a pointer write.
    pub fn write_ptr(&mut self, addr: PAddr, value: PAddr) {
        self.write(addr, value.raw());
    }

    /// Reads `buf.len()` bytes (8-byte-aligned base), honouring staged
    /// writes at granule granularity.
    pub fn read_bytes(&mut self, addr: PAddr, buf: &mut [u8]) {
        assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        assert_eq!(
            buf.len() % 8,
            0,
            "staged byte access must be whole granules"
        );
        for (i, chunk) in buf.chunks_mut(8).enumerate() {
            let v = self.read(addr.offset(8 * i as u64));
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Stages a byte-range write (8-byte-aligned base and length).
    pub fn write_bytes(&mut self, addr: PAddr, buf: &[u8]) {
        assert_eq!(addr.raw() % 8, 0, "staged access must be 8-byte aligned");
        assert_eq!(
            buf.len() % 8,
            0,
            "staged byte access must be whole granules"
        );
        for (i, chunk) in buf.chunks(8).enumerate() {
            let mut g = [0u8; 8];
            g.copy_from_slice(chunk);
            self.write(addr.offset(8 * i as u64), u64::from_le_bytes(g));
        }
    }

    /// Charges `n` non-memory micro-ops (comparisons, branches, ...).
    pub fn compute(&mut self, n: u32) {
        self.env.compute(n);
    }

    /// Allocates one node block inside the transaction. Fresh blocks are
    /// exempt from undo logging (a crash simply leaks them; the paper
    /// assumes no immediate garbage collection).
    pub fn alloc_block(&mut self) -> PAddr {
        self.env.alloc_block()
    }

    /// Allocates `n` contiguous blocks inside the transaction.
    pub fn alloc_blocks(&mut self, n: u64) -> PAddr {
        self.env.alloc_blocks(n)
    }

    /// Records the block containing `addr` as part of the search path
    /// (it will be undo-logged pessimistically — the paper's *full
    /// logging*).
    pub fn note_path(&mut self, addr: PAddr) {
        self.path.push(addr.block());
    }

    /// Nominates an extra block for pessimistic logging (e.g. the
    /// sibling a delete *might* rotate through).
    pub fn log_extra(&mut self, addr: PAddr) {
        if !addr.is_null() {
            self.extra.push(addr.block());
        }
    }

    /// Number of distinct granules staged so far.
    pub fn staged_granules(&self) -> usize {
        self.write_order.len()
    }

    /// Completes the transaction: logs, publishes, applies, persists.
    /// Consumes the staged view; returns the number of blocks logged.
    pub fn finish(self) -> u64 {
        let Staged {
            env,
            overlay,
            write_order,
            path,
            extra,
            watermark,
        } = self;

        // Step 1: undo-log path + extras + write set (fresh blocks
        // skipped; tx_log deduplicates blocks already logged this
        // transaction).
        for b in path
            .into_iter()
            .chain(extra)
            .chain(write_order.iter().map(|a| a.block()))
        {
            if b.base().raw() >= watermark {
                continue; // fresh allocation
            }
            env.tx_log_block(b);
        }
        let logged = env.tx_logged_blocks();

        // Step 2.
        env.tx_set_logged();

        // Step 3: apply stores in first-write order, then persist each
        // dirtied block exactly once, in first-dirtied order. A set
        // backs the dedup: a single transaction can stage an arbitrarily
        // large write set (the HM workload rehashes its whole table in
        // one), so a linear `contains` scan would go quadratic.
        let mut dirty_blocks: Vec<BlockId> = Vec::new();
        let mut dirty_seen: HashSet<BlockId, FastHashBuilder> = HashSet::default();
        for addr in &write_order {
            env.store_u64(*addr, overlay[&addr.raw()]);
            let b = addr.block();
            if dirty_seen.insert(b) {
                dirty_blocks.push(b);
            }
        }
        for b in dirty_blocks {
            env.clwb(b.base());
        }

        // Step 4.
        env.tx_commit();
        logged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_pmem::{recover, CrashTrace, Variant};

    #[test]
    fn read_your_writes() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let mut tx = Staged::begin(&mut env, 0);
        assert_eq!(tx.read(a), 0);
        tx.write(a, 7);
        assert_eq!(tx.read(a), 7);
        assert_eq!(tx.read_ptr(a), PAddr::new(7));
        tx.finish();
        assert_eq!(env.space().read_u64(a), 7);
    }

    #[test]
    fn staged_writes_are_not_visible_until_finish() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let mut tx = Staged::begin(&mut env, 0);
        tx.write(a, 5);
        // finish applies...
        tx.finish();
        assert_eq!(env.space().read_u64(a), 5);
    }

    #[test]
    fn last_staged_value_wins_with_single_store() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let mut tx = Staged::begin(&mut env, 0);
        tx.write(a, 1);
        tx.write(a, 2);
        tx.write(a, 3);
        assert_eq!(tx.staged_granules(), 1);
        tx.finish();
        assert_eq!(env.space().read_u64(a), 3);
        assert_eq!(
            env.trace().counts.stores.saturating_sub(
                // subtract the WAL machinery stores: entry header (2) + data (8)
                // + count + bit set + bit clear
                2 + 8 + 3
            ),
            1
        );
    }

    #[test]
    fn byte_ranges_round_trip() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_blocks(4);
        let data: Vec<u8> = (0..=255).collect();
        let mut tx = Staged::begin(&mut env, 0);
        tx.write_bytes(a, &data);
        let mut back = vec![0u8; 256];
        tx.read_bytes(a, &mut back);
        assert_eq!(back, data);
        tx.finish();
        let mut after = vec![0u8; 256];
        env.space().read_bytes(a, &mut after);
        assert_eq!(after, data);
    }

    #[test]
    fn fresh_blocks_are_not_logged() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let pre = env.alloc_block();
        let mut tx = Staged::begin(&mut env, 0);
        let fresh = tx.alloc_block();
        tx.write(fresh, 1);
        tx.write(pre, fresh.raw());
        let logged = tx.finish();
        assert_eq!(logged, 1, "only the pre-existing block needs logging");
    }

    #[test]
    fn path_blocks_are_logged_even_if_unwritten() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let mut tx = Staged::begin(&mut env, 0);
        tx.note_path(a);
        tx.note_path(b);
        tx.write(a, 1);
        let logged = tx.finish();
        assert_eq!(logged, 2);
    }

    #[test]
    fn crash_anywhere_recovers_atomically() {
        // A 3-cell staged update must be all-or-nothing under recovery.
        let mut env = PmemEnv::new(Variant::LogPSf);
        let cells: Vec<PAddr> = (0..3).map(|_| env.alloc_block()).collect();
        env.set_recording(false);
        for (i, &c) in cells.iter().enumerate() {
            env.store_u64(c, i as u64 + 1);
        }
        env.set_recording(true);
        let base = env.snapshot();
        let mut tx = Staged::begin(&mut env, 0);
        for &c in &cells {
            let v = tx.read(c);
            tx.write(c, v * 100);
        }
        tx.finish();
        let layout = env.log_layout();
        let trace = CrashTrace::new(base, env.take_trace());
        for crash in 0..=trace.events().len() {
            let mut img = trace.at(crash).image_guaranteed_only();
            recover(&mut img, &layout);
            let state: Vec<u64> = cells.iter().map(|&c| img.read_u64(c)).collect();
            assert!(
                state == [1, 2, 3] || state == [100, 200, 300],
                "crash at {crash} left non-atomic state {state:?}"
            );
        }
    }

    #[test]
    fn block_geometry_sanity() {
        assert_eq!(PAddr::new(0).block(), PAddr::new(63).block());
        assert_ne!(PAddr::new(0).block(), PAddr::new(64).block());
    }
}
