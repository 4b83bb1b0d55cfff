//! The Speculative Store Buffer (SSB, §4.2).
//!
//! A FIFO holding speculatively retired stores and delayed PMEM
//! instructions, tagged with the epoch they belong to. Loads executed
//! during speculation snoop the SSB for store-to-load forwarding; on
//! epoch commit the epoch's entries drain to the cache / memory
//! controller in order. Table 3 gives the size/latency design points.

use std::collections::{HashMap, VecDeque};

use spp_pmem::{BlockId, FastHashBuilder, PAddr};

/// Table 3: SSB configurations and parameters.
pub const SSB_DESIGN_POINTS: [(usize, u64); 6] =
    [(32, 2), (64, 3), (128, 4), (256, 5), (512, 7), (1024, 10)];

/// SSB geometry: entry count and CAM+RAM access latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
}

impl SsbConfig {
    /// The Table 3 design point for `entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not one of Table 3's sizes; use the struct
    /// literal for custom points.
    pub fn table3(entries: usize) -> Self {
        let (_, latency) = SSB_DESIGN_POINTS
            .iter()
            .copied()
            .find(|&(e, _)| e == entries)
            .unwrap_or_else(|| panic!("{entries} is not a Table 3 SSB size"));
        SsbConfig { entries, latency }
    }

    /// The paper's default design point (256 entries, 5 cycles — the
    /// "SP256" configuration of Fig. 8).
    pub fn paper_default() -> Self {
        Self::table3(256)
    }
}

/// One operation held in the SSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsbOp {
    /// A speculatively retired store (8-byte granule address).
    Store {
        /// Granule address for store-to-load forwarding.
        addr: PAddr,
    },
    /// A delayed `clwb`, replayed at epoch commit.
    Clwb {
        /// Block to write back.
        block: BlockId,
    },
    /// A delayed `clflushopt`, replayed at epoch commit.
    ClflushOpt {
        /// Block to write back and evict.
        block: BlockId,
    },
    /// A delayed bare `pcommit` (no fence followed it inside the epoch).
    Pcommit,
    /// The combined opcode for an `sfence; pcommit; sfence` sequence
    /// (§4.2.2): instead of burning a checkpoint per fence, one
    /// checkpoint is taken for the trailing sfence and this marker
    /// records that a pcommit must complete before the *next* epoch may
    /// commit.
    SfencePcommitSfence,
}

/// One SSB slot: the operation plus its owning epoch and provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbEntry {
    /// The buffered operation.
    pub op: SsbOp,
    /// The speculative epoch that retired it.
    pub epoch: u64,
    /// Index of the source trace event (the micro-op's `trace_idx`).
    /// Lets the drain stage attribute each writeback to the original
    /// instruction — the persist-visibility log uses this to rebuild a
    /// crash-equivalent event order for `CrashSim`.
    pub trace_idx: usize,
}

/// SSB occupancy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsbStats {
    /// Entries ever inserted.
    pub inserts: u64,
    /// Lookups performed (loads that actually searched the CAM).
    pub lookups: u64,
    /// Lookups that found a matching store.
    pub hits: u64,
    /// Inserts rejected because the buffer was full.
    pub full_rejections: u64,
    /// Maximum occupancy observed.
    pub high_water: usize,
}

/// The speculative store buffer.
///
/// ```
/// use spp_core::{Ssb, SsbConfig, SsbEntry, SsbOp};
/// use spp_pmem::PAddr;
///
/// let mut ssb = Ssb::new(SsbConfig::table3(32));
/// let a = PAddr::new(0x1000);
/// ssb.push(SsbEntry { op: SsbOp::Store { addr: a }, epoch: 0, trace_idx: 0 }).unwrap();
/// assert!(ssb.forwards(a));
/// assert!(!ssb.forwards(PAddr::new(0x2000)));
/// let drained = ssb.drain_epoch(0);
/// assert_eq!(drained.len(), 1);
/// assert!(ssb.is_empty());
/// ```
#[derive(Debug)]
pub struct Ssb {
    cfg: SsbConfig,
    fifo: VecDeque<SsbEntry>,
    /// Buffered `Store` entries per granule address: the CAM, kept up
    /// to date as entries enter and leave `fifo` so a lookup is one
    /// hash probe rather than a walk of the whole buffer. Invariant:
    /// `stores[a]` is the number of `Store { addr: a }` entries in
    /// `fifo`, and no key maps to zero.
    stores: HashMap<PAddr, u32, FastHashBuilder>,
    stats: SsbStats,
}

/// Error returned when pushing into a full SSB; the pipeline must stall
/// (a structural hazard, the cause of small-SSB slowdowns in Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbFull;

impl std::fmt::Display for SsbFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("speculative store buffer is full")
    }
}

impl std::error::Error for SsbFull {}

impl Ssb {
    /// Creates an empty SSB.
    pub fn new(cfg: SsbConfig) -> Self {
        Ssb {
            cfg,
            fifo: VecDeque::with_capacity(cfg.entries),
            stores: HashMap::default(),
            stats: SsbStats::default(),
        }
    }

    /// Adds `e` to the store index if it is a store.
    fn index(&mut self, e: &SsbEntry) {
        if let SsbOp::Store { addr } = e.op {
            *self.stores.entry(addr).or_insert(0) += 1;
        }
    }

    /// Removes `e` (just taken out of `fifo`) from the store index.
    fn unindex(&mut self, e: &SsbEntry) {
        if let SsbOp::Store { addr } = e.op {
            if let Some(n) = self.stores.get_mut(&addr) {
                *n -= 1;
                if *n == 0 {
                    self.stores.remove(&addr);
                }
            }
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> SsbConfig {
        self.cfg
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.cfg.entries - self.fifo.len()
    }

    /// Appends an entry in program order.
    ///
    /// # Errors
    ///
    /// Returns [`SsbFull`] when at capacity; the caller must stall.
    pub fn push(&mut self, entry: SsbEntry) -> Result<(), SsbFull> {
        if self.fifo.len() >= self.cfg.entries {
            self.stats.full_rejections += 1;
            return Err(SsbFull);
        }
        debug_assert!(
            self.fifo.back().is_none_or(|b| b.epoch <= entry.epoch),
            "epochs must be pushed in order"
        );
        self.index(&entry);
        self.fifo.push_back(entry);
        self.stats.inserts += 1;
        self.stats.high_water = self.stats.high_water.max(self.fifo.len());
        Ok(())
    }

    /// CAM lookup: does any buffered store match `addr` (8-byte
    /// granule)? Counts toward lookup statistics — call only when the
    /// bloom filter did not reject the access.
    pub fn forwards(&mut self, addr: PAddr) -> bool {
        self.stats.lookups += 1;
        let hit = self.stores.contains_key(&addr);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Removes and returns all entries of `epoch`, which must be the
    /// oldest epoch present (epochs commit in order).
    ///
    /// # Panics
    ///
    /// Panics (debug) if an older epoch's entries are still buffered.
    pub fn drain_epoch(&mut self, epoch: u64) -> Vec<SsbEntry> {
        debug_assert!(
            self.fifo.front().is_none_or(|f| f.epoch >= epoch),
            "draining an epoch while an older one is still buffered"
        );
        let mut out = Vec::new();
        while self.fifo.front().is_some_and(|f| f.epoch == epoch) {
            if let Some(e) = self.pop_front() {
                out.push(e);
            }
        }
        out
    }

    /// Iterates over the buffered entries in program order (oldest
    /// first), without touching lookup statistics — for invariant
    /// checks and debugging, not for forwarding (use
    /// [`Ssb::forwards`]).
    pub fn iter(&self) -> impl Iterator<Item = &SsbEntry> {
        self.fifo.iter()
    }

    /// The oldest entry, if any (incremental drain).
    pub fn peek_front(&self) -> Option<SsbEntry> {
        self.fifo.front().copied()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<SsbEntry> {
        let e = self.fifo.pop_front()?;
        self.unindex(&e);
        Some(e)
    }

    /// Discards everything (rollback).
    pub fn flush_all(&mut self) {
        self.fifo.clear();
        self.stores.clear();
    }

    /// Discards every entry belonging to epoch `epoch` or younger
    /// (rollback that spares already-committed, still-draining entries).
    pub fn flush_from(&mut self, epoch: u64) {
        while self.fifo.back().is_some_and(|b| b.epoch >= epoch) {
            if let Some(e) = self.fifo.pop_back() {
                self.unindex(&e);
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SsbStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store(addr: u64, epoch: u64) -> SsbEntry {
        SsbEntry {
            op: SsbOp::Store {
                addr: PAddr::new(addr),
            },
            epoch,
            trace_idx: 0,
        }
    }

    #[test]
    fn table3_points() {
        assert_eq!(SsbConfig::table3(32).latency, 2);
        assert_eq!(SsbConfig::table3(256).latency, 5);
        assert_eq!(SsbConfig::table3(1024).latency, 10);
        assert_eq!(SsbConfig::paper_default().entries, 256);
    }

    #[test]
    #[should_panic(expected = "not a Table 3")]
    fn unknown_size_panics() {
        let _ = SsbConfig::table3(48);
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut s = Ssb::new(SsbConfig {
            entries: 2,
            latency: 1,
        });
        s.push(store(8, 0)).unwrap();
        s.push(store(16, 0)).unwrap();
        assert_eq!(s.push(store(24, 0)), Err(SsbFull));
        assert_eq!(s.stats().full_rejections, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.free(), 0);
    }

    #[test]
    fn forwarding_matches_granules() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        s.push(store(0x100, 0)).unwrap();
        assert!(s.forwards(PAddr::new(0x100)));
        assert!(!s.forwards(PAddr::new(0x108)), "different granule");
        assert_eq!(s.stats().lookups, 2);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn drain_removes_only_the_oldest_epoch() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        s.push(store(8, 0)).unwrap();
        s.push(SsbEntry {
            op: SsbOp::Clwb {
                block: BlockId::new(1),
            },
            epoch: 0,
            trace_idx: 0,
        })
        .unwrap();
        s.push(SsbEntry {
            op: SsbOp::SfencePcommitSfence,
            epoch: 0,
            trace_idx: 0,
        })
        .unwrap();
        s.push(store(64, 1)).unwrap();
        let e0 = s.drain_epoch(0);
        assert_eq!(e0.len(), 3);
        assert_eq!(e0[2].op, SsbOp::SfencePcommitSfence);
        assert_eq!(s.len(), 1);
        assert!(s.forwards(PAddr::new(64)), "younger epoch still buffered");
        let e1 = s.drain_epoch(1);
        assert_eq!(e1.len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn drain_preserves_program_order() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        for i in 0..5 {
            s.push(store(i * 8, 0)).unwrap();
        }
        let drained = s.drain_epoch(0);
        let addrs: Vec<u64> = drained
            .iter()
            .map(|e| match e.op {
                SsbOp::Store { addr } => addr.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![0, 8, 16, 24, 32]);
    }

    #[test]
    fn flush_all_clears_for_rollback() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        s.push(store(8, 0)).unwrap();
        s.push(store(8, 1)).unwrap();
        s.flush_all();
        assert!(s.is_empty());
        assert!(!s.forwards(PAddr::new(8)));
    }

    #[test]
    fn incremental_pop_and_peek() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        s.push(store(8, 0)).unwrap();
        s.push(store(16, 0)).unwrap();
        assert_eq!(s.peek_front(), Some(store(8, 0)));
        assert_eq!(s.pop_front(), Some(store(8, 0)));
        assert_eq!(s.pop_front(), Some(store(16, 0)));
        assert_eq!(s.pop_front(), None);
    }

    #[test]
    fn flush_from_spares_older_epochs() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        s.push(store(8, 0)).unwrap();
        s.push(store(16, 1)).unwrap();
        s.push(store(24, 2)).unwrap();
        s.flush_from(1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek_front(), Some(store(8, 0)));
    }

    /// Two granules in each of two blocks, plus one never stored to.
    const POOL: [u64; 5] = [0x1000, 0x1008, 0x1040, 0x1048, 0x2000];

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push a store to pool granule `.0` (or, when `.1`, a `Clwb`
        /// of its block), opening a new epoch first when `.2`.
        Push(usize, bool, bool),
        PopFront,
        /// Drain the oldest buffered epoch.
        DrainOldest,
        /// Flush from `.0` epochs before the current one.
        FlushFrom(u64),
        FlushAll,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Pushes outnumber removals so the buffer often fills up.
        let push = (0..POOL.len(), any::<bool>(), 0u8..5)
            .prop_map(|(a, clwb, bump)| Op::Push(a, clwb, bump == 0));
        prop_oneof![
            push.clone(),
            push.clone(),
            push,
            Just(Op::PopFront),
            Just(Op::DrainOldest),
            (0u64..3).prop_map(Op::FlushFrom),
            Just(Op::FlushAll),
        ]
    }

    proptest! {
        /// The store index answers exactly what a linear scan of the
        /// buffer would, after every operation that adds or removes
        /// entries, and counts lookups and hits the same way.
        #[test]
        fn index_matches_a_linear_scan(ops in proptest::collection::vec(arb_op(), 0..200)) {
            let mut s = Ssb::new(SsbConfig { entries: 8, latency: 1 });
            let mut epoch = 0u64;
            let (mut lookups, mut hits) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Push(i, clwb, bump) => {
                        epoch += u64::from(bump);
                        let addr = PAddr::new(POOL[i]);
                        let op = if clwb {
                            SsbOp::Clwb { block: addr.block() }
                        } else {
                            SsbOp::Store { addr }
                        };
                        let _ = s.push(SsbEntry { op, epoch, trace_idx: 0 });
                    }
                    Op::PopFront => {
                        let _ = s.pop_front();
                    }
                    Op::DrainOldest => {
                        if let Some(f) = s.peek_front() {
                            s.drain_epoch(f.epoch);
                        }
                    }
                    Op::FlushFrom(back) => s.flush_from(epoch.saturating_sub(back)),
                    Op::FlushAll => s.flush_all(),
                }
                for raw in POOL {
                    let a = PAddr::new(raw);
                    let scan = s
                        .iter()
                        .any(|e| matches!(e.op, SsbOp::Store { addr } if addr == a));
                    lookups += 1;
                    hits += u64::from(scan);
                    prop_assert_eq!(s.forwards(a), scan, "granule {:#x}", raw);
                }
                prop_assert_eq!(s.stats().lookups, lookups);
                prop_assert_eq!(s.stats().hits, hits);
            }
        }
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = Ssb::new(SsbConfig::table3(32));
        for i in 0..7 {
            s.push(store(i * 8, 0)).unwrap();
        }
        s.drain_epoch(0);
        assert_eq!(s.stats().high_water, 7);
        assert!(s.is_empty());
    }
}
