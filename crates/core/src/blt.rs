//! The Block Lookup Table (BLT, §4.2.2).
//!
//! While a core speculates, its speculative state must not become
//! visible to other cores, and it must not consume data another core has
//! since modified. The BLT (as in SC++) records every cache block
//! touched by speculative loads and stores; an external coherence
//! request that matches the BLT is an atomicity violation and triggers a
//! rollback to the oldest checkpoint. The table deliberately does not
//! distinguish epochs — any match rolls everything back (the paper keeps
//! the design simple because speculation failure is expected to be
//! extremely rare).

use std::collections::HashSet;

use spp_pmem::{BlockId, FastHashBuilder};

/// BLT statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BltStats {
    /// Blocks recorded (including re-recordings).
    pub records: u64,
    /// Coherence requests checked.
    pub snoops: u64,
    /// Conflicts detected (each triggers a rollback).
    pub conflicts: u64,
    /// Maximum distinct blocks tracked at once.
    pub high_water: usize,
    /// Flash-clears of the table (speculation exits and rollbacks).
    /// `clears > 0` with `conflicts == 0` distinguishes "speculated and
    /// committed cleanly" from "never speculated at all".
    pub clears: u64,
}

/// The block lookup table.
///
/// ```
/// use spp_core::Blt;
/// use spp_pmem::{BlockId, FastHashBuilder};
///
/// let mut blt = Blt::new();
/// blt.record(BlockId::new(7));
/// assert!(blt.snoop(BlockId::new(7)), "conflict: rollback required");
/// assert!(!blt.snoop(BlockId::new(8)));
/// blt.clear();
/// assert!(!blt.snoop(BlockId::new(7)));
/// ```
#[derive(Debug, Default)]
pub struct Blt {
    /// Never iterated, so no result depends on the hash order; the
    /// fixed Fx hash replaces SipHash on the per-speculative-access
    /// insert.
    blocks: HashSet<BlockId, FastHashBuilder>,
    stats: BltStats,
}

impl Blt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a block touched by a speculative load or store.
    pub fn record(&mut self, block: BlockId) {
        self.blocks.insert(block);
        self.stats.records += 1;
        self.stats.high_water = self.stats.high_water.max(self.blocks.len());
    }

    /// Checks an external coherence request; `true` means conflict
    /// (the caller must roll back and [`clear`](Self::clear)).
    pub fn snoop(&mut self, block: BlockId) -> bool {
        self.stats.snoops += 1;
        let hit = self.blocks.contains(&block);
        if hit {
            self.stats.conflicts += 1;
        }
        hit
    }

    /// Distinct blocks currently tracked.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Empties the table (speculation exit or rollback). Every clear is
    /// counted in [`BltStats::clears`] so reports can tell an idle table
    /// from one that was filled and flash-cleared.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.stats.clears += 1;
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BltStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn records_both_reads_and_writes_uniformly() {
        let mut blt = Blt::new();
        blt.record(BlockId::new(1));
        blt.record(BlockId::new(2));
        blt.record(BlockId::new(1)); // idempotent
        assert_eq!(blt.len(), 2);
        assert_eq!(blt.stats().records, 3);
    }

    #[test]
    fn snoop_conflict_counting() {
        let mut blt = Blt::new();
        blt.record(BlockId::new(5));
        assert!(!blt.snoop(BlockId::new(4)));
        assert!(blt.snoop(BlockId::new(5)));
        assert_eq!(blt.stats().snoops, 2);
        assert_eq!(blt.stats().conflicts, 1);
    }

    #[test]
    fn clear_resets_contents_but_not_stats() {
        let mut blt = Blt::new();
        blt.record(BlockId::new(9));
        blt.clear();
        assert!(blt.is_empty());
        assert!(!blt.snoop(BlockId::new(9)));
        assert_eq!(blt.stats().records, 1);
        assert_eq!(blt.stats().high_water, 1);
    }

    #[test]
    fn every_clear_is_counted() {
        let mut blt = Blt::new();
        assert_eq!(blt.stats().clears, 0);
        blt.clear(); // clearing an empty table still counts
        blt.record(BlockId::new(3));
        blt.clear();
        assert_eq!(blt.stats().clears, 2);
        assert_eq!(blt.stats().conflicts, 0, "clears are not conflicts");
    }
}
