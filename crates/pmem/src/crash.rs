//! Crash simulation: reconstructing possible NVMM images at a failure.
//!
//! In a write-back cache hierarchy, a dirty block *may* be written back
//! to memory at any time — so after a crash, each block's NVMM content is
//! a snapshot of that block at *some* point between its last *guaranteed*
//! persist and the crash, independently per block. A persist is
//! guaranteed only by the full `clwb; sfence; pcommit; sfence` dance
//! (§2.2): the first fence orders the writeback before the `pcommit`, and
//! the second fence awaits the `pcommit` acknowledgement.
//!
//! [`Frontier`] is that rule as a state machine: it moves each flush
//! through `issued -> (sfence) -> ordered -> (pcommit) -> in-flight ->
//! (sfence) -> guaranteed` and is the only place the transitions are
//! written down. A trace is checked in two steps: record it as a
//! [`CrashTrace`], then call [`CrashTrace::at`] at every crash point.
//!
//! - [`CrashIndex`] runs the frontier over the whole trace once and
//!   keeps, per block, its store positions (each with its ordinal among
//!   the trace's stores) and its guarantee history.
//!   The guaranteed stage max-merges, so a block's guarantee only grows
//!   as the crash point moves later, and its value at any crash point is
//!   one binary search away.
//! - [`CrashTrace`] owns a base image, the trace recorded over it (its
//!   timing-only events and the store values beside them) and the
//!   trace's index, which the first [`CrashTrace::at`] builds and
//!   every later call reuses: a sweep over any number of crash points is
//!   linear in the trace rather than quadratic. Its index also holds
//!   block snapshots: at each entry of a block's guarantee history, the
//!   block's 64 bytes with every store before that guarantee applied.
//!   The guarantee is the snapshot's *key*. They cost 64 B per guarantee
//!   change and are built with the index, never at recording.
//! - [`CrashSim`] is a crash trace at one crash point: it reads each
//!   block's guaranteed-persist frontier from the index and materializes
//!   candidate NVMM images by choosing a per-block cut anywhere between
//!   the frontier and the crash. A block's content at a cut is the last
//!   snapshot keyed at or below the cut plus the stores between key and
//!   cut, whose values are read by ordinal from the trace's store
//!   values: one block copy plus the block's unguaranteed tail, never a
//!   replay of its whole store prefix.
//!
//! Recovery correctness tests assert that *every* such image recovers to
//! a consistent structure. Callers that need more than the frontier (the
//! persist-path optimizer classifies every flush by how it fared)
//! observe each stage merge through [`Frontier::step`]'s callback.
//!
//! Writebacks are modelled as 64-byte-atomic (a whole cache line reaches
//! the write-pending queue at once), the standard assumption in the
//! persistency-model literature; sub-line tearing is out of scope.
//!
//! The three flush instructions carry different ordering baggage
//! (§2.2): `clwb` and `clflushopt` are weakly ordered and need the
//! first `sfence` to order the writeback before a `pcommit`, while
//! legacy `clflush` is serializing with respect to a later `pcommit`
//! on its own — its writeback enters the ordered stage directly, and
//! only the trailing `sfence` (awaiting the `pcommit` acknowledgement)
//! is still required for a durability guarantee.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

use crate::addr::{BlockId, BLOCK_SIZE};
use crate::event::{Event, Trace};
use crate::rng::splitmix64;
use crate::space::Space;

/// A stage of the writeback pipeline a flush passes through on its way
/// to durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStage {
    /// Issued by `clwb`/`clflushopt`; a later `pcommit` may overtake it.
    Issued,
    /// Ordered before the next `pcommit`: by an `sfence`, or at once for
    /// a legacy `clflush`.
    Ordered,
    /// Swept into the write-pending queue by a `pcommit` whose
    /// acknowledgement has not yet been awaited.
    InFlight,
    /// Acknowledged by a fence after the `pcommit`: certainly durable.
    Guaranteed,
}

/// The per-block guaranteed-persist frontier of a trace prefix, advanced
/// one event at a time.
///
/// Each stage holds, per block, the newest flush index that reached it;
/// a flush entering a stage that already holds one for its block is
/// max-merged with it. Only the [`FlushStage::Guaranteed`] stage affects
/// crash images.
#[derive(Debug, Default)]
pub struct Frontier {
    /// Flush index held per block, indexed by `FlushStage as usize`.
    stages: [HashMap<BlockId, usize>; 4],
}

impl Frontier {
    /// Advances the machine over event `idx` of the trace. Every flush
    /// that enters a stage is reported as `merge(stage, block, flush,
    /// held)`, where `held` is the flush index the stage held for
    /// `block` before the merge (the stage keeps the larger of the two).
    /// Events other than flushes, `pcommit` and fences change nothing.
    pub fn step(
        &mut self,
        idx: usize,
        ev: &Event,
        mut merge: impl FnMut(FlushStage, BlockId, usize, Option<usize>),
    ) {
        use FlushStage::*;
        match *ev {
            Event::Clwb { addr } | Event::ClflushOpt { addr } => {
                self.enter(Issued, addr.block(), idx, &mut merge);
            }
            // Legacy clflush is ordered with respect to a later pcommit
            // without an intervening sfence (Intel SDM): it skips the
            // issued stage.
            Event::Clflush { addr } => self.enter(Ordered, addr.block(), idx, &mut merge),
            Event::Pcommit => self.advance(Ordered, InFlight, &mut merge),
            Event::Sfence | Event::Mfence => {
                self.advance(InFlight, Guaranteed, &mut merge);
                self.advance(Issued, Ordered, &mut merge);
            }
            _ => {}
        }
    }

    /// The guaranteed-persist frontier of `block`, as an *exclusive*
    /// event index: every store to the block strictly before it is
    /// certainly in NVMM. Blocks never persisted return 0 — no store
    /// precedes index 0, so only the base image is certain. (The
    /// exclusive convention matters: a guaranteed flush at event `i`
    /// covers the stores before it, and an inclusive default of 0
    /// would silently claim a store at trace index 0 always persists —
    /// an off-by-one the Px86 litmus harness caught.)
    pub fn guarantee(&self, block: BlockId) -> usize {
        let guaranteed = &self.stages[FlushStage::Guaranteed as usize];
        guaranteed.get(&block).copied().unwrap_or(0)
    }

    /// Would a fence here drain nothing? True when no flush is waiting
    /// in the issued or in-flight stage.
    pub fn fence_is_empty(&self) -> bool {
        self.stages[FlushStage::Issued as usize].is_empty()
            && self.stages[FlushStage::InFlight as usize].is_empty()
    }

    /// Moves every flush held in `from` into `to`.
    fn advance(
        &mut self,
        from: FlushStage,
        to: FlushStage,
        merge: &mut impl FnMut(FlushStage, BlockId, usize, Option<usize>),
    ) {
        let mut moving = std::mem::take(&mut self.stages[from as usize]);
        for (b, i) in moving.drain() {
            self.enter(to, b, i, merge);
        }
        self.stages[from as usize] = moving; // keep the allocation
    }

    /// Max-merges flush `i` of block `b` into `stage`, reporting the merge.
    fn enter(
        &mut self,
        stage: FlushStage,
        b: BlockId,
        i: usize,
        merge: &mut impl FnMut(FlushStage, BlockId, usize, Option<usize>),
    ) {
        match self.stages[stage as usize].entry(b) {
            Entry::Occupied(mut e) => {
                merge(stage, b, i, Some(*e.get()));
                *e.get_mut() = i.max(*e.get());
            }
            Entry::Vacant(v) => {
                merge(stage, b, i, None);
                v.insert(i);
            }
        }
    }
}

/// One cache line's contents.
type Line = [u8; BLOCK_SIZE as usize];

/// One block's crash-relevant history in a [`CrashIndex`].
#[derive(Debug, Clone)]
struct BlockHistory {
    block: BlockId,
    /// `(event position, store ordinal)` of the block's stores,
    /// ascending: the ordinal counts the trace's stores before this one
    /// and indexes its value.
    stores: Vec<(u32, u32)>,
    /// `(event idx, new guarantee)` pairs, ascending in both fields: a
    /// crash after event `idx` sees the block's guarantee at `new`.
    guarantees: Vec<(u32, u32)>,
    /// One snapshot per `guarantees` entry, keyed by its new guarantee:
    /// the base block with every store before the key applied. Empty in
    /// an index built without a base image.
    snapshots: Vec<Line>,
}

impl BlockHistory {
    fn new(block: BlockId) -> Self {
        BlockHistory {
            block,
            stores: Vec::new(),
            guarantees: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Position of the block's first store; `usize::MAX` for a block
    /// that was only ever flushed.
    fn first_store(&self) -> usize {
        self.stores.first().map_or(usize::MAX, |&(s, _)| s as usize)
    }

    /// The guarantee at crash point `crash_idx`: the last change made by
    /// an event strictly before it (events `..crash_idx` have run).
    fn guarantee_at(&self, crash_idx: usize) -> usize {
        let n = self
            .guarantees
            .partition_point(|&(idx, _)| (idx as usize) < crash_idx);
        n.checked_sub(1)
            .map_or(0, |last| self.guarantees[last].1 as usize)
    }

    /// The block's stores strictly before event `cut`.
    fn stores_before(&self, cut: usize) -> &[(u32, u32)] {
        &self.stores[..self.stores.partition_point(|&(s, _)| (s as usize) < cut)]
    }

    /// The block's bytes in `trace`'s base image.
    fn base_line(&self, trace: &CrashTrace) -> Line {
        let mut line = [0; BLOCK_SIZE as usize];
        trace.base.read_bytes(self.block.base(), &mut line);
        line
    }

    /// Takes one snapshot per guarantee change, in one pass over the
    /// block's stores.
    fn take_snapshots(&mut self, trace: &CrashTrace) {
        let mut line = self.base_line(trace);
        let mut stores = self.stores.iter().peekable();
        self.snapshots = self
            .guarantees
            .iter()
            .map(|&(_, key)| {
                while let Some(&store) = stores.next_if(|&&(pos, _)| pos < key) {
                    trace.apply_store(&mut line, store);
                }
                line
            })
            .collect();
    }

    /// The block's contents with every store before `cut` applied: the
    /// last snapshot keyed at or below `cut` (the base block below the
    /// first key) plus the stores in `[key, cut)`.
    fn line_at(&self, cut: usize, trace: &CrashTrace) -> Line {
        let n = self
            .guarantees
            .partition_point(|&(_, key)| (key as usize) <= cut);
        let (mut line, key) = match n.checked_sub(1) {
            Some(i) => (self.snapshots[i], self.guarantees[i].1 as usize),
            None => (self.base_line(trace), 0),
        };
        let tail = self.stores_before(cut);
        let from = tail.partition_point(|&(s, _)| (s as usize) < key);
        for &store in &tail[from..] {
            trace.apply_store(&mut line, store);
        }
        line
    }
}

/// A recorded trace indexed for crash checks at any point, built by one
/// [`Frontier`] pass.
///
/// For every block it holds the ascending event positions of the
/// block's stores, each with its store ordinal (its position among all
/// the trace's stores), and the block's guarantee history as `(event
/// idx, new guarantee)` pairs. The [`FlushStage::Guaranteed`] stage max-merges,
/// so a guarantee never decreases as the crash point moves later: the
/// guarantee at any crash point is the last history entry before it (a
/// binary search), and the stores a crash image applies are a prefix of
/// the block's store list. A [`CrashSim`] at any crash point then costs
/// nothing to set up, where re-running the frontier over each prefix is
/// quadratic in the number of crash points.
///
/// Store values are not copied: a [`CrashSim`] reads each one by its
/// ordinal, in O(1), from the store values its [`CrashTrace`] owns, which
/// also builds this index. Blocks are kept in first-store order, so the
/// blocks dirty at a crash point are a prefix of them.
///
/// The index a [`CrashTrace`] builds also snapshots each block over the
/// trace's base image, once per guarantee-history entry: the snapshot
/// keyed by guarantee `g` is the base block with every store before
/// event `g` applied. That costs 64 B per guarantee change (about 460
/// per KV crash bundle), where a snapshot after every store would cost
/// 64 B per store. Build an index directly, with no base and no
/// snapshots, only to read store counts and guarantee changes without
/// materializing any image:
///
/// ```
/// use spp_pmem::{CrashIndex, PmemEnv, Variant};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let a = env.alloc_block();
/// env.store_u64(a, 7);
/// env.clwb(a);
/// env.sfence();
/// env.pcommit();
/// env.sfence();
/// let trace = env.take_trace();
///
/// let index = CrashIndex::new(&trace.events);
/// let changes = index.guarantee_changes();
/// assert_eq!(changes.len(), 1, "the trailing sfence guarantees the store");
/// let (_, block, g) = changes[0];
/// assert_eq!((block, index.stores_before(block, g)), (a.block(), 1));
/// ```
#[derive(Debug, Clone)]
pub struct CrashIndex {
    /// Stored-to blocks in first-store order, then the blocks that were
    /// only ever flushed (by block address).
    blocks: Vec<BlockHistory>,
    /// Position of each block in `blocks`.
    slot: HashMap<BlockId, usize>,
}

impl CrashIndex {
    /// Indexes `events` in one [`Frontier`] pass.
    ///
    /// # Panics
    ///
    /// Panics if `events` holds more than `u32::MAX` events: positions
    /// are stored as `u32` to keep the index small. Panics on a store
    /// that is not 8-byte aligned or not 1 to 8 bytes wide: such a store
    /// could straddle two blocks, and images are built block by block.
    pub fn new(events: &[Event]) -> Self {
        assert!(
            u32::try_from(events.len()).is_ok(),
            "CrashIndex stores u32 event positions: a trace of {} events is too long",
            events.len()
        );
        let mut by_block: HashMap<BlockId, BlockHistory> = HashMap::new();
        let mut frontier = Frontier::default();
        // Store ordinals are at most positions, so they fit in u32 too.
        let mut ord = 0u32;
        for (idx, ev) in events.iter().enumerate() {
            // Positions fit in u32: the trace length was checked above.
            let pos = idx as u32;
            if let Event::Store { addr, size } = *ev {
                // Snapshots are per line: no store may straddle two.
                assert!(
                    addr.raw() % 8 == 0 && (1..=8).contains(&size),
                    "crash analysis needs 8-byte-aligned stores of 1..=8 bytes, \
                     got {size} bytes at {:#x} (event {idx})",
                    addr.raw()
                );
                let b = addr.block();
                let h = by_block.entry(b).or_insert_with(|| BlockHistory::new(b));
                h.stores.push((pos, ord));
                ord += 1;
            }
            frontier.step(idx, ev, |stage, b, flush, held| {
                if stage != FlushStage::Guaranteed {
                    return;
                }
                let g = held.map_or(flush, |old| old.max(flush)) as u32;
                let h = by_block.entry(b).or_insert_with(|| BlockHistory::new(b));
                if h.guarantees.last().map_or(0, |&(_, last)| last) < g {
                    h.guarantees.push((pos, g));
                }
            });
        }
        let mut blocks: Vec<BlockHistory> = by_block.into_values().collect();
        blocks.sort_unstable_by_key(|h| (h.first_store(), h.block.raw()));
        let slot = blocks
            .iter()
            .enumerate()
            .map(|(i, h)| (h.block, i))
            .collect();
        CrashIndex { blocks, slot }
    }

    /// Indexes `trace`'s events like [`CrashIndex::new`] and snapshots
    /// every block over its base image at each of its guarantee changes.
    fn with_snapshots(trace: &CrashTrace) -> Self {
        let mut index = CrashIndex::new(&trace.events);
        for h in &mut index.blocks {
            h.take_snapshots(trace);
        }
        index
    }

    /// The blocks stored to before `crash_idx`: a prefix of `blocks`.
    fn dirty(&self, crash_idx: usize) -> &[BlockHistory] {
        let n = self.blocks.partition_point(|h| h.first_store() < crash_idx);
        &self.blocks[..n]
    }

    fn block(&self, block: BlockId) -> Option<&BlockHistory> {
        self.slot.get(&block).map(|&i| &self.blocks[i])
    }

    /// The number of stores to `block` strictly before event `cut`: with
    /// a guarantee as `cut`, the stores certainly durable.
    pub fn stores_before(&self, block: BlockId, cut: usize) -> usize {
        self.block(block).map_or(0, |h| h.stores_before(cut).len())
    }

    /// Every guarantee change of the trace as `(event idx, block, new
    /// guarantee)`, in event order: from a crash after event `idx` on,
    /// `block`'s guarantee is the new one.
    pub fn guarantee_changes(&self) -> Vec<(usize, BlockId, usize)> {
        let mut changes: Vec<(usize, BlockId, usize)> = self
            .blocks
            .iter()
            .flat_map(|h| {
                h.guarantees
                    .iter()
                    .map(|&(idx, g)| (idx as usize, h.block, g as usize))
            })
            .collect();
        changes.sort_unstable_by_key(|&(idx, b, _)| (idx, b.raw()));
        changes
    }
}

/// A base image and the trace recorded over it, ready to be crashed at
/// any point.
///
/// The first [`CrashTrace::at`] builds the trace's [`CrashIndex`] and
/// every later one reuses it; a trace that is never crashed is never
/// indexed. The base image is assumed fully durable (e.g. a freshly
/// populated and quiesced structure).
///
/// ```
/// use spp_pmem::{persist_boundaries, CrashTrace, PmemEnv, Variant};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let a = env.alloc_block();
/// let base = env.snapshot();
/// env.store_u64(a, 7);
/// env.clwb(a);
/// env.sfence();
/// env.pcommit();
/// env.sfence();
/// let trace = CrashTrace::new(base, env.take_trace());
///
/// // Build the crash trace once, then crash it at every boundary.
/// for crash in persist_boundaries(trace.events()) {
///     let sim = trace.at(crash);
///     let v = sim.image_guaranteed_only().read_u64(a);
///     assert_eq!(v == 7, sim.guarantee(a.block()) > 0);
/// }
/// ```
#[derive(Debug)]
pub struct CrashTrace {
    base: Space,
    events: Vec<Event>,
    /// The value of each store in `events`, in program order.
    values: Vec<u64>,
    /// `events` indexed, built at the first [`CrashTrace::at`].
    index: OnceLock<CrashIndex>,
}

impl CrashTrace {
    /// Pairs the pre-trace image `base` with the trace recorded over it,
    /// keeping its events and store values. The index is not built here.
    ///
    /// # Panics
    ///
    /// Panics unless the trace holds one value per store.
    pub fn new(base: Space, trace: Trace) -> Self {
        assert_eq!(
            trace.values.len() as u64,
            trace.counts.stores,
            "a crash trace needs one value per store"
        );
        CrashTrace {
            base,
            events: trace.events,
            values: trace.values,
            index: OnceLock::new(),
        }
    }

    /// The pre-trace image.
    pub fn base(&self) -> &Space {
        &self.base
    }

    /// The recorded trace (crash points range over
    /// `0..=events().len()`).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The value of each store of [`CrashTrace::events`], in program
    /// order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Applies the store at `(event position, store ordinal)` to the
    /// line holding it. [`CrashIndex::new`] checks that every store lies
    /// within one line.
    fn apply_store(&self, line: &mut Line, (pos, ord): (u32, u32)) {
        if let Event::Store { addr, size } = self.events[pos as usize] {
            let off = addr.block_offset() as usize;
            let n = size as usize;
            line[off..off + n].copy_from_slice(&self.values[ord as usize].to_le_bytes()[..n]);
        }
    }

    /// The trace crashed after its first `crash_idx` events. The first
    /// call indexes the trace; later calls reuse that index.
    ///
    /// # Panics
    ///
    /// Panics if `crash_idx > events().len()`.
    pub fn at(&self, crash_idx: usize) -> CrashSim<'_> {
        assert!(
            crash_idx <= self.events.len(),
            "crash index past end of trace"
        );
        CrashSim {
            trace: self,
            index: self.index.get_or_init(|| CrashIndex::with_snapshots(self)),
            crash_idx,
        }
    }
}

/// A [`CrashTrace`] crashed at one point: the guarantees that hold
/// there and the NVMM images the crash may leave.
///
/// ```
/// use spp_pmem::{CrashTrace, PmemEnv, Variant, recover};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let node = env.alloc_block();
/// let base = env.snapshot();
/// env.tx_begin(0);
/// env.tx_log(node, 8);
/// env.tx_set_logged();
/// env.store_u64(node, 42);
/// env.clwb(node);
/// env.tx_commit();
///
/// let layout = env.log_layout();
/// let trace = CrashTrace::new(base, env.take_trace());
/// // Crash anywhere: the adversarial image must recover consistently.
/// for crash in 0..=trace.events().len() {
///     let mut img = trace.at(crash).image_guaranteed_only();
///     recover(&mut img, &layout);
///     let v = img.read_u64(node);
///     assert!(v == 0 || v == 42, "torn value {v}");
/// }
/// ```
#[derive(Debug)]
pub struct CrashSim<'a> {
    trace: &'a CrashTrace,
    index: &'a CrashIndex,
    crash_idx: usize,
}

impl CrashSim<'_> {
    /// The guaranteed-persist frontier of `block` at the crash (see
    /// [`Frontier::guarantee`]).
    pub fn guarantee(&self, block: BlockId) -> usize {
        self.index
            .block(block)
            .map_or(0, |h| h.guarantee_at(self.crash_idx))
    }

    /// Builds an NVMM image choosing, for each dirty block, a cut point
    /// via `choose(block, frontier, crash_idx)`. The returned cut is
    /// clamped into `[frontier, crash_idx]`; all stores to the block
    /// strictly before the cut are applied (cuts are exclusive, like
    /// the frontier, so `frontier` itself applies exactly the
    /// guaranteed stores and `crash_idx` applies everything).
    ///
    /// Each dirty block costs one block copy plus its unguaranteed
    /// tail: the block's last snapshot keyed at or below the cut (see
    /// [`CrashIndex`]), or the base block for a cut below the first key,
    /// then the stores in `[key, cut)`. The frontier is itself a key, so
    /// the guaranteed-only image applies no store at all.
    ///
    /// `choose` is called once per dirty block, in first-store order;
    /// blocks not yet stored to at the crash are never visited.
    pub fn image_with(&self, mut choose: impl FnMut(BlockId, usize, usize) -> usize) -> Space {
        let mut img = self.trace.base.clone();
        for h in self.index.dirty(self.crash_idx) {
            let g = h.guarantee_at(self.crash_idx);
            let cut = choose(h.block, g, self.crash_idx).clamp(g, self.crash_idx);
            let line = h.line_at(cut, self.trace);
            img.write_bytes(h.block.base(), &line);
        }
        img
    }

    /// The adversarial "slowest possible writeback" image: each block
    /// contains only its guaranteed stores.
    pub fn image_guaranteed_only(&self) -> Space {
        self.image_with(|_, g, _| g)
    }

    /// A seeded adversarial reordering: every dirty block's cut point is
    /// drawn independently and uniformly from `[frontier, crash_idx]`
    /// by hashing `(seed, block)`, so blocks race ahead of or lag behind
    /// each other in every combination the persistency model allows
    /// (x86-TSO-persistency-style per-line writeback freedom).
    ///
    /// The schedule is a pure function of `(seed, block)` — identical
    /// seeds reproduce identical images, which is what makes fuzzing
    /// witnesses replayable.
    pub fn image_seeded(&self, seed: u64) -> Space {
        self.image_with(|b, g, c| {
            let x = splitmix64(seed ^ b.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            g + (x as usize) % (c - g + 1).max(1)
        })
    }

    /// The "eager writeback" image: every store up to the crash reached
    /// NVMM (as if the cache wrote everything back instantly).
    pub fn image_everything(&self) -> Space {
        self.image_with(|_, _, crash| crash)
    }

    /// Blocks that were stored to before the crash, in first-store
    /// order, with their guaranteed frontiers (diagnostics and test
    /// enumeration).
    pub fn dirty_blocks(&self) -> impl Iterator<Item = (BlockId, usize)> + '_ {
        let c = self.crash_idx;
        self.index
            .dirty(c)
            .iter()
            .map(move |h| (h.block, h.guarantee_at(c)))
    }

    /// The distinct cut points of `block`: its guaranteed frontier plus
    /// one cut just past every store at or after the frontier (cuts are
    /// exclusive). Any cut in `[frontier, crash_idx]` produces the same
    /// image as the largest cut point at or below it, so these exhaust
    /// the block's possible post-crash contents. A clean block has the
    /// single cut `0`.
    pub fn cut_points(&self, block: BlockId) -> Vec<usize> {
        let g = self.guarantee(block);
        let mut pts = vec![g];
        if let Some(h) = self.index.block(block) {
            let stores = h.stores_before(self.crash_idx);
            let unguaranteed = &stores[stores.partition_point(|&(s, _)| (s as usize) < g)..];
            pts.extend(unguaranteed.iter().map(|&(s, _)| s as usize + 1));
        }
        pts
    }

    /// Exhaustively enumerates every post-crash image the per-block cut
    /// freedom allows — the cross product of [`CrashSim::cut_points`]
    /// over all dirty blocks — and calls `visit` on each. This is the
    /// ground truth the seeded sampler ([`CrashSim::image_seeded`]) and
    /// the litmus checker's reachable-state sets are pinned against.
    ///
    /// The enumeration is exponential in the number of dirty blocks;
    /// callers are expected to use it on small traces only (litmus
    /// programs, property tests).
    pub fn for_each_image(&self, mut visit: impl FnMut(&Space)) {
        let mut blocks: Vec<BlockId> = self.dirty_blocks().map(|(b, _)| b).collect();
        blocks.sort_unstable_by_key(|b| b.raw());
        let cuts: Vec<Vec<usize>> = blocks.iter().map(|&b| self.cut_points(b)).collect();
        let mut chosen: HashMap<BlockId, usize> = HashMap::new();
        self.enumerate_images(&blocks, &cuts, 0, &mut chosen, &mut visit);
    }

    fn enumerate_images(
        &self,
        blocks: &[BlockId],
        cuts: &[Vec<usize>],
        depth: usize,
        chosen: &mut HashMap<BlockId, usize>,
        visit: &mut impl FnMut(&Space),
    ) {
        if depth == blocks.len() {
            let img = self.image_with(|b, g, _| chosen.get(&b).copied().unwrap_or(g));
            visit(&img);
            return;
        }
        for &cut in &cuts[depth] {
            chosen.insert(blocks[depth], cut);
            self.enumerate_images(blocks, cuts, depth + 1, chosen, visit);
        }
        chosen.remove(&blocks[depth]);
    }
}

/// The sorted, deduplicated crash indices at which durability state can
/// change: just before and just after every persistence-relevant event
/// (flushes, `pcommit`, fences, transaction markers), clamped to
/// `0..=events.len()`. Crashing *between* two consecutive boundary
/// points is indistinguishable from crashing at the earlier one as far
/// as guarantees go (only plain stores happen in between, which are
/// never guaranteed), so sweeping these points exhausts every
/// guarantee-frontier configuration a trace can produce.
pub fn persist_boundaries(events: &[Event]) -> Vec<usize> {
    let mut points = vec![0, events.len()];
    for (i, ev) in events.iter().enumerate() {
        let interesting = ev.is_persist_op()
            || ev.is_fence()
            || matches!(ev, Event::TxBegin(_) | Event::TxEnd(_));
        if interesting {
            points.push(i);
            points.push(i + 1);
        }
    }
    points.sort_unstable();
    points.dedup();
    points.retain(|&p| p <= events.len());
    points
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::addr::PAddr;
    use crate::env::PmemEnv;
    use crate::variant::Variant;

    /// clwb alone (no fences/pcommit) guarantees nothing.
    #[test]
    fn clwb_without_barrier_guarantees_nothing() {
        let mut env = PmemEnv::new(Variant::LogP); // no fences in this build
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert_eq!(sim.guarantee(a.block()), 0);
        // Worst case: the store never made it.
        assert_eq!(sim.image_guaranteed_only().read_u64(a), 0);
        // Best case: it did.
        assert_eq!(sim.image_everything().read_u64(a), 5);
    }

    /// The full clwb;sfence;pcommit;sfence sequence guarantees the store.
    #[test]
    fn full_sequence_guarantees_store() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert!(sim.guarantee(a.block()) > 0);
        assert_eq!(sim.image_guaranteed_only().read_u64(a), 5);
    }

    /// Without the first sfence, the writeback may land after the
    /// pcommit flushed the queue: no guarantee.
    #[test]
    fn missing_first_fence_breaks_guarantee() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit(); // clwb not yet ordered!
        env.sfence();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// Without the second sfence, the pcommit may not have completed.
    #[test]
    fn missing_second_fence_breaks_guarantee() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// A store after the clwb is not covered by the guarantee.
    #[test]
    fn later_store_not_guaranteed() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        env.store_u64(a, 9); // newer, unpersisted
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        let img = sim.image_guaranteed_only();
        assert_eq!(img.read_u64(a), 5);
        assert_eq!(sim.image_everything().read_u64(a), 9);
    }

    /// Blocks are independent: one may be stale while another is fresh.
    #[test]
    fn per_block_independence() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 2);
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        let img = sim.image_with(|blk, g, crash| if blk == a.block() { crash } else { g });
        assert_eq!(img.read_u64(a), 1);
        assert_eq!(img.read_u64(b), 0);
    }

    /// Crash index bounds the visible stores even in the eager image.
    #[test]
    fn crash_idx_truncates() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1); // event 1 (alloc emitted a Compute first)
        env.store_u64(a, 2);
        let trace = CrashTrace::new(base, env.take_trace());
        let store_idxs: Vec<usize> = trace
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::Store { .. }))
            .map(|(i, _)| i)
            .collect();
        let sim = trace.at(store_idxs[1]);
        assert_eq!(sim.image_everything().read_u64(a), 1);
    }

    #[test]
    fn image_with_clamps_wild_cuts() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        // A chooser returning usize::MAX is clamped to the crash point.
        let img = sim.image_with(|_, _, _| usize::MAX);
        assert_eq!(img.read_u64(a), 1);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn crash_idx_validated() {
        let _ = CrashTrace::new(Space::new(), Trace::new()).at(1);
    }

    #[test]
    #[should_panic(expected = "one value per store")]
    fn a_trace_without_its_store_values_is_rejected() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        let mut t = env.take_trace();
        t.values.clear();
        let _ = CrashTrace::new(base, t);
    }

    /// `new` leaves the index unbuilt (recording a trace that is never
    /// crashed costs no index); the first `at` builds it and every later
    /// one reuses the same allocation.
    #[test]
    fn index_is_built_at_the_first_crash_and_reused() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        let trace = CrashTrace::new(base, env.take_trace());
        assert!(trace.index.get().is_none(), "new must not index");
        let first: *const CrashIndex = trace.at(0).index;
        assert!(std::ptr::eq(trace.index.get().unwrap(), first));
        for c in 1..=trace.events().len() {
            assert!(std::ptr::eq(trace.at(c).index, first), "re-indexed at {c}");
        }
    }

    /// A trace whose one block is guaranteed twice: the first guarantee
    /// covers the store of 1, the second the stores of 2 and 3. The
    /// last store (4) is never guaranteed.
    fn twice_guaranteed() -> (PAddr, CrashTrace) {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        env.set_recording(false);
        env.store_u64(a.offset(8), 99); // base content beside the word
        env.set_recording(true);
        let base = env.snapshot();
        for v in [1, 2, 3, 4] {
            env.store_u64(a, v);
            if v % 2 == 1 {
                env.clwb(a);
                env.sfence();
                env.pcommit();
                env.sfence();
            }
        }
        (a, CrashTrace::new(base, env.take_trace()))
    }

    /// The crash trace snapshots a block once per guarantee change and
    /// a base-free index snapshots nothing.
    #[test]
    fn snapshots_are_one_line_per_guarantee_change() {
        let (a, trace) = twice_guaranteed();
        let h = trace.at(0).index.block(a.block()).unwrap();
        assert_eq!(h.guarantees.len(), 2, "v = 1 and 3 are persisted");
        assert_eq!(h.snapshots.len(), h.guarantees.len());
        let bare = CrashIndex::new(trace.events());
        assert!(bare.block(a.block()).unwrap().snapshots.is_empty());
    }

    /// At every crash point, every cut of the block — below the first
    /// snapshot key, on a key and between keys — reads the last store
    /// before it, beside the untouched base word.
    #[test]
    fn images_cut_below_on_and_between_snapshot_keys() {
        let (a, trace) = twice_guaranteed();
        let events = trace.events();
        let stored = |cut: usize| {
            let stores = events[..cut].iter().filter_map(|e| match *e {
                Event::Store { addr, .. } => Some(addr),
                _ => None,
            });
            stores
                .zip(trace.values())
                .filter(|&(addr, _)| addr == a)
                .last()
                .map_or(0, |(_, &v)| v)
        };
        for crash in 0..=events.len() {
            let sim = trace.at(crash);
            for cut in sim.guarantee(a.block())..=crash {
                let img = sim.image_with(|_, _, _| cut);
                assert_eq!(img.read_u64(a), stored(cut), "crash {crash} cut {cut}");
                assert_eq!(img.read_u64(a.offset(8)), 99, "crash {crash} cut {cut}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "8-byte-aligned stores of 1..=8 bytes")]
    fn misaligned_store_is_rejected() {
        let addr = PAddr::new(4096 + 60);
        let _ = CrashIndex::new(&[Event::Store { addr, size: 4 }]);
    }

    #[test]
    #[should_panic(expected = "8-byte-aligned stores of 1..=8 bytes")]
    fn oversized_store_is_rejected() {
        let addr = PAddr::new(4096 + 56);
        let _ = CrashIndex::new(&[Event::Store { addr, size: 9 }]);
    }

    /// Legacy `clflush` is ordered before a later `pcommit` on its own:
    /// `clflush; pcommit; sfence` guarantees the store with no first
    /// fence, unlike `clwb`/`clflushopt`.
    #[test]
    fn flushmode_guarantees_diverge_without_first_fence() {
        use crate::FlushMode;
        for (mode, expect_guaranteed) in [
            (FlushMode::Clwb, false),
            (FlushMode::ClflushOpt, false),
            (FlushMode::Clflush, true),
        ] {
            let mut env = PmemEnv::new(Variant::LogPSf);
            env.set_flush_mode(mode);
            let a = env.alloc_block();
            let base = env.snapshot();
            env.store_u64(a, 5);
            env.clwb(a); // emits the configured flush instruction
            env.pcommit(); // no sfence between flush and pcommit
            env.sfence();
            let trace = CrashTrace::new(base, env.take_trace());
            let sim = trace.at(trace.events().len());
            assert_eq!(
                sim.guarantee(a.block()) > 0,
                expect_guaranteed,
                "{mode}: flush; pcommit; sfence guarantee"
            );
        }
    }

    /// With the full `flush; sfence; pcommit; sfence` dance, all three
    /// flush modes guarantee the store identically.
    #[test]
    fn all_flushmodes_guarantee_with_full_barrier() {
        use crate::FlushMode;
        for mode in FlushMode::ALL {
            let mut env = PmemEnv::new(Variant::LogPSf);
            env.set_flush_mode(mode);
            let a = env.alloc_block();
            let base = env.snapshot();
            env.store_u64(a, 5);
            env.clwb(a);
            env.sfence();
            env.pcommit();
            env.sfence();
            let trace = CrashTrace::new(base, env.take_trace());
            let sim = trace.at(trace.events().len());
            assert!(sim.guarantee(a.block()) > 0, "{mode}: full barrier");
            assert_eq!(sim.image_guaranteed_only().read_u64(a), 5, "{mode}");
        }
    }

    /// Even for clflush, the trailing sfence (pcommit acknowledgement)
    /// is still load-bearing: `clflush; pcommit` alone guarantees
    /// nothing.
    #[test]
    fn clflush_without_trailing_fence_not_guaranteed() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_flush_mode(crate::FlushMode::Clflush);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.pcommit();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    /// A clflush with no pcommit at all is never guaranteed, fences or
    /// not: ordering is not durability.
    #[test]
    fn clflush_alone_is_not_durable() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_flush_mode(crate::FlushMode::Clflush);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.sfence();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        assert_eq!(sim.guarantee(a.block()), 0);
    }

    #[test]
    fn seeded_images_are_deterministic_and_bounded() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 2);
        env.store_u64(a, 3);
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        for seed in 0..64u64 {
            let img1 = sim.image_seeded(seed);
            let img2 = sim.image_seeded(seed);
            for addr in [a, b] {
                assert_eq!(img1.read_u64(addr), img2.read_u64(addr), "seed {seed}");
            }
            // Every per-block value must be one of that block's
            // prefix-consistent contents.
            assert!(matches!(img1.read_u64(a), 0 | 1 | 3));
            assert!(matches!(img1.read_u64(b), 0 | 2));
        }
        // With enough seeds, the cuts actually vary (not all-stale).
        let varied = (0..64u64).any(|s| sim.image_seeded(s).read_u64(a) != 0);
        assert!(varied, "seeded schedules never moved past the frontier");
    }

    #[test]
    fn seeded_image_respects_guarantee_frontier() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        for seed in 0..32u64 {
            assert_eq!(sim.image_seeded(seed).read_u64(a), 5, "seed {seed}");
        }
    }

    #[test]
    fn persist_boundaries_bracket_every_durability_event() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 8);
        env.tx_set_logged();
        env.store_u64(a, 1);
        env.clwb(a);
        env.tx_commit();
        let trace = env.take_trace();
        let pts = persist_boundaries(&trace.events);
        // Sorted, deduplicated, bounded.
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*pts.first().unwrap(), 0);
        assert_eq!(*pts.last().unwrap(), trace.events.len());
        // Every persist op / fence / tx marker is bracketed.
        for (i, ev) in trace.events.iter().enumerate() {
            if ev.is_persist_op()
                || ev.is_fence()
                || matches!(ev, Event::TxBegin(_) | Event::TxEnd(_))
            {
                assert!(pts.contains(&i), "missing point before event {i}");
                assert!(pts.contains(&(i + 1)), "missing point after event {i}");
            }
        }
    }

    #[test]
    fn cut_points_are_frontier_plus_later_stores() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        env.store_u64(a, 2);
        env.store_u64(a, 3);
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        let g = sim.guarantee(a.block());
        assert!(g > 0);
        let pts = sim.cut_points(a.block());
        assert_eq!(pts.len(), 3, "frontier + two unguaranteed stores");
        assert_eq!(pts[0], g);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        // A clean block exposes only the trivial cut.
        assert_eq!(
            sim.cut_points(BlockId::new(usize::MAX as u64 & !63)),
            vec![0]
        );
    }

    /// Exhaustive enumeration visits exactly the cross product of
    /// per-block prefix states.
    #[test]
    fn for_each_image_is_the_cut_cross_product() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let b = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 1);
        env.store_u64(b, 10);
        env.store_u64(a, 2);
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        let mut states = std::collections::BTreeSet::new();
        sim.for_each_image(|img| {
            states.insert((img.read_u64(a), img.read_u64(b)));
        });
        // a ∈ {0, 1, 2} independently of b ∈ {0, 10}.
        let expect: std::collections::BTreeSet<(u64, u64)> = [0u64, 1, 2]
            .iter()
            .flat_map(|&x| [0u64, 10].iter().map(move |&y| (x, y)))
            .collect();
        assert_eq!(states, expect);
    }

    /// Satellite: the seeded sampler, swept over a modest seed range,
    /// produces *exactly* the state set the exhaustive enumeration
    /// produces — on every persist boundary of a tiny multi-block trace.
    /// This pins `image_seeded` to the ground truth the litmus checker's
    /// witness replay relies on.
    #[test]
    fn seeded_sweep_matches_exhaustive_enumeration() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let blocks: Vec<PAddr> = (0..4).map(|_| env.alloc_block()).collect();
        let base = env.snapshot();
        env.store_u64(blocks[0], 1);
        env.store_u64(blocks[1], 2);
        env.clwb(blocks[0]);
        env.sfence();
        env.store_u64(blocks[2], 3);
        env.pcommit();
        env.sfence();
        env.store_u64(blocks[3], 4);
        env.store_u64(blocks[0], 5);
        let trace = CrashTrace::new(base, env.take_trace());
        for &crash in &persist_boundaries(trace.events()) {
            let sim = trace.at(crash);
            let state =
                |img: &Space| -> Vec<u64> { blocks.iter().map(|&p| img.read_u64(p)).collect() };
            let mut exhaustive = std::collections::BTreeSet::new();
            sim.for_each_image(|img| {
                exhaustive.insert(state(img));
            });
            let mut sampled = std::collections::BTreeSet::new();
            for seed in 0..4096u64 {
                sampled.insert(state(&sim.image_seeded(seed)));
            }
            assert_eq!(
                sampled, exhaustive,
                "crash {crash}: seeded sweep must cover exactly the exhaustive states"
            );
        }
    }

    /// Runs `events` through a fresh [`Frontier`], collecting every
    /// `(stage, flush, held)` merge report.
    fn merges(events: &[Event]) -> (Frontier, Vec<(FlushStage, usize, Option<usize>)>) {
        let mut f = Frontier::default();
        let mut seen = Vec::new();
        for (idx, ev) in events.iter().enumerate() {
            f.step(idx, ev, |stage, _, i, held| seen.push((stage, i, held)));
        }
        (f, seen)
    }

    /// The callback contract: one report per stage a flush enters, with
    /// the index the stage held for the line before; `fence_is_empty`
    /// holds exactly when the issued and in-flight stages are empty.
    #[test]
    fn frontier_reports_each_stage_entry() {
        use FlushStage::*;
        let a = PAddr::new(4096);
        let dance = [
            Event::Clwb { addr: a },
            Event::Sfence,
            Event::Pcommit,
            Event::Sfence,
        ];
        let (_, seen) = merges(&dance);
        let stages = [Issued, Ordered, InFlight, Guaranteed].map(|s| (s, 0, None));
        assert_eq!(seen, stages);
        let empty: Vec<bool> = (0..=dance.len())
            .map(|n| merges(&dance[..n]).0.fence_is_empty())
            .collect();
        assert_eq!(
            empty,
            [true, false, true, false, true],
            "after nothing, issue, order, pcommit, acknowledgement"
        );

        // A second clwb of the same line merges into the held one.
        let (_, seen) = merges(&[Event::Clwb { addr: a }, Event::Clwb { addr: a }]);
        assert_eq!(seen, [(Issued, 0, None), (Issued, 1, Some(0))]);

        // Legacy clflush is ordered at once, with no fence.
        let (_, seen) = merges(&[Event::Clflush { addr: a }]);
        assert_eq!(seen, [(Ordered, 0, None)]);
    }

    #[test]
    fn dirty_blocks_reports_frontiers() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let a = env.alloc_block();
        let base = env.snapshot();
        env.store_u64(a, 5);
        env.clwb(a);
        env.sfence();
        env.pcommit();
        env.sfence();
        let trace = CrashTrace::new(base, env.take_trace());
        let sim = trace.at(trace.events().len());
        let dirty: Vec<(BlockId, usize)> = sim.dirty_blocks().collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, a.block());
        assert!(dirty[0].1 > 0);
        let _ = PAddr::NULL; // silence unused import in some cfgs
    }
}
