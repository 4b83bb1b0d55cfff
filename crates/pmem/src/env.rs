//! The persistent-memory execution environment.
//!
//! [`PmemEnv`] is what workload code programs against: it provides
//! loads/stores into the shadow [`Space`], emits the micro-op trace
//! consumed by the timing simulator, gates persistence instructions by
//! build [`Variant`], and implements the four-step write-ahead-logging
//! transaction protocol of §3.1:
//!
//! 1. `tx_begin` + `tx_log*` — write undo records, make them durable;
//! 2. `tx_set_logged` — publish `logged_bit = 1` durably;
//! 3. workload stores + `clwb` — mutate and persist the structure;
//! 4. `tx_commit` — clear `logged_bit` durably.

use std::collections::HashSet;

use crate::addr::{blocks_covering, BlockId, PAddr, BLOCK_SIZE};
use crate::event::{Event, Trace};
use crate::hash::FastHashBuilder;
use crate::space::Space;
use crate::undo::{LogLayout, INDEX_STRIDE};
use crate::variant::Variant;

/// Number of 8-byte root-directory slots at address 0.
pub const ROOT_SLOTS: usize = 8;

const ROOT_DIR: PAddr = PAddr::new(0);
const LOG_HEADER: PAddr = PAddr::new(BLOCK_SIZE);
const DEFAULT_LOG_CAPACITY: u64 = 1024;

/// Micro-ops charged for an allocation (bump-pointer arithmetic).
const ALLOC_COMPUTE: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Idle,
    Logging,
    Mutating,
}

/// The persistent-memory programming environment.
///
/// See the module docs for the transaction protocol. All memory
/// effects are functional and immediate (they update the shadow
/// [`Space`]); timing is attributed later by replaying the recorded
/// [`Trace`] through `spp-cpu`.
///
/// ```
/// use spp_pmem::{PmemEnv, Variant};
///
/// let mut env = PmemEnv::new(Variant::LogPSf);
/// let node = env.alloc_block();
/// env.tx_begin(0);
/// env.tx_log(node, 8);
/// env.tx_set_logged();
/// env.store_u64(node, 42);
/// env.clwb(node);
/// env.tx_commit();
/// assert_eq!(env.space().read_u64(node), 42);
/// assert!(env.trace().counts.pcommits >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct PmemEnv {
    space: Space,
    variant: Variant,
    trace: Trace,
    recording: bool,
    next_alloc: u64,
    log_capacity: u64,
    log_count: u64,
    tx_state: TxState,
    tx_id: u64,
    logged: HashSet<BlockId, FastHashBuilder>,
    fresh: HashSet<BlockId, FastHashBuilder>,
    strict_checks: bool,
    flush_mode: crate::FlushMode,
}

impl PmemEnv {
    /// Creates an environment with the default undo-log capacity
    /// (1024 block entries).
    pub fn new(variant: Variant) -> Self {
        Self::with_log_capacity(variant, DEFAULT_LOG_CAPACITY)
    }

    /// Creates an environment with an explicit undo-log capacity.
    ///
    /// # Panics
    ///
    /// Panics if `log_capacity` is zero.
    pub fn with_log_capacity(variant: Variant, log_capacity: u64) -> Self {
        assert!(log_capacity > 0, "log capacity must be positive");
        let layout = LogLayout::contiguous(LOG_HEADER, log_capacity);
        let region_end = LOG_HEADER.raw() + layout.region_len();
        let next_alloc = region_end.div_ceil(4096) * 4096;
        PmemEnv {
            space: Space::new(),
            variant,
            trace: Trace::new(),
            recording: true,
            next_alloc,
            log_capacity,
            log_count: 0,
            tx_state: TxState::Idle,
            tx_id: 0,
            logged: HashSet::default(),
            fresh: HashSet::default(),
            strict_checks: cfg!(debug_assertions),
            flush_mode: crate::FlushMode::default(),
        }
    }

    /// The build variant this environment gates on.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Rebrands the environment to a different build variant.
    ///
    /// This is the harness's setup-cache escape hatch: the fast-forward
    /// population phase is functionally identical across variants except
    /// for the undo-log bytes it writes — and nothing reads those
    /// outside an open transaction — so one populated image can seed
    /// recordings of every variant. Switching is only sound while no
    /// transaction is open and no events have been recorded; both are
    /// asserted.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open or the trace is non-empty.
    pub fn set_variant(&mut self, v: Variant) {
        assert_eq!(
            self.tx_state,
            TxState::Idle,
            "cannot switch variant mid-transaction"
        );
        assert!(
            self.trace.is_empty(),
            "cannot switch variant after events were recorded"
        );
        self.variant = v;
    }

    /// Location of the undo log, for [`crate::recover`].
    pub fn log_layout(&self) -> LogLayout {
        LogLayout::contiguous(LOG_HEADER, self.log_capacity)
    }

    /// Whether events are currently being recorded into the trace.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Enables or disables trace recording. The paper runs the
    /// `#InitOps` population phase in "fast-forward" (recording off) and
    /// records only the `#SimOps` measurement phase.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Enables or disables the transactional write-coverage checks
    /// (defaults to on in debug builds). With checks on, a store during
    /// the mutation phase to a block that was neither undo-logged nor
    /// freshly allocated in this transaction panics — catching workload
    /// logging bugs that would make recovery unsound.
    pub fn set_strict_checks(&mut self, on: bool) {
        self.strict_checks = on;
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one in place.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// The functional memory contents.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Clones the functional memory contents (e.g. as a crash-simulation
    /// starting image).
    pub fn snapshot(&self) -> Space {
        self.space.clone()
    }

    fn emit(&mut self, ev: Event) {
        if self.recording {
            self.trace.push(ev);
        }
    }

    /// Emits a store event together with the value it writes.
    fn emit_store(&mut self, addr: PAddr, size: u8, value: u64) {
        if self.recording {
            self.trace.push_store(addr, size, value);
        }
    }

    /// Emits a block writeback in the configured [`crate::FlushMode`].
    fn emit_flush(&mut self, base: PAddr) {
        debug_assert_eq!(base.block_offset(), 0);
        self.emit(match self.flush_mode {
            crate::FlushMode::Clwb => Event::Clwb { addr: base },
            crate::FlushMode::ClflushOpt => Event::ClflushOpt { addr: base },
            crate::FlushMode::Clflush => Event::Clflush { addr: base },
        });
    }

    // ---- allocation ------------------------------------------------

    /// Allocates `size` bytes, 8-byte aligned. Memory is never freed
    /// (the paper assumes deleted nodes are not immediately garbage
    /// collected so a failed transaction can reclaim them).
    pub fn alloc(&mut self, size: u64) -> PAddr {
        self.alloc_aligned(size, 8)
    }

    /// Allocates one 64-byte, block-aligned node (Table 1 sizes every
    /// node at one cache block).
    pub fn alloc_block(&mut self) -> PAddr {
        self.alloc_aligned(BLOCK_SIZE, BLOCK_SIZE)
    }

    /// Allocates `n` contiguous cache blocks, block-aligned.
    pub fn alloc_blocks(&mut self, n: u64) -> PAddr {
        self.alloc_aligned(n * BLOCK_SIZE, BLOCK_SIZE)
    }

    fn alloc_aligned(&mut self, size: u64, align: u64) -> PAddr {
        assert!(size > 0, "zero-size allocation");
        let base = self.next_alloc.div_ceil(align) * align;
        self.next_alloc = base + size;
        let addr = PAddr::new(base);
        if self.tx_state != TxState::Idle {
            for b in blocks_covering(addr, size) {
                self.fresh.insert(b);
            }
        }
        self.emit(Event::Compute(ALLOC_COMPUTE));
        addr
    }

    /// Bytes allocated so far (high-water mark of the heap).
    pub fn heap_used(&self) -> u64 {
        self.next_alloc
    }

    // ---- root directory ---------------------------------------------

    /// Address of root-directory slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= ROOT_SLOTS`.
    pub fn root_addr(slot: usize) -> PAddr {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        ROOT_DIR.offset(8 * slot as u64)
    }

    /// Loads the pointer stored in root slot `slot` (a dependent load).
    pub fn root(&mut self, slot: usize) -> PAddr {
        self.load_ptr(Self::root_addr(slot))
    }

    /// Stores a pointer into root slot `slot`.
    pub fn set_root(&mut self, slot: usize, a: PAddr) {
        self.store_u64(Self::root_addr(slot), a.raw());
    }

    // ---- loads, stores, compute --------------------------------------

    /// Emits `n` non-memory micro-ops.
    pub fn compute(&mut self, n: u32) {
        if n > 0 {
            self.emit(Event::Compute(n));
        }
    }

    /// Loads a `u64`, with no address dependence on earlier loads.
    pub fn load_u64(&mut self, addr: PAddr) -> u64 {
        self.emit(Event::Load {
            addr,
            size: 8,
            dep: false,
        });
        self.space.read_u64(addr)
    }

    /// Loads a pointer. Marked address-dependent: in the timing model it
    /// cannot issue before the previous load completes (pointer chasing).
    pub fn load_ptr(&mut self, addr: PAddr) -> PAddr {
        self.emit(Event::Load {
            addr,
            size: 8,
            dep: true,
        });
        PAddr::new(self.space.read_u64(addr))
    }

    /// Stores a `u64`.
    ///
    /// # Panics
    ///
    /// With strict checks enabled, panics if called during the mutation
    /// phase of a logged transaction on a block that was neither logged
    /// nor freshly allocated.
    pub fn store_u64(&mut self, addr: PAddr, value: u64) {
        self.check_store(addr);
        self.raw_store(addr, 8, value);
    }

    /// Stores a pointer.
    pub fn store_ptr(&mut self, addr: PAddr, value: PAddr) {
        self.store_u64(addr, value.raw());
    }

    /// Loads `buf.len()` bytes as a sequence of up-to-8-byte loads.
    /// `addr` must be 8-byte aligned.
    pub fn load_bytes(&mut self, addr: PAddr, buf: &mut [u8]) {
        assert_eq!(addr.raw() % 8, 0, "load_bytes requires 8-byte alignment");
        let mut off = 0usize;
        while off < buf.len() {
            let n = usize::min(8, buf.len() - off);
            let a = addr.offset(off as u64);
            self.emit(Event::Load {
                addr: a,
                size: n as u8,
                dep: false,
            });
            self.space.read_bytes(a, &mut buf[off..off + n]);
            off += n;
        }
    }

    /// Stores `buf` as a sequence of up-to-8-byte stores. `addr` must be
    /// 8-byte aligned.
    pub fn store_bytes(&mut self, addr: PAddr, buf: &[u8]) {
        assert_eq!(addr.raw() % 8, 0, "store_bytes requires 8-byte alignment");
        let mut off = 0usize;
        while off < buf.len() {
            let n = usize::min(8, buf.len() - off);
            let a = addr.offset(off as u64);
            self.check_store(a);
            let mut chunk = [0u8; 8];
            chunk[..n].copy_from_slice(&buf[off..off + n]);
            self.emit_store(a, n as u8, u64::from_le_bytes(chunk));
            self.space.write_bytes(a, &buf[off..off + n]);
            off += n;
        }
    }

    fn raw_store(&mut self, addr: PAddr, size: u8, value: u64) {
        self.emit_store(addr, size, value);
        self.space.write_uint(addr, size, value);
    }

    fn check_store(&self, addr: PAddr) {
        if !self.strict_checks || !self.variant.has_logging() {
            return;
        }
        match self.tx_state {
            TxState::Idle => {}
            TxState::Logging => panic!(
                "store to {addr} during the logging phase: data mutations must come after \
                 tx_set_logged()"
            ),
            TxState::Mutating => {
                let b = addr.block();
                assert!(
                    self.logged.contains(&b) || self.fresh.contains(&b),
                    "store to unlogged, non-fresh block {b} ({addr}) during the mutation phase: \
                     recovery would be unsound"
                );
            }
        }
    }

    // ---- persistence instructions -------------------------------------

    /// Selects the instruction emitted for block writebacks (default
    /// `clwb`, the paper's choice; see [`crate::FlushMode`]).
    pub fn set_flush_mode(&mut self, mode: crate::FlushMode) {
        self.flush_mode = mode;
    }

    /// Writes the block containing `addr` back using the configured
    /// [`crate::FlushMode`] (emitted only in `Log+P` and `Log+P+Sf` builds).
    /// The default mode makes this a `clwb`.
    pub fn clwb(&mut self, addr: PAddr) {
        if self.variant.has_persist_ops() {
            let a = addr.block_base();
            self.emit(match self.flush_mode {
                crate::FlushMode::Clwb => Event::Clwb { addr: a },
                crate::FlushMode::ClflushOpt => Event::ClflushOpt { addr: a },
                crate::FlushMode::Clflush => Event::Clflush { addr: a },
            });
        }
    }

    /// `clflushopt` of the block containing `addr` (variant-gated like
    /// [`clwb`](Self::clwb)).
    pub fn clflushopt(&mut self, addr: PAddr) {
        if self.variant.has_persist_ops() {
            self.emit(Event::ClflushOpt {
                addr: addr.block_base(),
            });
        }
    }

    /// `pcommit` (variant-gated).
    pub fn pcommit(&mut self) {
        if self.variant.has_persist_ops() {
            self.emit(Event::Pcommit);
        }
    }

    /// `sfence` (emitted only in the `Log+P+Sf` build).
    pub fn sfence(&mut self) {
        if self.variant.has_fences() {
            self.emit(Event::Sfence);
        }
    }

    /// `mfence` (emitted only in the `Log+P+Sf` build).
    pub fn mfence(&mut self) {
        if self.variant.has_fences() {
            self.emit(Event::Mfence);
        }
    }

    /// The persist barrier of §2.2: `sfence; pcommit; sfence` in the
    /// full build, a bare `pcommit` in `Log+P`, nothing otherwise.
    pub fn persist_barrier(&mut self) {
        self.sfence();
        self.pcommit();
        self.sfence();
    }

    // ---- transactions --------------------------------------------------

    /// Begins transaction `id` (step 1 starts). In `Base` builds this
    /// only emits the (free) trace marker.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn tx_begin(&mut self, id: u64) {
        assert_eq!(
            self.tx_state,
            TxState::Idle,
            "nested transactions are not supported"
        );
        self.emit(Event::TxBegin(id));
        self.tx_id = id;
        if self.variant.has_logging() {
            self.tx_state = TxState::Logging;
            self.log_count = 0;
            self.logged.clear();
            self.fresh.clear();
        }
    }

    /// Undo-logs every cache block overlapping `[addr, addr + len)`.
    /// Blocks already logged in this transaction are skipped. No-op in
    /// `Base` builds.
    ///
    /// # Panics
    ///
    /// Panics if called outside the logging phase, or if the undo log
    /// capacity is exceeded.
    pub fn tx_log(&mut self, addr: PAddr, len: u64) {
        if !self.variant.has_logging() {
            return;
        }
        assert_eq!(
            self.tx_state,
            TxState::Logging,
            "tx_log must be called between tx_begin and tx_set_logged"
        );
        let layout = self.log_layout();
        for b in blocks_covering(addr, len) {
            if !self.logged.insert(b) {
                continue;
            }
            assert!(
                self.log_count < self.log_capacity,
                "undo log capacity exceeded"
            );
            let i = self.log_count;
            self.log_count += 1;
            // Index entry: target address and length.
            let ie = layout.index_entry(i);
            self.raw_store(ie, 8, b.base().raw());
            self.raw_store(ie.offset(8), 8, BLOCK_SIZE);
            // Copy the old block contents. The trace records the copy as
            // 8-byte load/store pairs (that is what the core executes);
            // the shadow memory takes the block in one bulk write, which
            // is equivalent because the data entry never aliases the
            // source block (the log region is reserved below the heap).
            let de = layout.data_entry(i);
            let mut blk = [0u8; BLOCK_SIZE as usize];
            self.space.read_bytes(b.base(), &mut blk);
            for j in 0..(BLOCK_SIZE / 8) {
                self.emit(Event::Load {
                    addr: b.base().offset(j * 8),
                    size: 8,
                    dep: false,
                });
                let off = (j * 8) as usize;
                let mut w = [0u8; 8];
                w.copy_from_slice(&blk[off..off + 8]);
                self.emit_store(de.offset(j * 8), 8, u64::from_le_bytes(w));
                self.emit(Event::Compute(1));
            }
            self.space.write_bytes(de, &blk);
            // Persist the data slot now; index blocks are flushed once,
            // at tx_set_logged (they pack four entries per block).
            if self.variant.has_persist_ops() {
                self.emit_flush(de);
            }
            self.emit(Event::Compute(2));
        }
    }

    /// Undo-logs one whole cache block.
    pub fn tx_log_block(&mut self, block: BlockId) {
        self.tx_log(block.base(), BLOCK_SIZE);
    }

    /// Number of undo entries written by the open transaction so far.
    pub fn tx_logged_blocks(&self) -> u64 {
        self.log_count
    }

    /// Ends step 1 and performs step 2: persist the undo entries, then
    /// durably publish `entry_count` and `logged_bit = 1`.
    ///
    /// # Panics
    ///
    /// Panics if called outside the logging phase.
    pub fn tx_set_logged(&mut self) {
        if !self.variant.has_logging() {
            return;
        }
        assert_eq!(
            self.tx_state,
            TxState::Logging,
            "tx_set_logged without tx_begin"
        );
        // Flush the index blocks covering the entries written this
        // transaction (four packed entries per block).
        if self.variant.has_persist_ops() && self.log_count > 0 {
            let layout = self.log_layout();
            for b in blocks_covering(layout.index_entry(0), self.log_count * INDEX_STRIDE) {
                self.emit_flush(b.base());
            }
        }
        // Step 1 barrier: undo entries durable before the bit is set.
        self.persist_barrier();
        // Step 2: count and bit share the header block, so one persist
        // publishes both atomically.
        self.raw_store(LOG_HEADER.offset(8), 8, self.log_count);
        self.raw_store(LOG_HEADER, 8, 1);
        if self.variant.has_persist_ops() {
            self.emit_flush(LOG_HEADER.block_base());
        }
        self.persist_barrier();
        self.tx_state = TxState::Mutating;
    }

    /// Ends step 3 and performs step 4: persist the data updates (the
    /// workload has already issued its `clwb`s), then durably clear
    /// `logged_bit`.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is not in its mutation phase (in logged
    /// builds).
    pub fn tx_commit(&mut self) {
        if self.variant.has_logging() {
            assert_eq!(
                self.tx_state,
                TxState::Mutating,
                "tx_commit without tx_set_logged"
            );
            // Step 3 barrier: data updates durable before the bit clears.
            self.persist_barrier();
            // Step 4: clear the bit.
            self.raw_store(LOG_HEADER, 8, 0);
            if self.variant.has_persist_ops() {
                self.emit_flush(LOG_HEADER.block_base());
            }
            self.persist_barrier();
            self.tx_state = TxState::Idle;
        }
        self.emit(Event::TxEnd(self.tx_id));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn count_of(trace: &Trace, pred: impl Fn(&Event) -> bool) -> usize {
        trace.events.iter().filter(|e| pred(e)).count()
    }

    #[test]
    fn allocation_is_aligned_and_monotonic() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let b = env.alloc_block();
        assert_eq!(a.raw() % 64, 0);
        assert_eq!(b.raw() % 64, 0);
        assert!(b.raw() >= a.raw() + 64);
        assert!(a.raw() >= env.log_layout().region_len());
    }

    #[test]
    fn full_tx_emits_four_pcommits_and_eight_sfences() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let node = env.alloc_block();
        env.tx_begin(7);
        env.tx_log(node, 64);
        env.tx_set_logged();
        env.store_u64(node, 9);
        env.clwb(node);
        env.tx_commit();
        let t = env.trace();
        assert_eq!(t.counts.pcommits, 4);
        assert_eq!(t.counts.fences, 8);
        assert!(t.counts.flushes >= 4); // entry blocks + header twice + node
    }

    #[test]
    fn logp_variant_has_pcommits_but_no_fences() {
        let mut env = PmemEnv::new(Variant::LogP);
        let node = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(node, 64);
        env.tx_set_logged();
        env.store_u64(node, 9);
        env.clwb(node);
        env.tx_commit();
        assert_eq!(env.trace().counts.pcommits, 4);
        assert_eq!(env.trace().counts.fences, 0);
        assert!(env.trace().counts.flushes > 0);
    }

    #[test]
    fn log_variant_has_logging_stores_but_no_persist_ops() {
        let mut env = PmemEnv::new(Variant::Log);
        let node = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(node, 64);
        env.tx_set_logged();
        env.store_u64(node, 9);
        env.clwb(node);
        env.tx_commit();
        let c = env.trace().counts;
        assert_eq!(c.pcommits, 0);
        assert_eq!(c.fences, 0);
        assert_eq!(c.flushes, 0);
        assert!(c.stores > 8, "log copies should appear as stores");
    }

    #[test]
    fn base_variant_emits_only_data_accesses() {
        let mut env = PmemEnv::new(Variant::Base);
        let node = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(node, 64); // no-op
        env.tx_set_logged(); // no-op
        env.store_u64(node, 9);
        env.clwb(node); // no-op
        env.tx_commit();
        let c = env.trace().counts;
        assert_eq!(c.stores, 1);
        assert_eq!(c.pcommits + c.fences + c.flushes, 0);
    }

    #[test]
    fn logging_copies_old_values_into_entries() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let node = env.alloc_block();
        env.store_u64(node, 0x1111);
        env.store_u64(node.offset(8), 0x2222);
        env.tx_begin(0);
        env.tx_log(node, 16);
        let layout = env.log_layout();
        assert_eq!(env.tx_logged_blocks(), 1);
        let ie = layout.index_entry(0);
        assert_eq!(env.space().read_u64(ie), node.raw());
        assert_eq!(env.space().read_u64(ie.offset(8)), 64);
        let de = layout.data_entry(0);
        assert_eq!(env.space().read_u64(de), 0x1111);
        assert_eq!(env.space().read_u64(de.offset(8)), 0x2222);
        env.tx_set_logged();
        assert_eq!(env.space().read_u64(layout.logged_bit()), 1);
        env.store_u64(node, 0x3333);
        env.clwb(node);
        env.tx_commit();
        assert_eq!(env.space().read_u64(layout.logged_bit()), 0);
    }

    #[test]
    fn duplicate_logging_is_deduplicated() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        let node = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(node, 64);
        env.tx_log(node.offset(32), 8);
        assert_eq!(env.tx_logged_blocks(), 1);
        env.tx_set_logged();
        env.store_u64(node, 1);
        env.clwb(node);
        env.tx_commit();
    }

    #[test]
    #[should_panic(expected = "unlogged")]
    fn strict_checks_catch_unlogged_store() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_strict_checks(true);
        let a = env.alloc_block();
        let b = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 64);
        env.tx_set_logged();
        env.store_u64(b, 1); // b was never logged
    }

    #[test]
    fn fresh_allocations_are_exempt_from_logging() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_strict_checks(true);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 64);
        env.tx_set_logged();
        let fresh = env.alloc_block();
        env.store_u64(fresh, 123);
        env.clwb(fresh);
        env.store_u64(a, fresh.raw());
        env.clwb(a);
        env.tx_commit();
    }

    #[test]
    #[should_panic(expected = "logging phase")]
    fn strict_checks_catch_mutation_during_logging() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_strict_checks(true);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.store_u64(a, 1);
    }

    #[test]
    fn fast_forward_suppresses_events_but_updates_memory() {
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_recording(false);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 64);
        env.tx_set_logged();
        env.store_u64(a, 5);
        env.clwb(a);
        env.tx_commit();
        assert!(env.trace().is_empty());
        assert_eq!(env.space().read_u64(a), 5);
    }

    #[test]
    fn barrier_shape_per_variant() {
        for (variant, fences, pcommits) in [
            (Variant::Base, 0u64, 0u64),
            (Variant::Log, 0, 0),
            (Variant::LogP, 0, 1),
            (Variant::LogPSf, 2, 1),
        ] {
            let mut env = PmemEnv::new(variant);
            env.persist_barrier();
            assert_eq!(env.trace().counts.fences, fences, "{variant}");
            assert_eq!(env.trace().counts.pcommits, pcommits, "{variant}");
        }
    }

    #[test]
    fn roots_round_trip() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        env.set_root(3, a);
        assert_eq!(env.root(3), a);
    }

    #[test]
    fn dependent_loads_are_marked() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc_block();
        let _ = env.load_ptr(a);
        let _ = env.load_u64(a);
        let deps: Vec<bool> = env
            .trace()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Load { dep, .. } => Some(*dep),
                _ => None,
            })
            .collect();
        assert_eq!(deps, vec![true, false]);
    }

    #[test]
    fn byte_io_round_trips_and_chunks() {
        let mut env = PmemEnv::new(Variant::Base);
        let a = env.alloc(256);
        let data: Vec<u8> = (0..=255).collect();
        env.store_bytes(a, &data);
        let mut back = vec![0u8; 256];
        env.load_bytes(a, &mut back);
        assert_eq!(back, data);
        assert_eq!(env.trace().counts.stores, 32);
        assert_eq!(env.trace().counts.loads, 32);
    }

    #[test]
    fn clwb_targets_block_base() {
        let mut env = PmemEnv::new(Variant::LogP);
        let a = env.alloc_block();
        env.clwb(a.offset(17));
        assert_eq!(
            count_of(
                env.trace(),
                |e| matches!(e, Event::Clwb { addr } if *addr == a)
            ),
            1
        );
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn log_overflow_panics() {
        let mut env = PmemEnv::with_log_capacity(Variant::Log, 1);
        let a = env.alloc_blocks(2);
        env.tx_begin(0);
        env.tx_log(a, 128);
    }

    #[test]
    fn flush_mode_switches_emitted_instruction() {
        use crate::FlushMode;
        for mode in FlushMode::ALL {
            let mut env = PmemEnv::new(Variant::LogP);
            env.set_flush_mode(mode);
            let a = env.alloc_block();
            env.clwb(a);
            let got = env
                .trace()
                .events
                .iter()
                .find(|e| e.is_persist_op())
                .copied();
            let ok = matches!(
                (mode, got),
                (FlushMode::Clwb, Some(Event::Clwb { .. }))
                    | (FlushMode::ClflushOpt, Some(Event::ClflushOpt { .. }))
                    | (FlushMode::Clflush, Some(Event::Clflush { .. }))
            );
            assert!(ok, "mode {mode}: wrong event {got:?}");
        }
    }

    #[test]
    fn flush_mode_applies_to_log_machinery_too() {
        use crate::FlushMode;
        let mut env = PmemEnv::new(Variant::LogPSf);
        env.set_flush_mode(FlushMode::Clflush);
        let a = env.alloc_block();
        env.tx_begin(0);
        env.tx_log(a, 8);
        env.tx_set_logged();
        env.store_u64(a, 1);
        env.clwb(a);
        env.tx_commit();
        assert!(
            !env.trace()
                .events
                .iter()
                .any(|e| matches!(e, Event::Clwb { .. })),
            "no clwb may leak through in clflush mode"
        );
        assert!(env
            .trace()
            .events
            .iter()
            .any(|e| matches!(e, Event::Clflush { .. })));
    }
}
