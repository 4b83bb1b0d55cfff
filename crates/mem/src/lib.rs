//! # spp-mem — memory-system timing model
//!
//! The cache hierarchy, memory controller, and NVMM timing substrate of
//! the `specpersist` reproduction (Table 2 of *"Hiding the Long Latency
//! of Persist Barriers Using Speculative Execution"*, ISCA '17):
//!
//! * [`Cache`] — set-associative, write-back, true-LRU tag arrays;
//! * [`MemorySystem`] — L1D (32 KB) / L2 (256 KB) / L3 (2 MB) with
//!   write-allocate fills, cascading dirty evictions, and
//!   `clwb`/`clflushopt` flush plumbing;
//! * [`MemCtrl`] — the NVMM write-pending queue, bank-parallel 150 ns
//!   writes, 50 ns reads, and `pcommit` drain tracking — the source of
//!   the persist-barrier latency that speculative persistence hides.
//!
//! The model is timing-only: values live in `spp-pmem`'s functional
//! shadow memory; every method here takes the current cycle and returns
//! completion cycles.
//!
//! ```
//! use spp_mem::{AccessKind, MemConfig, MemorySystem};
//! use spp_pmem::BlockId;
//!
//! let mut mem = MemorySystem::new(MemConfig::paper());
//! // A store misses to NVMM, fills the hierarchy, dirties L1.
//! let (done, _) = mem.access(0, BlockId::new(42), AccessKind::Store);
//! // clwb pushes the dirty line into the controller's WPQ...
//! let flush = mem.flush(done, BlockId::new(42), false);
//! // ...and pcommit waits for the WPQ to drain to NVMM: this gap is
//! // the long-latency persist barrier.
//! let ack = mem.pcommit(flush.visible_at);
//! assert!(ack > flush.visible_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Simulation hot paths must surface faults as typed errors, not abort.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod cache;
mod config;
mod fault;
mod hierarchy;
mod memctrl;

pub use cache::{Cache, Eviction};
pub use config::{CacheConfig, Cycle, MemConfig, MemConfigError};
pub use fault::{
    Fault, FaultSite, FaultSpec, FaultSpecError, FaultState, FaultStats, MEM_STREAM, PIPE_STREAM,
};
pub use hierarchy::{
    shared_mem_ctrl, AccessKind, FlushOutcome, HitLevel, MemStats, MemorySystem, SharedMemCtrl,
};
pub use memctrl::{McStats, MemCtrl};
