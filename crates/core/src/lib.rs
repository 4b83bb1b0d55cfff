//! # spp-core — speculative persistence mechanisms
//!
//! The architectural contribution of *"Hiding the Long Latency of
//! Persist Barriers Using Speculative Execution"* (ISCA '17, §4), as
//! standalone, unit-testable hardware structures:
//!
//! * [`Ssb`] — the Speculative Store Buffer: a FIFO of speculatively
//!   retired stores and *delayed* PMEM instructions, tagged by epoch,
//!   drained in order at epoch commit (Table 3 design points);
//! * [`BloomFilter`] — the 512-byte filter that keeps loads off the
//!   SSB's slow CAM path (false positives possible, false negatives
//!   impossible);
//! * [`CheckpointBuffer`] — the four-entry register-checkpoint store;
//! * [`EpochManager`] — speculative epochs with strictly oldest-first
//!   commit and rollback-to-oldest semantics;
//! * [`Blt`] — the Block Lookup Table that detects external coherence
//!   conflicts with speculative state.
//!
//! The pipeline in `spp-cpu` composes these into the full *speculative
//! persistence* (SP) design: when an `sfence` stalls on a pending
//! `pcommit`, a checkpoint is taken, the fence retires speculatively,
//! younger stores go to the SSB, in-shadow PMEM instructions are delayed
//! to their epoch's commit, and further fences open child epochs — up to
//! the checkpoint capacity.
//!
//! ```
//! use spp_core::{EpochManager, Ssb, SsbConfig, SsbEntry, SsbOp};
//! use spp_pmem::PAddr;
//!
//! let mut epochs = EpochManager::new(4);
//! let mut ssb = Ssb::new(SsbConfig::paper_default());
//!
//! // An sfence stalls on a pcommit: speculate!
//! let e0 = epochs.begin(0, 0).unwrap();
//! ssb.push(SsbEntry { op: SsbOp::Store { addr: PAddr::new(0x40) }, epoch: e0, trace_idx: 0 }).unwrap();
//! // A second persist barrier inside the shadow: child epoch.
//! ssb.push(SsbEntry { op: SsbOp::SfencePcommitSfence, epoch: e0, trace_idx: 1 }).unwrap();
//! let e1 = epochs.begin(10, 50).unwrap();
//!
//! // The first pcommit acknowledges: epoch 0 commits and drains.
//! let drained = ssb.drain_epoch(epochs.commit_oldest().unwrap().id);
//! assert_eq!(drained.len(), 2);
//! assert_eq!(epochs.oldest().unwrap().id, e1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Simulation code must degrade to typed errors, never abort mid-run:
// `.unwrap()`/`.expect()` are banned outside tests (CI runs clippy with
// `-D warnings`, making these hard errors there).
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod bloom;
mod blt;
mod checkpoint;
mod epoch;
mod ssb;

pub use bloom::{BloomFilter, BloomStats, PAPER_FILTER_BYTES};
pub use blt::{Blt, BltStats};
pub use checkpoint::{Checkpoint, CheckpointBuffer, CheckpointId, CheckpointStats};
pub use epoch::{Epoch, EpochManager, EpochState, NoCheckpointFree};
pub use ssb::{Ssb, SsbConfig, SsbEntry, SsbFull, SsbOp, SsbStats, SSB_DESIGN_POINTS};
