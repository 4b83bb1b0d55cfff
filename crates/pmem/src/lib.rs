//! # spp-pmem — persistent-memory programming model
//!
//! The functional substrate of the `specpersist` reproduction of
//! *"Hiding the Long Latency of Persist Barriers Using Speculative
//! Execution"* (ISCA '17): a byte-addressable shadow memory standing in
//! for NVMM, a micro-op trace recorder, the Intel PMEM instruction
//! primitives (`clwb`, `clflushopt`, `pcommit`, `sfence`), write-ahead
//! logging transactions (§3.1 of the paper), and a crash simulator that
//! enumerates the NVMM images a failure could leave behind.
//!
//! ## Quick tour
//!
//! ```
//! use spp_pmem::{CrashTrace, PmemEnv, Variant, recover};
//!
//! // Program against the environment; the build variant gates which
//! // persistence machinery is emitted (Fig. 8's Base/Log/Log+P/Log+P+Sf).
//! let mut env = PmemEnv::new(Variant::LogPSf);
//! let counter = env.alloc_block();
//! let base = env.snapshot();
//!
//! // A failure-safe increment via the four-step WAL protocol.
//! env.tx_begin(1);
//! env.tx_log(counter, 8);            // step 1: undo log, made durable
//! env.tx_set_logged();               // step 2: logged_bit := 1, durable
//! let v = env.load_u64(counter);
//! env.store_u64(counter, v + 1);     // step 3: mutate...
//! env.clwb(counter);                 //         ...and persist
//! env.tx_commit();                   // step 4: logged_bit := 0, durable
//!
//! // Crash anywhere in that trace: recovery always yields 0 or 1.
//! let layout = env.log_layout();
//! let trace = CrashTrace::new(base, env.take_trace());
//! for crash in 0..=trace.events().len() {
//!     let mut img = trace.at(crash).image_guaranteed_only();
//!     recover(&mut img, &layout);
//!     assert!(img.read_u64(counter) <= 1);
//! }
//! ```
//!
//! The recorded [`Trace`] is what `spp-cpu` replays through its pipeline
//! timing model; this crate never attributes cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Simulation hot paths must surface faults as typed errors, not abort.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod addr;
pub mod crash;
mod env;
mod event;
mod hash;
mod rng;
mod space;
mod undo;
mod variant;

pub use addr::{blocks_covering, BlockId, PAddr, BLOCK_SIZE};
pub use crash::{persist_boundaries, CrashIndex, CrashSim, CrashTrace, FlushStage, Frontier};
pub use env::{PmemEnv, ROOT_SLOTS};
pub use event::{Event, SharedTrace, Trace, TraceCounts};
pub use hash::{FastHashBuilder, FastHasher};
pub use rng::{hash64, splitmix64};
pub use space::Space;
pub use undo::{recover, LogLayout, RecoveryReport, ENTRY_MAX_LEN, INDEX_STRIDE};
pub use variant::{FlushMode, Variant};
