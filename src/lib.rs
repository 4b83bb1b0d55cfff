//! # specpersist — speculative persistence for NVMM persist barriers
//!
//! A from-scratch reproduction of *"Hiding the Long Latency of Persist
//! Barriers Using Speculative Execution"* (Shin, Tuck, Solihin,
//! ISCA '17): the persistent-memory programming model, the paper's
//! seven write-ahead-logging benchmarks, a trace-driven out-of-order
//! pipeline over a three-level cache hierarchy and NVMM memory
//! controller, and the paper's contribution — *speculative persistence*
//! (SP): checkpointing past stalled `sfence`s so the long-latency
//! `pcommit` completes in the background.
//!
//! This meta-crate re-exports the workspace members:
//!
//! * [`pmem`] — shadow NVMM, trace recording, WAL transactions, crash
//!   simulation and recovery;
//! * [`workloads`] — Table 1's benchmarks (GH/HM/LL/SS/AT/BT/RT);
//! * [`mem`] — caches, write-pending queue, NVMM timing (Table 2);
//! * [`core`] — SSB, bloom filter, checkpoints, epochs, BLT (§4);
//! * [`cpu`] — the pipeline that ties it together.
//!
//! ## Quickstart
//!
//! ```
//! use specpersist::cpu::{CpuConfig, Simulator};
//! use specpersist::pmem::Variant;
//! use specpersist::workloads::{record_trace, BenchId, BenchSpec, TraceSpec};
//!
//! // Record the failure-safe (Log+P+Sf) build of the linked-list
//! // benchmark, then time it with and without speculative persistence.
//! let spec = BenchSpec { id: BenchId::LinkedList, init_ops: 64, sim_ops: 16 };
//! let trace = record_trace(&TraceSpec::new(Variant::LogPSf, spec, 1));
//! let baseline = Simulator::new(&trace.events).run().expect("sound config");
//! let sp = Simulator::new(&trace.events)
//!     .config(CpuConfig::with_sp())
//!     .run()
//!     .expect("sound config");
//! assert!(sp.cpu.cycles <= baseline.cpu.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spp_core as core;
pub use spp_cpu as cpu;
pub use spp_mem as mem;
pub use spp_pmem as pmem;
pub use spp_workloads as workloads;
