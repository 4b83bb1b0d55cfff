//! # spp-litmus — the Px86 persistency litmus harness
//!
//! Proves that the simulator's persist semantics — `CrashSim`'s
//! post-crash image enumeration and both pipeline cores' persist
//! ordering, with and without speculative persistence — agree with an
//! executable reference model of Px86 (the `clwb`/`clflushopt`/
//! `pcommit`/`sfence` persistency rules the paper's machine follows).
//!
//! Three layers:
//!
//! * [`mod@catalog`] — ~21 curated canonical programs (2–6 persist-relevant
//!   ops over 1–2 threads) plus a seeded generative enumerator;
//! * [`model`] — the thread-aware reference model, exhaustively
//!   computing every allowed post-crash state per program ×
//!   interleaving × crash point × flush mode;
//! * [`checker`] — drives each program through the real stack
//!   (`CrashSim` at every crash point; the event-driven core and the
//!   frozen reference stepper, baseline and SP, via the
//!   persist-visibility log) and asserts reachable ⊆ allowed, with
//!   lexicographic `(interleaving, crash_idx, seed)` witness
//!   minimization on failure.
//!
//! The [`model::ModelKnob`] weakening exists so the harness can prove
//! its own teeth: under `ClflushOptProgramOrdered` the model forbids a
//! state the machine legitimately reaches, and the checker must find
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Simulation code must degrade to typed errors, never abort mid-run:
// `.unwrap()`/`.expect()` are banned outside tests (CI runs clippy with
// `-D warnings`, making these hard errors there).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod checker;
pub mod model;

pub use catalog::{catalog, generate};
pub use checker::{check_cell, CellOutcome, Witness, MINIMIZE_SEEDS};
pub use model::{allowed_states, allowed_union, ModelKnob, State};
pub use spp_workloads::litmus::{LitmusOp, LitmusProgram};
