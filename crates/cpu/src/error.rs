//! Typed simulation errors and the forward-progress watchdog snapshot.
//!
//! A wedged or internally inconsistent pipeline must surface as a value
//! the caller can inspect — never as a hang or a panic backtrace. Every
//! [`SimError`] carries a [`DiagnosticSnapshot`] of the machine state at
//! the moment of failure: what sat at the ROB head, how full each
//! speculative structure was, and how deep the memory controller's
//! write-pending queue ran.

use std::fmt;

use spp_mem::{Cycle, MemConfigError};

use crate::uop::Uop;

/// Why a simulation could not continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimErrorKind {
    /// The configuration was rejected before the first cycle (the
    /// [`crate::Simulator`] builder validates up front rather than
    /// letting a degenerate machine wedge mid-run).
    InvalidConfig {
        /// What the memory-system validation rejected.
        error: MemConfigError,
    },
    /// The forward-progress watchdog fired: no micro-op retired for more
    /// than `bound` cycles while the pipeline still held work.
    NoRetireProgress {
        /// The configured no-retire bound
        /// ([`crate::CpuConfig::watchdog_cycles`]).
        bound: Cycle,
    },
    /// The pipeline made no progress this cycle and no future event is
    /// scheduled anywhere: a true deadlock.
    NoFutureEvent,
    /// A multi-core rollback storm: coherence conflicts kept rolling a
    /// core back to the same trace position, and the forward-progress
    /// budget of `bound` consecutive no-progress rollbacks ran out (see
    /// [`crate::MultiCore::with_storm_bound`]). Without this detector a
    /// pathological sharing pattern livelocks: every re-execution
    /// re-touches the contended block and is rolled back again.
    ConflictStorm {
        /// The configured consecutive-no-progress-rollback budget.
        bound: u64,
    },
    /// An internal pipeline invariant broke (a state that should be
    /// unreachable); `what` names the violated assumption.
    BrokenInvariant {
        /// The violated assumption.
        what: &'static str,
    },
}

/// Machine state captured when a [`SimError`] is raised.
#[derive(Debug, Clone, Default)]
pub struct DiagnosticSnapshot {
    /// Simulated cycle of the failure.
    pub cycle: Cycle,
    /// Micro-op at the ROB head (usually the one that cannot retire).
    pub rob_head: Option<Uop>,
    /// Occupied ROB entries.
    pub rob_len: usize,
    /// Occupied fetch-queue entries.
    pub fetchq_len: usize,
    /// Occupied post-retirement store-buffer entries.
    pub store_buffer_len: usize,
    /// Occupied LSQ slots.
    pub lsq_used: usize,
    /// Posted flushes not yet globally visible.
    pub pending_flushes: usize,
    /// Posted pcommits not yet acknowledged.
    pub pending_pcommits: usize,
    /// Was the core retiring speculatively?
    pub speculating: bool,
    /// Total SSB entries buffered.
    pub ssb_len: usize,
    /// SSB occupancy per epoch, front (oldest) first.
    pub ssb_per_epoch: Vec<(u64, usize)>,
    /// Live checkpoint-buffer entries.
    pub checkpoints_live: usize,
    /// Checkpoint-buffer capacity (0 when SP is disabled).
    pub checkpoint_capacity: usize,
    /// Write-pending-queue occupancy at the memory controller.
    pub wpq_depth: usize,
    /// The controller's next-event report: earliest in-flight WPQ
    /// completion after `cycle`, if any (`None` when the queue is
    /// drained — a wedged run with work but no such event points at the
    /// pipeline side).
    pub wpq_next_drain: Option<Cycle>,
    /// Had the trace cursor reached the end of the trace?
    pub trace_done: bool,
}

impl DiagnosticSnapshot {
    /// The snapshot as one flat JSON object (stable key order, no
    /// external dependency): the machine-readable form that failure
    /// records in reports carry, so a degraded cell still
    /// ships the full machine state for post-mortem without parsing a
    /// display string.
    pub fn to_json(&self) -> String {
        let per_epoch: Vec<String> = self
            .ssb_per_epoch
            .iter()
            .map(|(e, n)| format!("[{e},{n}]"))
            .collect();
        format!(
            "{{\"cycle\":{},\"rob_head\":\"{:?}\",\"rob_len\":{},\"fetchq_len\":{},\
             \"lsq_used\":{},\"store_buffer_len\":{},\"pending_flushes\":{},\
             \"pending_pcommits\":{},\"speculating\":{},\"ssb_len\":{},\
             \"ssb_per_epoch\":[{}],\"checkpoints_live\":{},\"checkpoint_capacity\":{},\
             \"wpq_depth\":{},\"wpq_next_drain\":{},\"trace_done\":{}}}",
            self.cycle,
            self.rob_head.map(|u| u.kind),
            self.rob_len,
            self.fetchq_len,
            self.lsq_used,
            self.store_buffer_len,
            self.pending_flushes,
            self.pending_pcommits,
            self.speculating,
            self.ssb_len,
            per_epoch.join(","),
            self.checkpoints_live,
            self.checkpoint_capacity,
            self.wpq_depth,
            self.wpq_next_drain
                .map_or_else(|| "null".to_string(), |t| t.to_string()),
            self.trace_done,
        )
    }
}

impl fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: rob {} (head {:?}), fetchq {}, lsq {}, store buffer {}, \
             pending flushes/pcommits {}/{}, speculating {}, ssb {} {:?}, \
             checkpoints {}/{}, wpq {} (next drain {:?}), trace done {}",
            self.cycle,
            self.rob_len,
            self.rob_head.map(|u| u.kind),
            self.fetchq_len,
            self.lsq_used,
            self.store_buffer_len,
            self.pending_flushes,
            self.pending_pcommits,
            self.speculating,
            self.ssb_len,
            self.ssb_per_epoch,
            self.checkpoints_live,
            self.checkpoint_capacity,
            self.wpq_depth,
            self.wpq_next_drain,
            self.trace_done,
        )
    }
}

/// A simulation failure: what went wrong plus the machine state when it
/// did.
#[derive(Debug, Clone)]
pub struct SimError {
    /// The failure class.
    pub kind: SimErrorKind,
    /// Machine state at the failure (boxed to keep `Result` small on
    /// the simulation hot path).
    pub snapshot: Box<DiagnosticSnapshot>,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SimErrorKind::InvalidConfig { error } => {
                return write!(f, "invalid configuration: {error}");
            }
            SimErrorKind::NoRetireProgress { bound } => {
                write!(f, "no retirement progress within {bound} cycles (watchdog)")?;
            }
            SimErrorKind::NoFutureEvent => {
                f.write_str("pipeline deadlock: no progress and no scheduled event")?;
            }
            SimErrorKind::ConflictStorm { bound } => {
                write!(
                    f,
                    "coherence conflict storm: {bound} consecutive rollbacks without progress"
                )?;
            }
            SimErrorKind::BrokenInvariant { what } => {
                write!(f, "broken pipeline invariant: {what}")?;
            }
        }
        write!(f, " [{}]", self.snapshot)
    }
}

impl SimError {
    /// The error as one JSON object: a `kind` string plus the full
    /// [`DiagnosticSnapshot::to_json`] under `snapshot`.
    pub fn to_json(&self) -> String {
        let kind = match self.kind {
            SimErrorKind::InvalidConfig { error } => format!("invalid_config:{error}"),
            SimErrorKind::NoRetireProgress { bound } => format!("no_retire_progress:{bound}"),
            SimErrorKind::NoFutureEvent => "no_future_event".to_string(),
            SimErrorKind::ConflictStorm { bound } => format!("conflict_storm:{bound}"),
            SimErrorKind::BrokenInvariant { what } => format!("broken_invariant:{what}"),
        };
        format!(
            "{{\"kind\":\"{kind}\",\"snapshot\":{}}}",
            self.snapshot.to_json()
        )
    }
}

impl std::error::Error for SimError {}
