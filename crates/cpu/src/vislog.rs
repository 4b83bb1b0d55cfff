//! The persist-visibility log: what the memory system actually saw.
//!
//! `CrashSim` reasons about a *program-order* event trace, but a
//! pipeline — especially one retiring speculatively — presents stores,
//! writebacks, and barriers to the memory system in a different order:
//! stores drain from the post-retirement store buffer, in-shadow PMEM
//! instructions are delayed into the SSB and replayed at epoch commit,
//! and `sfence;pcommit;sfence` sequences collapse into one combined
//! drain opcode. The litmus harness needs to crash-test *that* order.
//!
//! When enabled (`Pipeline::enable_persist_log` /
//! `ReferencePipeline::enable_persist_log`), the pipeline records one
//! [`VisEvent`] at each point a persist-relevant effect becomes visible
//! to the memory system:
//!
//! * a store draining from the store buffer or the SSB;
//! * a flush writeback posting (non-speculative retire, legacy
//!   `clflush` issue, or SSB drain replay);
//! * a `pcommit` issuing to the memory controller;
//! * a fence's ordering guarantee being realized — at non-speculative
//!   fence retirement, or at the commit of the speculative epoch the
//!   fence opened (each epoch corresponds to exactly one program
//!   fence). The combined `sfence;pcommit;sfence` drain additionally
//!   logs its leading fence at pcommit issue: the drain really does
//!   order all older writebacks first (it waits on the drain-visibility
//!   frontier), so the extra ordering edge is honest — it can only
//!   *shrink* the reachable post-crash state set, never widen it.
//!
//! Logging is pure recording: it never changes timing or architectural
//! state (the cycle-equivalence and probe-neutrality suites pin this).
//! [`reconstruct`] then rebuilds a `CrashSim`-ready event sequence in
//! visibility order, mapping stores and flushes back to their source
//! trace events via `trace_idx`, and returns that map beside it: the
//! events are timing-only, so a caller carries each store's value over
//! from its source position.

use spp_mem::Cycle;
use spp_pmem::Event;

/// One persist-relevant effect becoming visible to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisEvent {
    /// Cycle the effect became visible.
    pub at: Cycle,
    /// What became visible.
    pub op: VisOp,
}

/// The kind of a [`VisEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisOp {
    /// A store's data reached the coherent domain. `trace_idx` points at
    /// the source `Event::Store` (address and size; the recording keeps
    /// its value).
    Store {
        /// Index of the source event in the simulated trace.
        trace_idx: usize,
    },
    /// A flush's writeback posted. `trace_idx` points at the source
    /// `Event::Clwb` / `Event::ClflushOpt` / `Event::Clflush`, which
    /// also determines its ordering strength.
    Flush {
        /// Index of the source event in the simulated trace.
        trace_idx: usize,
    },
    /// A `pcommit` issued to the memory controller.
    Pcommit,
    /// A fence's ordering guarantee was realized.
    Fence,
}

/// Rebuilds a `CrashSim`-ready event sequence from a persist-visibility
/// log: entries are ordered by visibility time (ties keep the recorded
/// order, which follows the machine's same-cycle processing order), and
/// each is mapped back to a concrete [`Event`].
///
/// Beside the events it returns each position's source: the `trace_idx`
/// of a store or flush, `None` for a `pcommit` or fence, which the log
/// does not attribute to one source event.
///
/// # Panics
///
/// Panics if a logged `trace_idx` does not point at an event of the
/// expected kind — that would mean the logging hooks mis-attributed an
/// effect, which the litmus harness must not paper over.
pub fn reconstruct(events: &[Event], log: &[VisEvent]) -> (Vec<Event>, Vec<Option<usize>>) {
    let mut ordered: Vec<(usize, VisEvent)> = log.iter().copied().enumerate().collect();
    ordered.sort_by_key(|&(pos, e)| (e.at, pos));
    ordered
        .into_iter()
        .map(|(_, e)| match e.op {
            VisOp::Store { trace_idx } => match events[trace_idx] {
                ev @ Event::Store { .. } => (ev, Some(trace_idx)),
                ref other => panic!("visibility log store points at {other:?}"),
            },
            VisOp::Flush { trace_idx } => match events[trace_idx] {
                ev @ (Event::Clwb { .. } | Event::ClflushOpt { .. } | Event::Clflush { .. }) => {
                    (ev, Some(trace_idx))
                }
                ref other => panic!("visibility log flush points at {other:?}"),
            },
            VisOp::Pcommit => (Event::Pcommit, None),
            VisOp::Fence => (Event::Sfence, None),
        })
        .unzip()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spp_pmem::PAddr;

    #[test]
    fn reconstruct_orders_by_time_then_log_position() {
        let (a, b) = (PAddr::new(4096), PAddr::new(8192));
        let events = vec![
            Event::Store { addr: a, size: 8 },
            Event::Clwb { addr: a },
            Event::Sfence,
            Event::Store { addr: b, size: 4 },
        ];
        let log = vec![
            VisEvent {
                at: 10,
                op: VisOp::Fence,
            },
            VisEvent {
                at: 3,
                op: VisOp::Store { trace_idx: 0 },
            },
            VisEvent {
                at: 3,
                op: VisOp::Flush { trace_idx: 1 },
            },
            VisEvent {
                at: 1,
                op: VisOp::Store { trace_idx: 3 },
            },
        ];
        let (rebuilt, sources) = reconstruct(&events, &log);
        assert_eq!(
            rebuilt,
            vec![
                Event::Store { addr: b, size: 4 },
                Event::Store { addr: a, size: 8 },
                Event::Clwb { addr: a },
                Event::Sfence,
            ]
        );
        // The later store became visible first: each position maps back
        // to its source event, and the fence to none.
        assert_eq!(sources, vec![Some(3), Some(0), Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "visibility log store points at")]
    fn reconstruct_rejects_misattributed_indices() {
        let events = vec![Event::Sfence];
        let log = vec![VisEvent {
            at: 0,
            op: VisOp::Store { trace_idx: 0 },
        }];
        let _ = reconstruct(&events, &log);
    }
}
