//! Micro-ops and the trace cursor that decodes events into them.

use spp_pmem::{BlockId, Event, PAddr};

/// One micro-op flowing through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// One cycle of ALU/branch work.
    Compute,
    /// A load; `dep` loads cannot issue before the previous load
    /// completes (pointer chasing).
    Load {
        /// Granule address.
        addr: PAddr,
        /// Address-dependent on the previous load?
        dep: bool,
    },
    /// A store; data is written at retirement.
    Store {
        /// Granule address.
        addr: PAddr,
    },
    /// `clwb` of a block (posted at retirement).
    Clwb {
        /// Target block.
        block: BlockId,
    },
    /// `clflushopt` of a block (posted at retirement, evicts).
    ClflushOpt {
        /// Target block.
        block: BlockId,
    },
    /// Legacy `clflush`: flush + evict, and serializing — the next
    /// instruction cannot retire until the writeback is visible.
    Clflush {
        /// Target block.
        block: BlockId,
    },
    /// `pcommit` (posted at retirement; only fences wait for it).
    Pcommit,
    /// `sfence`.
    Sfence,
    /// `mfence`.
    Mfence,
}

impl UopKind {
    /// Does this micro-op occupy an LSQ slot?
    pub fn is_mem(&self) -> bool {
        matches!(self, UopKind::Load { .. } | UopKind::Store { .. })
    }

    /// Is this a fence?
    pub fn is_fence(&self) -> bool {
        matches!(self, UopKind::Sfence | UopKind::Mfence)
    }
}

/// A micro-op plus the trace position it decodes from (checkpoints
/// record trace positions for rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// The operation.
    pub kind: UopKind,
    /// Index of the source [`Event`] in the trace.
    pub trace_idx: usize,
}

/// Decodes a recorded event trace into micro-ops, expanding
/// `Compute(n)` lazily and supporting rollback repositioning.
#[derive(Debug, Clone)]
pub(crate) struct TraceCursor<'t> {
    events: &'t [Event],
    idx: usize,
    compute_left: u32,
}

impl<'t> TraceCursor<'t> {
    /// Starts decoding at the beginning of `events`.
    pub fn new(events: &'t [Event]) -> Self {
        TraceCursor {
            events,
            idx: 0,
            compute_left: 0,
        }
    }

    /// The next micro-op, or `None` at end of trace.
    pub fn next_uop(&mut self) -> Option<Uop> {
        loop {
            if self.compute_left > 0 {
                self.compute_left -= 1;
                return Some(Uop {
                    kind: UopKind::Compute,
                    trace_idx: self.idx - 1,
                });
            }
            let ev = self.events.get(self.idx)?;
            self.idx += 1;
            let trace_idx = self.idx - 1;
            let kind = match *ev {
                Event::Compute(n) => {
                    if n == 0 {
                        continue;
                    }
                    self.compute_left = n - 1;
                    UopKind::Compute
                }
                Event::Load { addr, dep, .. } => UopKind::Load { addr, dep },
                Event::Store { addr, .. } => UopKind::Store { addr },
                Event::Clwb { addr } => UopKind::Clwb {
                    block: addr.block(),
                },
                Event::ClflushOpt { addr } => UopKind::ClflushOpt {
                    block: addr.block(),
                },
                Event::Clflush { addr } => UopKind::Clflush {
                    block: addr.block(),
                },
                Event::Pcommit => UopKind::Pcommit,
                Event::Sfence => UopKind::Sfence,
                Event::Mfence => UopKind::Mfence,
                Event::TxBegin(_) | Event::TxEnd(_) => continue,
            };
            return Some(Uop { kind, trace_idx });
        }
    }

    /// Repositions to `event_idx` (rollback to a checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if `event_idx` is beyond the trace.
    pub fn set_position(&mut self, event_idx: usize) {
        assert!(event_idx <= self.events.len(), "position beyond trace");
        self.idx = event_idx;
        self.compute_left = 0;
    }

    /// Current decode position (the index of the next [`Event`]): what
    /// [`set_position`](Self::set_position) restores after a rollback,
    /// so a multi-core harness can tell whether re-execution is making
    /// forward progress between rollbacks.
    pub fn position(&self) -> usize {
        self.idx
    }

    /// Exhausted?
    pub fn is_done(&self) -> bool {
        self.compute_left == 0 && self.idx >= self.events.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn compute_expansion() {
        let events = [Event::Compute(3), Event::Pcommit];
        let mut c = TraceCursor::new(&events);
        let mut kinds = Vec::new();
        while let Some(u) = c.next_uop() {
            kinds.push(u.kind);
        }
        assert_eq!(
            kinds,
            vec![
                UopKind::Compute,
                UopKind::Compute,
                UopKind::Compute,
                UopKind::Pcommit
            ]
        );
        assert!(c.is_done());
    }

    #[test]
    fn markers_and_zero_compute_are_skipped() {
        let events = [
            Event::TxBegin(1),
            Event::Compute(0),
            Event::Store {
                addr: PAddr::new(8),
                size: 8,
            },
            Event::TxEnd(1),
        ];
        let mut c = TraceCursor::new(&events);
        assert_eq!(
            c.next_uop().unwrap().kind,
            UopKind::Store {
                addr: PAddr::new(8)
            }
        );
        assert!(c.next_uop().is_none());
    }

    #[test]
    fn trace_idx_tracks_source_event() {
        let events = [Event::Compute(2), Event::Sfence];
        let mut c = TraceCursor::new(&events);
        assert_eq!(c.next_uop().unwrap().trace_idx, 0);
        assert_eq!(c.next_uop().unwrap().trace_idx, 0);
        assert_eq!(c.next_uop().unwrap().trace_idx, 1);
    }

    #[test]
    fn rollback_repositioning() {
        let events = [Event::Sfence, Event::Pcommit, Event::Sfence];
        let mut c = TraceCursor::new(&events);
        c.next_uop();
        c.next_uop();
        c.set_position(1);
        assert_eq!(c.next_uop().unwrap().kind, UopKind::Pcommit);
    }

    #[test]
    fn flush_targets_block_ids() {
        let events = [Event::Clwb {
            addr: PAddr::new(130),
        }];
        let mut c = TraceCursor::new(&events);
        assert_eq!(
            c.next_uop().unwrap().kind,
            UopKind::Clwb {
                block: BlockId::new(2)
            }
        );
    }

    #[test]
    fn mem_classification() {
        assert!(UopKind::Load {
            addr: PAddr::new(0),
            dep: false
        }
        .is_mem());
        assert!(UopKind::Store {
            addr: PAddr::new(0)
        }
        .is_mem());
        assert!(!UopKind::Pcommit.is_mem());
        assert!(UopKind::Sfence.is_fence());
    }
}
