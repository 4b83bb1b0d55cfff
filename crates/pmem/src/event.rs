//! The micro-op trace event model.
//!
//! Workloads execute *functionally* against a [`crate::PmemEnv`] and emit a
//! stream of `Event`s; the timing simulator (`spp-cpu`) replays the stream
//! through its pipeline model. This is the trace-driven substitution for
//! the paper's full-system MarssX86 simulator (see DESIGN.md §2).

use std::sync::Arc;

use crate::addr::PAddr;

/// One trace event. Every variant except the `Tx*` markers corresponds to
/// one or more retired micro-ops in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variant fields are self-describing
pub enum Event {
    /// `n` non-memory micro-ops (ALU/branch work between memory accesses).
    Compute(u32),
    /// A load of `size` bytes. `dep` marks address-dependent loads
    /// (pointer chasing): a dependent load cannot issue before the
    /// previous load in program order has completed.
    Load { addr: PAddr, size: u8, dep: bool },
    /// A store of `size` bytes. The event carries no data: the timing
    /// model reads only the address, so the stored value lives in the
    /// recording's [`Trace::values`], which crash simulation reads.
    Store { addr: PAddr, size: u8 },
    /// `clwb`: write the named cache block back without evicting it.
    Clwb { addr: PAddr },
    /// `clflushopt`: write the block back and evict it.
    ClflushOpt { addr: PAddr },
    /// `clflush`: legacy serializing flush (modelled for the ablation
    /// study only; the paper's workloads never use it).
    Clflush { addr: PAddr },
    /// `pcommit`: flush the memory-controller write-pending queue; acts
    /// as the persist barrier once fenced.
    Pcommit,
    /// `sfence`: store fence; additionally orders pending `clwb`/
    /// `clflushopt`/`pcommit` operations.
    Sfence,
    /// `mfence`: full fence (strong ordering; ends speculation like
    /// `sfence`, never speculatively retired past in this model).
    Mfence,
    /// Marker: start of transactional operation `id`. Zero cost.
    TxBegin(u64),
    /// Marker: end of transactional operation `id`. Zero cost.
    TxEnd(u64),
}

// Every trace event is 16 bytes: a tag and at most one address-sized
// field. Paper-scale traces hold tens of millions of events, so a field
// that widens this costs a third more resident trace memory.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    /// Number of micro-ops this event contributes to the committed
    /// instruction count (Fig. 9 metric).
    pub fn micro_ops(&self) -> u64 {
        match self {
            Event::Compute(n) => u64::from(*n),
            Event::TxBegin(_) | Event::TxEnd(_) => 0,
            _ => 1,
        }
    }

    /// Returns `true` for the PMEM persistence instructions
    /// (`clwb`/`clflushopt`/`clflush`/`pcommit`).
    pub fn is_persist_op(&self) -> bool {
        matches!(
            self,
            Event::Clwb { .. } | Event::ClflushOpt { .. } | Event::Clflush { .. } | Event::Pcommit
        )
    }

    /// Returns `true` for fences.
    pub fn is_fence(&self) -> bool {
        matches!(self, Event::Sfence | Event::Mfence)
    }
}

/// A recorded trace: the event stream, the values its stores wrote and
/// summary counters.
///
/// The events are timing-only: a [`Event::Store`] names its address
/// and size, and its data is the matching entry of `values`, one per
/// store in program order. Only crash simulation reads the values
/// ([`crate::CrashTrace`]); [`Trace::into_shared`] drops them for replay.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The event stream in program order.
    pub events: Vec<Event>,
    /// The value of each `Store` in `events`, in program order (the low
    /// `size` bytes are stored): `values.len() == counts.stores`.
    pub values: Vec<u64>,
    /// Summary counters, maintained incrementally as events are pushed.
    pub counts: TraceCounts,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, updating the counters.
    ///
    /// # Panics
    ///
    /// Panics on a [`Event::Store`]: a store is appended with its value
    /// by [`Trace::push_store`].
    pub fn push(&mut self, ev: Event) {
        assert!(
            !matches!(ev, Event::Store { .. }),
            "a store is pushed with its value by Trace::push_store"
        );
        self.counts.tally(&ev);
        self.events.push(ev);
    }

    /// Appends a store of the low `size` bytes of `value` to `addr`.
    pub fn push_store(&mut self, addr: PAddr, size: u8, value: u64) {
        let ev = Event::Store { addr, size };
        self.counts.tally(&ev);
        self.events.push(ev);
        self.values.push(value);
    }

    /// Number of events (not micro-ops) recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Freezes the timing-only part of the trace into an immutable,
    /// cheaply clonable form that can be replayed concurrently from many
    /// simulator threads. The store values are dropped: no replay reads
    /// them.
    ///
    /// Wraps the event vector as-is (no reallocation): traces run to
    /// tens of millions of events, and copying them into a fresh
    /// allocation would rival the cost of recording.
    pub fn into_shared(self) -> SharedTrace {
        SharedTrace {
            events: Arc::new(self.events),
            counts: self.counts,
        }
    }
}

/// An immutable timing-only trace behind an [`Arc`]: recording happens
/// once, then every simulator configuration replays the same events
/// without copying. Cloning is a reference-count bump. It holds no store
/// values, so it cannot be crashed; crash checks keep the [`Trace`].
#[derive(Debug, Clone)]
pub struct SharedTrace {
    /// The event stream in program order.
    pub events: Arc<Vec<Event>>,
    /// Summary counters of the stream.
    pub counts: TraceCounts,
}

/// Micro-op counters by class, used for the Fig. 9 instruction-count
/// ratios and the Fig. 12 store counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Non-memory micro-ops.
    pub compute: u64,
    /// Load micro-ops.
    pub loads: u64,
    /// Store micro-ops.
    pub stores: u64,
    /// `clwb` + `clflushopt` + `clflush` micro-ops.
    pub flushes: u64,
    /// `pcommit` micro-ops.
    pub pcommits: u64,
    /// `sfence` + `mfence` micro-ops.
    pub fences: u64,
    /// Transactions started.
    pub transactions: u64,
}

impl TraceCounts {
    fn tally(&mut self, ev: &Event) {
        match ev {
            Event::Compute(n) => self.compute += u64::from(*n),
            Event::Load { .. } => self.loads += 1,
            Event::Store { .. } => self.stores += 1,
            Event::Clwb { .. } | Event::ClflushOpt { .. } | Event::Clflush { .. } => {
                self.flushes += 1
            }
            Event::Pcommit => self.pcommits += 1,
            Event::Sfence | Event::Mfence => self.fences += 1,
            Event::TxBegin(_) => self.transactions += 1,
            Event::TxEnd(_) => {}
        }
    }

    /// Total committed micro-ops.
    pub fn total(&self) -> u64 {
        self.compute + self.loads + self.stores + self.flushes + self.pcommits + self.fences
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn micro_op_weights() {
        assert_eq!(Event::Compute(5).micro_ops(), 5);
        assert_eq!(Event::TxBegin(1).micro_ops(), 0);
        assert_eq!(Event::Pcommit.micro_ops(), 1);
        assert_eq!(
            Event::Load {
                addr: PAddr::new(0),
                size: 8,
                dep: false
            }
            .micro_ops(),
            1
        );
    }

    #[test]
    fn classification() {
        assert!(Event::Clwb {
            addr: PAddr::new(0)
        }
        .is_persist_op());
        assert!(Event::Pcommit.is_persist_op());
        assert!(!Event::Sfence.is_persist_op());
        assert!(Event::Sfence.is_fence());
        assert!(Event::Mfence.is_fence());
        assert!(!Event::Compute(1).is_fence());
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::new();
        t.push(Event::TxBegin(0));
        t.push(Event::Compute(3));
        t.push_store(PAddr::new(64), 8, 1);
        t.push(Event::Clwb {
            addr: PAddr::new(64),
        });
        t.push(Event::Sfence);
        t.push(Event::Pcommit);
        t.push(Event::Sfence);
        t.push(Event::TxEnd(0));
        assert_eq!(t.counts.compute, 3);
        assert_eq!(t.counts.stores, 1);
        assert_eq!(t.counts.flushes, 1);
        assert_eq!(t.counts.pcommits, 1);
        assert_eq!(t.counts.fences, 2);
        assert_eq!(t.counts.transactions, 1);
        assert_eq!(t.counts.total(), 3 + 1 + 1 + 1 + 2);
        assert_eq!(t.len(), 8);
        assert_eq!(t.values, [1]);
    }

    #[test]
    #[should_panic(expected = "pushed with its value")]
    fn a_store_without_its_value_is_rejected() {
        Trace::new().push(Event::Store {
            addr: PAddr::new(64),
            size: 8,
        });
    }

    #[test]
    fn shared_trace_preserves_events_and_counts() {
        let mut t = Trace::new();
        t.push(Event::Compute(7));
        t.push_store(PAddr::new(64), 8, 2);
        t.push(Event::Pcommit);
        let events = t.events.clone();
        let counts = t.counts;
        let shared = t.into_shared();
        assert_eq!(&shared.events[..], &events[..]);
        assert_eq!(shared.counts, counts);
        // Clones alias the same allocation.
        let c = shared.clone();
        assert!(Arc::ptr_eq(&shared.events, &c.events));
    }
}
