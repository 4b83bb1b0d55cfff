//! Persistency litmus programs: tiny multi-threaded shapes of
//! persist-relevant instructions, the unit of work for the Px86 litmus
//! harness (`spp-litmus`).
//!
//! A [`LitmusProgram`] is one or two threads of 2–6 [`LitmusOp`]s —
//! stores, flushes, fences, and `pcommit`s over a handful of named
//! persistent locations. The representation is deliberately abstract:
//! a `Flush` names a location, not an instruction, so the same program
//! can be materialized under each [`FlushMode`] (`clwb`,
//! `clflushopt`, legacy `clflush`) and checked under all three.
//!
//! Three properties make programs comparable across the harness's legs:
//!
//! * **one op is one event** — [`LitmusProgram::materialize`] maps the
//!   i-th op of an interleaving to the i-th [`Event`] of the trace, so
//!   crash indices align between the reference model and `CrashSim`;
//! * **store values are program-level** — each store carries a unique
//!   nonzero value assigned in thread-major program order, so a
//!   post-crash memory image reads back to the same state vector no
//!   matter which interleaving produced it;
//! * **locations are cache-block disjoint** — location `n` lives at
//!   its own 64-byte block, so per-block crash enumeration treats each
//!   location independently (exactly the Px86 granularity).

use std::fmt;

use spp_pmem::{Event, FlushMode, PAddr, Trace};

/// Base physical address of litmus location 0; locations step by one
/// 64-byte cache block.
pub const LITMUS_BASE: u64 = 4096;

/// One instruction of a litmus thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LitmusOp {
    /// A store to litmus location `loc` (value assigned program-wide).
    Store {
        /// Location index (0 = `x`, 1 = `y`, …), its own cache block.
        loc: u8,
    },
    /// A flush of location `loc`'s cache block; the concrete
    /// instruction (`clwb` / `clflushopt` / `clflush`) comes from the
    /// [`FlushMode`] at materialization.
    Flush {
        /// Location index whose block is written back.
        loc: u8,
    },
    /// `sfence`: orders prior stores and pending flush/`pcommit` acks.
    Sfence,
    /// `pcommit`: drains the memory-controller write-pending queue.
    Pcommit,
}

impl fmt::Display for LitmusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LitmusOp::Store { loc } => write!(f, "St {}", loc_name(loc)),
            LitmusOp::Flush { loc } => write!(f, "Fl {}", loc_name(loc)),
            LitmusOp::Sfence => f.write_str("Sfence"),
            LitmusOp::Pcommit => f.write_str("Pcommit"),
        }
    }
}

/// Human name of a litmus location: `x`, `y`, `z`, `w`, then `l4`…
pub fn loc_name(loc: u8) -> String {
    match loc {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        n => format!("l{n}"),
    }
}

/// A named litmus program: one or two threads of [`LitmusOp`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LitmusProgram {
    /// Stable identifier (catalog name or generator-derived).
    pub name: String,
    /// Per-thread instruction sequences (1 or 2 threads, 2–6 ops total).
    pub threads: Vec<Vec<LitmusOp>>,
}

impl LitmusProgram {
    /// A single-threaded program.
    pub fn single(name: impl Into<String>, ops: Vec<LitmusOp>) -> Self {
        LitmusProgram {
            name: name.into(),
            threads: vec![ops],
        }
    }

    /// A two-threaded program.
    pub fn pair(name: impl Into<String>, t0: Vec<LitmusOp>, t1: Vec<LitmusOp>) -> Self {
        LitmusProgram {
            name: name.into(),
            threads: vec![t0, t1],
        }
    }

    /// Total op count across threads.
    pub fn num_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Number of distinct locations (max location index + 1).
    pub fn num_locs(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(|op| match *op {
                LitmusOp::Store { loc } | LitmusOp::Flush { loc } => Some(loc as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Physical address of litmus location `loc` (its own cache block).
    pub fn addr_of(loc: u8) -> PAddr {
        PAddr::new(LITMUS_BASE + u64::from(loc) * 64)
    }

    /// The program-wide value written by the store at `(thread, idx)`:
    /// stores are numbered 1, 2, … in thread-major program order, so a
    /// crash image decodes to the same state vector regardless of the
    /// interleaving that produced it. Zero means "no store persisted".
    ///
    /// Returns `None` if `(thread, idx)` is not a store.
    pub fn store_value(&self, thread: usize, idx: usize) -> Option<u64> {
        let mut n = 0;
        for (t, ops) in self.threads.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                if matches!(op, LitmusOp::Store { .. }) {
                    n += 1;
                    if t == thread && i == idx {
                        return Some(n);
                    }
                }
            }
        }
        None
    }

    /// Every order-preserving merge of the threads, as sequences of
    /// `(thread, op_index)` pairs. A single-threaded program has
    /// exactly one interleaving; a 3+3 two-threaded program has
    /// C(6,3) = 20. Deterministic order (thread 0 first at each fork).
    pub fn interleavings(&self) -> Vec<Vec<(usize, usize)>> {
        let mut out = Vec::new();
        let mut cursor = vec![0usize; self.threads.len()];
        let mut prefix = Vec::with_capacity(self.num_ops());
        self.merge(&mut cursor, &mut prefix, &mut out);
        out
    }

    fn merge(
        &self,
        cursor: &mut [usize],
        prefix: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
    ) {
        if prefix.len() == self.num_ops() {
            out.push(prefix.clone());
            return;
        }
        for t in 0..self.threads.len() {
            if cursor[t] < self.threads[t].len() {
                prefix.push((t, cursor[t]));
                cursor[t] += 1;
                self.merge(cursor, prefix, out);
                cursor[t] -= 1;
                prefix.pop();
            }
        }
    }

    /// Materializes one interleaving as a `CrashTrace`-ready trace under
    /// the given flush mode. Op i becomes event i (8-byte stores, whose
    /// unique nonzero values from [`LitmusProgram::store_value`] are the
    /// trace's store values), so crash indices align one-to-one with
    /// interleaving positions.
    ///
    /// # Panics
    ///
    /// Panics if `order` references an op outside the program — the
    /// harness generates orders from [`LitmusProgram::interleavings`],
    /// so a mismatch is a checker bug worth failing loudly on.
    pub fn materialize(&self, order: &[(usize, usize)], mode: FlushMode) -> Trace {
        let mut trace = Trace::new();
        for &(t, i) in order {
            match self.threads[t][i] {
                LitmusOp::Store { loc } => {
                    let value = match self.store_value(t, i) {
                        Some(v) => v,
                        None => unreachable!("op (t{t}, {i}) is a store"),
                    };
                    trace.push_store(Self::addr_of(loc), 8, value);
                }
                LitmusOp::Flush { loc } => {
                    let addr = Self::addr_of(loc);
                    trace.push(match mode {
                        FlushMode::Clwb => Event::Clwb { addr },
                        FlushMode::ClflushOpt => Event::ClflushOpt { addr },
                        FlushMode::Clflush => Event::Clflush { addr },
                    });
                }
                LitmusOp::Sfence => trace.push(Event::Sfence),
                LitmusOp::Pcommit => trace.push(Event::Pcommit),
            }
        }
        trace
    }

    /// The thread-major (t0 before t1) interleaving — the program order
    /// a sequential pipeline run uses.
    pub fn program_order(&self) -> Vec<(usize, usize)> {
        self.threads
            .iter()
            .enumerate()
            .flat_map(|(t, ops)| (0..ops.len()).map(move |i| (t, i)))
            .collect()
    }
}

impl fmt::Display for LitmusProgram {
    /// `t0: St x; Fl x; Sfence || t1: St y` — witness-friendly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, ops) in self.threads.iter().enumerate() {
            if t > 0 {
                f.write_str(" || ")?;
            }
            write!(f, "t{t}:")?;
            for (i, op) in ops.iter().enumerate() {
                f.write_str(if i == 0 { " " } else { "; " })?;
                write!(f, "{op}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn epoch_xy() -> LitmusProgram {
        LitmusProgram::pair(
            "epoch-xy",
            vec![
                LitmusOp::Store { loc: 0 },
                LitmusOp::Flush { loc: 0 },
                LitmusOp::Sfence,
            ],
            vec![LitmusOp::Store { loc: 1 }],
        )
    }

    #[test]
    fn store_values_are_unique_thread_major() {
        let p = epoch_xy();
        assert_eq!(p.store_value(0, 0), Some(1));
        assert_eq!(p.store_value(1, 0), Some(2));
        assert_eq!(p.store_value(0, 1), None); // a flush, not a store
        assert_eq!(p.num_locs(), 2);
        assert_eq!(p.num_ops(), 4);
    }

    #[test]
    fn interleavings_are_order_preserving_merges() {
        let p = epoch_xy();
        let ils = p.interleavings();
        // C(4,1) = 4 placements of the lone t1 op.
        assert_eq!(ils.len(), 4);
        for il in &ils {
            assert_eq!(il.len(), 4);
            // Thread-local order is preserved.
            let t0: Vec<usize> = il
                .iter()
                .filter(|&&(t, _)| t == 0)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(t0, vec![0, 1, 2]);
        }
        // Deterministic: first is thread-major program order.
        assert_eq!(ils[0], p.program_order());
    }

    #[test]
    fn materialize_maps_op_i_to_event_i() {
        let p = epoch_xy();
        let t = p.materialize(&p.program_order(), FlushMode::Clwb);
        assert_eq!(
            t.events,
            vec![
                Event::Store {
                    addr: LitmusProgram::addr_of(0),
                    size: 8,
                },
                Event::Clwb {
                    addr: LitmusProgram::addr_of(0)
                },
                Event::Sfence,
                Event::Store {
                    addr: LitmusProgram::addr_of(1),
                    size: 8,
                },
            ]
        );
        assert_eq!(t.values, [1, 2]);
        // Flush mode drives the flush instruction choice.
        let t = p.materialize(&p.program_order(), FlushMode::Clflush);
        assert!(matches!(t.events[1], Event::Clflush { .. }));
    }

    #[test]
    fn display_is_witness_friendly() {
        let p = epoch_xy();
        assert_eq!(p.to_string(), "t0: St x; Fl x; Sfence || t1: St y");
    }
}
