//! The shared-data multi-core scaling study (`repro multicore`).
//!
//! 1→N cores run concurrent persistent structures
//! ([`spp_workloads::shared`]) over one shared memory controller with
//! coherence wired between the cores, × {baseline, SP} × {contended,
//! disjoint}. Each cell reports the worst core's cycles/op, the BLT
//! conflict/rollback counts the contention produced, and the BLT
//! high-water/clear accounting — the measurements §4.2.2 implies but
//! the paper leaves to future work.
//!
//! Cells are pure functions of `(kind, leg, cores, variant, scale,
//! seed)` and run on [`run_indexed`]: results come back in input order
//! (so `--jobs N` output is byte-identical to `--jobs 1`).
//!
//! A cell whose simulation returns a typed error (e.g. a conflict
//! storm tripping [`spp_cpu::SimErrorKind::ConflictStorm`]) is a failed
//! cell carrying the error's JSON, and the study's exit verdict
//! reflects it.

use spp_cpu::{CpuConfig, MultiCore};
use spp_workloads::{shared_trace, SharedKind, SharedSpec};

use crate::json::{self, JsonObject};
use crate::schema;
use crate::{run_indexed, Harness};

/// Core counts the study sweeps.
pub const CORE_COUNTS: [usize; 3] = [1, 2, 4];

/// Per-mille of shared operations on the contended leg.
pub const CONTENDED_SHARE_PM: u32 = 600;

/// One configuration point of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Which shared structure.
    pub kind: SharedKind,
    /// Shared-structure operations enabled (contended leg) or fully
    /// core-private addressing (disjoint leg).
    pub contended: bool,
    /// Number of cores.
    pub cores: usize,
    /// Speculative persistence on?
    pub sp: bool,
}

impl CellSpec {
    /// Every cell of the study, in report order.
    pub fn all() -> Vec<CellSpec> {
        let mut v = Vec::new();
        for kind in SharedKind::ALL {
            for contended in [true, false] {
                for cores in CORE_COUNTS {
                    for sp in [false, true] {
                        v.push(CellSpec {
                            kind,
                            contended,
                            cores,
                            sp,
                        });
                    }
                }
            }
        }
        v
    }

    fn leg(&self) -> &'static str {
        if self.contended {
            "contended"
        } else {
            "disjoint"
        }
    }

    fn variant(&self) -> &'static str {
        if self.sp {
            "sp"
        } else {
            "base"
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreCell {
    /// The configuration measured.
    pub spec: CellSpec,
    /// Did every core finish without a typed simulation error?
    pub ok: bool,
    /// Operations per core the cell simulated.
    pub ops_per_core: u64,
    /// Worst core's cycles per operation (0 on a failed cell).
    pub worst_cycles_per_op: u64,
    /// Total BLT conflicts across cores (each one caused a rollback).
    pub conflicts: u64,
    /// Total rollbacks across cores.
    pub rollbacks: u64,
    /// Total coherence snoops delivered to BLTs.
    pub snoops: u64,
    /// Largest per-core BLT high-water mark.
    pub blt_high_water: u64,
    /// Total BLT flash-clears (rollbacks + clean speculation exits).
    pub blt_clears: u64,
    /// The typed [`spp_cpu::SimError`]'s JSON rendering, for a failed
    /// cell.
    pub error: Option<String>,
}

impl MulticoreCell {
    /// A failed cell with nothing measured yet.
    pub(crate) fn empty(spec: CellSpec, ops_per_core: u64) -> Self {
        MulticoreCell {
            spec,
            ok: false,
            ops_per_core,
            worst_cycles_per_op: 0,
            conflicts: 0,
            rollbacks: 0,
            snoops: 0,
            blt_high_water: 0,
            blt_clears: 0,
            error: None,
        }
    }
}

/// The study's full result set.
#[derive(Debug, Clone)]
pub struct MulticoreReport {
    /// Scale the cells were sized from.
    pub scale: u64,
    /// Seed the per-core trace streams derive from.
    pub seed: u64,
    /// Operations per core.
    pub ops_per_core: u64,
    /// Every cell, in [`CellSpec::all`] order.
    pub cells: Vec<MulticoreCell>,
}

/// Operations per core at `scale` (floored so tiny smoke scales still
/// produce enough barrier crossings to see conflicts).
fn ops_at(scale: u64) -> u64 {
    (scale / 10).max(24)
}

/// Simulates one cell. Never panics: a typed simulation failure
/// becomes a failed cell carrying the error JSON.
fn run_cell(spec: &CellSpec, ops_per_core: u64, seed: u64) -> MulticoreCell {
    let shared = SharedSpec {
        ops_per_core,
        share_pm: if spec.contended {
            CONTENDED_SHARE_PM
        } else {
            0
        },
        seed,
    };
    let traces: Vec<_> = (0..spec.cores)
        .map(|c| shared_trace(spec.kind, c, &shared))
        .collect();
    let refs: Vec<&[spp_pmem::Event]> = traces.iter().map(|t| &t.events[..]).collect();
    let cfg = if spec.sp {
        CpuConfig::with_sp()
    } else {
        CpuConfig::baseline()
    };
    let mut cell = MulticoreCell::empty(*spec, ops_per_core);
    let built = match MultiCore::try_new(&refs, cfg) {
        Ok(m) => m,
        Err(e) => {
            cell.error = Some(format!("construct: {e}"));
            return cell;
        }
    };
    match built.try_run() {
        Ok(results) => {
            cell.ok = true;
            for r in &results {
                cell.conflicts += r.blt.conflicts;
                cell.rollbacks += r.cpu.rollbacks;
                cell.snoops += r.blt.snoops;
                cell.blt_high_water = cell.blt_high_water.max(r.blt.high_water as u64);
                cell.blt_clears += r.blt.clears;
            }
            let worst = results.iter().map(|r| r.cpu.cycles).max().unwrap_or(0);
            cell.worst_cycles_per_op = worst / ops_per_core.max(1);
        }
        Err(e) => {
            cell.error = Some(e.to_json());
        }
    }
    cell
}

impl MulticoreCell {
    /// The cell as one JSON object, the report's `cells` element. The
    /// spec fields lead.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("workload", self.spec.kind.key())
            .str("leg", self.spec.leg())
            .int("cores", self.spec.cores as u64)
            .str("variant", self.spec.variant())
            .flag("ok", self.ok)
            .int("ops_per_core", self.ops_per_core)
            .int("worst_cycles_per_op", self.worst_cycles_per_op)
            .int("conflicts", self.conflicts)
            .int("rollbacks", self.rollbacks)
            .int("snoops", self.snoops)
            .int("blt_high_water", self.blt_high_water)
            .int("blt_clears", self.blt_clears)
            .opt_str("error", self.error.as_deref());
        o.render()
    }
}

/// Runs the scaling study: every [`CellSpec::all`] cell on
/// [`run_indexed`].
pub fn run_multicore(h: &Harness) -> MulticoreReport {
    let (scale, seed) = (h.exp.scale, h.exp.seed);
    let ops_per_core = ops_at(scale);
    let specs = CellSpec::all();
    let cells = run_indexed(h.jobs, &specs, |_, spec| run_cell(spec, ops_per_core, seed));
    MulticoreReport {
        scale,
        seed,
        ops_per_core,
        cells,
    }
}

impl MulticoreReport {
    fn find(&self, kind: SharedKind, contended: bool, cores: usize, sp: bool) -> &MulticoreCell {
        self.cells
            .iter()
            .find(|c| {
                c.spec.kind == kind
                    && c.spec.contended == contended
                    && c.spec.cores == cores
                    && c.spec.sp == sp
            })
            .expect("CellSpec::all covers the full grid")
    }

    /// Total conflicts on contended SP cells with ≥ 2 cores (the cells
    /// where sharing can and should produce BLT hits).
    pub fn contended_sp_conflicts(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.spec.contended && c.spec.sp && c.spec.cores >= 2)
            .map(|c| c.conflicts)
            .sum()
    }

    /// Total conflicts anywhere on the disjoint legs (must be zero).
    pub fn disjoint_conflicts(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| !c.spec.contended)
            .map(|c| c.conflicts + c.rollbacks)
            .sum()
    }

    /// The study's verdict: every cell simulated cleanly, the contended
    /// SP legs produced coherence conflicts, and the disjoint legs
    /// produced none.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
            && self.contended_sp_conflicts() > 0
            && self.disjoint_conflicts() == 0
    }

    /// The human-readable scaling tables.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== Shared-data multi-core scaling: worst-core cycles/op (\u{a7}4.1/\u{a7}4.2.2) =="
        );
        let _ = writeln!(
            s,
            "{} ops/core, contended leg shares {}\u{2030} of ops, seed {:#x}",
            self.ops_per_core, CONTENDED_SHARE_PM, self.seed
        );
        let _ = writeln!(s);
        for kind in SharedKind::ALL {
            for contended in [true, false] {
                let leg = if contended { "contended" } else { "disjoint" };
                let _ = writeln!(s, "-- {} \u{b7} {leg} --", kind.name());
                let _ = writeln!(
                    s,
                    "{:<7} {:>10} {:>10} {:>9} {:>10} {:>10} {:>8} {:>8}",
                    "cores",
                    "baseline",
                    "SP256",
                    "SP saves",
                    "conflicts",
                    "rollbacks",
                    "BLT hw",
                    "clears"
                );
                for cores in CORE_COUNTS {
                    let base = self.find(kind, contended, cores, false);
                    let sp = self.find(kind, contended, cores, true);
                    if !base.ok || !sp.ok {
                        let _ = writeln!(
                            s,
                            "{cores:<7} degraded: {}",
                            base.error
                                .as_deref()
                                .or(sp.error.as_deref())
                                .unwrap_or("unknown")
                        );
                        continue;
                    }
                    let saves = if base.worst_cycles_per_op > 0 {
                        (1.0 - sp.worst_cycles_per_op as f64 / base.worst_cycles_per_op as f64)
                            * 100.0
                    } else {
                        0.0
                    };
                    let _ = writeln!(
                        s,
                        "{:<7} {:>10} {:>10} {:>8.0}% {:>10} {:>10} {:>8} {:>8}",
                        cores,
                        base.worst_cycles_per_op,
                        sp.worst_cycles_per_op,
                        saves,
                        sp.conflicts,
                        sp.rollbacks,
                        sp.blt_high_water,
                        sp.blt_clears
                    );
                }
                let _ = writeln!(s);
            }
        }
        let _ = writeln!(
            s,
            "Cores share the memory controller and, on the contended leg, the\n\
             structures' control blocks: a store by one core that hits another\n\
             core's BLT rolls the speculating core back to its oldest checkpoint\n\
             (\u{a7}4.2.2). The disjoint leg keeps coherence wired but address sets\n\
             private, so it must stay conflict-free."
        );
        let _ = writeln!(
            s,
            "# multicore check: contended-sp-conflicts={} disjoint-conflicts={}",
            self.contended_sp_conflicts(),
            self.disjoint_conflicts()
        );
        let _ = writeln!(s, "multicore: {}", if self.ok() { "PASS" } else { "FAIL" });
        s
    }

    /// The study as one `specpersist/multicore-v1` document.
    pub fn render_json(&self) -> String {
        schema::emit(schema::MULTICORE, |root| {
            root.int("scale", self.scale)
                .int("seed", self.seed)
                .int("ops_per_core", self.ops_per_core)
                .int("contended_share_pm", CONTENDED_SHARE_PM.into())
                .int("contended_sp_conflicts", self.contended_sp_conflicts())
                .int("disjoint_conflicts", self.disjoint_conflicts())
                .flag("ok", self.ok())
                .raw(
                    "cells",
                    json::array(self.cells.iter().map(MulticoreCell::json)),
                );
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Experiment;

    fn harness() -> Harness {
        Harness::new(
            Experiment {
                scale: 240,
                seed: 0x5EED,
            },
            2,
        )
    }

    #[test]
    fn study_finds_conflicts_only_where_sharing_exists() {
        let rep = run_multicore(&harness());
        assert_eq!(rep.cells.len(), CellSpec::all().len());
        assert!(rep.cells.iter().all(|c| c.ok), "no cell may degrade");
        assert!(
            rep.contended_sp_conflicts() > 0,
            "contended SP legs must conflict"
        );
        assert_eq!(rep.disjoint_conflicts(), 0, "disjoint legs must not");
        // Baseline never speculates, so it can never roll back.
        for c in rep.cells.iter().filter(|c| !c.spec.sp) {
            assert_eq!(c.rollbacks, 0, "{:?}", c.spec);
        }
        assert!(rep.ok());
        assert!(rep
            .render_json()
            .starts_with("{\"schema\":\"specpersist/multicore-v1\""));
        assert!(rep.render_text().contains("multicore: PASS"));
    }

    #[test]
    fn jobs_do_not_change_the_bytes() {
        let h1 = Harness::new(harness().exp, 1);
        let h8 = Harness::new(harness().exp, 8);
        let a = run_multicore(&h1);
        let b = run_multicore(&h8);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
    }
}
