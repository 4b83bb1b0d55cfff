//! Pretty-printers: one report per paper table/figure.

use std::fmt::Write as _;

use spp_cpu::CpuConfig;
use spp_workloads::{BenchId, BenchSpec};

use crate::{geomean_overhead, BenchRun, Experiment, Harness};

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Table 1: the benchmark suite (paper sizing and the scaled sizing in
/// use).
pub fn table1(exp: &Experiment) -> String {
    let mut s = header("Table 1: benchmarks (paper sizing -> scaled sizing)");
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>10} {:>12} {:>10}",
        "Benchmark", "#InitOps", "#SimOps", "scaled-init", "scaled-sim"
    );
    for id in BenchId::ALL {
        let p = BenchSpec::paper(id);
        let c = BenchSpec::scaled(id, exp.scale);
        let _ = writeln!(
            s,
            "{:<12} {:>12} {:>10} {:>12} {:>10}",
            format!("{} ({})", id.name(), id.abbrev()),
            p.init_ops,
            p.sim_ops,
            c.init_ops,
            c.sim_ops
        );
    }
    s
}

/// Table 2: the baseline system configuration in force.
pub fn table2() -> String {
    let c = CpuConfig::baseline();
    let mut s = header("Table 2: baseline system configuration");
    let _ = writeln!(s, "Processor   OOO, 4-wide issue/retire");
    let _ = writeln!(
        s,
        "            ROB: {}, fetchQ/issueQ/LSQ: {}/{}/{}",
        c.rob_entries, c.fetch_queue, c.issue_queue, c.lsq_entries
    );
    let m = c.mem;
    let _ = writeln!(
        s,
        "L1D         {} KB, {}-way, 64B block, {} cycles",
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.latency
    );
    let _ = writeln!(
        s,
        "L2          {} KB, {}-way, 64B block, {} cycles",
        m.l2.size_bytes / 1024,
        m.l2.ways,
        m.l2.latency
    );
    let _ = writeln!(
        s,
        "L3          {} MB, {}-way, 64B block, {} cycles",
        m.l3.size_bytes / (1024 * 1024),
        m.l3.ways,
        m.l3.latency
    );
    let _ = writeln!(s, "Checkpoints 4 entries");
    let _ = writeln!(
        s,
        "NVMM        {} cycles read (50ns), {} cycles write (150ns)",
        m.nvmm_read, m.nvmm_write
    );
    let _ = writeln!(
        s,
        "MC          WPQ {} entries, {} banks",
        m.wpq_entries, m.nvmm_banks
    );
    s
}

/// Table 3: the SSB design points.
pub fn table3() -> String {
    let mut s = header("Table 3: SSB configurations and parameters");
    let _ = write!(s, "Num entries     ");
    for (e, _) in spp_core::SSB_DESIGN_POINTS {
        let _ = write!(s, "{e:>6}");
    }
    let _ = write!(s, "\nLatency (cycles)");
    for (_, l) in spp_core::SSB_DESIGN_POINTS {
        let _ = write!(s, "{l:>6}");
    }
    s.push('\n');
    s
}

/// Fig. 8: execution-time overheads of Log / Log+P / Log+P+Sf / SP256
/// over Base, plus the paper's headline aggregates.
pub fn fig8(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 8: execution time overhead vs Base (%)");
    let _ = writeln!(
        s,
        "{:<6} {:>8} {:>8} {:>10} {:>8}",
        "Bench", "Log", "Log+P", "Log+P+Sf", "SP256"
    );
    let pct = |o: f64| format!("{:.1}", o * 100.0);
    let mut o_log = Vec::new();
    let mut o_logp = Vec::new();
    let mut o_logpsf = Vec::new();
    let mut o_sp = Vec::new();
    for r in runs {
        let (l, lp, lpsf, sp) = (
            r.overhead(r.log.sim.cpu.cycles),
            r.overhead(r.logp.sim.cpu.cycles),
            r.overhead(r.logpsf.sim.cpu.cycles),
            r.overhead(r.sp256.cpu.cycles),
        );
        let _ = writeln!(
            s,
            "{:<6} {:>8} {:>8} {:>10} {:>8}",
            r.id.abbrev(),
            pct(l),
            pct(lp),
            pct(lpsf),
            pct(sp)
        );
        o_log.push(l);
        o_logp.push(lp);
        o_logpsf.push(lpsf);
        o_sp.push(sp);
    }
    let _ = writeln!(
        s,
        "{:<6} {:>8} {:>8} {:>10} {:>8}",
        "GEOM",
        pct(geomean_overhead(o_log.iter().copied())),
        pct(geomean_overhead(o_logp.iter().copied())),
        pct(geomean_overhead(o_logpsf.iter().copied())),
        pct(geomean_overhead(o_sp.iter().copied()))
    );
    // Headline numbers: fence cost over Log+P, and SP's residual cost
    // over Log+P (the paper reports 20.3% -> 3.6%).
    let fence_cost = geomean_overhead(
        runs.iter()
            .map(|r| r.logpsf.sim.cpu.cycles as f64 / r.logp.sim.cpu.cycles as f64 - 1.0),
    );
    let sp_cost = geomean_overhead(
        runs.iter()
            .map(|r| r.sp256.cpu.cycles as f64 / r.logp.sim.cpu.cycles as f64 - 1.0),
    );
    let _ = writeln!(
        s,
        "\nHeadline (vs Log+P, geomean): fences add {:.1}% (paper: 20.3%),",
        fence_cost * 100.0
    );
    let _ = writeln!(
        s,
        "                              SP brings it to {:.1}% (paper: 3.6%)",
        sp_cost * 100.0
    );
    s
}

/// Fig. 9: committed-instruction-count ratio to Base.
pub fn fig9(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 9: committed instruction count ratio vs Base");
    let _ = writeln!(
        s,
        "{:<6} {:>8} {:>8} {:>10}",
        "Bench", "Log", "Log+P", "Log+P+Sf"
    );
    for r in runs {
        let b = r.base.counts.total() as f64;
        let _ = writeln!(
            s,
            "{:<6} {:>8.2} {:>8.2} {:>10.2}",
            r.id.abbrev(),
            r.log.counts.total() as f64 / b,
            r.logp.counts.total() as f64 / b,
            r.logpsf.counts.total() as f64 / b
        );
    }
    s
}

/// Fig. 10: fetch-queue stall cycles as a fraction of Base cycles.
pub fn fig10(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 10: fetch queue stall cycles / Base execution cycles");
    let _ = writeln!(
        s,
        "{:<6} {:>8} {:>8} {:>10} {:>8}",
        "Bench", "Log", "Log+P", "Log+P+Sf", "SP256"
    );
    for r in runs {
        let b = r.base.sim.cpu.cycles as f64;
        let _ = writeln!(
            s,
            "{:<6} {:>8.3} {:>8.3} {:>10.3} {:>8.3}",
            r.id.abbrev(),
            r.log.sim.cpu.fetch_stall_cycles as f64 / b,
            r.logp.sim.cpu.fetch_stall_cycles as f64 / b,
            r.logpsf.sim.cpu.fetch_stall_cycles as f64 / b,
            r.sp256.cpu.fetch_stall_cycles as f64 / b
        );
    }
    s
}

/// Fig. 11: maximum in-flight pcommits (measured on Log+P, as in the
/// paper).
pub fn fig11(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 11: maximum number of in-flight pcommits (Log+P)");
    for r in runs {
        let _ = writeln!(
            s,
            "{:<6} {:>4}",
            r.id.abbrev(),
            r.logp.sim.cpu.max_inflight_pcommits
        );
    }
    s
}

/// Fig. 12: average stores in the pipeline per outstanding pcommit
/// (Log+P).
pub fn fig12(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 12: avg speculative stores while a pcommit is outstanding (Log+P)");
    for r in runs {
        let _ = writeln!(
            s,
            "{:<6} {:>8.1}",
            r.id.abbrev(),
            r.logp.sim.stores_per_pcommit()
        );
    }
    s
}

/// Fig. 13: SP overhead vs SSB size.
pub fn fig13(h: &Harness) -> String {
    let mut s = header("Fig. 13: SP overhead vs Base (%) across SSB sizes");
    let _ = write!(s, "{:<6}", "Bench");
    for (e, _) in spp_core::SSB_DESIGN_POINTS {
        let _ = write!(s, "{e:>8}");
    }
    s.push('\n');
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); spp_core::SSB_DESIGN_POINTS.len()];
    for (id, pts) in h.ssb_table(&BenchId::ALL) {
        let _ = write!(s, "{:<6}", id.abbrev());
        for (i, (_, o)) in pts.iter().enumerate() {
            let _ = write!(s, "{:>8.1}", o * 100.0);
            per_size[i].push(*o);
        }
        s.push('\n');
    }
    let _ = write!(s, "{:<6}", "GEOM");
    for sizes in &per_size {
        let _ = write!(
            s,
            "{:>8.1}",
            geomean_overhead(sizes.iter().copied()) * 100.0
        );
    }
    s.push('\n');
    s
}

/// Fig. 14: bloom-filter false-positive rates on SP256.
pub fn fig14(runs: &[BenchRun]) -> String {
    let mut s = header("Fig. 14: bloom filter false positive rate (SP256, 512B)");
    for r in runs {
        let _ = writeln!(
            s,
            "{:<6} {:>8.4}  ({} queries, {} false positives)",
            r.id.abbrev(),
            r.sp256.bloom_false_positive_rate(),
            r.sp256.bloom.queries,
            r.sp256.bloom.false_positives
        );
    }
    s
}

/// Ablation (beyond the paper): the combined-opcode optimization and
/// checkpoint-count sensitivity.
pub fn ablation(h: &Harness) -> String {
    let mut s = header("Ablation: SP overhead vs Base (%), design-choice sensitivity");
    let _ = writeln!(
        s,
        "{:<6} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "Bench", "SP256", "no-combine", "1 ckpt", "2 ckpt", "8 ckpt"
    );
    for (id, [full, nocomb, c1, c2, c8]) in h.ablation_table(&BenchId::ALL) {
        let _ = writeln!(
            s,
            "{:<6} {:>10.1} {:>12.1} {:>8.1} {:>8.1} {:>8.1}",
            id.abbrev(),
            full * 100.0,
            nocomb * 100.0,
            c1 * 100.0,
            c2 * 100.0,
            c8 * 100.0
        );
    }
    s
}

/// The benchmarks of the flush-instruction ablation.
pub const FLUSHMODE_BENCHES: [BenchId; 3] = [BenchId::LinkedList, BenchId::HashMap, BenchId::BTree];

/// Flush-instruction ablation: `clwb` vs `clflushopt` vs legacy
/// `clflush` (the paper's §2.2 footnote).
pub fn flushmode(h: &Harness) -> String {
    let mut s = header("Flush-instruction ablation: cycles/op, Log+P+Sf build");
    let _ = writeln!(
        s,
        "{:<6} {:>10} {:>12} {:>10} | {:>10} {:>12} {:>10}",
        "Bench", "clwb", "clflushopt", "clflush", "clwb+SP", "opt+SP", "flush+SP"
    );
    for (id, cols) in h.flushmode_table(&FLUSHMODE_BENCHES) {
        let _ = writeln!(
            s,
            "{:<6} {:>10} {:>12} {:>10} | {:>10} {:>12} {:>10}",
            id.abbrev(),
            cols[0].0,
            cols[1].0,
            cols[2].0,
            cols[0].1,
            cols[1].1,
            cols[2].1
        );
    }
    let _ = writeln!(
        s,
        "\nclflushopt evicts the line (the next logging pass re-fetches it);\n\
         legacy clflush additionally serializes retirement on every writeback —\n\
         the paper's reason for excluding it (§2.2, footnote 2)."
    );
    s
}

/// The shared-data multi-core scaling study: concurrent persistent
/// structures over one coherent memory system, baseline vs SP, with
/// BLT conflict/rollback accounting (§4.1/§4.2.2).
pub fn multicore(h: &Harness) -> String {
    crate::multicore::run_multicore(h).render_text()
}

/// Full vs incremental logging on the B-tree (§3.2, Figs. 4-5).
pub fn incremental(h: &Harness) -> String {
    let c = h.run_logging_comparison();
    let mut s = header("Full vs incremental logging (B-tree, §3.2)");
    let _ = writeln!(
        s,
        "{:<26} {:>12} {:>14}",
        "per operation", "full", "incremental"
    );
    let _ = writeln!(
        s,
        "{:<26} {:>12} {:>14}",
        "cycles (baseline core)", c.full_cycles, c.inc_cycles
    );
    let _ = writeln!(
        s,
        "{:<26} {:>12} {:>14}",
        "cycles (SP256 core)", c.full_sp_cycles, c.inc_sp_cycles
    );
    let _ = writeln!(
        s,
        "{:<26} {:>12.1} {:>14.1}",
        "pcommits", c.full_pcommits, c.inc_pcommits
    );
    let _ = writeln!(
        s,
        "{:<26} {:>12.0} {:>14.0}",
        "store micro-ops", c.full_stores, c.inc_stores
    );
    let _ = writeln!(
        s,
        "\nThe paper's trade-off: incremental logging writes less log data but\n\
         issues a set of persist barriers per rebalancing step; full logging\n\
         pays one set of four pcommits per operation regardless."
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let exp = Experiment {
            scale: 1000,
            seed: 1,
        };
        let t1 = table1(&exp);
        assert!(t1.contains("Linked-List"));
        assert!(t1.contains("2600000"));
        let t2 = table2();
        assert!(t2.contains("ROB: 128"));
        assert!(t2.contains("315 cycles write"));
        let t3 = table3();
        assert!(t3.contains("1024"));
    }

    #[test]
    fn figure_reports_render_from_a_tiny_suite() {
        let exp = Experiment {
            scale: 5000,
            seed: 1,
        };
        let runs = Harness::new(exp, 1).run_benches(&BenchId::ALL);
        assert_eq!(runs.len(), 7);
        for (name, text) in [
            ("fig8", fig8(&runs)),
            ("fig9", fig9(&runs)),
            ("fig10", fig10(&runs)),
            ("fig11", fig11(&runs)),
            ("fig12", fig12(&runs)),
            ("fig14", fig14(&runs)),
        ] {
            for id in BenchId::ALL {
                assert!(text.contains(id.abbrev()), "{name} missing {id}");
            }
        }
        assert!(fig8(&runs).contains("GEOM"));
    }
}
