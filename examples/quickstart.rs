//! Quickstart: record a persistent-workload trace, time it with and
//! without speculative persistence, and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use specpersist::cpu::{CpuConfig, Simulator};
use specpersist::pmem::Variant;
use specpersist::workloads::{record_trace, BenchId, BenchSpec, TraceSpec};

fn main() {
    println!("specpersist quickstart: the linked-list benchmark (LL)\n");

    // 1. Record the benchmark in each build variant (Fig. 8's bars).
    //    Identical seeds give identical operation streams.
    let spec = BenchSpec {
        id: BenchId::LinkedList,
        init_ops: 500,
        sim_ops: 200,
    };
    let mut cycles = Vec::new();
    for variant in Variant::ALL {
        let out = record_trace(&TraceSpec::new(variant, spec, 42));
        let sim = Simulator::new(&out.events)
            .config(CpuConfig::baseline())
            .run()
            .expect("sound config");
        println!(
            "{:<10} {:>9} uops  {:>9} cycles  ({} pcommits, {} sfences)",
            variant.label(),
            out.counts.total(),
            sim.cpu.cycles,
            out.counts.pcommits,
            out.counts.fences,
        );
        cycles.push((variant, out, sim));
    }

    // 2. Replay the failure-safe build on the speculative-persistence
    //    core: the sfence stalls vanish.
    let (_, logpsf_out, logpsf_sim) = &cycles[3];
    let sp = Simulator::new(&logpsf_out.events)
        .config(CpuConfig::with_sp())
        .run()
        .expect("sound config");
    println!(
        "{:<10} {:>9} uops  {:>9} cycles  ({} speculative epochs, {} SSB stores)",
        "SP256",
        logpsf_out.counts.total(),
        sp.cpu.cycles,
        sp.cpu.epochs,
        sp.ssb.inserts,
    );

    let base = cycles[0].2.cpu.cycles as f64;
    println!("\nOverheads vs Base:");
    println!(
        "  Log+P+Sf : {:+.1}%",
        (logpsf_sim.cpu.cycles as f64 / base - 1.0) * 100.0
    );
    println!(
        "  SP256    : {:+.1}%",
        (sp.cpu.cycles as f64 / base - 1.0) * 100.0
    );
    println!(
        "\nSpeculative persistence recovered {:.0}% of the fence overhead.",
        (logpsf_sim.cpu.cycles - sp.cpu.cycles) as f64
            / (logpsf_sim.cpu.cycles as f64 - cycles[2].2.cpu.cycles as f64)
            * 100.0
    );
}
