//! SSB design-space tuning: reproduce the Fig. 13 trade-off on one
//! benchmark and watch both failure modes — structural hazards when the
//! buffer is small, CAM latency when it is large.
//!
//! ```text
//! cargo run --release --example ssb_tuning
//! ```

use specpersist::core::SSB_DESIGN_POINTS;
use specpersist::cpu::{CpuConfig, Simulator, SpConfig};
use specpersist::pmem::Variant;
use specpersist::workloads::{record_trace, BenchId, BenchSpec, TraceSpec};

fn main() {
    let id = BenchId::BTree;
    println!("SSB size sweep on {} (Table 3 design points)\n", id.name());

    let spec = BenchSpec::scaled(id, 200);
    let seed = 0x55B;
    let logpsf = record_trace(&TraceSpec::new(Variant::LogPSf, spec, seed));
    let base = record_trace(&TraceSpec::new(Variant::Base, spec, seed));
    let base_cycles = Simulator::new(&base.events)
        .config(CpuConfig::baseline())
        .run()
        .expect("sound config")
        .cpu
        .cycles;
    let nosp = Simulator::new(&logpsf.events)
        .config(CpuConfig::baseline())
        .run()
        .expect("sound config")
        .cpu
        .cycles;

    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>12} {:>10}",
        "entries", "latency", "cycles", "overhead", "ssb-stalls", "fwd-hits"
    );
    for (entries, latency) in SSB_DESIGN_POINTS {
        let cfg = CpuConfig {
            sp: Some(SpConfig::with_ssb_entries(entries)),
            ..CpuConfig::baseline()
        };
        let r = Simulator::new(&logpsf.events)
            .config(cfg)
            .run()
            .expect("sound config");
        println!(
            "{:>8} {:>8} {:>12} {:>13.1}% {:>12} {:>10}",
            entries,
            latency,
            r.cpu.cycles,
            (r.cpu.cycles as f64 / base_cycles as f64 - 1.0) * 100.0,
            r.cpu.ssb_full_stall_cycles,
            r.cpu.ssb_forwards,
        );
    }
    println!(
        "\nWithout speculation the same trace takes {} cycles ({:+.1}% over Base).",
        nosp,
        (nosp as f64 / base_cycles as f64 - 1.0) * 100.0
    );
    println!("Small buffers stall retirement (structural hazard); very large ones tax");
    println!("every bloom-positive load with a slower CAM — 128-256 entries is the knee.");
}
