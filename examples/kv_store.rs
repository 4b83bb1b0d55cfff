//! A failure-safe key-value store on simulated NVMM.
//!
//! Builds a small application on the public API: a KV store backed by
//! the persistent hash map, with every update wrapped in a write-ahead
//! logging transaction. Demonstrates the persistence cost ladder the
//! paper measures, then proves failure safety by crashing the store and
//! recovering.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use specpersist::cpu::{CpuConfig, Simulator};
use specpersist::pmem::{recover, CrashTrace, PmemEnv, Variant};
use specpersist::workloads::{
    make_workload, record_trace, BenchId, BenchSpec, OpOutcome, TraceSpec,
};

fn main() {
    println!("A persistent KV store with WAL transactions\n");

    // --- Part 1: the persistence cost ladder ---------------------------
    // record_trace embeds each operation in its application context
    // (driver work), exactly as the harness does for the paper figures.
    let spec = BenchSpec {
        id: BenchId::HashMap,
        init_ops: 30_000,
        sim_ops: 150,
    };
    let mut base_cycles = 0u64;
    for variant in Variant::ALL {
        let out = record_trace(&TraceSpec::new(variant, spec, 7));
        let plain = Simulator::new(&out.events)
            .config(CpuConfig::baseline())
            .run()
            .expect("sound config");
        let sp = Simulator::new(&out.events)
            .config(CpuConfig::with_sp())
            .run()
            .expect("sound config");
        if variant == Variant::Base {
            base_cycles = plain.cpu.cycles;
        }
        println!(
            "{:<10} {:>7} cycles/op baseline core ({:+5.1}% vs Base)   {:>7} cycles/op with SP",
            variant.label(),
            plain.cpu.cycles / spec.sim_ops,
            (plain.cpu.cycles as f64 / base_cycles as f64 - 1.0) * 100.0,
            sp.cpu.cycles / spec.sim_ops,
        );
    }

    // --- Part 2: crash it, recover it, verify it ----------------------
    println!("\nCrash-recovery demonstration (Log+P+Sf build):");
    let mut env = PmemEnv::new(Variant::LogPSf);
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = make_workload(BenchId::HashMap);
    env.set_recording(false);
    store.setup(&mut env, &mut rng, 500);
    env.set_recording(true);
    let base_image = env.snapshot();
    let keys_before = store.verify(env.space()).expect("valid store").keys.len();

    let mut outcomes = Vec::new();
    for op in 0..20 {
        outcomes.push(store.run_op(&mut env, &mut rng, op));
    }
    let layout = env.log_layout();
    let trace = CrashTrace::new(base_image, env.take_trace());

    // Probe crash points until we have shown both cases: a crash with
    // no transaction in flight, and one mid-transaction that recovery
    // has to undo.
    let mut shown = (false, false);
    for i in 1..trace.events().len() {
        let crash = trace.events().len() * i / 40;
        if crash >= trace.events().len() {
            break;
        }
        let mut image = trace.at(crash).image_guaranteed_only();
        let report = recover(&mut image, &layout);
        let recovered = store.verify(&image).expect("recovered store is valid");
        let fresh = match (report.tx_in_flight, shown) {
            (false, (false, _)) => {
                shown.0 = true;
                true
            }
            (true, (_, false)) => {
                shown.1 = true;
                true
            }
            _ => false,
        };
        if fresh {
            println!(
                "  crash at event {:>6}: tx in flight = {:<5} undo entries applied = {:<3} \
                 keys = {} (started with {})",
                crash,
                report.tx_in_flight,
                report.entries_applied,
                recovered.keys.len(),
                keys_before,
            );
        }
        if shown == (true, true) {
            break;
        }
    }

    let inserted = outcomes
        .iter()
        .filter(|o| matches!(o, OpOutcome::Inserted(_)))
        .count();
    let deleted = outcomes
        .iter()
        .filter(|o| matches!(o, OpOutcome::Deleted(_)))
        .count();
    println!("\n(the 20 live operations inserted {inserted} keys and deleted {deleted})");
    println!("Every recovered image passed full structural verification.");
}
