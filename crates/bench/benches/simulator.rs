//! Criterion benchmarks of end-to-end simulation throughput: trace
//! generation plus pipeline replay for each Table 1 benchmark (tiny
//! sizing), and the baseline-vs-SP replay of a persist-barrier stream.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use spp_bench::Experiment;
use spp_cpu::{CpuConfig, SimResult, Simulator};
use spp_pmem::{Event, PAddr, Variant};
use spp_workloads::{make_workload, record_workload, BenchId, BenchSpec, TraceSpec};

fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
    Simulator::new(events)
        .config(*cfg)
        .run()
        .expect("bench traces must simulate cleanly")
}

/// Records one benchmark's trace in `variant` and simulates it on `cpu`
/// (a fresh population and recording every call, bypassing the setup
/// cache: this measures end-to-end cost).
fn run_variant(id: BenchId, variant: Variant, exp: &Experiment, cpu: &CpuConfig) -> SimResult {
    let ts = TraceSpec::new(variant, BenchSpec::scaled(id, exp.scale), exp.seed);
    simulate(&record_workload(make_workload(id), &ts).events, cpu)
}

fn barrier_trace(n: u64) -> Vec<Event> {
    let mut ev = Vec::new();
    for i in 0..n {
        let a = PAddr::new(4096 + i * 64);
        ev.push(Event::Store { addr: a, size: 8 });
        ev.push(Event::Clwb { addr: a });
        ev.push(Event::Sfence);
        ev.push(Event::Pcommit);
        ev.push(Event::Sfence);
        ev.push(Event::Compute(200));
    }
    ev
}

fn bench_pipeline_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    let trace = barrier_trace(200);
    g.bench_function("barriers_baseline", |b| {
        b.iter(|| black_box(simulate(&trace, &CpuConfig::baseline()).cpu.cycles))
    });
    g.bench_function("barriers_sp256", |b| {
        b.iter(|| black_box(simulate(&trace, &CpuConfig::with_sp()).cpu.cycles))
    });
    g.finish();
}

fn bench_full_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("bench_run");
    g.sample_size(10);
    let exp = Experiment {
        scale: 5000,
        seed: 7,
    };
    for id in BenchId::ALL {
        g.bench_with_input(BenchmarkId::new("logpsf_sp", id.abbrev()), &id, |b, &id| {
            b.iter(|| {
                let sim = run_variant(id, Variant::LogPSf, &exp, &CpuConfig::with_sp());
                black_box(sim.cpu.cycles)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline_replay, bench_full_runs);
criterion_main!(benches);
