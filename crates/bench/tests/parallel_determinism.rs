//! The harness's central contract: parallelism and caching change wall
//! time only, never a single number.
//!
//! * A parallel suite run is bit-identical to a serial one (every
//!   counter of every `SimResult`, compared via exhaustive `Debug`
//!   formatting) across multiple seeds.
//! * A cached trace replayed under two simulator configurations equals
//!   two fresh recordings simulated under the same configurations.
//! * Rendered reports — the bytes `repro` prints — are identical at
//!   any job count.

use spp_bench::{report, BenchRun, Experiment, Harness, TraceKey};
use spp_cpu::{CpuConfig, SimResult, Simulator};
use spp_pmem::{Event, Variant};
use spp_workloads::{record_trace, BenchId};

fn simulate(events: &[Event], cfg: &CpuConfig) -> SimResult {
    Simulator::new(events)
        .config(*cfg)
        .run()
        .expect("cached traces must simulate cleanly")
}

fn tiny(seed: u64) -> Experiment {
    Experiment { scale: 5000, seed }
}

/// Exhaustive field-by-field comparison via the derived `Debug`
/// representation (covers cycles, every stall counter, cache and
/// memory-controller stats, SSB/bloom/checkpoint/BLT counters).
fn assert_runs_identical(serial: &[BenchRun], parallel: &[BenchRun], seed: u64) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.id, p.id);
        for (name, a, b) in [
            ("base", format!("{:?}", s.base), format!("{:?}", p.base)),
            ("log", format!("{:?}", s.log), format!("{:?}", p.log)),
            ("logp", format!("{:?}", s.logp), format!("{:?}", p.logp)),
            (
                "logpsf",
                format!("{:?}", s.logpsf),
                format!("{:?}", p.logpsf),
            ),
            ("sp256", format!("{:?}", s.sp256), format!("{:?}", p.sp256)),
        ] {
            assert_eq!(
                a, b,
                "seed {seed}, {}/{name}: parallel diverged from serial",
                s.id
            );
        }
    }
}

#[test]
fn parallel_suite_is_bit_identical_to_serial_across_seeds() {
    for seed in [1u64, 0x5EED] {
        let serial = Harness::new(tiny(seed), 1).run_benches(&BenchId::ALL);
        let parallel = Harness::new(tiny(seed), 8).run_benches(&BenchId::ALL);
        assert_runs_identical(&serial, &parallel, seed);
    }
}

#[test]
fn cached_trace_replay_equals_fresh_recordings() {
    let exp = tiny(7);
    let h = Harness::new(exp, 4);
    let key = TraceKey::new(BenchId::BTree, Variant::LogPSf, &exp);

    // One cached recording, replayed under two configurations...
    let cached = h.trace(key);
    let on_base = simulate(&cached.events, &CpuConfig::baseline());
    let on_sp = simulate(&cached.events, &CpuConfig::with_sp());

    // ...must equal two entirely fresh recordings of the same spec.
    for (cfg, cached_sim) in [
        (CpuConfig::baseline(), on_base),
        (CpuConfig::with_sp(), on_sp),
    ] {
        let fresh = record_trace(&key.trace_spec());
        assert_eq!(
            &fresh.events[..],
            &cached.events[..],
            "recording is not a pure function"
        );
        let fresh_sim = simulate(&fresh.events, &cfg);
        assert_eq!(
            format!("{cached_sim:?}"),
            format!("{fresh_sim:?}"),
            "cached replay diverged from a fresh recording"
        );
    }

    let s = h.cache_stats();
    assert_eq!(
        s.recordings, 1,
        "the harness must have recorded exactly once: {s:?}"
    );
}

#[test]
fn rendered_reports_are_byte_identical_at_any_job_count() {
    let exp = tiny(3);
    let serial = Harness::new(exp, 1);
    let parallel = Harness::new(exp, 8);
    assert_eq!(report::fig13(&serial), report::fig13(&parallel));
    assert_eq!(report::ablation(&serial), report::ablation(&parallel));
    assert_eq!(report::flushmode(&serial), report::flushmode(&parallel));
    assert_eq!(report::multicore(&serial), report::multicore(&parallel));
    assert_eq!(report::incremental(&serial), report::incremental(&parallel));
}
