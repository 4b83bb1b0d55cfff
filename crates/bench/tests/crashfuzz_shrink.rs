//! Witness-shrinking contract: the minimized `(crash_idx, seed)` pair
//! the fuzzer reports must itself reproduce an oracle failure on a
//! freshly recorded bundle, and nothing lexicographically smaller may
//! fail — otherwise the "minimal witness" in the JSON report would be
//! either stale or not minimal.

use proptest::prelude::*;
use spp_bench::crashfuzz::{first_violation, fuzz_bundle_spec, SEEDS_PER_POINT};
use spp_bench::Experiment;
use spp_pmem::{FlushMode, Variant};
use spp_workloads::oracle::record_bundle;
use spp_workloads::BenchId;

fn bench_ids() -> impl Strategy<Value = BenchId> {
    prop::sample::select(BenchId::ALL.to_vec())
}

fn unsafe_variants() -> impl Strategy<Value = Variant> {
    prop::sample::select(vec![Variant::Log, Variant::LogP])
}

fn flush_modes() -> impl Strategy<Value = FlushMode> {
    prop::sample::select(FlushMode::ALL.to_vec())
}

proptest! {
    // Each case records a bundle and scans for a witness; keep the
    // count modest so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn minimized_witness_reproduces_the_failure(
        id in bench_ids(),
        variant in unsafe_variants(),
        mode in flush_modes(),
        seed in 0u64..1000,
    ) {
        let exp = Experiment { scale: 2400, seed };
        let spec = fuzz_bundle_spec(id, variant, mode, &exp);
        let bundle = record_bundle(&spec);
        let seeds = SEEDS_PER_POINT;
        let (_, Some(w)) = first_violation(0..=bundle.events().len(), |i, s| bundle.check_crash(i, s)) else {
            // An unsafe build surviving every schedule would be the
            // very regression the fuzzer exists to catch.
            return Err(TestCaseError::fail(format!(
                "{id} {variant} {mode}: no witness in an unsafe build"
            )));
        };

        // Reproduction: the reported pair still fails on a fresh,
        // independently recorded bundle of the same spec.
        let fresh = record_bundle(&spec);
        let v = fresh.check_crash(w.crash_idx, w.seed);
        prop_assert!(v.is_err(), "{id} {variant} {mode}: witness ({}, {}) no longer fails",
            w.crash_idx, w.seed);
        prop_assert_eq!(&v.unwrap_err().kind, &w.kind, "violation kind must be stable");

        // Minimality: every lexicographically smaller pair recovers.
        for idx in 0..=w.crash_idx {
            for s in 0..seeds {
                if idx == w.crash_idx && s >= w.seed {
                    break;
                }
                prop_assert!(
                    fresh.check_crash(idx, s).is_ok(),
                    "{id} {variant} {mode}: ({idx}, {s}) fails below witness ({}, {})",
                    w.crash_idx, w.seed
                );
            }
        }
    }
}
