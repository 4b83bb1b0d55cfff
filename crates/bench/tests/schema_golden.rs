//! Golden-file pinning of every `specpersist/*-v1` document.
//!
//! Each writer renders a small, fully deterministic experiment and is
//! byte-compared against a checked-in golden. This catches accidental
//! wire-format drift (field order, number formatting, envelope shape)
//! that unit tests on individual fields would miss.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! BLESS=1 cargo test -p spp-bench --test schema_golden
//! ```
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spp_bench::crashfuzz::{run_crashfuzz, Leg};
use spp_bench::faultsim::run_faultsim;
use spp_bench::kv::run_kv;
use spp_bench::litmus::{run_litmus, ModelKnob};
use spp_bench::multicore::run_multicore;
use spp_bench::optimize::run_optimize;
use spp_bench::profile::run_profile;
use spp_bench::{json, schema, Experiment, Harness};
use spp_pmem::Variant;
use spp_workloads::BenchId;

/// The one experiment every golden uses: tiny, fixed seed, fixed jobs.
fn exp() -> Experiment {
    Experiment {
        scale: 2400,
        seed: 7,
    }
}

fn harness() -> Harness {
    Harness::new(exp(), 2)
}

/// Byte-compares `actual` against `tests/goldens/<name>`, or rewrites
/// the golden when `BLESS` is set in the environment.
fn golden(name: &str, actual: &str) {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push("goldens");
    p.push(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&p).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with BLESS=1",
            p.display()
        )
    });
    assert_eq!(
        actual, want,
        "{name} diverged from its golden; if the format change is \
         intentional, regenerate with BLESS=1"
    );
}

/// Every golden must also open with its schema envelope — the golden
/// pins the bytes, this pins the envelope. (That every golden parses
/// is checked in-crate, by `schema::tests`.)
fn check(name: &str, doc: &str, s: &str) {
    assert!(
        doc.starts_with(&format!("{{\"schema\":\"{s}\",")),
        "{name} does not open with the {s} envelope"
    );
    golden(name, doc);
}

#[test]
fn suite_document_is_stable() {
    let runs = harness().run_benches(&BenchId::ALL);
    check("suite.json", &json::suite_json(&runs), schema::SUITE);
}

#[test]
fn crashfuzz_document_is_stable() {
    let rep = run_crashfuzz(&harness(), Leg::Log);
    check("crashfuzz.json", &rep.render_json(), schema::CRASHFUZZ);
}

#[test]
fn faultsim_document_is_stable() {
    let rep = run_faultsim(&harness());
    check("faultsim.json", &rep.render_json(), schema::FAULTSIM);
}

#[test]
fn multicore_document_is_stable() {
    let rep = run_multicore(&harness());
    check("multicore.json", &rep.render_json(), schema::MULTICORE);
}

#[test]
fn kv_document_is_stable() {
    let rep = run_kv(&harness());
    check("kv.json", &rep.render_json(), schema::KV);
}

#[test]
fn litmus_document_is_stable() {
    let rep = run_litmus(&harness(), ModelKnob::Honest);
    check("litmus.json", &rep.render_json(), schema::LITMUS);
}

#[test]
fn optimize_document_is_stable() {
    let rep = run_optimize(&harness(), BenchId::LinkedList, Variant::LogP);
    check("optimize.json", &rep.render_json(), schema::OPTIMIZE);
}

#[test]
fn profile_document_is_stable() {
    let rep = run_profile(&harness(), BenchId::LinkedList, Variant::LogPSf);
    check("profile.json", &rep.render_json(), schema::PROFILE);
}
