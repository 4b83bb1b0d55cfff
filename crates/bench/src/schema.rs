//! One home for every `specpersist/*` document schema.
//!
//! Each machine-readable output the harness writes — the suite sweep,
//! the crash-consistency fuzzer, the fault-injection matrix, the stall
//! profile, and the multicore, litmus, KV and optimizer studies — opens
//! with the same envelope: a `schema` field carrying a versioned identifier
//! like `specpersist/suite-v1`, placed *first* so a reader (or a human
//! with `head -c 40`) can dispatch on the document kind before parsing
//! the rest. The identifiers live here as constants, and [`emit`]
//! builds the envelope so the field cannot drift out of first position.
//! Golden-file tests (`tests/schema_golden.rs`) pin the rendered bytes
//! of every document kind.
//!
//! Versioning contract: any change to a document's field set or
//! meaning bumps the `-vN` suffix of its identifier, so a reader can
//! reject identifiers it does not recognize rather than guess.

use crate::json::JsonObject;

/// The full-suite results document (everything figs. 8-12/14 need).
pub const SUITE: &str = "specpersist/suite-v1";

/// The crash-consistency fuzzing report.
pub const CRASHFUZZ: &str = "specpersist/crashfuzz-v2";

/// The hardware fault-injection matrix report.
pub const FAULTSIM: &str = "specpersist/faultsim-v2";

/// The cycle-resolved stall/latency profile (`repro profile`).
pub const PROFILE: &str = "specpersist/profile-v2";

/// The shared-data multi-core scaling study (`repro multicore`).
pub const MULTICORE: &str = "specpersist/multicore-v1";

/// The Px86 litmus validation report (`repro litmus`).
pub const LITMUS: &str = "specpersist/litmus-v1";

/// The crash-recoverable KV storage-engine study (`repro kv`).
pub const KV: &str = "specpersist/kv-v1";

/// The persist-path trace-optimizer report (`repro optimize`).
pub const OPTIMIZE: &str = "specpersist/optimize-v1";

/// Every schema the harness knows, for exhaustive self-checks.
pub const ALL: [&str; 8] = [
    SUITE, CRASHFUZZ, FAULTSIM, PROFILE, MULTICORE, LITMUS, KV, OPTIMIZE,
];

/// Renders one document in `schema`'s envelope: the `schema` field is
/// emitted first, then `fill` appends the payload fields.
pub fn emit(schema: &str, fill: impl FnOnce(&mut JsonObject)) -> String {
    let mut root = JsonObject::new();
    root.str("schema", schema);
    fill(&mut root);
    root.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn emit_places_the_schema_field_first() {
        let doc = emit(SUITE, |o| {
            o.int("x", 1);
        });
        assert_eq!(doc, r#"{"schema":"specpersist/suite-v1","x":1}"#);
    }

    /// The writers emit JSON that nothing in the crate reads back, so
    /// every checked-in golden must parse, and carry its schema.
    #[test]
    fn every_golden_parses_and_names_its_schema() {
        use crate::json::{parse, Value};
        let goldens = [
            (SUITE, include_str!("../tests/goldens/suite.json")),
            (CRASHFUZZ, include_str!("../tests/goldens/crashfuzz.json")),
            (FAULTSIM, include_str!("../tests/goldens/faultsim.json")),
            (PROFILE, include_str!("../tests/goldens/profile.json")),
            (MULTICORE, include_str!("../tests/goldens/multicore.json")),
            (LITMUS, include_str!("../tests/goldens/litmus.json")),
            (KV, include_str!("../tests/goldens/kv.json")),
            (OPTIMIZE, include_str!("../tests/goldens/optimize.json")),
        ];
        assert_eq!(goldens.map(|(s, _)| s), ALL, "one golden per schema");
        for (schema, doc) in goldens {
            let v = parse(doc).unwrap_or_else(|e| panic!("{schema}: {e}"));
            assert_eq!(v.get("schema").and_then(Value::as_str), Some(schema));
        }
    }
}
