//! One home for every `specpersist/*` document schema.
//!
//! Each machine-readable output the harness writes — the suite sweep,
//! the crash-consistency fuzzer, the fault-injection matrix, the soak
//! report, journal manifest lines, and the stall profile — opens with
//! the same envelope: a `schema` field carrying a versioned identifier
//! like `specpersist/suite-v1`, placed *first* so a reader (or a human
//! with `head -c 40`) can dispatch on the document kind before parsing
//! the rest. Before this module each writer spelled its identifier
//! inline; now the identifiers live here as [`Schema`] constants,
//! [`emit`] builds the envelope so the field cannot drift out of first
//! position, and [`validate`] is the one reader-side check. Golden-file
//! tests (`tests/schema_golden.rs`) pin the rendered bytes of every
//! document kind.
//!
//! Versioning contract: any change to a document's field set or
//! meaning bumps its [`Schema::version`]; readers reject identifiers
//! they do not recognize (see the journal's `BadSchema` handling)
//! rather than guessing.

use std::fmt;

use crate::json::{parse, JsonObject, JsonParseError, Value};

/// A named, versioned document schema.
///
/// The wire identifier is stored alongside its parts so it is available
/// in `const` contexts; [`Schema::id`] returns it and a unit test pins
/// it to `specpersist/{name}-v{version}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    name: &'static str,
    version: u32,
    id: &'static str,
}

/// The full-suite results document (everything figs. 8-12/14 need).
pub const SUITE: Schema = Schema {
    name: "suite",
    version: 1,
    id: "specpersist/suite-v1",
};

/// The crash-consistency fuzzing report.
pub const CRASHFUZZ: Schema = Schema {
    name: "crashfuzz",
    version: 1,
    id: "specpersist/crashfuzz-v1",
};

/// The hardware fault-injection matrix report.
pub const FAULTSIM: Schema = Schema {
    name: "faultsim",
    version: 1,
    id: "specpersist/faultsim-v1",
};

/// The long-running soak report.
pub const SOAK: Schema = Schema {
    name: "soak",
    version: 1,
    id: "specpersist/soak-v1",
};

/// One line of the journaled result manifest.
pub const JOURNAL: Schema = Schema {
    name: "journal",
    version: 1,
    id: "specpersist/journal-v1",
};

/// The cycle-resolved stall/latency profile (`repro profile`).
pub const PROFILE: Schema = Schema {
    name: "profile",
    version: 2,
    id: "specpersist/profile-v2",
};

/// The shared-data multi-core scaling study (`repro multicore`).
pub const MULTICORE: Schema = Schema {
    name: "multicore",
    version: 1,
    id: "specpersist/multicore-v1",
};

/// The Px86 litmus validation report (`repro litmus`).
pub const LITMUS: Schema = Schema {
    name: "litmus",
    version: 1,
    id: "specpersist/litmus-v1",
};

/// The crash-recoverable KV storage-engine study (`repro kv`).
pub const KV: Schema = Schema {
    name: "kv",
    version: 1,
    id: "specpersist/kv-v1",
};

/// The persist-path trace-optimizer report (`repro optimize`).
pub const OPTIMIZE: Schema = Schema {
    name: "optimize",
    version: 1,
    id: "specpersist/optimize-v1",
};

/// Every schema the harness knows, for exhaustive self-checks.
pub const ALL: [Schema; 10] = [
    SUITE, CRASHFUZZ, FAULTSIM, SOAK, JOURNAL, PROFILE, MULTICORE, LITMUS, KV, OPTIMIZE,
];

impl Schema {
    /// The document kind, e.g. `suite`.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The schema version (bumped on any field-set or meaning change).
    pub const fn version(&self) -> u32 {
        self.version
    }

    /// The full wire identifier, e.g. `specpersist/suite-v1`.
    pub const fn id(&self) -> &'static str {
        self.id
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id)
    }
}

/// Renders one document in `schema`'s envelope: the `schema` field is
/// emitted first, then `fill` appends the payload fields.
pub fn emit(schema: Schema, fill: impl FnOnce(&mut JsonObject)) -> String {
    let mut root = JsonObject::new();
    root.str("schema", schema.id());
    fill(&mut root);
    root.render()
}

/// Why a document failed [`validate`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchemaError {
    /// The bytes are not a parseable JSON document.
    Parse(JsonParseError),
    /// The document parsed but its envelope carries the wrong (or no)
    /// schema identifier.
    Mismatch {
        /// The identifier expected.
        want: &'static str,
        /// The identifier found (empty if absent or not a string).
        found: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Parse(e) => write!(f, "schema envelope: {e}"),
            SchemaError::Mismatch { want, found } => {
                write!(f, "schema {found:?} is not {want:?}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Parses `json` and checks that its envelope carries `schema`'s
/// identifier, returning the parsed document for further decoding.
pub fn validate(json: &str, schema: Schema) -> Result<Value, SchemaError> {
    let v = parse(json).map_err(SchemaError::Parse)?;
    let found = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if found != schema.id() {
        return Err(SchemaError::Mismatch {
            want: schema.id(),
            found: found.to_string(),
        });
    }
    Ok(v)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn stored_identifiers_match_their_parts() {
        for s in ALL {
            assert_eq!(
                s.id(),
                format!("specpersist/{}-v{}", s.name(), s.version()),
                "{s:?}"
            );
            assert_eq!(s.to_string(), s.id());
        }
    }

    #[test]
    fn identifiers_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a.id(), b.id());
            }
        }
    }

    #[test]
    fn emit_places_the_schema_field_first() {
        let doc = emit(SUITE, |o| {
            o.num("x", 1.0);
        });
        assert!(
            doc.starts_with(r#"{"schema":"specpersist/suite-v1","#),
            "{doc}"
        );
        validate(&doc, SUITE).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_and_missing_schemas() {
        let doc = emit(SOAK, |_| {});
        assert!(matches!(
            validate(&doc, SUITE).unwrap_err(),
            SchemaError::Mismatch { want, .. } if want == SUITE.id()
        ));
        assert!(matches!(
            validate("{}", SUITE).unwrap_err(),
            SchemaError::Mismatch { ref found, .. } if found.is_empty()
        ));
        assert!(matches!(
            validate("{", SUITE).unwrap_err(),
            SchemaError::Parse(_)
        ));
    }

    #[test]
    fn errors_render_as_one_line() {
        let errs = [
            validate("{", SUITE).unwrap_err(),
            validate("{}", JOURNAL).unwrap_err(),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{s:?}");
        }
    }
}
