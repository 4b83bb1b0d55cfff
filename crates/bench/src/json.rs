//! Minimal JSON emission for machine-readable results (no external
//! dependency needed for these flat records).
//!
//! [`JsonObject`] and [`array()`] build every document: a report's
//! envelope and each cell type's `json()` rendering alike. The crate
//! writes JSON and never reads it back: the small test-only parser at
//! the end exists only so tests can check that what was written is well
//! formed.

use std::fmt::Write as _;

use crate::BenchRun;

/// A JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an integer field, written exactly (no `f64` round trip).
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    /// Adds a fractional field; integers go through [`JsonObject::int`].
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.push((key.to_string(), num_text(v)));
        self
    }

    /// Adds a string field (escaping quotes and backslashes).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.push((key.to_string(), quote(v)));
        self
    }

    /// Adds a pre-rendered JSON value (e.g. a nested object/array).
    pub fn raw(&mut self, key: &str, v: String) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Adds a boolean field, written as `0`/`1`.
    pub fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.int(key, v.into())
    }

    /// Adds a string field, omitted when `None`.
    pub fn opt_str(&mut self, key: &str, v: Option<&str>) -> &mut Self {
        if let Some(v) = v {
            self.str(key, v);
        }
        self
    }

    /// Adds a pre-rendered JSON value, omitted when `None`.
    pub fn opt_raw(&mut self, key: &str, v: Option<String>) -> &mut Self {
        if let Some(v) = v {
            self.raw(key, v);
        }
        self
    }

    /// Adds an integer field, written as `null` when `None`.
    pub fn nullable_int(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        self.raw(key, v.map_or_else(|| "null".to_string(), |n| n.to_string()))
    }

    /// Adds a pre-rendered JSON value, written as `null` when `None`.
    pub fn nullable_raw(&mut self, key: &str, v: Option<&str>) -> &mut Self {
        self.raw(key, v.unwrap_or("null").to_string())
    }

    /// Adds an array of integers.
    pub fn ints(&mut self, key: &str, v: &[u64]) -> &mut Self {
        self.raw(key, array(v.iter().map(u64::to_string)))
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// Renders a number: integers without a fraction, everything else
/// with enough digits to round-trip sensibly.
fn num_text(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Renders a string as a quoted JSON string literal: quotes and
/// backslashes are escaped, and so is every control character below
/// U+0020 (`\n`, `\t`, `\r`, the rest as `\u00XX`), which strict
/// readers reject raw.
pub fn quote(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(s, "\\u{:04x}", u32::from(c));
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Renders an array of pre-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut s = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&item);
    }
    s.push(']');
    s
}

/// Serializes the full suite results (everything figs. 8-12/14 need) as
/// one JSON document.
pub fn suite_json(runs: &[BenchRun]) -> String {
    let items = runs.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("bench", r.id.abbrev());
        o.int("init_ops", r.spec.init_ops);
        o.int("sim_ops", r.spec.sim_ops);
        for (name, v) in [
            ("base", &r.base),
            ("log", &r.log),
            ("logp", &r.logp),
            ("logpsf", &r.logpsf),
        ] {
            let mut vo = JsonObject::new();
            vo.int("cycles", v.sim.cpu.cycles)
                .int("uops", v.counts.total())
                .int("fetch_stalls", v.sim.cpu.fetch_stall_cycles)
                .int("fence_stalls", v.sim.cpu.fence_stall_cycles)
                .int("pcommits", v.counts.pcommits)
                .int("max_inflight_pcommits", v.sim.cpu.max_inflight_pcommits)
                .num("stores_per_pcommit", v.sim.stores_per_pcommit());
            o.raw(name, vo.render());
        }
        let mut sp = JsonObject::new();
        sp.int("cycles", r.sp256.cpu.cycles)
            .int("fetch_stalls", r.sp256.cpu.fetch_stall_cycles)
            .int("epochs", r.sp256.cpu.epochs)
            .int("ssb_high_water", r.sp256.ssb.high_water as u64)
            .num("bloom_fp_rate", r.sp256.bloom_false_positive_rate())
            .int(
                "checkpoint_high_water",
                r.sp256.checkpoints.high_water as u64,
            );
        o.raw("sp256", sp.render());
        o.render()
    });
    crate::schema::emit(crate::schema::SUITE, |root| {
        root.raw("benchmarks", array(items));
    })
}

/// The test-only reader: parses what the writers above emit, so tests
/// can check that every document is well formed.
#[cfg(test)]
pub(crate) mod read {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The value of `key`, if this is an object containing it.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload as a non-negative integer, if this is a
        /// number exactly representing one.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Some(*n as u64),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Why a document failed to parse: byte offset plus a short reason.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonParseError {
        /// Byte offset of the failure.
        pub at: usize,
        /// What was expected or found.
        pub reason: &'static str,
    }

    impl std::fmt::Display for JsonParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{} at byte {}", self.reason, self.at)
        }
    }

    impl std::error::Error for JsonParseError {}

    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Never panics on malformed input.
    pub fn parse(src: &str) -> Result<Value, JsonParseError> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonParseError {
                at: pos,
                reason: "trailing garbage after document",
            });
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect_byte(
        b: &[u8],
        pos: &mut usize,
        want: u8,
        reason: &'static str,
    ) -> Result<(), JsonParseError> {
        if b.get(*pos) == Some(&want) {
            *pos += 1;
            Ok(())
        } else {
            Err(JsonParseError { at: *pos, reason })
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => parse_string(b, pos).map(Value::Str),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
            _ => Err(JsonParseError {
                at: *pos,
                reason: "expected a JSON value",
            }),
        }
    }

    fn parse_lit(
        b: &[u8],
        pos: &mut usize,
        lit: &'static str,
        v: Value,
    ) -> Result<Value, JsonParseError> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(JsonParseError {
                at: *pos,
                reason: "malformed literal",
            })
        }
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or(JsonParseError {
                at: start,
                reason: "malformed number",
            })
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
        expect_byte(b, pos, b'"', "expected opening quote")?;
        let mut out = Vec::new();
        loop {
            match b.get(*pos) {
                None => {
                    return Err(JsonParseError {
                        at: *pos,
                        reason: "unterminated string",
                    })
                }
                Some(b'"') => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| JsonParseError {
                        at: *pos,
                        reason: "invalid UTF-8 in string",
                    });
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(JsonParseError {
                                    at: *pos,
                                    reason: "malformed \\u escape",
                                })?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => {
                            return Err(JsonParseError {
                                at: *pos,
                                reason: "unknown escape",
                            })
                        }
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
        expect_byte(b, pos, b'[', "expected '['")?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => {
                    return Err(JsonParseError {
                        at: *pos,
                        reason: "expected ',' or ']'",
                    })
                }
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
        expect_byte(b, pos, b'{', "expected '{'")?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect_byte(b, pos, b':', "expected ':'")?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => {
                    *pos += 1;
                }
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => {
                    return Err(JsonParseError {
                        at: *pos,
                        reason: "expected ',' or '}'",
                    })
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) use read::{parse, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_rendering() {
        let mut o = JsonObject::new();
        o.num("a", 1.0).num("b", 2.5).str("c", "x\"y\\z");
        assert_eq!(o.render(), r#"{"a":1,"b":2.500000,"c":"x\"y\\z"}"#);
    }

    #[test]
    fn integers_render_exactly() {
        let mut o = JsonObject::new();
        o.int("x", u64::MAX).int("y", (1 << 53) + 1);
        assert_eq!(
            o.render(),
            r#"{"x":18446744073709551615,"y":9007199254740993}"#
        );
    }

    #[test]
    fn array_rendering() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(std::iter::empty::<String>()), "[]");
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let mut o = JsonObject::new();
        o.num("a", 1.0)
            .num("b", 2.5)
            .str("c", "x\"y\\z\nw")
            .raw("d", array(["1".into(), "\"two\"".into()]))
            .raw("e", "null".into())
            .raw("f", "true".into());
        let v = parse(&o.render()).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("b"), Some(&Value::Num(2.5)));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\"y\\z\nw"));
        let d = v.get("d").and_then(Value::as_arr).unwrap();
        assert_eq!(d[0].as_u64(), Some(1));
        assert_eq!(d[1].as_str(), Some("two"));
        assert_eq!(v.get("e"), Some(&Value::Null));
        assert_eq!(v.get("f"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents_with_typed_errors() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nul",
            "--5",
            "{\"a\":\"\\q\"}",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} gave {e:?}");
        }
    }

    #[test]
    fn parse_handles_negative_and_fractional_numbers() {
        let v = parse(r#"{"n":-3,"x":0.125,"big":123456789012}"#).unwrap();
        assert_eq!(v.get("n"), Some(&Value::Num(-3.0)));
        assert_eq!(v.get("n").and_then(Value::as_u64), None);
        assert_eq!(v.get("x"), Some(&Value::Num(0.125)));
        assert_eq!(v.get("big").and_then(Value::as_u64), Some(123_456_789_012));
    }

    #[test]
    fn suite_json_parses_as_a_document() {
        let exp = crate::Experiment {
            scale: 5000,
            seed: 3,
        };
        let runs = crate::Harness::new(exp, 1).run_benches(&[spp_workloads::BenchId::LinkedList]);
        let v = parse(&suite_json(&runs)).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("specpersist/suite-v1")
        );
        let benches = v.get("benchmarks").and_then(Value::as_arr).unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("bench").and_then(Value::as_str), Some("LL"));
    }

    #[test]
    fn suite_json_is_parseable_shape() {
        // A smoke check: run one tiny benchmark and assert basic
        // structure (balanced braces, expected keys).
        let exp = crate::Experiment {
            scale: 5000,
            seed: 3,
        };
        let runs = crate::Harness::new(exp, 1).run_benches(&[spp_workloads::BenchId::LinkedList]);
        let j = suite_json(&runs);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in ["\"bench\"", "\"logpsf\"", "\"sp256\"", "\"bloom_fp_rate\""] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn quote_escapes_every_control_byte_and_round_trips() {
        let all: String = (0u8..0x20).map(char::from).collect();
        for v in [all.clone(), format!("a{all}\"\\z")] {
            let q = quote(&v);
            assert!(q.bytes().all(|b| b >= 0x20), "{q:?}");
            assert_eq!(parse(&q), Ok(Value::Str(v)));
        }
        assert_eq!(quote("a\tb\r\n\u{1}"), r#""a\tb\r\n\u0001""#);
    }

    /// Parses `doc`, requires its keys to be exactly `keys`, in order,
    /// and returns the parsed object.
    fn fields_of(doc: String, keys: &[&str]) -> Value {
        let v = parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let Value::Obj(fields) = &v else {
            panic!("{doc} is not an object")
        };
        let named: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(named, keys, "{doc}");
        v
    }

    /// The keys of `v`'s `key` object, in order.
    fn keys_of<'a>(v: &'a Value, key: &str) -> Vec<&'a str> {
        match v.get(key) {
            Some(Value::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{key} is {other:?}"),
        }
    }

    #[test]
    fn every_cell_renders_exactly_its_fields() {
        use crate::crashfuzz::Witness;
        use crate::faultsim::{Cell, WatchdogReport};
        use crate::kv::{KvCell, KvCellSpec, PerfCfg};
        use crate::litmus::{cell_json, LitmusCell, ModelKnob};
        use crate::multicore::{CellSpec, MulticoreCell};
        use crate::optimize::{OptCell, OptimizeCellSpec, ReplayCore, ReplayPass};
        use crate::CellFailure;
        use spp_pmem::{FlushMode, Variant};
        use spp_workloads::oracle::ViolationKind;
        use spp_workloads::shared::SharedKind;
        use spp_workloads::BenchId;

        let cat = |parts: &[&[&'static str]]| parts.concat();
        let witness = Witness {
            crash_idx: 17,
            seed: 1,
            kind: ViolationKind::ScanInconsistent,
            detail: "not written".into(),
        };
        let witness_keys = ["crash_idx", "seed", "kind"];
        fields_of(witness.json(), &witness_keys);

        // kv: a witness-bearing must-fail cell, then a bare perf cell
        let kv = [
            "ok",
            "ops",
            "events",
            "cycles",
            "mutations",
            "checkpoints",
            "points",
            "checks",
            "chunks",
            "peak_bound",
        ];
        let full = KvCell {
            ok: true,
            cycles: 123_456_789_012,
            witness: Some(witness.clone()),
            error: Some("miss\tx".into()),
            ..KvCell::empty(KvCellSpec::MustFail { seed_off: 1 })
        };
        let keys = cat(&[&["leg", "seed_off"], &kv, &["witness", "error"]]);
        let v = fields_of(full.json(), &keys);
        assert_eq!(keys_of(&v, "witness"), witness_keys);
        assert_eq!(
            v.get("cycles").and_then(Value::as_u64),
            Some(123_456_789_012)
        );
        assert_eq!(v.get("error").and_then(Value::as_str), Some("miss\tx"));
        let bare = KvCell::empty(KvCellSpec::Perf {
            ckpt_every: 16,
            cfg: PerfCfg::Sp,
        });
        fields_of(bare.json(), &cat(&[&["leg", "ckpt_every", "cfg"], &kv]));

        // optimize: a witness-bearing inverted cell, then a bare replay cell
        let opt = [
            "ok",
            "events",
            "kept",
            "duplicates",
            "uncovered",
            "empty_fences",
            "required",
            "cycles",
            "ref_cycles",
            "fence_stall",
            "ssb_stall",
            "ckpt_stall",
            "backend_stall",
            "points",
            "checks",
        ];
        let full = OptCell {
            witness: Some(witness.clone()),
            error: Some("e".into()),
            ..OptCell::empty(OptimizeCellSpec::Inverted)
        };
        let v = fields_of(full.json(), &cat(&[&["leg"], &opt, &["witness", "error"]]));
        assert_eq!(keys_of(&v, "witness"), witness_keys);
        assert_eq!(v.get("leg").and_then(Value::as_str), Some("inverted"));
        let bare = OptCell::empty(OptimizeCellSpec::Replay {
            core: ReplayCore::Sp,
            pass: ReplayPass::After,
        });
        fields_of(bare.json(), &cat(&[&["leg", "core", "pass"], &opt]));

        // multicore, with and without a degraded cell's error
        let mc = [
            "workload",
            "leg",
            "cores",
            "variant",
            "ok",
            "ops_per_core",
            "worst_cycles_per_op",
            "conflicts",
            "rollbacks",
            "snoops",
            "blt_high_water",
            "blt_clears",
        ];
        let spec = CellSpec {
            kind: SharedKind::MsQueue,
            contended: true,
            cores: 4,
            sp: true,
        };
        let cell = MulticoreCell::empty(spec, 24);
        fields_of(cell.json(), &mc);
        let degraded = MulticoreCell {
            error: Some("{\"kind\":\"storm\"}".into()),
            ..cell
        };
        let v = fields_of(degraded.json(), &cat(&[&mc, &["error"]]));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("{\"kind\":\"storm\"}")
        );

        // faultsim: one plan cell and the watchdog leg
        let cell = Cell {
            id: BenchId::LinkedList,
            variant: Variant::LogP,
            plan: "storm",
            base_cycles: 100,
            base_cycles_faulted: 101,
            sp_cycles: 90,
            sp_cycles_faulted: 91,
            faults_injected: 3,
            extra_cycles: 7,
            state_ok: true,
        };
        fields_of(
            cell.json(),
            &[
                "bench",
                "variant",
                "plan",
                "base_cycles",
                "base_cycles_faulted",
                "sp_cycles",
                "sp_cycles_faulted",
                "faults",
                "extra_cycles",
                "state_ok",
            ],
        );
        let watchdog = WatchdogReport {
            id: BenchId::LinkedList,
            bound: 64,
            fired: true,
            cycle: 700,
            rob_len: 12,
            detail: "no retire progress\nfor 64 cycles".into(),
            ok: true,
        };
        let v = fields_of(
            watchdog.json(),
            &[
                "bench", "bound", "fired", "cycle", "rob_len", "detail", "ok",
            ],
        );
        assert_eq!(
            v.get("detail").and_then(Value::as_str),
            Some("no retire progress\nfor 64 cycles")
        );

        // litmus: a witness-bearing failed cell (seeded and unseeded),
        // an errored cell, and a clean one
        let lit = [
            "program",
            "rendered",
            "flush",
            "knob",
            "interleavings",
            "allowed",
            "reached",
            "crashsim_ok",
            "pipe_base_ok",
            "pipe_sp_ok",
            "ref_base_ok",
            "ref_sp_ok",
            "sp_differential_ok",
            "ref_sp_differential_ok",
            "ok",
        ];
        let blank = LitmusCell {
            program: spp_litmus::catalog()[0].name.clone(),
            mode: FlushMode::ClflushOpt,
            knob: ModelKnob::Honest,
            ..LitmusCell::default()
        };
        let with = |seed: Option<Option<u64>>, error: Option<&str>| LitmusCell {
            sim_error: error.map(String::from),
            witness: seed.map(|seed| spp_litmus::Witness {
                leg: "pipeline-sp",
                interleaving: 2,
                crash_idx: 5,
                seed,
                state: vec![1, 0],
                program: String::new(),
            }),
            ..blank.clone()
        };
        let lit_witness = ["leg", "interleaving", "crash_idx", "seed", "state"];
        for seed in [Some(3), None] {
            let v = fields_of(
                cell_json(&with(Some(seed), None)),
                &cat(&[&lit, &["witness"]]),
            );
            assert_eq!(keys_of(&v, "witness"), lit_witness);
            let w = v.get("witness").unwrap();
            assert_eq!(w.get("seed").and_then(Value::as_u64), seed);
            assert_eq!(w.get("seed") == Some(&Value::Null), seed.is_none());
        }
        fields_of(
            cell_json(&with(None, Some("wedged"))),
            &cat(&[&lit, &["error"]]),
        );
        fields_of(cell_json(&blank), &lit);

        // failed-cell records: a reason with control bytes and quotes,
        // with a raw snapshot and without one
        let reason = "wedged: boom {\"x\":1} a\tb\r\n\u{1}";
        let snapshot = r#"{"cycle":5,"rob":[1,{"a":2.500000}],"why":"x\ty"}"#;
        for snap in [Some(snapshot), None] {
            let f = CellFailure {
                key: "kv/x".into(),
                reason: reason.into(),
                snapshot: snap.map(String::from),
            };
            let v = fields_of(f.json(), &["key", "reason", "snapshot"]);
            assert_eq!(v.get("reason").and_then(Value::as_str), Some(reason));
            let s = v.get("snapshot").unwrap();
            match snap {
                Some(raw) => {
                    assert_eq!(Some(s), parse(raw).ok().as_ref());
                    assert_eq!(s.get("cycle").and_then(Value::as_u64), Some(5));
                }
                None => assert_eq!(s, &Value::Null),
            }
        }
    }
}
