//! Minimal JSON emission *and parsing* for machine-readable results
//! (no external dependency needed for these flat records).
//!
//! Emission ([`JsonObject`], [`array`]) has been here since the first
//! harness; parsing ([`parse`], [`Value`]) arrived with the journalled
//! result manifest, which must read its own `journal-v1.jsonl` lines
//! back and reject anything malformed with a typed error instead of
//! panicking on torn writes. The journal codec ([`Record`], [`encode`],
//! [`decode`]) sits on both: each journaled cell lists its fields once,
//! and that one list writes the payload and reads it back.

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

    /// Renders the value compactly, numbers as [`JsonObject::num`]
    /// prints them: what [`JsonObject`] and [`array()`] wrote parses
    /// back to the same bytes.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => num_text(*n),
            Value::Str(s) => quote(s),
            Value::Arr(items) => array(items.iter().map(Value::render)),
            Value::Obj(fields) => {
                let mut o = JsonObject::new();
                for (k, v) in fields {
                    o.raw(k, v.render());
                }
                o.render()
            }
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

/// A journaled record: one [`Record::fields`] lists every field once,
/// and [`encode`] and [`decode`] run that list as a writer or a reader,
/// so the payload format cannot drift between the two.
pub trait Record: Clone {
    /// Visits every field in payload order.
    fn fields(&mut self, f: &mut Fields<'_>);
}

/// The field visitor [`Record::fields`] talks to: it appends each field
/// to a [`JsonObject`], or reads it back from a parsed object. A reader
/// rejects the record on a missing or mistyped field, a name outside
/// its list, a spec field that differs from the blank record's, and any
/// key no field claims.
pub struct Fields<'v> {
    out: JsonObject,
    /// The object being read; `None` when writing.
    src: Option<&'v [(String, Value)]>,
    used: usize,
    ok: bool,
}

/// Renders `r` as one JSON object.
pub fn encode<R: Record>(r: &R) -> String {
    let mut f = Fields::new(None);
    r.clone().fields(&mut f);
    f.out.render()
}

/// Reads a payload written by [`encode`] into `blank`, a record whose
/// spec fields are already set from the cell's key. `None` if the
/// payload is malformed or disagrees with `blank`.
pub fn decode<R: Record>(mut blank: R, payload: &str) -> Option<R> {
    read_into(&mut blank, &parse(payload).ok()?).then_some(blank)
}

fn read_into<R: Record>(r: &mut R, v: &Value) -> bool {
    let Value::Obj(obj) = v else { return false };
    let mut f = Fields::new(Some(obj));
    r.fields(&mut f);
    f.ok && f.used == obj.len()
}

impl<'v> Fields<'v> {
    fn new(src: Option<&'v [(String, Value)]>) -> Self {
        Fields {
            out: JsonObject::new(),
            src,
            used: 0,
            ok: true,
        }
    }

    /// The one field primitive: `write` renders the value, `read`
    /// parses it (`None` rejects the record).
    fn field<T>(
        &mut self,
        key: &str,
        v: &mut T,
        write: impl FnOnce(&T) -> String,
        read: impl FnOnce(&Value) -> Option<T>,
    ) {
        let Some(src) = self.src else {
            self.out.raw(key, write(v));
            return;
        };
        match src
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, x)| read(x))
        {
            Some(x) => {
                *v = x;
                self.used += 1;
            }
            None => self.ok = false,
        }
    }

    /// An optional field, omitted when `None`; `inner` visits it when
    /// present.
    fn opt<T>(
        &mut self,
        key: &str,
        v: &mut Option<T>,
        blank: impl FnOnce() -> T,
        inner: impl FnOnce(&mut Self, &str, &mut T),
    ) {
        let present = self
            .src
            .map_or(v.is_some(), |src| src.iter().any(|(k, _)| k == key));
        if present {
            inner(self, key, v.get_or_insert_with(blank));
        } else {
            *v = None;
        }
    }

    /// A non-negative integer.
    pub fn int<T: ToString + TryFrom<u64>>(&mut self, key: &str, v: &mut T) {
        self.field(key, v, T::to_string, |x| T::try_from(x.as_u64()?).ok());
    }

    /// A boolean written as `0`/`1`.
    pub fn flag(&mut self, key: &str, v: &mut bool) {
        let read = |x: &Value| x.as_u64().filter(|&n| n < 2).map(|n| n == 1);
        self.field(key, v, |b| u8::from(*b).to_string(), read);
    }

    /// A flag computed from other fields: written, and on reading only
    /// required to be `0`/`1`.
    pub fn derived_flag(&mut self, key: &str, v: bool) {
        self.flag(key, &mut { v });
    }

    /// A string.
    pub fn str(&mut self, key: &str, v: &mut String) {
        self.field(key, v, |s| quote(s), |x| x.as_str().map(String::from));
    }

    /// A string omitted when `None`.
    pub fn opt_str(&mut self, key: &str, v: &mut Option<String>) {
        self.opt(key, v, String::new, Self::str);
    }

    /// One of `all`, written as its `name`.
    pub fn name<T: Copy, S: AsRef<str>>(
        &mut self,
        key: &str,
        v: &mut T,
        all: &[T],
        name: impl Fn(T) -> S,
    ) {
        let read = |x: &Value| {
            all.iter()
                .copied()
                .find(|&t| Some(name(t).as_ref()) == x.as_str())
        };
        self.field(key, v, |t| quote(name(*t).as_ref()), read);
    }

    /// A string fixed by the cell's key: a reader requires exactly `v`.
    pub fn spec_str(&mut self, key: &str, v: &str) {
        self.name(key, &mut { v }, &[v], |s| s);
    }

    /// An integer fixed by the cell's key: a reader requires exactly `v`.
    pub fn spec_int(&mut self, key: &str, v: u64) {
        self.field(key, &mut { v }, u64::to_string, |x| {
            (x.as_u64()? == v).then_some(v)
        });
    }

    /// An integer written as `null` when `None`.
    pub fn nullable_int(&mut self, key: &str, v: &mut Option<u64>) {
        let write = |n: &Option<u64>| n.map_or_else(|| "null".to_string(), |n| n.to_string());
        let read = |x: &Value| {
            if *x == Value::Null {
                Some(None)
            } else {
                x.as_u64().map(Some)
            }
        };
        self.field(key, v, write, read);
    }

    /// Pre-rendered JSON written as `null` when `None`, read back as
    /// [`Value::render`] prints it.
    pub fn nullable_raw(&mut self, key: &str, v: &mut Option<String>) {
        let write = |r: &Option<String>| r.clone().unwrap_or_else(|| "null".to_string());
        self.field(key, v, write, |x| {
            Some((*x != Value::Null).then(|| x.render()))
        });
    }

    /// An array of integers.
    pub fn ints(&mut self, key: &str, v: &mut Vec<u64>) {
        let write = |xs: &Vec<u64>| array(xs.iter().map(u64::to_string));
        self.field(key, v, write, |x| {
            x.as_arr()?.iter().map(Value::as_u64).collect()
        });
    }

    /// A nested record.
    pub fn record<R: Record>(&mut self, key: &str, v: &mut R) {
        let mut blank = v.clone();
        self.field(key, v, encode, |x| {
            read_into(&mut blank, x).then_some(blank)
        });
    }

    /// A nested record omitted when `None`; `blank` seeds a reader.
    pub fn opt_record<R: Record>(
        &mut self,
        key: &str,
        v: &mut Option<R>,
        blank: impl FnOnce() -> R,
    ) {
        self.opt(key, v, blank, Self::record);
    }

    /// An array of records whose length and spec fields the blank
    /// already holds: a reader reads element `i` into blank element `i`.
    pub fn list<R: Record>(&mut self, key: &str, v: &mut Vec<R>) {
        let mut blank = v.clone();
        let read = |x: &Value| {
            let items = x.as_arr()?;
            let ok = items.len() == blank.len()
                && blank.iter_mut().zip(items).all(|(r, x)| read_into(r, x));
            ok.then_some(blank)
        };
        self.field(key, v, |rs| array(rs.iter().map(encode)), read);
    }
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

    /// Every `(path, document without the key, document with its value
    /// replaced)` of `v`: one per object key, at any depth.
    fn mutants(v: &Value, at: &str) -> Vec<(String, Value, Value)> {
        let mut out = Vec::new();
        match v {
            Value::Obj(fields) => {
                for (i, (k, x)) in fields.iter().enumerate() {
                    let path = if at.is_empty() {
                        k.clone()
                    } else {
                        format!("{at}.{k}")
                    };
                    let with = |x: Option<Value>| {
                        let mut f = fields.clone();
                        match x {
                            Some(x) => f[i].1 = x,
                            None => drop(f.remove(i)),
                        }
                        Value::Obj(f)
                    };
                    let bogus = match x {
                        Value::Num(n) => Value::Num(n + 1.0),
                        _ => Value::Str("bogus".into()),
                    };
                    out.push((path.clone(), with(None), with(Some(bogus))));
                    for (p, d, r) in mutants(x, &path) {
                        out.push((p, with(Some(d)), with(Some(r))));
                    }
                }
            }
            Value::Arr(items) => {
                for (i, x) in items.iter().enumerate() {
                    let with = |x: Value| {
                        let mut a = items.clone();
                        a[i] = x;
                        Value::Arr(a)
                    };
                    for (p, d, r) in mutants(x, &format!("{at}[{i}]")) {
                        out.push((p, with(d), with(r)));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The codec contract on one record: encode → decode → encode is
    /// byte-identical; deleting a key rejects the payload unless the
    /// key is `optional` (then the rest round-trips; a path ending in
    /// `.` covers everything below it); replacing a `pinned` (name or
    /// spec) value rejects it; so do an unknown key and non-objects.
    fn check<R: Record>(blank: &R, sample: &R, optional: &[&str], pinned: &[&str]) {
        let doc = encode(sample);
        let back = decode(blank.clone(), &doc).unwrap_or_else(|| panic!("{doc}"));
        assert_eq!(encode(&back), doc);
        let tree = parse(&doc).unwrap();
        assert_eq!(tree.render(), doc, "render is canonical");
        let ms = mutants(&tree, "");
        for (path, deleted, replaced) in &ms {
            let gone = decode(blank.clone(), &deleted.render()).map(|r| encode(&r));
            let may_go = optional
                .iter()
                .any(|o| path == o || (o.ends_with('.') && path.starts_with(o)));
            if may_go {
                assert_eq!(gone, Some(deleted.render()), "{path} in {doc}");
            } else {
                assert_eq!(gone, None, "deleting {path} from {doc}");
            }
            if pinned.contains(&path.as_str()) {
                let r = decode(blank.clone(), &replaced.render());
                assert!(r.is_none(), "replacing {path} in {doc}");
            }
        }
        for p in pinned {
            assert!(ms.iter().any(|(path, ..)| path == p), "{p} not in {doc}");
        }
        let extra = format!("{},\"extra\":1}}", &doc[..doc.len() - 1]);
        for bad in [extra.as_str(), "{}", "[]", "not json", ""] {
            assert!(decode(blank.clone(), bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn every_record_round_trips_and_rejects_tampering() {
        use crate::crashfuzz::Witness;
        use crate::faultsim::{CellTask, CellValue};
        use crate::kv::{KvCell, KvCellSpec, PerfCfg};
        use crate::multicore::{CellSpec, MulticoreCell};
        use crate::optimize::{OptCell, OptimizeCellSpec, ReplayCore, ReplayPass};
        use crate::CellFailure;
        use spp_pmem::{FlushMode, Variant};
        use spp_workloads::oracle::ViolationKind;
        use spp_workloads::shared::SharedKind;
        use spp_workloads::BenchId;

        let witness = Witness {
            crash_idx: 17,
            seed: 1,
            kind: ViolationKind::ScanInconsistent,
            detail: String::new(),
        };
        let opt = ["witness", "error"];

        // crashfuzz witness (its detail is not journaled)
        check(&Witness::blank(), &witness, &[], &["kind"]);

        // kv: options present, then absent
        let spec = KvCellSpec::MustFail { seed_off: 1 };
        let full = KvCell {
            ok: true,
            ops: 40,
            cycles: 123_456_789_012,
            points: 9,
            witness: Some(witness.clone()),
            error: Some("miss\tx".into()),
            ..KvCell::empty(spec)
        };
        let pinned = ["leg", "seed_off", "witness.kind"];
        check(&KvCell::empty(spec), &full, &opt, &pinned);
        let spec = KvCellSpec::Perf {
            ckpt_every: 16,
            cfg: PerfCfg::Sp,
        };
        let bare = KvCell {
            chunks: 3,
            peak_bound: 4096,
            ..KvCell::empty(spec)
        };
        check(
            &KvCell::empty(spec),
            &bare,
            &opt,
            &["leg", "ckpt_every", "cfg"],
        );

        // optimize
        let spec = OptimizeCellSpec::Inverted;
        let full = OptCell {
            ok: true,
            checks: 12,
            witness: Some(witness.clone()),
            error: Some("e".into()),
            ..OptCell::empty(spec)
        };
        check(&OptCell::empty(spec), &full, &opt, &["leg", "witness.kind"]);
        let spec = OptimizeCellSpec::Replay {
            core: ReplayCore::Sp,
            pass: ReplayPass::After,
        };
        let bare = OptCell {
            cycles: 99,
            ref_cycles: 99,
            ..OptCell::empty(spec)
        };
        check(&OptCell::empty(spec), &bare, &opt, &["leg", "core", "pass"]);

        // multicore
        let spec = CellSpec {
            kind: SharedKind::MsQueue,
            contended: true,
            cores: 4,
            sp: true,
        };
        let pinned = ["workload", "leg", "cores", "variant"];
        let blank = MulticoreCell::empty(spec, 24);
        for error in [Some("{\"kind\":\"storm\"}".to_string()), None] {
            let c = MulticoreCell {
                ok: error.is_none(),
                conflicts: 5,
                error,
                ..blank.clone()
            };
            check(&blank, &c, &["error"], &pinned);
        }

        // faultsim: a pair's two plan cells, and the watchdog leg
        let exp = crate::Experiment {
            scale: 400,
            seed: 1,
        };
        let blank = CellTask::Pair(BenchId::LinkedList, Variant::LogP).blank(&exp);
        let CellValue::Pair(mut cells) = blank.clone() else {
            unreachable!()
        };
        for (i, c) in cells.iter_mut().enumerate() {
            c.base_cycles = 100 + i as u64;
            c.state_ok = true;
            c.verdict = "violation";
        }
        let pinned = [
            "cells[0].bench",
            "cells[0].variant",
            "cells[1].plan",
            "cells[0].verdict",
        ];
        check(&blank, &CellValue::Pair(cells), &[], &pinned);
        let blank = CellTask::Watchdog.blank(&exp);
        let CellValue::Watchdog(mut w) = blank.clone() else {
            unreachable!()
        };
        (w.fired, w.cycle, w.rob_len, w.ok) = (true, 700, 12, true);
        w.detail = "no retire progress\nfor 64 cycles".into();
        let pinned = ["watchdog.bench", "watchdog.bound"];
        check(&blank, &CellValue::Watchdog(w), &[], &pinned);

        // litmus: witness with and without a seed, error, neither
        let program = &spp_litmus::catalog()[0];
        let blank = crate::litmus::blank(
            program,
            FlushMode::ClflushOpt,
            crate::litmus::ModelKnob::Honest,
        );
        let rendered = program.to_string();
        let lit = |seed: Option<Option<u64>>, error: Option<&str>| crate::litmus::LitmusCell {
            rendered: rendered.clone(),
            interleavings: 6,
            crashsim_ok: seed.is_none(),
            pipe_base_ok: true,
            sim_error: error.map(String::from),
            witness: seed.map(|seed| spp_litmus::Witness {
                leg: "pipeline-sp",
                interleaving: 2,
                crash_idx: 5,
                seed,
                state: vec![1, 0],
                program: rendered.clone(),
            }),
            ..blank.clone()
        };
        let pinned = ["program", "flush", "knob", "witness.leg"];
        check(&blank, &lit(Some(Some(3)), None), &opt, &pinned);
        check(&blank, &lit(Some(None), Some("wedged")), &opt, &pinned);
        check(&blank, &lit(None, None), &opt, &pinned[..3]);

        // supervisor failure records, with and without a snapshot (the
        // reason carries control bytes and quotes)
        let blank = CellFailure {
            key: "kv/x".into(),
            ..CellFailure::default()
        };
        for snapshot in [
            Some(r#"{"cycle":5,"rob":[1,{"a":2.500000}],"why":"x\ty"}"#),
            None,
        ] {
            let f = CellFailure {
                reason: "panic: boom\u{7} {\"x\":1} a\tb\r\n\u{1}".into(),
                snapshot: snapshot.map(String::from),
                ..blank.clone()
            };
            check(&blank, &f, &["snapshot."], &["key"]);
        }
    }
}
