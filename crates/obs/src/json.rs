//! A small, self-contained JSON value — the suite's canonical document
//! representation.
//!
//! The suite's wire and on-disk documents (the store's `entry.json`, the
//! key-ingredient documents its cache keys hash, the `ats-report/1`
//! analyzer wire schema, every `ats-serve` response body) must render
//! *canonically*: the same content always produces the same bytes, on
//! every platform, forever — a cache key is only as stable as
//! its serializer, and a frozen wire schema is only as stable as its
//! formatter. Rather than pin that guarantee on an external crate's
//! formatting choices, the suite owns a deliberately tiny JSON model:
//!
//! * objects are [`BTreeMap`]s, so members always render in sorted key
//!   order regardless of insertion order;
//! * integers ([`Json::Int`], an `i128` covering all of `i64` and `u64`)
//!   render exactly, never through floating point;
//! * floats render via Rust's shortest-round-trip `Display`, so
//!   `parse(render(x)) == x` for every finite `f64`;
//! * rendering is compact (no whitespace) for hashing, with a pretty
//!   variant for the human-inspected manifests.
//!
//! Documents whose members must keep a fixed, non-sorted order (JSONL
//! trace lines, run manifests) are written through [`Writer`], which
//! shares this module's escaping and number code instead of a second
//! value model.
//!
//! The parser accepts standard JSON (objects, arrays, strings with
//! escapes and surrogate pairs, numbers, booleans, null) nested at most
//! [`MAX_DEPTH`] deep, and is the suite's only JSON read path: store
//! manifests, service requests, JSONL traces and fuzz corpus documents.
//! The module lives in `ats-obs`, the bottom of the crate graph, so the
//! trace codec and the run manifest can use it; `ats_core::json` and
//! `ats_store::Json` re-export it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Construct with [`Json::obj`]/[`Json::arr`] and
/// the `From` impls; render with [`Json::render`]; read back with
/// [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact over the full `i64` ∪ `u64` range.
    Int(i128),
    /// A floating-point number (finite; NaN/∞ are unrepresentable in
    /// JSON and render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps members canonically sorted.
    Obj(BTreeMap<String, Json>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Builder-style member insertion; panics if `self` is not an object
    /// (a construction bug, not a data condition).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert or replace a member; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_owned(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Append an element; panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) {
        match self {
            Json::Arr(items) => items.push(value.into()),
            other => panic!("Json::push on non-array {other:?}"),
        }
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer payload as `u64`, if this is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Integer payload as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Mutable element access, if this is an array.
    pub fn as_arr_mut(&mut self) -> Option<&mut Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Mutable member access, if this is an object.
    pub fn as_obj_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Canonical compact rendering: sorted object keys, no whitespace,
    /// exact integers, shortest-round-trip floats. This is the byte
    /// stream cache keys are hashed over.
    pub fn render(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out, None, Dialect::Canonical).value(self);
        out
    }

    /// Human-oriented rendering (two-space indent), same canonical member
    /// order. Used for on-disk manifests.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        Writer::new(&mut out, Some(2), Dialect::Canonical).value(self);
        out.push('\n');
        out
    }

    /// Parse standard JSON text. Errors carry a byte offset and reason;
    /// nesting deeper than [`MAX_DEPTH`] is an error, not a stack
    /// overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The suite's
/// deepest document (a JSONL trace line) nests five levels; the limit
/// only exists so hostile input is rejected before it can exhaust a
/// thread's stack.
pub const MAX_DEPTH: usize = 128;

/// How a [`Writer`] spells floats and the `\b`/`\f` control characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    /// [`Json::render`]: plain decimal floats (never an exponent) and
    /// `\u00XX` for every control character. Cache keys hash these bytes.
    Canonical,
    /// Field-ordered documents (JSONL traces, run manifests): the
    /// shortest digits in plain decimal for magnitudes in [1e-5, 1e16)
    /// and in exponent form (`1e-7`, `1.5e16`) outside it, plus short
    /// `\b`/`\f` escapes — the byte format these files have always had.
    Document,
}

/// Streaming writer for documents whose members keep the order they are
/// written in (the [`Json`] model always sorts). Nest with
/// [`Writer::object`] / [`Writer::array`], start members with
/// [`Writer::key`] and elements with [`Writer::elem`]:
///
/// ```
/// use ats_obs::json::Writer;
/// let mut out = String::new();
/// Writer::compact(&mut out).object(|w| {
///     w.key("zulu").int(1u32);
///     w.key("alpha").array(|w| w.elem().float(1e-7));
/// });
/// assert_eq!(out, r#"{"zulu":1,"alpha":[1e-7]}"#);
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    indent: Option<usize>,
    dialect: Dialect,
    depth: usize,
    /// Items already written into the innermost open container.
    items: usize,
}

impl<'a> Writer<'a> {
    /// A writer emitting no whitespace.
    pub fn compact(out: &'a mut String) -> Self {
        Writer::new(out, None, Dialect::Document)
    }

    /// A writer indenting two spaces per level, `"key": value`.
    pub fn pretty(out: &'a mut String) -> Self {
        Writer::new(out, Some(2), Dialect::Document)
    }

    fn new(out: &'a mut String, indent: Option<usize>, dialect: Dialect) -> Self {
        Writer {
            out,
            indent,
            dialect,
            depth: 0,
            items: 0,
        }
    }

    /// Write an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.seq('{', '}', members);
    }

    /// Write an array whose elements `elems` writes.
    pub fn array(&mut self, elems: impl FnOnce(&mut Self)) {
        self.seq('[', ']', elems);
    }

    /// Start the next object member; write its value on the result.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.next_item();
        write_escaped(self.out, key, self.dialect);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self
    }

    /// Start the next array element; write its value on the result.
    pub fn elem(&mut self) -> &mut Self {
        self.next_item();
        self
    }

    /// An integer value.
    pub fn int(&mut self, v: impl Into<i128>) {
        let _ = write!(self.out, "{}", v.into());
    }

    /// A float value (`null` when not finite).
    pub fn float(&mut self, v: f64) {
        match self.dialect {
            Dialect::Canonical => write_f64(self.out, v),
            Dialect::Document => write_f64_exp(self.out, v),
        }
    }

    /// A string value.
    pub fn str(&mut self, s: &str) {
        write_escaped(self.out, s, self.dialect);
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// A whole [`Json`] value (objects in their sorted order).
    pub fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => self.int(*i),
            Json::Float(f) => self.float(*f),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.array(|w| {
                for item in items {
                    w.elem().value(item);
                }
            }),
            Json::Obj(map) => self.object(|w| {
                for (k, v) in map {
                    w.key(k).value(v);
                }
            }),
        }
    }

    fn seq(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        let outer = std::mem::replace(&mut self.items, 0);
        self.depth += 1;
        body(self);
        self.depth -= 1;
        if self.items > 0 {
            self.newline();
        }
        self.items = outer;
        self.out.push(close);
    }

    fn next_item(&mut self) {
        if self.items > 0 {
            self.out.push(',');
        }
        self.items += 1;
        self.newline();
    }

    fn newline(&mut self) {
        if let Some(width) = self.indent {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat_n(' ', width * self.depth));
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's Display is the shortest string that round-trips; force a
    // decimal point so the value stays number-typed when re-read by
    // strict tooling expecting a float.
    let s = format!("{f}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// [`Dialect::Document`] floats: the same shortest digits as
/// [`write_f64`], with the decimal point placed as `d.ddd` × 10^`exp`
/// dictates — plain for 10^-5 ≤ |f| < 10^16, exponent form outside.
fn write_f64_exp(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    if f == 0.0 {
        out.push_str(if f.is_sign_negative() { "-0.0" } else { "0.0" });
        return;
    }
    // `{:e}` yields the shortest round-trip digits as `-d.ddde-7`.
    let sci = format!("{:e}", f.abs());
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` has an exponent");
    let digits: String = mantissa.chars().filter(|&c| c != '.').collect();
    let exp: i32 = exp.parse().expect("`{:e}` exponent is an integer");
    let len = digits.len() as i32;
    // The value is 0.`digits` × 10^point.
    let point = exp + 1;
    if f < 0.0 {
        out.push('-');
    }
    if point >= len && point <= 16 {
        out.push_str(&digits);
        out.extend(std::iter::repeat_n('0', (point - len) as usize));
        out.push_str(".0");
    } else if point > 0 && point <= 16 {
        out.push_str(&digits[..point as usize]);
        out.push('.');
        out.push_str(&digits[point as usize..]);
    } else if point > -5 && point <= 0 {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', -point as usize));
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if len > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        let _ = write!(out, "e{exp}");
    }
}

fn write_escaped(out: &mut String, s: &str, dialect: Dialect) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' if dialect == Dialect::Document => out.push_str("\\b"),
            '\u{c}' if dialect == Dialect::Document => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                map.insert(key, parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err("raw control character in string".into()),
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let chunk = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_owned())?;
    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(s, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected number at byte {start}"));
    }
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_canonical_and_sorted() {
        let a = Json::obj()
            .with("zulu", 1u64)
            .with("alpha", "x")
            .with("mid", Json::arr());
        let b = Json::obj()
            .with("mid", Json::arr())
            .with("alpha", "x")
            .with("zulu", 1u64);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), r#"{"alpha":"x","mid":[],"zulu":1}"#);
    }

    #[test]
    fn numbers_render_exactly() {
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(-42i64).render(), "-42");
        assert_eq!(Json::from(0.005f64).render(), "0.005");
        assert_eq!(Json::from(1.0f64).render(), "1.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [
            0.005,
            1.0 / 3.0,
            1e-12,
            123456.789e300,
            -0.0,
            2.2250738585072014e-308,
        ] {
            let rendered = Json::from(f).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t nul\u{0} émoji🙂";
        let rendered = Json::from(s).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes parse to the astral character.
        assert_eq!(
            Json::parse(r#""\ud83d\ude42""#).unwrap().as_str(),
            Some("🙂")
        );
    }

    #[test]
    fn documents_round_trip_via_parse() {
        let doc = Json::obj()
            .with("schema", "test/1")
            .with("count", 3u64)
            .with("ratio", 0.25f64)
            .with("flags", vec![true, false])
            .with("inner", Json::obj().with("deep", Json::Null));
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01x",
            "nul",
            "{\"a\":1}]",
            "\"\\ud800\"",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&over).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A hostile body far past the limit fails fast instead of
        // overflowing the stack.
        let hostile = format!("{{\"a\":{}", "[".repeat(100_000));
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn writer_keeps_member_order_and_its_own_float_and_escape_dialect() {
        let floats = [
            0.0, -0.0, 1.0, 1e-5, 1e-6, -1.25e-7, 1e15, 1e16, 1.5e16, 5e-324,
        ];
        let mut out = String::new();
        Writer::compact(&mut out).object(|w| {
            w.key("z").str("\u{8}\u{c}");
            w.key("a")
                .array(|w| floats.iter().for_each(|&f| w.elem().float(f)));
            w.key("v")
                .value(&Json::obj().with("b", f64::NAN).with("a", 1u64));
        });
        assert_eq!(
            out,
            r#"{"z":"\b\f","a":[0.0,-0.0,1.0,0.00001,1e-6,-1.25e-7,1000000000000000.0,1e16,1.5e16,5e-324],"v":{"a":1,"b":null}}"#
        );
        let doc = Json::parse(&out).unwrap();
        for (back, f) in doc
            .get("a")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(floats)
        {
            assert_eq!(back.as_f64().map(f64::to_bits), Some(f.to_bits()), "{f:e}");
        }
        // The canonical dialect never uses an exponent or `\b`.
        assert_eq!(Json::from(1e-6).render(), "0.000001");
        assert_eq!(Json::from("\u{8}").render(), r#""\u0008""#);
    }

    #[test]
    fn accessors_read_expected_payloads() {
        let doc = Json::parse(
            r#"{"n": 7, "s": "x", "f": 1.5, "b": true, "a": [1], "big": 18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("big").and_then(Json::as_i64), None);
        assert_eq!(doc.get("missing"), None);
    }
}
