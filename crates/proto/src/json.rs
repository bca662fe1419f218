//! A minimal JSON value, parser, and writer.
//!
//! The workspace is dependency-free by design, and this module is its
//! only JSON implementation: every document the workspace reads or
//! writes — protocol frames, store and journal payloads, fingerprints,
//! reports — is a [`Value`] tree. The parser is a strict
//! recursive-descent reader. There are two writers:
//! [`Value::render`] (compact, one line) for frames, persisted payloads
//! and fingerprints, and [`Value::render_pretty`] (two-space indent)
//! for documents written to stdout or report files. Documents are built
//! with [`Value::obj`] and the `From` conversions below.
//!
//! Integers parse into `Int(i64)` when they fit and fall back to
//! `Float(f64)` otherwise. 64-bit fingerprints never ride as JSON
//! numbers — the protocol encodes them as fixed-width hex strings (see
//! [`crate::fp_hex`]) so no precision is lost in any client.

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits `i64` exactly.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Insertion-ordered; duplicate keys are rejected by the
    /// parser.
    Obj(Vec<(String, Value)>),
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth bound: protocol frames are shallow, and a bound turns
/// hostile input into a clean error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the byte offset of the first
    /// malformed construct.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Renders the value as compact JSON (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out, None);
        out
    }

    /// Renders the value as indented JSON: two spaces per level, `": "`
    /// between key and value, empty arrays and objects as `[]`/`{}`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out, Some(0));
        out
    }

    /// Writes compact JSON when `indent` is `None`, else pretty JSON
    /// whose current nesting level is `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|l| l + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    let text = f.to_string();
                    out.push_str(&text);
                    // Keep the float a float when it reads back.
                    if !text.contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; the writer degrades to null
                    // rather than emitting an unparsable token.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    v.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, indent);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_json_str(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !fields.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup; `None` for non-objects and missing keys.
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

    /// The integer payload, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The integer payload as `usize`, if this is a non-negative `Int`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

/// Counts beyond `i64::MAX` become `Float`, exactly what parsing their
/// decimal text yields.
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        i64::try_from(n).map_or(Value::Float(n as f64), Value::Int)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// `None` becomes `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Starts a new line at nesting `level` in pretty output; a no-op in
/// compact output (`None`).
fn newline(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-42",
            "9223372036854775807",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
            "\"he\\\"llo\\n\\u00e9\"",
            "1.0",
            "-0.25",
            "1e300",
            "[[],{},[{}]]",
            "{\"we\\\"ird\\tname\":[1,{\"x\":[]}],\"e\":{}}",
        ] {
            let v = Value::parse(src).unwrap();
            let again = Value::parse(&v.render()).unwrap();
            assert_eq!(v, again, "{src}");
            let pretty = Value::parse(&v.render_pretty()).unwrap();
            assert_eq!(v, pretty, "{src}");
        }
        let doc = Value::parse("{\"a\":[1,[]],\"b\":{},\"c\":{\"d\":null}}").unwrap();
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {},\n  \"c\": {\n    \"d\": null\n  }\n}"
        );
    }

    #[test]
    fn parses_engine_style_documents() {
        let doc = "{\n  \"threads\": 4,\n  \"benchmarks\": [\n    {\"name\": \"a b\", \
                   \"wall_ns\": 123456789, \"mode\": null}\n  ]\n}\n";
        let v = Value::parse(doc).unwrap();
        assert_eq!(v.get("threads").and_then(Value::as_i64), Some(4));
        let b = &v.get("benchmarks").unwrap().as_arr().unwrap()[0];
        assert_eq!(b.get("name").and_then(Value::as_str), Some("a b"));
        assert_eq!(b.get("mode"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for src in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
        ] {
            assert!(Value::parse(src).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn depth_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn big_u64_style_numbers_fall_back_to_float() {
        // Fingerprints never travel as numbers (hex strings instead),
        // but the parser must not reject or mangle-and-lie about them.
        let v = Value::parse("18446744073709551615").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }
}
