//! Minimal hand-rolled JSON writer and reader.
//!
//! The workspace's vendored `serde` is a marker-traits stand-in with no
//! serializer, so run reports and diagnostic bundles build a [`Value`] tree
//! and stringify it here. Object members keep insertion order (report
//! builders insert from `BTreeMap`s, so emitted documents are key-sorted
//! and byte-stable); floats use `{:e}` formatting, which round-trips and is
//! valid JSON number syntax.
//!
//! [`Value::parse`] is the matching reader: a strict recursive-descent
//! parser for the documents this workspace emits (run reports, diagnostic
//! bundles, trace JSON), which tests use to read them back.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (exact, never exponent-formatted).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values are emitted as `null` (JSON has no
    /// `inf`/`nan` literals).
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members are written in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience: a string value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience: an array of floats.
    pub fn floats(values: &[f64]) -> Value {
        Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
    }

    /// Serializes this value to a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:e}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl Value {
    /// Parses a JSON document.
    ///
    /// Strict (no trailing commas or comments); numbers become [`Value::UInt`]
    /// when they are unsigned integers, [`Value::Int`] when negative
    /// integers, and [`Value::Num`] otherwise.
    ///
    /// # Errors
    ///
    /// [`ParseError`] with a byte offset on malformed input.
    pub fn parse(s: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::UInt(v) => Some(*v as f64),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // workspace's writer; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().unwrap();
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            message: "invalid number".to_string(),
            offset: start,
        })
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_containers_serialize() {
        let v = Value::Obj(vec![
            ("a".into(), Value::UInt(3)),
            ("b".into(), Value::Num(0.5)),
            ("c".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("d".into(), Value::Int(-2)),
        ]);
        assert_eq!(v.to_json(), r#"{"a":3,"b":5e-1,"c":[true,null],"d":-2}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let v = Value::text("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_json(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Num(1e-12).to_json(), "1e-12");
        assert_eq!(Value::floats(&[1.0, 2.5]).to_json(), "[1e0,2.5e0]");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Value::Obj(vec![
            (
                "counters".into(),
                Value::Obj(vec![
                    ("devices.evals".into(), Value::UInt(101053240)),
                    ("neg".into(), Value::Int(-7)),
                ]),
            ),
            ("values".into(), Value::floats(&[1.0, 0.5, -3e-12])),
            ("label".into(), Value::text("a\"b\\c\nd")),
            (
                "flags".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let json = v.to_json();
        let parsed = Value::parse(&json).expect("writer output parses");
        assert_eq!(parsed, v);
        assert_eq!(parsed.to_json(), json, "parse ∘ to_json is the identity");
    }

    #[test]
    fn parse_accessors_and_numbers() {
        let v = Value::parse(r#" {"a": 12, "b": -4, "c": 2.5e3, "s": "x", "l": [1]} "#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(12));
        assert_eq!(v.get("b").and_then(Value::as_u64), None);
        assert_eq!(v.get("b").and_then(Value::as_f64), Some(-4.0));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(2500.0));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("l").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
        assert!(v.as_obj().is_some());
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1}x",
            "\"bad\\q\"",
        ] {
            let err = Value::parse(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            let _ = err.to_string();
        }
    }

    #[test]
    fn parse_unicode_escapes() {
        // Raw multibyte UTF-8 and a \u escape both decode.
        let v = Value::parse("\"A\u{e9}\\u00e9\\t\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{e9}\t"));
    }
}
