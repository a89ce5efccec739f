//! Minimal deterministic JSON tree: writer and parser.
//!
//! No workspace type derives `serde` traits (the vendored `serde` is an
//! inert offline stub, see `vendor/README.md`), so the sweep reports
//! serialize through this self-contained module. Two properties matter more here than
//! generality:
//!
//! * **Canonical output** — object keys keep insertion order, floats print
//!   through Rust's shortest-roundtrip `Display`, indentation is fixed at
//!   two spaces. The same [`Json`] tree always renders to the same bytes,
//!   which is what lets CI diff `BENCH_BASELINE.json` exactly and lets the
//!   determinism test compare serial and parallel sweep output
//!   byte-for-byte.
//! * **Faithful round-trips** — [`Json::parse`] reads back everything the
//!   writer emits (plus standard escapes and exponent notation), so the
//!   regression gate can load a committed baseline and compare cell by
//!   cell.

use std::fmt;

/// A JSON value. Objects preserve insertion order (no sorting, no hashing)
/// so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. NaN/infinity are rejected at construction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key → value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value.
    ///
    /// # Panics
    /// Panics if `v` is NaN or infinite — the sweep metrics use
    /// `null` (via [`Json::opt_num`]) for absent values instead.
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        Json::Num(v)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// `Some(v)` → number, `None` → `null`. Non-finite values also map to
    /// `null` so a metric over an empty app set cannot poison a report.
    pub fn opt_num(v: Option<f64>) -> Json {
        match v {
            Some(v) if v.is_finite() => Json::Num(v),
            _ => Json::Null,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the canonical pretty form (2-space indent, `\n` line ends,
    /// trailing newline). This is the only serialization the sweep tooling
    /// emits, so "the same report" always means "the same bytes".
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // Rust's f64 Display is shortest-roundtrip and deterministic,
                // and prints integral values without a fraction ("8", "0.25").
                out.push_str(&format!("{v}"));
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Exactly one value plus trailing whitespace is
    /// accepted.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the sweep
                            // schema; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("unsupported \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number '{text}'")))?;
        if !value.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_canonical_output() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("smoke")),
            ("count".into(), Json::num(3.0)),
            ("ratio".into(), Json::num(0.125)),
            ("missing".into(), Json::Null),
            ("ok".into(), Json::Bool(true)),
            (
                "cells".into(),
                Json::Arr(vec![
                    Json::num(1.0),
                    Json::str("a\"b\\c"),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).expect("canonical output parses");
        assert_eq!(doc, back);
        // Canonical rendering is a fixed point.
        assert_eq!(back.to_pretty_string(), text);
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::num(8.0).to_pretty_string(), "8\n");
        assert_eq!(Json::num(0.25).to_pretty_string(), "0.25\n");
        assert_eq!(Json::num(-3.5).to_pretty_string(), "-3.5\n");
    }

    #[test]
    fn parses_standard_json_variants() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e2 , -3E-1 ] , \"b\" : \"x\\u0041\" } ")
            .expect("valid JSON");
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(250.0)
        );
        assert!((v.get("a").unwrap().as_arr().unwrap()[2].as_f64().unwrap() + 0.3).abs() < 1e-12);
        assert_eq!(v.get("b").unwrap().as_str(), Some("xA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors_are_type_safe() {
        let v = Json::parse("{\"n\": 1, \"s\": \"x\", \"z\": null}").unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("z").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::opt_num(Some(f64::NAN)), Json::Null);
        assert_eq!(Json::opt_num(None), Json::Null);
        assert_eq!(Json::opt_num(Some(2.0)), Json::Num(2.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_numbers_rejected() {
        let _ = Json::num(f64::INFINITY);
    }
}
