//! A minimal JSON reader/writer for the workspace's on-disk artifacts.
//!
//! The workspace builds without crates.io access, so the `ClassPathSet`
//! serialisation in `ptolemy-core`, the `ptolemy-serve` persisted result
//! cache, the metrics snapshots in this crate and the `BENCH_*.json`
//! trajectory files all use this hand-rolled module instead of `serde_json`.
//! Only the subset the artifacts need is supported: objects, arrays, strings
//! and unsigned integers — floats are stored as hex-encoded IEEE-754 bit
//! patterns by the callers, which is what makes the artifacts round-trip
//! bit-exactly.
//!
//! The module lives at the bottom of the workspace dependency graph so every
//! crate can emit the same dialect; `ptolemy-core` re-exports it under the
//! original `ptolemy_core::json` path.

use std::fmt::Write as _;

/// A parsed JSON value (artifact subset: no floats, booleans or nulls).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string literal.
    String(String),
    /// An unsigned integer.
    UInt(u64),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this value is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::String(s) => write_string(s, out),
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts.  The parser recurses once
/// per level, so without a bound a hostile artifact (a persisted cache file,
/// say) of a million `[` bytes would overflow the stack and abort the process
/// instead of returning an error.  Real artifacts nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (artifact subset).
///
/// Documents nesting arrays/objects deeper than [`MAX_DEPTH`] are rejected
/// with an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'"' => Ok(JsonValue::String(self.string()?)),
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character '{}' at byte {}",
                other as char, self.pos
            )),
        }
    }

    /// Parses one array/object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                b => {
                    // Re-assemble UTF-8 sequences byte-by-byte.
                    let start = self.pos - 1;
                    let width = utf8_width(b)?;
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos = start + width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_whitespace();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("non-UTF-8 number at byte {start}: {e}"))?;
        text.parse::<u64>()
            .map(JsonValue::UInt)
            .map_err(|e| format!("invalid integer '{text}': {e}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' but found '{}' at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect_byte(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                    self.skip_whitespace();
                }
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' but found '{}' at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }
}

fn utf8_width(first: u8) -> Result<usize, String> {
    match first {
        0x00..=0x7f => Ok(1),
        0xc0..=0xdf => Ok(2),
        0xe0..=0xef => Ok(3),
        0xf0..=0xf7 => Ok(4),
        _ => Err("invalid UTF-8 start byte".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::String("bw|cu0.50".into())),
            ("count".into(), JsonValue::UInt(42)),
            (
                "items".into(),
                JsonValue::Array(vec![
                    JsonValue::UInt(1),
                    JsonValue::String("a\"b\\c".into()),
                ]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": 3, "b": [1, 2], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            doc.get("b").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(doc.get("a").unwrap().as_str().is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "not json",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "[1 2]",
            "{\"a\":1}trailing",
            "\"unterminated",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn bounds_nesting_depth() {
        // A million unclosed brackets used to overflow the stack; now the
        // parser stops at the depth limit with an error.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
        // A well-formed document exactly at the limit still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut value = &parse(&deepest).unwrap();
        for _ in 1..MAX_DEPTH {
            value = &value.as_array().unwrap()[0];
        }
        assert_eq!(value, &JsonValue::Array(vec![]));
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let doc = parse(" { \"k\" : [ \"\\u0041\\n\" , 7 ] } ").unwrap();
        assert_eq!(
            doc.get("k").unwrap().as_array().unwrap()[0].as_str(),
            Some("A\n")
        );
    }
}
