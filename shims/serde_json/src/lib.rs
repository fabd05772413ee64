//! Offline shim replacing the `serde_json` crate for this workspace.
//!
//! Serializes the vendored `serde` shim's [`Value`] tree to JSON text and
//! parses JSON text back. Covers the workspace's entry points:
//! [`to_string`], [`to_string_pretty`], [`to_writer`], [`to_writer_pretty`],
//! [`from_str`], [`from_reader`].
//!
//! Numbers: unsigned/signed integers are printed and re-parsed exactly
//! (u64 seeds survive round trips); floats are printed with Rust's `{:?}`
//! formatting, which emits the shortest string that round-trips the exact
//! bit pattern. Non-finite floats become `null`, matching serde_json.
//!
//! Parsing is recursive, so nesting is capped at 128 arrays or objects
//! (serde_json's limit); deeper input is an error, not a stack overflow.

use std::fmt;
use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

/// JSON serialization / parsing failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::new(e.to_string())
    }
}

/// Shorthand matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to human-readable, two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes compact JSON into a writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

/// Serializes pretty-printed JSON into a writer.
pub fn to_writer_pretty<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

/// Parses a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(T::from_value(&parse_value_str(s)?)?)
}

/// Parses a value from a JSON reader (reads to end first; the workspace
/// only deserializes whole files).
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    from_str(&text)
}

/// Deepest array/object nesting the parser accepts.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a raw [`Value`] tree.
pub fn parse_value_str(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(x) => out.push_str(&x.to_string()),
        Value::Int(x) => out.push_str(&x.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // `{:?}` gives the shortest representation that parses back
                // to the same f64 and always includes `.` or `e`.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash. Both are ASCII, so the run never splits a
                    // UTF-8 scalar, and each byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            // Keep integers exact: u64 for non-negative, i64 for negative.
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Array(vec![Value::Float(1.5), Value::Null])),
            ("c".into(), Value::Str("x\n\"y\"".into())),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(parse_value_str(&text).unwrap(), v);
        }
    }

    #[test]
    fn integers_survive_exactly() {
        let seed = u64::MAX - 3;
        let text = to_string(&seed).unwrap();
        let back: u64 = from_str(&text).unwrap();
        assert_eq!(back, seed);
        let neg: i64 = from_str("-42").unwrap();
        assert_eq!(neg, -42);
    }

    #[test]
    fn floats_survive_bit_exactly() {
        for x in [0.1f64, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-7] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn f32_values_round_trip() {
        for x in [0.1f32, f32::MIN_POSITIVE, 3.4e38, -1.5e-20] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(s, "A\u{1F600}");
        let s: String = from_str(r#""é\n中\"😀\u00e9x""#).unwrap();
        assert_eq!(s, "é\n中\"😀éx");
        assert!(from_str::<String>("\"中文").is_err(), "unterminated string");
    }

    #[test]
    fn writer_reader_round_trip() {
        let data = vec![(1usize, 2.5f32), (3, -0.25)];
        let mut buf = Vec::new();
        to_writer_pretty(&mut buf, &data).unwrap();
        let back: Vec<(usize, f32)> = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let err = parse_value_str(&deep(100_000)).expect_err("too deep");
        assert!(err.to_string().contains("recursion limit"), "{err}");
        assert!(parse_value_str(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse_value_str(&deep(MAX_DEPTH)).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse_value_str(&objects).is_ok());
        assert!(parse_value_str(&format!("{{\"a\":{objects}}}")).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
    }
}
