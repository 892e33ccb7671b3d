//! Workspace-local stand-in for [`serde_json`](https://crates.io/crates/serde_json).
//!
//! Converts between JSON text and the [`serde`] stand-in's [`Value`]
//! model. Guarantees that matter to this workspace:
//!
//! * **Byte-stable output** — object keys keep declaration order and
//!   numbers print deterministically, so equal values always produce
//!   identical strings (the parallel-extraction determinism tests compare
//!   whole serialized `Dataset`s bytewise).
//! * **Exact integers** — `u64` round-trips losslessly, which
//!   `mlcomp_linalg::serde_bits` relies on for f64 bit patterns.
//! * **serde_json-compatible quirks** — non-finite floats serialize as
//!   `null`, and floats that happen to be integral print via Rust's
//!   shortest-roundtrip formatting.

pub use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error { msg: e.to_string() }
    }
}

impl Error {
    fn at(msg: impl Into<String>, pos: usize) -> Error {
        Error {
            msg: format!("{} at byte {pos}", msg.into()),
        }
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Infallible for this implementation; the `Result` mirrors upstream's
/// signature so call sites stay source-compatible.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out);
    Ok(out)
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at("trailing characters", p.pos));
    }
    Ok(T::deserialize(&v)?)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(obj) => {
            out.push('{');
            for (i, (k, val)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // serde_json cannot represent NaN/inf in JSON and emits null.
        out.push_str("null");
        return;
    }
    let s = f.to_string();
    out.push_str(&s);
    // Keep the float-ness visible so `1.0` doesn't reparse as an integer;
    // upstream serde_json prints `1.0` the same way.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::at("expected `,` or `]`", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut obj = serde::value::Object::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(obj));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    obj.insert(&key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(obj));
                        }
                        _ => return Err(Error::at("expected `,` or `}`", self.pos)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::at("unexpected character", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::at("unterminated string", self.pos)),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::at("truncated \\u escape", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::at("bad \\u escape", self.pos))?,
                                16,
                            )
                            .map_err(|_| Error::at("bad \\u escape", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::at("bad \\u code point", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::at("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at once:
                    // both are ASCII, so the run ends on a character
                    // boundary. Validating only the run keeps parsing
                    // linear in the input.
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let run = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| Error::at("invalid UTF-8", start))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at("invalid number", start))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::at(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_containers() {
        let v: Vec<u64> = vec![0, 1, u64::MAX, 1 << 53];
        let json = to_string(&v).unwrap();
        assert_eq!(json, format!("[0,1,{},{}]", u64::MAX, 1u64 << 53));
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(v, back);

        let s = "a \"quoted\"\nline\tend \\ done";
        let json = to_string(s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);

        let f: Vec<f64> = vec![1.0, -0.5, 1e-300, std::f64::consts::PI];
        let back: Vec<f64> = from_str(&to_string(&f).unwrap()).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn strings_keep_multibyte_text_around_escapes() {
        for s in ["", "é", "→ τ\"ü\\", "a\u{1F600}b\n", "x\u{7}"] {
            let back: String = from_str(&to_string(s).unwrap()).unwrap();
            assert_eq!(back, s);
        }
        let back: String = from_str(r#""\u00e9 ü""#).unwrap();
        assert_eq!(back, "é ü");
        let err = from_str::<String>("\"abc").unwrap_err();
        assert_eq!(err.to_string(), "unterminated string at byte 4");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        let back: f64 = from_str("1.0").unwrap();
        assert_eq!(back, 1.0);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = from_str::<Vec<u64>>("[1, 2").unwrap_err();
        assert!(err.to_string().contains("byte"));
        assert!(from_str::<Vec<u64>>("[1] junk").is_err());
    }

    #[test]
    fn options_and_tuples() {
        let v: Vec<Option<u32>> = vec![Some(3), None];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[3,null]");
        let back: Vec<Option<u32>> = from_str(&json).unwrap();
        assert_eq!(v, back);

        let t: Vec<(i64, u32)> = vec![(-4, 9)];
        let back: Vec<(i64, u32)> = from_str(&to_string(&t).unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
