//! A minimal JSON document model with a compact writer and a validating
//! parser.
//!
//! The build environment has no access to crates.io (so no `serde`); this
//! module is the crate's serialization substrate. It supports everything
//! the exporters need — objects with ordered keys, arrays, strings with
//! escaping, and the three numeric shapes used by the stats — plus a
//! strict parser used by tests to validate exporter output.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (rendered without a decimal point).
    U64(u64),
    /// A signed integer (rendered without a decimal point).
    I64(i64),
    /// A float (rendered with enough precision to round-trip).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let buf = itoa(*n);
                out.push_str(&buf);
            }
            Json::I64(n) => {
                if *n < 0 {
                    out.push('-');
                    out.push_str(&itoa(n.unsigned_abs()));
                } else {
                    out.push_str(&itoa(*n as u64));
                }
            }
            Json::F64(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a decimal point.
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value of a string; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            Json::F64(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// The value as an `f64` if it is a number of any shape.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The value of a boolean; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Reads the required field `key` of an object through `read` (one of
    /// the `as_*` accessors); the error names a missing or mistyped field.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or mistyped field '{key}'"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn itoa(n: u64) -> String {
    n.to_string()
}

fn write_escaped(s: &str, out: &mut String) {
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

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses a complete JSON document (used by tests to validate exporter
/// output). Rejects trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            msg: "trailing characters after document",
        });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8, msg: &'static str) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError { at: *pos, msg })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &'static str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(ParseError {
            at: *pos,
            msg: "invalid literal",
        })
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{', "expected '{'")?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "expected ':'")?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    msg: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    msg: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    msg: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError {
                                at: *pos,
                                msg: "invalid \\u escape",
                            })?;
                        // Surrogate pairs are not needed by our exporters;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| ParseError {
                    at: *pos,
                    msg: "invalid UTF-8",
                })?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| ParseError {
        at: start,
        msg: "invalid number",
    })?;
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            at: start,
            msg: "invalid float",
        })
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<u64>()
            .map(|n| Json::I64(-(n as i64)))
            .map_err(|_| ParseError {
                at: start,
                msg: "invalid integer",
            })
    } else {
        text.parse::<u64>().map(Json::U64).map_err(|_| ParseError {
            at: start,
            msg: "invalid integer",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = Json::obj([
            ("name", Json::Str("q\"uote\\n".to_string())),
            ("count", Json::U64(42)),
            ("neg", Json::I64(-7)),
            ("ratio", Json::F64(0.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)]),
            ),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("q\"uote\\n")
        );
        assert_eq!(
            parsed
                .get("items")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn large_u64_preserved_exactly() {
        let n = u64::MAX - 3;
        let text = Json::U64(n).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn control_characters_are_escaped() {
        let text = Json::Str("a\u{1}b".to_string()).render();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn typed_field_readers() {
        let doc = Json::obj([
            ("n", Json::U64(3)),
            ("neg", Json::I64(-2)),
            ("f", Json::F64(0.5)),
            ("b", Json::Bool(true)),
            ("s", Json::Str("x".to_string())),
        ]);
        assert_eq!(doc.field("n", Json::as_f64), Ok(3.0));
        assert_eq!(doc.field("neg", Json::as_f64), Ok(-2.0));
        assert_eq!(doc.field("f", Json::as_f64), Ok(0.5));
        assert_eq!(doc.field("b", Json::as_bool), Ok(true));
        assert_eq!(doc.field("s", Json::as_str), Ok("x"));
        assert_eq!(doc.field("n", Json::as_u64), Ok(3));
        assert!(doc.field("neg", Json::as_u64).is_err());
        assert!(doc.field("s", Json::as_bool).is_err());
        let missing = doc.field("absent", Json::as_u64).unwrap_err();
        assert!(missing.contains("'absent'"), "{missing}");
    }
}
