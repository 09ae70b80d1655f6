//! Minimal JSON value, writer and parser.
//!
//! The workspace writes its experiment artifacts as JSON and round-trips
//! loop telemetry through it; this module is the self-contained
//! serialization layer behind that (the build environment is offline, so
//! `serde`/`serde_json` are deliberately not dependencies).
//!
//! Numbers are `f64` throughout and are written with Rust's
//! shortest-roundtrip float formatting, so `parse(render(x)) == x` for
//! every finite value. Non-finite numbers render as `null`, matching
//! `serde_json`'s default.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // Strict `<`: `usize::MAX as f64` rounds up to 2^64, which is
            // out of range; everything representable below it is valid.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The array as a vector of numbers, if every element is a number.
    #[cfg(test)]
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        // `{:?}` is shortest-roundtrip for f64.
                        let _ = write!(out, "{x:?}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, depth + 1)
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error position and message from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting the parser accepts; deeper input returns a
/// [`ParseError`] instead of overflowing the stack.
const MAX_DEPTH: usize = 256;

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == token {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", token as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH}")));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
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
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{keyword}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        // Overflowing literals (1e999) parse to infinity in Rust; the
        // module invariant is finite-or-null, so reject them.
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| err(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = read_hex4(bytes, *pos + 1)
                            .ok_or_else(|| err(*pos, "invalid \\u escape"))?;
                        *pos += 4;
                        // Combine a high surrogate with a following
                        // \uDC00-\uDFFF escape (spec-conforming writers
                        // escape non-BMP characters this way); any lone
                        // surrogate decodes to the replacement char.
                        let code = if (0xD800..0xDC00).contains(&hex)
                            && bytes.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            match read_hex4(bytes, *pos + 3) {
                                Some(low) if (0xDC00..0xE000).contains(&low) => {
                                    *pos += 6;
                                    0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                                }
                                _ => hex,
                            }
                        } else {
                            hex
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 code point.
                let rest = &bytes[*pos..];
                let len = utf8_len(rest[0]);
                let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                    .map_err(|_| err(*pos, "invalid UTF-8"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn read_hex4(bytes: &[u8], start: usize) -> Option<u32> {
    bytes
        .get(start..start + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! num_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}

num_to_json!(f32, f64, i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        let doc = Json::obj([
            ("name", Json::Str("eqimpact \"loop\"".into())),
            ("steps", Json::Num(19.0)),
            ("rate", Json::Num(0.30000000000000004)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("x", Json::Num(-1.5e-8))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc, "text = {text}");
        }
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 1e300] {
            let text = Json::Num(x).render();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), x, "x = {x}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": [1, 2.5], "b": "s", "n": 3}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64_vec().unwrap(), vec![1.0, 2.5]);
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "s");
        assert_eq!(doc.get("n").unwrap().as_usize().unwrap(), 3);
        assert!(doc.get("missing").is_none());
        assert!(Json::Num(2.5).as_usize().is_none());
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(parse("[1, ").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        // Overflowing literals are rejected, not admitted as infinity.
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_replace() {
        // \ud83d\ude00 is the escaped surrogate pair for U+1F600 (😀).
        let doc = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "\u{1F600}");
        let lone = parse("\"\\ud83d x\"").unwrap();
        assert_eq!(lone.as_str().unwrap(), "\u{FFFD} x");
        // Raw (unescaped) non-BMP character through the UTF-8 path.
        assert_eq!(parse("\"😀\"").unwrap().as_str().unwrap(), "\u{1F600}");
        // Escaped BMP char unaffected.
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str().unwrap(), "A");
    }

    #[test]
    fn as_usize_rejects_out_of_range() {
        // 2^64 is not a valid usize even though the inclusive f64 bound
        // would accept it.
        assert!(parse("18446744073709551616").unwrap().as_usize().is_none());
        assert!(parse("-1").unwrap().as_usize().is_none());
        assert_eq!(parse("4503599627370496").unwrap().as_usize(), Some(1 << 52));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        let e = parse(&bomb).unwrap_err();
        assert!(e.message.contains("nesting"), "message: {}", e.message);
        // At the limit itself, parsing still works.
        let ok = format!("{}0{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn to_json_impls() {
        assert_eq!(3usize.to_json(), Json::Num(3.0));
        assert_eq!(
            vec![1.0, 2.0].to_json().as_f64_vec().unwrap(),
            vec![1.0, 2.0]
        );
        assert_eq!([1.0f64; 3].to_json().as_arr().unwrap().len(), 3);
        assert_eq!((1.0, 2.0).to_json().as_f64_vec().unwrap(), vec![1.0, 2.0]);
        assert_eq!(Option::<f64>::None.to_json(), Json::Null);
        assert_eq!("x".to_json(), Json::Str("x".into()));
    }
}
