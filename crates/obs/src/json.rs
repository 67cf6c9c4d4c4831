//! The workspace's one JSON stack: a minimal value model with a
//! recursive-descent parser and a writer, std-only. The journal codec
//! ([`crate::Event::to_json_line`] / [`crate::Event::from_json`]) and
//! everything `vdx-audit` reads or writes go through it.
//!
//! The model is deliberately small: journal events are flat objects of
//! scalars and `BENCH_experiments.json` is two levels of arrays-of-objects,
//! so a [`Json`] tree plus typed accessors covers every consumer. Object
//! keys keep their insertion order (journal lines are byte-deterministic;
//! the store must not reorder what it echoes back).

use std::fmt::{self, Write as _};

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// An unsigned integer token of 2^53 or more, which [`Json::Num`]
    /// would round: the parser keeps it exact so `u64` journal fields
    /// (seeds) read back as written. Smaller integers always parse as
    /// `Num`.
    Int(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks a key up in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number that
    /// fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Json::as_u64`], with a default for
    /// missing keys (a v1 bench report lacks the v2 fields).
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get(key).and_then(Json::as_u64).unwrap_or(default)
    }

    /// Convenience: `get(key)` then [`Json::as_f64`], with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(default)
    }

    /// Convenience: `get(key)` then [`Json::as_str`], with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key)
            .and_then(Json::as_str)
            .unwrap_or(default)
            .to_string()
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, false, &mut out);
        out
    }

    /// Renders the value as pretty two-space-indented JSON with a
    /// trailing newline (the shape `BENCH_experiments.json` is committed
    /// in).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, true, &mut out);
        out.push('\n');
        out
    }
}

/// 2^53: the largest magnitude below which every integer is an `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "expected a JSON value")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let malformed = || err(start, "malformed number");
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| malformed())?;
    let n = text.parse::<f64>().map_err(|_| malformed())?;
    if n >= MAX_EXACT {
        if let Ok(exact) = text.parse::<u64>() {
            return Ok(Json::Int(exact));
        }
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    // Opening quote.
    *pos += 1;
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect `\uXXXX` low half.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "unpaired UTF-16 surrogate"));
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(err(*pos, "invalid unicode escape")),
                        }
                    }
                    _ => return Err(err(*pos, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (1–4 bytes).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| err(*pos, "unterminated string"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses the `XXXX` of a `\uXXXX` escape; on entry `*pos` is at the
/// `u`, on exit at its last hex digit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(err(*pos, "truncated unicode escape"));
    }
    let text = std::str::from_utf8(&bytes[start..end])
        .map_err(|_| err(start, "invalid unicode escape"))?;
    let code = u32::from_str_radix(text, 16).map_err(|_| err(start, "invalid unicode escape"))?;
    *pos = end - 1;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    // Opening bracket.
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    // Opening brace.
    *pos += 1;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected a string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn write_value(value: &Json, indent: usize, pretty: bool, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => out.push_str(&fmt_number(*n)),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(items.iter(), indent, pretty, b'[', out, |v, i, o| {
            write_value(v, i, pretty, o)
        }),
        Json::Obj(pairs) => write_seq(pairs.iter(), indent, pretty, b'{', out, |(k, v), i, o| {
            write_string(k, o);
            o.push(':');
            if pretty {
                o.push(' ');
            }
            write_value(v, i, pretty, o);
        }),
    }
}

fn write_seq<T>(
    items: impl ExactSizeIterator<Item = T>,
    indent: usize,
    pretty: bool,
    open: u8,
    out: &mut String,
    mut write_item: impl FnMut(T, usize, &mut String),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(indent + 1));
        }
        write_item(item, indent + 1, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if pretty {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing to a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a number of an untyped [`Json::Num`]: whole values up to 2^53
/// in integer form (`120`, not `120.0` — a `Num` does not know whether it
/// was a count or a float, and the documents `vdx-audit` writes want
/// counts to look like counts), everything else via [`write_f64`]. Typed
/// writers that know a field is a float call [`write_f64`] directly.
pub fn fmt_number(n: f64) -> String {
    let mut out = String::new();
    if n.fract() == 0.0 && n.abs() <= MAX_EXACT {
        let _ = write!(out, "{n:.0}");
    } else {
        write_f64(n, &mut out);
    }
    out
}

/// Appends a float field the way `serde_json` (ryu) lays floats out:
/// shortest digits that round-trip; always a fraction or an exponent
/// (`17.0`, never `17`); plain decimal for `1e-5 <= |x| < 1e16`
/// (`0.00005`, `1500000.0`), otherwise scientific with no `+` and no
/// padding (`1.5e-7`, `1e16`); non-finite values become `null`.
pub fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let magnitude = x.abs();
    // Writing to a `String` cannot fail.
    if magnitude != 0.0 && !(1e-5..1e16).contains(&magnitude) {
        let _ = write!(out, "{x:e}");
        return;
    }
    // `Display` is shortest-round-trip and never scientific.
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains('.') {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1, "b": -2.5, "c": "x\ny", "d": [true, false, null], "e": {}}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.u64_or("a", 0), 1);
        assert_eq!(v.f64_or("b", 0.0), -2.5);
        assert_eq!(v.str_or("c", ""), "x\ny");
        let d = v.get("d").and_then(Json::as_arr).expect("array");
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].as_bool(), Some(true));
        assert_eq!(d[2], Json::Null);
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parses_journal_line_shape() {
        let line = r#"{"ev":"solver_stats","round":0,"mode":"exact","pivots":9001,"bnb_nodes":37,"optimality_gap":0.0,"objective":123.456}"#;
        let v = Json::parse(line).expect("parses");
        assert_eq!(v.str_or("ev", ""), "solver_stats");
        assert_eq!(v.u64_or("pivots", 0), 9001);
        assert_eq!(v.f64_or("objective", 0.0), 123.456);
        assert_eq!(v.get("optimality_gap").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""é😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}garbage",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"{"schema":3,"entries":[{"name":"table3","serial_ms":120,"speedup":2.5}],"note":"a\"b"}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.render(), doc);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(pretty.trim()).expect("re-parses"), v);
        assert!(pretty.contains("\n  \"entries\": [\n"));
    }

    #[test]
    fn untyped_numbers_print_whole_values_as_integers() {
        assert_eq!(fmt_number(120.0), "120");
        assert_eq!(fmt_number(-3.0), "-3");
        assert_eq!(fmt_number(2.5), "2.5");
        assert_eq!(fmt_number(0.2927), "0.2927");
        assert_eq!(fmt_number(1e300), "1e300");
    }

    /// The layout of float fields, where Rust's own `{:?}` and
    /// serde_json/ryu differ (Debug goes scientific below 1e-4, ryu below
    /// 1e-5; Display never does and drops the `.0`).
    #[test]
    fn float_fields_follow_the_ryu_layout() {
        for (x, want) in [
            (17.0, "17.0"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (-3.0, "-3.0"),
            (123.456, "123.456"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1_500_000.0, "1500000.0"),
            (0.0001, "0.0001"),
            (0.00005, "0.00005"),
            (0.00001, "0.00001"),
            (0.000009, "9e-6"),
            (1.5e-7, "1.5e-7"),
            (-1.5e-7, "-1.5e-7"),
            (9_007_199_254_740_993.0, "9007199254740992.0"),
            (9_999_999_999_999_998.0, "9999999999999998.0"),
            (1e16, "1e16"),
            (1.234e33, "1.234e33"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (5e-324, "5e-324"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut got = String::new();
            write_f64(x, &mut got);
            assert_eq!(got, want, "{x:?}");
            if x.is_finite() {
                assert_eq!(want.parse::<f64>().expect("parses").to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn integers_above_2_pow_53_stay_exact() {
        let doc = r#"{"seed":18446744073709551615,"n":9007199254740993,"m":9007199254740991}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some((1 << 53) + 1));
        assert_eq!(v.get("m"), Some(&Json::Num(MAX_EXACT - 1.0)));
        assert_eq!(v.render(), doc);
        // Past u64 it is a float like any other.
        assert_eq!(
            Json::parse("18446744073709551616").expect("parses"),
            Json::Num(1.8446744073709552e19)
        );
    }

    #[test]
    fn strings_escape_the_way_serde_json_does() {
        // Short escapes where JSON has them, `\u00XX` for the other
        // control characters, everything else (DEL, non-ASCII) verbatim.
        let text = "a\"b\\c\u{8}\u{c}\n\r\t\u{1}~é";
        let mut out = String::new();
        write_string(text, &mut out);
        assert_eq!(out, r#""a\"b\\c\b\f\n\r\t\u0001~é""#);
        assert_eq!(Json::parse(&out).expect("parses").as_str(), Some(text));
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).expect("parses");
        assert_eq!(v.u64_or("a", 0), 2);
    }
}
