//! Hand-rolled JSON support: an RFC-8259-safe writer for the trace and
//! results exporters, and a small recursive-descent parser so tests can
//! round-trip and schema-check the artifacts. The container builds
//! offline, so no serde — mirroring the repo's hand-rolled CSV code.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, escaping per RFC 8259
/// (quote, backslash, and all control characters below U+0020).
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number. JSON has no NaN/Infinity; those encode as
/// `null` (the parsers we target treat missing metrics as absent).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's f64 Display prints the shortest round-trip form, which is
        // always a valid JSON number.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A low-ceremony writer for JSON objects and arrays: tracks comma
/// placement so call sites stay linear. Values nest by calling the
/// `begin_*` / `end_*` pairs.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current aggregate already holds a value (per depth).
    comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(c) = self.comma.last_mut() {
            if *c {
                self.out.push(',');
            }
            *c = true;
        }
    }

    /// Opens an object (as a value in the current aggregate).
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array (as a value in the current aggregate).
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The value after a key must not emit another comma.
        if let Some(c) = self.comma.last_mut() {
            *c = false;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.out, s);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a float value (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        write_f64(&mut self.out, v);
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a raw pre-serialized JSON value (caller guarantees validity).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.pre_value();
        self.out.push_str(json);
        self
    }

    /// Consumes the writer, returning the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.comma.is_empty(), "unclosed aggregates");
        self.out
    }
}

/// A parsed JSON value (test/validation support).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64 — adequate for the artifacts we check).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not semantic; a sorted map keeps
    /// comparisons deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup for objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {s:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // lone surrogates decode to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte 0x{c:02x} in string"));
            }
            Some(_) => {
                // Advance one UTF-8 char.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
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
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode λ✓";
        let mut out = String::new();
        write_escaped(&mut out, nasty);
        assert_eq!(parse(&out).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("name")
            .string("a,b\"c")
            .key("xs")
            .begin_array()
            .u64(1)
            .u64(2)
            .f64(0.5)
            .end_array()
            .key("ok")
            .bool(true)
            .key("bad")
            .f64(f64::NAN)
            .end_object();
        let text = w.finish();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("a,b\"c"));
        assert_eq!(doc.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("bad"), Some(&Json::Null), "NaN encodes as null");
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let doc = parse(r#"{"a": [1, -2.5e3, "xA"], "b": {"c": null}}"#).unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("xA"));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn numbers_round_trip() {
        let mut out = String::new();
        write_f64(&mut out, 0.1 + 0.2);
        let back = parse(&out).unwrap().as_num().unwrap();
        assert_eq!(back, 0.1 + 0.2, "shortest-form f64 must round-trip");
    }
}
