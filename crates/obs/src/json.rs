//! A minimal JSON reader, enough to parse back what the exporters emit
//! (metric snapshots, bench baselines) without external dependencies.
//!
//! Numbers are parsed as `f64`, matching the JSON data model; exact
//! integers up to 2^53 round-trip losslessly, which covers every counter
//! the toolchain realistically accumulates.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is normalized (sorted).
    Object(BTreeMap<String, JsonValue>),
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Serializes the value as compact JSON. Non-finite numbers (which
    /// JSON cannot represent) render as `null`; object keys keep the
    /// map's sorted order, so output is deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip float formatting: the
                    // printed text parses back to exactly this f64.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (index, (key, value)) in map.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000
                                        + (((unit - 0xD800) as u32) << 10)
                                        + (low - 0xDC00) as u32;
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit as u32)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?
                            };
                            out.push(ch);
                            // parse_hex4 leaves pos one past the escape.
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so it is valid).
                    let rest = &self.bytes[self.pos..];
                    let text =
                        std::str::from_utf8(rest).map_err(|_| self.error("invalid utf-8"))?;
                    let ch = text.chars().next().expect("non-empty string tail");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Parses exactly four hex digits at `pos`, advancing past them.
    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let unit =
            u16::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError { offset: start, message: "invalid number".to_owned() })
    }
}

/// Escapes a string for embedding in JSON output (without the quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y\n"}"#;
        let value = JsonValue::parse(doc).expect("parse");
        assert_eq!(value.get("a").and_then(JsonValue::as_array).map(<[_]>::len), Some(3));
        assert_eq!(value.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(
            value.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(value.get("e").and_then(JsonValue::as_str), Some("x\"y\n"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}π𝔔";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let value = JsonValue::parse(&doc).expect("parse");
        assert_eq!(value.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn decodes_surrogate_pairs() {
        let value = JsonValue::parse(r#""\ud835\udd14""#).expect("parse");
        assert_eq!(value.as_str(), Some("𝔔"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{\"a\":}", "\"\\ud835\""] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parses_scientific_notation_exactly() {
        for (text, want) in [
            ("1e3", 1e3),
            ("1E3", 1e3),
            ("-2.5e-4", -2.5e-4),
            ("6.02E+23", 6.02e23),
            ("0.0", 0.0),
            ("-0.0", -0.0),
            ("1e-308", 1e-308),
            ("1.7976931348623157e308", f64::MAX),
            ("5e-324", f64::MIN_POSITIVE * f64::EPSILON), // smallest subnormal, 2^-1074
        ] {
            let value = JsonValue::parse(text).expect(text);
            let got = value.as_f64().expect("number");
            assert_eq!(got.to_bits(), want.to_bits(), "{text}: {got} != {want}");
        }
        // Overflowing exponents saturate to infinity per strtod — which
        // the serializer cannot re-emit, but the parser must not error.
        assert_eq!(JsonValue::parse("1e999").expect("parse").as_f64(), Some(f64::INFINITY));
        // Things that look number-ish but are not valid JSON numbers.
        for bad in ["1e", "1e+", ".5", "+1", "0x10", "--1", "Infinity", "NaN"] {
            let wrapped = format!("[{bad}]");
            assert!(JsonValue::parse(&wrapped).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn unicode_and_control_escapes_round_trip() {
        // Every ASCII control character, escaped by escape(), parses back.
        let controls: String = (0u8..0x20).map(char::from).collect();
        let doc = format!("\"{}\"", escape(&controls));
        assert_eq!(JsonValue::parse(&doc).expect("controls").as_str(), Some(controls.as_str()));
        // Unescaped control characters are rejected.
        assert!(JsonValue::parse("\"\u{1}\"").is_err());
        // \u escapes for BMP, astral (surrogate pair), and boundary points.
        for (doc, want) in [
            (r#""\u0041""#, "A"),
            (r#""\u00e9""#, "é"),
            (r#""\u2603""#, "☃"),
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uffff""#, "\u{ffff}"),
            (r#""\u0000""#, "\0"),
        ] {
            assert_eq!(JsonValue::parse(doc).expect(doc).as_str(), Some(want), "{doc}");
        }
        // Broken escapes fail cleanly.
        for bad in [r#""\u12""#, r#""\uzzzz""#, r#""\ud800\u0041""#, r#""\udc00""#, r#""\q""#] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_parses_and_serializes() {
        const DEPTH: usize = 256;
        let mut doc = String::new();
        for _ in 0..DEPTH {
            doc.push_str("[{\"k\":");
        }
        doc.push_str("null");
        for _ in 0..DEPTH {
            doc.push_str("}]");
        }
        let value = JsonValue::parse(&doc).expect("deep parse");
        // Walk back down to the innermost value.
        let mut cursor = &value;
        for _ in 0..DEPTH {
            cursor = &cursor.as_array().expect("array layer")[0];
            cursor = cursor.get("k").expect("object layer");
        }
        assert_eq!(cursor, &JsonValue::Null);
        // And the serialized form round-trips.
        assert_eq!(JsonValue::parse(&value.to_json()).expect("reparse"), value);
    }

    fn random_string(state: &mut u64) -> String {
        let len = (splitmix64(state) % 12) as usize;
        (0..len)
            .map(|_| {
                // Mix ASCII (controls included), escapes, and astral chars.
                match splitmix64(state) % 5 {
                    0 => (splitmix64(state) % 0x80) as u8 as char,
                    1 => ['"', '\\', '\n', '\t', '\u{0}'][(splitmix64(state) % 5) as usize],
                    2 => '😀',
                    3 => 'π',
                    _ => char::from(b'a' + (splitmix64(state) % 26) as u8),
                }
            })
            .collect()
    }

    fn random_number(state: &mut u64) -> f64 {
        match splitmix64(state) % 4 {
            // Exact integers (counter-like).
            0 => (splitmix64(state) % (1 << 53)) as f64,
            1 => -((splitmix64(state) % 1_000_000) as f64),
            // Dyadic fractions round-trip exactly through Display.
            2 => (splitmix64(state) % 4096) as f64 / 1024.0,
            // Scientific magnitudes.
            _ => {
                let mantissa = (splitmix64(state) % 9000 + 1000) as f64 / 1000.0;
                let exponent = (splitmix64(state) % 60) as i32 - 30;
                mantissa * 10f64.powi(exponent)
            }
        }
    }

    fn random_value(state: &mut u64, depth: usize) -> JsonValue {
        let pick = if depth == 0 { splitmix64(state) % 4 } else { splitmix64(state) % 6 };
        match pick {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(splitmix64(state).is_multiple_of(2)),
            2 => JsonValue::Number(random_number(state)),
            3 => JsonValue::String(random_string(state)),
            4 => {
                let len = (splitmix64(state) % 4) as usize;
                JsonValue::Array((0..len).map(|_| random_value(state, depth - 1)).collect())
            }
            _ => {
                let len = (splitmix64(state) % 4) as usize;
                JsonValue::Object(
                    (0..len)
                        .map(|_| (random_string(state), random_value(state, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn serializer_parser_roundtrip_property() {
        let mut state = 0x00ab_5eed_u64;
        for case in 0..500 {
            let value = random_value(&mut state, 4);
            let text = value.to_json();
            let parsed =
                JsonValue::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\ndoc: {text}"));
            assert_eq!(parsed, value, "case {case}: roundtrip mismatch for {text}");
        }
    }
}
