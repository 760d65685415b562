//! Dependency-free JSON parsing — the read half of [`crate::Json`].
//!
//! The emitter in [`crate::json`] exists because the offline build cannot
//! depend on `serde_json`; the baseline-comparison workflow (`fua report
//! --baseline BENCH_prev.json`) additionally needs to *read* artifacts
//! written by earlier runs, so this module adds a small recursive-descent
//! parser producing the same [`Json`] value type the emitter consumes.
//! Round-tripping is exact for everything the workspace emits: object key
//! order is preserved, integers stay integers ([`Json::UInt`]/
//! [`Json::Int`]), and floats parse via Rust's shortest-round-trip
//! grammar.

use std::fmt;

use crate::Json;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected '{}', found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("'{}'", c as char),
                    None => "end of input".to_string(),
                }
            ))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos -= self.pos.min(1).min(usize::from(self.pos > 0));
                    return self.err("expected ',' or ']' in array");
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it is a &str) and we only
                // stopped on ASCII delimiters, so the run is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        JsonParseError {
                            offset: start,
                            message: "invalid UTF-8 in string".to_string(),
                        }
                    })?,
                );
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return self.err("bad escape sequence"),
                },
                Some(_) => return self.err("unescaped control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return self.err("bad \\u escape"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let hi = self.hex4()?;
        // Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..=0xDBFF).contains(&hi) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return self.err("lone high surrogate");
            }
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return self.err("bad low surrogate");
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(c).map_or_else(|| self.err("bad surrogate pair"), Ok);
        }
        if (0xDC00..=0xDFFF).contains(&hi) {
            return self.err("lone low surrogate");
        }
        char::from_u32(hi).map_or_else(|| self.err("bad \\u escape"), Ok)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            // Integers stay exact: non-negative → UInt, negative → Int,
            // out-of-range → fall back to f64 like serde_json's lossy mode.
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            // `1e999` parses to infinity; a BENCH gate comparing two
            // infinities sees NaN drift, which no band rejects.
            Ok(_) => Err(JsonParseError {
                offset: start,
                message: format!("number out of range `{text}`"),
            }),
            Err(_) => Err(JsonParseError {
                offset: start,
                message: format!("bad number `{text}`"),
            }),
        }
    }
}

impl Json {
    /// Parses a JSON document. The whole input must be one value
    /// (surrounded by optional whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset on malformed input.
    ///
    /// # Examples
    ///
    /// ```
    /// use fua_trace::Json;
    ///
    /// let v = Json::parse("{\"bits\": 42, \"pct\": 17.5}").unwrap();
    /// assert_eq!(v.get("bits").and_then(Json::as_u64), Some(42));
    /// assert_eq!(v.get("pct").and_then(Json::as_f64), Some(17.5));
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing data after JSON value");
        }
        Ok(v)
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
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

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("17.5").unwrap(), Json::Float(17.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-2.5e-2").unwrap(), Json::Float(-0.025));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap(),
            Json::UInt(u64::MAX)
        );
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\nd\\u0041\"").unwrap(),
            Json::Str("a\"b\\c\ndA".into())
        );
        // Raw UTF-8 and surrogate pairs both decode.
        assert_eq!(
            Json::parse("\"héllo 世界\"").unwrap(),
            Json::Str("héllo 世界".into())
        );
        assert_eq!(
            Json::parse("\"\\ud83d\\ude80\"").unwrap(),
            Json::Str("🚀".into())
        );
    }

    #[test]
    fn containers_preserve_order() {
        let v = Json::parse("{\"b\": [1, 2.0, \"x\"], \"a\": {}}").unwrap();
        let Json::Obj(fields) = &v else { panic!() };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(
            v.get("b").unwrap().as_arr().unwrap(),
            &[Json::UInt(1), Json::Float(2.0), Json::Str("x".into())]
        );
    }

    #[test]
    fn emitter_output_round_trips() {
        let doc = Json::obj([
            ("name", Json::Str("bench \"ci\"\n".into())),
            ("bits", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-3)),
            ("pct", Json::Float(17.5)),
            ("whole", Json::Float(4.0)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("x", Json::Float(-0.0))]),
                    Json::Arr(vec![]),
                ]),
            ),
        ]);
        for rendered in [doc.pretty(), doc.compact()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc, "from {rendered}");
        }
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
            "nan",
            "1e999",
            "[-1e400]",
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.to_string().contains("byte"), "{bad}: {e}");
        }
    }

    #[test]
    fn accessors_type_check() {
        let v = Json::parse("{\"n\": 3, \"s\": \"x\", \"f\": 1.5, \"b\": false}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }
}
