//! A minimal JSON value type with a recursive-descent parser and a
//! serializer, built on `std` only — no external JSON crate is among the
//! approved offline dependencies.
//!
//! Shared by the telemetry exporters' golden tests (which must re-parse
//! the Chrome trace JSON they emit) and by `gables-serve`'s HTTP request
//! and response bodies. The grammar is standard JSON; two deliberate
//! simplifications keep it small:
//!
//! * numbers are `f64` (fine for this workspace: rates, seconds,
//!   fractions, and counters well below 2^53), and
//! * objects preserve insertion order in a `Vec` of pairs, with
//!   [`Json::get`] returning the first match — duplicate keys are
//!   accepted on parse, as most JSON parsers do.
//!
//! Request bodies are untrusted, so decoding is linear in the input's
//! length and arrays and objects may nest at most [`MAX_DEPTH`] deep:
//! the parser recurses once per level, and without a cap a 10 KB body of
//! `[` overflows a server thread's stack.
//!
//! ```
//! use gables_model::json::Json;
//!
//! let v = Json::parse(r#"{"spec": "[soc]", "steps": 8}"#)?;
//! assert_eq!(v.get("spec").and_then(Json::as_str), Some("[soc]"));
//! assert_eq!(v.get("steps").and_then(Json::as_f64), Some(8.0));
//! // Serialization round-trips.
//! assert_eq!(Json::parse(&v.to_string())?, v);
//! # Ok::<(), gables_model::json::JsonError>(())
//! ```

use core::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: key/value pairs in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing bytes are an error).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset for malformed input,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).parse()
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// A string value (convenience constructor).
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// A number value; non-finite floats (which JSON cannot represent)
    /// become `null`.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Number(x)
        } else {
            Json::Null
        }
    }
}

/// Serializes compactly (no insignificant whitespace). Non-finite
/// numbers — unreachable via [`Json::num`] but constructible directly —
/// render as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if n.is_finite() => write!(f, "{n}"),
            Json::Number(_) => f.write_str("null"),
            Json::String(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts: far
/// above any document this workspace writes or reads (a few levels), and
/// shallow enough for the parser's recursion to fit any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Decode strings with the char-at-a-time reference decoder.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            reference: false,
        }
    }

    fn parse(mut self) -> Result<Json, JsonError> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::new(self.pos, "trailing bytes"));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                self.pos,
                format!(
                    "expected {:?}, found {:?}",
                    b as char,
                    self.peek().map(|c| c as char)
                ),
            ))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(JsonError::new(
                self.pos,
                format!("unexpected {:?}", other.map(|c| c as char)),
            )),
        }
    }

    /// Parses one array or object, one level deeper than the caller.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(self.pos, "bad literal"))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                other => {
                    return Err(JsonError::new(
                        self.pos,
                        format!("expected ',' or '}}', found {:?}", other.map(|c| c as char)),
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(JsonError::new(
                        self.pos,
                        format!("expected ',' or ']', found {:?}", other.map(|c| c as char)),
                    ))
                }
            }
        }
    }

    /// Decodes a string in one pass: each run of unescaped bytes is
    /// copied with one `push_str`. Both delimiters are ASCII, so a run
    /// ends on a char boundary, and every escape leaves `pos` on one.
    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.reference {
            return self.string_reference();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError::new(self.bytes.len(), "unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self
            .peek()
            .ok_or_else(|| JsonError::new(self.pos, "truncated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| JsonError::new(self.pos, "truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|e| JsonError::new(self.pos, e.to_string()))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|e| JsonError::new(self.pos, e.to_string()))?;
                self.pos += 4;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| JsonError::new(self.pos, "bad \\u code point"))?,
                );
            }
            other => {
                return Err(JsonError::new(
                    self.pos,
                    format!("bad escape {:?}", other as char),
                ))
            }
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii by scan");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| JsonError::new(start, format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::String("a\nb".into())
        );
    }

    #[test]
    fn parses_structures_and_preserves_object_order() {
        let v = Json::parse(r#"{"z": [1, 2, {"k": null}], "a": "x"}"#).unwrap();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
        let arr = v.get("z").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("k"), Some(&Json::Null));
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"x", "{\"a\" 1}", "tru", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("offset 4"));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        assert_eq!(Json::parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn serializes_compactly_and_round_trips() {
        let v = Json::Object(vec![
            ("name".into(), Json::str("a\"b")),
            ("n".into(), Json::num(2.5)),
            (
                "flags".into(),
                Json::Array(vec![Json::Bool(true), Json::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"name":"a\"b","n":2.5,"flags":[true,null]}"#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let mixed = format!(
            "{}0{}",
            "{\"a\":[".repeat(MAX_DEPTH / 2),
            "]}".repeat(MAX_DEPTH / 2)
        );
        assert!(Json::parse(&mixed).is_ok());
        let over = format!("[{at_cap}]");
        let err = Json::parse(&over).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "nesting deeper than 128");
        // Without the cap, 10,000 levels (a 10 KB body) overflow the stack.
        let deep = "[".repeat(10_000);
        for (doc, offset) in [
            (deep.clone(), MAX_DEPTH),
            (format!("{deep}1{}", "]".repeat(10_000)), MAX_DEPTH),
            ("{\"a\":".repeat(10_000), 5 * MAX_DEPTH),
        ] {
            assert_eq!(Json::parse(&doc).unwrap_err().offset, offset);
        }
    }

    #[test]
    fn duplicate_keys_return_first_match() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
    }
}
