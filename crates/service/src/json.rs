//! A hand-rolled JSON value, parser and serializer.
//!
//! The workspace builds in hermetic environments with no registry access, so
//! the service cannot depend on `serde`. This module provides the minimal
//! JSON layer the newline-delimited protocol needs: a [`Json`] tree that
//! preserves object key order (responses serialize deterministically, which
//! the equivalence tests rely on), a recursive-descent parser with full
//! string-escape handling, and a serializer via `Display`.
//!
//! Numbers are split into [`Json::Int`] (anything that lexes as an integer
//! and fits `i64`), [`Json::UInt`] (integers beyond `i64::MAX` that still
//! fit `u64` — cache keys and `u64` counters like `arena_bytes` round-trip
//! exactly instead of sliding into lossy floats) and [`Json::Float`]: solver
//! counters round-trip exactly, and floats serialize with `{:?}` so `2.0`
//! stays `2.0` instead of collapsing into an integer on re-parse.
//!
//! # Examples
//!
//! ```
//! use service::json::Json;
//!
//! let value = Json::parse(r#"{"op":"health","id":3,"p50_ms":1.5}"#).unwrap();
//! assert_eq!(value.get("op").and_then(Json::as_str), Some("health"));
//! assert_eq!(value.get("id").and_then(Json::as_i64), Some(3));
//! assert_eq!(value.to_string(), r#"{"op":"health","id":3,"p50_ms":1.5}"#);
//! ```

use std::fmt;

/// A JSON value. Objects keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer number (no fraction, no exponent, fits `i64`).
    Int(i64),
    /// A non-negative integer beyond `i64::MAX` that fits `u64`. Kept as a
    /// distinct variant so 64-bit counters and hash keys survive the wire
    /// bit-exactly (a float would silently round past 2^53).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`]: a message and the byte offset it refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key–value pairs, preserving their order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer that fits `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (integers included; `UInt`
    /// values above 2^53 lose precision here, by the nature of `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The Boolean payload, if this is a Boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key–value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the offending byte offset.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after value"));
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so a deeper document (a few kilobytes
/// of `[`) is an error instead of a stack overflow. Protocol messages nest
/// a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Parses a container one level down, refusing to nest deeper than
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("non-ascii \\u escape"))?;
        let value =
            u16::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&high) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(high) - 0xd800) << 10)
                                        + (u32::from(low).wrapping_sub(0xdc00));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(high))
                            };
                            out.push(ch.ok_or_else(|| self.error("invalid \\u code point"))?);
                            continue; // pos already past the escape
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is
                    // always on a character boundary).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let ch = rest.chars().next().expect("peeked a byte");
                    if (ch as u32) < 0x20 {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            // Beyond i64 but within u64: keep every bit (cache keys and
            // u64 stats counters must round-trip exactly).
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

fn escape_into(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for ch in s.chars() {
        match ch {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Float(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Float(_) => write!(f, "null"), // NaN/inf are not JSON
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape_into(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map(Json::Int).unwrap_or(Json::UInt(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<u128> for Json {
    fn from(v: u128) -> Json {
        match (i64::try_from(v), u64::try_from(v)) {
            (Ok(v), _) => Json::Int(v),
            (_, Ok(v)) => Json::UInt(v),
            // Durations beyond u64 milliseconds do not occur in practice;
            // saturate into float rather than panic.
            _ => Json::Float(v as f64),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) {
        let parsed = Json::parse(text).expect("parses");
        assert_eq!(parsed.to_string(), text);
        assert_eq!(Json::parse(&parsed.to_string()).expect("reparses"), parsed);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip("null");
        roundtrip("true");
        roundtrip("false");
        roundtrip("0");
        roundtrip("-42");
        roundtrip("9223372036854775807");
        roundtrip("1.5");
        roundtrip("\"hello\"");
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        roundtrip(r#"[1,2,[3,"x"],{}]"#);
        roundtrip(r#"{"z":1,"a":{"nested":[true,null]},"m":-2.5}"#);
    }

    #[test]
    fn large_unsigned_integers_roundtrip_losslessly() {
        // u64::MAX and a value just past 2^53 (where f64 starts dropping
        // low bits — exactly what arena_bytes-sized counters would hit if
        // they fell back to Float).
        roundtrip("18446744073709551615");
        roundtrip("9007199254740993");
        let past_f64 = (1u64 << 53) + 1;
        assert_eq!(Json::from(past_f64), Json::Int(past_f64 as i64));
        assert_eq!(
            Json::parse(&Json::from(u64::MAX).to_string()).unwrap(),
            Json::UInt(u64::MAX)
        );
        // A wire round-trip through an object preserves every bit.
        let stats = Json::obj(vec![
            ("arena_bytes", Json::from(u64::MAX - 7)),
            ("cache_key", Json::from(0xdead_beef_dead_beefu64)),
        ]);
        let reparsed = Json::parse(&stats.to_string()).unwrap();
        assert_eq!(
            reparsed.get("arena_bytes").and_then(Json::as_u64),
            Some(u64::MAX - 7)
        );
        assert_eq!(
            reparsed.get("cache_key").and_then(Json::as_u64),
            Some(0xdead_beef_dead_beefu64)
        );
        // u128 conversions pick the tightest lossless variant.
        assert_eq!(Json::from(3u128), Json::Int(3));
        assert_eq!(Json::from(u128::from(u64::MAX)), Json::UInt(u64::MAX));
    }

    #[test]
    fn float_serialization_stays_float() {
        // 2.0 must not collapse to the integer 2 on the wire.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn string_escapes() {
        let parsed = Json::parse(r#""a\"b\\c\nd\teAé""#).unwrap();
        assert_eq!(parsed, Json::Str("a\"b\\c\nd\teA\u{e9}".to_string()));
        // Serialization escapes what must be escaped and round-trips.
        let tricky = Json::Str("line1\nline2\t\"quoted\" \\ \u{1}".to_string());
        assert_eq!(Json::parse(&tricky.to_string()).unwrap(), tricky);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let parsed = Json::parse(r#""😀""#).unwrap();
        assert_eq!(parsed, Json::Str("\u{1f600}".to_string()));
    }

    #[test]
    fn newline_delimited_payloads_stay_on_one_line() {
        // The protocol frames one JSON document per line; embedded newlines
        // in program source must therefore be escaped, never literal.
        let value = Json::obj(vec![("program", Json::str("int main() {\nreturn 0;\n}"))]);
        assert!(!value.to_string().contains('\n'));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("   x").unwrap_err();
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deepest = Json::parse(&nest(MAX_DEPTH)).expect("parses at the limit");
        assert_eq!(deepest.to_string(), nest(MAX_DEPTH));
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // A bomb far past the limit is refused the same way, on the
        // caller's own stack.
        assert!(Json::parse(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"f":1.5,"s":"x","b":true,"a":[1],"u":18446744073709551615}"#);
        let v = v.unwrap();
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        // u64::MAX does not fit i64: it lexes as a lossless UInt.
        assert_eq!(v.get("u"), Some(&Json::UInt(u64::MAX)));
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("u").and_then(Json::as_i64), None);
        assert_eq!(Json::Null.get("missing"), None);
    }
}
