//! A minimal JSON *value* model and recursive-descent parser.
//!
//! Lets other crates round-trip small JSON documents — fault-plan
//! fixtures, shrunk chaos reproducers, benchmark reports — without an
//! external serialization dependency. It is deliberately small: UTF-8 input,
//! `\uXXXX` escapes limited to the Basic Multilingual Plane, and
//! numbers kept exact for unsigned 64-bit integers (seeds!) with an
//! `f64` fallback for everything else.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact (plan seeds
    /// use the full 64-bit range, beyond `f64`'s 53-bit mantissa).
    UInt(u64),
    /// Any other number (negative, fractional, or exponent form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up `key` in an object (`None` for missing keys or
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert losslessly up to 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a borrowed string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON text, the inverse of
    /// [`JsonValue::parse`]. Lets a reader hand an embedded subtree
    /// (say, a fault plan inside a chaos fixture) to another parser
    /// without knowing its schema.
    pub fn render(&self) -> String {
        match self {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::UInt(u) => u.to_string(),
            JsonValue::Num(x) => {
                // `f64::to_string` never produces exponent form for the
                // magnitudes we store, and round-trips exactly.
                x.to_string()
            }
            JsonValue::Str(s) => format!("\"{}\"", escape_json(s)),
            JsonValue::Arr(items) => {
                let inner: Vec<String> = items.iter().map(JsonValue::render).collect();
                format!("[{}]", inner.join(", "))
            }
            JsonValue::Obj(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {}", escape_json(k), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included) — the inverse of the parser's unescaping, shared so
/// writers round-trip.
pub fn escape_json(s: &str) -> String {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", JsonValue::Null),
            Some(b't') => self.eat_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("surrogate \\u escape at byte {}", self.pos))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged; the input is a valid &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // Unsigned integers stay exact (u64 covers 64-bit seeds; f64
        // would silently round above 2⁵³).
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            JsonValue::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_seeds_stay_exact() {
        let big = u64::MAX - 1;
        let v = JsonValue::parse(&format!("{{\"seed\": {big}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn render_round_trips_through_parser() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let v = JsonValue::parse(doc).unwrap();
        let again = JsonValue::parse(&v.render()).unwrap();
        assert_eq!(v, again);
        // Large seeds stay exact through a render trip.
        let seed = JsonValue::UInt(u64::MAX - 1);
        assert_eq!(JsonValue::parse(&seed.render()).unwrap(), seed);
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let original = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("\"{}\"", escape_json(original));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(original));
    }
}
