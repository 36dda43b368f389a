//! Minimal hand-rolled JSON helpers (the build environment is offline, so
//! there is no serde). Only the flat shapes this workspace writes are
//! supported: one-level objects whose values are numbers, strings, booleans,
//! null, or arrays of numbers/strings.
//!
//! Integer rule: a token of plain decimal digits that fits `u64` is kept
//! exact as [`JsonValue::Int`] and never passes through `f64`, so
//! nanosecond sums, transmission ids and seeds above 2^53 survive a
//! round trip; every other number is a [`JsonValue::Num`]. A bare word must
//! be exactly `true`, `false` or `null`, or parse as a number.

/// A parsed JSON value (flat subset). Numbers compare by value: `1` equals
/// `1.0`, and an `Int` equals a `Num` only when the float holds exactly that
/// integer.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// A non-negative integer written as plain digits, exact.
    Int(u64),
    /// Any other number (signed, fractional, exponent, beyond `u64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of scalar values.
    Arr(Vec<JsonValue>),
}

impl PartialEq for JsonValue {
    fn eq(&self, other: &Self) -> bool {
        use JsonValue::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Int(_), Num(_)) | (Num(_), Int(_)) => self.as_u64() == other.as_u64(),
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Null, Null) => true,
            (Arr(a), Arr(b)) => a == b,
            _ => false,
        }
    }
}

impl JsonValue {
    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric, integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            // 2^64 as f64: the first value `as u64` would saturate.
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 18446744073709551616.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let e = self.peek()?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let chunk = self.bytes.get(start..start + len)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn scalar(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'"' => Some(JsonValue::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Some(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.scalar()?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Some(JsonValue::Arr(items));
                    }
                    if !self.eat(b',') {
                        return None;
                    }
                }
            }
            _ => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b',' || b == b'}' || b == b']' || b.is_ascii_whitespace() {
                        break;
                    }
                    self.pos += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.pos]).ok()? {
                    "true" => Some(JsonValue::Bool(true)),
                    "false" => Some(JsonValue::Bool(false)),
                    "null" => Some(JsonValue::Null),
                    s if s.bytes().all(|b| b.is_ascii_digit()) => s
                        .parse()
                        .map(JsonValue::Int)
                        .or_else(|_| s.parse().map(JsonValue::Num))
                        .ok(),
                    s => s.parse().ok().map(JsonValue::Num),
                }
            }
        }
    }
}

/// Parse one flat JSON object into ordered `(key, value)` pairs. Returns
/// `None` on malformed input (nested objects are not supported).
pub fn parse_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if !p.eat(b'{') {
        return None;
    }
    let mut out = Vec::new();
    p.skip_ws();
    if p.eat(b'}') {
        return Some(out);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        if !p.eat(b':') {
            return None;
        }
        let val = p.scalar()?;
        out.push((key, val));
        p.skip_ws();
        if p.eat(b'}') {
            return Some(out);
        }
        if !p.eat(b',') {
            return None;
        }
    }
}

/// Look up a key in parsed object pairs.
pub fn get<'a>(pairs: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escapes() {
        let s = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let line = format!("{{\"k\":\"{}\"}}", escape_json(s));
        let pairs = parse_object(&line).expect("parse");
        assert_eq!(get(&pairs, "k").unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn parses_mixed_object() {
        let pairs = parse_object(
            "{\"a\": 1.5, \"b\": \"x\", \"c\": true, \"d\": null, \"e\": [1, 2], \"f\": -3}",
        )
        .expect("parse");
        assert_eq!(get(&pairs, "a").unwrap().as_f64(), Some(1.5));
        assert_eq!(get(&pairs, "b").unwrap().as_str(), Some("x"));
        assert_eq!(get(&pairs, "c"), Some(&JsonValue::Bool(true)));
        assert_eq!(get(&pairs, "d"), Some(&JsonValue::Null));
        assert_eq!(
            get(&pairs, "e"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.0)
            ]))
        );
        assert_eq!(get(&pairs, "f").unwrap().as_f64(), Some(-3.0));
        assert_eq!(get(&pairs, "f").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("not json").is_none());
        assert!(parse_object("{\"k\": }").is_none());
        assert!(parse_object("").is_none());
    }

    #[test]
    fn empty_object() {
        assert_eq!(parse_object("{}"), Some(vec![]));
    }

    #[test]
    fn bare_words_must_be_exact_literals() {
        for bad in ["txyz", "nope", "fxxxx", "tru", "nul", "truee", "True"] {
            assert_eq!(parse_object(&format!("{{\"a\":{bad}}}")), None, "{bad}");
            assert_eq!(parse_object(&format!("{{\"a\":[{bad}]}}")), None, "{bad}");
        }
        let pairs = parse_object("{\"a\":true,\"b\":false,\"c\":null}").expect("parse");
        assert_eq!(get(&pairs, "a"), Some(&JsonValue::Bool(true)));
        assert_eq!(get(&pairs, "b"), Some(&JsonValue::Bool(false)));
        assert_eq!(get(&pairs, "c"), Some(&JsonValue::Null));
    }

    #[test]
    fn integer_tokens_stay_exact() {
        let pairs = parse_object(
            "{\"a\":9007199254740993,\"b\":18446744073709551615,\"c\":18446744073709551616,\
             \"d\":1e3,\"e\":7,\"f\":7.0,\"g\":[18446744073709551615]}",
        )
        .expect("parse");
        let v = |k: &str| get(&pairs, k).unwrap();
        assert_eq!(v("a").as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(v("b").as_u64(), Some(u64::MAX));
        // One past u64::MAX is a float and no longer saturates into range.
        assert_eq!(v("c").as_u64(), None);
        assert_eq!(v("c").as_f64(), Some(18446744073709551616.0));
        assert_eq!(v("d").as_u64(), Some(1000));
        assert_eq!(v("e").as_f64(), Some(7.0));
        assert_eq!(v("e"), v("f"), "numbers compare by value");
        assert_ne!(v("a"), &JsonValue::Num(9007199254740992.0));
        assert_eq!(v("g"), &JsonValue::Arr(vec![JsonValue::Int(u64::MAX)]));
    }
}
