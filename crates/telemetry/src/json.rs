//! The one JSON document codec (the build is offline, so there is no
//! serde). [`parse`] reads any document into a [`JsonValue`] and refuses
//! one nested deeper than [`MAX_DEPTH`]; [`object`] and the [`ToJson`]
//! impls write every artefact and wire line, and are the only code that
//! knows escaping, separators and the number rules. An artefact is one
//! struct with one `to_json` and one `from_json` built on this module:
//! nothing reads a file by the line layout its writer happened to choose.
//!
//! Integer rule: a token of plain decimal digits that fits `u64` is kept
//! exact as [`JsonValue::Int`] and never passes through `f64`, so
//! nanosecond sums, transmission ids and seeds above 2^53 survive a
//! round trip; every other number is a [`JsonValue::Num`]. A bare word must
//! be exactly `true`, `false` or `null`, or parse as a number.
//!
//! Float rule: an `f64` is written as Rust's shortest decimal that parses
//! back to the same bits, and as `null` when it is not finite (JSON has no
//! NaN); [`FromJson`] reads that `null` back as NaN.

use std::fmt::Write;

/// Deepest nesting of arrays and objects [`parse`] accepts (the manifest
/// and profile artefacts use 3). The parser recurses once per level, so
/// this is what keeps a line of 60 000 `[` from overflowing the stack of
/// the thread that reads it.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value. Numbers compare by value: `1` equals `1.0`, and an
/// `Int` equals a `Num` only when the float holds exactly that integer.
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
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object: its members in document order, duplicates kept.
    Obj(Vec<(String, JsonValue)>),
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
            (Obj(a), Obj(b)) => a == b,
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

    /// The member `key` of an object (the first, if it is repeated).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => get(pairs, key),
            _ => None,
        }
    }

    /// The member `key` read as a `T`; `None` when it is missing or has
    /// another shape, which is how a `from_json` refuses a document.
    pub fn field<T: FromJson>(&self, key: &str) -> Option<T> {
        T::read_json(self.get(key)?)
    }
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// Where a container puts its whitespace. The artefacts differ in nothing
/// else, and their bytes are pinned by golden tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[1,2]}`: wire lines, counters, histograms.
    Compact,
    /// `{"a": 1, "b": [1, 2]}`: the lists and `params` inside a manifest.
    Spaced,
    /// One member per line, indented two spaces, and a newline after the
    /// closing brace: the top level of a manifest or profile file.
    Lines,
    /// One item per line, indented four spaces: a profile's `per_region`.
    Rows,
}

impl Layout {
    /// `[before the first item, between items, after a key, before the
    /// closer, after the closer]`.
    fn parts(self) -> [&'static str; 5] {
        match self {
            Layout::Compact => ["", ",", ":", "", ""],
            Layout::Spaced => ["", ", ", ": ", "", ""],
            Layout::Lines => ["\n  ", ",\n  ", ": ", "\n", "\n"],
            Layout::Rows => ["\n    ", ",\n    ", ":", "\n  ", ""],
        }
    }

    /// The layout of a value written inside this one.
    fn inner(self) -> Layout {
        match self {
            Layout::Lines => Layout::Spaced,
            Layout::Rows => Layout::Compact,
            same => same,
        }
    }
}

/// A value that can be written as JSON. Scalars ignore the layout.
pub trait ToJson {
    /// Append this value to `out`.
    fn write_json(&self, out: &mut String, layout: Layout);

    /// This value as a text of its own.
    fn to_json_in(&self, layout: Layout) -> String {
        let mut out = String::new();
        self.write_json(&mut out, layout);
        out
    }
}

/// A value that can be read back from a parsed document.
pub trait FromJson: Sized {
    /// `None` when `v` has another shape or is out of range.
    fn read_json(v: &JsonValue) -> Option<Self>;
}

/// The members of one object being written; see [`object`].
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Write a member whose value is laid out as this object's members are.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.field_in(key, value, self.layout.inner())
    }

    /// Write a member whose value has its own layout.
    pub fn field_in<T: ToJson + ?Sized>(
        &mut self,
        key: &str,
        value: &T,
        layout: Layout,
    ) -> &mut Self {
        let [first, between, colon, ..] = self.layout.parts();
        self.out.push_str(if std::mem::take(&mut self.empty) {
            first
        } else {
            between
        });
        key.write_json(self.out, layout);
        self.out.push_str(colon);
        value.write_json(self.out, layout);
        self
    }
}

/// Declare once which JSON member holds which field of a struct (a nested
/// `a.b` is fine, which is how `host` and `stats` are flattened), and get
/// both directions from the one table: `write_members` writes them in the
/// table's order, `read_members` reads every one back or answers `None`.
#[macro_export]
macro_rules! json_members {
    ($ty:ty { $($key:literal => $($field:ident).+,)* }) => {
        impl $ty {
            fn write_members(&self, o: &mut $crate::json::ObjectWriter<'_>) {
                $(o.field($key, &self.$($field).+);)*
            }

            fn read_members(&mut self, v: &$crate::json::JsonValue) -> Option<()> {
                $(self.$($field).+ = v.field($key)?;)*
                Some(())
            }
        }
    };
}

/// Append one object to `out`; `fill` writes its members in order.
pub fn write_object(out: &mut String, layout: Layout, fill: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    let mut members = ObjectWriter {
        out,
        layout,
        empty: true,
    };
    fill(&mut members);
    let [.., close, after] = layout.parts();
    out.push_str(close);
    out.push('}');
    out.push_str(after);
}

/// One object as a string; `fill` writes its members in order.
pub fn object(layout: Layout, fill: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, layout, fill);
    out
}

fn write_array<T: ToJson>(out: &mut String, layout: Layout, items: impl Iterator<Item = T>) {
    let [first, between, _, close, _] = layout.parts();
    out.push('[');
    for (i, item) in items.enumerate() {
        out.push_str(if i == 0 { first } else { between });
        item.write_json(out, layout.inner());
    }
    out.push_str(close);
    out.push(']');
}

macro_rules! display_to_json {
    ($($ty:ty)*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String, _: Layout) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_to_json!(u32 u64 usize i64 bool);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, layout: Layout) {
        Decimals(*self, None).write_json(out, layout)
    }
}

/// A float written with a fixed number of decimals (a manifest's `wall_s`
/// has three), or the shortest round-trip form for `None`.
pub struct Decimals(pub f64, pub Option<usize>);

impl ToJson for Decimals {
    fn write_json(&self, out: &mut String, _: Layout) {
        let _ = match (self.0.is_finite(), self.1) {
            (false, _) => write!(out, "null"),
            (true, Some(n)) => write!(out, "{:.n$}", self.0),
            (true, None) => write!(out, "{}", self.0),
        };
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: Layout) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, layout: Layout) {
        self.as_str().write_json(out, layout)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, layout: Layout) {
        (**self).write_json(out, layout)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, layout: Layout) {
        write_array(out, layout, self.iter())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, layout: Layout) {
        self.as_slice().write_json(out, layout)
    }
}

/// An array written straight from an iterator (one column of a table of
/// rows, say) without collecting it first.
pub struct Seq<I>(pub I);

impl<I: Iterator + Clone> ToJson for Seq<I>
where
    I::Item: ToJson,
{
    fn write_json(&self, out: &mut String, layout: Layout) {
        write_array(out, layout, self.0.clone())
    }
}

/// An object whose keys are data: a manifest's `params`, a counter registry.
pub struct Pairs<I>(pub I);

impl<K: AsRef<str>, V: ToJson, I: Iterator<Item = (K, V)> + Clone> ToJson for Pairs<I> {
    fn write_json(&self, out: &mut String, layout: Layout) {
        write_object(out, layout, |o| {
            for (k, v) in self.0.clone() {
                o.field(k.as_ref(), &v);
            }
        })
    }
}

impl ToJson for JsonValue {
    fn write_json(&self, out: &mut String, layout: Layout) {
        match self {
            JsonValue::Int(n) => n.write_json(out, layout),
            JsonValue::Num(n) => n.write_json(out, layout),
            JsonValue::Str(s) => s.write_json(out, layout),
            JsonValue::Bool(b) => b.write_json(out, layout),
            JsonValue::Null => out.push_str("null"),
            JsonValue::Arr(items) => items.write_json(out, layout),
            JsonValue::Obj(pairs) => {
                Pairs(pairs.iter().map(|(k, v)| (k, v))).write_json(out, layout)
            }
        }
    }
}

/// The scalar readers, one line each: `type: value => how it is read`.
macro_rules! scalar_from_json {
    ($($ty:ty: $v:ident => $read:expr;)*) => {$(
        impl FromJson for $ty {
            fn read_json($v: &JsonValue) -> Option<Self> {
                $read
            }
        }
    )*};
}
scalar_from_json! {
    u64: v => v.as_u64();
    u32: v => v.as_u64()?.try_into().ok();
    f64: v => if matches!(v, JsonValue::Null) { Some(f64::NAN) } else { v.as_f64() };
    bool: v => if let JsonValue::Bool(b) = v { Some(*b) } else { None };
    String: v => v.as_str().map(str::to_string);
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(v: &JsonValue) -> Option<Self> {
        match v {
            JsonValue::Arr(items) => items.iter().map(T::read_json).collect(),
            _ => None,
        }
    }
}

/// The members of an object whose keys are data, in document order.
impl<T: FromJson> FromJson for Vec<(String, T)> {
    fn read_json(v: &JsonValue) -> Option<Self> {
        match v {
            JsonValue::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Some((k.clone(), T::read_json(v)?)))
                .collect(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += found as usize;
        found
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            // Everything up to the next quote or escape is copied whole.
            let rest = &self.text[self.pos..];
            let stop = rest.find(['"', '\\'])?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Some(out);
            }
            let escape = self.peek()?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4)?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }

    /// The comma-separated items of the container opening at `pos`, up to
    /// its `close`; `None` when that would nest beyond [`MAX_DEPTH`].
    fn items<T>(&mut self, close: u8, item: fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                out.push(item(self)?);
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return None;
                }
            }
        }
        self.depth -= 1;
        Some(out)
    }

    fn member(&mut self) -> Option<(String, JsonValue)> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return None;
        }
        Some((key, self.value()?))
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'"' => self.string().map(JsonValue::Str),
            b'[' => self.items(b']', Self::value).map(JsonValue::Arr),
            b'{' => self.items(b'}', Self::member).map(JsonValue::Obj),
            _ => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b',' || b == b'}' || b == b']' || b.is_ascii_whitespace() {
                        break;
                    }
                    self.pos += 1;
                }
                match &self.text[start..self.pos] {
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

/// Parse one JSON document: a single value, whitespace around it allowed,
/// nothing after it. `None` on malformed input and on nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Option<JsonValue> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    (p.pos == text.len()).then_some(value)
}

/// Parse one JSON object (a wire line, a trace line) into its ordered
/// `(key, value)` members; `None` where [`parse`] is, and for any other
/// kind of document.
pub fn parse_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    match parse(line)? {
        JsonValue::Obj(pairs) => Some(pairs),
        _ => None,
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
        let line = object(Layout::Compact, |o| {
            o.field("k", s);
        });
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
