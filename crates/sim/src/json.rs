//! The workspace's one JSON codec: a value model, a parser, a compact
//! renderer and a compact object writer, shared by report snapshots, the
//! store's STAT payload, report digests and the bench regression differ.
//!
//! Numbers keep their raw text in [`Value::Num`]. That keeps `u64` counters
//! exact up to `u64::MAX` (an `f64` is exact only to 2^53) and makes
//! re-rendering a parsed document byte-identical to what [`ObjWriter`]
//! wrote, which is what lets a snapshot verify its payload checksum after a
//! round trip. The number grammar is still checked at parse time, so `1e`
//! is rejected up front rather than when the field is read.
//!
//! ```
//! use virgo_sim::json::{self, ObjWriter};
//!
//! let mut w = ObjWriter::new();
//! w.str("design", "Virgo").u64("cycles", u64::MAX).f64("util", 0.1);
//! let text = w.finish();
//! assert_eq!(text, r#"{"design":"Virgo","cycles":18446744073709551615,"util":0.1}"#);
//! let doc = json::parse(&text).unwrap();
//! assert_eq!(doc.get("cycles").unwrap().as_u64().unwrap(), u64::MAX);
//! let mut again = String::new();
//! doc.render(&mut again);
//! assert_eq!(again, text);
//! ```

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Key/value pairs in document order.
    Object(Vec<(String, Value)>),
    /// Array elements in document order.
    Array(Vec<Value>),
    /// A string.
    Str(String),
    /// A number, as its raw (grammar-checked) text.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parse failure (with its byte offset) or an accessor applied to the
/// wrong kind of value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

type Result<T> = std::result::Result<T, Error>;

impl Value {
    fn expected<T>(&self, what: &str) -> Result<T> {
        let got = match self {
            Value::Object(_) => "object",
            Value::Array(_) => "array",
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
        };
        Err(Error(format!("expected {what}, got {got}")))
    }

    /// Looks up `key` in an object; fails on a non-object or a missing key.
    pub fn get(&self, key: &str) -> Result<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| Error(format!("missing field {key:?}")))
    }

    /// The fields of an object, in document order.
    pub fn as_object(&self) -> Result<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => other.expected("object"),
        }
    }

    /// The elements of an array, in document order.
    pub fn as_array(&self) -> Result<&[Value]> {
        match self {
            Value::Array(items) => Ok(items),
            other => other.expected("array"),
        }
    }

    /// The payload of a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => other.expected("string"),
        }
    }

    /// A number as an exact `u64`; fails unless its text is a `u64` literal.
    pub fn as_u64(&self) -> Result<u64> {
        self.number("u64")
    }

    /// A number as the nearest `f64` (bit-exact for [`fmt_f64`] output).
    pub fn as_f64(&self) -> Result<f64> {
        self.number("f64")
    }

    fn number<T: FromStr>(&self, ty: &str) -> Result<T>
    where
        T::Err: fmt::Display,
    {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|e| Error(format!("bad {ty} {raw:?}: {e}"))),
            other => other.expected("number"),
        }
    }

    /// Appends the value in the compact form [`ObjWriter`] emits; numbers
    /// are re-emitted as their raw text.
    pub fn render(&self, out: &mut String) {
        match self {
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Value::Str(s) => write_string(s, out),
            Value::Num(raw) => out.push_str(raw),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Null => out.push_str("null"),
        }
    }
}

/// Parses one JSON document; anything but whitespace after it is an error.
/// Strings accept the escapes `\" \\ \/ \n \r \t` and `\uXXXX` outside the
/// surrogate range.
pub fn parse(text: &str) -> Result<Value> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    if p.peek().is_some() {
        return p.err("trailing garbage after document");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Consumes the opening bracket `value` peeked, then comma-separated
    /// items up to `close`.
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected ',' or {:?}", close as char)),
            }
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected {lit:?}"))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both are
            // ASCII, so the slice ends on a char boundary.
            let start = self.pos;
            while self.byte().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let Some(b) = self.byte() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.byte();
            self.pos += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    // `from_str_radix` alone would also take a leading `+`.
                    let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
                    let code = u32::from_str_radix(hex, 16)
                        .ok()
                        .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()));
                    match code.and_then(char::from_u32) {
                        Some(c) => {
                            self.pos += 4;
                            c
                        }
                        None => return self.err("bad \\u escape"),
                    }
                }
                _ => return self.err("unknown escape"),
            });
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<()> {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a digit in number");
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        if self.byte() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if let Some(b'e' | b'E') = self.byte() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.byte() {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }
}

/// Appends `value` as a quoted JSON string: `"`, `\` and newline get their
/// short escapes, every other character below U+0020 a `\u00xx` escape, and
/// the rest (multi-byte UTF-8 included) is copied verbatim.
pub fn write_string(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON number that parses back to the same bits
/// (`{:?}` is Rust's shortest round-trip form). JSON has no NaN or
/// infinity, so non-finite values become `null`.
pub fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Builds one compact JSON object (no whitespace) field by field.
#[derive(Debug, Default)]
pub struct ObjWriter {
    out: String,
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        write_string(key, &mut self.out);
        self.out.push(':');
        &mut self.out
    }

    /// Adds a field whose value is already-rendered JSON text.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key).push_str(value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a float field via [`fmt_f64`].
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, &fmt_f64(value))
    }

    /// Adds a string field via [`write_string`].
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(value, self.key(key));
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn parses_bench_shaped_documents() {
        let doc = parse(
            r#"{"bench": "dsm_scaling", "points": [
                {"clusters": 2, "dsm": true, "cycles": 123, "util": 45.5},
                {"clusters": 4, "dsm": false, "cycles": 456, "util": 12.25}
            ]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str().unwrap(), "dsm_scaling");
        let points = doc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points[1].get("cycles").unwrap().as_f64().unwrap(), 456.0);
        assert_eq!(points[1].get("util").unwrap().as_f64().unwrap(), 12.25);
        assert_eq!(points[0].get("dsm").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse(r#"{"a":[1,2.5,-3],"b":"x\"y\\z\nw","c":null,"d":true}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x\"y\\z\nw");
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), 2.5);
        assert_eq!(arr[2].as_f64().unwrap(), -3.0);
        assert!(arr[2].as_u64().is_err() && doc.get("b").unwrap().as_f64().is_err());
        assert!(doc.get("missing").is_err() && arr[0].get("a").is_err());
        assert_eq!(doc.get("c").unwrap(), &Value::Null);
        assert_eq!(doc.get("d").unwrap(), &Value::Bool(true));
        let doc = parse(r#"["\/\t\r", "\u00e9\u20AC\u0001"]"#).unwrap();
        assert_eq!(doc.as_array().unwrap()[0].as_str().unwrap(), "/\t\r");
        assert_eq!(doc.as_array().unwrap()[1].as_str().unwrap(), "é€\u{1}");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{\"a\": }",
            "{} trailing",
            "{\"a\": 1e}",
            "{\"a\": 1.}",
            "{\"a\": 01}",
            "-",
            "1e+",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn u64_counters_roundtrip_exactly_through_f64() {
        // 2^53 is the last point where every integer is an exact f64; the
        // raw text keeps larger counters exact through `as_u64` as well.
        let doc = parse("{\"cycles\": 9007199254740992, \"max\": 18446744073709551615}").unwrap();
        let cycles = doc.get("cycles").unwrap();
        assert_eq!(cycles.as_f64().unwrap(), 9007199254740992.0);
        assert_eq!(cycles.as_u64().unwrap(), 1 << 53);
        assert_eq!(doc.get("max").unwrap().as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn f64_text_roundtrips_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, 4.9e-324, -0.0] {
            let text = fmt_f64(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn writer_escapes_specials() {
        let mut out = String::new();
        write_string("a\"b\\c\nd\t\u{1f}é", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0009\\u001fé\"");
        let mut w = ObjWriter::new();
        w.raw("xs", "[1,2]").str("k", "v");
        assert_eq!(w.finish(), r#"{"xs":[1,2],"k":"v"}"#);
        assert_eq!(ObjWriter::new().finish(), "{}");
    }

    /// A generated document with the exact values it was written from.
    enum Gen {
        U64(u64),
        F64(f64),
        Str(String),
        Obj(Vec<(String, Gen)>),
        Arr(Vec<Gen>),
    }

    fn gen(rng: &mut SplitMix64, alphabet: &[char], depth: u32) -> Gen {
        let string = |rng: &mut SplitMix64| -> String {
            (0..rng.next_below(12))
                .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize])
                .collect()
        };
        match rng.next_below(if depth == 0 { 3 } else { 5 }) {
            0 => Gen::U64(rng.next_u64() >> rng.next_below(64)),
            1 => Gen::F64(loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            }),
            2 => Gen::Str(string(rng)),
            3 => Gen::Obj(
                (0..rng.next_below(5))
                    .map(|_| (string(rng), gen(rng, alphabet, depth - 1)))
                    .collect(),
            ),
            _ => Gen::Arr(
                (0..rng.next_below(5))
                    .map(|_| gen(rng, alphabet, depth - 1))
                    .collect(),
            ),
        }
    }

    fn write(g: &Gen) -> String {
        match g {
            Gen::U64(v) => v.to_string(),
            Gen::F64(v) => fmt_f64(*v),
            Gen::Str(s) => {
                let mut out = String::new();
                write_string(s, &mut out);
                out
            }
            Gen::Obj(fields) => {
                let mut w = ObjWriter::new();
                for (k, v) in fields {
                    w.raw(k, &write(v));
                }
                w.finish()
            }
            Gen::Arr(items) => {
                let items: Vec<String> = items.iter().map(write).collect();
                format!("[{}]", items.join(","))
            }
        }
    }

    fn check(g: &Gen, v: &Value) {
        match g {
            Gen::U64(n) => assert_eq!(v.as_u64().unwrap(), *n),
            Gen::F64(x) => assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits(), "{v:?}"),
            Gen::Str(s) => assert_eq!(v.as_str().unwrap(), s),
            Gen::Obj(fields) => {
                let parsed = v.as_object().unwrap();
                assert_eq!(parsed.len(), fields.len());
                for ((k, g), (pk, pv)) in fields.iter().zip(parsed) {
                    assert_eq!(k, pk);
                    check(g, pv);
                }
            }
            Gen::Arr(items) => {
                let parsed = v.as_array().unwrap();
                assert_eq!(parsed.len(), items.len());
                items.iter().zip(parsed).for_each(|(g, pv)| check(g, pv));
            }
        }
    }

    #[test]
    fn random_documents_roundtrip_exactly() {
        // Every control character, both characters the escaper must quote,
        // ASCII and 2/3/4-byte UTF-8.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend("\"\\/ aZ0éß€中😀\u{10FFFF}".chars());
        let mut rng = SplitMix64::new(0x0005_EED1_50DE);
        for _ in 0..512 {
            // A fixed head puts the edge cases in every document: the whole
            // alphabet, u64::MAX, -0.0 and subnormals.
            let edges = [-0.0, 5e-324, f64::MIN_POSITIVE / 3.0, f64::MAX].map(Gen::F64);
            let head = Gen::Arr([Gen::U64(u64::MAX)].into_iter().chain(edges).collect());
            let doc = Gen::Obj(vec![
                (alphabet.iter().collect(), head),
                ("doc".to_string(), gen(&mut rng, &alphabet, 4)),
            ]);
            let text = write(&doc);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            let mut rendered = String::new();
            parsed.render(&mut rendered);
            assert_eq!(
                rendered, text,
                "write -> parse -> render must be byte-identical"
            );
            check(&doc, &parsed);
        }
    }
}
