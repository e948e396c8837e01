//! The workspace's one JSON codec: a damage-rejecting reader and a
//! single-line object writer, for every wire format the shell writes
//! and reads back (pipeline counters, batch rows and reports, journal
//! lines, serve requests and responses).
//!
//! The reader's inputs cross crash and process boundaries (a
//! half-written journal line, a child killed mid-print, a client's
//! request), so it rejects damage cleanly rather than trusting its
//! input: it accepts exactly RFC 8259 JSON. Numbers keep their raw
//! text so integer counters round-trip losslessly and re-rendered
//! floats stay byte-identical.
//!
//! Vendored-by-necessity: the build environment has no registry
//! access, so `serde_json` is not an option.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their source text (see module
/// docs); object keys collapse to last-wins, which is fine for wire
/// formats we also produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON string literal (without
/// the surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Writes one JSON object on a single line, keys in call order. Keys
/// are the renderers' own identifiers and are written as given.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// Appends `"key":value`, the value written by its `Display`.
    fn put(mut self, key: &str, value: impl std::fmt::Display) -> Obj {
        let sep = if self.0.is_empty() { '{' } else { ',' };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
        self
    }

    /// Embeds `json`, which must already be one rendered JSON value.
    pub fn raw(self, key: &str, json: &str) -> Obj {
        self.put(key, json)
    }

    /// A string value, escaped.
    pub fn str(self, key: &str, s: &str) -> Obj {
        self.put(key, string(s))
    }

    /// An integer value.
    pub fn u64(self, key: &str, n: u64) -> Obj {
        self.put(key, n)
    }

    /// A boolean value.
    pub fn bool(self, key: &str, b: bool) -> Obj {
        self.put(key, b)
    }

    /// A fractional value with six decimals; JSON has no NaN or
    /// infinity, so a non-finite value renders as `0`.
    pub fn f64(self, key: &str, x: f64) -> Obj {
        if x.is_finite() {
            self.put(key, format_args!("{x:.6}"))
        } else {
            self.put(key, 0)
        }
    }

    /// The rendered object.
    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".into()
        } else {
            self.0 + "}"
        }
    }
}

/// Renders already-rendered JSON values as one array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// Parses one complete JSON value; trailing non-whitespace is an
/// error (a truncated or concatenated line must not half-parse).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Nesting guard; our wire formats nest 3 deep, hostile input can try
/// harder.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` — exactly the
    /// RFC 8259 grammar, so a number echoed back verbatim (a serve
    /// request `id`) is always valid JSON.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = self.eat(b'0') || self.digits() > 0;
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number bytes");
        if !(int_ok && frac_ok && exp_ok) {
            return Err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(Value::Num(raw.to_string()))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or("truncated or non-hex \\u escape")?;
        self.pos += 4;
        let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// A `\u` escape (the `\u` already consumed). A high surrogate
    /// must be followed by an escaped low one; the pair decodes to one
    /// code point outside the Basic Multilingual Plane. A lone
    /// surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(format!("unpaired surrogate \\u{hi:04x}"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("unpaired surrogate \\u{hi:04x}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or(format!("unpaired surrogate \\u{cp:04x}"))
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(c) if c < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    // Copy a run of plain UTF-8 bytes verbatim.
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// The comma-separated items of an array or object up to `close`
    /// (the opening bracket already consumed), each read by `item`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!("expected `,` or `{}` at byte {}", close as char, self.pos));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            map.insert(key, p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Obj(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_we_emit() {
        let v = parse(
            "{\"file\":\"a\\\"b.nesl\",\"verdict\":\"safe\",\"exit\":0,\
             \"time_s\":1.500000,\"pipeline\":{\"arg_nodes\":12},\"list\":[1,-2,3.5],\
             \"flag\":true,\"nothing\":null}",
        )
        .unwrap();
        assert_eq!(v.get("file").and_then(Value::as_str), Some("a\"b.nesl"));
        assert_eq!(v.get("exit").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("time_s").and_then(Value::as_f64), Some(1.5));
        assert_eq!(
            v.get("pipeline").and_then(|p| p.get("arg_nodes")).and_then(Value::as_u64),
            Some(12)
        );
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&Value::Null));
        let Value::Arr(items) = v.get("list").unwrap() else { panic!() };
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_f64(), Some(-2.0));
        assert_eq!(items[1].as_u64(), None, "negative numbers are not u64s");
    }

    #[test]
    fn large_counters_round_trip_losslessly() {
        // f64 would corrupt this; raw-text numbers must not.
        let v = parse("{\"n\":18446744073709551615}").unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(u64::MAX));
    }

    #[test]
    fn rejects_damage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"a\":--1}",
            "nul",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u+123\"}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted damaged input {bad:?}");
        }
        // Deep nesting is rejected, not stack-overflowed.
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for good in ["0", "-0", "7", "-12", "1.5", "0.25", "1e5", "1E+5", "2.5e-3", "-0.0e0"] {
            let v = parse(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
            assert_eq!(v, Value::Num(good.to_string()), "raw text must be kept");
        }
        // Everything Rust's `f64::from_str` takes that JSON does not.
        for bad in
            ["01", "-01", "1.", "-.5", ".5", "+1", "1e", "1e+", "1.e3", "-", "inf", "NaN", "0x1"]
        {
            assert!(parse(bad).is_err(), "accepted non-JSON number {bad:?}");
            assert!(parse(&format!("{{\"id\":{bad}}}")).is_err(), "accepted {bad:?} as a value");
        }
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // What Python's `json.dumps("😀")` sends.
        let v = parse("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v.as_str(), Some("😀 ok"));
        assert_eq!(parse("\"\\uD834\\uDD1E\"").unwrap().as_str(), Some("𝄞"));
        for bad in
            ["\"\\ud83d\"", "\"\\ud83d x\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"", "\"\\ud83d\\"]
        {
            assert!(parse(bad).is_err(), "accepted lone surrogate in {bad:?}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse("\"tab\\there\\nnl \\u0041 slash\\/ \\\\ \"").unwrap();
        assert_eq!(v.as_str(), Some("tab\there\nnl A slash/ \\ "));
        let text = "q\"b\\s\n\r\t\u{1}é😀";
        let written = Obj::default().str("s", text).finish();
        assert_eq!(written, "{\"s\":\"q\\\"b\\\\s\\n\\r\\t\\u0001é😀\"}");
        assert_eq!(parse(&written).unwrap().get("s").and_then(Value::as_str), Some(text));
    }

    #[test]
    fn writer_keeps_key_order_and_renders_each_kind() {
        let inner = Obj::default().u64("n", 3).finish();
        let j = Obj::default()
            .bool("ok", true)
            .u64("z", u64::MAX)
            .f64("a", 0.5)
            .f64("nan", f64::NAN)
            .raw("inner", &inner)
            .raw("list", &array(["1".to_string(), "\"x\"".to_string()]))
            .raw("none", &array(Vec::new()))
            .finish();
        assert_eq!(
            j,
            "{\"ok\":true,\"z\":18446744073709551615,\"a\":0.500000,\"nan\":0,\
             \"inner\":{\"n\":3},\"list\":[1,\"x\"],\"none\":[]}"
        );
        assert_eq!(Obj::default().finish(), "{}");
        assert!(parse(&j).is_ok());
    }
}
