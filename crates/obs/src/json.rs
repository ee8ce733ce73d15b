//! The workspace's one JSON codec: a value, a depth-capped parser and a
//! writer.
//!
//! The format lives here, hand-rolled and dependency-free. The
//! daemon's wire protocol and journal, the JSON-lines trace sink, the
//! bench reports and their `--check` readers all go through it.
//! Objects preserve insertion order, which makes every encoding
//! deterministic: the recovery tests compare responses *byte for byte*,
//! and the journal replays through the same writer that produced it.
//! Parsing is linear in the input, so one oversized request line costs
//! the daemon its length, not its square.

use std::fmt::{self, Write};

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers ride as `f64` (the protocol never needs more than 53
    /// bits: state counts, sample counts, milliseconds).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs; duplicate keys are rejected at
    /// parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor used all over the protocol layer.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Field lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer view of a number (rejects fractions and
    /// negatives — every count in the protocol is a `usize`).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_usize().map(|n| n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// String field of an object — the most common protocol accessor.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a number: integral values up to 2⁵³ without a fraction, and
/// non-finite ones as `null` (JSON has no NaN or infinity, and the
/// parser would reject them).
pub fn write_num<W: Write + ?Sized>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` as a quoted JSON string.
pub fn write_escaped<W: Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parses one JSON document, rejecting trailing garbage. All errors are
/// typed strings with a byte offset — the journal reader depends on a
/// clean `Err` (never a panic) for torn trailing lines.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        b: src.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

/// Nesting ceiling: the protocol is ~2 levels deep; 64 keeps a hostile
/// `[[[[…` line from blowing the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                *c as char, self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number at offset {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs: the writer never emits
                            // them, but foreign clients may.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                let lo = self
                                    .b
                                    .get(self.i + 5..self.i + 11)
                                    .filter(|s| s.starts_with(b"\\u"))
                                    .ok_or("lone high surrogate")?;
                                let lo = u32::from_str_radix(
                                    std::str::from_utf8(&lo[2..]).map_err(|_| "bad surrogate")?,
                                    16,
                                )
                                .map_err(|_| "bad surrogate")?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                self.i += 6;
                                0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                code
                            };
                            out.push(char::from_u32(c).ok_or("bad \\u codepoint")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // go. Multi-byte UTF-8 sequences hold no byte below
                    // 0x80, so the run ends on a char boundary.
                    let start = self.i;
                    while let Some(&c) = self.b.get(self.i) {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        if c < 0x20 {
                            return Err(format!("raw control byte at offset {}", self.i));
                        }
                        self.i += 1;
                    }
                    out.push_str(&self.src[start..self.i]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            if fields.iter().any(|(existing, _)| *existing == k) {
                return Err(format!("duplicate key {k:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((k, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shaped_documents() {
        let doc = Json::obj(vec![
            ("op", Json::str("check")),
            ("id", Json::str("j-1")),
            ("n", Json::num(42.0)),
            ("p", Json::num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::num(1.0), Json::str("x\n\"y\""), Json::Null]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
        // Deterministic: encoding is stable across round-trips.
        assert_eq!(parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn rejects_malformed_input_with_typed_errors() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}{",
            "nul",
            "1e999",
            "{\"a\":1,\"a\":2}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Torn journal line: a prefix of a valid record must error.
        let full = "{\"rec\":\"done\",\"id\":\"a\",\"resp\":{\"status\":\"ok\"}}";
        for cut in 1..full.len() {
            let _ = parse(&full[..cut]); // must not panic
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error() {
        let mut s = String::new();
        for _ in 0..10_000 {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn a_four_mib_string_parses_in_linear_time() {
        let big = "é\\n".repeat(2 << 20);
        let line = format!("{{\"op\":\"check\",\"left\":\"x{big}\"}}");
        assert!(line.len() > 4 << 20);
        let t = std::time::Instant::now();
        let doc = parse(&line).unwrap();
        assert!(
            t.elapsed() < std::time::Duration::from_secs(1),
            "took {:?}",
            t.elapsed()
        );
        assert_eq!(doc.str_field("left").map(str::len), Some(1 + 3 * (2 << 20)));
    }

    #[test]
    fn numbers_keep_integer_precision() {
        assert_eq!(parse("9007199254740992").unwrap().as_usize(), None);
        assert_eq!(parse("12345").unwrap().as_usize(), Some(12345));
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::num(1e6).to_string(), "1000000");
        // JSON has no NaN: the writer never emits what the parser rejects.
        let odd = Json::Arr(vec![Json::num(f64::NAN), Json::num(f64::INFINITY)]);
        assert_eq!(odd.to_string(), "[null,null]");
    }
}
