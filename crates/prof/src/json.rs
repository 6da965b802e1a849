//! A minimal recursive JSON reader.
//!
//! The workspace has no serde; the flat-object parser in
//! `plf_core::trace` deliberately rejects nesting and floats, but
//! `HOST_ROOFLINE.json`, `BENCHMARK.json` and the result object a
//! `plf_e2e` run prints are nested documents with fractional numbers,
//! so calibration and `cargo xtask pair` need a real — if small —
//! parser. It accepts exactly the JSON this workspace writes: objects,
//! arrays, strings with the common escapes, `f64` numbers, booleans
//! and `null`, nested at most [`MAX_DEPTH`] deep. Object key order is
//! preserved. [`escape`] is the matching writer half for strings.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, and the documents it is handed come
/// from the working directory and from child processes: without a cap
/// a file of 200 000 `[` overflows the stack, which aborts instead of
/// returning an error. Every document this workspace writes nests
/// fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Escapes `s` for a JSON string literal: `"` and `\`, and every
/// control character (as `\n`, `\t`, `\r` or `\u00XX`), so
/// [`Json::parse`] — and any other JSON reader — reads `s` back.
///
/// One of the workspace's two escapers, with `plf_core::trace::escape`.
/// They stay two because neither crate may depend on the other:
/// `plf_e2e/Cargo.lock` is committed with the benchmark and pins the
/// dependency edges of `plf-core` and `plf-prof`, so a new edge between
/// them would rewrite it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; everything this workspace writes fits an `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete document; trailing whitespace is allowed,
    /// trailing garbage is not.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    ///
    /// Numbers at or above 2^53 are rejected even when integral: they
    /// pass through an `f64` during parsing, which cannot represent
    /// every integer past that point, so `Some` here could silently
    /// hand back a rounded neighbor of what the document said (2^53
    /// itself is excluded because `9007199254740993` parses to it).
    pub fn as_u64(&self) -> Option<u64> {
        const LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < LIMIT => Some(*n as u64),
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object, refusing the one that would be
    /// level `MAX_DEPTH + 1`.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hi = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            match hi {
                                // High surrogate: JSON encodes
                                // non-BMP characters as a \uXXXX
                                // pair; the low half must follow
                                // immediately.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1..self.pos + 3)
                                        != Some(b"\\u".as_slice())
                                    {
                                        return Err(format!(
                                            "lone high surrogate \\u{hi:04X} at byte {}",
                                            self.pos
                                        ));
                                    }
                                    let lo = self.hex4(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate \\u{hi:04X} followed by \\u{lo:04X}, \
                                             not a low surrogate"
                                        ));
                                    }
                                    self.pos += 6;
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(code).ok_or("bad surrogate pair")?);
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                        "lone low surrogate \\u{hi:04X} at byte {}",
                                        self.pos
                                    ))
                                }
                                _ => out.push(char::from_u32(hi).ok_or("bad \\u escape")?),
                            }
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// Four hex digits starting at byte `at`, as a UTF-16 code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document_with_floats() {
        let doc = r#"{
          "schema": "plf-microbench/2",
          "host_simd": true,
          "results": [
            {"kernel": "newview_ii", "patterns": 1000,
             "ns_per_site": {"scalar": 5.600, "simd": 1.25e0}}
          ],
          "nothing": null
        }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("plf-microbench/2"));
        assert_eq!(v.get("host_simd"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
        let row = &v.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("patterns").unwrap().as_u64(), Some(1000));
        let ns = row.get("ns_per_site").unwrap();
        assert_eq!(ns.get("scalar").unwrap().as_f64(), Some(5.6));
        assert_eq!(ns.get("simd").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        // Each of these overflowed the stack (an abort) before the cap.
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(
                err,
                format!("nesting deeper than 128 at byte {}", 128 * open.len())
            );
        }
        // Exactly MAX_DEPTH levels still parse, arrays and objects alike.
        let arrays = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&arrays).is_ok());
        assert!(Json::parse(&format!("[{arrays}]")).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(128), "}".repeat(128));
        let mut v = &Json::parse(&objects).unwrap();
        for _ in 0..128 {
            v = v.get("a").unwrap();
        }
        assert_eq!(v.as_u64(), Some(1));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-2").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn as_u64_rejects_integers_past_f64_exactness() {
        // 2^53 - 1 is the last integer every neighbor of which is
        // exactly representable; from 2^53 up, the f64 parse may have
        // rounded (9007199254740993 parses to exactly 2^53), so
        // returning a u64 would invent digits.
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(9007199254740991)
        );
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        // U+1F600 GRINNING FACE as its JSON surrogate pair.
        let v = Json::parse(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Pair embedded mid-string, mixed with other escapes
        // (U+1D11E MUSICAL SYMBOL G CLEF).
        let v = Json::parse(r#""ok\t\uD834\uDD1E!""#).unwrap();
        assert_eq!(v.as_str(), Some("ok\t\u{1D11E}!"));
        // Raw multi-byte UTF-8 still passes through verbatim, and BMP
        // escapes still decode directly.
        assert_eq!(
            Json::parse("\"\u{E9}\u{1F600}\"").unwrap().as_str(),
            Some("\u{E9}\u{1F600}")
        );
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap().as_str(), Some("\u{E9}"));

        // Lone halves and malformed pairs are errors, not mojibake.
        for bad in [
            r#""\uD83D""#,       // lone high surrogate at end
            r#""\uD83Dx""#,      // high surrogate followed by text
            r#""\uD83D\n""#,     // high surrogate, non-\u escape
            r#""\uDE00""#,       // lone low surrogate
            r#""\uD83D\uD83D""#, // high followed by high
            r#""\uD83DA""#,      // high followed by BMP escape
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }
}
