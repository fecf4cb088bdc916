//! The workspace's one JSON codec: a value type, a parser and a string
//! escaper.
//!
//! Two files in the workspace are JSON: the `adt check --checkpoint`
//! state and the `adt-bench` report (`BENCH_rewrite.json`). Each writer
//! keeps its own field layout, so both files stay byte-stable, but
//! escapes every string with [`quote`]; both readers go through
//! [`parse`].
//!
//! The parser reads the JSON those writers produce: objects, arrays,
//! strings, booleans and numbers, with no `null`, no exponents and no
//! UTF-16 surrogate escapes (the writers emit non-ASCII text as is).
//! Object keys keep their document order, numbers keep their source text,
//! and nesting is capped at [`MAX_DEPTH`]. Any other input, however deep
//! or truncated, is an `Err`, never a panic or a stack overflow: a corrupt
//! file can make a caller fall back, never abort the process.
//!
//! ```
//! use adt_core::json::{self, Json};
//!
//! let text = format!("{{\"name\": {}, \"runs\": [3, 4]}}", json::quote("a \"b\"\n"));
//! let value = json::parse(&text).expect("well-formed");
//! assert_eq!(value.field("name", Json::as_str), Ok("a \"b\"\n"));
//! assert_eq!(value.field("runs", Json::as_arr).map(<[Json]>::len), Ok(2));
//! assert!(json::parse("[1, 2").is_err());
//! ```

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's own files nest at most six deep; the cap bounds the
/// recursive-descent parser's stack on hostile input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// A string, unescaped.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text: integers past 2^53 and fixed-point
    /// figures such as `19.70` survive unchanged.
    Num(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is an integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member `key` of this object, read with `read` (one of the
    /// `as_*` accessors).
    ///
    /// # Errors
    ///
    /// Returns a message when this is not an object, has no member `key`,
    /// or `read` rejects the member.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let Json::Obj(members) = self else {
            return Err(format!("expected an object with field `{key}`"));
        };
        let (_, value) = members
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        read(value).ok_or_else(|| format!("field `{key}` has the wrong type"))
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and every control
/// character escaped (`\n`, `\r` and `\t` by name, the rest as `\u00xx`).
/// Everything else, non-ASCII text included, is written as is.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document: a single value, optionally surrounded by
/// whitespace.
///
/// # Errors
///
/// Returns a message naming the byte offset for malformed input, trailing
/// input, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

/// Recursive descent over `text`. `pos` only ever stops on a character
/// boundary: it advances over ASCII bytes one at a time and over string
/// contents up to the next ASCII delimiter.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            let c = char::from(byte);
            Err(format!("expected `{c}` at byte {}", self.pos))
        }
    }

    /// One value, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected input at byte {}", self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected input at byte {}", self.pos))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.eat(b',') {
                self.expect(b']')?;
                return Ok(Json::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value(depth)?));
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(Json::Obj(members));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let byte = self.peek().ok_or("unterminated string")?;
        self.pos += 1;
        let c = match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => char::from_u32(self.hex4()?)
                .ok_or_else(|| format!("`\\u` escape at byte {at} is a UTF-16 surrogate"))?,
            _ => return Err(format!("bad escape at byte {at}")),
        };
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated `\\u` escape")?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad `\\u` escape at byte {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_len = self.digits();
        let mut ok = int_len == 1 || (int_len > 1 && self.text.as_bytes()[int_start] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if ok {
            Ok(Json::Num(self.text[start..self.pos].to_owned()))
        } else {
            Err(format!("malformed number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    #[test]
    fn every_escape_the_writers_emit_round_trips() {
        for (raw, quoted) in [
            ("say \"hi\" \\ back", r#""say \"hi\" \\ back""#),
            ("nl\n cr\r tab\t", r#""nl\n cr\r tab\t""#),
            (
                "bell\u{7} nul\u{0} us\u{1f}",
                r#""bell\u0007 nul\u0000 us\u001f""#,
            ),
            ("µs — Größe 量 🦀", "\"µs — Größe 量 🦀\""),
        ] {
            assert_eq!(quote(raw), quoted);
            assert_eq!(parse(quoted), Ok(text(raw)), "{quoted}");
        }
        assert_eq!(parse(r#""\u00b5s""#), Ok(text("µs")));
    }

    #[test]
    fn numbers_keep_their_source_text() {
        for (src, int) in [
            ("0", Some(0)),
            ("466678070", Some(466_678_070)),
            ("19.70", None),
        ] {
            let value = parse(src).unwrap();
            assert_eq!(value, Json::Num(src.to_owned()));
            assert_eq!(value.as_u64(), int);
        }
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("-1.5"), Ok(Json::Num("-1.5".to_owned())));
    }

    #[test]
    fn containers_keep_member_order() {
        assert_eq!(parse("[]"), Ok(Json::Arr(Vec::new())));
        assert_eq!(parse(" { } "), Ok(Json::Obj(Vec::new())));
        let value = parse(r#"{"z": [true, []], "a": {}, "z": 1}"#).unwrap();
        let Json::Obj(members) = &value else {
            panic!("not an object: {value:?}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "z"]);
        let first_z = value.field("z", Json::as_arr).unwrap();
        assert_eq!(first_z, [Json::Bool(true), Json::Arr(Vec::new())]);
        assert_eq!(value.field("a", Some), Ok(&Json::Obj(Vec::new())));
        assert_eq!(
            value.field("z", Json::as_str),
            Err("field `z` has the wrong type".into())
        );
        assert_eq!(value.field("q", Some), Err("missing field `q`".into()));
        assert!(Json::Bool(true).field("z", Some).is_err());
    }

    #[test]
    fn trailing_input_is_rejected() {
        for bad in ["{} {}", "[1]x", "\"a\" \"b\"", "true false"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse(" true \n"), Ok(Json::Bool(true)));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            " ",
            "{",
            "}",
            "[1,",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\": }",
            "{a: 1}",
            "{\"a\": 1,}",
            "\"open",
            "\"bad \\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud83e\"",
            "\"raw\ncontrol\"",
            "tru",
            "null",
            "01",
            "-",
            "1.",
            ".5",
            "1e5",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"k\":".repeat(MAX_DEPTH + 1)).is_err());
        // A corrupt checkpoint of 100,000 `[`: an error, not an abort.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
