//! Minimal panic-free JSON parser.
//!
//! Just enough JSON for the workspace's own needs: the serving daemon's
//! request lines, `xtask sim-pins`' `BENCH_sim.json`, and the tests that
//! parse metrics snapshots and trace JSONL back to validate their shape and
//! round-trip every emitter through it. Strictly `Result`-based — no
//! panics, no recursion past [`MAX_DEPTH`] — and dependency-free like the
//! rest of the workspace.
//!
//! Numbers are held as `f64`; every counter this repo emits is far below
//! 2^53, so integer comparisons through `as_num` are exact.

/// Maximum nesting depth accepted before erroring (guards the stack).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match; objects preserve input order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn idx(&self, k: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(k),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parse failure: byte offset plus a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.i, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect_byte(&mut self, want: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(want) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn expect_keyword(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.expect_keyword("true", Json::Bool(true)),
            Some(b'f') => self.expect_keyword("false", Json::Bool(false)),
            Some(b'n') => self.expect_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        let start = self.i;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) if c < 0x80 => out.push(char::from(c)),
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid — copy it through by char.
                    self.i -= 1;
                    let rest = &self.b[self.i..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError { at: start, msg: "invalid UTF-8" })?;
                    match s.chars().next() {
                        Some(ch) => {
                            out.push(ch);
                            self.i += ch.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            code = code * 0x10 + digit;
        }
        // BMP only — surrogate halves are rejected rather than paired,
        // which is all the workspace's ASCII emitters ever need.
        char::from_u32(code).ok_or_else(|| self.err("\\u escape is not a scalar value"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        let token = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| JsonError { at: start, msg: "invalid number" })?;
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { at: start, msg: "invalid number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#" {"a": [1, 2, {"b": null}], "c": "x", "d": true} "#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").unwrap();
        assert_eq!(arr.idx(1).and_then(Json::as_num), Some(2.0));
        assert!(arr.idx(2).unwrap().get("b").unwrap().is_null());
        assert_eq!(arr.as_arr().unwrap().len(), 3);
        assert_eq!(v.as_obj().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        // Raw multi-byte UTF-8 passes through.
        let v = parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
            "{\"a\":1} extra", "[1 2]", "\"\\q\"", "\"\\u12\"", "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.msg, "nesting too deep");
        // Display is wired up.
        assert!(e.to_string().contains("nesting too deep"));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = parse("{\"a\":1}").unwrap();
        assert!(v.as_num().is_none());
        assert!(v.idx(0).is_none());
        assert!(v.get("missing").is_none());
        assert!(parse("[]").unwrap().get("a").is_none());
    }
}
