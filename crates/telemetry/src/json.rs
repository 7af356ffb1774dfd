//! A dependency-free JSON value with writer and parser.
//!
//! The container build is offline (no serde), and the bench bins used
//! to hand-print JSON with `println!` — which is how unescaped checker
//! notes and drifting ad-hoc schemas happen. This module is the one
//! JSON implementation every snapshot and result file goes through:
//! writing always escapes, parsing is strict enough to validate what
//! was written.
//!
//! Numbers are `f64`; the counters that flow through reports are far
//! below 2^53, so round-tripping is exact in practice. Object keys keep
//! insertion order (reports diff cleanly run over run).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Pretty-printed form (2-space indent, trailing newline) — the
    /// format committed bench artifacts use.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0));
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members.len(), |out, i, ind| {
                write_str(out, &members[i].0);
                out.push_str(": ");
                members[i].1.write(out, ind);
            }),
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
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
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; reports must not contain them.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    match indent {
        None => {
            for i in 0..n {
                if i > 0 {
                    out.push_str(", ");
                }
                item(out, i, None);
            }
        }
        Some(level) => {
            let pad = "  ".repeat(level + 1);
            for i in 0..n {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                item(out, i, Some(level + 1));
            }
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    }
    out.push(close);
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts: the
/// parser recurses once per level, so an unbounded document (`[[[[…`)
/// would overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for report
                            // content; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The parser only ever
                    // advances past ASCII bytes or whole scalars, so
                    // `pos` is always on a character boundary.
                    let text = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = text.chars().next().ok_or("unterminated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::obj(vec![
            ("name", Json::from("soak \"quoted\"\nline")),
            ("n", Json::from(42u64)),
            ("pi", Json::from(3.5)),
            ("neg", Json::from(-7i64)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![
                    Json::from(1u64),
                    Json::obj(vec![("k", Json::from("v"))]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let j = Json::from("tab\there\u{1}");
        let s = j.to_string();
        assert!(s.contains("\\t") && s.contains("\\u0001"), "{s}");
        assert_eq!(Json::parse(&s).unwrap(), j);
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = "[".repeat(200_000);
        for bad in [
            deep.as_str(),
            "",
            "{",
            "[1, ]extra",
            "{\"a\": }",
            "[1 2]",
            "nul",
            "\"unterminated",
            "{\"a\": 1} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// Documents of the shapes reports carry: nested objects and arrays,
    /// escapes, non-ASCII text, integers, fractions and exponents.
    const DOCS: [&str; 3] = [
        r#"{"schema": "emu-bench/1", "rows": [{"name": "nat", "mpps": 1.25e1, "ok": true}]}"#,
        r#"[null, false, -0.5, 12345678901, "tab\there \u00e9 \"q\"", {"": []}]"#,
        "{\n  \"notes\": [\"µs ÷ 2\", \"\\\\\"],\n  \"n\": -7E-3,\n  \"deep\": [[[{}]]]\n}\n",
    ];

    /// One mutation of a valid document, chosen and placed by `pick`:
    /// flipped bits, a truncation, or a piece of another document
    /// spliced into it, over part of it, or a piece cut out of it.
    fn mutate(valid: &[u8], pick: &[u64]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let at = |k: usize, n: usize| (pick[k % pick.len()] as usize) % n.max(1);
        match pick[0] % 3 {
            0 => {
                for k in 1..=1 + at(1, 8) {
                    let bit = at(k + 1, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at(1, bytes.len())),
            _ => {
                let other = DOCS[at(1, DOCS.len())].as_bytes();
                let src = at(2, other.len());
                let piece = other[src..src + at(3, other.len() - src + 1)].to_vec();
                let dst = at(4, bytes.len() + 1);
                match pick[5] % 3 {
                    0 => drop(bytes.splice(dst..dst, piece)),
                    1 => {
                        let end = (dst + piece.len()).min(bytes.len());
                        drop(bytes.splice(dst..end, piece));
                    }
                    _ => drop(bytes.drain(dst..dst + at(6, bytes.len() - dst + 1))),
                }
            }
        }
        bytes
    }

    /// Whether every number in `j` is finite, so that writing it and
    /// parsing it back is defined (JSON has no NaN or infinity).
    fn finite(j: &Json) -> bool {
        match j {
            Json::Num(n) => n.is_finite(),
            Json::Arr(items) => items.iter().all(finite),
            Json::Obj(members) => members.iter().all(|(_, v)| finite(v)),
            _ => true,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The parser never panics and never runs long on a damaged
        /// document: it returns `Ok` or `Err`, and a value it accepts
        /// writes, compact and pretty, as text that parses back to it.
        #[test]
        fn mutated_documents_parse_or_fail_cleanly(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9)
        ) {
            let valid = DOCS[(pick[7] % DOCS.len() as u64) as usize];
            let bytes = mutate(valid.as_bytes(), &pick);
            let text = String::from_utf8_lossy(&bytes);
            let t = std::time::Instant::now();
            let parsed = Json::parse(&text);
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
            if let Some(j) = parsed.ok().filter(finite) {
                proptest::prop_assert_eq!(Json::parse(&j.to_string()), Ok(j.clone()));
                proptest::prop_assert_eq!(Json::parse(&j.pretty()), Ok(j));
            }
        }
    }

    #[test]
    fn every_seed_document_parses() {
        for doc in DOCS {
            let j = Json::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(Json::parse(&j.to_string()), Ok(j));
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(1_000_000u64).to_string(), "1000000");
        assert_eq!(Json::from(0.25).to_string(), "0.25");
    }

    #[test]
    fn accessors_select_the_right_variants() {
        let j = Json::parse("{\"a\": [1, \"x\"], \"b\": true}").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(j.get("b"), Some(&Json::Bool(true)));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::from(1.5).as_u64(), None, "non-integers reject");
        assert_eq!(Json::from(3u64).as_u64(), Some(3));
    }
}
