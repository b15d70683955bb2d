//! A small JSON value type with a writer and a strict recursive-descent
//! parser. This is the only JSON machinery in the workspace: exporters use
//! the writer, and the trace round-trip tests use the parser.
//!
//! Integers are kept exact: `Json::UInt` survives writing and re-parsing
//! bit-for-bit (needed so metric counters reconcile with `SimReport` totals
//! by exact integer comparison), while `Json::Num` covers everything else.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Exact non-negative integer (counters, byte totals, timestamps).
    UInt(u64),
    /// Any other number, rendered with enough precision to round-trip.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects: `Json::obj([("k", v), ...])`.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Field lookup on objects; `None` elsewhere.
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

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Iterate object fields as a map view (for tests that compare by key).
    pub fn to_map(&self) -> Option<BTreeMap<&str, &Json>> {
        match self {
            Json::Obj(fields) => Some(fields.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }

    // -- writer -------------------------------------------------------------

    /// Appends the compact serialization to `out`. The one value writer of
    /// the workspace: `Display`, the figure rows and the trace exporters
    /// all end here.
    pub(crate) fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write_uint(out, *u),
            // Shortest representation that round-trips through f64; an
            // integral value prints without a decimal point, which is
            // still valid JSON.
            Json::Num(f) if f.is_finite() => write!(out, "{f}"),
            // JSON has no Inf/NaN; export as null like serde_json.
            Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }

    // -- parser -------------------------------------------------------------

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact JSON serialization (`to_string()` comes with it), written
    /// straight through the formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// `0000 0001 … 9999`: four decimal digits per division, checked as
/// UTF-8 once, at compile time.
static QUADS: &str = {
    static TABLE: [u8; 40_000] = {
        let (mut t, mut i) = ([0; 40_000], 0);
        while i < 40_000 {
            t[i] = b'0' + (i / 4 / [1_000, 100, 10, 1][i % 4] % 10) as u8;
            i += 1;
        }
        t
    };
    match std::str::from_utf8(&TABLE) {
        Ok(quads) => quads,
        Err(_) => panic!("decimal digits are ASCII"),
    }
};

/// `v` in decimal, as `write!(out, "{v}")` writes it, without the
/// formatting machinery: in groups of up to four digits sliced from
/// [`QUADS`], so the text is a `str` from the start.
pub(crate) fn write_uint<W: fmt::Write>(out: &mut W, mut v: u64) -> fmt::Result {
    // The groups after the leading one, least significant first.
    let (mut low, mut n) = ([0u16; 4], 0);
    while v >= 10_000 {
        low[n] = (v % 10_000) as u16;
        v /= 10_000;
        n += 1;
    }
    let (lead, digits) = (4 * v as usize, v.checked_ilog10().unwrap_or(0) as usize + 1);
    out.write_str(&QUADS[lead + 4 - digits..lead + 4])?;
    for &group in low[..n].iter().rev() {
        out.write_str(&QUADS[4 * group as usize..][..4])?;
    }
    Ok(())
}

/// Appends `v` in decimal to `buf`: the exporters write several integers
/// per event.
pub(crate) fn push_uint(buf: &mut String, v: u64) {
    write_uint(buf, v).expect("writing to a String cannot fail");
}

/// Writes `s` as a JSON string literal. Stretches that need no escape go
/// out as one slice.
pub(crate) fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[clean..i])?;
        clean = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

/// Parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let text = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = text.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_uint_matches_display() {
        let mut v = 1u64;
        let mut cases = vec![0, 9, 10, 99, 100, u64::MAX, u64::MAX - 1];
        while let Some(next) = v.checked_mul(7) {
            cases.extend([v - 1, v, v + 1]);
            v = next;
        }
        for v in cases {
            let mut out = String::new();
            write_uint(&mut out, v).unwrap();
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
        assert_eq!(Json::parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn uint_is_exact_at_u64_max() {
        let v = Json::UInt(u64::MAX);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn round_trips_structures() {
        let v = Json::obj([
            ("name", Json::str("comm/allreduce")),
            ("ts", Json::Num(12.625)),
            ("n", Json::UInt(7)),
            (
                "args",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("a\"b\\c\nd")]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = r#" { "a" : [ 1 , { "b" : "x" } ] , "c" : null } "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9A\"").unwrap(),
            Json::Str("éA".to_string())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        // Raw multi-byte characters pass through unescaped too.
        assert_eq!(Json::parse(r#""né""#).unwrap(), Json::Str("né".to_string()));
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn control_chars_escape_and_round_trip() {
        let v = Json::Str("\u{1}x".to_string());
        let text = v.to_string();
        assert!(text.contains("\\u0001"));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
