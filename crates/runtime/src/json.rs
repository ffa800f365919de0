//! A small JSON value (RFC 8259) that both writes and parses, with no
//! dependency. The telemetry exporter and every `BENCH_*.json` record go
//! through it.
//!
//! Integers stay exact in [`Json::Int`] (wide enough for both `u64` and
//! `i64`); floats are written in their shortest round-trip form, so
//! `Json::parse(&v.write()?)` gives back `v`. JSON cannot spell NaN or an
//! infinity, so writing one is a [`JsonError::NonFinite`].

use std::fmt;

/// One JSON value. Objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, kept exact.
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Why a value could not be written or a text could not be parsed.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// A NaN or infinite float: JSON has no spelling for it.
    NonFinite(f64),
    /// The text is not one JSON value; `at` is the byte offset of the
    /// first violation.
    Syntax {
        /// Byte offset into the parsed text.
        at: usize,
        /// What was expected or found there.
        what: &'static str,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFinite(v) => write!(f, "non-finite float {v} has no JSON spelling"),
            JsonError::Syntax { at, what } => write!(f, "{what} at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Build a [`Json::Obj`] from fields of one value: `json_obj!(s; a, b, c = expr)`
/// gives `{"a": s.a, "b": s.b, "c": expr}`, each converted with
/// `Json::from` (by reference for the plain fields).
#[macro_export]
macro_rules! json_obj {
    ($s:expr; $($f:ident $(= $e:expr)?),* $(,)?) => {
        $crate::Json::Obj(vec![$((stringify!($f).to_string(), $crate::json_obj!(@v $s, $f $(, $e)?))),*])
    };
    (@v $s:expr, $f:ident) => { $crate::Json::from(&$s.$f) };
    (@v $s:expr, $f:ident, $e:expr) => { $crate::Json::from($e) };
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The fields of an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number as `f64` (integers beyond 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The JSON text. A container holding only scalars goes on one line;
    /// any other container puts each item on its own line, indented by
    /// two spaces per level.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any float is NaN or infinite.
    pub fn write(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_into(&mut out, 0)?;
        Ok(out)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write_into(&self, out: &mut String, indent: usize) -> Result<(), JsonError> {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
            Json::Float(f) if !f.is_finite() => return Err(JsonError::NonFinite(*f)),
            Json::Str(s) => {
                write_str(out, s);
                return Ok(());
            }
            scalar => {
                out.push_str(&match scalar {
                    Json::Bool(b) => b.to_string(),
                    Json::Int(i) => i.to_string(),
                    // `Debug` is the shortest text that parses back to the
                    // same bits, and always carries a `.` or an exponent.
                    Json::Float(f) => format!("{f:?}"),
                    _ => "null".to_string(),
                });
                return Ok(());
            }
        };
        let inline = items.iter().all(|(_, v)| v.is_scalar());
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if inline {
                out.push_str(if i > 0 { " " } else { "" });
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write_into(out, indent + 1)?;
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
        out.push(close);
        Ok(())
    }

    /// Parse exactly one JSON value (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] at the first byte that breaks the grammar,
    /// including trailing data after the value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { b: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing data"));
        }
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError::Syntax { at: self.pos, what }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8, what: &'static str) -> Result<(), JsonError> {
        self.ws();
        if self.peek() != Some(c) {
            return Err(self.err(what));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.container(b'}', true),
            Some(b'[') => self.container(b']', false),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// An object (`keyed`) or an array, opening bracket at `pos`.
    fn container(&mut self, close: u8, keyed: bool) -> Result<Json, JsonError> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                let key = if keyed {
                    self.ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected object key"));
                    }
                    let key = self.string()?;
                    self.eat(b':', "expected ':'")?;
                    key
                } else {
                    String::new()
                };
                fields.push((key, self.value()?));
                self.ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected ',' or a closing bracket")),
                }
            }
        }
        Ok(if keyed {
            Json::Obj(fields)
        } else {
            Json::Arr(fields.into_iter().map(|(_, v)| v).collect())
        })
    }

    fn literal(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonError> {
        if !self.b[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err("bad literal"));
        }
        self.pos += lit.len();
        Ok(value)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let b = self.b;
        let hex = b.get(self.pos..self.pos + 4).ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, &c| acc << 4 | (c as char).to_digit(16).unwrap_or(0)))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, escape or
            // control byte in one go.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            // `start..pos` stops only at ASCII bytes, so it splits no
            // UTF-8 sequence of the (valid) input.
            out.push_str(std::str::from_utf8(&self.b[start..self.pos]).unwrap_or_default());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("bad escape"));
                        }
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !self.b[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate escape"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("unpaired surrogate escape"));
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate escape"))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.err("expected digits")),
            n if n > 1 && self.b[int_start] == b'0' => {
                return Err(JsonError::Syntax { at: int_start, what: "leading zero" })
            }
            _ => {}
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        // The scanned bytes are ASCII digits, signs, '.' and 'e'.
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap_or_default();
        if !float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(JsonError::Syntax { at: start, what: "number out of range" }),
        }
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
from!(
    bool => |v| Json::Bool(v),
    f64 => |v| Json::Float(v),
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
);

impl<T: Clone + Into<Json>> From<&T> for Json {
    fn from(v: &T) -> Json {
        v.clone().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehdl_rng::Rng;

    fn random_string(rng: &mut Rng) -> String {
        const POOL: [char; 12] =
            ['a', 'Z', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '𝄞', '/'];
        (0..rng.gen_index(8)).map(|_| POOL[rng.gen_index(POOL.len())]).collect()
    }

    fn random_value(rng: &mut Rng, depth: u32) -> Json {
        let pick = if depth == 0 { rng.gen_index(6) } else { rng.gen_index(8) };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool()),
            2 => Json::Int(match rng.gen_index(4) {
                0 => u64::MAX as i128,
                1 => i64::MIN as i128,
                2 => rng.gen_range_i64(-1000, 0) as i128,
                _ => rng.next_u64() as i128,
            }),
            3 => Json::Float(match rng.gen_index(4) {
                0 => f64::MIN_POSITIVE * rng.gen_f64(),
                1 => f64::MAX * rng.gen_f64(),
                2 => -(rng.next_u64() as f64) / 7.0,
                _ => rng.gen_f64() * 1e-9,
            }),
            4 | 5 => Json::Str(random_string(rng)),
            6 => Json::Arr((0..rng.gen_index(4)).map(|_| random_value(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.gen_index(4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_values_round_trip_exactly() {
        let mut rng = Rng::seed_from_u64(0x150);
        for _ in 0..500 {
            let v = random_value(&mut rng, 4);
            let text = v.write().expect("finite values write");
            assert_eq!(Json::parse(&text), Ok(v), "{text}");
        }
        for v in [Json::Int(u64::MAX.into()), Json::Int(i64::MIN.into())] {
            assert_eq!(Json::parse(&v.write().expect("writes")), Ok(v));
        }
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::Int(u64::MAX.into())));
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::Int(i64::MIN.into())));
        for f in [5e-324, f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX, -0.0, 1.0, 0.1] {
            assert_eq!(Json::parse(&Json::Float(f).write().expect("writes")), Ok(Json::Float(f)));
        }
    }

    #[test]
    fn non_finite_floats_do_not_write() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(Json::Float(f).write(), Err(JsonError::NonFinite(_))));
            let nested =
                Json::obj([("ok", Json::Int(1)), ("bad", Json::Arr(vec![Json::Float(f)]))]);
            assert!(matches!(nested.write(), Err(JsonError::NonFinite(_))));
        }
    }

    #[test]
    fn parser_accepts_and_rejects_correctly() {
        for good in [
            "{}",
            "[]",
            "  {\"a\": [1, -2.5, 1e9, true, false, null], \"b\": {\"c\": \"d\\\"e\\u00ff\"}} ",
            "3.25",
            "\"\"",
        ] {
            Json::parse(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{'a': 1}",
            "{\"a\": \"unterminated}",
            "{\"a\": \"bad\\x\"}",
            "{\"a\": 01e}",
            "[1, 2",
            "{} trailing",
            "{\"a\": \"raw\ncontrol\"}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted invalid JSON: {bad:?}");
        }
    }

    #[test]
    fn escapes_decode_and_layout_nests() {
        let v = Json::parse("{\"s\": \"d\\\"e\\u00ff\\ud834\\udd1e\\/\"}").expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("d\"eÿ𝄞/"));
        let doc = Json::obj([
            ("bench", Json::from("x")),
            ("rows", Json::Arr(vec![Json::obj([("a", Json::Int(1)), ("b", Json::Float(0.5))])])),
        ]);
        assert_eq!(
            doc.write().expect("writes"),
            "{\n  \"bench\": \"x\",\n  \"rows\": [\n    {\"a\": 1, \"b\": 0.5}\n  ]\n}"
        );
    }
}
