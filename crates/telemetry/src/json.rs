//! A minimal recursive-descent JSON parser and a deterministic writer.
//!
//! Every JSON document the workspace exports is built as a [`Value`]
//! and rendered by [`write`]; every checker reads one back through
//! [`parse`]. No schema library or external dependency is involved.
//! Numbers are kept as `f64` (exported artifacts never need more than 53
//! bits of integer precision), and [`escape`] is the one JSON string
//! escaper, shared with the streaming Chrome-trace and JSONL exports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object map, when this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// A required object field read as a `T`; the error names the key.
    pub fn field<T: Field>(&self, key: &str) -> Result<T, String> {
        within(key, || T::read(self.get(key).ok_or("missing")?))
    }
}

/// A type stored in JSON documents: converted to a [`Value`] by
/// [`value`](Field::value) and read back, type-checked, by
/// [`read`](Field::read). [`record!`](crate::record) derives it for a
/// struct whose fields are the keys of one JSON object.
pub trait Field: Sized {
    /// Read a `Self` back, or say why `v` is not one.
    fn read(v: &Value) -> Result<Self, String>;
    /// This value as JSON.
    fn value(&self) -> Value;
}

macro_rules! scalar_field {
    ($($t:ty: $v:ident => $read:expr, $value:expr;)*) => {$(
        impl Field for $t {
            fn read($v: &Value) -> Result<Self, String> {
                $read
            }
            fn value(&self) -> Value {
                let $v = self;
                $value
            }
        }
    )*};
}

scalar_field! {
    u64: v => v.as_u64().ok_or_else(|| "not a non-negative integer".into()), Value::Number(*v as f64);
    f64: v => v.as_f64().ok_or_else(|| "not a number".into()), Value::Number(*v);
    String: v => v.as_str().map(str::to_owned).ok_or_else(|| "not a string".into()),
        Value::String(v.clone());
    bool: v => match v {
        Value::Bool(b) => Ok(*b),
        _ => Err("not a boolean".into()),
    }, Value::Bool(*v);
    Value: v => Ok(v.clone()), v.clone();
}

/// `null` is `None`.
impl<T: Field> Field for Option<T> {
    fn read(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
    fn value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Field::value)
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Value) -> Result<Self, String> {
        let items = v.as_array().ok_or("not an array")?;
        let read = |(i, item)| within(format_args!("[{i}]"), || T::read(item));
        items.iter().enumerate().map(read).collect()
    }
    fn value(&self) -> Value {
        Value::Array(self.iter().map(Field::value).collect())
    }
}

/// Declare a struct whose fields are the keys of one JSON object, and
/// derive [`Field`] for it, so each key is named once for both the
/// writer and the reader. Reading ignores keys the struct lacks, and runs
/// the optional `check(record) { ... }` block, a `Result<(), String>`, on
/// what it read.
#[macro_export]
macro_rules! record {
    ($(#[$m:meta])* $vis:vis struct $name:ident {
        $($(#[$fm:meta])* $fvis:vis $field:ident: $ty:ty,)*
    } $(check($r:ident) $check:block)?) => {
        $(#[$m])*
        #[derive(Clone, Debug, PartialEq)]
        $vis struct $name {
            $($(#[$fm])* $fvis $field: $ty,)*
        }

        impl $crate::json::Field for $name {
            fn read(v: &$crate::json::Value) -> Result<Self, String> {
                let record = $name { $($field: v.field(stringify!($field))?,)* };
                $(let check: fn(&Self) -> Result<(), String> = |$r| $check;
                check(&record)?;)?
                Ok(record)
            }
            fn value(&self) -> $crate::json::Value {
                $crate::json::object([
                    $((stringify!($field), $crate::json::Field::value(&self.$field)),)*
                ])
            }
        }
    };
}

/// Prefix an error from `f` with `ctx`.
pub fn within<T>(
    ctx: impl std::fmt::Display,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    f().map_err(|e| format!("{ctx}: {e}"))
}

/// `Ok(())` when `ok`, else the error `msg()`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// An object from `(key, value)` pairs.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Escape `s` for the inside of a JSON string literal: `"` and `\`,
/// `\n` and `\t` by name, every other control character as `\u00XX`.
/// Non-ASCII text passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `v` as a JSON document ending in a newline.
///
/// The output is deterministic: object keys come out in sorted order,
/// a container whose elements are all scalars is written on one line,
/// and any other container puts each element on its own line, indented
/// two spaces per level. Numbers use the shortest text that parses back
/// to the same `f64` (integers up to 2^53 without a fraction), so
/// `parse(&write(v)) == Ok(v)`. A non-finite number has no JSON form and
/// is written as `null`.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) if !n.is_finite() => out.push_str("null"),
        // Every integer up to 2^53 is an exact `f64`.
        Value::Number(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => {
            let _ = write!(out, "{}", *n as i64);
        }
        Value::Number(n) => {
            let _ = write!(out, "{n:?}");
        }
        Value::String(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Array(items) => {
            write_container(out, "[]", items.iter().map(|v| (None, v)), depth);
        }
        Value::Object(map) => write_container(
            out,
            "{}",
            map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            depth,
        ),
    }
}

fn write_container<'v>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'v str>, &'v Value)> + Clone,
    depth: usize,
) {
    let nested = items
        .clone()
        .any(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)));
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
            if !nested {
                out.push(' ');
            }
        }
        if nested {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            let _ = write!(out, "\"{}\": ", escape(key));
        }
        write_value(out, v, depth + 1);
    }
    if nested {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// Parse one JSON document. Trailing whitespace is allowed; trailing
/// non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn skip_while(&mut self, f: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&f) {
            self.pos += 1;
        }
    }

    /// Consume the next byte when `f` accepts it.
    fn eat(&mut self, f: impl Fn(u8) -> bool) -> bool {
        let hit = self.peek().is_some_and(f);
        self.pos += hit as usize;
        hit
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        let entries = self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        })?;
        Ok(Value::Object(entries.into_iter().collect()))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.sequence(b'[', b']', Self::value).map(Value::Array)
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn sequence<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(|b| b == close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(|b| b == close) {
                return Ok(items);
            }
            if !self.eat(|b| b == b',') {
                let found = self.peek().map(|c| c as char);
                let at = self.pos;
                return Err(format!(
                    "expected ',' or '{}' at byte {at}, found {found:?}",
                    close as char
                ));
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by our exports;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("not at the end");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let digit = |b: u8| b.is_ascii_digit();
        self.eat(|b| b == b'-');
        self.skip_while(digit);
        if self.eat(|b| b == b'.') {
            self.skip_while(digit);
        }
        if self.eat(|b| matches!(b, b'e' | b'E')) {
            self.eat(|b| matches!(b, b'+' | b'-'));
            self.skip_while(digit);
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(write(&Value::Number(n)), "null\n");
        }
        let doc = object([("ratio", Value::Number(f64::NAN))]);
        assert_eq!(write(&doc), "{\"ratio\": null}\n");
    }

    #[test]
    fn layout_puts_nested_elements_on_their_own_lines() {
        let doc = parse(r#"{"b": [{"x": 1}], "a": {"y": 0.5, "z": "q\"\n"}}"#).unwrap();
        assert_eq!(
            write(&doc),
            "{\n  \"a\": {\"y\": 0.5, \"z\": \"q\\\"\\n\"},\n  \"b\": [\n    {\"x\": 1}\n  ]\n}\n"
        );
        assert_eq!(write(&Value::Array(Vec::new())), "[]\n");
    }

    /// A generated value: strings mix quotes, backslashes, control and
    /// non-ASCII characters; numbers are integers up to 2^53 or
    /// fractions; arrays and objects nest up to three levels.
    struct AnyValue;

    fn any_string(rng: &mut TestRng) -> String {
        let chars = [
            '"', '\\', '/', '\n', '\t', '\r', '\0', '\u{1f}', 'a', ' ', 'é', 'λ', '🦀',
        ];
        (0..rng.below(8))
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }

    fn any_value(rng: &mut TestRng, depth: u32) -> Value {
        let sign = |rng: &mut TestRng| if rng.below(2) == 1 { -1.0 } else { 1.0 };
        let len = |rng: &mut TestRng| 0..rng.below(4);
        match rng.below(if depth < 3 { 8 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Number(sign(rng) * rng.below((1 << 53) + 1) as f64),
            3 => Value::Number(rng.next_u64() as i64 as f64 / (rng.below(1 << 20) + 1) as f64),
            4 => Value::Number(rng.below(1000) as f64 / 1000.0),
            5 => Value::String(any_string(rng)),
            6 => Value::Array(len(rng).map(|_| any_value(rng, depth + 1)).collect()),
            _ => Value::Object(
                len(rng)
                    .map(|_| (any_string(rng), any_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    impl Strategy for AnyValue {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            any_value(rng, 0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn written_values_parse_back_unchanged(v in AnyValue) {
            let text = write(&v);
            prop_assert_eq!(parse(&text), Ok(v), "{}", text);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }
}
