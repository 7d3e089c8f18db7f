//! The workspace's one JSON codec: a [`Value`] tree, one parser
//! ([`parse`]) and one writer (`Display`). BENCH files, the job service's
//! requests and responses, the battery artifact and the perf gate all go
//! through it. It is std-only because the workspace builds offline,
//! without serde.
//!
//! * **Numbers.** A number token without a fraction or an exponent is an
//!   exact [`Value::Int`], so every `u64` and `i64` round-trips. A token
//!   with either is a [`Value::Float`]. `-0` reads as the float `-0.0`,
//!   because no integer carries its sign. An integer too long for `i128`
//!   reads as a float, and a number that overflows `f64` is an error.
//! * **Floats out.** A finite float is written in its shortest round-trip
//!   form, always with a `.` or an exponent, so it reads back as a float.
//!   A non-finite float is written as `null`; [`Value::as_f64`] treats it
//!   as absent, so a gate rule never passes on it.
//! * **Depth.** Nesting deeper than [`MAX_DEPTH`] is a parse error, so a
//!   request body of a million `[` cannot overflow a server thread's
//!   stack.
//! * **One output format.** A container holding only scalars is written on
//!   one line (`{"id": 1, "status": "done"}`); any other container puts
//!   each member on its own line, indented by two spaces.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON document. Objects keep their members in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer token, exact.
    Int(i128),
    /// A number token with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` rounded to `places` decimals, the form BENCH figures are
    /// written in.
    pub fn decimal(x: f64, places: i32) -> Value {
        let scale = 10f64.powi(places);
        Value::Float((x * scale).round() / scale)
    }

    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A [`Value::Int`] that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number as `f64`; `None` for non-numbers and non-finite floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Value::Array(_) | Value::Object(_))
    }

    fn write(&self, out: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(x) if x.is_finite() => write!(out, "{x:?}"),
            Value::Float(_) => out.write_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                write_container(out, indent, "[]", items.iter().map(|v| (None, v)))
            }
            Value::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_container(out, indent, "{}", members)
            }
        }
    }
}

/// Items on one line when none is a container, else one per line,
/// indented; object members carry their key.
fn write_container<'a>(
    out: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) -> fmt::Result {
    let inline = items.clone().all(|(_, v)| !v.is_container());
    let (sep, pad) = if inline { (" ", 0) } else { ("\n", indent + 2) };
    out.write_str(&brackets[..1])?;
    for (n, (key, v)) in items.enumerate() {
        if n > 0 {
            out.write_char(',')?;
        }
        if n > 0 || !inline {
            write!(out, "{sep}{:pad$}", "")?;
        }
        if let Some(k) = key {
            write_str(out, k)?;
            out.write_str(": ")?;
        }
        v.write(out, indent + 2)?;
    }
    if !inline {
        write!(out, "\n{:w$}", "", w = indent)?;
    }
    out.write_str(&brackets[1..])
}

fn write_str(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
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

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(i: $t) -> Value {
                Value::Int(i as i128)
            }
        }
    )*};
}

from_int!(u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Parse one JSON document (surrounding whitespace allowed). Errors name
/// the byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Value::Array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.src[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(self.err("expected a value"))
            }
        }
    }

    /// The comma-separated items of the container opening at `pos`, up to
    /// its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // The token is ASCII by construction.
        let token = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII number");
        if !float {
            match token.parse::<i128>() {
                Ok(0) if token.starts_with('-') => return Ok(Value::Float(-0.0)),
                Ok(i) => return Ok(Value::Int(i)),
                Err(_) => {}
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.src.get(self.pos..self.pos + 4).unwrap_or_default();
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|h| h.len() == 4 && h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole: the input is UTF-8, and those bytes never occur
            // inside a multi-byte sequence.
            let run = self.src[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(std::str::from_utf8(&self.src[self.pos..self.pos + run]).expect("UTF-8"));
            self.pos += run;
            match self.src[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => self.pos += 1,
                _ => return Err(self.err("control character in string")),
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err(self.err("unpaired surrogate"));
                        }
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("unpaired surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}
