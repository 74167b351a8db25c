//! Std-only stand-in for `serde_json` over the serde stand-in's value
//! tree: a strict JSON parser, compact and pretty writers (2-space
//! indent, like the real crate), and a `json!` macro.

use serde::__private::write_value;
pub use serde::{Map, Number, Value};

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}
impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// `Result` with this crate's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Nesting deeper than this is refused, as the real crate does.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T> {
        let (mut line, mut col) = (1, 1);
        for &b in &self.src[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Err(Error(format!("{msg} at line {line} column {col}")))
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return self.err("recursion limit exceeded");
        }
        self.skip_ws();
        match self.src.get(self.pos) {
            None => self.err("EOF while parsing a value"),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'"') {
                        return self.err("key must be a string");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b':') {
                        return self.err("expected `:`");
                    }
                    self.pos += 1;
                    let v = self.value(depth + 1)?;
                    map.insert(key, v);
                    self.skip_ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected value"),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return self.err("invalid number");
        }
        if self.src[digits_from] == b'0' && self.pos - digits_from > 1 {
            return self.err("invalid number");
        }
        let mut float = false;
        if self.src.get(self.pos) == Some(&b'.') {
            float = true;
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return self.err("invalid number");
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.src.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return self.err("invalid number");
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("number bytes are ASCII");
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => self.err("number out of range"),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(h) = self.src.get(self.pos..self.pos + 4) else {
            return self.err("EOF in \\u escape");
        };
        let Some(cp) = std::str::from_utf8(h)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
        else {
            return self.err("invalid \\u escape");
        };
        self.pos += 4;
        Ok(cp)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_from = self.pos;
            while matches!(self.src.get(self.pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.src[run_from..self.pos]) {
                Ok(s) => out.push_str(s),
                Err(_) => return self.err("invalid UTF-8 in string"),
            }
            match self.src.get(self.pos) {
                None => return self.err("EOF while parsing a string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(&e) = self.src.get(self.pos) else {
                        return self.err("EOF in escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat("\\u") {
                                    return self.err("lone leading surrogate");
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid trailing surrogate");
                                }
                                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            }
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode code point"),
                            }
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }
}

fn parse(src: &[u8]) -> Result<Value> {
    let mut p = Parser { src, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Compact JSON text of `value`.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), None);
    Ok(out)
}

/// Indented JSON text of `value`.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), Some(0));
    Ok(out)
}

/// Compact JSON bytes of `value`.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Indented JSON bytes of `value`.
pub fn to_vec_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

/// The value tree of `value`.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.to_json_value())
}

/// Parse JSON text into `T`.
pub fn from_str<'a, T: serde::Deserialize<'a>>(s: &'a str) -> Result<T> {
    from_slice(s.as_bytes())
}

/// Parse JSON bytes into `T`.
pub fn from_slice<'a, T: serde::Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    Ok(T::from_json_value(&parse(bytes)?)?)
}

/// Convert a value tree into `T`.
pub fn from_value<T: serde::de::DeserializeOwned>(v: Value) -> Result<T> {
    Ok(T::from_json_value(&v)?)
}

/// Build a [`Value`] from JSON-like syntax. Keys are string literals or
/// parenthesised expressions; values are literals, nested `[...]` /
/// `{...}`, or any expression whose type implements `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::Value::Array($crate::json_array!(@acc [] $($tt)*)) };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::json_object!(object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($e:expr) => { $crate::to_value(&$e).expect("json! value serializes") };
}

/// Array body muncher for [`json!`]. Not a public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    (@acc [$($done:expr,)*]) => { vec![$($done),*] };
    (@acc [$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($done,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@acc [$($done:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($done,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    (@acc [$($done:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($done,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    (@acc [$($done:expr,)*] $e:expr $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($done,)* $crate::json!($e),] $($($rest)*)?)
    };
}

/// Object body muncher for [`json!`]. Not a public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($o:ident) => {};
    ($o:ident $k:literal : null $(, $($rest:tt)*)?) => {
        $o.insert(($k).to_string(), $crate::Value::Null);
        $crate::json_object!($o $($($rest)*)?);
    };
    ($o:ident $k:literal : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $o.insert(($k).to_string(), $crate::json!([$($inner)*]));
        $crate::json_object!($o $($($rest)*)?);
    };
    ($o:ident $k:literal : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $o.insert(($k).to_string(), $crate::json!({$($inner)*}));
        $crate::json_object!($o $($($rest)*)?);
    };
    ($o:ident $k:literal : $e:expr $(, $($rest:tt)*)?) => {
        $o.insert(($k).to_string(), $crate::json!($e));
        $crate::json_object!($o $($($rest)*)?);
    };
    ($o:ident ($k:expr) : $e:expr $(, $($rest:tt)*)?) => {
        $o.insert(($k).to_string(), $crate::json!($e));
        $crate::json_object!($o $($($rest)*)?);
    };
}
