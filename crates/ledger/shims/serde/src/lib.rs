//! Std-only stand-in for `serde`, used only by the `llmt-ledger` offline
//! build (the bench host has no crates.io registry).
//!
//! The data model is a JSON value tree instead of serde's visitor
//! protocol: `Serialize` renders a [`Value`], `Deserialize` reads one.
//! That covers everything this workspace does with serde — derives plus
//! `serde_json`/`serde_yaml` entry points — and keeps the stand-in small.
//! The derive macros live in the sibling `serde_derive` stand-in.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON number. Integers keep all 64 bits.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Anything with a fraction or exponent. Always finite.
    Float(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Number::PosInt(a), Number::PosInt(b)) => a == b,
            (Number::NegInt(a), Number::NegInt(b)) => a == b,
            (Number::Float(a), Number::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl Number {
    /// The value as `f64` (lossy above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(u) => u as f64,
            Number::NegInt(i) => i as f64,
            Number::Float(f) => f,
        })
    }

    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(u) => Some(u),
            _ => None,
        }
    }

    /// The value as `i64` when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(u) => i64::try_from(u).ok(),
            Number::NegInt(i) => Some(i),
            Number::Float(_) => None,
        }
    }

    /// A finite float as a number; `None` for NaN and infinities.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number::Float(f))
    }

    /// Whether the number is stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self, Number::Float(_))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(u) => write!(f, "{u}"),
            Number::NegInt(i) => write!(f, "{i}"),
            Number::Float(x) => {
                // Rust's float formatting is the shortest form that reads
                // back exactly. Plain `{}` never uses an exponent and
                // drops the fraction of whole floats, so pick the form
                // by magnitude and keep a `.0` on whole values.
                let a = x.abs();
                if a != 0.0 && !(1e-5..1e16).contains(&a) {
                    write!(f, "{x:e}")
                } else if x == x.trunc() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// Object map: sorted keys, like `serde_json` without `preserve_order`.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

/// Compact JSON, like the real crate's `Display` for `Value`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        __private::write_value(&mut out, self, None);
        f.write_str(&out)
    }
}

impl Value {
    /// Member `key` of an object, or element of an array.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    /// The number as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    /// The number as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }
    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    /// The members, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
    /// Whether this is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }
    /// Whether this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }
    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }
    /// Whether this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Types usable in `value[index]` / `value.get(index)`.
pub trait ValueIndex {
    /// The addressed member, if present.
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}
impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}
impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}
impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

macro_rules! value_eq_prim {
    ($($t:ty => $conv:expr),* $(,)?) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                #[allow(clippy::redundant_closure_call)]
                ($conv)(self, other)
            }
        }
    )*};
}
value_eq_prim! {
    str => |v: &Value, o: &str| v.as_str() == Some(o),
    &str => |v: &Value, o: &&str| v.as_str() == Some(*o),
    String => |v: &Value, o: &String| v.as_str() == Some(o.as_str()),
    bool => |v: &Value, o: &bool| v.as_bool() == Some(*o),
    u64 => |v: &Value, o: &u64| v.as_u64() == Some(*o),
    i64 => |v: &Value, o: &i64| v.as_i64() == Some(*o),
    i32 => |v: &Value, o: &i32| v.as_i64() == Some(*o as i64),
    usize => |v: &Value, o: &usize| v.as_u64() == Some(*o as u64),
    f64 => |v: &Value, o: &f64| v.as_f64() == Some(*o),
}

macro_rules! value_from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value { $e }
        }
    )*};
}
value_from! {
    bool => |b| Value::Bool(b),
    String => |s| Value::String(s),
    &str => |s| Value::String(s.to_string()),
    u8 => |n| Value::Number(Number::PosInt(n as u64)),
    u16 => |n| Value::Number(Number::PosInt(n as u64)),
    u32 => |n| Value::Number(Number::PosInt(n as u64)),
    u64 => |n| Value::Number(Number::PosInt(n)),
    usize => |n| Value::Number(Number::PosInt(n as u64)),
    i32 => |n| (n as i64).into(),
    i64 => |n| if n >= 0 { Value::Number(Number::PosInt(n as u64)) } else { Value::Number(Number::NegInt(n)) },
    f32 => |f| (f as f64).into(),
    f64 => |f| Number::from_f64(f).map_or(Value::Null, Value::Number),
    Vec<Value> => |a| Value::Array(a),
    Map<String, Value> => |m| Value::Object(m),
}

/// Deserialization failure: what was expected, and where.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// An error carrying `msg`.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }

    /// "expected X, found Y" for a value of the wrong kind.
    pub fn invalid_type(expected: &str, found: &Value) -> Error {
        Error(format!(
            "invalid type: expected {expected}, found {}",
            found.kind()
        ))
    }

    /// Prefix the message with the field or variant it came from.
    pub fn in_field(self, container: &str, field: &str) -> Error {
        Error(format!("{container}.{field}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for Error {}

/// Render `self` as a [`Value`].
pub trait Serialize {
    /// The value tree for `self`.
    fn to_json_value(&self) -> Value;
}

/// Build `Self` from a [`Value`]. The lifetime mirrors serde's signature
/// so bounds written against the real crate still compile.
pub trait Deserialize<'de>: Sized {
    /// Parse `v`.
    fn from_json_value(v: &Value) -> Result<Self, Error>;

    /// What a struct field of this type takes when its key is absent and
    /// it has no `#[serde(default)]`: an error, except for `Option`.
    fn missing_field(container: &str, field: &str) -> Result<Self, Error> {
        Err(Error(format!("{container}: missing field `{field}`")))
    }
}

/// serde's `de` module, as far as bounds need it.
pub mod de {
    pub use super::{Deserialize, Error};

    /// `Deserialize` for every lifetime.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

/// serde's `ser` module, as far as bounds need it.
pub mod ser {
    pub use super::{Error, Serialize};
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}
impl<'de> Deserialize<'de> for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl<'de> Deserialize<'de> for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::invalid_type("a boolean", v))
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                #[allow(unused_comparisons)]
                if *self >= 0 {
                    Value::Number(Number::PosInt(*self as u64))
                } else {
                    Value::Number(Number::NegInt(*self as i64))
                }
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let out_of_range = || Error(format!("number out of range for {}", stringify!($t)));
                match v {
                    Value::Number(Number::PosInt(u)) => <$t>::try_from(*u).map_err(|_| out_of_range()),
                    Value::Number(Number::NegInt(i)) => <$t>::try_from(*i).map_err(|_| out_of_range()),
                    // Map keys arrive as strings (JSON has no integer keys).
                    Value::String(s) => s.parse::<$t>().map_err(|_| Error::invalid_type("an integer", v)),
                    _ => Err(Error::invalid_type("an integer", v)),
                }
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                // Via the shortest decimal of the *source* width, so an
                // f32 0.1 is written as 0.1 and not 0.10000000149.
                let shortest: f64 = self.to_string().parse().unwrap_or(f64::NAN);
                Number::from_f64(shortest).map_or(Value::Null, Value::Number)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                v.as_f64().map(|f| f as $t).ok_or_else(|| Error::invalid_type("a number", v))
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}
impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl<'de> Deserialize<'de> for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::invalid_type("a string", v))
    }
}
impl Serialize for char {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for PathBuf {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string_lossy().into_owned())
    }
}
impl Serialize for std::path::Path {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string_lossy().into_owned())
    }
}
impl<'de> Deserialize<'de> for PathBuf {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        String::from_json_value(v).map(PathBuf::from)
    }
}

impl Serialize for () {
    fn to_json_value(&self) -> Value {
        Value::Null
    }
}
impl<'de> Deserialize<'de> for () {
    fn from_json_value(_: &Value) -> Result<Self, Error> {
        Ok(())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}
impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(Box::new)
    }
}
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        T::from_json_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_json_value)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
    fn missing_field(_: &str, _: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn seq_to_value<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>) -> Value {
    Value::Array(items.map(Serialize::to_json_value).collect())
}

fn seq_from_value<'de, T: Deserialize<'de>, C: FromIterator<T>>(v: &Value) -> Result<C, Error> {
    match v {
        Value::Array(a) => a.iter().map(T::from_json_value).collect(),
        _ => Err(Error::invalid_type("an array", v)),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        seq_from_value(v)
    }
}
impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = seq_from_value(v)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error(format!("expected an array of length {N}, found {n}")))
    }
}
impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        seq_from_value(v)
    }
}
impl<T: Serialize> Serialize for HashSet<T> {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        seq_from_value(v)
    }
}
impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_json_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::collections::VecDeque<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        seq_from_value(v)
    }
}

/// A map key as JSON allows it: strings as they are, integers in decimal.
fn key_to_string(k: Value) -> String {
    match k {
        Value::String(s) => s,
        Value::Number(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!(
            "map key must serialize to a string or integer, got {}",
            other.kind()
        ),
    }
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    items: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Object(
        items
            .map(|(k, v)| (key_to_string(k.to_json_value()), v.to_json_value()))
            .collect(),
    )
}

fn map_from_value<'de, K: Deserialize<'de>, V: Deserialize<'de>, C: FromIterator<(K, V)>>(
    v: &Value,
) -> Result<C, Error> {
    match v {
        Value::Object(m) => m
            .iter()
            .map(|(k, v)| {
                Ok((
                    K::from_json_value(&Value::String(k.clone()))?,
                    V::from_json_value(v)?,
                ))
            })
            .collect(),
        _ => Err(Error::invalid_type("an object", v)),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        map_to_value(self.iter())
    }
}
impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        map_from_value(v)
    }
}
impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_json_value(&self) -> Value {
        map_to_value(self.iter())
    }
}
impl<'de, K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>> Deserialize<'de> for HashMap<K, V> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        map_from_value(v)
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_json_value()),+])
            }
        }
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($n),+].len();
                match v {
                    Value::Array(a) if a.len() == LEN => Ok(($($t::from_json_value(&a[$n])?,)+)),
                    _ => Err(Error(format!("expected an array of length {LEN}"))),
                }
            }
        }
    )*};
}
tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Support code the derive macros expand to. Not a public API.
#[doc(hidden)]
pub mod __private {
    pub use super::{Deserialize, Error, Map, Serialize, Value};
    use std::fmt::Write as _;

    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn newline(out: &mut String, indent: Option<usize>) {
        if let Some(n) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', n * 2));
        }
    }

    /// Append the JSON text of `v` to `out`; `indent` is the current
    /// nesting level when pretty-printing, `None` for compact output.
    pub fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_str(out, s),
            Value::Array(a) if a.is_empty() => out.push_str("[]"),
            Value::Array(a) => {
                out.push('[');
                for (i, item) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|n| n + 1));
                    write_value(out, item, indent.map(|n| n + 1));
                }
                newline(out, indent);
                out.push(']');
            }
            Value::Object(m) if m.is_empty() => out.push_str("{}"),
            Value::Object(m) => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|n| n + 1));
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent.map(|n| n + 1));
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// The object behind `v`, or a type error naming `container`.
    pub fn as_object<'v>(v: &'v Value, container: &str) -> Result<&'v Map<String, Value>, Error> {
        match v {
            Value::Object(m) => Ok(m),
            other => Err(Error(format!(
                "{container}: {}",
                Error::invalid_type("an object", other).0
            ))),
        }
    }

    /// Field `key` of `m`, required unless the type tolerates absence.
    pub fn field<'de, T: Deserialize<'de>>(
        m: &Map<String, Value>,
        container: &str,
        key: &str,
    ) -> Result<T, Error> {
        match m.get(key) {
            Some(v) => T::from_json_value(v).map_err(|e| e.in_field(container, key)),
            None => T::missing_field(container, key),
        }
    }

    /// Field `key` of `m`, or `default()` when absent.
    pub fn field_or<'de, T: Deserialize<'de>>(
        m: &Map<String, Value>,
        container: &str,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match m.get(key) {
            Some(v) => T::from_json_value(v).map_err(|e| e.in_field(container, key)),
            None => Ok(default()),
        }
    }

    /// Split an externally tagged enum value into (variant, payload).
    pub fn variant<'v>(
        v: &'v Value,
        container: &str,
    ) -> Result<(&'v str, Option<&'v Value>), Error> {
        match v {
            Value::String(s) => Ok((s, None)),
            Value::Object(m) if m.len() == 1 => {
                let (k, payload) = m.iter().next().expect("len checked");
                Ok((k, Some(payload)))
            }
            other => Err(Error(format!(
                "{container}: expected a variant name or a single-key object, found {}",
                other.kind()
            ))),
        }
    }

    /// The tag string of an internally tagged enum value.
    pub fn tag<'v>(
        m: &'v Map<String, Value>,
        container: &str,
        tag: &str,
    ) -> Result<&'v str, Error> {
        m.get(tag)
            .and_then(Value::as_str)
            .ok_or_else(|| Error(format!("{container}: missing or non-string tag `{tag}`")))
    }

    /// Error for a variant name the enum does not have.
    pub fn unknown_variant(container: &str, name: &str) -> Error {
        Error(format!("{container}: unknown variant `{name}`"))
    }

    /// Merge `tag: name` into the object a newtype variant's payload
    /// serialized to (internally tagged enums).
    pub fn tagged(payload: Value, tag: &str, name: &str) -> Value {
        let mut m = match payload {
            Value::Object(m) => m,
            Value::Null => Map::new(),
            other => panic!(
                "internally tagged variant `{name}` must serialize to an object, got {other:?}"
            ),
        };
        m.insert(tag.to_string(), Value::String(name.to_string()));
        Value::Object(m)
    }
}
