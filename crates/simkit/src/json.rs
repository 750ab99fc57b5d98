//! JSON: one value type, one writer, one strict parser.
//!
//! Every JSON file the workspace reads or writes goes through this
//! module: scenario files in; `repro` and `scenario` results, trace
//! exports, admin-plane scrapes and bench snapshots out.
//!
//! * [`Value`] keeps object members in insertion order, so output key
//!   order is the order the code built the object in.
//! * The writer escapes `"`, `\` and newline by name and every other
//!   control character as `\u00xx`. An `f64` prints with `Display` (the
//!   shortest digits that parse back to the same bits; no exponent, no
//!   trailing `.0`) and a non-finite one prints as `null`, since JSON has
//!   no NaN or infinity. [`Value::to_pretty`] indents by two spaces.
//! * The parser accepts RFC 8259 JSON and nothing more: no comments,
//!   trailing commas, duplicate keys, or numbers that overflow to
//!   infinity. Integer literals parse exactly into `u64`/`i64`, never
//!   through `f64`. Every error carries the line and column of the
//!   offending token and the key path it sits at
//!   (`config.cluster.nodes[2].disk_bw`).
//!
//! Typed input is read straight from the text: a [`FromJson`] impl pulls
//! its fields from a [`Reader`], so a type error points at the value that
//! caused it ([`read_json_fields!`](crate::read_json_fields) writes the
//! usual struct case). Typed output builds a [`Value`] through
//! [`ToJson`] ([`impl_to_json!`](crate::impl_to_json),
//! [`json_object!`](crate::json_object)).
//!
//! ```
//! use simkit::json::{self, Value};
//!
//! let v = Value::parse(r#"{"seed": 18446744073709551615, "ratio": 0.5}"#).expect("valid");
//! assert_eq!(v.get("seed"), Some(&Value::U64(u64::MAX)));
//! assert_eq!(v.to_string(), r#"{"seed":18446744073709551615,"ratio":0.5}"#);
//!
//! let err = json::from_str::<Vec<u32>>("[1,\n 2,]").expect_err("trailing comma");
//! assert_eq!(err.to_string(), "2:3: trailing comma");
//! ```

use crate::time::{SimDuration, SimTime};
use std::fmt::{self, Write as _};

/// Deepest object/array nesting the parser accepts (bounds recursion on
/// input from outside the program).
const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers keep the kind they were written as: integer
/// literals are [`Value::U64`] (or [`Value::I64`] when negative), anything
/// with a fraction or exponent — or an integer too large for 64 bits — is
/// [`Value::F64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a whole JSON document.
    pub fn parse(text: &str) -> Result<Value, Error> {
        from_str(text)
    }

    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Append the compact rendering (no whitespace) to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The pretty rendering: one member or element per line, two-space
    /// indent, `"key": value`; empty containers stay `[]` / `{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Value::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// The compact rendering.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Append `s` as a quoted JSON string literal.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Value`] for output.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

macro_rules! unsigned_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
unsigned_to_json!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::I64(*self),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

/// Integer microseconds, the clock's own resolution.
impl ToJson for SimTime {
    fn to_json(&self) -> Value {
        Value::U64(self.as_micros())
    }
}

/// Integer microseconds, the clock's own resolution.
impl ToJson for SimDuration {
    fn to_json(&self) -> Value {
        Value::U64(self.as_micros())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// A [`Value::Obj`] from `"key": expr` pairs, in the order written; each
/// value goes through [`ToJson`](crate::json::ToJson).
#[macro_export]
macro_rules! json_object {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $(($key.to_owned(), $crate::json::ToJson::to_json(&$value))),*
        ])
    };
}

/// Implement [`ToJson`](crate::json::ToJson) for structs as objects of
/// the listed fields, keyed by field name, in the order listed:
/// `impl_to_json!(Row { name, secs }; Table { rows });`.
#[macro_export]
macro_rules! impl_to_json {
    ($($ty:ty { $($field:ident),* $(,)? });+ $(;)?) => {$(
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    )+};
}

/// Read a JSON object into a struct (or struct-variant) literal from a
/// [`Reader`](crate::json::Reader). A bare field is required; `field =
/// expr` is optional and defaults to `expr`. Any other key is an error
/// naming its path. Use inside a function returning
/// `Result<_, json::Error>`:
///
/// ```
/// use simkit::json::{self, FromJson, Reader};
/// use simkit::read_json_fields;
///
/// #[derive(Debug, PartialEq)]
/// struct Disk { bw: f64, streams: u32 }
///
/// impl FromJson for Disk {
///     fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
///         Ok(read_json_fields!(r, Disk { bw, streams = 1 }))
///     }
/// }
///
/// assert_eq!(json::from_str::<Disk>(r#"{"bw": 2}"#), Ok(Disk { bw: 2.0, streams: 1 }));
/// let err = json::from_str::<Disk>(r#"{"bw": 2, "rpm": 7200}"#).expect_err("unknown key");
/// assert_eq!(err.to_string(), "1:11: unknown key at `rpm`");
/// ```
#[macro_export]
macro_rules! read_json_fields {
    ($r:expr, $ty:path { $($field:ident $(= $default:expr)?),* $(,)? }) => {{
        let reader: &mut $crate::json::Reader<'_> = $r;
        $(let mut $field = None;)*
        let open = reader.object(|reader, key| match key {
            $(stringify!($field) => reader.field(&mut $field),)*
            _ => Err(reader.unknown_key()),
        })?;
        $ty { $($field: $crate::__json_field!(reader, open, $field $(, $default)?)),* }
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    ($r:ident, $open:ident, $field:ident) => {
        match $field {
            Some(v) => v,
            None => return Err($r.missing($open, stringify!($field))),
        }
    };
    ($r:ident, $open:ident, $field:ident, $default:expr) => {
        $field.unwrap_or_else(|| $default)
    };
}

/// A parse or decode error: where (1-based line and column, counted in
/// characters) and what, with the key path in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Line of the offending token.
    pub line: usize,
    /// Column of the offending token.
    pub col: usize,
    /// What went wrong, and at which key path.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for Error {}

/// Decoding from JSON text through a [`Reader`].
pub trait FromJson: Sized {
    /// Read one value of this type.
    fn read(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Parse `text` as exactly one `T` (trailing non-whitespace is an error).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    let mut r = Reader {
        src: text,
        pos: 0,
        at: 0,
        depth: 0,
        path: Vec::new(),
    };
    let v = T::read(&mut r)?;
    r.skip_ws();
    if r.pos < text.len() {
        return Err(r.error_at(r.pos, "trailing characters after the document"));
    }
    Ok(v)
}

enum Seg {
    Key(String),
    Index(usize),
}

/// A strict pull parser over JSON text. [`FromJson`] impls call its typed
/// readers; every error it builds carries the position and key path of
/// the value being read.
pub struct Reader<'a> {
    src: &'a str,
    /// Next unread byte.
    pos: usize,
    /// Start of the value (or key) being read, where typed errors point.
    at: usize,
    depth: usize,
    path: Vec<Seg>,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Skip to the next value and mark its start for error reports.
    fn start(&mut self) -> Option<u8> {
        let c = self.peek();
        self.at = self.pos;
        c
    }

    /// An error at the start of the value being read.
    fn error(&self, msg: impl fmt::Display) -> Error {
        self.error_at(self.at, msg)
    }

    /// An error at byte offset `pos`, naming the current key path.
    fn error_at(&self, pos: usize, msg: impl fmt::Display) -> Error {
        let before = &self.src.as_bytes()[..pos.min(self.src.len())];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        // Count characters, not bytes: skip UTF-8 continuation bytes.
        let col = 1 + before[line_start..]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        let mut path = String::new();
        for seg in &self.path {
            match seg {
                Seg::Key(k) if path.is_empty() => path.push_str(k),
                Seg::Key(k) => {
                    path.push('.');
                    path.push_str(k);
                }
                Seg::Index(i) => {
                    let _ = write!(path, "[{i}]");
                }
            }
        }
        let msg = if path.is_empty() {
            msg.to_string()
        } else {
            format!("{msg} at `{path}`")
        };
        Error { line, col, msg }
    }

    /// "unexpected X, expected Y" at the next unread character.
    fn unexpected(&self, expected: &str) -> Error {
        match self.src.get(self.pos..).and_then(|s| s.chars().next()) {
            None => self.error_at(
                self.pos,
                format!("unexpected end of input, expected {expected}"),
            ),
            Some(c) => self.error_at(self.pos, format!("unexpected `{c}`, expected {expected}")),
        }
    }

    /// "expected X, found <kind of the value at hand>".
    fn type_error(&self, expected: &str) -> Error {
        let found = match self.src.as_bytes().get(self.at) {
            Some(b'{') => "an object",
            Some(b'[') => "an array",
            Some(b'"') => "a string",
            Some(b't' | b'f') => "a boolean",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "a number",
            _ => return self.unexpected(expected),
        };
        self.error(format!("expected {expected}, found {found}"))
    }

    fn word(&mut self, w: &str) -> Result<(), Error> {
        if self.src[self.pos..].starts_with(w) {
            self.pos += w.len();
            Ok(())
        } else {
            Err(self.unexpected("a value"))
        }
    }

    fn expect_byte(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        Ok(())
    }

    /// Consume `null` if it comes next; `true` if it did.
    fn null(&mut self) -> Result<bool, Error> {
        if self.start() == Some(b'n') {
            self.word("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Read a boolean.
    fn bool(&mut self) -> Result<bool, Error> {
        match self.start() {
            Some(b't') => self.word("true").map(|()| true),
            Some(b'f') => self.word("false").map(|()| false),
            _ => Err(self.type_error("a boolean")),
        }
    }

    /// Read a string.
    fn str(&mut self) -> Result<String, Error> {
        if self.start() != Some(b'"') {
            return Err(self.type_error("a string"));
        }
        self.string_literal()
    }

    /// Read a non-negative integer, exactly.
    fn u64(&mut self) -> Result<u64, Error> {
        match self.number()? {
            Value::U64(n) => Ok(n),
            _ => Err(self.error(format!(
                "expected an unsigned 64-bit integer, found `{}`",
                &self.src[self.at..self.pos]
            ))),
        }
    }

    /// Read any number as an `f64`.
    fn f64(&mut self) -> Result<f64, Error> {
        self.number()?
            .as_f64()
            .ok_or_else(|| self.error("expected a number"))
    }

    /// Read an object: `member` is called once per key, positioned at its
    /// value, with the key pushed on the path. Duplicate keys are errors.
    /// Returns the byte offset of the opening brace (for
    /// [`Reader::missing`]).
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        if self.start() != Some(b'{') {
            return Err(self.type_error("an object"));
        }
        let open = self.at;
        self.enter()?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(open);
        }
        let mut seen: Vec<String> = Vec::new();
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.unexpected("a string key"));
            }
            let key_at = self.pos;
            let key = self.string_literal()?;
            if seen.contains(&key) {
                return Err(self.error_at(key_at, format!("duplicate key `{key}`")));
            }
            self.expect_byte(b':', "`:`")?;
            self.path.push(Seg::Key(key.clone()));
            self.at = key_at;
            member(self, &key)?;
            self.path.pop();
            seen.push(key);
            if !self.more(b'}', "`,` or `}`")? {
                return Ok(open);
            }
        }
    }

    /// Read an array: `elem` is called once per element, with its index
    /// pushed on the path. Returns the byte offset of the opening bracket.
    fn array(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        if self.start() != Some(b'[') {
            return Err(self.type_error("an array"));
        }
        let open = self.at;
        self.enter()?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(open);
        }
        for i in 0.. {
            self.path.push(Seg::Index(i));
            elem(self)?;
            self.path.pop();
            if !self.more(b']', "`,` or `]`")? {
                break;
            }
        }
        Ok(open)
    }

    /// After an object member or array element: `true` past a `,` with
    /// another item to come, `false` past the closing `close`.
    fn more(&mut self, close: u8, expected: &str) -> Result<bool, Error> {
        match self.peek() {
            Some(b',') => {
                let comma = self.pos;
                self.pos += 1;
                if self.peek() == Some(close) {
                    return Err(self.error_at(comma, "trailing comma"));
                }
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// Start reading an externally tagged enum: either a bare string
    /// naming a unit variant, or a one-key object
    /// `{"Variant": payload}`. Returns the name and whether a payload
    /// follows; with a payload the reader sits at it, and
    /// [`Reader::end_variant`] must be called after reading it.
    pub fn variant(&mut self) -> Result<(String, bool), Error> {
        match self.start() {
            Some(b'"') => Ok((self.string_literal()?, false)),
            Some(b'{') => {
                self.enter()?;
                if self.peek() != Some(b'"') {
                    return Err(self.unexpected("a variant name"));
                }
                let name = self.string_literal()?;
                self.expect_byte(b':', "`:`")?;
                self.path.push(Seg::Key(name.clone()));
                Ok((name, true))
            }
            _ => Err(self.type_error("a variant name or a one-key object")),
        }
    }

    /// Finish a variant started by [`Reader::variant`].
    pub fn end_variant(&mut self, payload: bool) -> Result<(), Error> {
        if payload {
            self.path.pop();
            self.expect_byte(b'}', "`}` (a variant object has exactly one key)")?;
            self.depth -= 1;
        }
        Ok(())
    }

    /// Read a unit-only enum from its variant name.
    pub fn unit_variant<T: Copy>(&mut self, variants: &[(&str, T)]) -> Result<T, Error> {
        let name = self.str()?;
        match variants.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => Ok(v),
            None => {
                let names: Vec<&str> = variants.iter().map(|(n, _)| *n).collect();
                Err(self.error(format!(
                    "unknown variant `{name}`, expected one of {}",
                    names.join(", ")
                )))
            }
        }
    }

    /// Read a `T` into `slot` (the per-field step of
    /// [`read_json_fields!`](crate::read_json_fields)).
    pub fn field<T: FromJson>(&mut self, slot: &mut Option<T>) -> Result<(), Error> {
        *slot = Some(T::read(self)?);
        Ok(())
    }

    /// The error for an object member no field accepts (call from an
    /// [`Reader::object`] callback, before reading the value).
    pub fn unknown_key(&self) -> Error {
        self.error("unknown key")
    }

    /// The error for a required field absent from the object opened at
    /// `open`.
    pub fn missing(&self, open: usize, field: &str) -> Error {
        self.error_at(open, format!("missing field `{field}`"))
    }

    /// The error for a variant name no arm accepts.
    pub fn unknown_variant(&self, name: &str, payload: bool) -> Error {
        if payload {
            self.error(format!("unknown variant `{name}`"))
        } else {
            self.error(format!("unknown unit variant `{name}`"))
        }
    }

    /// A string literal; `self.pos` is at its opening quote.
    fn string_literal(&mut self) -> Result<String, Error> {
        let bytes = self.src.as_bytes();
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.unexpected("`\"` closing the string")),
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
                    let esc_at = self.pos;
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape(esc_at)?,
                        _ => return Err(self.error_at(esc_at, "invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.error_at(self.pos, "control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// `\uXXXX` (with a following low surrogate when XXXX is a high one);
    /// `self.pos` is at the `u`, and is left on the last hex digit.
    fn unicode_escape(&mut self, esc_at: usize) -> Result<char, Error> {
        let hex4 = |r: &mut Self| -> Result<u32, Error> {
            let digits = r.src.get(r.pos + 1..r.pos + 5).unwrap_or("");
            let v = u32::from_str_radix(digits, 16)
                .ok()
                .filter(|_| digits.len() == 4 && digits.bytes().all(|b| b.is_ascii_hexdigit()))
                .ok_or_else(|| r.error_at(esc_at, "invalid \\u escape"))?;
            r.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self
                .src
                .get(self.pos + 1..)
                .unwrap_or("")
                .starts_with("\\u")
            {
                return Err(self.error_at(esc_at, "unpaired surrogate in \\u escape"));
            }
            self.pos += 2;
            let lo = hex4(self)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error_at(esc_at, "unpaired surrogate in \\u escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code)
            .ok_or_else(|| self.error_at(esc_at, "unpaired surrogate in \\u escape"))
    }

    /// A number token, exactly: integers as `U64`/`I64` unless they
    /// overflow 64 bits, everything else as a finite `F64`.
    fn number(&mut self) -> Result<Value, Error> {
        if !matches!(self.start(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.type_error("a number"));
        }
        let bytes = self.src.as_bytes();
        let digits = |r: &mut Self| {
            let from = r.pos;
            while bytes.get(r.pos).is_some_and(u8::is_ascii_digit) {
                r.pos += 1;
            }
            r.pos > from
        };
        let neg = bytes[self.pos] == b'-';
        if neg {
            self.pos += 1;
        }
        let int_at = self.pos;
        if !digits(self) {
            return Err(self.unexpected("a digit"));
        }
        if bytes[int_at] == b'0' && self.pos > int_at + 1 {
            return Err(self.error("leading zero in number"));
        }
        let mut integer = true;
        if bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            integer = false;
            if !digits(self) {
                return Err(self.unexpected("a digit after `.`"));
            }
        }
        if let Some(b'e' | b'E') = bytes.get(self.pos) {
            self.pos += 1;
            integer = false;
            if let Some(b'+' | b'-') = bytes.get(self.pos) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.unexpected("a digit in the exponent"));
            }
        }
        let tok = &self.src[self.at..self.pos];
        if integer {
            if let Ok(n) = tok.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = tok.parse::<i64>() {
                return Ok(i64::to_json(&n));
            }
        }
        match tok.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.error(format!("number `{tok}` is out of range"))),
        }
    }
}

macro_rules! unsigned_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.u64()?;
                <$t>::try_from(n)
                    .map_err(|_| r.error(format!("{n} is out of range for {}", stringify!($t))))
            }
        }
    )*};
}
unsigned_from_json!(u8, u16, u32, usize);

impl FromJson for u64 {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u64()
    }
}

impl FromJson for f64 {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.f64()
    }
}

impl FromJson for bool {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl FromJson for String {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str()
    }
}

/// Integer microseconds.
impl FromJson for SimTime {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u64().map(SimTime::from_micros)
    }
}

/// Integer microseconds.
impl FromJson for SimDuration {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.u64().map(SimDuration::from_micros)
    }
}

/// `null` is `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::read(r).map(Some)
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut out = Vec::new();
        r.array(|r| {
            out.push(T::read(r)?);
            Ok(())
        })?;
        Ok(out)
    }
}

/// A two-element array.
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b, mut extra) = (None, None, false);
        let open = r.array(|r| {
            if a.is_none() {
                r.field(&mut a)
            } else if b.is_none() {
                r.field(&mut b)
            } else {
                extra = true;
                Value::read(r).map(drop)
            }
        })?;
        match (a, b, extra) {
            (Some(a), Some(b), false) => Ok((a, b)),
            _ => Err(r.error_at(open, "expected a 2-element array")),
        }
    }
}

/// Any JSON value.
impl FromJson for Value {
    fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.start() {
            Some(b'{') => {
                let mut members = Vec::new();
                r.object(|r, key| {
                    members.push((key.to_owned(), Value::read(r)?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => Vec::read(r).map(Value::Arr),
            Some(b'"') => r.str().map(Value::Str),
            Some(b't' | b'f') => r.bool().map(Value::Bool),
            Some(b'n') => r.word("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => r.number(),
            _ => Err(r.unexpected("a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> String {
        Value::parse(text)
            .expect_err("must be rejected")
            .to_string()
    }

    #[test]
    fn writer_matches_the_export_conventions() {
        let v = json_object! {
            "s": "a\"b\\c\nd\te",
            "f": vec![1.0, 1.5, 1e-8, f64::NAN, f64::INFINITY],
            "i": -3i64,
            "u": u64::MAX,
            "o": Option::<u32>::None,
            "t": (SimTime::from_secs(2), true),
            "e": Vec::<u32>::new(),
        };
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0009e\",\"f\":[1,1.5,0.00000001,null,null],\
             \"i\":-3,\"u\":18446744073709551615,\"o\":null,\"t\":[2000000,true],\"e\":[]}"
        );
        assert_eq!(
            json_object! { "a": vec![1u32, 2], "b": json_object! {} }.to_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn numbers_keep_their_kind_and_round_trip() {
        let v = Value::parse(
            "[0, 18446744073709551615, -9223372036854775808, 1.5, 1e2, 18446744073709551616]",
        )
        .expect("valid");
        assert_eq!(
            v,
            Value::Arr(vec![
                Value::U64(0),
                Value::U64(u64::MAX),
                Value::I64(i64::MIN),
                Value::F64(1.5),
                Value::F64(100.0),
                Value::F64(18446744073709551616.0),
            ])
        );
        for x in [
            0.1,
            1.0 / 3.0,
            2.5e-300,
            1.7976931348623157e308,
            385988790.57444954,
        ] {
            let text = Value::F64(x).to_string();
            assert_eq!(
                Value::parse(&text).expect("valid").as_f64(),
                Some(x),
                "{text}"
            );
        }
    }

    #[test]
    fn strings_unescape() {
        let v = Value::parse(r#""a\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00""#).expect("valid");
        assert_eq!(v, Value::Str("a\"\\/\u{8}\u{c}\n\r\té😀".into()));
        let round = Value::Str("tab\there \u{1} é".into());
        assert_eq!(Value::parse(&round.to_string()).expect("valid"), round);
    }

    #[test]
    fn malformed_input_names_line_and_column() {
        assert_eq!(
            parse_err("{\"a\": 1"),
            "1:8: unexpected end of input, expected `,` or `}`"
        );
        assert_eq!(parse_err("[1,]"), "1:3: trailing comma");
        assert_eq!(
            parse_err("{\"a\": 1,\n \"a\": 2}"),
            "2:2: duplicate key `a`"
        );
        assert_eq!(
            parse_err("[NaN]"),
            "1:2: unexpected `N`, expected a value at `[0]`"
        );
        assert_eq!(
            parse_err("[1e999]"),
            "1:2: number `1e999` is out of range at `[0]`"
        );
        assert_eq!(parse_err("[01]"), "1:2: leading zero in number at `[0]`");
        assert_eq!(
            parse_err("{} x"),
            "1:4: trailing characters after the document"
        );
        assert_eq!(parse_err("\"é\u{1}\""), "1:3: control character in string");
        assert_eq!(
            parse_err("\"\\ud800\""),
            "1:2: unpaired surrogate in \\u escape"
        );
        assert!(
            parse_err(&"[".repeat(200)).starts_with("1:129: nesting deeper than 128 at `[0][0]")
        );
    }

    #[test]
    fn typed_reads_check_kind_and_range() {
        let e = |r: Result<Vec<u8>, Error>| r.expect_err("rejected").to_string();
        assert_eq!(
            e(from_str("[1, 256]")),
            "1:5: 256 is out of range for u8 at `[1]`"
        );
        assert_eq!(
            e(from_str("[1, -1]")),
            "1:5: expected an unsigned 64-bit integer, found `-1` at `[1]`"
        );
        assert_eq!(
            e(from_str("[1, 2.0]")),
            "1:5: expected an unsigned 64-bit integer, found `2.0` at `[1]`"
        );
        assert_eq!(
            e(from_str("[\"1\"]")),
            "1:2: expected a number, found a string at `[0]`"
        );
        assert_eq!(e(from_str("{}")), "1:1: expected an array, found an object");
        assert_eq!(from_str::<(u64, f64)>("[3, 4]"), Ok((3, 4.0)));
        assert_eq!(
            from_str::<(u64, f64)>("[3]")
                .expect_err("short")
                .to_string(),
            "1:1: expected a 2-element array"
        );
        assert_eq!(from_str::<Option<SimTime>>("null"), Ok(None));
        assert_eq!(
            from_str::<SimDuration>("1500000"),
            Ok(SimDuration::from_millis(1500))
        );
    }
}
