//! Minimal JSON reading/writing for snapshot exchange.
//!
//! The build environment has no registry access, so instead of
//! `serde_json` this module carries a small self-contained JSON document
//! model ([`Value`]) with its writer ([`Value::to_json`]), one lexer —
//! the pull [`Reader`] — and the codec for [`SignedDigraph`].
//!
//! The lexer runs in linear time: a string's plain bytes are copied one
//! run at a time, and a digits-only number of at most 15 digits is
//! summed as an integer, which is exact. [`Value::parse`] builds a tree
//! with it; the graph and snapshot codecs read with it straight into
//! edge lists and then CSR arrays, never building a [`Value`]. Both
//! follow one grammar, so they accept the same documents.
//!
//! Arrays and objects nest at most 128 levels deep, serde_json's default
//! recursion limit; a deeper document is a [`JsonError`]. [`Value::parse`]
//! recurses once per level, so the limit bounds its stack use whatever
//! the input.
//!
//! Numbers are `f64`. The writer emits integral values without a decimal
//! point and everything else through Rust's shortest-round-trip `{:?}`
//! formatting, so `parse(to_json(v)) == v` holds bit-exactly for every
//! finite weight.
//!
//! # Graph schema
//!
//! ```json
//! {"nodes": 4, "edges": [[0, 1, 1, 0.5], [1, 2, -1, 0.25]]}
//! ```
//!
//! Each edge is `[src, dst, sign, weight]` with `sign` being `1` or `-1`.

use crate::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use std::borrow::Cow;
use std::fmt;

/// The deepest nesting of arrays and objects a [`Reader`] accepts.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Error produced when parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }

    /// The error for a required object field that is absent.
    pub fn missing(key: &str) -> Self {
        JsonError::new(format!("missing field `{key}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or trailing input after
    /// the document.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut reader = Reader::new(input);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The number inside, if this is a [`Value::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number inside as a `u64`, if it is integral and in the range
    /// where `f64` represents integers exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number inside as a `usize`, if it is integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().and_then(index_from_f64)
    }

    /// The string inside, if this is a [`Value::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items inside, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field, if this is a [`Value::Object`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`get`](Value::get) but decoding failures become errors.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `self` is not an object or the key
    /// is absent.
    pub fn require(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key).ok_or_else(|| JsonError::missing(key))
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if n.is_infinite() {
        // The parser reads an overflowing literal as infinity, so this
        // keeps `parse(to_json(v)) == v` where `{:?}` would write `inf`.
        out.push_str(if n > 0.0 { "1e999" } else { "-1e999" });
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64).expect("writing to String cannot fail");
    } else {
        // `{:?}` is Rust's shortest representation that parses back to
        // the same bits.
        write!(out, "{n:?}").expect("writing to String cannot fail");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A pull reader over one JSON document, and the one lexer of this
/// module: [`Value::parse`] is built on it, and the codecs read
/// straight into their own types with it.
///
/// Every `read_*` method first skips whitespace. When the next value has
/// the asked-for type it is read; otherwise it is skipped, validated as
/// [`Value::parse`] would, and the method returns `None`. So a decoder
/// can note a schema violation and keep reading: malformed JSON anywhere
/// in the document is still reported first, as by [`Value::parse`].
///
/// ```
/// use isomit_graph::json::Reader;
///
/// # fn main() -> Result<(), isomit_graph::json::JsonError> {
/// let mut reader = Reader::new(r#"{"a": [1, 2], "b": "x"}"#);
/// let mut sum = 0.0;
/// let mut fields = reader.read_object()?.expect("an object");
/// while let Some(key) = fields.next_key(&mut reader)? {
///     match &*key {
///         "a" => {
///             let mut items = reader.read_array()?.expect("an array");
///             while items.next_item(&mut reader)? {
///                 sum += reader.read_number()?.unwrap_or(0.0);
///             }
///         }
///         _ => reader.skip()?,
///     }
/// }
/// reader.finish()?;
/// assert_eq!(sum, 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

/// Iteration state of one array or object opened by a [`Reader`]:
/// whether the next member is the first, and the closing byte.
#[derive(Debug)]
pub struct Members {
    first: bool,
    close: u8,
}

impl Members {
    /// Moves to the next item of an array: `true` with the reader at the
    /// item, which the caller must read or skip, or `false` past `]`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the array is malformed.
    pub fn next_item(&mut self, reader: &mut Reader<'_>) -> Result<bool, JsonError> {
        if !self.separator(reader)? {
            return Ok(false);
        }
        reader.skip_ws();
        Ok(true)
    }

    /// Moves to the next field of an object: its decoded key with the
    /// reader at the value, which the caller must read or skip, or
    /// `None` past `}`. A key without escapes is borrowed from the
    /// input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the object is malformed.
    pub fn next_key<'a>(
        &mut self,
        reader: &mut Reader<'a>,
    ) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.separator(reader)? {
            return Ok(None);
        }
        reader.skip_ws();
        let key = reader.string()?;
        reader.skip_ws();
        reader.eat(b':')?;
        reader.skip_ws();
        Ok(Some(key))
    }

    /// Consumes the `,` before a member, or the closing byte.
    fn separator(&mut self, reader: &mut Reader<'_>) -> Result<bool, JsonError> {
        if std::mem::take(&mut self.first) {
            if reader.peek() == Some(self.close) {
                reader.leave();
                return Ok(false);
            }
            return Ok(true);
        }
        reader.skip_ws();
        match reader.peek() {
            Some(b',') => {
                reader.pos += 1;
                Ok(true)
            }
            Some(b) if b == self.close => {
                reader.leave();
                Ok(false)
            }
            _ => Err(reader.err(if self.close == b']' {
                "expected `,` or `]`"
            } else {
                "expected `,` or `}`"
            })),
        }
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            text: input,
            pos: 0,
            depth: 0,
        }
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Requires that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on trailing input.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// Opens an object; iterate it with [`Members::next_key`]. Any other
    /// value is skipped and gives `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when a skipped value is malformed.
    pub fn read_object(&mut self) -> Result<Option<Members>, JsonError> {
        self.open(b'{', b'}')
    }

    /// Opens an array; iterate it with [`Members::next_item`]. Any other
    /// value is skipped and gives `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when a skipped value is malformed.
    pub fn read_array(&mut self) -> Result<Option<Members>, JsonError> {
        self.open(b'[', b']')
    }

    /// Reads a number; any other value is skipped and gives `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is malformed.
    pub fn read_number(&mut self) -> Result<Option<f64>, JsonError> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Reads a node index: a number accepted by [`Value::as_usize`].
    /// Any other value is skipped and gives `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is malformed.
    pub fn read_index(&mut self) -> Result<Option<usize>, JsonError> {
        Ok(self.read_number()?.and_then(index_from_f64))
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    /// Any other value is skipped and gives `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is malformed.
    pub fn read_string(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Reads an array whose items `item` decodes. A schema violation —
    /// not an array, or the first item `item` refuses — is returned as
    /// the inner error, after the rest of the array was skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is malformed.
    pub fn read_vec<T>(
        &mut self,
        field: &str,
        mut item: impl FnMut(&mut Self) -> Result<Result<T, JsonError>, JsonError>,
    ) -> Result<Result<Vec<T>, JsonError>, JsonError> {
        let Some(mut items) = self.read_array()? else {
            return Ok(Err(JsonError::new(format!("`{field}` must be an array"))));
        };
        let mut out = Vec::new();
        let mut refused = None;
        while items.next_item(self)? {
            if refused.is_some() {
                self.skip()?;
                continue;
            }
            match item(self)? {
                Ok(value) => out.push(value),
                Err(e) => refused = Some(e),
            }
        }
        Ok(refused.map_or(Ok(out), Err))
    }

    /// Skips one value, validating it as [`Value::parse`] would.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is malformed.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        // Scalars skip without allocating; containers are rare here.
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.value().map(drop),
        }
    }

    /// Skips one value by bracket depth alone, without validating it:
    /// for a span that another reader will validate. Strings are skipped
    /// whole, escapes included; a scalar runs to the next delimiter. The
    /// nesting limit still applies, counted from the document root, so a
    /// span this accepts nests no deeper than a parse of the whole
    /// document allows.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value is empty, unterminated or
    /// nested too deep.
    pub fn skip_unchecked(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.skip_unchecked_string(),
            Some(b'{' | b'[') => {
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        Some(b'{' | b'[') => {
                            if self.depth + depth == MAX_DEPTH {
                                return Err(self.too_deep());
                            }
                            depth += 1;
                            self.pos += 1;
                        }
                        Some(b'}' | b']') => {
                            depth -= 1;
                            self.pos += 1;
                            if depth == 0 {
                                return Ok(());
                            }
                        }
                        Some(b'"') => self.skip_unchecked_string()?,
                        Some(_) => self.pos += 1,
                        None => return Err(self.err("unterminated value")),
                    }
                }
            }
            _ => {
                let start = self.pos;
                while !matches!(
                    self.peek(),
                    None | Some(b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
                ) {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(self.err("expected a JSON value"));
                }
                Ok(())
            }
        }
    }

    fn skip_unchecked_string(&mut self) -> Result<(), JsonError> {
        self.pos += 1;
        loop {
            match self.peek() {
                Some(b'\\') => self.pos += 2,
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn open(&mut self, open: u8, close: u8) -> Result<Option<Members>, JsonError> {
        self.skip_ws();
        if self.peek() == Some(open) {
            self.members(close).map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Consumes the opening byte of a container known to be next, one
    /// level deeper.
    fn members(&mut self, close: u8) -> Result<Members, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(Members { first: true, close })
    }

    /// Consumes the closing byte of the innermost open container.
    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.pos += 1;
    }

    fn too_deep(&self) -> JsonError {
        self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = self.members(b']')?;
                let mut values = Vec::new();
                while items.next_item(self)? {
                    values.push(self.value()?);
                }
                Ok(Value::Array(values))
            }
            Some(b'{') => {
                let mut members = self.members(b'}')?;
                let mut fields = Vec::new();
                while let Some(key) = members.next_key(self)? {
                    let value = self.value()?;
                    fields.push((key.into_owned(), value));
                }
                Ok(Value::Object(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid number bytes"))?;
        // Below 10^15 every integer is exact in f64, so summing digits
        // yields the bits `parse` would.
        if text.len() <= 15 && text.bytes().all(|b| b.is_ascii_digit()) {
            let n = text.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
            return Ok(n as f64);
        }
        text.parse::<f64>()
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        // Set once an escape is met; until then the string is a slice.
        let mut owned: Option<String> = None;
        loop {
            // One run of plain bytes: `"` and `\` are ASCII, so the run
            // ends on a character boundary.
            let start = self.pos;
            let rest = self.text.as_bytes().get(start..).unwrap_or_default();
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .as_bytes()
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    self.pos += 4;
                    out.push(
                        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?,
                    );
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }
}

/// A `usize` node index when `n` is integral and in `0..=u32::MAX`.
fn index_from_f64(n: f64) -> Option<usize> {
    (n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)).then_some(n as usize)
}

/// A graph document read but not yet built: an edge list that passed
/// [`SignedDigraph::from_edge_vec`]'s checks and the node count it
/// spans. A decoder can compare that count with the rest of its
/// document before the CSR arrays are allocated.
#[derive(Debug, Clone)]
pub struct GraphDoc {
    node_count: usize,
    edges: Vec<Edge>,
}

impl GraphDoc {
    /// Reads one graph value (see the [module docs](crate::json) for the
    /// schema), with the first-match rule of [`Value::get`] for
    /// duplicated keys; other keys are validated and ignored.
    ///
    /// # Errors
    ///
    /// The outer error is malformed JSON. The inner error is a schema
    /// violation or an invalid edge, reported as by [`Value`] decoding:
    /// a missing or mistyped `nodes`, then `edges`, then the first bad
    /// edge. The value was read to its end either way.
    pub fn read(reader: &mut Reader<'_>) -> Result<Result<GraphDoc, JsonError>, JsonError> {
        let mut nodes = None;
        let mut edges = None;
        if let Some(mut fields) = reader.read_object()? {
            while let Some(key) = fields.next_key(reader)? {
                match &*key {
                    "nodes" if nodes.is_none() => nodes = Some(reader.read_index()?),
                    "edges" if edges.is_none() => {
                        edges = Some(reader.read_vec("edges", read_edge)?)
                    }
                    _ => reader.skip()?,
                }
            }
        }
        Ok(GraphDoc::check(nodes, edges))
    }

    /// The schema checks of a graph's fields, in the `Value` decoding's
    /// order.
    fn check(
        nodes: Option<Option<usize>>,
        edges: Option<Result<Vec<Edge>, JsonError>>,
    ) -> Result<GraphDoc, JsonError> {
        let nodes = nodes
            .ok_or_else(|| JsonError::missing("nodes"))?
            .ok_or_else(|| JsonError::new("`nodes` must be a non-negative integer"))?;
        let edges = edges.ok_or_else(|| JsonError::missing("edges"))??;
        let node_count = SignedDigraph::checked_node_count(nodes, &edges)
            .map_err(|e| JsonError::new(format!("invalid graph: {e}")))?;
        Ok(GraphDoc { node_count, edges })
    }

    /// Nodes of the graph it builds: `nodes`, or one past the largest
    /// endpoint when that is larger.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Builds the graph.
    pub fn build(self) -> SignedDigraph {
        SignedDigraph::from_validated_edges(self.node_count, self.edges)
    }
}

/// One `[src, dst, sign, weight]` edge. Its length is checked before
/// its parts, as the `Value` decoding did.
fn read_edge(reader: &mut Reader<'_>) -> Result<Result<Edge, JsonError>, JsonError> {
    let shape = || JsonError::new("each edge must be [src, dst, sign, weight]");
    let Some(mut items) = reader.read_array()? else {
        return Ok(Err(shape()));
    };
    let mut parts = [None; 4];
    let mut len = 0usize;
    while items.next_item(reader)? {
        match parts.get_mut(len) {
            Some(part) => *part = reader.read_number()?,
            None => reader.skip()?,
        }
        len += 1;
    }
    Ok(if len == 4 {
        edge_from_parts(parts)
    } else {
        Err(shape())
    })
}

/// The edge four numbers (`None` where the item was not a number) make,
/// checked in item order.
fn edge_from_parts([src, dst, sign, weight]: [Option<f64>; 4]) -> Result<Edge, JsonError> {
    let src = src
        .and_then(index_from_f64)
        .ok_or_else(|| JsonError::new("edge src must be a node id"))?;
    let dst = dst
        .and_then(index_from_f64)
        .ok_or_else(|| JsonError::new("edge dst must be a node id"))?;
    let sign = if sign == Some(1.0) {
        Sign::Positive
    } else if sign == Some(-1.0) {
        Sign::Negative
    } else {
        return Err(JsonError::new("edge sign must be 1 or -1"));
    };
    let weight = weight.ok_or_else(|| JsonError::new("edge weight must be a number"))?;
    Ok(Edge::new(
        NodeId::from_index(src),
        NodeId::from_index(dst),
        sign,
        weight,
    ))
}

impl SignedDigraph {
    /// Encodes the graph as a JSON [`Value`] (see the
    /// [module docs](crate::json) for the schema).
    pub fn to_json_value(&self) -> Value {
        let edges = self
            .edges()
            .map(|e| {
                Value::Array(vec![
                    Value::Number(e.src.0 as f64),
                    Value::Number(e.dst.0 as f64),
                    Value::Number(e.sign.value() as f64),
                    Value::Number(e.weight),
                ])
            })
            .collect();
        Value::Object(vec![
            ("nodes".into(), Value::Number(self.node_count() as f64)),
            ("edges".into(), Value::Array(edges)),
        ])
    }

    /// Encodes the graph as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a graph from a JSON string in one pass, straight into an
    /// edge list and then the CSR arrays (see [`GraphDoc::read`]).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or trailing input, then
    /// on a structurally invalid graph document.
    pub fn from_json_str(input: &str) -> Result<Self, JsonError> {
        let mut reader = Reader::new(input);
        let doc = GraphDoc::read(&mut reader)?;
        reader.finish()?;
        Ok(doc?.build())
    }
}

impl NodeState {
    /// The one-character snapshot encoding: `+`, `-`, `0` or `?`.
    pub fn as_symbol(&self) -> &'static str {
        match self {
            NodeState::Positive => "+",
            NodeState::Negative => "-",
            NodeState::Inactive => "0",
            NodeState::Unknown => "?",
        }
    }

    /// Parses the encoding produced by [`as_symbol`](NodeState::as_symbol).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for any symbol other than `+`, `-`, `0`
    /// or `?`.
    pub fn from_symbol(symbol: &str) -> Result<Self, JsonError> {
        match symbol {
            "+" => Ok(NodeState::Positive),
            "-" => Ok(NodeState::Negative),
            "0" => Ok(NodeState::Inactive),
            "?" => Ok(NodeState::Unknown),
            other => Err(JsonError::new(format!("unknown node state `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "\"hi \\\"there\\\"\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-8] {
            let v = Value::Number(x);
            let back = Value::parse(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_document() {
        let text = r#" {"a": [1, 2.5, {"b": null}], "c": "\u0041\n"} "#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("A\n"));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        // Round trip through the compact writer.
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"\\q\""] {
            assert!(Value::parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn integer_fast_path_equals_the_float_parse_bit_for_bit() {
        // Every length from 1 to 16 digits (16 takes `parse`), with and
        // without leading zeros, and the largest values of each length.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 1..=16usize {
            for case in 0..200 {
                let digits: String = (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        match case {
                            0 => '9',
                            1 if i + 1 < len => '0',
                            _ => char::from(b'0' + (state >> 60) as u8 % 10),
                        }
                    })
                    .collect();
                let lexed = Value::parse(&digits).unwrap().as_f64().unwrap();
                let parsed: f64 = digits.parse().unwrap();
                assert_eq!(lexed.to_bits(), parsed.to_bits(), "{digits}");
            }
        }
    }

    #[test]
    fn strings_round_trip_multibyte_text_and_escapes_beside_plain_runs() {
        for text in [
            "plain",
            "",
            "héllo wörld ✓ 𝄞 日本語",
            "a\"b\\c\nd\te\u{1}f",
            "\u{8}\u{c}/ mixed é\"\\ 𝄞\n",
        ] {
            let encoded = Value::String(text.to_owned()).to_json();
            assert_eq!(Value::parse(&encoded).unwrap().as_str(), Some(text));
        }
        let escaped = r#""ab\u00e9cd\/ef\"gh\u0041""#;
        assert_eq!(
            Value::parse(escaped).unwrap().as_str(),
            Some("abécd/ef\"ghA")
        );
        // A string without escapes is borrowed from the input.
        let mut reader = Reader::new(r#""日本" "a\nb""#);
        assert!(matches!(
            reader.read_string(),
            Ok(Some(Cow::Borrowed("日本")))
        ));
        assert!(matches!(reader.read_string(), Ok(Some(Cow::Owned(s))) if s == "a\nb"));
    }

    #[test]
    fn infinities_round_trip_as_overflowing_literals() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = Value::Number(x).to_json();
            assert_eq!(Value::parse(&text).unwrap().as_f64(), Some(x), "{text}");
        }
    }

    #[test]
    fn reader_skips_mistyped_values_and_reports_malformed_ones() {
        let mut reader = Reader::new(r#"["x", {"a": [1, null]}, 3, true] "#);
        let mut items = reader.read_array().unwrap().unwrap();
        let mut numbers = Vec::new();
        while items.next_item(&mut reader).unwrap() {
            numbers.push(reader.read_number().unwrap());
        }
        assert_eq!(numbers, [None, None, Some(3.0), None]);
        reader.finish().unwrap();

        for text in ["[1,]", "[nul]", r#"["\q"]"#, r#"{"a" 1}"#, "[1 2]"] {
            let mut reader = Reader::new(text);
            assert!(reader.read_number().is_err(), "{text}");
            assert_eq!(
                Reader::new(text).skip().unwrap_err(),
                Value::parse(text).unwrap_err(),
                "{text}"
            );
        }
        let mut reader = Reader::new("{} x");
        reader.skip().unwrap();
        assert!(reader.finish().is_err());
    }

    #[test]
    fn unchecked_skip_finds_the_span_a_parse_would_read() {
        for (text, span) in [
            (
                r#" {"a": "}]\"", "b": [1, {"c": []}]} , 7"#,
                r#"{"a": "}]\"", "b": [1, {"c": []}]}"#,
            ),
            ("7 ,", "7"),
            (r#""s\\" ]"#, r#""s\\""#),
            // Malformed inside but balanced: the span still ends at the
            // matching bracket, for another reader to refuse.
            (r#"{"x": nul, "y": [1,]}, 2"#, r#"{"x": nul, "y": [1,]}"#),
        ] {
            let mut reader = Reader::new(text);
            reader.skip_unchecked().unwrap();
            assert_eq!(text[..reader.offset()].trim_start(), span);
        }
        for text in [r#"{"a": [1}"#, r#""open"#, ","] {
            assert!(Reader::new(text).skip_unchecked().is_err(), "{text}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_128_levels_on_a_default_stack() {
        // Before the bound, 10,000 levels overflowed a default-size
        // thread stack and aborted the process.
        std::thread::spawn(|| {
            let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
            assert!(Value::parse(&nested(128)).is_ok());
            Reader::new(&nested(128)).skip().unwrap();
            Reader::new(&nested(128)).skip_unchecked().unwrap();
            for depth in [129, 100_000] {
                let text = nested(depth);
                let err = Value::parse(&text).unwrap_err();
                assert_eq!(
                    err,
                    JsonError::new("nesting deeper than 128 levels at byte 128")
                );
                assert_eq!(Reader::new(&text).skip().unwrap_err(), err);
                assert_eq!(Reader::new(&text).skip_unchecked().unwrap_err(), err);
            }
            // Objects count too, and closed siblings give their level back.
            let objects = r#"{"a":"#.repeat(129) + "1" + &"}".repeat(129);
            assert!(Value::parse(&objects).is_err());
            let siblings = format!("[{}]", vec![nested(127); 300].join(","));
            assert!(Value::parse(&siblings).is_ok());
            // Containers a decoder opens count from the document root.
            let mut reader = Reader::new(&siblings);
            let mut items = reader.read_array().unwrap().unwrap();
            assert!(items.next_item(&mut reader).unwrap());
            reader.skip_unchecked().unwrap();
            let mut reader = Reader::new("[[[]]]");
            reader.depth = MAX_DEPTH - 2;
            assert!(reader.skip().is_err());
        })
        .join()
        .expect("deep documents are refused, not overflowing the stack");
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Number(1.0).as_bool(), None);
        assert_eq!(Value::Number(42.0).as_u64(), Some(42));
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(0.5).as_u64(), None);
        assert_eq!(Value::String("x".into()).as_u64(), None);
    }

    #[test]
    fn node_state_symbols() {
        for s in [
            NodeState::Positive,
            NodeState::Negative,
            NodeState::Inactive,
            NodeState::Unknown,
        ] {
            assert_eq!(NodeState::from_symbol(s.as_symbol()).unwrap(), s);
        }
        assert!(NodeState::from_symbol("x").is_err());
    }
}
