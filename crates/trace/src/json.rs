//! A minimal JSON reader/writer for the trace subsystem.
//!
//! The workspace is zero-dependency by policy, so the JSONL export and
//! its validator cannot use `serde`. This module implements exactly the
//! JSON subset the tracer needs: objects, strings (with the standard
//! escapes), numbers, booleans and null — enough to *emit* trace events
//! and to *parse any* JSON document back for validation, so
//! `trace_report --check` accepts traces produced by other tools too.
//!
//! [`Cursor`] is the one reader every `heron-*-v1` validator is written
//! against: typed member accessors whose errors name the offending
//! member as `<root>.<path>: <what>`.

use std::fmt::{self, Display};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON text.
    ///
    /// The output is deterministic: object member order is preserved as
    /// stored, strings use [`escape`], and numbers use Rust's
    /// shortest-roundtrip `f64` formatting (which is
    /// platform-independent). Non-finite numbers have no JSON spelling
    /// and render as `null` — producers that care should never store
    /// them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value as indented multi-line JSON (two spaces per
    /// level, trailing newline). Deterministic like [`Json::render`].
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.render_pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.render_into(out),
        }
    }
}

/// One step down a [`Cursor`]'s path: an object member or an array
/// element. `&str` and `usize` convert into it, so every accessor takes
/// either.
#[derive(Debug, Clone, Copy)]
pub enum Step<'p> {
    /// An object member.
    Key(&'p str),
    /// An array element.
    Index(usize),
}

impl<'p> From<&'p str> for Step<'p> {
    fn from(key: &'p str) -> Self {
        Step::Key(key)
    }
}

impl From<usize> for Step<'_> {
    fn from(index: usize) -> Self {
        Step::Index(index)
    }
}

/// Where a cursor points: its root label plus the steps taken from it,
/// each step borrowing its parent's path, so descending never
/// allocates — the text is built only when an error is returned.
#[derive(Debug, Clone, Copy)]
enum Path<'p> {
    Root(&'p str),
    Line(usize),
    Child(&'p Path<'p>, Step<'p>),
}

impl Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root(label) => f.write_str(label),
            Path::Line(n) => write!(f, "line {n}"),
            Path::Child(parent, Step::Key(key)) => write!(f, "{parent}.{key}"),
            Path::Child(parent, Step::Index(i)) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A path-carrying read cursor over a parsed document: the reader every
/// artifact validator uses.
///
/// Accessors take a member key or an array index ([`Step`]) and fail
/// with `<root>.<path>: missing` when it is absent, or `…: expected …`
/// when its value has the wrong type — for example
/// `$.jobs[3].slis.ttfc_s: expected a number or null`. Validators return
/// the first such error; cross-field invariants stay hand-written and
/// report through [`Cursor::fail`].
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'j, 'p> {
    value: &'j Json,
    path: Path<'p>,
}

impl<'j, 'p> Cursor<'j, 'p> {
    /// A cursor at `value`, whose errors start with `root` (`$`,
    /// `ring header`, …).
    pub fn new(value: &'j Json, root: &'p str) -> Self {
        let path = Path::Root(root);
        Cursor { value, path }
    }

    /// A cursor at line `n` of a JSONL document (errors start `line n`).
    pub fn line(value: &'j Json, n: usize) -> Self {
        let path = Path::Line(n);
        Cursor { value, path }
    }

    /// The value under the cursor.
    pub fn value(&self) -> &'j Json {
        self.value
    }

    /// The error `<path>: <what>`, for an invariant this value breaks.
    pub fn fail(&self, what: impl Display) -> String {
        format!("{}: {what}", self.path)
    }

    /// Whether the object under the cursor has member `key` (for
    /// optional members).
    pub fn has(&self, key: &str) -> bool {
        self.value.get(key).is_some()
    }

    /// The member or element `step`, of any type (this value must be an
    /// object for a key, an array for an index).
    pub fn get<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<Cursor<'j, 's>, String> {
        let step = step.into();
        let found = match (step, self.value) {
            (Step::Key(key), Json::Obj(_)) => self.value.get(key),
            (Step::Index(i), Json::Arr(items)) => items.get(i),
            (Step::Key(_), _) => return Err(self.fail("expected an object")),
            (Step::Index(_), _) => return Err(self.fail("expected an array")),
        };
        let path = Path::Child(&self.path, step);
        match found {
            Some(value) => Ok(Cursor { value, path }),
            None => Err(format!("{path}: missing")),
        }
    }

    fn typed<'s, T>(
        &'s self,
        step: impl Into<Step<'s>>,
        want: &str,
        read: impl FnOnce(&'j Json) -> Option<T>,
    ) -> Result<T, String> {
        let at = self.get(step)?;
        read(at.value).ok_or_else(|| at.fail(format_args!("expected {want}")))
    }

    /// The number at `step`.
    pub fn num<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<f64, String> {
        self.typed(step, "a number", Json::as_f64)
    }

    /// The non-negative integer at `step`.
    pub fn u64<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<u64, String> {
        self.typed(step, "a non-negative integer", Json::as_u64)
    }

    /// The non-negative integer at `step`, which must fit a `u32`.
    pub fn u32<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<u32, String> {
        self.typed(step, "a 32-bit non-negative integer", |v| {
            v.as_u64().and_then(|n| u32::try_from(n).ok())
        })
    }

    /// The string at `step`.
    pub fn str<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<&'j str, String> {
        self.typed(step, "a string", Json::as_str)
    }

    /// The string at `step`, which must be one of `allowed` (a schema id,
    /// an enumeration).
    pub fn one_of<'s>(
        &'s self,
        step: impl Into<Step<'s>>,
        allowed: &[&str],
    ) -> Result<&'j str, String> {
        let step = step.into();
        let s = self.str(step)?;
        if allowed.contains(&s) {
            return Ok(s);
        }
        let wanted: Vec<String> = allowed.iter().map(|a| format!("`{a}`")).collect();
        let what = format!("expected {}, found `{s}`", wanted.join(" or "));
        Err(self.get(step)?.fail(what))
    }

    /// Reads each of `steps` with `read` — e.g.
    /// `job.each(["id", "state"], Cursor::str)` — for members that need no
    /// further check.
    pub fn each<'s, S: Into<Step<'s>>, T>(
        &'s self,
        steps: impl IntoIterator<Item = S>,
        read: impl Fn(&'s Self, S) -> Result<T, String>,
    ) -> Result<(), String> {
        steps
            .into_iter()
            .try_for_each(|step| read(self, step).map(drop))
    }

    /// The boolean at `step`.
    pub fn bool<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<bool, String> {
        self.typed(step, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The number at `step`, or `None` for `null`.
    pub fn num_or_null<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<Option<f64>, String> {
        self.typed(step, "a number or null", |v| match v {
            Json::Null => Some(None),
            v => v.as_f64().map(Some),
        })
    }

    /// The string at `step`, or `None` for `null`.
    pub fn str_or_null<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<Option<&'j str>, String> {
        self.typed(step, "a string or null", |v| match v {
            Json::Null => Some(None),
            v => v.as_str().map(Some),
        })
    }

    /// The array at `step`, as a cursor to index or iterate.
    pub fn arr<'s>(&'s self, step: impl Into<Step<'s>>) -> Result<Cursor<'j, 's>, String> {
        let at = self.get(step)?;
        match at.value {
            Json::Arr(_) => Ok(at),
            _ => Err(at.fail("expected an array")),
        }
    }

    /// Cursors at the elements of the array under the cursor (none
    /// when it is not an array).
    pub fn items(&self) -> impl ExactSizeIterator<Item = Cursor<'j, '_>> {
        let items: &'j [Json] = self.value.as_arr().unwrap_or(&[]);
        items.iter().enumerate().map(move |(i, value)| Cursor {
            value,
            path: Path::Child(&self.path, Step::Index(i)),
        })
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so input from outside the program
/// must not choose the depth; every artifact this workspace writes
/// nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing whitespace allowed,
/// anything else after the value is an error.
///
/// # Errors
/// A human-readable message with a byte offset on malformed input,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {start}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        // Four hex digits naming a scalar value. Surrogates
                        // are rejected rather than paired: the tracer never
                        // emits them.
                        let c = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte at byte {pos}")),
            Some(_) => {
                // Consume one UTF-8 code point.
                let s = &b[*pos..];
                let step = match s[0] {
                    c if c < 0x80 => 1,
                    c if (0xc0..0xe0).contains(&c) => 2,
                    c if (0xe0..0xf0).contains(&c) => 3,
                    _ => 4,
                };
                let chunk = s
                    .get(..step)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {pos}"))?;
                out.push_str(chunk);
                *pos += step;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    // Only ASCII bytes were consumed, so the slice is valid UTF-8. A
    // number too large for an `f64` has no finite value to render back.
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(format!("invalid number `{text}` at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trace_shaped_lines() {
        let line = r#"{"seq":3,"ev":"open","id":2,"parent":1,"name":"csp.solve","t_ns":120,"fields":{"n":"16","budget":"300"}}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("open"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("fields")
                .and_then(|f| f.get("n"))
                .and_then(Json::as_str),
            Some("16")
        );
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{'single':1}",
            "nul",
            "{\"a\":--1}",
            "1e999",
            "\"\\u+123\"",
            "\"\\u12",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("at byte "), "{bad:?} → {err}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_byte_offset() {
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert_eq!(
            parse(&"[".repeat(1_000_000)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = format!("{}1", "{\"a\":".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
    }

    #[test]
    fn render_roundtrips_and_is_compact() {
        let doc = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5,"e":1000}}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.render(), doc);
        // Round-trip stability: render(parse(render(v))) == render(v).
        let again = parse(&v.render()).expect("reparses");
        assert_eq!(again.render(), v.render());
    }

    #[test]
    fn render_maps_non_finite_to_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
    }

    #[test]
    fn render_pretty_parses_back_equal() {
        let v = parse(r#"{"a":[1,2],"b":{},"c":[],"d":{"e":"f"}}"#).unwrap();
        let pretty = v.render_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("  \"a\": ["));
    }

    #[test]
    fn cursor_errors_name_the_member_path() {
        let doc = parse(r#"{"a":{"b":[1,"x",null]},"s":"v1","t":true,"n":-2}"#).unwrap();
        let root = Cursor::new(&doc, "$");
        let a = root.get("a").unwrap();
        let b = a.arr("b").unwrap();
        assert_eq!(b.items().len(), 3);
        assert_eq!(b.u64(0), Ok(1));
        assert_eq!(b.num(1).unwrap_err(), "$.a.b[1]: expected a number");
        assert_eq!(b.num_or_null(2), Ok(None));
        assert_eq!(
            b.str_or_null(0).unwrap_err(),
            "$.a.b[0]: expected a string or null"
        );
        assert_eq!(b.get(3).unwrap_err(), "$.a.b[3]: missing");
        assert_eq!(b.get("k").unwrap_err(), "$.a.b: expected an object");
        assert_eq!(a.num("c").unwrap_err(), "$.a.c: missing");
        assert_eq!(
            root.u64("n").unwrap_err(),
            "$.n: expected a non-negative integer"
        );
        assert_eq!(root.bool("t"), Ok(true));
        assert_eq!(root.one_of("s", &["v1"]), Ok("v1"));
        assert_eq!(
            root.one_of("s", &["v2", "v3"]).unwrap_err(),
            "$.s: expected `v2` or `v3`, found `v1`"
        );
        assert_eq!(
            root.each(["t", "s"], Cursor::bool).unwrap_err(),
            "$.s: expected a boolean"
        );
        assert_eq!(
            b.each(0..2, Cursor::num).unwrap_err(),
            "$.a.b[1]: expected a number"
        );
        let items: Vec<String> = b.items().map(|c| c.fail("bad")).collect();
        assert_eq!(items, ["$.a.b[0]: bad", "$.a.b[1]: bad", "$.a.b[2]: bad"]);
        let big = parse("{\"n\":4294967296}").unwrap();
        assert_eq!(
            Cursor::line(&big, 7).u32("n").unwrap_err(),
            "line 7.n: expected a 32-bit non-negative integer"
        );
    }

    #[test]
    fn numbers_arrays_literals() {
        let v = parse(" [1, -2.5, 1e3, true, false, null] ").expect("parses");
        match v {
            Json::Arr(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[2].as_f64(), Some(1000.0));
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Bool(false));
                assert_eq!(items[5], Json::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(parse("-2.5").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
