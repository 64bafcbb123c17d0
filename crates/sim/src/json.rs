//! Minimal JSON rendering/parsing for [`Value`] trees.
//!
//! Covers exactly the JSON subset scenario specs need: objects, arrays,
//! strings with the standard escapes, numbers, booleans and `null`. Floats
//! render via Rust's shortest-round-trip `Debug` formatting, so
//! `spec → JSON → spec` is lossless.
//!
//! The `Cursor` that lexes strings, numbers and arrays is shared with
//! [`crate::toml`], whose values are spelled the same way.

use std::fmt::Write;

use crate::value::{from_value, to_value, SpecError, Value};
use serde::de::DeserializeOwned;
use serde::ser::Serialize;

/// Deepest array/object/table nesting either text parser accepts. Real
/// specs and snapshots stay under ten; the bound turns a hostile
/// `[[[[...` into an error instead of a stack overflow.
pub(crate) const MAX_DEPTH: usize = 128;

/// Serialize any value as pretty-printed JSON.
pub fn to_json_string<T: Serialize + ?Sized>(value: &T) -> Result<String, SpecError> {
    Ok(render(&to_value(value)?))
}

/// Deserialize any value from JSON text.
pub fn from_json_str<T: DeserializeOwned>(text: &str) -> Result<T, SpecError> {
    from_value(parse(text)?)
}

/// Render a [`Value`] as pretty-printed JSON (2-space indent).
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(value: &Value, indent: usize, out: &mut String) {
    let newline = |out: &mut String, indent: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", indent));
    };
    match value {
        Value::Unit => out.push_str("null"),
        Value::Seq(items) if items.is_empty() => out.push_str("[]"),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent + 1);
                render_into(item, indent + 1, out);
            }
            newline(out, indent);
            out.push(']');
        }
        Value::Map(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent + 1);
                render_string(key, out);
                out.push_str(": ");
                render_into(item, indent + 1, out);
            }
            newline(out, indent);
            out.push('}');
        }
        scalar => render_scalar(scalar, out),
    }
}

/// Booleans, numbers and strings, which JSON and TOML spell alike.
pub(crate) fn render_scalar(value: &Value, out: &mut String) {
    let done = match value {
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(n) => write!(out, "{n}"),
        Value::UInt(n) => write!(out, "{n}"),
        Value::Float(f) => write!(out, "{f:?}"),
        Value::Str(s) => {
            render_string(s, out);
            Ok(())
        }
        Value::Unit | Value::Seq(_) | Value::Map(_) => unreachable!("not a scalar"),
    };
    done.expect("writing to a String cannot fail");
}

/// A double-quoted string with the escapes both formats share.
pub(crate) fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse JSON text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, SpecError> {
    Cursor::new(text, Dialect::Json).document()
}

/// Which spellings the [`Cursor`] admits beyond the shared ones.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Dialect {
    /// Objects and `null`.
    Json,
    /// `+` signs and `_` digit separators in numbers.
    Toml,
}

/// A position in a text holding one value: the lexer for the literals JSON
/// and TOML share (strings, numbers, booleans, arrays) plus JSON's own.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    dialect: Dialect,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str, dialect: Dialect) -> Self {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            dialect,
        }
    }

    /// The single value the text holds, with nothing after it.
    pub(crate) fn document(mut self) -> Result<Value, SpecError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing garbage"));
        }
        Ok(v)
    }

    fn error(&self, what: &str) -> SpecError {
        SpecError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kw: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(kw.as_bytes());
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, SpecError> {
        let json = self.dialect == Dialect::Json;
        match self.peek() {
            Some(b'{') if json => self
                .nested(b'}', |c, entries: &mut Vec<_>| {
                    let key = c.string()?;
                    c.skip_ws();
                    if !c.eat(":") {
                        return Err(c.error("expected `:`"));
                    }
                    c.skip_ws();
                    entries.push((key, c.value()?));
                    Ok(())
                })
                .map(Value::Map),
            Some(b'[') => self
                .nested(b']', |c, items: &mut Vec<_>| {
                    items.push(c.value()?);
                    Ok(())
                })
                .map(Value::Seq),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if json && self.eat("null") => Ok(Value::Unit),
            Some(b'+') if !json => self.number(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("unrecognized value")),
        }
    }

    /// A bracketed, comma-separated list closed by `close`; `item` parses
    /// one element into `out`. The one place nesting deepens, so the one
    /// place [`MAX_DEPTH`] is enforced.
    fn nested<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self, &mut Vec<T>) -> Result<(), SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1; // opening bracket
        let mut out = Vec::new();
        self.skip_ws();
        // TOML tolerates a trailing comma; JSON closes only after an item.
        while self.peek() != Some(close) || (self.dialect == Dialect::Json && !out.is_empty()) {
            item(self, &mut out)?;
            self.skip_ws();
            if self.peek() == Some(close) {
                break;
            }
            if !self.eat(",") {
                return Err(self.error(&format!("expected `,` or `{}`", close as char)));
            }
            self.skip_ws();
        }
        self.pos += 1; // closing bracket
        self.depth -= 1;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, SpecError> {
        if !self.eat("\"") {
            return Err(self.error("expected `\"`"));
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        _ => return Err(self.error("invalid escape")),
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. The input
                    // is a `&str` and both delimiters are ASCII, so the run
                    // ends on a character boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("str boundary"));
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, SpecError> {
        let toml = self.dialect == Dialect::Toml;
        let start = self.pos;
        self.pos += usize::from(matches!(self.peek(), Some(b'-' | b'+')));
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {}
                b'_' if toml => {}
                b'.' | b'e' | b'E' => is_float = true,
                b'-' | b'+' if is_float => {}
                _ => break,
            }
            self.pos += 1;
        }
        let mut text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii")
            .to_string();
        if toml {
            text.retain(|c| c != '_' && c != '+');
        }
        let parsed = if is_float {
            text.parse().map(Value::Float).ok()
        } else if text.starts_with('-') {
            text.parse().map(Value::Int).ok()
        } else {
            text.parse().map(Value::UInt).ok()
        };
        parsed.ok_or_else(|| SpecError(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::UInt(42),
            Value::Int(-7),
            Value::Float(0.125),
            Value::Str("hi \"there\"\n".into()),
        ] {
            assert_eq!(parse(&render(&v)).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn nested_round_trips() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::UInt(1), Value::UInt(2)])),
            (
                "b".into(),
                Value::Map(vec![("c".into(), Value::Float(1.5))]),
            ),
            ("empty_seq".into(), Value::Seq(vec![])),
            ("empty_map".into(), Value::Map(vec![])),
        ]);
        assert_eq!(parse(&render(&v)).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("+1").is_err());
        assert!(parse("1_000").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // Used to overflow the stack and abort the process.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.0.contains("128"), "{err}");
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }
}
