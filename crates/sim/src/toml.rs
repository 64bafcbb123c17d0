//! Minimal TOML rendering/parsing for [`Value`] trees.
//!
//! Supports the TOML subset scenario specs use: `[a.b]` tables, bare and
//! quoted keys, strings, booleans, integers, floats and single-line arrays
//! of scalars. Nested maps become dotted table headers, so an
//! externally-tagged enum like `TrafficSpec::Uniform` renders naturally as
//! `[traffic.Uniform]`. Not supported (and not emitted): dates, multi-line
//! strings, arrays of tables, inline tables.

use crate::json::{render_scalar, render_string, Cursor, Dialect, MAX_DEPTH};
use crate::value::{from_value, to_value, SpecError, Value};
use serde::de::DeserializeOwned;
use serde::ser::Serialize;

/// Serialize any value as TOML text. The value must serialize to a map.
pub fn to_toml_string<T: Serialize + ?Sized>(value: &T) -> Result<String, SpecError> {
    render(&to_value(value)?)
}

/// Deserialize any value from TOML text.
pub fn from_toml_str<T: DeserializeOwned>(text: &str) -> Result<T, SpecError> {
    from_value(parse(text)?)
}

/// Render a top-level map as TOML.
pub fn render(value: &Value) -> Result<String, SpecError> {
    let Value::Map(entries) = value else {
        return Err(SpecError(format!(
            "TOML documents are tables; got {} at top level",
            value.kind()
        )));
    };
    let mut out = String::new();
    render_table(entries, &mut Vec::new(), &mut out)?;
    Ok(out)
}

fn render_table(
    entries: &[(String, Value)],
    path: &mut Vec<String>,
    out: &mut String,
) -> Result<(), SpecError> {
    // Scalars and arrays first: everything after a `[section]` header would
    // otherwise be swallowed into that section.
    for (key, value) in entries {
        if !matches!(value, Value::Map(_)) {
            out.push_str(&render_key(key));
            out.push_str(" = ");
            render_inline(value, out)?;
            out.push('\n');
        }
    }
    for (key, value) in entries {
        if let Value::Map(sub) = value {
            path.push(key.clone());
            out.push('\n');
            out.push('[');
            out.push_str(
                &path
                    .iter()
                    .map(|seg| render_key(seg))
                    .collect::<Vec<_>>()
                    .join("."),
            );
            out.push_str("]\n");
            render_table(sub, path, out)?;
            path.pop();
        }
    }
    Ok(())
}

fn render_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        key.to_string()
    } else {
        let mut s = String::new();
        render_string(key, &mut s);
        s
    }
}

fn render_inline(value: &Value, out: &mut String) -> Result<(), SpecError> {
    match value {
        Value::Unit => {
            return Err(SpecError(
                "TOML cannot represent a unit value; use the JSON form".into(),
            ))
        }
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_inline(item, out)?;
            }
            out.push(']');
        }
        Value::Map(_) => {
            return Err(SpecError(
                "tables inside arrays are outside the supported TOML subset".into(),
            ))
        }
        scalar => render_scalar(scalar, out),
    }
    Ok(())
}

/// Parse TOML text into a [`Value::Map`].
pub fn parse(text: &str) -> Result<Value, SpecError> {
    let mut root: Vec<(String, Value)> = Vec::new();
    let mut path: Vec<String> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        parse_line(strip_comment(raw).trim(), &mut root, &mut path)
            .map_err(|e| SpecError(format!("line {}: {}", lineno + 1, e.0)))?;
    }
    Ok(Value::Map(root))
}

/// One line: blank, a `[table.header]` that moves `path`, or `key = value`
/// stored in the table `path` names.
fn parse_line(
    line: &str,
    root: &mut Vec<(String, Value)>,
    path: &mut Vec<String>,
) -> Result<(), SpecError> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(header) = line.strip_prefix('[') {
        let header = header
            .strip_suffix(']')
            .ok_or_else(|| SpecError("unterminated table header".into()))?;
        if header.starts_with('[') {
            return Err(SpecError(
                "arrays of tables are outside the supported TOML subset".into(),
            ));
        }
        *path = parse_dotted_key(header)?;
        if path.len() > MAX_DEPTH {
            return Err(SpecError(format!(
                "table nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        // Create the table eagerly so empty sections still exist.
        table_at(root, path)?;
        return Ok(());
    }
    let (key, rest) = split_key_value(line)?;
    let value = Cursor::new(rest, Dialect::Toml).document()?;
    let table = table_at(root, path)?;
    if table.iter().any(|(k, _)| k == &key) {
        return Err(SpecError(format!("duplicate key `{key}`")));
    }
    table.push((key, value));
    Ok(())
}

/// Strip a `#` comment, respecting basic strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_string = !in_string,
            b'\\' if in_string => i += 1,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_dotted_key(s: &str) -> Result<Vec<String>, SpecError> {
    let mut segs = Vec::new();
    for seg in s.split('.') {
        let seg = seg.trim();
        let seg = if let Some(stripped) = seg.strip_prefix('"') {
            stripped
                .strip_suffix('"')
                .ok_or_else(|| SpecError("unterminated quoted key".into()))?
                .to_string()
        } else {
            if seg.is_empty()
                || !seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(SpecError(format!("invalid key segment `{seg}`")));
            }
            seg.to_string()
        };
        segs.push(seg);
    }
    Ok(segs)
}

fn split_key_value(line: &str) -> Result<(String, &str), SpecError> {
    // The key is everything before the first `=` outside a string; our keys
    // never contain `=`, so a plain find is enough.
    let eq = line
        .find('=')
        .ok_or_else(|| SpecError("expected `key = value`".into()))?;
    let key_part = line[..eq].trim();
    let mut segs = parse_dotted_key(key_part)?;
    if segs.len() != 1 {
        return Err(SpecError(
            "dotted keys in assignments are not supported".into(),
        ));
    }
    Ok((segs.remove(0), line[eq + 1..].trim()))
}

fn table_at<'a>(
    root: &'a mut Vec<(String, Value)>,
    path: &[String],
) -> Result<&'a mut Vec<(String, Value)>, SpecError> {
    let mut current = root;
    for seg in path {
        if !current.iter().any(|(k, _)| k == seg) {
            current.push((seg.clone(), Value::Map(Vec::new())));
        }
        let idx = current
            .iter()
            .position(|(k, _)| k == seg)
            .expect("just ensured");
        match &mut current[idx].1 {
            Value::Map(sub) => current = sub,
            other => {
                return Err(SpecError(format!(
                    "key `{seg}` is a {}, not a table",
                    other.kind()
                )))
            }
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&render(v).unwrap()).unwrap()
    }

    #[test]
    fn flat_table_round_trips() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(3)),
            ("b".into(), Value::Float(0.5)),
            ("c".into(), Value::Str("hi # not a comment".into())),
            ("d".into(), Value::Bool(false)),
            ("e".into(), Value::Seq(vec![Value::UInt(1), Value::UInt(2)])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn nested_tables_round_trip() {
        let v = Value::Map(vec![
            ("top".into(), Value::UInt(1)),
            (
                "traffic".into(),
                Value::Map(vec![(
                    "Uniform".into(),
                    Value::Map(vec![
                        ("rate".into(), Value::Float(0.1)),
                        ("single_vnet".into(), Value::Bool(true)),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let v = parse("# header\n\na = 1 # trailing\n[s]\nb = \"x#y\"\n").unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                ("a".into(), Value::UInt(1)),
                (
                    "s".into(),
                    Value::Map(vec![("b".into(), Value::Str("x#y".into()))])
                ),
            ])
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(parse("a = 1\na = 2\n").is_err());
    }

    #[test]
    fn floats_keep_their_precision() {
        let v = Value::Map(vec![("r".into(), Value::Float(0.1))]);
        assert_eq!(roundtrip(&v), v);
        let v = Value::Map(vec![("r".into(), Value::Float(1.0))]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn nesting_is_bounded() {
        // Used to overflow the stack and abort the process.
        let err = parse(&format!("x = {}", "[".repeat(200_000))).unwrap_err();
        assert!(err.0.contains("line 1") && err.0.contains("128"), "{err}");
        let header = format!("[{}]", vec!["a"; 200_000].join("."));
        assert!(parse(&header).is_err());
    }

    #[test]
    fn toml_number_spellings_are_accepted() {
        assert_eq!(
            parse("a = +1_000\nb = [1, 2,]\n").unwrap(),
            Value::Map(vec![
                ("a".into(), Value::UInt(1000)),
                ("b".into(), Value::Seq(vec![Value::UInt(1), Value::UInt(2)])),
            ])
        );
    }
}
