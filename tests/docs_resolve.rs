//! DESIGN.md and README.md name files and items in backticks; both must
//! exist. A path is a span starting `crates/`, `tests/`, `examples/`,
//! `src/` or `results/`; an item is a span holding `A::b`, and its last
//! segment must be an identifier somewhere in the sources. Spans inside
//! fenced blocks (commands, their output) are not read.

use std::collections::HashSet;
use std::path::Path;

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];
const PATH_ROOTS: [&str; 5] = ["crates/", "tests/", "examples/", "src/", "results/"];
const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "vendor", "benchmark/src"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The inline code spans of a markdown text.
fn spans(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            found.extend(line.split('`').skip(1).step_by(2).map(str::to_string));
        }
    }
    found
}

/// `A::{b, c}` → `A::b`, `A::c`; `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`.
fn expand_braces(span: &str) -> Vec<String> {
    let Some((head, rest)) = span.split_once('{') else {
        return vec![span.to_string()];
    };
    let Some((alternatives, tail)) = rest.split_once('}') else {
        return vec![span.to_string()];
    };
    alternatives
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn collect_idents(dir: &Path, into: &mut HashSet<String>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_idents(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file reads");
            into.extend(
                text.split(|c| !is_ident_char(c))
                    .filter(|word| !word.is_empty())
                    .map(str::to_string),
            );
        }
    }
}

#[test]
fn backticked_paths_and_items_resolve() {
    let mut idents = HashSet::new();
    for dir in SOURCE_DIRS {
        collect_idents(&root().join(dir), &mut idents);
    }
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc reads");
        for span in spans(&text).iter().flat_map(|span| expand_braces(span)) {
            if PATH_ROOTS.iter().any(|at| span.starts_with(at)) && !span.contains(' ') {
                // `file.rs::a_test` names the file.
                let path = span.split(':').next().expect("split yields one");
                if !root().join(path).exists() {
                    stale.push(format!("{doc}: no file `{span}`"));
                }
            } else if let Some((_, last)) = span.rsplit_once("::") {
                let name: String = last.chars().take_while(|&c| is_ident_char(c)).collect();
                if !name.is_empty() && !idents.contains(&name) {
                    stale.push(format!("{doc}: nothing named `{name}` (from `{span}`)"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}
