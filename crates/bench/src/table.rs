//! Aligned-column result tables with optional CSV output.

use std::fmt::Write as _;
use std::path::Path;

/// A simple results table: print aligned to stdout and/or dump CSV.
///
/// ```
/// use sb_bench::Table;
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&["1".into(), "2.5".into()]);
/// assert!(t.to_csv().contains("x,y"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{c:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The end of every figure binary: print to stdout, then write the CSV
    /// to `csv` — the `--csv` value — creating directories as needed.
    /// Absent or `-` (the default `--help` prints) writes no file.
    ///
    /// # Panics
    ///
    /// Panics, naming the path, if the file cannot be written.
    pub fn finish(&self, csv: Option<&str>) {
        self.print();
        if let Some(path) = csv_path(csv) {
            let dir = path.parent().unwrap_or(Path::new(""));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(path, self.to_csv()))
                .unwrap_or_else(|e| panic!("write csv {}: {e}", path.display()));
        }
    }

    /// CSV form (header row + data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Where a `--csv` value asks for the file: nowhere when absent or `-`.
fn csv_path(csv: Option<&str>) -> Option<&Path> {
    csv.filter(|&p| p != "-").map(Path::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("t", &["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn dash_writes_no_csv() {
        assert_eq!(csv_path(None), None);
        assert_eq!(csv_path(Some("-")), None);
        assert_eq!(csv_path(Some("out/t.csv")), Some(Path::new("out/t.csv")));
    }

    #[test]
    fn finish_writes_the_csv_where_asked() {
        let dir = std::env::temp_dir().join(format!("sb-table-{}", std::process::id()));
        let path = dir.join("nested/t.csv");
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.finish(path.to_str());
        let written = std::fs::read_to_string(&path).expect("csv written");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(written, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("t", &["a"]).row(&["1".into(), "2".into()]);
    }
}
