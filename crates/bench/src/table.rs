//! Console table formatting and TSV export for experiment output.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write as TSV under `target/experiments/<name>.tsv`.
    pub fn write_tsv_named(&self, name: &str) -> io::Result<PathBuf> {
        let mut content = String::new();
        let _ = writeln!(content, "{}", self.headers.join("\t"));
        for row in &self.rows {
            let _ = writeln!(content, "{}", row.join("\t"));
        }
        write_tsv(name, &content)
    }
}

/// Write raw TSV content under `target/experiments/<name>.tsv` and return
/// the path.
pub fn write_tsv(name: &str, content: &str) -> io::Result<PathBuf> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.tsv"));
    std::fs::write(&path, content)?;
    Ok(path)
}

/// `target/experiments` relative to the workspace root (falls back to the
/// current directory's `target/`).
pub fn experiments_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(base).join("experiments")
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("long-name"));
        let lines: Vec<&str> = r.lines().collect();
        // Header + separator + 2 rows + title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn tsv_roundtrip() {
        let mut t = Table::new("T", &["x", "y"]);
        t.add_row(vec!["1".into(), "2".into()]);
        let path = t.write_tsv_named("unit-test-table").unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "x\ty\n1\t2\n");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.5), "1.50");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(1.5e-5), "15.0us");
    }
}
