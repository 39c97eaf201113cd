//! Tiny fixed-width table formatter for experiment output.

use std::fmt::Write as _;

/// A printable experiment table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. A row shorter than the header renders as if padded
    /// with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Append a footer: one text cell in the first column, the rest empty.
    pub fn footer(&mut self, text: impl Into<String>) {
        self.rows.push(vec![text.into()]);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", line(&self.headers, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("bbbb"));
        assert_eq!(s.lines().count(), 5);
    }
}
