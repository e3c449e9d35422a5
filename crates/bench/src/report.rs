//! Plain-text report building: aligned tables that mirror the rows/series of the
//! paper's figures.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Shorter rows are padded with empty cells; longer rows are
    /// truncated to the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut header_line = String::new();
        for (h, w) in self.header.iter().zip(&widths) {
            let _ = write!(header_line, "{:>width$}  ", h, width = w);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{:>width$}  ", cell, width = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

/// Formats a float with a sensible number of significant digits for a report cell.
pub fn fmt(value: f64) -> String {
    if !value.is_finite() {
        return "-".to_string();
    }
    if value == 0.0 {
        return "0".to_string();
    }
    let abs = value.abs();
    if abs >= 100.0 {
        format!("{value:.1}")
    } else if abs >= 1.0 {
        format!("{value:.3}")
    } else if abs >= 0.001 {
        format!("{value:.5}")
    } else {
        format!("{value:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = Table::new("demo", &["scheme", "value"]);
        assert!(t.is_empty());
        t.row(&["topk".to_string(), "1.0".to_string()]);
        t.row(&["sidco".to_string(), "41.7".to_string()]);
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("scheme"));
        assert!(rendered.contains("41.7"));
        // Every data line has the same width structure (ends aligned).
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn row_padding_and_truncation() {
        let mut t = Table::new("demo", &["a", "b", "c"]);
        t.row(&["1".to_string()]);
        t.row(&[
            "1".to_string(),
            "2".to_string(),
            "3".to_string(),
            "4".to_string(),
        ]);
        let rendered = t.render();
        assert!(!rendered.contains('4'), "extra cells must be dropped");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(f64::NAN), "-");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(0.01234), "0.01234");
        assert!(fmt(0.0000123).contains('e'));
    }
}
