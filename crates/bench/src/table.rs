//! Rows of cells and the one Markdown writer that renders them. A figure
//! is a [`Section`]; `figures` prints it, a shape test reads a column of it.

use std::fmt;

/// One table cell: the text that is printed and, for a numeric cell, the
/// unrounded number it was printed from (`NaN` for plain text).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub text: String,
    pub value: f64,
}

impl Cell {
    pub fn new(text: String, value: f64) -> Cell {
        Cell { text, value }
    }

    pub fn text(text: impl Into<String>) -> Cell {
        Cell::new(text.into(), f64::NAN)
    }

    pub fn int(n: u64) -> Cell {
        Cell::new(n.to_string(), n as f64)
    }

    pub fn fixed(v: f64, decimals: usize) -> Cell {
        Cell::new(format!("{v:.decimals$}"), v)
    }

    /// Nanoseconds printed as milliseconds; the value is in milliseconds.
    pub fn ms(ns: u64) -> Cell {
        Cell::fixed(ns as f64 / 1e6, 2)
    }

    /// A ratio printed as `1.23x`.
    pub fn times(ratio: f64) -> Cell {
        Cell::new(format!("{ratio:.2}x"), ratio)
    }

    /// A fraction printed as a percentage; the value stays the fraction.
    pub fn pct(fraction: f64, decimals: usize) -> Cell {
        Cell::new(format!("{:.decimals$}%", 100.0 * fraction), fraction)
    }
}

/// One table or figure of the report: a heading, the paper's shape in a
/// sentence or two, and the regenerated rows.
#[derive(Debug, Clone)]
pub struct Section {
    pub title: String,
    pub note: String,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<Cell>>,
}

impl Section {
    pub fn new(title: impl Into<String>, note: &str, columns: &[&'static str]) -> Section {
        Section {
            title: title.into(),
            note: note.to_string(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: row width", self.title);
        self.rows.push(cells);
    }

    fn col(&self, column: &str) -> usize {
        self.columns
            .iter()
            .position(|c| *c == column)
            .unwrap_or_else(|| panic!("{}: no column {column:?}", self.title))
    }

    /// The numbers of one column, top to bottom.
    pub fn values(&self, column: &str) -> Vec<f64> {
        let c = self.col(column);
        self.rows.iter().map(|r| r[c].value).collect()
    }

    /// The printed text of one column, top to bottom.
    pub fn texts(&self, column: &str) -> Vec<&str> {
        let c = self.col(column);
        self.rows.iter().map(|r| r[c].text.as_str()).collect()
    }

    /// The rows whose `column` reads `text`, as a section of their own.
    pub fn filter(&self, column: &str, text: &str) -> Section {
        let c = self.col(column);
        let rows = self.rows.iter().filter(|r| r[c].text == text).cloned().collect();
        Section { rows, ..self.clone() }
    }
}

/// The Markdown writer: `## title`, the note, one pipe table.
impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}\n", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "{}\n", self.note)?;
        }
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        writeln!(f, "|{}", "---|".repeat(self.columns.len()))?;
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_section_renders_as_one_pipe_table_and_reads_back_by_column() {
        let mut s = Section::new("T", "note", &["App", "Speedup", "Share"]);
        s.row(vec![Cell::text("bfs"), Cell::times(2.345), Cell::pct(0.5, 1)]);
        s.row(vec![Cell::text("mis"), Cell::times(4.0), Cell::pct(0.25, 0)]);
        assert_eq!(
            s.to_string(),
            "## T\n\nnote\n\n| App | Speedup | Share |\n|---|---|---|\n\
             | bfs | 2.35x | 50.0% |\n| mis | 4.00x | 25% |\n"
        );
        assert_eq!(s.values("Speedup"), [2.345, 4.0]);
        assert_eq!(s.texts("App"), ["bfs", "mis"]);
        assert_eq!(s.filter("App", "mis").values("Share"), [0.25]);
        assert!(s.values("App")[0].is_nan());
    }
}
