//! Aligned text tables for experiment output.

use std::fmt;

/// A simple aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (printed above).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
    /// Indices of the columns whose cells depend on the host — wall
    /// clock, or counts that move with scheduling — declared through
    /// [`Table::host_columns`] by the experiment that fills them.
    /// They print like any other cell; the determinism fingerprint
    /// ([`crate::perf::render_masked`]) hides exactly these.
    pub host_cols: Vec<usize>,
}

impl Table {
    /// A new table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            host_cols: Vec::new(),
        }
    }

    /// Declare the columns under these headers host-dependent. By
    /// header, not by index: the declaration follows a column when
    /// one is added or moved beside it.
    pub fn host_columns(&mut self, headers: &[&str]) {
        for h in headers {
            let col = self.headers.iter().position(|x| x == h);
            self.host_cols
                .push(col.unwrap_or_else(|| panic!("no column {h:?} in {:?}", self.title)));
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Append rows, in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Vec<String>>) {
        for cells in rows {
            self.row(cells);
        }
    }

    /// Append a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{c:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Format a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a float with fixed precision.
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert!(s.contains("note: hello"));
        // Header and rows align: every line reaches the same column for
        // the second field.
        let lines: Vec<&str> = s.lines().collect();
        let name_col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), name_col);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
    }
}
