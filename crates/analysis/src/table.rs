//! Plain-text table rendering for the regenerated tables, plus a small
//! CSV writer (no external format crates in the offline set).

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let mut out = String::with_capacity((total + 1) * (self.rows.len() + 2));
        let push_row = |out: &mut String, cells: &[String]| {
            let start = out.len();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            let kept = out[start..].trim_end().len();
            out.truncate(start + kept);
            out.push('\n');
        };
        push_row(&mut out, &self.header);
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for row in &self.rows {
            push_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (RFC 4180-style quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_csv_cell(&mut out, cell);
            }
            out.push('\n');
        }
        out
    }
}

/// Append `cell` to a CSV line, quoted (RFC 4180 style) if it holds a
/// comma, a quote, a line feed or a carriage return.
pub(crate) fn push_csv_cell(out: &mut String, cell: &str) {
    if needs_quotes(cell) {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

/// True when `cell` holds a comma, a quote, a line feed or a carriage
/// return, so CSV must quote it.
pub(crate) fn needs_quotes(cell: &str) -> bool {
    cell.bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
}

/// Append `ip` as a dotted quad — what `write!(out, "{ip}")` appends, minus
/// the trip through `fmt` once per octet. The census CSV oracle's
/// reference writer uses it.
#[cfg(test)]
pub(crate) fn push_ipv4(out: &mut String, ip: std::net::Ipv4Addr) {
    for (i, octet) in ip.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        if octet >= 100 {
            out.push(char::from(b'0' + octet / 100));
        }
        if octet >= 10 {
            out.push(char::from(b'0' + octet / 10 % 10));
        }
        out.push(char::from(b'0' + octet % 10));
    }
}

/// Format a fraction as a percent string with one decimal.
pub fn pct(numerator: f64, denominator: f64) -> String {
    if denominator == 0.0 {
        "0.0%".to_string()
    } else {
        format!("{:.1}%", numerator * 100.0 / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_ipv4_matches_display_for_every_octet_in_every_position() {
        let mut out = String::new();
        for position in 0..4 {
            for value in 0..=u8::MAX {
                let mut octets = [7, 42, 199, 0];
                octets[position] = value;
                let ip = std::net::Ipv4Addr::from(octets);
                out.clear();
                push_ipv4(&mut out, ip);
                assert_eq!(out, ip.to_string());
            }
        }
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Country", "Transparent", "Share"]);
        t.row(["BRA", "250000", "84.0%"]);
        t.row(["IND", "82500", "80.2%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Country"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("250000"));
        // Columns align: "Transparent" position identical in all rows.
        let col = lines[0].find("Transparent").unwrap();
        assert_eq!(&lines[2][col..col + 6], "250000");
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.rows.len(), 1);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = TextTable::new(["name", "note"]);
        t.row(["plain", "with,comma"]);
        t.row(["q\"uote", "line"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"q\"\"uote\""));
        assert!(csv.starts_with("name,note\n"));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(26.0, 100.0), "26.0%");
        assert_eq!(pct(1.0, 3.0), "33.3%");
        assert_eq!(pct(5.0, 0.0), "0.0%");
    }
}
