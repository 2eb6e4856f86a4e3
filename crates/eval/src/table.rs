//! Plain-text table rendering for experiment reports.

/// A simple column-aligned text table (also renderable as Markdown), used by
/// every experiment driver to print paper-style tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells are rendered empty, extra cells are kept.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            let mut cells = row.clone();
            cells.resize(self.headers.len(), String::new());
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        widths
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "{}", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        writeln!(f, "  {}", header.join("  "))?;
        writeln!(
            f,
            "  {}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
        )?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
                })
                .collect();
            writeln!(f, "  {}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text_and_markdown() {
        let mut t = TextTable::new("Demo", &["Method", "Time (s)"]);
        t.add_row(vec!["PAIRWISE".into(), "321".into()]);
        t.add_row(vec!["INDEX".into(), "1.6".into()]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.title(), "Demo");
        let text = t.to_string();
        assert!(text.contains("PAIRWISE"));
        assert!(text.contains("Time (s)"));
        let md = t.to_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| PAIRWISE | 321 |"));
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn short_rows_are_padded_in_markdown() {
        let mut t = TextTable::new("Pad", &["a", "b", "c"]);
        t.add_row(vec!["1".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| 1 |  |  |"));
    }
}
