//! Plain-text result rendering: Markdown and CSV tables.
//!
//! `serde_json` is not on the allowed dependency list, so `tad-bench`'s
//! `paper` binary (README "Reproducing the paper") prints Markdown (for
//! humans) and CSV (for plotting) through this small builder.

/// A simple table: named columns, string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count differs from the column count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Formats a metric with 4 decimal places (the paper's precision).
    pub fn metric(x: f64) -> String {
        format!("{x:.4}")
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (RFC-4180-ish; cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Computes the "Improvement" row the paper's tables carry: the relative
/// gain of `ours` over the best `baselines` value, as a percentage string.
pub fn improvement_pct(ours: f64, baselines: &[f64]) -> String {
    let best = baselines.iter().copied().fold(f64::NAN, f64::max);
    if !best.is_finite() || best <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (ours - best) / best * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_layout() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("", &["x"]);
        t.push_row(vec!["hello, \"world\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, \"\"world\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn improvement_formatting() {
        assert_eq!(improvement_pct(0.9, &[0.8, 0.75]), "+12.5%");
        assert_eq!(improvement_pct(0.72, &[0.8]), "-10.0%");
        assert_eq!(improvement_pct(0.9, &[]), "n/a");
    }

    #[test]
    fn metric_precision() {
        assert_eq!(Table::metric(0.93714), "0.9371");
    }
}
