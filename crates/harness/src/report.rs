//! Plain-text tables for experiment and example output.
//!
//! The examples print the paper's comparisons as small aligned tables on
//! stdout (who wins, by what factor). [`telemetry_histogram_table`] renders a
//! [`TelemetrySnapshot`]'s histograms the same way, so examples and binaries
//! print latency distributions without each reinventing the formatting.

use nvm_sim::TelemetrySnapshot;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match the header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for rows of displayable values.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header_line.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Renders every histogram of a telemetry snapshot as one table row
/// (count, mean, p50/p90/p99 and max). Quantiles are upper bounds of the
/// log-scaled buckets, clamped to the observed maximum.
pub fn telemetry_histogram_table(title: &str, snapshot: &TelemetrySnapshot) -> Table {
    let mut table = Table::new(
        title,
        &["metric", "count", "mean", "p50", "p90", "p99", "max"],
    );
    for h in &snapshot.histograms {
        if h.count == 0 {
            continue;
        }
        table.row(&[
            h.name.clone(),
            h.count.to_string(),
            format!("{:.1}", h.mean()),
            h.p50().to_string(),
            h.p90().to_string(),
            h.p99().to_string(),
            h.max.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["impl", "fences/update", "ops/s"]);
        t.row_display(&["onll", "1.00", "123456"]);
        t.row_display(&["wal-2-fence", "2.00", "9999"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("wal-2-fence"));
        // All data lines have equal length.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row_display(&["only-one"]);
    }

    #[test]
    fn telemetry_tables_render_snapshot_metrics() {
        let telemetry = nvm_sim::Telemetry::enabled();
        telemetry.counter("ckpt.checkpoints").add(3);
        let h = telemetry.histogram("sim.fence_ns");
        for v in [10u64, 100, 1000] {
            h.record(v);
        }
        let snap = telemetry.snapshot();
        let hist = telemetry_histogram_table("latency", &snap);
        assert_eq!(hist.len(), 1);
        let rendered = hist.render();
        assert!(rendered.contains("sim.fence_ns"));
        assert!(rendered.contains("p99"));
    }
}
