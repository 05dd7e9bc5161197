//! # polykey-bench: the paper's evaluation, regenerated
//!
//! One binary, `bench`, runs every table and figure of *"On the One-Key
//! Premise of Logic Locking"* (DAC'24) as a registered
//! [`harness::Scenario`], plus per-layer timings of the substrates:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `bench --only fig1a` | Fig. 1(a) error distribution |
//! | `bench --only table1` | Table 1 (`#DIP` vs splitting effort on SARLock) |
//! | `bench --only table2` | Table 2 (runtime vs LUT-based insertion) |
//! | `bench --only matrix` | the `LockScheme` × effort × circuit sweep |
//! | `bench --only batch` | batched-DIP sweep: oracle rounds vs queries at widths 1/8/32/64 |
//! | `bench --only adaptive` | adaptive budget-driven term tree vs static `N` |
//! | `bench --only ablation_split` | split-port heuristic ablation (§4) |
//! | `bench --only defense_probe` | the conclusion's defense direction |
//! | `bench --only layers` | per-layer timings: packed simulation, the oracle's event-driven single-pattern simulation (a recorded SARLock DIP sequence and random patterns), re-synthesis, LUT locking, the attack's session encoding, per-DIP constraint encoding (pseudo-random DIPs and the recorded SARLock DIPs, both through the attack's own encoding), CDCL solver (including the DIP loop's incremental pattern), equivalence proofs |
//!
//! (`bench` is `cargo run --release -p polykey-bench --bin bench --`.)
//! Every run prints the scenarios' tables, writes `BENCH_*.json`
//! telemetry, and can gate against a baseline with `--compare`; see the
//! [`harness`] module docs for the JSON schema and the baseline workflow.
//!
//! This library hosts the harness itself plus the small shared utilities:
//! plain-text table rendering, duration formatting, and an offline JSON
//! emitter/parser ([`json`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod json;

use std::fmt::Write as _;
use std::time::Duration;

/// A plain-text table with aligned columns.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let print_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = width[i] - cell.chars().count();
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        print_row(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            print_row(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let _ = writeln!(out, "{}", self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Formats a duration in engineering style: `421ms`, `3.21s`, `2m14s`.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 0.001 {
        format!("{:.0}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.2}s")
    } else {
        let m = (secs / 60.0).floor();
        format!("{m:.0}m{:.0}s", secs - m * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["a", "long-header", "c"]);
        t.row(vec!["1", "2", "3"]);
        t.row(vec!["wide-cell", "x", "y"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.row(vec!["a,b", "quote\"inside"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"quote\"\"inside\""));
    }

    #[test]
    fn durations_format() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(3.214)), "3.21s");
        assert_eq!(fmt_duration(Duration::from_secs(134)), "2m14s");
    }
}
