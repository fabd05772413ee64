//! Plain-text table formatting and JSON artifact dumping.

use serde::Serialize;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory all experiment binaries write their JSON artifacts into.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("experiments_out");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serializes a result object as pretty JSON under `experiments_out/`.
pub fn dump_json<T: Serialize>(name: &str, value: &T) -> io::Result<PathBuf> {
    let path = out_dir().join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value).map_err(io::Error::other)?)?;
    Ok(path)
}

/// Writes a plain-text report next to the JSON artifact.
pub fn dump_text(name: &str, text: &str) -> io::Result<PathBuf> {
    let path = out_dir().join(format!("{name}.txt"));
    fs::write(&path, text)?;
    Ok(path)
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a score to the paper's 3-decimal style.
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats seconds adaptively.
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.0} ms", s * 1e3)
    } else if s < 100.0 {
        format!("{s:.2} s")
    } else {
        format!("{s:.0} s")
    }
}

/// Path helper for reading artifacts back.
pub fn artifact(name: &str) -> PathBuf {
    Path::new("experiments_out").join(name)
}
