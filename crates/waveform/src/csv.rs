//! CSV export of aligned waveform columns.

use crate::wave::{Waveform, WaveformError};
use std::io::{self, Write};

/// A multi-column table of waveforms sharing one time axis, for CSV export.
///
/// Columns added after the first are linearly resampled onto the first
/// column's grid, so traces from different solvers (closed form vs.
/// simulator) land in one aligned file.
///
/// # Examples
///
/// ```
/// use ssn_waveform::{CsvTable, Waveform};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = Waveform::from_fn(0.0, 1.0, 5, |t| t)?;
/// let sim = Waveform::from_fn(0.0, 1.0, 9, |t| t * 1.01)?;
/// let mut table = CsvTable::new("time", &model, "model");
/// table.push("sim", &sim)?;
/// let mut buf = Vec::new();
/// table.write(&mut buf)?;
/// let text = String::from_utf8(buf)?;
/// assert!(text.starts_with("time,model,sim"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsvTable {
    time_label: String,
    times: Vec<f64>,
    labels: Vec<String>,
    columns: Vec<Vec<f64>>,
}

impl CsvTable {
    /// Starts a table using `first`'s time grid.
    pub fn new(time_label: impl Into<String>, first: &Waveform, label: impl Into<String>) -> Self {
        Self {
            time_label: time_label.into(),
            times: first.times().to_vec(),
            labels: vec![label.into()],
            columns: vec![first.values().to_vec()],
        }
    }

    /// Appends a column, resampling `w` onto the table grid.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError`] if resampling fails (cannot happen for a
    /// valid table grid, but propagated for robustness).
    pub fn push(&mut self, label: impl Into<String>, w: &Waveform) -> Result<(), WaveformError> {
        let resampled = w.resample_onto(&self.times)?;
        self.labels.push(label.into());
        self.columns.push(resampled.values().to_vec());
        Ok(())
    }

    /// Writes the table as CSV. Pass `&mut` of any `Write` (the generic is
    /// taken by value, so a mutable reference works).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, mut out: W) -> io::Result<()> {
        write!(out, "{}", self.time_label)?;
        for l in &self.labels {
            write!(out, ",{l}")?;
        }
        writeln!(out)?;
        for (i, t) in self.times.iter().enumerate() {
            write!(out, "{t:.9e}")?;
            for col in &self.columns {
                write!(out, ",{:.9e}", col[i])?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Renders the table to a `String` (convenience over [`CsvTable::write`]).
    pub fn to_csv_string(&self) -> String {
        let mut buf = Vec::new();
        // Writing to a Vec is infallible; a lossy UTF-8 pass keeps this
        // panic-free without changing the (ASCII) output.
        let _ = self.write(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Waveform {
        Waveform::from_fn(0.0, 1.0, n, |t| t).unwrap()
    }

    #[test]
    fn header_and_row_count() {
        let w = ramp(5);
        let mut t = CsvTable::new("t", &w, "a");
        t.push("b", &w.map(|v| 2.0 * v)).unwrap();
        let s = t.to_csv_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "t,a,b");
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn columns_are_aligned_by_resampling() {
        let coarse = ramp(3);
        let fine = ramp(101).map(|v| v * 10.0);
        let mut t = CsvTable::new("t", &coarse, "coarse");
        t.push("fine", &fine).unwrap();
        let s = t.to_csv_string();
        // Middle row: t = 0.5, coarse = 0.5, fine = 5.0.
        let mid: Vec<&str> = s.lines().nth(2).unwrap().split(',').collect();
        let fine_val: f64 = mid[2].parse().unwrap();
        assert!((fine_val - 5.0).abs() < 1e-6);
    }

    #[test]
    fn values_use_scientific_notation() {
        let w = ramp(2);
        let t = CsvTable::new("t", &w, "v");
        assert!(t.to_csv_string().contains("e0") || t.to_csv_string().contains("e-"));
    }
}
