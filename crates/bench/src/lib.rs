//! # gfs-bench — reporting helpers for the figure/table harnesses
//!
//! Every figure and table of the paper has a `cargo bench` target in
//! `benches/` (plain `main` binaries, `harness = false`). Each prints the
//! series or rows the paper reports plus a paper-vs-measured comparison
//! block. This library holds the shared formatting.

use simcore::TimeSeries;

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Print a paper-vs-measured comparison row.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<46} paper: {paper:>12}   measured: {measured:>12}");
}

/// Print a table of rows with a header.
pub fn table(columns: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .max()
                .unwrap_or(0)
                .max(c.len())
        })
        .collect();
    let head: Vec<String> = columns
        .iter()
        .zip(&widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    println!("  {}", head.join("  "));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("  {}", rule.join("  "));
    for r in rows {
        let cells: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", cells.join("  "));
    }
}

/// Render a time series as an ASCII strip chart (the "figure").
///
/// `scale` converts the stored values into display units; `unit` labels
/// them. Each output row is one sample bucket.
pub fn chart(series: &TimeSeries, scale: f64, unit: &str, width: usize) {
    if series.points.is_empty() {
        println!("  (empty series)");
        return;
    }
    let max = series
        .points
        .iter()
        .map(|p| p.value * scale)
        .fold(0.0, f64::max);
    let max = if max <= 0.0 { 1.0 } else { max };
    println!("  {} [0 .. {max:.1} {unit}]", series.name);
    for p in &series.points {
        let v = p.value * scale;
        let n = ((v / max) * width as f64).round() as usize;
        println!(
            "  {:>7.1}s |{:<width$}| {v:>8.1}",
            p.t.as_secs_f64(),
            "#".repeat(n.min(width)),
        );
    }
}

/// Downsample a series to at most `n` points (averaging buckets) so charts
/// stay terminal-sized.
pub fn downsample(series: &TimeSeries, n: usize) -> TimeSeries {
    if series.points.len() <= n || n == 0 {
        return series.clone();
    }
    let mut out = TimeSeries::new(series.name.clone());
    let chunk = series.points.len().div_ceil(n);
    for block in series.points.chunks(chunk) {
        let t = block.last().expect("nonempty chunk").t;
        let mean = block.iter().map(|p| p.value).sum::<f64>() / block.len() as f64;
        out.push(t, mean);
    }
    out
}

/// The bound a gate row holds its measured number to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Within `tol` (relative) of the paper's value. A paper value of 0
    /// admits only 0.
    Paper { value: f64, tol: f64 },
    /// At least this much.
    Floor(f64),
    /// At most this much.
    Ceiling(f64),
}

/// One gate row: a claim, the number measured for it and its bound. A row
/// reads `[OK ]` when the number meets the bound and `[OFF]` otherwise
/// (a NaN meets none).
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub metric: String,
    pub measured: f64,
    pub bound: Bound,
}

impl Gate {
    fn new(metric: impl Into<String>, measured: f64, bound: Bound) -> Gate {
        let metric = metric.into();
        Gate {
            metric,
            measured,
            bound,
        }
    }

    /// `measured` within `tol` (relative) of the paper's value.
    pub fn paper(metric: impl Into<String>, paper: f64, measured: f64, tol: f64) -> Gate {
        Gate::new(metric, measured, Bound::Paper { value: paper, tol })
    }

    /// `measured` at least `floor`.
    pub fn floor(metric: impl Into<String>, floor: f64, measured: f64) -> Gate {
        Gate::new(metric, measured, Bound::Floor(floor))
    }

    /// `measured` at most `ceiling`.
    pub fn ceiling(metric: impl Into<String>, ceiling: f64, measured: f64) -> Gate {
        Gate::new(metric, measured, Bound::Ceiling(ceiling))
    }

    /// Does the measured number meet the bound?
    pub fn ok(&self) -> bool {
        let m = self.measured;
        match self.bound {
            Bound::Paper { value: 0.0, .. } => m == 0.0,
            Bound::Paper { value, tol } => (m - value).abs() / value.abs() <= tol,
            Bound::Floor(f) => m >= f,
            Bound::Ceiling(c) => m <= c,
        }
    }

    /// The row as printed: mark, claim, bound and measured number.
    pub fn line(&self) -> String {
        let mark = if self.ok() { "OK " } else { "OFF" };
        let (metric, m) = (&self.metric, self.measured);
        let (kind, bound) = match self.bound {
            Bound::Paper { value, .. } => ("paper", value),
            Bound::Floor(f) => ("floor", f),
            Bound::Ceiling(c) => ("ceil ", c),
        };
        let mut line = format!("[{mark}] {metric:<42} {kind} {bound:>10.2}  measured {m:>10.2}");
        if matches!(self.bound, Bound::Paper { .. }) && bound != 0.0 {
            line += &format!("  ({:+.1}%)", 100.0 * (m - bound) / bound);
        }
        line
    }
}

/// Print a paper-vs-measured gate row: measured within `tol` (relative)
/// of the paper value.
pub fn verdict(metric: &str, paper: f64, measured: f64, tol: f64) {
    println!("  {}", Gate::paper(metric, paper, measured, tol).line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn downsample_preserves_mean_roughly() {
        let mut s = TimeSeries::new("x");
        for i in 0..100u64 {
            s.push(SimTime::from_secs(i), 10.0);
        }
        let d = downsample(&s, 10);
        assert!(d.points.len() <= 10);
        assert!((d.mean() - 10.0).abs() < 1e-9);
    }

    fn mark(g: Gate) -> String {
        g.line()[..5].to_string()
    }

    #[test]
    fn a_paper_row_is_off_just_past_its_tolerance() {
        assert_eq!(mark(Gate::paper("p", 10.0, 11.0, 0.1)), "[OK ]");
        assert_eq!(mark(Gate::paper("p", 10.0, 9.0, 0.1)), "[OK ]");
        assert_eq!(mark(Gate::paper("p", 10.0, 11.001, 0.1)), "[OFF]");
        assert_eq!(mark(Gate::paper("p", 10.0, 8.999, 0.1)), "[OFF]");
        // A paper value of 0 admits only 0 (relative error is undefined).
        assert_eq!(mark(Gate::paper("p", 0.0, 0.0, 0.1)), "[OK ]");
        assert_eq!(mark(Gate::paper("p", 0.0, 1e-9, 0.1)), "[OFF]");
    }

    #[test]
    fn a_floor_row_is_off_just_below_its_floor() {
        assert_eq!(mark(Gate::floor("f", 50.0, 50.0)), "[OK ]");
        assert_eq!(mark(Gate::floor("f", 50.0, 49.999)), "[OFF]");
        assert_eq!(mark(Gate::floor("f", 1.0, 0.0)), "[OFF]");
    }

    #[test]
    fn a_ceiling_row_is_off_just_above_its_ceiling() {
        assert_eq!(mark(Gate::ceiling("c", 2.5, 2.5)), "[OK ]");
        assert_eq!(mark(Gate::ceiling("c", 2.5, 2.5001)), "[OFF]");
        // Stale reads, divergences, ops that gave up, expulsions.
        assert_eq!(mark(Gate::ceiling("c", 0.0, 0.0)), "[OK ]");
        assert_eq!(mark(Gate::ceiling("c", 0.0, 1.0)), "[OFF]");
        assert_eq!(mark(Gate::ceiling("c", 0.0, f64::MIN_POSITIVE)), "[OFF]");
    }

    #[test]
    fn a_nan_meets_no_bound() {
        assert!(!Gate::paper("p", 1.0, f64::NAN, 0.5).ok());
        assert!(!Gate::floor("f", 0.0, f64::NAN).ok());
        assert!(!Gate::ceiling("c", 0.0, f64::NAN).ok());
    }

    #[test]
    fn downsample_short_series_untouched() {
        let mut s = TimeSeries::new("x");
        s.push(SimTime::from_secs(0), 1.0);
        let d = downsample(&s, 10);
        assert_eq!(d.points.len(), 1);
    }
}
