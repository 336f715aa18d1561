//! Sample summaries, the tail-percentile rule, metric records and the
//! layer-sum table — the benchmark's own arithmetic, kept free of I/O so the
//! self-tests can pin it down.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// True when `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The median of `xs` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples strictly beyond it: the value at ascending rank
/// `n − 1 − TAIL_BEYOND`, reported with its percentile level
/// `100 · rank / (n − 1)` (the linear-interpolation convention, so an exact
/// order statistic needs no interpolation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Its percentile level, 0–100.
    pub percentile: f64,
    /// Sample count it was taken from.
    pub n: usize,
}

/// Applies the tail rule; `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist (no percentile has ten samples beyond it).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    let percentile = if n == 1 {
        100.0
    } else {
        100.0 * rank as f64 / (n - 1) as f64
    };
    Some(Tail {
        value: v[rank],
        percentile,
        n,
    })
}

/// Per-repetition latency summary: the median and the tail of each
/// repetition, then the median of those across repetitions — one slow
/// repetition cannot move the reported figure, and every repetition has the
/// same sample count, so the tail percentile means the same thing in every
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median across repetitions of the per-repetition median.
    pub p50: f64,
    /// Median across repetitions of the per-repetition tail value.
    pub tail: f64,
    /// Percentile level of the tail (from the smallest repetition).
    pub tail_percentile: f64,
    /// Samples per repetition (the smallest repetition's count).
    pub per_rep: usize,
    /// Repetitions summarized.
    pub reps: usize,
}

/// Summarizes latency samples grouped by repetition. Repetitions too small
/// for the tail rule contribute their median only; `None` when no
/// repetition has any sample.
pub fn summarize_reps(reps: &[Vec<f64>]) -> Option<LatencySummary> {
    let medians: Vec<f64> = reps.iter().filter_map(|r| median(r)).collect();
    let tails: Vec<Tail> = reps.iter().filter_map(|r| tail(r)).collect();
    let p50 = median(&medians)?;
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let smallest = tails.iter().min_by_key(|t| t.n);
    Some(LatencySummary {
        p50,
        tail: median(&tail_values).unwrap_or(f64::NAN),
        tail_percentile: smallest.map_or(f64::NAN, |t| t.percentile),
        per_rep: reps
            .iter()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .min()
            .unwrap_or(0),
        reps: medians.len(),
    })
}

/// Adds `<prefix>_p50_ms` and `<prefix>_tail_ms` from per-repetition
/// latency samples in ms.
pub fn push_latency(m: &mut Metrics, prefix: &str, reps: &[Vec<f64>], what: &str) {
    match summarize_reps(reps) {
        Some(s) => {
            let base = format!("{what}; {} samples/rep x {} reps", s.per_rep, s.reps);
            m.push(
                &format!("{prefix}_p50_ms"),
                "ms",
                s.p50,
                format!("median of rep medians; {base}"),
            );
            m.push(
                &format!("{prefix}_tail_ms"),
                "ms",
                s.tail,
                format!(
                    "p{:.2} (10 samples beyond), median over reps; {base}",
                    s.tail_percentile
                ),
            );
        }
        None => {
            m.push(&format!("{prefix}_p50_ms"), "ms", f64::NAN, what);
            m.push(&format!("{prefix}_tail_ms"), "ms", f64::NAN, what);
        }
    }
}

/// Whole-window throughput of a run's repetitions: total operations over
/// total wall time (`raw`), and the same with each repetition's wall time
/// rescaled to a host that runs the reference kernel in `nominal_s`
/// seconds — `wall × nominal_s / ref_s`, with `ref_s` the kernel's time just
/// before that repetition (`normalized`). On a host whose speed drifts,
/// `raw` follows the drift while `normalized` keeps only what the program
/// changed. `None` when there is no repetition or a time is not positive.
pub fn window_rates(
    ops: &[f64],
    walls: &[f64],
    ref_s: &[f64],
    nominal_s: f64,
) -> Option<(f64, f64)> {
    let n = ops.len();
    if n == 0 || walls.len() != n || ref_s.len() != n {
        return None;
    }
    if walls
        .iter()
        .chain(ref_s)
        .any(|&t| t <= 0.0 || !t.is_finite())
    {
        return None;
    }
    let total: f64 = ops.iter().sum();
    let wall: f64 = walls.iter().sum();
    let scaled: f64 = walls
        .iter()
        .zip(ref_s)
        .map(|(w, r)| w * nominal_s / r)
        .sum();
    Some((total / wall, total / scaled))
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// How it was obtained: percentile, sample counts, scope.
    pub note: String,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric; a NaN or infinite value is recorded as 0 so the
    /// result stays valid JSON (the note says why).
    pub fn push(&mut self, name: &str, unit: &str, value: f64, note: impl Into<String>) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        let mut note = note.into();
        let value = if value.is_finite() {
            value
        } else {
            note = format!("no sample; {note}");
            0.0
        };
        self.0.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            note,
        });
    }

    /// The metric called `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the names listed, in
    /// that order; names missing here are skipped.
    pub fn to_json(&self, names: &[&str]) -> String {
        let mut out = String::from("{");
        for name in names {
            if let Some(m) = self.get(name) {
                if out.len() > 1 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                );
            }
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

/// Wall time split into named layers. Every row is *self* time in seconds
/// on the traced run's wall clock; the residual no timer covers is the
/// `unattributed` share, so rows plus residual equal the wall time exactly.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    rows: Vec<(String, f64)>,
}

impl LayerTable {
    /// Adds `seconds` of self time to `layer` (rows keep first-seen order).
    pub fn add(&mut self, layer: &str, seconds: f64) {
        if let Some(row) = self.rows.iter_mut().find(|(l, _)| l == layer) {
            row.1 += seconds;
        } else {
            self.rows.push((layer.to_string(), seconds));
        }
    }

    /// Adds a parallel stage of `lanes` equal lanes lasting `wall` seconds:
    /// each `(layer, lane-seconds)` contributes `lane-seconds / lanes` of
    /// wall time, and the lane time no row covers goes to `idle_layer`.
    pub fn add_lanes(&mut self, wall: f64, lanes: usize, rows: &[(&str, f64)], idle_layer: &str) {
        let lanes = lanes.max(1) as f64;
        let busy: f64 = rows.iter().map(|(_, s)| s).sum();
        for (layer, s) in rows {
            self.add(layer, s / lanes);
        }
        self.add(idle_layer, (wall * lanes - busy) / lanes);
    }

    /// The rows, in first-seen order.
    pub fn rows(&self) -> &[(String, f64)] {
        &self.rows
    }

    /// Seconds covered by the rows.
    pub fn attributed(&self) -> f64 {
        self.rows.iter().map(|(_, s)| s).sum()
    }

    /// Share of `wall` that no row covers (negative when timers overlap).
    pub fn unattributed_frac(&self, wall: f64) -> f64 {
        if wall <= 0.0 {
            return 0.0;
        }
        (wall - self.attributed()) / wall
    }

    /// The table as text, rows sorted by self time, closing with the
    /// residual and the wall-time total.
    pub fn render(&self, wall: f64) -> String {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = String::new();
        let _ = writeln!(out, "  {:<48} {:>10} {:>7}", "layer", "self s", "share");
        for (layer, s) in &rows {
            let _ = writeln!(out, "  {layer:<48} {s:>10.4} {:>6.1}%", 100.0 * s / wall);
        }
        let residual = wall - self.attributed();
        let _ = writeln!(
            out,
            "  {:<48} {residual:>10.4} {:>6.1}%",
            "(unattributed)",
            100.0 * residual / wall
        );
        let _ = writeln!(
            out,
            "  {:<48} {wall:>10.4} {:>6.1}%",
            "= traced wall time", 100.0
        );
        out
    }
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
