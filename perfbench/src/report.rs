//! Run accounting and the result line: percentiles under the
//! ten-samples-beyond rule, the metric list, and process memory.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The `p`-quantile (`0 < p < 1`) of `samples`, linearly interpolated
/// between closest ranks. Refused unless at least ten samples lie
/// beyond it: a p99 needs 1,000 samples and a median 20. Fewer would
/// make the percentile one or two operations, not a tail.
///
/// # Errors
///
/// A message naming the percentile and the sample count it lacks.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    // The tolerance absorbs `1 - p` not being exact in binary.
    let beyond = n as f64 * (1.0 - p) + 1e-9;
    if !(0.0 < p && p < 1.0) || beyond < 10.0 {
        return Err(format!(
            "p{} needs at least {} samples, have {n}",
            p * 100.0,
            (10.0 / (1.0 - p)).ceil()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of a non-empty list (no tail rule: used for set-up
/// repetitions and per-layer summaries, not latency percentiles).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The peak resident set (`VmHWM`) of a process in MB, read from
/// `/proc/<pid>/status` (`self` for this process).
///
/// # Errors
///
/// A message if the status file cannot be read or lacks the field.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The machine's core count as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99).expect("1,000 samples admit a p99");
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn median_needs_twenty_samples() {
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&samples, 0.5).is_err());
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(11.0));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "op_p50_ms".to_string(),
                unit: "ms",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
