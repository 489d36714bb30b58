//! Order statistics, metric naming, and the one-line JSON result.

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `0`
/// when there are no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Median of integer nanosecond samples, as `f64`.
pub fn median_ns(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in `(0, 100]`.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Computes the [`Tail`] of `values`. With `n` samples sorted ascending
/// the tail is the sample at index `n - 1 - TAIL_BEYOND`, which is the
/// `100 · (n - TAIL_BEYOND) / n` percentile. With `TAIL_BEYOND` samples
/// or fewer no percentile qualifies; the maximum is reported instead,
/// with `beyond == 0` so the shortfall is visible.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
            beyond: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
            beyond: 0,
        };
    }
    let k = n - 1 - TAIL_BEYOND;
    Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    }
}

/// `true` when `name` is a valid metric name: 1 to 64 characters of
/// ASCII letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    let Some(first) = bytes.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `true` when `unit` is a valid unit: 1 to 16 characters of ASCII
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The named metrics of one benchmark run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or unit: metric names are
    /// fixed in this benchmark, so that is a bug here.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(
            self.rows.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.rows.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<String> {
        self.rows
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit. Non-finite values are written as `0` (and
    /// are reported as a failed check by the caller).
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: derives well-spread seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_ns(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_eleven_samples_is_the_minimum() {
        let v: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_grows_with_sample_count() {
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 14.0);
        assert_eq!(t.percentile, 60.0);
        assert_eq!(t.samples, 25);
    }

    #[test]
    fn tail_without_enough_samples_reports_the_maximum() {
        let t = tail(&[2.0, 7.0, 5.0]);
        assert_eq!(t.value, 7.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.samples, 3);
        assert_eq!(t.beyond, 0);
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten).beyond, 0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "circuits.drivable_load.ns_p50",
            "engine.session.ns_per_candidate.nocache",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".leading",
            "_leading",
            "-leading",
            "has space",
            "slash/no",
            "pct%",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn units_are_validated() {
        for ok in ["ms", "s", "1/s", "count", "%", "frac", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "has space", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.2034, "ms");
        m.put("count", 7.0, "count");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        assert_eq!(m.get("count"), Some(7.0));
        assert!(m.non_finite().is_empty());
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(42, 1), mix(42, 1));
        assert_ne!(mix(42, 1), mix(42, 2));
        assert_ne!(mix(42, 1), mix(43, 1));
    }
}
