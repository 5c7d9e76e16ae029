//! Running statistics and load-imbalance helpers for the benchmark harness.

/// Incrementally accumulated summary statistics over `f64` samples.
///
/// Uses Welford's algorithm so the variance is numerically stable even for
/// long benchmark runs.
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `max / mean` — the load-imbalance ratio reported in Table 1 of the
    /// paper ("ratio of maximum computation time and mean computation time
    /// across hosts"). Returns 1.0 when empty or when the mean is zero.
    pub fn imbalance(&self) -> f64 {
        let m = self.mean();
        if self.n == 0 || m == 0.0 {
            1.0
        } else {
            self.max / m
        }
    }
}

/// Load-imbalance ratio of one round: `max(work) / mean(work)`.
///
/// Returns 1.0 for empty input or all-zero work so that idle rounds do not
/// skew the average (matching how the paper averages across rounds).
pub fn imbalance_ratio(per_host_work: &[f64]) -> f64 {
    if per_host_work.is_empty() {
        return 1.0;
    }
    let sum: f64 = per_host_work.iter().sum();
    if sum == 0.0 {
        return 1.0;
    }
    let mean = sum / per_host_work.len() as f64;
    let max = per_host_work
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    max / mean
}

/// Geometric mean of strictly positive samples (0 if any sample is ≤ 0 or
/// the slice is empty). The paper's "on average" speedups are geometric.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Formats a byte count with binary units, e.g. `"1.50 GiB"`.
pub fn humanize_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Formats a duration given in seconds with an adaptive unit.
pub fn humanize_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.3} µs", secs * 1e6)
    }
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by
/// rounding to the nearest rank; the default value of an empty one.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rounds_to_the_nearest_rank() {
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile(&[7u64], 0.99), 7);
        assert_eq!(percentile(&[1u64, 2, 3, 4], 0.5), 3);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 3.0);
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.sum() - 10.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        // sample stddev of 1..4 is sqrt(5/3)
        assert!((s.stddev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.imbalance() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_ratio_cases() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
        assert!((imbalance_ratio(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((imbalance_ratio(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_cases() {
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, -1.0]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn humanize() {
        assert_eq!(humanize_bytes(17), "17 B");
        assert_eq!(humanize_bytes(1536), "1.50 KiB");
        assert_eq!(humanize_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert_eq!(humanize_secs(2.5), "2.500 s");
        assert_eq!(humanize_secs(0.0025), "2.500 ms");
        assert_eq!(humanize_secs(0.0000025), "2.500 µs");
    }
}
