//! Order statistics and the time-boxed repetition loop every perfbench
//! measurement goes through.
//!
//! One percentile rule for the whole benchmark: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a tail figure is never one or two outliers wearing a percentile's
//! name. Timed sections are *time-boxed*: the unit of work repeats until
//! the box is spent, so a section stays meaningful after the code under
//! test gets ten times faster (it simply collects ten times the samples).

/// Samples that must lie strictly beyond a percentile's rank for the
/// percentile to be reported.
pub(crate) const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when a requested tail percentile is
/// not supported by the sample.
const LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest-rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it. `None`
/// on an empty sample.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Whether a sample of `n` supports the `p`-th percentile: at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub(crate) fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// A reported tail: which percentile it really is, and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
}

/// The `want`-th percentile if the sample supports it, otherwise the
/// highest percentile of the ladder (99, 95, 90, 75, 50) below `want`
/// that it does support. `None` when not even the median is supported
/// (fewer than 20 samples).
pub(crate) fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    std::iter::once(want)
        .chain(LADDER.into_iter().filter(|&p| p < want))
        .find(|&p| supports(sorted.len(), p))
        .and_then(|pct| percentile(sorted, pct).map(|value| Tail { pct, value }))
}

/// Median of an ascending-sorted sample (mean of the middle two for an
/// even count). `None` on an empty sample.
pub(crate) fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of an ascending-sorted sample, by the
/// exclusive method Python's `statistics.quantiles(values, n=4)` uses
/// (position `(n + 1) · k / 4`, linear interpolation), so spreads
/// computed here agree with the pipeline's. `None` below two samples.
pub(crate) fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Sorts a sample ascending (NaN-free by construction: every sample is
/// a clock difference or a count).
pub(crate) fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median / quartiles / extremes of one sample, for the report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (0 when empty).
    pub median: f64,
    /// First quartile (the median below two samples).
    pub q1: f64,
    /// Third quartile (the median below two samples).
    pub q3: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Summary {
    /// `q1 … q3 …` for the printed report, the quartiles divided by
    /// `per` (1e3 turns µs into ms, 1e6 into s).
    pub(crate) fn quartile_note(&self, per: f64) -> String {
        format!("q1 {:.4} q3 {:.4}", self.q1 / per, self.q3 / per)
    }

    /// Summarizes `samples` (sorted in place).
    pub(crate) fn of(samples: &mut [f64]) -> Summary {
        sort(samples);
        let median = median(samples).unwrap_or(0.0);
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        Summary {
            n: samples.len(),
            median,
            q1,
            q3,
            max: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// Repeats `unit` until `box_us` microseconds of `clock` time are spent
/// **and** `min_reps` repetitions have been measured, and returns the
/// measured per-repetition durations in µs. The first `warm_ups`
/// repetitions (1 everywhere but in the `--quick` shape) are warm-up:
/// they run inside the box but their durations are discarded. `unit`
/// receives the repetition index, warm-ups included.
pub(crate) fn timeboxed(
    box_us: u64,
    warm_ups: usize,
    min_reps: usize,
    clock: &mut dyn FnMut() -> u64,
    unit: &mut dyn FnMut(usize),
) -> Vec<f64> {
    let start = clock();
    let mut durations = Vec::new();
    let mut rep = 0usize;
    loop {
        let t0 = clock();
        unit(rep);
        let t1 = clock();
        if rep >= warm_ups {
            durations.push(t1.saturating_sub(t0) as f64);
        }
        rep += 1;
        if durations.len() >= min_reps && t1.saturating_sub(start) >= box_us {
            return durations;
        }
    }
}

/// Times `op` in batches of `batch` calls for `box_us` µs (at least 5
/// measured batches, first discarded) and returns the per-batch cost in
/// **nanoseconds per call** — ns-scale work is only ever timed over
/// batches, never per call, because the clock ticks in µs.
pub(crate) fn ns_per_call(batch: usize, box_us: u64, op: &mut dyn FnMut()) -> Vec<f64> {
    let mut unit = |_rep: usize| {
        for _ in 0..batch {
            op();
        }
    };
    timeboxed(box_us, 1, 5, &mut mrbc_obs::monotonic_us, &mut unit)
        .into_iter()
        .map(|us| us * 1000.0 / batch as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_edges_0_1_19_20_1000() {
        // 0 samples: nothing to report, at any percentile.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(tail(&[], 99.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        // 1 sample: a value, but no percentile is supported.
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(tail(&[7.0], 99.0), None);
        assert_eq!(quartiles(&[7.0]), None);
        // 19 samples: the median has only 9 beyond it — unsupported.
        assert!(!supports(19, 50.0));
        assert_eq!(tail(&ramp(19), 99.0), None);
        // 20 samples: the median is the first supported percentile.
        assert!(supports(20, 50.0));
        assert!(!supports(20, 75.0));
        assert_eq!(
            tail(&ramp(20), 99.0),
            Some(Tail {
                pct: 50.0,
                value: 10.0
            })
        );
        // 1 000 samples: p99 has exactly ten beyond it; 999 do not.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(
            tail(&ramp(1000), 99.0),
            Some(Tail {
                pct: 99.0,
                value: 990.0
            })
        );
        assert_eq!(
            tail(&ramp(999), 99.0),
            Some(Tail {
                pct: 95.0,
                value: 950.0
            })
        );
    }

    #[test]
    fn nearest_rank_is_the_smallest_value_covering_p() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 51.0), Some(6.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        let mut v = vec![3.0, 1.0, 2.0];
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.median, s.max), (3, 2.0, 3.0));
        assert_eq!(Summary::of(&mut []), Summary::default());
    }

    #[test]
    fn timebox_discards_the_warm_up_and_honours_both_limits() {
        // A fake clock advancing 10 µs per unit of work.
        let now = std::cell::Cell::new(0u64);
        let mut clock = || now.get();
        let reps = std::cell::Cell::new(0usize);
        let mut unit = |rep: usize| {
            assert_eq!(rep, reps.get(), "repetition indices count up from 0");
            reps.set(rep + 1);
            now.set(now.get() + if rep == 0 { 500 } else { 10 });
        };
        // Box of 600 µs: the 500 µs warm-up counts against the box but
        // not into the sample; ten 10 µs reps fill the rest.
        let d = timeboxed(600, 1, 5, &mut clock, &mut unit);
        assert_eq!(d, vec![10.0; 10]);
        // A box already spent by the warm-up still yields min_reps.
        now.set(0);
        reps.set(0);
        let d = timeboxed(100, 1, 5, &mut clock, &mut unit);
        assert_eq!(d.len(), 5);
        // Without a warm-up the first repetition is a sample too.
        now.set(0);
        reps.set(0);
        let d = timeboxed(0, 0, 1, &mut clock, &mut unit);
        assert_eq!(d, vec![500.0]);
    }

    #[test]
    fn batched_timing_reports_ns_per_call() {
        let mut calls = 0u64;
        let samples = ns_per_call(1000, 2_000, &mut || calls += 1);
        assert!(samples.len() >= 5);
        assert!(calls >= 6_000, "warm-up plus five batches of 1 000");
        assert!(samples.iter().all(|&ns| ns >= 0.0));
    }
}
