//! Sample statistics: median, quartiles, percentiles, the "highest
//! percentile the sample supports" picker, and relative spread.

use std::time::{Duration, Instant};

/// A sorted sample.
#[derive(Debug, Clone)]
pub struct Sample(Vec<f64>);

impl Sample {
    /// # Panics
    /// Panics on a NaN: every value here is a measured duration or count.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
        Self(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile (`p` in `0..=100`): the smallest value with
    /// at least `p`% of the sample at or below it. An empty sample reads 0.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (p / 100.0 * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// The median: the mean of the two middle values on an even count.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// First and third quartile as Python's
    /// `statistics.quantiles(values, n=4)` gives them (the exclusive
    /// method: position `i·(n+1)/4` with linear interpolation, clamped to
    /// the sample). Needs two values.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        if n < 2 {
            return None;
        }
        let at = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (self.0[j - 1] * (4.0 - delta) + self.0[j] * delta) / 4.0
        };
        Some((at(1), at(3)))
    }

    /// Interquartile distance as a share of the median: the run-to-run
    /// spread the benchmark's bounds are judged against.
    pub fn relative_spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles()?;
        let median = self.median();
        (median != 0.0).then(|| (q3 - q1) / median.abs())
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it — below that a "percentile" is one or two outliers.
/// `None` when not even p50 has ten samples above it.
pub fn supported_tail(samples: usize) -> Option<f64> {
    // In per mille, so that 100 samples × 10% is exactly ten.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open-loop latency: counted from when the request was *due*, so the wait
/// a stalled reply imposes on the requests queued behind it is in their
/// latency. A request that completed before it was due (it cannot) reads 0.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: &[f64]) -> Sample {
        Sample::new(v.to_vec())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(sample(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(sample(&[4.0, 1.0, 2.0, 3.0]).median(), 2.5);
        assert_eq!(sample(&[]).median(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(sample(&ten).quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(sample(&[1.0, 2.0, 4.0, 8.0, 16.0]).quartiles(), Some((1.5, 12.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(sample(&[10.0, 20.0]).quartiles(), Some((7.5, 22.5)));
        assert_eq!(sample(&[1.0]).quartiles(), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(sample(&ten).relative_spread(), Some(1.0));
        assert_eq!(sample(&[5.0, 5.0, 5.0]).relative_spread(), Some(0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = sample(&hundred);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(sample(&[7.0]).percentile(99.0), 7.0);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn due_latency_counts_the_queueing_delay() {
        let due = Instant::now();
        let done = due + Duration::from_millis(30);
        assert_eq!(due_latency(due, done), Duration::from_millis(30));
        // A reply "before" its due time is clamped, not negative.
        assert_eq!(due_latency(done, due), Duration::ZERO);
    }
}
