//! Output analysis: outage logs and batch means.

use crate::time::{Duration, SimTime};

/// Records the lengths of maximal unavailable intervals — the paper's
/// *mean duration of unavailable periods* (Table 3).
#[derive(Clone, Debug)]
pub struct OutageLog {
    available: bool,
    outage_started: Option<SimTime>,
    count: u64,
    total: Duration,
    longest: Duration,
    /// Individual outage lengths in days, kept (up to a cap) for
    /// percentile reporting.
    samples: Vec<f64>,
}

/// Retention cap for individual outage samples; beyond it the log
/// keeps counting but stops recording lengths (percentiles then
/// describe the first `SAMPLE_CAP` outages).
const SAMPLE_CAP: usize = 262_144;

impl OutageLog {
    /// A log starting at `start` in the given state.
    #[must_use]
    pub fn new(start: SimTime, initially_available: bool) -> Self {
        OutageLog {
            available: initially_available,
            outage_started: (!initially_available).then_some(start),
            count: 0,
            total: Duration::ZERO,
            longest: Duration::ZERO,
            samples: Vec::new(),
        }
    }

    /// Notes that the signal is `available` as of `now`.
    pub fn record(&mut self, now: SimTime, available: bool) {
        match (self.available, available) {
            (true, false) => self.outage_started = Some(now),
            (false, true) => {
                let started = self
                    .outage_started
                    .take()
                    .expect("unavailable state must carry a start time");
                let len = now - started;
                self.count += 1;
                self.total += len;
                if len > self.longest {
                    self.longest = len;
                }
                if self.samples.len() < SAMPLE_CAP {
                    self.samples.push(len.as_days());
                }
            }
            _ => {}
        }
        self.available = available;
    }

    /// Closes an outage still open at the end of the run.
    pub fn finish(&mut self, now: SimTime) {
        if !self.available {
            self.record(now, true);
            self.available = false;
        }
    }

    /// Number of completed outages.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total outage time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Mean outage duration, or zero when no outage occurred.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total * (1.0 / self.count as f64)
        }
    }

    /// Longest single outage.
    #[must_use]
    pub fn longest(&self) -> Duration {
        self.longest
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of recorded outage durations, by
    /// the nearest-rank method, or `None` when no outage was recorded.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(Duration::days(sorted[rank - 1]))
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
///
/// Exact table entries for small `df`, the asymptotic normal value
/// beyond 120.
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Batch-means analysis: the run is cut into batches, each batch yields
/// one (approximately independent) observation, and the sample of batch
/// values gives a mean with a Student-t confidence interval.
///
/// This is exactly the paper's method: "Batch-means analysis was used to
/// compute 95% confidence intervals for all performance indices."
#[derive(Clone, Debug, Default)]
pub struct BatchMeans {
    values: Vec<f64>,
}

impl BatchMeans {
    /// An empty analysis.
    #[must_use]
    pub fn new() -> Self {
        BatchMeans::default()
    }

    /// Adds one batch observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of batches recorded.
    #[must_use]
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The grand mean across batches.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Unbiased sample variance of the batch values.
    fn variance(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    }

    /// Half-width of the 95% confidence interval for the mean.
    #[must_use]
    pub fn half_width_95(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return f64::INFINITY;
        }
        t95(n - 1) * (self.variance() / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_log_counts_and_means() {
        let mut log = OutageLog::new(SimTime::ZERO, true);
        log.record(SimTime::at_days(1.0), false);
        log.record(SimTime::at_days(2.0), true); // 1d outage
        log.record(SimTime::at_days(5.0), false);
        log.record(SimTime::at_days(8.0), true); // 3d outage
        assert_eq!(log.count(), 2);
        assert_eq!(log.total().as_days(), 4.0);
        assert_eq!(log.mean().as_days(), 2.0);
        assert_eq!(log.longest().as_days(), 3.0);
    }

    #[test]
    fn outage_log_finish_closes_open_outage() {
        let mut log = OutageLog::new(SimTime::ZERO, false);
        log.finish(SimTime::at_days(2.0));
        assert_eq!(log.count(), 1);
        assert_eq!(log.total().as_days(), 2.0);
    }

    #[test]
    fn outage_quantiles_nearest_rank() {
        let mut log = OutageLog::new(SimTime::ZERO, true);
        // Outages of 1, 2, 3, 4 days.
        let mut t = 0.0;
        for len in [1.0, 2.0, 3.0, 4.0] {
            log.record(SimTime::at_days(t), false);
            t += len;
            log.record(SimTime::at_days(t), true);
            t += 1.0;
        }
        assert_eq!(log.quantile(0.5).unwrap().as_days(), 2.0);
        assert_eq!(log.quantile(0.75).unwrap().as_days(), 3.0);
        assert_eq!(log.quantile(1.0).unwrap().as_days(), 4.0);
        assert_eq!(log.quantile(0.0).unwrap().as_days(), 1.0);
    }

    #[test]
    fn quantile_of_empty_log_is_none() {
        let log = OutageLog::new(SimTime::ZERO, true);
        assert!(log.quantile(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        let log = OutageLog::new(SimTime::ZERO, true);
        let _ = log.quantile(1.5);
    }

    #[test]
    fn outage_log_repeated_states_ignored() {
        let mut log = OutageLog::new(SimTime::ZERO, true);
        log.record(SimTime::at_days(1.0), true);
        log.record(SimTime::at_days(2.0), false);
        log.record(SimTime::at_days(3.0), false);
        log.record(SimTime::at_days(4.0), true);
        assert_eq!(log.count(), 1);
        assert_eq!(log.mean().as_days(), 2.0);
    }

    #[test]
    fn t_table_spot_checks() {
        assert_eq!(t95(1), 12.706);
        assert_eq!(t95(10), 2.228);
        assert_eq!(t95(30), 2.042);
        assert_eq!(t95(1000), 1.960);
        assert!(t95(0).is_infinite());
    }

    #[test]
    fn batch_means_known_sample() {
        let mut b = BatchMeans::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            b.push(v);
        }
        assert_eq!(b.n(), 8);
        assert!((b.mean() - 5.0).abs() < 1e-12);
        // Sample variance (n-1 denominator) of this classic set is 32/7.
        assert!((b.variance() - 32.0 / 7.0).abs() < 1e-12);
        // Half width = t(7) * sqrt(var/8).
        let expect = 2.365 * (32.0 / 7.0 / 8.0_f64).sqrt();
        assert!((b.half_width_95() - expect).abs() < 1e-9);
    }

    #[test]
    fn batch_means_degenerate_cases() {
        let mut b = BatchMeans::new();
        assert_eq!(b.mean(), 0.0);
        b.push(3.0);
        assert_eq!(b.mean(), 3.0);
        assert!(b.half_width_95().is_infinite(), "one batch has no CI");
        b.push(3.0);
        assert_eq!(b.half_width_95(), 0.0, "identical batches: zero width");
    }
}
