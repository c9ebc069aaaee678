//! Sample statistics: percentiles, medians, best-of-repetitions and the
//! quartile spread the acceptance rule is written in.

/// The `q`-quantile (0.0–1.0) of an ascending slice, nearest rank.
/// Empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts ascending. Every sample here is a finite duration or count.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// The median of unsorted samples (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The best repetition: the largest when higher is better, else the
/// smallest.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    sort(&mut data);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((quartile(1), quartile(3)))
}

/// Distance between the quartiles as a share of the median — the
/// spread a metric's bound is compared with.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// `(max − min) / median`, the full-range spread.
pub fn range_spread(values: &[f64]) -> Option<f64> {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return None;
    }
    Some((best(values, true) - best(values, false)) / mid.abs())
}

/// How much worse `new` is than `old`, as a share of `old`; negative
/// when it got better.
pub fn worsening(old: f64, new: f64, higher_is_better: bool) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    let change = (new - old) / old.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The benchmark's input generator: splitmix64, so the same `--seed`
/// gives the same key order and payload bytes on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` ≥ 1; the modulo bias is irrelevant for
    /// picking keys).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 0.5), 51.0); // rank round(49.5) = 50
        assert_eq!(percentile(&data, 0.99), 99.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_follows_the_direction() {
        let reps = [2.0, 5.0, 3.0];
        assert_eq!(best(&reps, true), 5.0);
        assert_eq!(best(&reps, false), 2.0);
        assert_eq!(best(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&ten).unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut bytes = [0u8; 13];
            rng.fill(&mut bytes);
            (rng.below(64), bytes)
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut order: Vec<usize> = (0..8).collect();
        Rng::new(3).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
