//! Order statistics and the seeded schedule.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same numbers with Python.

/// A timing or size summary: every number carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn iqr_rel(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's `statistics.quantiles(n=4)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let d = sorted(samples);
    let ld = d.len() as i64;
    if ld == 1 {
        return [d[0]; 3];
    }
    let (n, m) = (4_i64, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (d[(j - 1) as usize], d[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    out
}

/// Median and quartiles of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let [q1, _, q3] = quartiles(samples);
    Summary {
        n: samples.len(),
        median: median(samples),
        q1,
        q3,
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile, or the reason it is not reported:
/// a percentile is only printed when at least [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} not reported: {beyond} of {n} samples lie beyond it, {MIN_BEYOND} needed"
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// SplitMix64: a small, fully specified generator, so one seed gives the
/// same schedule on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one consumer (a client thread, a phase).
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index `i` with probability `weights[i] / sum(weights)`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// `items` in a seeded order (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    /// The order of one jobs-1 / jobs-N pair: which of the two runs first.
    pub fn jobs_pair(&mut self, n: usize) -> [usize; 2] {
        if self.next_u64() & 1 == 0 {
            [1, n]
        } else {
            [n, 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn summary_carries_count_and_relative_iqr() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.iqr_rel() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert_eq!(percentile(&hundred, 50.0), Ok(50.0));
        let err = percentile(&hundred[..99], 90.0).unwrap_err();
        assert!(err.contains("9 of 99"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 20], 50.0).is_ok());
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let pairs = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.jobs_pair(2)).collect::<Vec<_>>()
        };
        assert_eq!(pairs(7), pairs(7));
        assert_ne!(pairs(7), pairs(8));
        // Both orders occur, and every pair holds one run of each setting.
        let p = pairs(7);
        assert!(p.contains(&[1, 2]) && p.contains(&[2, 1]));
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert_eq!(a.shuffled(&[1, 2, 3, 4, 5]), b.shuffled(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn weighted_choice_follows_the_weights() {
        let mut r = Rng::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[r.weighted(&[0.6, 0.35, 0.05])] += 1;
        }
        assert!((11_500..12_500).contains(&counts[0]), "{counts:?}");
        assert!((6_500..7_500).contains(&counts[1]), "{counts:?}");
        assert!((700..1_300).contains(&counts[2]), "{counts:?}");
    }
}
