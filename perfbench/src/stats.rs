//! Order statistics and the seeded generator the benchmark draws its
//! inputs from.

/// Median of `xs` (mean of the middle two for an even count); `None` when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The small slack keeps a product like 99.9% × 10 000 from rounding up
/// past its exact value.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least `min_beyond` of `n` samples beyond it; `None` when none does.
#[must_use]
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .max_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` of `xs`, but only when at least
/// `min_beyond` samples lie beyond it.
#[must_use]
pub fn supported_percentile(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || samples_beyond(xs.len(), p) < min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// SplitMix64: a tiny, well-mixed generator, so inputs follow from the
/// seed alone.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(0, 95.0), 0);
        assert_eq!(supported_percentile(&[1.0; 199], 95.0, 10), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 95.0, 10), Some(190.0));
        assert_eq!(supported_percentile(&xs, 50.0, 10), Some(100.0));
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        let c = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(highest_supported(9, &c, 10), None);
        assert_eq!(highest_supported(20, &c, 10), Some(50.0));
        assert_eq!(highest_supported(100, &c, 10), Some(90.0));
        assert_eq!(highest_supported(200, &c, 10), Some(95.0));
        assert_eq!(highest_supported(1000, &c, 10), Some(99.0));
        assert_eq!(highest_supported(10_000, &c, 10), Some(99.9));
    }

    #[test]
    fn splitmix_repeats_from_its_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
