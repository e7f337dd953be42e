//! Sample statistics, the simulated-statistics fingerprint and the
//! seeded input generator.

use std::fmt;

/// Exact nearest-rank percentile of raw samples: the smallest sample
/// with at least `q` of all samples at or below it. Returns `None` for
/// an empty set. Never interpolates and never buckets, so the value is
/// always one of the samples.
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of raw samples (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// FNV-1a hash over a textual rendering of every simulated statistic.
/// Anything implementing `Debug` is folded in with `write!`, so a
/// report's complete field set enters the hash without being listed
/// by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64: the single seeded generator every workload input is
/// drawn from.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
    }

    #[test]
    fn percentile_is_exact_not_bucketed() {
        // A log2-bucketed histogram would report 4096 for all of these.
        let xs = [2500u64, 2600, 2700, 3000];
        assert_eq!(percentile(&xs, 0.5), Some(2600));
        assert_eq!(percentile(&xs, 0.99), Some(3000));
    }

    #[test]
    fn fingerprint_sees_every_field_and_order() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        write!(a, "{:?}", (1u64, 2u64)).unwrap();
        write!(b, "{:?}", (1u64, 2u64)).unwrap();
        assert_eq!(a, b);
        let mut c = Fingerprint::default();
        write!(c, "{:?}", (2u64, 1u64)).unwrap();
        assert_ne!(a, c);
        assert_ne!(a, Fingerprint::default());
        assert_eq!(format!("{}", Fingerprint::default()).len(), 16);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        assert_eq!(Rng::new(1).bytes(5).len(), 5);
    }
}
