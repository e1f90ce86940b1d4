//! Seeded input generation, order statistics and the clock helper.

use std::time::Instant;

/// µs elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// SplitMix64: every workload input is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` lowercase ASCII letters.
    pub fn letters(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| b'a' + self.below(26) as u8).collect()
    }
}

/// Linear-interpolated quantile of an ascending slice (`0 <= q <= 1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_permutes() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
        let mut v: Vec<u32> = (0..32).collect();
        a.shuffle(&mut v);
        let mut back = v.clone();
        back.sort_unstable();
        assert_eq!(back, (0..32).collect::<Vec<_>>());
        assert_ne!(v, back, "a 32-element shuffle that is the identity");
    }

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(vec![5.0, 1.0, 9.0]), 5.0);
    }
}
