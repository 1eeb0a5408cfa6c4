//! Seeded input generation. Every input of every workload comes from a
//! [`Rng`] stream derived from `--seed` and a stream name, so the same seed
//! gives the same inputs and the program under test sees only the generated
//! data.

/// SplitMix64: small, fast and good enough for benchmark inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream of its own for each `(seed, stream)` pair.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform half-open window `[l, r)` of `0..n` with `r - l >= 1`.
    pub fn window(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n + 1);
        let b = self.below(n + 1);
        let (l, r) = (a.min(b), a.max(b));
        if l == r {
            (l.min(n - 1), l.min(n - 1) + 1)
        } else {
            (l, r)
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The input shapes the workloads cycle through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A uniformly random permutation of `0..n`: LIS about `2√n`.
    Permutation,
    /// A rising trend with noise over an alphabet of about `n/13` values:
    /// every value repeats about 13 times.
    DuplicateTrend,
    /// `0..n` with `n/32` random transpositions: LIS close to `n`.
    NearSorted,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Permutation, Shape::DuplicateTrend, Shape::NearSorted];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Permutation => "permutation",
            Shape::DuplicateTrend => "duplicate-trend",
            Shape::NearSorted => "near-sorted",
        }
    }
}

/// One sequence of length `n` of the given shape.
pub fn sequence(shape: Shape, n: usize, rng: &mut Rng) -> Vec<u32> {
    match shape {
        Shape::Permutation => {
            let mut seq: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut seq);
            seq
        }
        Shape::DuplicateTrend => {
            let noise = (n / 64).max(2);
            (0..n).map(|i| (i / 16 + rng.below(noise)) as u32).collect()
        }
        Shape::NearSorted => {
            let mut seq: Vec<u32> = (0..n as u32).collect();
            for _ in 0..n / 32 {
                let (i, j) = (rng.below(n), rng.below(n));
                seq.swap(i, j);
            }
            seq
        }
    }
}

/// A half-open value range `[lo, hi)` of `0..=max` covering the share
/// `fraction` of it (at least one value), at a random offset.
pub fn value_range(max: u32, fraction: f64, rng: &mut Rng) -> (u32, u32) {
    let span = max as usize + 1;
    let width = ((span as f64 * fraction).ceil() as usize).clamp(1, span);
    let lo = rng.below(span - width + 1);
    (lo as u32, (lo + width) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for shape in Shape::ALL {
            let a = sequence(shape, 500, &mut Rng::new(7, "x"));
            let b = sequence(shape, 500, &mut Rng::new(7, "x"));
            let c = sequence(shape, 500, &mut Rng::new(8, "x"));
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert_eq!(a.len(), 500);
        }
    }

    #[test]
    fn windows_and_ranges_are_non_empty_and_in_bounds() {
        let mut rng = Rng::new(1, "w");
        for n in [1usize, 2, 10, 1000] {
            for _ in 0..200 {
                let (l, r) = rng.window(n);
                assert!(l < r && r <= n);
                let (lo, hi) = value_range(n as u32, [0.0, 0.1, 0.5, 1.0][rng.below(4)], &mut rng);
                assert!(lo < hi && hi <= n as u32 + 1);
            }
        }
    }
}
