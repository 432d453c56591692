//! Deterministic pseudo-random number generation for simulations.
//!
//! The simulator must be bit-for-bit reproducible from a `u64` seed so
//! that every experiment in EXPERIMENTS.md can be re-run exactly. We
//! ship a small, well-known generator instead of depending on `rand`:
//! [`Xoshiro256StarStar`] (public-domain reference algorithm by Blackman
//! & Vigna), seeded through splitmix64 as its authors prescribe.
//!
//! # Examples
//!
//! ```
//! use ssr_runtime::rng::Xoshiro256StarStar;
//!
//! let mut a = Xoshiro256StarStar::seed_from_u64(7);
//! let mut b = Xoshiro256StarStar::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.below(10);
//! assert!(x < 10);
//! ```

/// splitmix64 step: used to expand a `u64` seed into generator state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — a fast, high-quality, deterministic PRNG.
///
/// The generator counts its own draws ([`Xoshiro256StarStar::draws`]):
/// every derived sampler (`below`, `f64`, `chance`, …) funnels through
/// [`Xoshiro256StarStar::next_u64`], so the counter is an exact audit
/// trail of randomness consumption. The step pipeline snapshots it at
/// phase boundaries, which is how `ssr-analyze` *proves* that all
/// draws happen in the select phase (the RNG-discipline obligation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
    draws: u64,
}

impl Xoshiro256StarStar {
    /// Seeds the generator from a single `u64` via splitmix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256StarStar { s, draws: 0 }
    }

    /// Raw 64-bit outputs produced so far (each derived sampler costs
    /// exactly one draw). Seed expansion does not count.
    #[inline]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift; bias < 2^-64 * bound, irrelevant here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `0..bound`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniformly chooses an element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.index(slice.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator (for per-run streams).
    pub fn fork(&mut self) -> Self {
        Xoshiro256StarStar::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(123);
        let mut b = Xoshiro256StarStar::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Xoshiro256StarStar::seed_from_u64(9);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seed_from_u64(77);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256StarStar::seed_from_u64(4);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates() {
        let mut r = Xoshiro256StarStar::seed_from_u64(3);
        let mut c1 = r.fork();
        let mut c2 = r.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn draw_counter_is_exact() {
        let mut r = Xoshiro256StarStar::seed_from_u64(6);
        assert_eq!(r.draws(), 0, "seed expansion is not a draw");
        r.next_u64();
        assert_eq!(r.draws(), 1);
        r.below(10);
        r.f64();
        r.chance(0.3);
        assert_eq!(r.draws(), 4, "every derived sampler costs one draw");
        let mut v = [1u8, 2, 3, 4];
        r.shuffle(&mut v);
        assert_eq!(r.draws(), 4 + 3, "Fisher–Yates draws n-1 indices");
        let child = r.fork();
        assert_eq!(r.draws(), 8, "forking costs the parent one draw");
        assert_eq!(child.draws(), 0, "children start fresh");
    }
}
