//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the workspace (workload generation,
//! random replacement, eviction victim selection) flows from
//! [`DetRng`], a self-contained xoshiro256** implementation seeded via
//! SplitMix64. We implement it here rather than relying on an external
//! generator so that results are bit-stable across platforms and crate
//! versions — a hard requirement for the DP-vs-simulator cross-checks
//! and for reproducible experiment tables.

/// A deterministic xoshiro256** PRNG.
///
/// Not cryptographically secure; statistically excellent and very fast,
/// which is all a simulator needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed the generator. Any seed (including 0) is valid: the state
    /// is expanded through SplitMix64 so it is never all-zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw generator state, for serialization (e.g. a migratable
    /// task shipping its RNG inside a context). Restore with
    /// [`DetRng::from_state`].
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a [`DetRng::state`] snapshot; resumes
    /// the sequence exactly.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        DetRng { s }
    }

    /// Derive an independent stream for a sub-component; `stream`
    /// selects the branch. Used to give each thread / each core its own
    /// generator without coupling their sequences.
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the stream id through SplitMix64 against the current state.
        let mut sm = self.s.iter().fold(stream ^ 0xA0761D6478BD642F, |acc, &w| {
            acc.rotate_left(23).wrapping_add(w)
        });
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Geometric-ish draw: number of consecutive successes with
    /// probability `p` each, capped at `cap`. Used by trace generators
    /// to produce bursty run lengths.
    pub fn geometric(&mut self, p: f64, cap: u64) -> u64 {
        let mut n = 0;
        while n < cap && self.chance(p) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trips_mid_sequence() {
        // The serialization pair: a generator rebuilt from a state
        // snapshot (e.g. a migrated task's context) resumes the exact
        // sequence.
        let mut a = DetRng::new(7);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = DetRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_rejected() {
        DetRng::from_state([0; 4]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = DetRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn forked_streams_are_independent() {
        let root = DetRng::new(7);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
        // Forking is deterministic too.
        let mut a2 = root.fork(0);
        assert_eq!(a2.next_u64(), DetRng::new(7).fork(0).next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = DetRng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            // expectation 10k; allow ±6%
            assert!((9_400..=10_600).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn geometric_cap_respected() {
        let mut r = DetRng::new(19);
        for _ in 0..1000 {
            assert!(r.geometric(0.99, 5) <= 5);
        }
        // p = 0 never succeeds
        assert_eq!(r.geometric(0.0, 10), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(23);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }
}
