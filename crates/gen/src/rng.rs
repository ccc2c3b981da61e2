//! Deterministic pseudo-random number generator for graph generation and
//! tests.
//!
//! xoshiro256++ seeded through SplitMix64 — the standard pairing from
//! Blackman & Vigna. In-repo (no external `rand` crate) so that the
//! workspace builds offline and generator output is stable across toolchain
//! and dependency upgrades: every dataset in EXPERIMENTS.md is a pure
//! function of `(params, seed)` and nothing else — not of the thread count
//! either (`crates/gen/tests/datasets.rs` pins Table I's graphs at 1, 2 and
//! 8 threads).
//!
//! **Jump-ahead.** xoshiro256++'s state update is linear over GF(2): the
//! next state is a fixed 256×256 bit matrix times the current one (the
//! output function's additions never feed back into the state). So
//! [`SeededRng::jumped`] lands exactly where `k` calls to
//! [`SeededRng::next_u64`] would, by square-and-multiply of that matrix —
//! O(log k) squarings, a few milliseconds for k ≈ 10⁹. A generator that
//! consumes a fixed number of draws per item (R-MAT: `5 · scale` per edge)
//! can therefore start each worker at its chunk's first draw and
//! concatenate the chunks in order: the one stream, sampled on every
//! worker, identical at any thread count. A generator whose draw count
//! varies per item (ER's and SBM's rejection sampling in
//! [`SeededRng::gen_range`], BA's pool) cannot, and stays serial.
//!
//! Not cryptographic. Do not use for anything security-sensitive.

use std::ops::Range;

/// Deterministic RNG used by every generator and randomized test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

/// A linear map on the 256-bit state, by columns: entry `i` is the image of
/// the state with only bit `i` set (bit `i % 64` of word `i / 64`).
type BitMatrix = Vec<[u64; 4]>;

/// xoshiro256's state update, shared by [`SeededRng::next_u64`] and the
/// jump's transition matrix.
#[inline(always)]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// `m · v` over GF(2): the XOR of the columns of `m` at `v`'s set bits.
fn apply(m: &[[u64; 4]], v: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (w, &word) in v.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let col = &m[w * 64 + bits.trailing_zeros() as usize];
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
            bits &= bits - 1;
        }
    }
    out
}

impl SeededRng {
    /// Derive a full 256-bit state from a 64-bit seed via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SeededRng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        step(&mut self.s);
        result
    }

    /// The generator `k` draws ahead of this one: exactly the state `k`
    /// calls to [`next_u64`](Self::next_u64) would leave, reached in
    /// O(log k) squarings of the state update's bit matrix (module doc).
    pub fn jumped(&self, k: u64) -> SeededRng {
        let mut m: BitMatrix = (0..256)
            .map(|i| {
                let mut e = [0u64; 4];
                e[i / 64] = 1 << (i % 64);
                step(&mut e);
                e
            })
            .collect();
        let mut s = self.s;
        let mut k = k;
        while k != 0 {
            if k & 1 == 1 {
                s = apply(&m, &s);
            }
            k >>= 1;
            if k != 0 {
                m = m.iter().map(|col| apply(&m, col)).collect();
            }
        }
        SeededRng { s }
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `bool` with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in a half-open range. Implemented for the integer and
    /// float ranges the generators use; panics on an empty range.
    pub fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform `u64` in `[0, bound)` via Lemire-style rejection (unbiased).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range on an empty range");
        // Rejection zone keeps the multiply-shift reduction unbiased.
        let zone = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= zone || zone == 0 {
                return hi;
            }
        }
    }
}

/// Types that can be sampled uniformly from a `Range` by [`SeededRng`].
pub trait RangeSample: Sized {
    fn sample(rng: &mut SeededRng, range: Range<Self>) -> Self;
}

macro_rules! impl_int_sample {
    ($($ty:ty),*) => {$(
        impl RangeSample for $ty {
            fn sample(rng: &mut SeededRng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range on an empty range");
                let span = (range.end as u64) - (range.start as u64);
                range.start + rng.bounded_u64(span) as Self
            }
        }
    )*};
}

impl_int_sample!(usize, u64, u32);

impl RangeSample for f64 {
    fn sample(rng: &mut SeededRng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range on an empty range");
        range.start + rng.gen_f64() * (range.end - range.start)
    }
}

impl RangeSample for f32 {
    fn sample(rng: &mut SeededRng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range on an empty range");
        range.start + (rng.gen_f64() as f32) * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = SeededRng::seed_from_u64(42);
        let mut b = SeededRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SeededRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(0.5f32..2.0);
            assert!((0.5..2.0).contains(&f));
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = SeededRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} far from 10k");
        }
    }

    /// `k` calls to `next_u64`, the way a jump must land.
    fn stepped(rng: &SeededRng, k: u64) -> SeededRng {
        let mut r = rng.clone();
        for _ in 0..k {
            r.next_u64();
        }
        r
    }

    #[test]
    fn jumped_lands_where_stepping_does() {
        let base = SeededRng::seed_from_u64(42);
        for k in [0, 1, 63, 64, 65, 255, 256, 257] {
            assert_eq!(base.jumped(k), stepped(&base, k), "k = {k}");
        }
        let k = SeededRng::seed_from_u64(7).gen_range(0..1_000_000u64);
        let mut jumped = base.jumped(k);
        assert_eq!(jumped, stepped(&base, k), "k = {k}");
        assert_eq!(jumped.next_u64(), stepped(&base, k).next_u64());
    }

    #[test]
    fn jumps_compose() {
        // Distances past any stepping test: R-MAT's chunk starts reach 10⁹.
        let base = SeededRng::seed_from_u64(9);
        let (a, b) = (3_000_000_017u64, 1u64 << 40);
        assert_eq!(base.jumped(a).jumped(b), base.jumped(a + b));
        assert_eq!(base.jumped(b).jumped(a), base.jumped(a + b));
        assert_ne!(base.jumped(a), base);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        SeededRng::seed_from_u64(0).gen_range(5usize..5);
    }
}
