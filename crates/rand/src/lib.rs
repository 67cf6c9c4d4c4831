//! # vdx-rand — the workspace's one random generator
//!
//! Every simulated quantity in VDX is a pure function of a seed, so the
//! generator's stream is part of the reproduction: `results/repro_full.txt`
//! was produced with `rand` 0.8's `StdRng`, and this crate follows the
//! published algorithms step for step (ChaCha12 block generator, PCG32
//! seed expansion, widening-multiply integer sampling, 52-bit float
//! sampling, Bernoulli by 64-bit threshold) so the same seed still yields
//! the same streams. The known-answer tests below pin that.
//!
//! There is one generator, [`StdRng`], and it can only be built from a
//! seed: no entropy or thread-local constructor exists, which is the
//! determinism contract of DESIGN.md §7 by construction.
//!
//! [`prop`] is the seeded property-test driver the workspace's tests use.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

pub mod prop;

/// Words produced per refill: one 16-word ChaCha block.
const BUFFER_WORDS: usize = 16;

/// The standard generator: ChaCha with 12 rounds, read exactly as
/// `rand_core::block::BlockRng` reads it. The published crate buffers four
/// blocks per refill; this one computes one block at a time, which yields
/// the same keystream word for word (block `n` is words `16n..16n + 16`
/// either way) and skips the blocks a short-lived generator never reads.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    /// Block counter of the next refill.
    counter: u64,
    results: [u32; BUFFER_WORDS],
    index: usize,
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl StdRng {
    /// Builds the generator from a full 256-bit key.
    pub fn from_seed(seed: [u8; 32]) -> StdRng {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        StdRng {
            key,
            counter: 0,
            results: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }

    /// Expands `state` into a full key with PCG32, as `rand_core` does.
    pub fn seed_from_u64(mut state: u64) -> StdRng {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        StdRng::from_seed(seed)
    }

    fn block(&self, counter: u64) -> [u32; BUFFER_WORDS] {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        // Words 14 and 15 are the stream id, always zero for StdRng.
        let mut s = init;
        for _ in 0..6 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (a, b) in s.iter_mut().zip(&init) {
            *a = a.wrapping_add(*b);
        }
        s
    }

    fn refill(&mut self, index: usize) {
        self.results = self.block(self.counter);
        self.counter = self.counter.wrapping_add(1);
        self.index = index;
    }

    /// The next 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.refill(0);
        }
        let value = self.results[self.index];
        self.index += 1;
        value
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUFFER_WORDS - 1 {
            self.index += 2;
            (u64::from(self.results[index + 1]) << 32) | u64::from(self.results[index])
        } else if index >= BUFFER_WORDS {
            self.refill(2);
            (u64::from(self.results[1]) << 32) | u64::from(self.results[0])
        } else {
            // One word left: it is the low half, the refill gives the high.
            let low = u64::from(self.results[BUFFER_WORDS - 1]);
            self.refill(1);
            (u64::from(self.results[0]) << 32) | low
        }
    }

    /// One value uniform over `range`; panics on an empty range.
    pub fn gen_range<T: SampleUniform>(&mut self, range: impl SampleRange<T>) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`; panics unless `0 <= p <= 1`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p == 1.0 {
            // Certain: the published crate draws nothing here either.
            return true;
        }
        assert!((0.0..1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        let threshold = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < threshold
    }

    /// Fisher–Yates shuffle of `slice`, from the back.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let bound = i + 1;
            let j = if bound <= u32::MAX as usize {
                self.gen_range(0..bound as u32) as usize
            } else {
                self.gen_range(0..bound)
            };
            slice.swap(i, j);
        }
    }
}

/// Types [`StdRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Sized {
    /// Uniform over `[low, high)`.
    fn sample_half_open(low: Self, high: Self, rng: &mut StdRng) -> Self;
    /// Uniform over `[low, high]`.
    fn sample_inclusive(low: Self, high: Self, rng: &mut StdRng) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty, $draw:ident) => {
        impl SampleUniform for $ty {
            fn sample_half_open(low: $ty, high: $ty, rng: &mut StdRng) -> $ty {
                assert!(low < high, "cannot sample empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }

            fn sample_inclusive(low: $ty, high: $ty, rng: &mut StdRng) -> $ty {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The whole type: any word will do.
                    return rng.$draw() as $large as $ty;
                }
                // Conservative rejection zone; the `- 1` keeps `<=` unbiased.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$draw() as $large;
                    let wide = (v as $wide) * (range as $wide);
                    let hi = (wide >> <$large>::BITS) as $large;
                    let lo = wide as $large;
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(u32, u32, u32, u64, next_u32);
uniform_int!(i32, u32, u32, u64, next_u32);
uniform_int!(u64, u64, u64, u128, next_u64);
uniform_int!(i64, u64, u64, u128, next_u64);
uniform_int!(usize, usize, usize, u128, next_u64);

/// A float in `[1, 2)` from the top 52 bits of one word, minus one.
fn unit_f64(rng: &mut StdRng) -> f64 {
    f64::from_bits((1023u64 << 52) | (rng.next_u64() >> 12)) - 1.0
}

/// The next float toward zero.
fn ulp_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

impl SampleUniform for f64 {
    fn sample_half_open(low: f64, high: f64, rng: &mut StdRng) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            let res = unit_f64(rng) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: shrink the scale by one ulp and redraw.
            scale = ulp_down(scale);
        }
    }

    fn sample_inclusive(low: f64, high: f64, rng: &mut StdRng) -> f64 {
        assert!(low <= high, "cannot sample empty range");
        let max_rand = f64::from_bits((1023u64 << 52) | (u64::MAX >> 12)) - 1.0;
        let mut scale = (high - low) / max_rand;
        assert!(scale.is_finite(), "range overflow");
        while scale * max_rand + low > high {
            scale = ulp_down(scale);
        }
        unit_f64(rng) * scale + low
    }
}

/// Range forms [`StdRng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single(self, rng: &mut StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single(self, rng: &mut StdRng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single(self, rng: &mut StdRng) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::StdRng;

    #[test]
    fn chacha_block_matches_the_reference_keystream() {
        // ChaCha12, all-zero key and nonce: the keystream starts
        // 9b f4 9a 6a 07 55 f9 53 81 1f ce 12 5f 26 83 d5 (Strombergson's
        // ChaCha test vectors, TC1, 12 rounds, 256-bit key).
        let mut rng = StdRng::from_seed([0; 32]);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(first, [0x6a9a_f49b, 0x53f9_5507, 0x12ce_1f81, 0xd583_265f]);
    }

    /// Known answers at the paper's seed, captured from the stand-in
    /// `rand` that reproduced `results/repro_full.txt` (itself generated
    /// against published `rand` 0.8.5): the raw words, then one vector
    /// per sampler, drawn in this order from one generator.
    #[test]
    fn seed_2017_reproduces_the_published_streams() {
        let mut rng = StdRng::seed_from_u64(2017);
        let words: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(words, [0xd208_0025, 0xbb1a_4dbb, 0xbe85_9f7b, 0x974a_98b8]);
        assert_eq!(rng.next_u64(), 0x4504_48b7_e56c_9f6d);
        assert_eq!(rng.next_u64(), 0x1dc6_a7a6_6f0b_b722);

        let mut rng = StdRng::seed_from_u64(2017);
        let v: Vec<usize> = (0..6).map(|_| rng.gen_range(0..400usize)).collect();
        assert_eq!(v, [292, 236, 46, 103, 302, 296]);
        let v: Vec<u32> = (0..4).map(|_| rng.gen_range(8..12u32)).collect();
        assert_eq!(v, [8, 10, 10, 8]);
        let v: Vec<u64> = (0..4).map(|_| rng.gen_range(3..=5u64)).collect();
        assert_eq!(v, [3, 5, 5, 3]);
        let v: Vec<f64> = (0..4).map(|_| rng.gen_range(-0.25..0.25)).collect();
        assert_eq!(
            v,
            [
                -0.053888685471291775,
                0.05557514600988955,
                -0.0544921385011542,
                0.18981704072707528
            ]
        );
        let v: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..=1.0)).collect();
        assert_eq!(v, [0.43223898007572925, 0.6633235678577077]);
        let v: Vec<bool> = (0..12).map(|_| rng.gen_bool(0.3)).collect();
        let t = true;
        let f = false;
        assert_eq!(v, [f, f, f, f, f, f, t, t, t, t, f, t]);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [5, 3, 1, 4, 6, 9, 2, 8, 0, 7]);
    }

    #[test]
    fn a_u64_straddling_a_refill_takes_its_high_half_from_the_new_buffer() {
        let mut rng = StdRng::seed_from_u64(2017);
        for _ in 0..63 {
            rng.next_u32();
        }
        assert_eq!(rng.next_u64(), 0x2206_0928_4d83_4360);
        assert_eq!(rng.next_u32(), 0xc179_e25a);
    }

    // The pins below were captured from the four-blocks-per-refill
    // generator this one replaced: the keystream did not move.

    #[test]
    fn a_u64_straddling_words_15_and_16_spans_one_block_refill() {
        let mut rng = StdRng::seed_from_u64(2017);
        for _ in 0..15 {
            rng.next_u32();
        }
        assert_eq!(rng.next_u64(), 0x70d2_995e_4203_98b2);
        assert_eq!(rng.next_u32(), 0xc184_b699);
    }

    #[test]
    fn seed_2017_words_127_to_130_cross_the_eighth_block() {
        let mut rng = StdRng::seed_from_u64(2017);
        for _ in 0..127 {
            rng.next_u32();
        }
        let words: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(words, [0x5fe7_fdfb, 0xbb1c_3bc7, 0x7a38_a995, 0x933e_9340]);
    }

    #[test]
    fn seed_2017_first_thousand_u64s_fold_to_a_known_answer() {
        let mut rng = StdRng::seed_from_u64(2017);
        let fold = (0..1000).fold(0u64, |acc, _| acc.rotate_left(7) ^ rng.next_u64());
        assert_eq!(fold, 0x9d05_1c44_a879_ddcb);
    }

    #[test]
    fn a_clone_taken_mid_block_continues_identically() {
        let mut rng = StdRng::seed_from_u64(2017);
        for _ in 0..21 {
            rng.next_u32();
        }
        let mut copy = rng.clone();
        for _ in 0..100 {
            assert_eq!(copy.next_u64(), rng.next_u64());
            assert_eq!(copy.next_u32(), rng.next_u32());
        }
    }

    #[test]
    fn sampling_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f: f64 = rng.gen_range(-0.25..0.25);
            assert!((-0.25..0.25).contains(&f));
            let i = rng.gen_range(3..=5usize);
            assert!((3..=5).contains(&i));
        }
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }
}
