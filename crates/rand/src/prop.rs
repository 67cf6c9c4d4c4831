//! Seeded property testing: a property is an ordinary `#[test]` that
//! calls [`check`] with an input generator and an assertion body. Case
//! `i` draws its input from `StdRng::seed_from_u64(i)`, so every run
//! tests the same inputs and a failure names the case that reproduces
//! it. There is no shrinking: the failing input is printed as drawn.

use crate::StdRng;
use std::fmt::Debug;
use std::ops::Range;

/// Prints the failing case when a property's assertion unwinds past it.
struct Reporter<'a, T: Debug> {
    seed: u64,
    input: &'a T,
}

impl<T: Debug> Drop for Reporter<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property failed at case seed {}: input {:?}",
                self.seed, self.input
            );
        }
    }
}

/// Runs `property` on `cases` inputs, the `i`-th drawn by `draw` from a
/// generator seeded with `i`. The property fails by panicking (plain
/// `assert!`s); the case seed and its input are then printed to stderr.
pub fn check<T: Debug>(cases: u64, draw: impl Fn(&mut StdRng) -> T, property: impl Fn(&T)) {
    for seed in 0..cases {
        let input = draw(&mut StdRng::seed_from_u64(seed));
        let _reporter = Reporter {
            seed,
            input: &input,
        };
        property(&input);
    }
}

/// A vector whose length is uniform over `len` and whose elements are
/// drawn by `element`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// A vector of uniformly random bytes, its length uniform over `len`.
pub fn bytes(rng: &mut StdRng, len: Range<usize>) -> Vec<u8> {
    vec_of(rng, len, |r| r.next_u32() as u8)
}
