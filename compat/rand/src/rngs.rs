//! Concrete generators; only [`StdRng`] is used by the workspace.

use crate::{Rng, SeedableRng};

/// Deterministic standard generator: xoshiro256++ with SplitMix64 seeding.
///
/// Upstream `rand` backs `StdRng` with ChaCha12; this stand-in trades the
/// cryptographic stream (not needed here) for ~20 lines of dependency-free
/// code with excellent statistical quality (passes BigCrush as published
/// by Blackman & Vigna).
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors:
        // guarantees a non-zero state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}
