//! Stateless seed derivation for per-item RNG streams.
//!
//! The sequential extractor drew every random phase sequence from one
//! shared RNG, so sample `k`'s randomness depended on how many draws
//! happened before it — a scheme that cannot survive reordering, caching,
//! or parallel execution. These helpers instead derive an independent seed
//! from the *identity* of each work item (`base seed`, application name,
//! variant index), which is stable no matter when or where the item runs.
//!
//! Mixing uses SplitMix64 finalisation — the same bijective avalanche
//! function the `rand` stand-in uses for seeding — so structurally close
//! identities (variant 3 vs variant 4) still land in unrelated streams.

/// SplitMix64 avalanche finaliser: a cheap bijective mixer on `u64`.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two words into one well-mixed word (order-sensitive).
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    mix(a ^ mix(b ^ 0x6C62_272E_07BB_0142))
}

/// FNV-1a 64-bit hash of a byte string — the workspace's one content hash
/// (seed material, the phase-registry hash, artifact-bundle fingerprints).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a hash of a string, for folding names into seed material.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Derives the RNG seed for one `(app, variant)` extraction work item.
///
/// # Examples
///
/// ```
/// use mlcomp_parallel::seed::item_seed;
///
/// let a = item_seed(0xDA7A, "dedup", 3);
/// // Stable across calls…
/// assert_eq!(a, item_seed(0xDA7A, "dedup", 3));
/// // …and distinct across every component of the identity.
/// assert_ne!(a, item_seed(0xDA7A, "dedup", 4));
/// assert_ne!(a, item_seed(0xDA7A, "vips", 3));
/// assert_ne!(a, item_seed(0xDA7B, "dedup", 3));
/// ```
#[inline]
pub fn item_seed(base: u64, name: &str, index: u64) -> u64 {
    combine(combine(base, hash_str(name)), index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_injective_on_small_inputs() {
        let outs: std::collections::BTreeSet<u64> = (0..4096).map(mix).collect();
        assert_eq!(outs.len(), 4096);
    }

    #[test]
    fn item_seeds_do_not_collide_across_grid() {
        let apps = ["dedup", "vips", "ferret", "x264", "freqmine"];
        let mut seen = std::collections::BTreeSet::new();
        for base in [0u64, 0xDA7A, u64::MAX] {
            for app in apps {
                for idx in 0..600 {
                    assert!(seen.insert(item_seed(base, app, idx)));
                }
            }
        }
    }

    #[test]
    fn hash_str_distinguishes_order() {
        assert_ne!(hash_str("ab"), hash_str("ba"));
        assert_ne!(hash_str(""), hash_str("\0"));
    }
}
