//! A sharded LRU cache from quantized static-feature vectors to phase
//! sequences.
//!
//! Serving-time selection is deterministic in the feature vector (see
//! [`mlcomp_core::PhaseSequenceSelector::select_from_features`]), so a
//! cache can answer repeat requests without touching the policy network.
//! Keys are the features quantized to a fixed grid
//! (`round(v × scale)` per component): the 63 features are counts and
//! ratios where differences below the default 10⁻⁶ resolution carry no
//! signal — they only arise from floating-point jitter in upstream
//! feature extraction — so collapsing them widens the hit rate without
//! changing any decision the policy could actually be sensitive to.
//!
//! Shards are independently locked, sized so that a [`crate::BatchServer`]
//! worker pool hammering the cache from many threads mostly avoids lock
//! contention. Within a shard, entries are a small move-to-back vector —
//! exact LRU, and at the default per-shard capacity a linear scan is
//! cheaper than hashing twice.

use std::sync::Mutex;

/// Cache geometry and key quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Number of independently locked shards (minimum 1).
    pub shards: usize,
    /// LRU capacity of each shard (minimum 1 entry).
    pub capacity_per_shard: usize,
    /// Features are keyed as `round(v × quantization_scale)`.
    pub quantization_scale: f64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity_per_shard: 64,
            quantization_scale: 1e6,
        }
    }
}

/// The quantized key of one feature vector.
pub type CacheKey = Vec<i64>;

#[derive(Default)]
struct Shard {
    /// LRU order: least-recently used first, most-recently used last.
    entries: Vec<(CacheKey, Vec<&'static str>)>,
}

/// A sharded, exact-LRU map from quantized feature vectors to selected
/// phase sequences. All methods take `&self`; sharing across the worker
/// pool's threads needs no external locking.
pub struct SequenceCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    scale: f64,
}

impl SequenceCache {
    /// Creates an empty cache; zero shard/capacity values are clamped
    /// up to 1.
    pub fn new(config: CacheConfig) -> SequenceCache {
        let shards = config.shards.max(1);
        SequenceCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: config.capacity_per_shard.max(1),
            scale: config.quantization_scale,
        }
    }

    /// Quantizes a feature vector into its cache key. Non-finite
    /// components map to a sentinel so `NaN != NaN` cannot defeat lookup.
    pub fn key(&self, features: &[f64]) -> CacheKey {
        features
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    // `as` saturates, so absurdly large features still
                    // produce a stable (if degenerate) key.
                    (v * self.scale).round() as i64
                } else {
                    i64::MIN
                }
            })
            .collect()
    }

    fn shard_for(&self, key: &[i64]) -> &Mutex<Shard> {
        let bytes: Vec<u8> = key.iter().flat_map(|k| k.to_le_bytes()).collect();
        let h = mlcomp_parallel::seed::fnv1a(&bytes);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up a key, refreshing its LRU position on a hit.
    pub fn get(&self, key: &[i64]) -> Option<Vec<&'static str>> {
        let mut shard = self.shard_for(key).lock().unwrap();
        let pos = shard.entries.iter().position(|(k, _)| k == key)?;
        let entry = shard.entries.remove(pos);
        let phases = entry.1.clone();
        shard.entries.push(entry);
        Some(phases)
    }

    /// Inserts (or refreshes) a key, evicting the shard's least-recently
    /// used entry when full.
    pub fn insert(&self, key: CacheKey, phases: Vec<&'static str>) {
        let mut shard = self.shard_for(&key).lock().unwrap();
        if let Some(pos) = shard.entries.iter().position(|(k, _)| *k == key) {
            shard.entries.remove(pos);
        } else if shard.entries.len() >= self.capacity_per_shard {
            shard.entries.remove(0);
        }
        shard.entries.push((key, phases));
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(shards: usize, cap: usize) -> SequenceCache {
        SequenceCache::new(CacheConfig {
            shards,
            capacity_per_shard: cap,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn hit_returns_exactly_what_was_inserted() {
        let c = cache(4, 8);
        let key = c.key(&[1.0, 2.5, -3.25]);
        assert_eq!(c.get(&key), None);
        c.insert(key.clone(), vec!["mem2reg", "sroa"]);
        assert_eq!(c.get(&key), Some(vec!["mem2reg", "sroa"]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn quantization_collapses_jitter_but_separates_real_deltas() {
        let c = cache(1, 8);
        // Below-resolution jitter maps to the same key…
        assert_eq!(c.key(&[1.0]), c.key(&[1.0 + 1e-9]));
        // …a real feature delta does not.
        assert_ne!(c.key(&[1.0]), c.key(&[1.001]));
        // Non-finite features get a stable sentinel.
        assert_eq!(c.key(&[f64::NAN]), c.key(&[f64::INFINITY]));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let c = cache(1, 2);
        let (a, b, d) = (c.key(&[1.0]), c.key(&[2.0]), c.key(&[3.0]));
        c.insert(a.clone(), vec!["adce"]);
        c.insert(b.clone(), vec!["bdce"]);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.get(&a).is_some());
        c.insert(d.clone(), vec!["dse"]);
        assert_eq!(c.len(), 2);
        assert!(c.get(&a).is_some(), "recently used survives");
        assert!(c.get(&b).is_none(), "LRU entry evicted");
        assert!(c.get(&d).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let c = cache(1, 2);
        let k = c.key(&[1.0]);
        c.insert(k.clone(), vec!["adce"]);
        c.insert(k.clone(), vec!["dse"]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k), Some(vec!["dse"]));
    }
}
