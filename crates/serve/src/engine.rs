//! The selection engine: a validated selector behind the sequence cache.

use crate::bundle::ArtifactBundle;
use crate::cache::{CacheConfig, SequenceCache};
use mlcomp_core::PhaseSequenceSelector;
use mlcomp_trace as trace;

/// One answered selection: the phase sequence plus whether it came from
/// the cache. The `cached` flag is observability metadata only — the
/// `phases` of a hit are identical to what a miss would have computed,
/// and the serving wire format deliberately omits the flag so responses
/// are byte-identical either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The selected phase sequence, best-first, within the Table V limits.
    pub phases: Vec<&'static str>,
    /// Whether the sequence was served from the cache.
    pub cached: bool,
}

/// Answers "static features → phase sequence" through a deployed policy,
/// fronted by a sharded LRU cache.
///
/// An engine is built from an [`ArtifactBundle`], whose selector was
/// validated against this build's phase registry, so every phase index the
/// policy returns names a phase of this build. The feature vector is the
/// caller's to check: [`select`](SelectionEngine::select) panics on one of
/// the wrong length, and [`crate::BatchServer`] rejects such requests
/// before selecting.
/// All methods take `&self` and the engine is `Sync`; one engine serves
/// a whole worker pool.
pub struct SelectionEngine {
    selector: PhaseSequenceSelector,
    cache: SequenceCache,
}

impl SelectionEngine {
    /// Builds an engine from an already-validated bundle. Infallible:
    /// [`ArtifactBundle`] values are deployable by construction.
    pub fn from_bundle(bundle: ArtifactBundle, cache: CacheConfig) -> SelectionEngine {
        let (selector, _estimator) = bundle.into_parts();
        SelectionEngine {
            selector,
            cache: SequenceCache::new(cache),
        }
    }

    /// Selects the phase sequence for one static-feature vector.
    ///
    /// Deterministic and cache-transparent: for equal feature vectors the
    /// returned `phases` are identical whether or not the cache answered
    /// (the determinism test in `tests/serve_roundtrip.rs` enforces this
    /// bit-for-bit). Emits `serve.cache.hit` / `serve.cache.miss`
    /// counters and a `serve.select` span.
    ///
    /// # Panics
    ///
    /// Panics when `features` does not hold exactly
    /// [`mlcomp_features::FEATURE_COUNT`] values: the selector's projector
    /// reads that many.
    pub fn select(&self, features: &[f64]) -> Selection {
        let mut span = trace::span("serve.select");
        let key = self.cache.key(features);
        if let Some(phases) = self.cache.get(&key) {
            trace::counter("serve.cache.hit", 1);
            if span.is_recording() {
                span.field("cached", true);
            }
            return Selection {
                phases,
                cached: true,
            };
        }
        let phases = self.selector.select_from_features(features);
        self.cache.insert(key, phases.clone());
        trace::counter("serve.cache.miss", 1);
        if span.is_recording() {
            span.field("cached", false);
            span.field("seq_len", phases.len());
        }
        Selection {
            phases,
            cached: false,
        }
    }

    /// The deployed selector.
    pub fn selector(&self) -> &PhaseSequenceSelector {
        &self.selector
    }

    /// Number of cached sequences.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}
