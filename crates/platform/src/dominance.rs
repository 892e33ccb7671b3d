//! Probabilistic Pareto dominance — the §III-D extension the paper defers
//! ("might be quantified by applying probabilistic dominance \[34\], which
//! requires an in-depth empirical evaluation … beyond the scope of this
//! paper"). Implemented here after Khosravi et al.'s formulation: given
//! noisy measurements of two configurations, estimate the probability that
//! one Pareto-dominates the other.

use crate::metrics::DynamicFeatures;
use rand::Rng;
use rand::SeedableRng;

/// The outcome of a probabilistic dominance comparison between
/// configurations `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominanceEstimate {
    /// P(a dominates b): every metric of `a` ≤ `b`, one strictly smaller.
    pub a_dominates: f64,
    /// P(b dominates a).
    pub b_dominates: f64,
    /// P(incomparable): each wins somewhere.
    pub incomparable: f64,
}

impl DominanceEstimate {
    /// `true` when `a` dominates with at least the given confidence.
    pub fn a_dominates_with(&self, confidence: f64) -> bool {
        self.a_dominates >= confidence
    }
}

/// Estimates probabilistic dominance between two configurations whose
/// metrics are observed under multiplicative Gaussian measurement noise
/// (the RAPL-jitter model of [`crate::Profiler::with_noise`]).
///
/// Monte-Carlo: draws `samples` noisy realizations of both metric vectors
/// and counts dominance outcomes. Deterministic for a fixed `seed`.
///
/// # Panics
///
/// Panics if `rel_sigma` is negative or `samples` is zero.
pub fn probabilistic_dominance(
    a: &DynamicFeatures,
    b: &DynamicFeatures,
    rel_sigma: f64,
    samples: usize,
    seed: u64,
) -> DominanceEstimate {
    assert!(rel_sigma >= 0.0, "noise must be non-negative");
    assert!(samples > 0, "need at least one sample");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut gauss = move |rng: &mut rand::rngs::StdRng| {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let mut a_wins = 0usize;
    let mut b_wins = 0usize;
    for _ in 0..samples {
        let jitter = |v: f64,
                      rng: &mut rand::rngs::StdRng,
                      g: &mut dyn FnMut(&mut rand::rngs::StdRng) -> f64| {
            v * (1.0 + rel_sigma * g(rng))
        };
        let mut av = a.as_array();
        let mut bv = b.as_array();
        // Time and energy carry measurement noise; instruction count and
        // code size are exact (counters / static), as in real profiling.
        for i in 0..2 {
            av[i] = jitter(av[i], &mut rng, &mut gauss);
            bv[i] = jitter(bv[i], &mut rng, &mut gauss);
        }
        let sa = DynamicFeatures::from_array(av);
        let sb = DynamicFeatures::from_array(bv);
        if sa.dominates(&sb) {
            a_wins += 1;
        } else if sb.dominates(&sa) {
            b_wins += 1;
        }
    }
    let n = samples as f64;
    DominanceEstimate {
        a_dominates: a_wins as f64 / n,
        b_dominates: b_wins as f64 / n,
        incomparable: (samples - a_wins - b_wins) as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(t: f64, e: f64, s: f64) -> DynamicFeatures {
        DynamicFeatures {
            exec_time_s: t,
            energy_j: e,
            instructions: 100.0,
            code_size: s,
        }
    }

    #[test]
    fn clear_dominance_is_near_certain() {
        let a = feats(1.0, 1.0, 100.0);
        let b = feats(2.0, 2.0, 100.0);
        let est = probabilistic_dominance(&a, &b, 0.01, 2000, 1);
        assert!(est.a_dominates > 0.99, "{est:?}");
        assert!(est.a_dominates_with(0.95));
        assert!(est.b_dominates < 0.01);
    }

    #[test]
    fn near_ties_become_uncertain_under_noise() {
        let a = feats(1.00, 1.00, 100.0);
        let b = feats(1.01, 1.01, 100.0);
        let certain = probabilistic_dominance(&a, &b, 1e-6, 2000, 2);
        let noisy = probabilistic_dominance(&a, &b, 0.05, 2000, 2);
        assert!(certain.a_dominates > 0.99);
        assert!(
            noisy.a_dominates < 0.8 && noisy.a_dominates > 0.2,
            "5% jitter on a 1% gap must blur dominance: {noisy:?}"
        );
    }

    #[test]
    fn tradeoffs_are_incomparable() {
        // a faster, b smaller — structural incomparability survives noise.
        let a = feats(1.0, 1.0, 200.0);
        let b = feats(2.0, 2.0, 100.0);
        let est = probabilistic_dominance(&a, &b, 0.02, 2000, 3);
        assert!(est.incomparable > 0.99, "{est:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = feats(1.0, 1.1, 100.0);
        let b = feats(1.05, 1.0, 100.0);
        let e1 = probabilistic_dominance(&a, &b, 0.03, 500, 7);
        let e2 = probabilistic_dominance(&a, &b, 0.03, 500, 7);
        assert_eq!(e1, e2);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let a = feats(1.0, 1.0, 100.0);
        let b = feats(1.02, 0.98, 100.0);
        let e = probabilistic_dominance(&a, &b, 0.05, 1000, 11);
        assert!((e.a_dominates + e.b_dominates + e.incomparable - 1.0).abs() < 1e-12);
    }
}
