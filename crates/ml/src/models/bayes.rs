//! Bayesian linear models: Bayesian ridge and ARD (automatic relevance
//! determination), both by evidence-approximation iterations.

use super::{center, check_xy, column_means, predict_linear};
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Bayesian ridge regression: iteratively re-estimates the noise precision
/// `alpha` and weight precision `lambda` (MacKay's evidence updates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayesianRidge {
    /// Maximum evidence iterations.
    pub max_iter: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
    /// Final noise precision (exposed for inspection).
    pub alpha_: f64,
    /// Final weight precision.
    pub lambda_: f64,
}

impl Default for BayesianRidge {
    fn default() -> Self {
        BayesianRidge {
            max_iter: 30,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
            alpha_: 1.0,
            lambda_: 1.0,
        }
    }
}

impl Regressor for BayesianRidge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        let (n, d) = (xc.rows(), xc.cols());
        let gram = xc.gram();
        let xty = xc.transpose().matvec(&yc);
        let mut alpha = 1.0 / mlcomp_linalg::variance(&yc).max(1e-9);
        let mut lambda = 1.0;
        let mut w = vec![0.0; d];
        for _ in 0..self.max_iter {
            // Posterior mean: (αXᵀX + λI)⁻¹ αXᵀy.
            let mut a = gram.scale(alpha);
            for i in 0..d {
                a[(i, i)] += lambda;
            }
            let rhs: Vec<f64> = xty.iter().map(|v| v * alpha).collect();
            w = a
                .solve(&rhs)
                .map_err(|e| TrainError::new(format!("posterior system: {e}")))?;
            // Effective parameters γ = Σ α·s_i / (λ + α·s_i) — approximated
            // through tr(A⁻¹·αXᵀX) via the diagonal.
            let pred = xc.matvec(&w);
            let sse: f64 = yc.iter().zip(&pred).map(|(t, p)| (t - p) * (t - p)).sum();
            let wsq: f64 = w.iter().map(|v| v * v).sum();
            let gamma = d as f64 * alpha * sse.max(1e-12)
                / (alpha * sse.max(1e-12) + lambda * wsq.max(1e-12));
            let gamma = gamma.clamp(1e-6, d as f64);
            let new_lambda = gamma / wsq.max(1e-12);
            let new_alpha = (n as f64 - gamma).max(1e-6) / sse.max(1e-12);
            let converged = (new_lambda - lambda).abs() < 1e-9 && (new_alpha - alpha).abs() < 1e-9;
            lambda = new_lambda.clamp(1e-10, 1e10);
            alpha = new_alpha.clamp(1e-10, 1e10);
            if converged {
                break;
            }
        }
        self.weights = w;
        self.intercept = ymean;
        self.alpha_ = alpha;
        self.lambda_ = lambda;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Automatic relevance determination: per-feature precision `λⱼ`; features
/// whose precision blows up are pruned to zero — Bayesian feature
/// selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ard {
    /// Maximum evidence iterations.
    pub max_iter: usize,
    /// Precision threshold above which a feature is pruned.
    pub prune_threshold: f64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for Ard {
    fn default() -> Self {
        Ard {
            max_iter: 30,
            prune_threshold: 1e8,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Regressor for Ard {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        let (n, d) = (xc.rows(), xc.cols());
        let gram = xc.gram();
        let xty = xc.transpose().matvec(&yc);
        let mut alpha = 1.0 / mlcomp_linalg::variance(&yc).max(1e-9);
        let mut lambdas = vec![1.0f64; d];
        let mut w = vec![0.0; d];
        for _ in 0..self.max_iter {
            let mut a = gram.scale(alpha);
            for i in 0..d {
                a[(i, i)] += lambdas[i];
            }
            let rhs: Vec<f64> = xty.iter().map(|v| v * alpha).collect();
            w = a
                .solve(&rhs)
                .map_err(|e| TrainError::new(format!("posterior system: {e}")))?;
            // Per-weight precision update λⱼ = 1 / wⱼ² (MacKay fixed point
            // with γⱼ ≈ 1 for active features).
            for j in 0..d {
                lambdas[j] = (1.0 / (w[j] * w[j]).max(1e-12)).min(self.prune_threshold * 10.0);
            }
            let pred = xc.matvec(&w);
            let sse: f64 = yc.iter().zip(&pred).map(|(t, p)| (t - p) * (t - p)).sum();
            alpha = (n as f64).max(1.0) / sse.max(1e-12);
            alpha = alpha.clamp(1e-10, 1e12);
        }
        for j in 0..d {
            if lambdas[j] >= self.prune_threshold {
                w[j] = 0.0;
            }
        }
        self.weights = w;
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_learns, synthetic};
    use super::*;

    #[test]
    fn both_learn() {
        assert_learns(&mut BayesianRidge::default(), 0.97);
        assert_learns(&mut Ard::default(), 0.97);
    }

    #[test]
    fn ard_prunes_irrelevant_feature() {
        let (x, y) = synthetic(150, 0.01, 3);
        let mut m = Ard::default();
        m.fit(&x, &y).unwrap();
        // Feature 2 is pure noise with tiny weight; features 0/1 are real.
        assert!(m.weights[0].abs() > 1.0);
        assert!(m.weights[1].abs() > 1.0);
        assert!(
            m.weights[2].abs() < 0.2,
            "noise weight should be (near-)pruned: {}",
            m.weights[2]
        );
    }

    #[test]
    fn bayesian_ridge_estimates_noise() {
        let (x, y) = synthetic(100, 0.0, 3);
        let mut clean = BayesianRidge::default();
        clean.fit(&x, &y).unwrap();
        let (xn, yn) = synthetic(100, 2.0, 3);
        let mut noisy = BayesianRidge::default();
        noisy.fit(&xn, &yn).unwrap();
        assert!(
            clean.alpha_ > noisy.alpha_,
            "noise precision must drop with noisy targets ({} vs {})",
            clean.alpha_,
            noisy.alpha_
        );
    }
}
