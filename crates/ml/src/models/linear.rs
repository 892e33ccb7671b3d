//! Plain linear models: ordinary least squares, ridge, SGD and
//! passive-aggressive regression.

use super::{center, check_xy, column_means, predict_linear};
use crate::{Regressor, TrainError};
use mlcomp_linalg::{Matrix, Qr};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Ordinary least squares via Householder QR; falls back to a tiny ridge
/// when the design is rank deficient.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Linear {
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Regressor for Linear {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = if xc.rows() >= xc.cols() {
            match Qr::new(&xc).solve(&yc) {
                Ok(w) => w,
                Err(_) => ridge_solve(&xc, &yc, 1e-8)?,
            }
        } else {
            ridge_solve(&xc, &yc, 1e-8)?
        };
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Ridge regression: closed-form `(XᵀX + αI)⁻¹ Xᵀy` on centered data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ridge {
    /// L2 regularization strength.
    pub alpha: f64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Ridge {
    /// Ridge with the given α.
    pub fn new(alpha: f64) -> Ridge {
        Ridge {
            alpha,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Default for Ridge {
    fn default() -> Self {
        Ridge::new(1.0)
    }
}

pub(crate) fn ridge_solve(xc: &Matrix, yc: &[f64], alpha: f64) -> Result<Vec<f64>, TrainError> {
    let d = xc.cols();
    let mut gram = xc.gram();
    for i in 0..d {
        gram[(i, i)] += alpha.max(1e-12);
    }
    let xty = xc.transpose().matvec(yc);
    gram.solve(&xty)
        .map_err(|e| TrainError::new(format!("ridge system: {e}")))
}

impl Regressor for Ridge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = ridge_solve(&xc, &yc, self.alpha)?;
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Linear regression by stochastic gradient descent (squared loss, L2
/// penalty, inverse-scaling learning rate, seeded shuffling).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// L2 penalty.
    pub alpha: f64,
    /// Initial learning rate.
    pub eta0: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Default for Sgd {
    fn default() -> Self {
        Sgd {
            alpha: 1e-4,
            eta0: 0.05,
            epochs: 60,
            seed: 1,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
            scales: Vec::new(),
        }
    }
}

impl Regressor for Sgd {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        // SGD needs standardized features to converge.
        self.means = column_means(x);
        self.scales = (0..x.cols())
            .map(|j| {
                let s = mlcomp_linalg::std_dev(&x.col(j));
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        let n = x.rows();
        let d = x.cols();
        let mut w = vec![0.0; d];
        let mut b = mlcomp_linalg::mean(y);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1.0;
                let eta = self.eta0 / (1.0 + self.eta0 * self.alpha * t).sqrt();
                let xi: Vec<f64> = (0..d)
                    .map(|j| (x[(i, j)] - self.means[j]) / self.scales[j])
                    .collect();
                let pred: f64 = b + xi.iter().zip(&w).map(|(a, c)| a * c).sum::<f64>();
                let err = pred - y[i];
                for j in 0..d {
                    w[j] -= eta * (err * xi[j] + self.alpha * w[j]);
                }
                b -= eta * err;
            }
        }
        // Fold the standardization into the stored weights.
        self.weights = w.iter().zip(&self.scales).map(|(wj, s)| wj / s).collect();
        self.intercept = b;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Passive-aggressive regression (PA-II): per-sample updates sized by the
/// ε-insensitive hinge loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassiveAggressive {
    /// Aggressiveness (PA-II regularization).
    pub c: f64,
    /// Insensitivity band.
    pub epsilon: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Default for PassiveAggressive {
    fn default() -> Self {
        PassiveAggressive {
            c: 1.0,
            epsilon: 0.01,
            epochs: 40,
            seed: 2,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
            scales: Vec::new(),
        }
    }
}

impl Regressor for PassiveAggressive {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        self.scales = (0..x.cols())
            .map(|j| {
                let s = mlcomp_linalg::std_dev(&x.col(j));
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        let (n, d) = (x.rows(), x.cols());
        let mut w = vec![0.0; d];
        let mut b = mlcomp_linalg::mean(y);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        // Scale the insensitivity band to the target spread.
        let eps = self.epsilon * mlcomp_linalg::std_dev(y).max(1e-9);
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let xi: Vec<f64> = (0..d)
                    .map(|j| (x[(i, j)] - self.means[j]) / self.scales[j])
                    .collect();
                let pred: f64 = b + xi.iter().zip(&w).map(|(a, c)| a * c).sum::<f64>();
                let err = pred - y[i];
                let loss = (err.abs() - eps).max(0.0);
                if loss > 0.0 {
                    let norm2: f64 = xi.iter().map(|v| v * v).sum::<f64>() + 1.0;
                    let tau = loss / (norm2 + 0.5 / self.c);
                    let sign = err.signum();
                    for j in 0..d {
                        w[j] -= tau * sign * xi[j];
                    }
                    b -= tau * sign;
                }
            }
        }
        self.weights = w.iter().zip(&self.scales).map(|(wj, s)| wj / s).collect();
        self.intercept = b;
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
    fn linear_recovers_exact_coefficients() {
        let (x, y) = synthetic(60, 0.0, 5);
        let mut m = Linear::default();
        m.fit(&x, &y).unwrap();
        assert!((m.weights[0] - 3.0).abs() < 1e-8);
        assert!((m.weights[1] + 2.0).abs() < 1e-8);
        assert!(m.weights[2].abs() < 1e-8);
    }

    #[test]
    fn ridge_shrinks_with_alpha() {
        let (x, y) = synthetic(60, 0.0, 5);
        let mut weak = Ridge::new(1e-6);
        let mut strong = Ridge::new(1e4);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let nw: f64 = weak.weights.iter().map(|w| w * w).sum();
        let ns: f64 = strong.weights.iter().map(|w| w * w).sum();
        assert!(ns < nw / 10.0, "strong ridge must shrink: {ns} vs {nw}");
    }

    #[test]
    fn all_learn_the_synthetic_task() {
        assert_learns(&mut Linear::default(), 0.99);
        assert_learns(&mut Ridge::new(0.1), 0.98);
        assert_learns(&mut Sgd::default(), 0.95);
        assert_learns(&mut PassiveAggressive::default(), 0.95);
    }

    #[test]
    fn fit_errors_on_bad_input() {
        let x = Matrix::zeros(0, 2);
        assert!(Linear::default().fit(&x, &[]).is_err());
        let x = Matrix::from_rows(&[&[1.0]]);
        assert!(Ridge::default().fit(&x, &[1.0, 2.0]).is_err());
        assert!(Sgd::default().fit(&x, &[f64::NAN]).is_err());
    }

    #[test]
    fn sgd_is_seeded() {
        let (x, y) = synthetic(50, 0.1, 9);
        let mut a = Sgd::default();
        let mut b = Sgd::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
