//! Outlier-robust models: Huber (IRLS) and Theil–Sen (subsample medians).

use super::linear::ridge_solve;
use super::{center, check_xy, column_means, predict_linear};
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Huber regression by iteratively reweighted least squares: quadratic
/// loss near zero, linear beyond `delta` (in units of the residual MAD).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Huber {
    /// Transition point between quadratic and linear loss, in robust
    /// standard deviations.
    pub delta: f64,
    /// IRLS iterations.
    pub max_iter: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for Huber {
    fn default() -> Self {
        Huber {
            delta: 1.35,
            max_iter: 20,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Regressor for Huber {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        let (n, d) = (xc.rows(), xc.cols());
        let mut w = ridge_solve(&xc, &yc, 1e-8)?;
        let mut b = 0.0f64;
        for _ in 0..self.max_iter {
            let resid: Vec<f64> = (0..n)
                .map(|i| yc[i] - b - (0..d).map(|j| xc[(i, j)] * w[j]).sum::<f64>())
                .collect();
            // Robust scale: median absolute deviation.
            let abs: Vec<f64> = resid.iter().map(|r| r.abs()).collect();
            let mad = mlcomp_linalg::median(&abs).max(1e-9) * 1.4826;
            let cutoff = self.delta * mad;
            let sample_w: Vec<f64> = resid
                .iter()
                .map(|r| {
                    if r.abs() <= cutoff {
                        1.0
                    } else {
                        cutoff / r.abs()
                    }
                })
                .collect();
            // Weighted ridge solve.
            let mut xw = Matrix::zeros(n, d);
            let mut yw = vec![0.0; n];
            for i in 0..n {
                let s = sample_w[i].sqrt();
                for j in 0..d {
                    xw[(i, j)] = xc[(i, j)] * s;
                }
                yw[i] = (yc[i] - b) * s;
            }
            let new_w = ridge_solve(&xw, &yw, 1e-8)?;
            // Intercept from weighted residual mean.
            let wsum: f64 = sample_w.iter().sum();
            let new_b = (0..n)
                .map(|i| sample_w[i] * (yc[i] - (0..d).map(|j| xc[(i, j)] * new_w[j]).sum::<f64>()))
                .sum::<f64>()
                / wsum.max(1e-12);
            let delta_w: f64 = new_w
                .iter()
                .zip(&w)
                .map(|(a, c)| (a - c).abs())
                .fold(0.0, f64::max);
            w = new_w;
            b = new_b;
            if delta_w < 1e-10 {
                break;
            }
        }
        self.weights = w;
        self.intercept = ymean + b;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Theil–Sen estimator generalized to multiple features: ordinary least
/// squares on many small random subsamples, combined by the coordinate-wise
/// median of the coefficient vectors (the classic spatial-median
/// approximation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TheilSen {
    /// Number of random subsamples.
    pub n_subsamples: usize,
    /// Random seed.
    pub seed: u64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for TheilSen {
    fn default() -> Self {
        TheilSen {
            n_subsamples: 60,
            seed: 5,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Regressor for TheilSen {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        let (n, d) = (xc.rows(), xc.cols());
        let k = (2 * d + 2).min(n);
        if k < d + 1 {
            return Err(TrainError::new("too few rows for Theil-Sen subsamples"));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        let mut coef_samples: Vec<Vec<f64>> = Vec::new();
        for _ in 0..self.n_subsamples {
            idx.shuffle(&mut rng);
            let rows = &idx[..k];
            let mut xs = Matrix::zeros(k, d);
            let mut ys = vec![0.0; k];
            for (ni, &ri) in rows.iter().enumerate() {
                xs.row_mut(ni).copy_from_slice(xc.row(ri));
                ys[ni] = yc[ri];
            }
            if let Ok(w) = ridge_solve(&xs, &ys, 1e-8) {
                if w.iter().all(|v| v.is_finite()) {
                    coef_samples.push(w);
                }
            }
        }
        if coef_samples.is_empty() {
            return Err(TrainError::new("no solvable Theil-Sen subsample"));
        }
        self.weights = (0..d)
            .map(|j| {
                let col: Vec<f64> = coef_samples.iter().map(|w| w[j]).collect();
                mlcomp_linalg::median(&col)
            })
            .collect();
        // Robust intercept: median residual (an outlier-shifted mean would
        // defeat the whole point of Theil–Sen).
        let resid: Vec<f64> = (0..n)
            .map(|i| y[i] - (0..d).map(|j| xc[(i, j)] * self.weights[j]).sum::<f64>())
            .collect();
        self.intercept = mlcomp_linalg::median(&resid);
        let _ = ymean;
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
        assert_learns(&mut Huber::default(), 0.97);
        assert_learns(&mut TheilSen::default(), 0.95);
    }

    #[test]
    fn robust_to_outliers() {
        let (x, mut y) = synthetic(120, 0.05, 21);
        // Corrupt 10% of the targets badly.
        for i in (0..y.len()).step_by(10) {
            y[i] += 500.0;
        }
        let mut ols = super::super::linear::Linear::default();
        let mut hub = Huber::default();
        let mut ts = TheilSen::default();
        ols.fit(&x, &y).unwrap();
        hub.fit(&x, &y).unwrap();
        ts.fit(&x, &y).unwrap();
        // Evaluate against CLEAN targets.
        let (xc, yc) = synthetic(120, 0.0, 99);
        let e_ols = crate::metrics::rmse(&yc, &ols.predict(&xc));
        let e_hub = crate::metrics::rmse(&yc, &hub.predict(&xc));
        let e_ts = crate::metrics::rmse(&yc, &ts.predict(&xc));
        assert!(e_hub < e_ols, "huber {e_hub} should beat ols {e_ols}");
        assert!(e_ts < e_ols, "theil-sen {e_ts} should beat ols {e_ols}");
    }
}
