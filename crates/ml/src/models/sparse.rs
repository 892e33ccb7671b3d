//! Sparsity-inducing linear models: Lasso and ElasticNet (coordinate
//! descent), LARS and Lasso-LARS (least-angle steps), and orthogonal
//! matching pursuit.

use super::linear::ridge_solve;
use super::{center, check_xy, column_means, predict_linear};
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use serde::{Deserialize, Serialize};

fn soft_threshold(v: f64, t: f64) -> f64 {
    if v > t {
        v - t
    } else if v < -t {
        v + t
    } else {
        0.0
    }
}

/// Shared coordinate-descent core for Lasso (`l2 = 0`) and ElasticNet.
fn coordinate_descent(xc: &Matrix, yc: &[f64], l1: f64, l2: f64, max_iter: usize) -> Vec<f64> {
    let (n, d) = (xc.rows(), xc.cols());
    let nf = n as f64;
    let col_sq: Vec<f64> = (0..d)
        .map(|j| xc.col(j).iter().map(|v| v * v).sum::<f64>() / nf)
        .collect();
    let mut w = vec![0.0; d];
    let mut resid: Vec<f64> = yc.to_vec();
    for _ in 0..max_iter {
        let mut max_delta = 0.0f64;
        for j in 0..d {
            if col_sq[j] < 1e-12 {
                continue;
            }
            // rho = (1/n) xⱼ · (resid + xⱼ wⱼ)
            let mut rho = 0.0;
            for i in 0..n {
                rho += xc[(i, j)] * resid[i];
            }
            rho = rho / nf + col_sq[j] * w[j];
            let new_wj = soft_threshold(rho, l1) / (col_sq[j] + l2);
            let delta = new_wj - w[j];
            if delta != 0.0 {
                for i in 0..n {
                    resid[i] -= delta * xc[(i, j)];
                }
                w[j] = new_wj;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < 1e-10 {
            break;
        }
    }
    w
}

/// Lasso (L1-penalized least squares) by cyclic coordinate descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lasso {
    /// L1 penalty.
    pub alpha: f64,
    /// Maximum coordinate-descent sweeps.
    pub max_iter: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Lasso {
    /// Lasso with the given α.
    pub fn new(alpha: f64) -> Lasso {
        Lasso {
            alpha,
            max_iter: 300,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }

    /// Fitted coefficients (empty before fit).
    pub fn coefficients(&self) -> &[f64] {
        &self.weights
    }
}

impl Default for Lasso {
    fn default() -> Self {
        Lasso::new(0.1)
    }
}

impl Regressor for Lasso {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = coordinate_descent(&xc, &yc, self.alpha, 0.0, self.max_iter);
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Elastic net: mixed L1/L2 penalty by coordinate descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticNet {
    /// Total penalty strength.
    pub alpha: f64,
    /// L1 share in `[0, 1]` (1 = lasso, 0 = ridge-like).
    pub l1_ratio: f64,
    /// Maximum sweeps.
    pub max_iter: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for ElasticNet {
    fn default() -> Self {
        ElasticNet {
            alpha: 0.1,
            l1_ratio: 0.5,
            max_iter: 300,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl ElasticNet {
    /// Elastic net with explicit penalty strength and L1 share.
    pub fn new(alpha: f64, l1_ratio: f64) -> ElasticNet {
        ElasticNet {
            alpha,
            l1_ratio,
            ..ElasticNet::default()
        }
    }
}

impl Regressor for ElasticNet {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        let l1 = self.alpha * self.l1_ratio;
        let l2 = self.alpha * (1.0 - self.l1_ratio);
        self.weights = coordinate_descent(&xc, &yc, l1, l2, self.max_iter);
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Least-angle regression: forward selection where, at each step, the
/// active set is refit jointly and extended by the feature most correlated
/// with the residual, up to `n_nonzero`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lars {
    /// Maximum active features.
    pub n_nonzero: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for Lars {
    fn default() -> Self {
        Lars {
            n_nonzero: usize::MAX,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

/// Forward least-angle/stepwise core shared by LARS variants and OMP:
/// grows the active set by residual correlation; `stop_corr` ends the path
/// early (the Lasso-LARS criterion).
fn forward_select(
    xc: &Matrix,
    yc: &[f64],
    n_nonzero: usize,
    stop_corr: f64,
) -> Result<Vec<f64>, TrainError> {
    let (n, d) = (xc.rows(), xc.cols());
    let nf = n as f64;
    let mut active: Vec<usize> = Vec::new();
    let mut w = vec![0.0; d];
    let mut resid: Vec<f64> = yc.to_vec();
    let limit = n_nonzero.min(d).min(n.saturating_sub(1).max(1));
    while active.len() < limit {
        // Most-correlated inactive feature.
        let mut best = None;
        let mut best_corr = 0.0f64;
        for j in 0..d {
            if active.contains(&j) {
                continue;
            }
            let c: f64 = (0..n).map(|i| xc[(i, j)] * resid[i]).sum::<f64>() / nf;
            if c.abs() > best_corr {
                best_corr = c.abs();
                best = Some(j);
            }
        }
        let Some(j) = best else { break };
        if best_corr <= stop_corr {
            break;
        }
        active.push(j);
        // Joint refit on the active set (the least-squares direction all
        // LARS steps converge to).
        let xa = xc.select_columns(&active);
        let wa = ridge_solve(&xa, yc, 1e-10)?;
        for v in w.iter_mut() {
            *v = 0.0;
        }
        for (k, &aj) in active.iter().enumerate() {
            w[aj] = wa[k];
        }
        for i in 0..n {
            resid[i] = yc[i] - active.iter().map(|&aj| xc[(i, aj)] * w[aj]).sum::<f64>();
        }
    }
    Ok(w)
}

impl Regressor for Lars {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = forward_select(&xc, &yc, self.n_nonzero, 0.0)?;
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Lasso solved along the LARS path: the forward path stops once the
/// residual correlation falls below `alpha` (the KKT stationarity point of
/// the L1 problem).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LassoLars {
    /// L1 penalty / path stopping threshold.
    pub alpha: f64,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for LassoLars {
    fn default() -> Self {
        LassoLars {
            alpha: 0.05,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Regressor for LassoLars {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = forward_select(&xc, &yc, usize::MAX, self.alpha)?;
        self.intercept = ymean;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

/// Orthogonal matching pursuit: greedy selection with orthogonal refit, up
/// to a fixed number of nonzero coefficients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Omp {
    /// Number of nonzero coefficients to select.
    pub n_nonzero: usize,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for Omp {
    fn default() -> Self {
        Omp {
            n_nonzero: 8,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Regressor for Omp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = center(x, &self.means);
        let ymean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - ymean).collect();
        self.weights = forward_select(&xc, &yc, self.n_nonzero, 1e-12)?;
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
    fn all_learn() {
        assert_learns(&mut Lasso::new(0.01), 0.97);
        assert_learns(&mut ElasticNet::default(), 0.90);
        assert_learns(&mut Lars::default(), 0.98);
        assert_learns(&mut LassoLars::default(), 0.95);
        assert_learns(&mut Omp::default(), 0.98);
    }

    #[test]
    fn lasso_sparsifies() {
        let (x, y) = synthetic(100, 0.01, 7);
        let mut weak = Lasso::new(0.001);
        let mut strong = Lasso::new(2.0);
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let nz_weak = weak
            .coefficients()
            .iter()
            .filter(|w| w.abs() > 1e-9)
            .count();
        let nz_strong = strong
            .coefficients()
            .iter()
            .filter(|w| w.abs() > 1e-9)
            .count();
        assert!(nz_strong <= nz_weak, "{nz_strong} vs {nz_weak}");
        // The irrelevant feature is zeroed, the real ones shrink.
        assert!(strong.coefficients()[2].abs() < 1e-9);
        assert!(strong.coefficients()[0].abs() < weak.coefficients()[0].abs());
    }

    #[test]
    fn omp_respects_sparsity_budget() {
        let (x, y) = synthetic(100, 0.01, 7);
        let mut m = Omp {
            n_nonzero: 1,
            ..Omp::default()
        };
        m.fit(&x, &y).unwrap();
        let nz = m.weights.iter().filter(|w| w.abs() > 1e-9).count();
        assert_eq!(nz, 1);
        // The strongest true feature (x₀, weight 3) is selected.
        assert!(m.weights[0].abs() > 1.0);
    }

    #[test]
    fn soft_threshold_props() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }
}
