//! Kernel and support-vector models: RBF kernel ridge, ε-SVR and ν-SVR
//! (primal subgradient on random Fourier features — see DESIGN.md §2 for
//! the substitution of libsvm's SMO), and linear SVR.

use super::{check_xy, column_means};
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// RBF kernel ridge regression: `(K + αI)⁻¹ y` with
/// `K(a,b) = exp(−γ‖a−b‖²)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelRidge {
    /// Regularization.
    pub alpha: f64,
    /// RBF width (`None` = 1/(d·var) heuristic).
    pub gamma: Option<f64>,
    train_x: Option<Matrix>,
    dual: Vec<f64>,
    gamma_fitted: f64,
    y_mean: f64,
}

impl Default for KernelRidge {
    fn default() -> Self {
        KernelRidge {
            alpha: 0.1,
            gamma: None,
            train_x: None,
            dual: Vec::new(),
            gamma_fitted: 1.0,
            y_mean: 0.0,
        }
    }
}

impl KernelRidge {
    /// Kernel ridge with explicit regularization and optional RBF width.
    pub fn new(alpha: f64, gamma: Option<f64>) -> KernelRidge {
        KernelRidge {
            alpha,
            gamma,
            ..KernelRidge::default()
        }
    }
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

fn gamma_heuristic(x: &Matrix) -> f64 {
    let d = x.cols() as f64;
    let total_var: f64 = (0..x.cols())
        .map(|j| mlcomp_linalg::variance(&x.col(j)))
        .sum();
    1.0 / (d * (total_var / d.max(1.0)).max(1e-9)).max(1e-9)
}

impl Regressor for KernelRidge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let n = x.rows();
        self.gamma_fitted = self.gamma.unwrap_or_else(|| gamma_heuristic(x));
        self.y_mean = mlcomp_linalg::mean(y);
        let yc: Vec<f64> = y.iter().map(|v| v - self.y_mean).collect();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rbf(x.row(i), x.row(j), self.gamma_fitted);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += self.alpha.max(1e-10);
        }
        self.dual = k
            .solve(&yc)
            .map_err(|e| TrainError::new(format!("kernel system: {e}")))?;
        self.train_x = Some(x.clone());
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let tx = self.train_x.as_ref().expect("predict before fit");
        self.y_mean
            + (0..tx.rows())
                .map(|t| self.dual[t] * rbf(row, tx.row(t), self.gamma_fitted))
                .sum::<f64>()
    }
}

/// Shared primal ε-insensitive subgradient trainer over an arbitrary
/// feature map (identity for linear SVR, random Fourier features for the
/// RBF machines).
fn svr_train(
    feats: &Matrix,
    y: &[f64],
    c: f64,
    epsilon: f64,
    epochs: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    use rand::seq::SliceRandom;
    let (n, d) = (feats.rows(), feats.cols());
    let mut w = vec![0.0; d];
    let mut b = mlcomp_linalg::mean(y);
    let lambda = 1.0 / (c * n as f64);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            t += 1.0;
            let eta = 1.0 / (lambda * (t + 100.0));
            let pred: f64 = b + feats.row(i).iter().zip(&w).map(|(a, c)| a * c).sum::<f64>();
            let err = pred - y[i];
            // Subgradient of the ε-insensitive loss.
            let g = if err > epsilon {
                1.0
            } else if err < -epsilon {
                -1.0
            } else {
                0.0
            };
            for j in 0..d {
                w[j] -= eta * (lambda * w[j] + g * feats[(i, j)]);
            }
            b -= eta * g;
        }
    }
    (w, b)
}

/// Random Fourier feature map approximating the RBF kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FourierMap {
    proj: Matrix, // d × k
    phase: Vec<f64>,
    scale: f64,
}

impl FourierMap {
    fn new(dim: usize, k: usize, gamma: f64, seed: u64) -> FourierMap {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut proj = Matrix::zeros(dim, k);
        let sigma = (2.0 * gamma).sqrt();
        for i in 0..dim {
            for j in 0..k {
                // Gaussian via Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                proj[(i, j)] = g * sigma;
            }
        }
        let phase: Vec<f64> = (0..k)
            .map(|_| rng.gen_range(0.0..2.0 * std::f64::consts::PI))
            .collect();
        FourierMap {
            proj,
            phase,
            scale: (2.0 / k as f64).sqrt(),
        }
    }

    /// [`FourierMap::transform`] of the one row `row - means`, in one
    /// buffer: bit for bit the matrix path, summing `matmul`'s products in
    /// its order and skipping the same zeros.
    fn transform_row(&self, row: &[f64], means: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.proj.cols()];
        for (k, (v, m)) in row.iter().zip(means).enumerate() {
            let a = v - m;
            if a == 0.0 {
                continue;
            }
            for (zj, p) in z.iter_mut().zip(self.proj.row(k)) {
                *zj += a * p;
            }
        }
        for (zj, phase) in z.iter_mut().zip(&self.phase) {
            *zj = self.scale * (*zj + phase).cos();
        }
        z
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        let z = x.matmul(&self.proj);
        let mut out = Matrix::zeros(z.rows(), z.cols());
        for i in 0..z.rows() {
            for j in 0..z.cols() {
                out[(i, j)] = self.scale * (z[(i, j)] + self.phase[j]).cos();
            }
        }
        out
    }
}

/// ε-SVR with an RBF kernel, trained in the primal over random Fourier
/// features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Svr {
    /// Penalty parameter C.
    pub c: f64,
    /// Insensitivity band as a fraction of the target spread.
    pub epsilon: f64,
    /// RBF width (`None` = heuristic).
    pub gamma: Option<f64>,
    /// Number of Fourier features.
    pub n_features: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Seed for features and shuffling.
    pub seed: u64,
    map: Option<FourierMap>,
    weights: Vec<f64>,
    intercept: f64,
    means: Vec<f64>,
}

impl Default for Svr {
    fn default() -> Self {
        Svr {
            c: 10.0,
            epsilon: 0.02,
            gamma: None,
            n_features: 200,
            epochs: 80,
            seed: 4,
            map: None,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
        }
    }
}

impl Svr {
    /// SVR with explicit penalty and tube width.
    pub fn new(c: f64, epsilon: f64) -> Svr {
        Svr {
            c,
            epsilon,
            ..Svr::default()
        }
    }
}

impl Svr {
    fn fit_with_epsilon(&mut self, x: &Matrix, y: &[f64], eps_abs: f64) -> Result<(), TrainError> {
        check_xy(x, y)?;
        self.means = column_means(x);
        let xc = super::center(x, &self.means);
        let gamma = self.gamma.unwrap_or_else(|| gamma_heuristic(&xc));
        let map = FourierMap::new(xc.cols(), self.n_features, gamma, self.seed);
        let feats = map.transform(&xc);
        let (w, b) = svr_train(&feats, y, self.c, eps_abs, self.epochs, self.seed ^ 0xABCD);
        self.map = Some(map);
        self.weights = w;
        self.intercept = b;
        Ok(())
    }
}

impl Regressor for Svr {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        let eps = self.epsilon * mlcomp_linalg::std_dev(y).max(1e-9);
        self.fit_with_epsilon(x, y, eps)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let map = self.map.as_ref().expect("predict before fit");
        let feats = map.transform_row(row, &self.means);
        self.intercept
            + feats
                .iter()
                .zip(&self.weights)
                .map(|(a, c)| a * c)
                .sum::<f64>()
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let map = self.map.as_ref().expect("predict before fit");
        let xc = super::center(x, &self.means);
        let feats = map.transform(&xc);
        (0..feats.rows())
            .map(|i| {
                self.intercept
                    + feats
                        .row(i)
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, c)| a * c)
                        .sum::<f64>()
            })
            .collect()
    }
}

/// ν-SVR: the ν parameter sets the fraction of points allowed outside the
/// tube; realized here by choosing ε as the ν-quantile of the residual
/// magnitudes of a pilot fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NuSvr {
    /// Tube-violation fraction ν in `(0, 1)`.
    pub nu: f64,
    /// Underlying SVR configuration.
    pub base: Svr,
}

impl Default for NuSvr {
    fn default() -> Self {
        NuSvr {
            nu: 0.5,
            base: Svr {
                seed: 14,
                ..Svr::default()
            },
        }
    }
}

impl Regressor for NuSvr {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        // Pilot fit with a wide tube, then set ε from residual quantiles.
        let pilot_eps = mlcomp_linalg::std_dev(y).max(1e-9) * 0.1;
        self.base.fit_with_epsilon(x, y, pilot_eps)?;
        let resid: Vec<f64> = self
            .base
            .predict(x)
            .iter()
            .zip(y)
            .map(|(p, t)| (p - t).abs())
            .collect();
        let eps = mlcomp_linalg::percentile(&resid, (1.0 - self.nu).clamp(0.0, 1.0) * 100.0);
        self.base.fit_with_epsilon(x, y, eps.max(1e-12))
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base.predict_row(row)
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.base.predict(x)
    }
}

/// Linear ε-SVR trained in the primal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSvr {
    /// Penalty parameter C.
    pub c: f64,
    /// Insensitivity band as a fraction of the target spread.
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

impl Default for LinearSvr {
    fn default() -> Self {
        LinearSvr {
            c: 10.0,
            epsilon: 0.02,
            epochs: 120,
            seed: 6,
            weights: Vec::new(),
            intercept: 0.0,
            means: Vec::new(),
            scales: Vec::new(),
        }
    }
}

impl Regressor for LinearSvr {
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
        let mut std = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                std[(i, j)] = (x[(i, j)] - self.means[j]) / self.scales[j];
            }
        }
        let eps = self.epsilon * mlcomp_linalg::std_dev(y).max(1e-9);
        let (w, b) = svr_train(&std, y, self.c, eps, self.epochs, self.seed);
        self.weights = w.iter().zip(&self.scales).map(|(wj, s)| wj / s).collect();
        self.intercept = b;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        super::predict_linear(row, &self.means, &self.weights, self.intercept)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_learns, synthetic};
    use super::*;

    #[test]
    fn kernel_ridge_fits_nonlinear_target() {
        // y = sin(x) — impossible for a linear model.
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        let x = Matrix::from_vec_rows(rows);
        let mut m = KernelRidge {
            alpha: 1e-4,
            ..KernelRidge::default()
        };
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x);
        assert!(crate::metrics::r2(&y, &pred) > 0.99);
    }

    #[test]
    fn svms_learn_linear_task() {
        assert_learns(&mut KernelRidge::default(), 0.85);
        assert_learns(&mut Svr::default(), 0.85);
        assert_learns(&mut NuSvr::default(), 0.85);
        assert_learns(&mut LinearSvr::default(), 0.95);
    }

    #[test]
    fn svr_is_seeded() {
        let (x, y) = synthetic(60, 0.1, 13);
        let mut a = Svr::default();
        let mut b = Svr::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    /// `predict_row` against `predict`, bit for bit, for both RBF SVRs.
    fn assert_rows_match(x: &Matrix, y: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let mut svr = Svr::default();
        svr.fit(x, y).unwrap();
        let mut nu = NuSvr::default();
        nu.fit(x, y).unwrap();
        let models: [(&dyn Regressor, &str); 2] = [(&svr, "svr"), (&nu, "nu-svr")];
        for (m, name) in models {
            let rows: Vec<f64> = (0..x.rows()).map(|i| m.predict_row(x.row(i))).collect();
            assert_eq!(bits(&rows), bits(&m.predict(x)), "{name}, {what}");
        }
    }

    #[test]
    fn svr_rows_match_the_matrix_path_bit_for_bit() {
        for (n, noise, seed) in [(30, 0.0, 1), (80, 0.2, 2)] {
            let (x, y) = synthetic(n, noise, seed);
            // A centered column is all zeros: the row path skips it too.
            let x =
                Matrix::from_vec_rows((0..x.rows()).map(|i| [x.row(i), &[1.0]].concat()).collect());
            assert_rows_match(&x, &y, &format!("synthetic({n}, {noise}, {seed})"));
        }
    }

    /// The quick three-program PARSEC dataset of an MLComp run, with every
    /// metric as target.
    #[test]
    fn svr_rows_match_the_matrix_path_on_the_parsec_dataset() {
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
            .collect();
        let dataset = mlcomp_core::DataExtraction::quick()
            .run(&mlcomp_platform::X86Platform::new(), &apps)
            .unwrap();
        let x = dataset.features();
        for metric in mlcomp_platform::METRIC_NAMES {
            assert_rows_match(&x, &dataset.targets(metric), metric);
        }
    }

    #[test]
    fn rbf_kernel_props() {
        let a = [1.0, 2.0];
        assert_eq!(rbf(&a, &a, 0.5), 1.0);
        assert!(rbf(&a, &[100.0, 100.0], 0.5) < 1e-10);
    }
}
