//! The regression model zoo of the paper's Table IV — all 21 models,
//! implemented from scratch.
//!
//! | Family | Models |
//! |---|---|
//! | linear | [`Linear`], [`Ridge`], [`Sgd`], [`PassiveAggressive`] |
//! | Bayesian | [`BayesianRidge`], [`Ard`] |
//! | robust | [`Huber`], [`TheilSen`] |
//! | sparse | [`Lasso`], [`ElasticNet`], [`Lars`], [`LassoLars`], [`Omp`] |
//! | kernel / SVM | [`KernelRidge`], [`Svr`], [`NuSvr`], [`LinearSvr`] |
//! | trees | [`DecisionTree`], [`ExtraTree`], [`RandomForest`] |
//! | neural | [`Mlp`] |

mod bayes;
mod kernel;
mod linear;
mod mlp;
mod robust;
mod sparse;
mod tree;

pub use bayes::{Ard, BayesianRidge};
pub use kernel::{KernelRidge, LinearSvr, NuSvr, Svr};
pub use linear::{Linear, PassiveAggressive, Ridge, Sgd};
pub use mlp::Mlp;
pub use robust::{Huber, TheilSen};
pub use sparse::{ElasticNet, Lars, Lasso, LassoLars, Omp};
pub use tree::{DecisionTree, ExtraTree, RandomForest};

use mlcomp_linalg::Matrix;

/// Column means of a matrix.
pub(crate) fn column_means(x: &Matrix) -> Vec<f64> {
    (0..x.cols())
        .map(|j| mlcomp_linalg::mean(&x.col(j)))
        .collect()
}

/// Centers `x` by `means` (column-wise subtraction).
pub(crate) fn center(x: &Matrix, means: &[f64]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            out[(i, j)] = x[(i, j)] - means[j];
        }
    }
    out
}

/// Shared linear predictor: `x·w + b` on one row after centering.
pub(crate) fn predict_linear(row: &[f64], means: &[f64], w: &[f64], intercept: f64) -> f64 {
    let mut s = intercept;
    for (j, v) in row.iter().enumerate() {
        s += (v - means[j]) * w[j];
    }
    s
}

/// Validation shared by every `fit`: non-empty, consistent lengths,
/// finite features and targets.
pub(crate) fn check_xy(x: &Matrix, y: &[f64]) -> Result<(), crate::TrainError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(crate::TrainError::new("empty design matrix"));
    }
    if x.rows() != y.len() {
        return Err(crate::TrainError::new(format!(
            "{} rows but {} targets",
            x.rows(),
            y.len()
        )));
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(crate::TrainError::new("non-finite target"));
    }
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(crate::TrainError::new("non-finite feature"));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::Regressor;

    /// Deterministic synthetic regression data: y = 3·x₀ − 2·x₁ + 0.5 + ε.
    pub fn synthetic(n: usize, noise: f64, seed: u64) -> (Matrix, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rnd() * 4.0;
            let b = rnd() * 4.0;
            let c = rnd(); // irrelevant feature
            rows.push(vec![a, b, c]);
            y.push(3.0 * a - 2.0 * b + 0.5 + noise * rnd());
        }
        (Matrix::from_vec_rows(rows), y)
    }

    /// Fits the model on clean synthetic data and asserts the held-out R²
    /// exceeds `min_r2`.
    pub fn assert_learns<R: Regressor>(model: &mut R, min_r2: f64) {
        let (x, y) = synthetic(120, 0.05, 11);
        let (tr, te) = crate::train_test_split(x.rows(), 0.25, 3);
        let (xtr, ytr) = crate::take_rows(&x, &y, &tr);
        let (xte, yte) = crate::take_rows(&x, &y, &te);
        model.fit(&xtr, &ytr).expect("fit succeeds");
        let pred = model.predict(&xte);
        let r2 = crate::metrics::r2(&yte, &pred);
        assert!(
            r2 > min_r2,
            "{} reached R²={r2:.3}, needed {min_r2}",
            std::any::type_name::<R>()
        );
    }
}
