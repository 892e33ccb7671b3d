//! The ML stack behind MLComp's Performance Estimator: preprocessing
//! algorithms (the paper's Table III), a regression model zoo (Table IV),
//! evaluation metrics, and the automatic model search of Algorithm 1.
//!
//! Everything is implemented from scratch on [`mlcomp_linalg`] — the
//! paper's scikit-learn/Optuna stack is a dependency this reproduction
//! replaces (DESIGN.md §2). All stochastic pieces take explicit seeds.
//!
//! # Example: fitting one model
//!
//! ```
//! use mlcomp_linalg::Matrix;
//! use mlcomp_ml::models::Ridge;
//! use mlcomp_ml::Regressor;
//!
//! // y = 2·x₀ + 1
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let y = [1.0, 3.0, 5.0, 7.0];
//! let mut model = Ridge::new(1e-6);
//! model.fit(&x, &y).unwrap();
//! let pred = model.predict(&Matrix::from_rows(&[&[4.0]]));
//! assert!((pred[0] - 9.0).abs() < 1e-3);
//! ```

pub mod any;
pub mod metrics;
pub mod models;
pub mod preprocess;
pub mod search;
pub mod tuner;

use mlcomp_linalg::Matrix;
use std::fmt;

/// Training failed (degenerate input, singular system, no data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainError {
    /// What went wrong.
    pub message: String,
}

impl TrainError {
    /// Creates an error with a message.
    pub fn new(message: impl Into<String>) -> TrainError {
        TrainError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "training failed: {}", self.message)
    }
}

impl std::error::Error for TrainError {}

/// A regression model: fit on `(X, y)`, predict on new rows.
///
/// All the paper's Table IV models implement this trait; the model search
/// reaches them through [`AnyModel`], which names each one (Table IV's row).
pub trait Regressor {
    /// Fits the model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on degenerate input (no rows, dimension
    /// mismatch, singular systems that cannot be regularized away).
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError>;

    /// Predicts the value of one feature row.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a successful
    /// [`Regressor::fit`] or with a mismatched column count.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predicts one value per row of `x`: [`Regressor::predict_row`] of
    /// each row, unless a model predicts whole matrices at once.
    ///
    /// # Panics
    ///
    /// As [`Regressor::predict_row`].
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }
}

/// A feature-space transformation: fit on training rows, transform any
/// rows. All the paper's Table III preprocessing algorithms implement
/// this.
pub trait Preprocessor {
    /// Learns the transformation parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the input is degenerate for this
    /// transform (e.g. PCA on an empty matrix).
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError>;

    /// Applies the learned transformation.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a successful fit or
    /// with a mismatched column count.
    fn transform(&self, x: &Matrix) -> Matrix;

    /// Transforms one row in place, bit for bit the row of
    /// [`Preprocessor::transform`] on a one-row matrix, without building
    /// matrices.
    ///
    /// # Panics
    ///
    /// As [`Preprocessor::transform`].
    fn transform_row(&self, row: &mut Vec<f64>);

    /// Fits and transforms in one step.
    ///
    /// # Errors
    ///
    /// Same as [`Preprocessor::fit`].
    fn fit_transform(&mut self, x: &Matrix) -> Result<Matrix, TrainError> {
        self.fit(x)?;
        Ok(self.transform(x))
    }
}

pub use any::{AnyModel, AnyPreprocessor};
pub use search::{model_zoo, preprocessor_zoo, FittedPipeline, ModelSearch, SearchOutcome};

/// Deterministic train/test split: shuffles row indices with the seed and
/// returns `(train, test)` index sets with `test_fraction` of the rows in
/// the test set (at least 1 each when possible).
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_test = ((n as f64 * test_fraction).round() as usize).clamp(1, n.saturating_sub(1).max(1));
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

/// Extracts the given rows of a matrix and target slice.
pub fn take_rows(x: &Matrix, y: &[f64], rows: &[usize]) -> (Matrix, Vec<f64>) {
    (x.select_rows(rows), rows.iter().map(|&ri| y[ri]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let (tr1, te1) = train_test_split(100, 0.2, 7);
        let (tr2, te2) = train_test_split(100, 0.2, 7);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(te1.len(), 20);
        assert_eq!(tr1.len(), 80);
        let mut all: Vec<usize> = tr1.iter().chain(te1.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        let (_, te3) = train_test_split(100, 0.2, 8);
        assert_ne!(te1, te3, "different seeds shuffle differently");
    }

    #[test]
    fn take_rows_selects() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = [10.0, 20.0, 30.0];
        let (xs, ys) = take_rows(&x, &y, &[2, 0]);
        assert_eq!(xs.row(0), &[3.0]);
        assert_eq!(xs.row(1), &[1.0]);
        assert_eq!(ys, vec![30.0, 10.0]);
    }
}
