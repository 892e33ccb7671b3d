//! The preprocessing algorithms of the paper's Table III: PCA (fixed and
//! MLE-dimensioned), NCA (as fixed-dimension PCA), the five scalers and
//! the two distribution transformers.

use crate::{Preprocessor, TrainError};
use mlcomp_linalg::{percentile, symmetric_eigen, Matrix};
use serde::{Deserialize, Serialize};

/// No-op preprocessing (the baseline combination in the model search).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Identity;

impl Preprocessor for Identity {
    fn fit(&mut self, _x: &Matrix) -> Result<(), TrainError> {
        Ok(())
    }
    fn transform(&self, x: &Matrix) -> Matrix {
        x.clone()
    }
    fn transform_row(&self, _row: &mut Vec<f64>) {}
}

/// Mean–standard-deviation scaling (scikit-learn's `StandardScaler`).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct StandardScaler {
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    mean: Vec<f64>,
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    std: Vec<f64>,
}

impl Preprocessor for StandardScaler {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "scaler")?;
        self.mean = (0..x.cols())
            .map(|j| mlcomp_linalg::mean(&x.col(j)))
            .collect();
        self.std = (0..x.cols())
            .map(|j| {
                let s = mlcomp_linalg::std_dev(&x.col(j));
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| (v - self.mean[j]) / self.std[j])
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| (v - self.mean[j]) / self.std[j]);
    }
}

/// Min–max scaling to `[0, 1]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MinMaxScaler {
    min: Vec<f64>,
    range: Vec<f64>,
}

impl Preprocessor for MinMaxScaler {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "scaler")?;
        self.min = (0..x.cols())
            .map(|j| x.col(j).iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        self.range = (0..x.cols())
            .map(|j| {
                let max = x.col(j).iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let r = max - self.min[j];
                if r < 1e-12 {
                    1.0
                } else {
                    r
                }
            })
            .collect();
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| (v - self.min[j]) / self.range[j])
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| (v - self.min[j]) / self.range[j]);
    }
}

/// Max-absolute-value scaling to `[-1, 1]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MaxAbsScaler {
    scale: Vec<f64>,
}

impl Preprocessor for MaxAbsScaler {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "scaler")?;
        self.scale = (0..x.cols())
            .map(|j| {
                let m = x.col(j).iter().fold(0.0f64, |a, v| a.max(v.abs()));
                if m < 1e-12 {
                    1.0
                } else {
                    m
                }
            })
            .collect();
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| v / self.scale[j])
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| v / self.scale[j]);
    }
}

/// Robust scaling by median and interquartile range.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RobustScaler {
    median: Vec<f64>,
    iqr: Vec<f64>,
}

impl Preprocessor for RobustScaler {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "scaler")?;
        self.median = (0..x.cols()).map(|j| percentile(&x.col(j), 50.0)).collect();
        self.iqr = (0..x.cols())
            .map(|j| {
                let col = x.col(j);
                let r = percentile(&col, 75.0) - percentile(&col, 25.0);
                if r < 1e-12 {
                    1.0
                } else {
                    r
                }
            })
            .collect();
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| (v - self.median[j]) / self.iqr[j])
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| (v - self.median[j]) / self.iqr[j]);
    }
}

/// Yeo–Johnson power transformer: per-column λ selected from a small grid
/// by normality (skewness) of the transformed data, then standardized.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PowerTransformer {
    lambda: Vec<f64>,
    post: StandardScaler,
}

fn yeo_johnson(v: f64, l: f64) -> f64 {
    if v >= 0.0 {
        if l.abs() < 1e-9 {
            (v + 1.0).ln()
        } else {
            ((v + 1.0).powf(l) - 1.0) / l
        }
    } else if (l - 2.0).abs() < 1e-9 {
        -(-v + 1.0).ln()
    } else {
        -((-v + 1.0).powf(2.0 - l) - 1.0) / (2.0 - l)
    }
}

fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 3.0 {
        return 0.0;
    }
    let m = mlcomp_linalg::mean(xs);
    let s = mlcomp_linalg::std_dev(xs).max(1e-12);
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n
}

impl Preprocessor for PowerTransformer {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "transformer")?;
        const GRID: [f64; 7] = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
        self.lambda = (0..x.cols())
            .map(|j| {
                let col = x.col(j);
                GRID.iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let sa =
                            skewness(&col.iter().map(|&v| yeo_johnson(v, a)).collect::<Vec<_>>())
                                .abs();
                        let sb =
                            skewness(&col.iter().map(|&v| yeo_johnson(v, b)).collect::<Vec<_>>())
                                .abs();
                        // An overflowing λ scores NaN and never wins.
                        sa.total_cmp(&sb)
                    })
                    .unwrap()
            })
            .collect();
        let transformed = self.apply_power(x);
        self.post.fit(&transformed)
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        self.post.transform(&self.apply_power(x))
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| yeo_johnson(v, self.lambda[j]));
        self.post.transform_row(row);
    }
}

impl PowerTransformer {
    fn apply_power(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| yeo_johnson(v, self.lambda[j]))
    }
}

/// Quantile transformer: maps each column through its empirical CDF to a
/// uniform distribution on `[0, 1]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QuantileTransformer {
    sorted_cols: Vec<Vec<f64>>,
}

impl Preprocessor for QuantileTransformer {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        check_fit_input(x, "transformer")?;
        self.sorted_cols = (0..x.cols())
            .map(|j| {
                let mut c = x.col(j);
                c.sort_by(|a, b| a.partial_cmp(b).unwrap());
                c
            })
            .collect();
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        elementwise(x, |v, j| self.cdf(v, j))
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        elementwise_row(row, |v, j| self.cdf(v, j));
    }
}

impl QuantileTransformer {
    /// Fraction of column `j`'s training values ≤ `v` (empirical CDF).
    fn cdf(&self, v: f64, j: usize) -> f64 {
        let col = &self.sorted_cols[j];
        let pos = col.partition_point(|&c| c <= v);
        pos as f64 / col.len() as f64
    }
}

/// Principal component analysis. `n_components: None` selects the
/// dimensionality automatically by profile likelihood over the eigenvalue
/// spectrum — the paper's "PCA with Maximum Likelihood Estimation"
/// (Minka's method, simplified to the dominant-gap criterion).
///
/// Serializable so the deployment-time Phase Sequence Selector can carry
/// its fitted projection alongside the policy network.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Pca {
    /// Requested output dimensionality (`None` = MLE).
    pub n_components: Option<usize>,
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    mean: Vec<f64>,
    components: Option<Matrix>, // d × k
}

impl Pca {
    /// PCA to a fixed number of components.
    pub fn fixed(k: usize) -> Pca {
        Pca {
            n_components: Some(k),
            ..Pca::default()
        }
    }

    /// PCA with MLE-selected dimensionality.
    pub fn mle() -> Pca {
        Pca::default()
    }

    /// Output dimensionality after fitting.
    pub fn out_dim(&self) -> usize {
        self.components.as_ref().map(|c| c.cols()).unwrap_or(0)
    }
}

impl Preprocessor for Pca {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        if x.rows() < 2 {
            return Err(TrainError::new("PCA needs at least two rows"));
        }
        check_fit_input(x, "PCA")?;
        let d = x.cols();
        self.mean = (0..d).map(|j| mlcomp_linalg::mean(&x.col(j))).collect();
        let centered = elementwise(x, |v, j| v - self.mean[j]);
        let cov = centered.gram().scale(1.0 / (x.rows() as f64 - 1.0));
        let eig = symmetric_eigen(&cov);
        let evals: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0)).collect();
        let k = match self.n_components {
            Some(k) => k.min(d).max(1),
            None => mle_dimension(&evals),
        };
        let cols: Vec<usize> = (0..k).collect();
        self.components = Some(eig.vectors.select_columns(&cols));
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        let comps = self.components.as_ref().expect("PCA transform before fit");
        let centered = elementwise(x, |v, j| v - self.mean[j]);
        centered.matmul(comps)
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        let comps = self.components.as_ref().expect("PCA transform before fit");
        project_row(row, &self.mean, comps);
    }
}

/// Profile-likelihood-flavored dimensionality choice: keep components
/// until the explained-variance gain drops below 1% of the total, with at
/// least one component.
fn mle_dimension(evals: &[f64]) -> usize {
    let total: f64 = evals.iter().sum();
    if total <= 0.0 {
        return 1;
    }
    let mut k = 0;
    let mut cum = 0.0;
    for &l in evals {
        if k > 0 && (l / total) < 0.01 {
            break;
        }
        cum += l;
        k += 1;
        if cum / total > 0.995 {
            break;
        }
    }
    k.max(1)
}

/// The search's `nca` entry: the projection onto the `dim` leading
/// principal components of the training rows, which is [`Pca::fixed`]
/// under another name. Neighbourhood components analysis proper learns
/// its projection from the targets, which the unsupervised
/// [`Preprocessor`] interface does not see.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Nca {
    /// Output dimensionality.
    pub dim: usize,
    projection: Option<Matrix>, // d × k
    mean: Vec<f64>,
}

impl Nca {
    /// NCA projecting to `dim` dimensions.
    pub fn new(dim: usize) -> Nca {
        Nca {
            dim,
            projection: None,
            mean: Vec::new(),
        }
    }
}

impl Preprocessor for Nca {
    fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
        let mut pca = Pca::fixed(self.dim);
        pca.fit(x)?;
        self.mean = pca.mean;
        // The principal axes themselves, unscaled (not whitened).
        self.projection = pca.components;
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        let proj = self.projection.as_ref().expect("NCA transform before fit");
        let centered = elementwise(x, |v, j| v - self.mean[j]);
        centered.matmul(proj)
    }

    fn transform_row(&self, row: &mut Vec<f64>) {
        let proj = self.projection.as_ref().expect("NCA transform before fit");
        project_row(row, &self.mean, proj);
    }
}

/// Validation shared by the fits: rows to fit on, all of them finite
/// (sorting, percentiles and eigendecomposition need comparable values).
fn check_fit_input(x: &Matrix, what: &str) -> Result<(), TrainError> {
    if x.rows() == 0 {
        return Err(TrainError::new(format!("no rows to fit {what}")));
    }
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(TrainError::new(format!("non-finite feature for {what}")));
    }
    Ok(())
}

/// `row` centered by `mean` times `proj` (d × k), in place: the row of
/// `centered.matmul(proj)`, with its sums in the same order and its zero
/// skip.
fn project_row(row: &mut Vec<f64>, mean: &[f64], proj: &Matrix) {
    let d = row.len();
    assert_eq!(d, proj.rows(), "dimension mismatch");
    row.resize(d + proj.cols(), 0.0);
    let (input, out) = row.split_at_mut(d);
    for (k, v) in input.iter().enumerate() {
        let a = v - mean[k];
        if a == 0.0 {
            continue;
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o += a * proj[(k, j)];
        }
    }
    row.drain(..d);
}

fn elementwise_row(row: &mut [f64], f: impl Fn(f64, usize) -> f64) {
    for (j, v) in row.iter_mut().enumerate() {
        *v = f(*v, j);
    }
}

fn elementwise(x: &Matrix, f: impl Fn(f64, usize) -> f64) -> Matrix {
    let mut out = x.clone();
    for i in 0..out.rows() {
        elementwise_row(out.row_mut(i), &f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 10.0, 5.0],
            &[2.0, 20.0, 5.0],
            &[3.0, 30.0, 5.0],
            &[4.0, 40.0, 5.0],
        ])
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let mut s = StandardScaler::default();
        let t = s.fit_transform(&sample()).unwrap();
        for j in 0..2 {
            assert!(mlcomp_linalg::mean(&t.col(j)).abs() < 1e-12);
            assert!((mlcomp_linalg::std_dev(&t.col(j)) - 1.0).abs() < 1e-12);
        }
        // Constant column stays finite (guarded divisor).
        assert!(t.col(2).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn minmax_hits_unit_interval() {
        let mut s = MinMaxScaler::default();
        let t = s.fit_transform(&sample()).unwrap();
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(3, 0)], 1.0);
    }

    #[test]
    fn maxabs_bounds() {
        let x = Matrix::from_rows(&[&[-4.0], &[2.0]]);
        let mut s = MaxAbsScaler::default();
        let t = s.fit_transform(&x).unwrap();
        assert_eq!(t[(0, 0)], -1.0);
        assert_eq!(t[(1, 0)], 0.5);
    }

    #[test]
    fn robust_centers_on_median() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[100.0]]);
        let mut s = RobustScaler::default();
        let t = s.fit_transform(&x).unwrap();
        // Median (2.5) maps to 0 between rows 1 and 2.
        assert!(t[(1, 0)] < 0.0 && t[(2, 0)] > 0.0);
    }

    #[test]
    fn power_reduces_skewness() {
        // Strongly right-skewed column.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i as f64 / 4.0).exp()]).collect();
        let x = Matrix::from_vec_rows(rows);
        let before = skewness(&x.col(0));
        let mut p = PowerTransformer::default();
        let t = p.fit_transform(&x).unwrap();
        let after = skewness(&t.col(0));
        assert!(after.abs() < before.abs());
    }

    #[test]
    fn quantile_maps_to_uniform() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i as f64).powi(3)]).collect();
        let x = Matrix::from_vec_rows(rows);
        let mut q = QuantileTransformer::default();
        let t = q.fit_transform(&x).unwrap();
        assert!(t.col(0).iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Monotone mapping.
        for i in 1..50 {
            assert!(t[(i, 0)] >= t[(i - 1, 0)]);
        }
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // Data varies along (1, 1), noise-free.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let t = i as f64;
                vec![t, t]
            })
            .collect();
        let x = Matrix::from_vec_rows(rows);
        let mut p = Pca::fixed(1);
        let t = p.fit_transform(&x).unwrap();
        assert_eq!(t.cols(), 1);
        // Projected variance ≈ total variance (2 × var of one axis).
        let var_t = mlcomp_linalg::variance(&t.col(0));
        let var_x = mlcomp_linalg::variance(&x.col(0));
        assert!((var_t - 2.0 * var_x).abs() / (2.0 * var_x) < 1e-6);
    }

    #[test]
    fn pca_mle_finds_low_rank() {
        // Rank-2 data in 5 dimensions.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let a = (i as f64).sin() * 10.0;
                let b = (i as f64).cos() * 5.0;
                vec![a, b, a + b, a - b, 2.0 * a]
            })
            .collect();
        let x = Matrix::from_vec_rows(rows);
        let mut p = Pca::mle();
        p.fit(&x).unwrap();
        assert!(p.out_dim() <= 3, "MLE picked {} dims", p.out_dim());
        assert!(p.out_dim() >= 1);
    }

    #[test]
    fn transformers_error_on_empty() {
        let empty = Matrix::zeros(0, 3);
        assert!(StandardScaler::default().fit(&empty).is_err());
        assert!(Pca::fixed(2).fit(&empty).is_err());
        assert!(QuantileTransformer::default().fit(&empty).is_err());
    }
}
