//! Matrix decompositions: LU (partial pivoting), Cholesky and Householder
//! QR.

use crate::matrix::Matrix;
use std::fmt;

/// The system could not be factored (singular / not positive definite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("matrix is singular or not positive definite")
    }
}

impl std::error::Error for SingularMatrixError {}

/// LU decomposition with partial pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    piv: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot is (numerically) zero.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(a: &Matrix) -> Result<Lu, SingularMatrixError> {
        assert_eq!(a.rows(), a.cols(), "LU needs a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot selection.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in k + 1..n {
                if lu[(i, k)].abs() > max {
                    max = lu[(i, k)].abs();
                    p = i;
                }
            }
            if max < 1e-12 {
                return Err(SingularMatrixError);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                piv.swap(k, p);
            }
            for i in k + 1..n {
                let factor = lu[(i, k)] / lu[(k, k)];
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= factor * v;
                }
            }
        }
        Ok(Lu { lu, piv })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction but kept fallible for parity
    /// with the other solvers.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward substitution (unit lower).
        for i in 1..n {
            for j in 0..i {
                x[i] -= self.lu[(i, j)] * x[j];
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= self.lu[(i, j)] * x[j];
            }
            x[i] /= self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Cholesky decomposition of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors `A = L·Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the matrix is not positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(a: &Matrix) -> Result<Cholesky, SingularMatrixError> {
        assert_eq!(a.rows(), a.cols(), "Cholesky needs a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(SingularMatrixError);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Infallible after construction; fallible signature kept for parity.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = b.to_vec();
        for i in 0..n {
            for j in 0..i {
                y[i] -= self.l[(i, j)] * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                y[i] -= self.l[(j, i)] * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

/// Householder QR decomposition (for least squares).
#[derive(Debug, Clone)]
pub struct Qr {
    qr: Matrix,
    rdiag: Vec<f64>,
}

impl Qr {
    /// Factors an `m × n` matrix with `m ≥ n`.
    ///
    /// # Panics
    ///
    /// Panics if `rows < cols`.
    pub fn new(a: &Matrix) -> Qr {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "QR needs rows >= cols");
        let mut qr = a.clone();
        let mut rdiag = vec![0.0; n];
        for k in 0..n {
            let mut nrm = 0.0f64;
            for i in k..m {
                nrm = nrm.hypot(qr[(i, k)]);
            }
            if nrm != 0.0 {
                if qr[(k, k)] < 0.0 {
                    nrm = -nrm;
                }
                for i in k..m {
                    qr[(i, k)] /= nrm;
                }
                qr[(k, k)] += 1.0;
                for j in k + 1..n {
                    let mut s = 0.0;
                    for i in k..m {
                        s += qr[(i, k)] * qr[(i, j)];
                    }
                    s = -s / qr[(k, k)];
                    for i in k..m {
                        let v = qr[(i, k)];
                        qr[(i, j)] += s * v;
                    }
                }
            }
            rdiag[k] = -nrm;
        }
        Qr { qr, rdiag }
    }

    /// Least-squares solve `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the matrix is rank deficient.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the row count.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        assert_eq!(b.len(), m, "rhs length mismatch");
        if self.rdiag.iter().any(|d| d.abs() < 1e-12) {
            return Err(SingularMatrixError);
        }
        let mut y = b.to_vec();
        // Apply Householder reflections.
        for k in 0..n {
            let mut s = 0.0;
            for (i, yi) in y.iter().enumerate().take(m).skip(k) {
                s += self.qr[(i, k)] * yi;
            }
            s = -s / self.qr[(k, k)];
            for (i, yi) in y.iter_mut().enumerate().take(m).skip(k) {
                *yi += s * self.qr[(i, k)];
            }
        }
        // Back substitution on R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.qr[(i, j)] * xj;
            }
            x[i] = s / self.rdiag[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn lu_solves_3x3() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let x = a.solve(&[5.0, -2.0, 9.0]).unwrap();
        assert_close(&a.matvec(&x), &[5.0, -2.0, 9.0], 1e-9);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), SingularMatrixError);
    }

    #[test]
    fn cholesky_solves_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[1.0, 2.0]).unwrap();
        assert_close(&a.matvec(&x), &[1.0, 2.0], 1e-10);
        // L·Lᵀ reconstructs A.
        let l = ch.l();
        let rec = l.matmul(&l.transpose());
        assert!((rec.sub(&a)).frobenius_norm() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn qr_least_squares() {
        // Overdetermined: fit y = 2x + 1 through noisy-free points.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0], &[1.0, 4.0]]);
        let b = [3.0, 5.0, 7.0, 9.0];
        let x = Qr::new(&a).solve(&b).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-9);
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert!(Qr::new(&a).solve(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn random_spd_roundtrip() {
        // Deterministic pseudo-random SPD matrices.
        let mut seed = 42u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for n in [2usize, 4, 6] {
            let mut b = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    b[(i, j)] = rnd();
                }
            }
            let spd = b
                .transpose()
                .matmul(&b)
                .add(&Matrix::identity(n).scale(0.5));
            let rhs: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let x1 = Lu::new(&spd).unwrap().solve(&rhs).unwrap();
            let x2 = Cholesky::new(&spd).unwrap().solve(&rhs).unwrap();
            assert_close(&x1, &x2, 1e-8);
        }
    }
}
