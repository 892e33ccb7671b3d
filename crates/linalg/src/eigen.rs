//! Symmetric eigendecomposition (cyclic Jacobi) and an SVD built on it.

use crate::matrix::Matrix;

/// Eigendecomposition of a symmetric matrix: `A = V · diag(λ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, aligned with [`values`](Self::values).
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix using the cyclic
/// Jacobi method.
///
/// Each rotation updates two columns and two rows of the working matrix
/// and two columns of `V`. `V` is kept transposed, so its columns are
/// contiguous rows, and rows are rotated as slices; only the working
/// matrix's column pass reads with a stride.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn symmetric_eigen(a: &Matrix) -> SymmetricEigen {
    assert_eq!(a.rows(), a.cols(), "eigen needs a square matrix");
    let n = a.rows();
    if n == 0 {
        return SymmetricEigen {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
    }
    let mut m = a.as_slice().to_vec();
    // Row k of `vt` is column k of V.
    let mut vt = Matrix::identity(n).as_slice().to_vec();

    for _sweep in 0..64 {
        let mut off = 0.0;
        for (i, row) in m.chunks_exact(n).enumerate() {
            for x in &row[i + 1..] {
                off += x * x;
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let mpq = m[p * n + q];
                if mpq.abs() < 1e-15 {
                    continue;
                }
                let theta = (m[q * n + q] - m[p * n + p]) / (2.0 * mpq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate columns p and q, then rows p and q.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[q]);
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, q, c, s);
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }

    // Sort descending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[j * n + j].partial_cmp(&m[i * n + i]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (col, &i) in order.iter().enumerate() {
        for (k, &x) in vt[i * n..(i + 1) * n].iter().enumerate() {
            vectors[(k, col)] = x;
        }
    }
    SymmetricEigen { values, vectors }
}

/// Rotates rows `p < q` of the row-major `n`-column `data` by the Jacobi
/// rotation `(c, s)`.
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    for (xp, xq) in rp.iter_mut().zip(&mut tail[..n]) {
        let (a, b) = (*xp, *xq);
        *xp = c * a - s * b;
        *xq = s * a + c * b;
    }
}

/// Thin singular value decomposition `A = U · diag(σ) · Vᵀ`, computed via
/// the eigendecomposition of `AᵀA` (adequate for the well-conditioned
/// feature matrices this workspace handles).
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns), `m × r`.
    pub u: Matrix,
    /// Singular values, descending.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns), `n × r`.
    pub v: Matrix,
}

/// Computes the thin SVD of an arbitrary matrix.
pub fn svd(a: &Matrix) -> Svd {
    let eig = symmetric_eigen(&a.gram());
    let n = a.cols();
    let singular_values: Vec<f64> = eig
        .values
        .iter()
        .map(|&l| if l > 0.0 { l.sqrt() } else { 0.0 })
        .collect();
    // U = A · V · diag(1/σ); zero-σ columns left as zeros.
    let av = a.matmul(&eig.vectors);
    let mut u = Matrix::zeros(a.rows(), n);
    for j in 0..n {
        let s = singular_values[j];
        if s > 1e-12 {
            for i in 0..a.rows() {
                u[(i, j)] = av[(i, j)] / s;
            }
        }
    }
    Svd {
        u,
        singular_values,
        v: eig.vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod oracle {
        use super::super::*;

        /// The solver before it kept `V` transposed and rotated row slices:
        /// every element read and written through `(i, j)` indexing.
        pub fn symmetric_eigen(a: &Matrix) -> SymmetricEigen {
            assert_eq!(a.rows(), a.cols(), "eigen needs a square matrix");
            let n = a.rows();
            let mut m = a.clone();
            let mut v = Matrix::identity(n);

            for _sweep in 0..64 {
                let mut off = 0.0;
                for i in 0..n {
                    for j in i + 1..n {
                        off += m[(i, j)] * m[(i, j)];
                    }
                }
                if off < 1e-22 {
                    break;
                }
                for p in 0..n {
                    for q in p + 1..n {
                        if m[(p, q)].abs() < 1e-15 {
                            continue;
                        }
                        let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * m[(p, q)]);
                        let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                        let c = 1.0 / (t * t + 1.0).sqrt();
                        let s = t * c;
                        // Rotate rows/cols p and q.
                        for k in 0..n {
                            let mkp = m[(k, p)];
                            let mkq = m[(k, q)];
                            m[(k, p)] = c * mkp - s * mkq;
                            m[(k, q)] = s * mkp + c * mkq;
                        }
                        for k in 0..n {
                            let mpk = m[(p, k)];
                            let mqk = m[(q, k)];
                            m[(p, k)] = c * mpk - s * mqk;
                            m[(q, k)] = s * mpk + c * mqk;
                        }
                        for k in 0..n {
                            let vkp = v[(k, p)];
                            let vkq = v[(k, q)];
                            v[(k, p)] = c * vkp - s * vkq;
                            v[(k, q)] = s * vkp + c * vkq;
                        }
                    }
                }
            }

            // Sort descending by eigenvalue.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).unwrap());
            let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
            let vectors = v.select_columns(&order);
            SymmetricEigen { values, vectors }
        }
    }

    fn assert_matches_the_oracle(a: &Matrix, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let got = symmetric_eigen(a);
        let want = oracle::symmetric_eigen(a);
        assert_eq!(bits(&got.values), bits(&want.values), "{what}: values");
        assert_eq!(
            (got.vectors.rows(), got.vectors.cols()),
            (want.vectors.rows(), want.vectors.cols()),
            "{what}: shape"
        );
        assert_eq!(
            bits(got.vectors.as_slice()),
            bits(want.vectors.as_slice()),
            "{what}: vectors"
        );
    }

    /// A seeded generator of values in `[-1, 1)` (splitmix64).
    fn values(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    #[test]
    fn eigen_matches_the_oracle_on_random_symmetric_matrices() {
        assert_matches_the_oracle(&Matrix::zeros(0, 0), "empty");
        for n in 1..=70 {
            let mut next = values(n as u64);
            // Symmetric with independent entries.
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let x = next() * 10.0;
                    a[(i, j)] = x;
                    a[(j, i)] = x;
                }
            }
            assert_matches_the_oracle(&a, &format!("random {n}"));
            // A Gram matrix of rank about n / 3, with one zero row and
            // column (a constant feature).
            let rows = (n / 3).max(1);
            let mut x = Matrix::zeros(rows, n);
            for r in 0..rows {
                for c in 1..n {
                    x[(r, c)] = next();
                }
            }
            assert_matches_the_oracle(&x.gram(), &format!("rank-deficient {n}"));
            // Repeated eigenvalues: a block of equal diagonal entries
            // rotated by an orthogonal-ish mixing, and the identity.
            let mut d = Matrix::identity(n);
            for i in 0..n {
                d[(i, i)] = if i < n / 2 { 2.0 } else { 0.5 };
            }
            let mix = Matrix::from_flat(n, n, (0..n * n).map(|_| next()).collect());
            assert_matches_the_oracle(
                &mix.matmul(&d).matmul(&mix.transpose()),
                &format!("repeated {n}"),
            );
            assert_matches_the_oracle(&Matrix::identity(n), &format!("identity {n}"));
        }
    }

    /// The covariances that PCA decomposes in the pipeline: of the quick
    /// `dedup`/`vips`/`x264` extraction dataset's features, raw and
    /// standardized.
    #[test]
    fn eigen_matches_the_oracle_on_the_quick_dataset_covariances() {
        use mlcomp::ml::Preprocessor;
        let apps: Vec<_> = mlcomp::suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
            .collect();
        let dataset = mlcomp::core::DataExtraction::quick()
            .run(&mlcomp::platform::X86Platform::new(), &apps)
            .unwrap();
        let raw = dataset.features();
        let scaled = mlcomp::ml::preprocess::StandardScaler::default()
            .fit_transform(&raw)
            .unwrap();
        for (what, x) in [("raw", raw), ("standardized", scaled)] {
            // The library build's matrix, copied into this build's.
            let x = Matrix::from_flat(x.rows(), x.cols(), x.as_slice().to_vec());
            let (n, d) = (x.rows(), x.cols());
            let mut centered = x.clone();
            for j in 0..d {
                let mean = crate::mean(&x.col(j));
                for i in 0..n {
                    centered[(i, j)] -= mean;
                }
            }
            let cov = centered.gram().scale(1.0 / (n as f64 - 1.0));
            assert_matches_the_oracle(&cov, what);
        }
    }

    #[test]
    fn eigen_of_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_symmetric() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let e = symmetric_eigen(&a);
        // V·diag(λ)·Vᵀ == A
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = e.values[i];
        }
        let rec = e.vectors.matmul(&d).matmul(&e.vectors.transpose());
        assert!(rec.sub(&a).frobenius_norm() < 1e-8, "{rec}");
        // Eigenvalues descending.
        assert!(e.values[0] >= e.values[1] && e.values[1] >= e.values[2]);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 4.0]]);
        let e = symmetric_eigen(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.sub(&Matrix::identity(2)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn svd_reconstructs() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = svd(&a);
        let mut d = Matrix::zeros(2, 2);
        for i in 0..2 {
            d[(i, i)] = s.singular_values[i];
        }
        let rec = s.u.matmul(&d).matmul(&s.v.transpose());
        assert!(rec.sub(&a).frobenius_norm() < 1e-8);
        assert!(s.singular_values[0] >= s.singular_values[1]);
    }

    #[test]
    fn svd_of_rank_deficient() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let s = svd(&a);
        assert!(s.singular_values[1].abs() < 1e-8, "rank 1 → σ₂ ≈ 0");
    }
}
