//! Dense linear algebra for the MLComp ML stack.
//!
//! Self-contained implementations of everything the preprocessing
//! algorithms and regression models in `mlcomp-ml` need: a row-major
//! [`Matrix`], LU/Cholesky/QR solvers, a symmetric (Jacobi) eigensolver,
//! an SVD built on it, and descriptive statistics.
//!
//! # Example
//!
//! ```
//! use mlcomp_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = vec![1.0, 2.0];
//! let x = a.solve(&b).unwrap();
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-10 && (r[1] - 2.0).abs() < 1e-10);
//! ```

pub mod decomp;
pub mod eigen;
pub mod matrix;
pub mod serde_bits;
pub mod stats;

pub use decomp::{Cholesky, Lu, Qr, SingularMatrixError};
pub use eigen::{svd, symmetric_eigen, Svd, SymmetricEigen};
pub use matrix::Matrix;
pub use stats::{mean, median, percentile, std_dev, variance};
