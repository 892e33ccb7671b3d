//! Multi-layer perceptron regressor: one tanh hidden layer trained with
//! Adam on standardized inputs/targets.

use super::{check_xy, column_means};
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// MLP regressor (input → tanh hidden → linear output).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs (full batch).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Weight-init / shuffle seed.
    pub seed: u64,
    w1: Matrix, // d × h
    b1: Vec<f64>,
    w2: Vec<f64>, // h
    b2: f64,
    means: Vec<f64>,
    scales: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
}

impl Default for Mlp {
    fn default() -> Self {
        Mlp {
            hidden: 24,
            epochs: 400,
            lr: 0.01,
            seed: 8,
            w1: Matrix::zeros(0, 0),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            means: Vec::new(),
            scales: Vec::new(),
            y_mean: 0.0,
            y_scale: 1.0,
        }
    }
}

impl Mlp {
    /// MLP with explicit width and learning rate.
    pub fn new(hidden: usize, lr: f64) -> Mlp {
        Mlp {
            hidden,
            lr,
            ..Mlp::default()
        }
    }
}

struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: f64,
}

impl Adam {
    fn new(n: usize) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0.0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1.0;
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mh = self.m[i] / (1.0 - B1.powf(self.t));
            let vh = self.v[i] / (1.0 - B2.powf(self.t));
            params[i] -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let (n, d) = (x.rows(), x.cols());
        let h = self.hidden;
        self.means = column_means(x);
        self.scales = (0..d)
            .map(|j| {
                let s = mlcomp_linalg::std_dev(&x.col(j));
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        self.y_mean = mlcomp_linalg::mean(y);
        self.y_scale = mlcomp_linalg::std_dev(y).max(1e-9);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (x[(i, j)] - self.means[j]) / self.scales[j])
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_scale).collect();

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let xavier = (1.0 / d as f64).sqrt();
        // Flattened parameters: w1 (d·h), b1 (h), w2 (h), b2 (1).
        let mut params: Vec<f64> = Vec::with_capacity(d * h + 2 * h + 1);
        for _ in 0..d * h {
            params.push(rng.gen_range(-xavier..xavier));
        }
        params.extend(std::iter::repeat_n(0.0, h));
        let xavier2 = (1.0 / h as f64).sqrt();
        for _ in 0..h {
            params.push(rng.gen_range(-xavier2..xavier2));
        }
        params.push(0.0);

        let mut adam = Adam::new(params.len());
        let nf = n as f64;
        for _ in 0..self.epochs {
            let mut grads = vec![0.0; params.len()];
            let (w1, rest) = params.split_at(d * h);
            let (b1, rest) = rest.split_at(h);
            let (w2, b2s) = rest.split_at(h);
            let b2 = b2s[0];
            for i in 0..n {
                // Forward.
                let mut hid = vec![0.0; h];
                for k in 0..h {
                    let mut s = b1[k];
                    for j in 0..d {
                        s += xs[i][j] * w1[j * h + k];
                    }
                    hid[k] = s.tanh();
                }
                let out: f64 = b2 + hid.iter().zip(w2).map(|(a, b)| a * b).sum::<f64>();
                let err = 2.0 * (out - ys[i]) / nf;
                // Backward.
                grads[d * h + 2 * h] += err; // b2
                for k in 0..h {
                    grads[d * h + h + k] += err * hid[k]; // w2
                    let dh = err * w2[k] * (1.0 - hid[k] * hid[k]);
                    grads[d * h + k] += dh; // b1
                    for j in 0..d {
                        grads[j * h + k] += dh * xs[i][j]; // w1
                    }
                }
            }
            adam.step(&mut params, &grads, self.lr);
        }

        // Unpack.
        let (w1, rest) = params.split_at(d * h);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2s) = rest.split_at(h);
        self.w1 = Matrix::from_flat(d, h, w1.to_vec());
        self.b1 = b1.to_vec();
        self.w2 = w2.to_vec();
        self.b2 = b2s[0];
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.w2.is_empty(), "predict before fit");
        let d = self.means.len();
        let h = self.w2.len();
        let mut out = self.b2;
        for k in 0..h {
            let mut s = self.b1[k];
            for (j, v) in row[..d].iter().enumerate() {
                s += (v - self.means[j]) / self.scales[j] * self.w1[(j, k)];
            }
            out += s.tanh() * self.w2[k];
        }
        out * self.y_scale + self.y_mean
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_learns, synthetic};
    use super::*;

    #[test]
    fn learns_linear_task() {
        assert_learns(&mut Mlp::default(), 0.90);
    }

    #[test]
    fn learns_nonlinear_target() {
        // y = x₀² — out of reach for the linear zoo.
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![(i as f64 - 40.0) / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let x = Matrix::from_vec_rows(rows);
        let mut m = Mlp {
            epochs: 1500,
            ..Mlp::default()
        };
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x);
        assert!(crate::metrics::r2(&y, &pred) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = synthetic(40, 0.1, 61);
        let mut a = Mlp::default();
        let mut b = Mlp::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
