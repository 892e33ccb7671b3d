//! Seeded random-search hyper-parameter tuning — the reproduction's
//! stand-in for the paper's Optuna dependency (DESIGN.md §2).

use crate::models::*;
use crate::{metrics, take_rows, train_test_split, AnyModel, Regressor, TrainError};
use mlcomp_linalg::Matrix;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One tuning trial: sampled parameters and the held-out accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Sampled hyper-parameters (name → value).
    pub params: BTreeMap<String, f64>,
    /// Held-out accuracy (`1 − MAPE`).
    pub accuracy: f64,
}

/// The tuner's result: the best trial plus the model it produced, refit on
/// the full data.
#[derive(Debug)]
pub struct TuneOutcome {
    /// The winning configuration.
    pub best: Trial,
    /// The tuned model, refit on all rows.
    pub model: AnyModel,
    /// All trials, best first.
    pub trials: Vec<Trial>,
}

/// Random-search tuner over a model's hyper-parameter space.
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Number of random trials.
    pub n_trials: usize,
    /// Sampling / split seed.
    pub seed: u64,
    /// Held-out fraction.
    pub test_fraction: f64,
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner {
            n_trials: 20,
            seed: 13,
            test_fraction: 0.25,
        }
    }
}

fn log_uniform(rng: &mut rand::rngs::StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

/// The default model of `name` with its hyper-parameters sampled, and
/// the parameter map. Models without tunable knobs keep their defaults
/// and get an empty map.
fn sample_model(
    name: &str,
    rng: &mut rand::rngs::StdRng,
) -> Option<(AnyModel, BTreeMap<String, f64>)> {
    let mut model = AnyModel::from_name(name)?;
    let mut p = BTreeMap::new();
    match &mut model {
        AnyModel::Ridge(m) => {
            let alpha = log_uniform(rng, 1e-6, 1e2);
            p.insert("alpha".into(), alpha);
            *m = Ridge::new(alpha);
        }
        AnyModel::Lasso(m) => {
            let alpha = log_uniform(rng, 1e-4, 1e1);
            p.insert("alpha".into(), alpha);
            *m = Lasso::new(alpha);
        }
        AnyModel::ElasticNet(m) => {
            let alpha = log_uniform(rng, 1e-4, 1e1);
            let ratio = rng.gen_range(0.05..0.95);
            p.insert("alpha".into(), alpha);
            p.insert("l1_ratio".into(), ratio);
            *m = ElasticNet::new(alpha, ratio);
        }
        AnyModel::KernelRidge(m) => {
            let alpha = log_uniform(rng, 1e-4, 1e1);
            let gamma = log_uniform(rng, 1e-3, 1e1);
            p.insert("alpha".into(), alpha);
            p.insert("gamma".into(), gamma);
            *m = KernelRidge::new(alpha, Some(gamma));
        }
        AnyModel::Svr(m) => {
            let c = log_uniform(rng, 1e-1, 1e3);
            let eps = log_uniform(rng, 1e-3, 1e-1);
            p.insert("c".into(), c);
            p.insert("epsilon".into(), eps);
            *m = Svr::new(c, eps);
        }
        AnyModel::DecisionTree(m) => {
            let depth = rng.gen_range(2..14) as f64;
            p.insert("max_depth".into(), depth);
            *m = DecisionTree::with_depth(depth as usize);
        }
        AnyModel::RandomForest(m) => {
            let trees = rng.gen_range(10..60) as f64;
            let depth = rng.gen_range(3..12) as f64;
            p.insert("n_trees".into(), trees);
            p.insert("max_depth".into(), depth);
            *m = RandomForest::new(trees as usize, depth as usize);
        }
        AnyModel::Mlp(m) => {
            let hidden = rng.gen_range(8..48) as f64;
            let lr = log_uniform(rng, 1e-3, 5e-2);
            p.insert("hidden".into(), hidden);
            p.insert("lr".into(), lr);
            *m = Mlp::new(hidden as usize, lr);
        }
        _ => {}
    }
    Some((model, p))
}

impl Tuner {
    /// Tunes `model_name` on `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] for unknown models or when every trial fails
    /// to train.
    pub fn tune(&self, model_name: &str, x: &Matrix, y: &[f64]) -> Result<TuneOutcome, TrainError> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let (train, test) = train_test_split(x.rows(), self.test_fraction, self.seed);
        let (xtr, ytr) = take_rows(x, y, &train);
        let (xte, yte) = take_rows(x, y, &test);
        let mut trials: Vec<Trial> = Vec::new();
        // The best trial and its model, unfitted.
        let mut best: Option<(Trial, AnyModel)> = None;
        for _ in 0..self.n_trials {
            let Some((unfitted, params)) = sample_model(model_name, &mut rng) else {
                return Err(TrainError::new(format!("unknown model `{model_name}`")));
            };
            let mut model = unfitted.clone();
            if model.fit(&xtr, &ytr).is_err() {
                continue;
            }
            let pred = model.predict(&xte);
            if pred.iter().any(|v| !v.is_finite()) {
                continue;
            }
            let acc = 1.0 - metrics::mape(&yte, &pred);
            let trial = Trial {
                params,
                accuracy: acc,
            };
            trials.push(trial.clone());
            if best.as_ref().map(|(t, _)| acc > t.accuracy).unwrap_or(true) {
                best = Some((trial, unfitted));
            }
        }
        let Some((best_trial, mut model)) = best else {
            return Err(TrainError::new("every tuning trial failed"));
        };
        model.fit(x, y)?;
        trials.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
        Ok(TuneOutcome {
            best: best_trial,
            model,
            trials,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::synthetic;

    #[test]
    fn tuner_improves_over_bad_default() {
        let (x, y) = synthetic(120, 0.05, 17);
        // A badly over-regularized default…
        let mut bad = Ridge::new(1e4);
        bad.fit(&x, &y).unwrap();
        let bad_acc = 1.0 - metrics::mape(&y, &bad.predict(&x));
        // …versus 20 random trials.
        let out = Tuner::default().tune("ridge", &x, &y).unwrap();
        assert!(out.best.accuracy > bad_acc);
        assert!(out.best.params.contains_key("alpha"));
        assert!(!out.trials.is_empty());
    }

    #[test]
    fn tuner_is_deterministic() {
        let (x, y) = synthetic(80, 0.1, 18);
        let a = Tuner::default().tune("decision-tree", &x, &y).unwrap();
        let b = Tuner::default().tune("decision-tree", &x, &y).unwrap();
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn unknown_model_is_an_error() {
        let (x, y) = synthetic(40, 0.1, 19);
        assert!(Tuner::default().tune("alexnet", &x, &y).is_err());
    }

    #[test]
    fn untunable_models_fall_back_to_defaults() {
        let (x, y) = synthetic(60, 0.1, 20);
        let out = Tuner {
            n_trials: 3,
            ..Tuner::default()
        }
        .tune("linear", &x, &y)
        .unwrap();
        assert!(out.best.params.is_empty());
        assert!(out.best.accuracy > 0.9);
    }

    /// Every tunable model, and one without knobs, gives the oracle's
    /// trials and, bit for bit, its refit model.
    #[test]
    fn tuning_matches_the_oracle() {
        let (x, y) = synthetic(60, 0.1, 21);
        let tuner = Tuner {
            n_trials: 4,
            ..Tuner::default()
        };
        for name in [
            "ridge",
            "lasso",
            "elastic-net",
            "kernel-ridge",
            "svr",
            "decision-tree",
            "random-forest",
            "mlp",
            "linear",
        ] {
            let got = tuner.tune(name, &x, &y).unwrap();
            let (trials, model) = oracle::tune(&tuner, name, &x, &y).unwrap();
            assert_eq!(got.trials, trials, "{name}");
            assert_eq!(got.best, trials[0], "{name}");
            assert_eq!(
                serde_json::to_string(&got.model).unwrap(),
                serde_json::to_string(&model).unwrap(),
                "{name}"
            );
        }
    }

    /// The tuner that rebuilt its winner from the sampled parameters,
    /// with defaults for the parameters a model was not sampled with.
    mod oracle {
        use super::super::*;

        fn sample_model(
            name: &str,
            rng: &mut rand::rngs::StdRng,
        ) -> Option<(Box<dyn Regressor>, BTreeMap<String, f64>)> {
            let mut p = BTreeMap::new();
            let model: Box<dyn Regressor> = match name {
                "ridge" => {
                    let alpha = log_uniform(rng, 1e-6, 1e2);
                    p.insert("alpha".into(), alpha);
                    Box::new(Ridge::new(alpha))
                }
                "lasso" => {
                    let alpha = log_uniform(rng, 1e-4, 1e1);
                    p.insert("alpha".into(), alpha);
                    Box::new(Lasso::new(alpha))
                }
                "elastic-net" => {
                    let alpha = log_uniform(rng, 1e-4, 1e1);
                    let ratio = rng.gen_range(0.05..0.95);
                    p.insert("alpha".into(), alpha);
                    p.insert("l1_ratio".into(), ratio);
                    Box::new(ElasticNet::new(alpha, ratio))
                }
                "kernel-ridge" => {
                    let alpha = log_uniform(rng, 1e-4, 1e1);
                    let gamma = log_uniform(rng, 1e-3, 1e1);
                    p.insert("alpha".into(), alpha);
                    p.insert("gamma".into(), gamma);
                    Box::new(KernelRidge::new(alpha, Some(gamma)))
                }
                "svr" => {
                    let c = log_uniform(rng, 1e-1, 1e3);
                    let eps = log_uniform(rng, 1e-3, 1e-1);
                    p.insert("c".into(), c);
                    p.insert("epsilon".into(), eps);
                    Box::new(Svr::new(c, eps))
                }
                "decision-tree" => {
                    let depth = rng.gen_range(2..14) as f64;
                    p.insert("max_depth".into(), depth);
                    Box::new(DecisionTree::with_depth(depth as usize))
                }
                "random-forest" => {
                    let trees = rng.gen_range(10..60) as f64;
                    let depth = rng.gen_range(3..12) as f64;
                    p.insert("n_trees".into(), trees);
                    p.insert("max_depth".into(), depth);
                    Box::new(RandomForest::new(trees as usize, depth as usize))
                }
                "mlp" => {
                    let hidden = rng.gen_range(8..48) as f64;
                    let lr = log_uniform(rng, 1e-3, 5e-2);
                    p.insert("hidden".into(), hidden);
                    p.insert("lr".into(), lr);
                    Box::new(Mlp::new(hidden as usize, lr))
                }
                other => Box::new(AnyModel::from_name(other)?),
            };
            Some((model, p))
        }

        /// The trials, best first, and the winner rebuilt and refit on
        /// all rows.
        pub fn tune(
            tuner: &Tuner,
            model_name: &str,
            x: &Matrix,
            y: &[f64],
        ) -> Result<(Vec<Trial>, AnyModel), TrainError> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(tuner.seed);
            let (train, test) = train_test_split(x.rows(), tuner.test_fraction, tuner.seed);
            let (xtr, ytr) = take_rows(x, y, &train);
            let (xte, yte) = take_rows(x, y, &test);
            let mut trials: Vec<Trial> = Vec::new();
            let mut best: Option<(Trial, BTreeMap<String, f64>)> = None;
            for _ in 0..tuner.n_trials {
                let Some((mut model, params)) = sample_model(model_name, &mut rng) else {
                    return Err(TrainError::new(format!("unknown model `{model_name}`")));
                };
                if model.fit(&xtr, &ytr).is_err() {
                    continue;
                }
                let pred = model.predict(&xte);
                if pred.iter().any(|v| !v.is_finite()) {
                    continue;
                }
                let acc = 1.0 - metrics::mape(&yte, &pred);
                let trial = Trial {
                    params: params.clone(),
                    accuracy: acc,
                };
                trials.push(trial.clone());
                if best.as_ref().map(|(t, _)| acc > t.accuracy).unwrap_or(true) {
                    best = Some((trial, params));
                }
            }
            let Some((_, best_params)) = best else {
                return Err(TrainError::new("every tuning trial failed"));
            };
            let mut model = rebuild(model_name, &best_params)
                .ok_or_else(|| TrainError::new(format!("unknown model `{model_name}`")))?;
            model.fit(x, y)?;
            trials.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
            Ok((trials, model))
        }

        fn rebuild(name: &str, p: &BTreeMap<String, f64>) -> Option<AnyModel> {
            let g = |k: &str, d: f64| p.get(k).copied().unwrap_or(d);
            Some(match name {
                "ridge" => AnyModel::Ridge(Ridge::new(g("alpha", 1.0))),
                "lasso" => AnyModel::Lasso(Lasso::new(g("alpha", 0.1))),
                "elastic-net" => {
                    AnyModel::ElasticNet(ElasticNet::new(g("alpha", 0.1), g("l1_ratio", 0.5)))
                }
                "kernel-ridge" => AnyModel::KernelRidge(KernelRidge::new(
                    g("alpha", 0.1),
                    p.get("gamma").copied(),
                )),
                "svr" => AnyModel::Svr(Svr::new(g("c", 10.0), g("epsilon", 0.02))),
                "decision-tree" => {
                    AnyModel::DecisionTree(DecisionTree::with_depth(g("max_depth", 8.0) as usize))
                }
                "random-forest" => AnyModel::RandomForest(RandomForest::new(
                    g("n_trees", 30.0) as usize,
                    g("max_depth", 8.0) as usize,
                )),
                "mlp" => AnyModel::Mlp(Mlp::new(g("hidden", 24.0) as usize, g("lr", 0.01))),
                other => AnyModel::from_name(other)?,
            })
        }
    }
}
