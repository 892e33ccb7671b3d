//! Algorithm 1 of the paper: automatic search over preprocessing methods
//! (Table III) and regression models (Table IV) for the best-fitting
//! Performance Estimator pipeline.

use crate::any::{AnyModel, AnyPreprocessor};
use crate::{metrics, take_rows, train_test_split, Preprocessor, Regressor, TrainError};
use mlcomp_linalg::Matrix;
use mlcomp_parallel::WorkerPool;
use mlcomp_trace as trace;
use serde::{Deserialize, Serialize};

/// Names of all Table IV models, in the paper's row order.
pub fn model_zoo() -> Vec<&'static str> {
    vec![
        "ridge",
        "kernel-ridge",
        "bayesian-ridge",
        "linear",
        "sgd",
        "passive-aggressive",
        "ard",
        "huber",
        "theil-sen",
        "lars",
        "lasso",
        "lasso-lars",
        "svr",
        "nu-svr",
        "linear-svr",
        "elastic-net",
        "omp",
        "mlp",
        "decision-tree",
        "extra-tree",
        "random-forest",
    ]
}

/// Names of all Table III preprocessing algorithms (plus the identity
/// baseline).
pub fn preprocessor_zoo() -> Vec<&'static str> {
    vec![
        "identity", "pca", "nca", "mean-std", "min-max", "max-abs", "robust", "power", "quantile",
    ]
}

/// Instantiates a model by zoo name.
pub fn create_model(name: &str) -> Option<Box<dyn Regressor>> {
    AnyModel::from_name(name).map(|m| Box::new(m) as Box<dyn Regressor>)
}

/// Instantiates a preprocessor by zoo name.
pub fn create_preprocessor(name: &str) -> Option<Box<dyn Preprocessor>> {
    AnyPreprocessor::from_name(name).map(|p| Box::new(p) as Box<dyn Preprocessor>)
}

/// A fitted preprocessing + regression pipeline — the trained Performance
/// Estimator for one metric.
///
/// Holds the closed [`AnyPreprocessor`]/[`AnyModel`] sums rather than
/// trait objects so a trained pipeline can be exported inside an artifact
/// bundle and loaded back with bit-identical behaviour.
#[derive(Clone, Serialize, Deserialize)]
pub struct FittedPipeline {
    /// Preprocessor name.
    pub preprocessor_name: String,
    /// Model name.
    pub model_name: String,
    preprocessor: AnyPreprocessor,
    model: AnyModel,
}

impl std::fmt::Debug for FittedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FittedPipeline({} → {})",
            self.preprocessor_name, self.model_name
        )
    }
}

impl FittedPipeline {
    /// Predicts for new feature rows.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.model.predict(&self.preprocessor.transform(x))
    }
}

/// One leaderboard entry from the search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchEntry {
    /// Preprocessor name.
    pub preprocessor: String,
    /// Model name.
    pub model: String,
    /// Held-out accuracy (`1 − MAPE`).
    pub accuracy: f64,
    /// Held-out maximum percentage error.
    pub max_pct_error: f64,
    /// Held-out R².
    pub r2: f64,
}

/// The result of a model search.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The winning pipeline, refit on the full dataset.
    pub best: FittedPipeline,
    /// Held-out accuracy of the winner.
    pub accuracy: f64,
    /// All evaluated combinations, best first.
    pub leaderboard: Vec<SearchEntry>,
    /// Whether the threshold early-exit of Algorithm 1 fired.
    pub early_stopped: bool,
}

/// Algorithm 1: `ModelSearch(input, accuracy_thr, list_models)`.
///
/// Cycles through every (preprocessing, model) combination, trains on a
/// split, tests on the held-out rows, tracks the best accuracy, and stops
/// early once `accuracy_threshold` is reached. Accuracy is `1 − MAPE`,
/// matching the paper's relative-error reporting.
///
/// Candidates are evaluated on a worker pool in chunks that respect the
/// paper's candidate order, so the leaderboard — including where the
/// early exit fires — is identical to a sequential sweep at any
/// [`num_threads`](ModelSearch::num_threads).
///
/// # Examples
///
/// ```
/// use mlcomp_linalg::Matrix;
/// use mlcomp_ml::search::ModelSearch;
///
/// // A small dataset following y = 3a − 2b + 5.
/// let rows: Vec<[f64; 2]> = (0..24).map(|i| [i as f64, (i % 5) as f64]).collect();
/// let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
/// let x = Matrix::from_rows(&row_refs);
/// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
///
/// let outcome = ModelSearch::quick().run(&x, &y).unwrap();
/// assert!(outcome.accuracy > 0.9);
///
/// // The outcome is independent of the fan-out width.
/// let wide = ModelSearch { num_threads: 8, ..ModelSearch::quick() };
/// let outcome8 = wide.run(&x, &y).unwrap();
/// assert_eq!(outcome.best.model_name, outcome8.best.model_name);
/// assert_eq!(outcome.leaderboard, outcome8.leaderboard);
/// ```
#[derive(Debug, Clone)]
pub struct ModelSearch {
    /// Early-exit threshold on held-out accuracy (`accuracy_thr`).
    pub accuracy_threshold: f64,
    /// Held-out fraction for the train/test split.
    pub test_fraction: f64,
    /// Split seed.
    pub seed: u64,
    /// Models to consider (`list_models`); defaults to the full Table IV.
    pub models: Vec<String>,
    /// Preprocessors to consider; defaults to the full Table III.
    pub preprocessors: Vec<String>,
    /// Worker threads for candidate evaluation; 0 = host parallelism.
    /// The outcome is identical at any value.
    pub num_threads: usize,
}

impl Default for ModelSearch {
    fn default() -> Self {
        ModelSearch {
            accuracy_threshold: 0.995,
            test_fraction: 0.25,
            seed: 42,
            models: model_zoo().into_iter().map(String::from).collect(),
            preprocessors: preprocessor_zoo().into_iter().map(String::from).collect(),
            num_threads: 0,
        }
    }
}

impl ModelSearch {
    /// A faster search over a representative subset of the zoo (used by
    /// tests and the RL training loop, where the PE is retrained often).
    pub fn quick() -> ModelSearch {
        ModelSearch {
            models: ["ridge", "linear", "lasso", "decision-tree", "random-forest"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            preprocessors: ["identity", "mean-std", "pca"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..ModelSearch::default()
        }
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when no combination could be trained at all
    /// (degenerate dataset).
    pub fn run(&self, x: &Matrix, y: &[f64]) -> Result<SearchOutcome, TrainError> {
        if x.rows() < 8 {
            return Err(TrainError::new("need at least 8 samples for model search"));
        }
        let (train, test) = train_test_split(x.rows(), self.test_fraction, self.seed);
        let (xtr, ytr) = take_rows(x, y, &train);
        let (xte, yte) = take_rows(x, y, &test);

        // Candidates in the paper's order: models outer, preprocessors
        // inner. Chunks are evaluated in parallel but consumed in order,
        // truncating at the first above-threshold entry, so the resulting
        // leaderboard matches a sequential sweep exactly (at the cost of
        // at most one chunk of extra fits past the early-exit point).
        let candidates: Vec<(&String, &String)> = self
            .models
            .iter()
            .flat_map(|m| self.preprocessors.iter().map(move |p| (m, p)))
            .collect();
        let pool = WorkerPool::new(self.num_threads);
        let chunk_len = pool.num_threads().max(1) * 2;
        let mut search_span = trace::span("search");
        if search_span.is_recording() {
            search_span.field("candidates", candidates.len());
            search_span.field("rows", x.rows());
            search_span.field("threads", pool.num_threads());
        }
        let mut leaderboard: Vec<SearchEntry> = Vec::new();
        let mut early_stopped = false;
        'outer: for batch in candidates.chunks(chunk_len) {
            let evaluated = pool.map(batch, |_, &(model_name, prep_name)| {
                self.evaluate_candidate(model_name, prep_name, &xtr, &ytr, &xte, &yte)
            });
            for entry in evaluated.into_iter().flatten() {
                let stop = entry.accuracy > self.accuracy_threshold;
                leaderboard.push(entry);
                if stop {
                    early_stopped = true;
                    break 'outer;
                }
            }
        }
        leaderboard.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
        if search_span.is_recording() {
            search_span.field("evaluated", leaderboard.len());
            search_span.field("early_stopped", early_stopped);
            if let Some(best) = leaderboard.first() {
                search_span.field("best_model", best.model.as_str());
                search_span.field("best_accuracy", best.accuracy);
            }
        }
        let Some(winner) = leaderboard.first().cloned() else {
            return Err(TrainError::new("no model/preprocessor combination trained"));
        };

        // Refit the winner on the full dataset.
        let mut prep =
            AnyPreprocessor::from_name(&winner.preprocessor).expect("winner came from the zoo");
        let mut model = AnyModel::from_name(&winner.model).expect("winner came from the zoo");
        let px = prep.fit_transform(x)?;
        model.fit(&px, y)?;

        Ok(SearchOutcome {
            best: FittedPipeline {
                preprocessor_name: winner.preprocessor.clone(),
                model_name: winner.model.clone(),
                preprocessor: prep,
                model,
            },
            accuracy: winner.accuracy,
            leaderboard,
            early_stopped,
        })
    }

    /// Fits and scores one (model, preprocessor) candidate on the split;
    /// `None` when the candidate cannot be constructed, fails to train, or
    /// predicts non-finite values — matching the sequential `continue`s.
    fn evaluate_candidate(
        &self,
        model_name: &str,
        prep_name: &str,
        xtr: &Matrix,
        ytr: &[f64],
        xte: &Matrix,
        yte: &[f64],
    ) -> Option<SearchEntry> {
        let mut fit_span = trace::span("search.fit");
        if fit_span.is_recording() {
            fit_span.field("model", model_name);
            fit_span.field("prep", prep_name);
        }
        let mut prep = create_preprocessor(prep_name)?;
        let mut model = create_model(model_name)?;
        let ptr = prep.fit_transform(xtr).ok()?;
        model.fit(&ptr, ytr).ok()?;
        let pred = model.predict(&prep.transform(xte));
        if pred.iter().any(|p| !p.is_finite()) {
            return None;
        }
        let acc = 1.0 - metrics::mape(yte, &pred);
        if fit_span.is_recording() {
            fit_span.field("accuracy", acc);
            trace::observe("search.accuracy", acc);
        }
        Some(SearchEntry {
            preprocessor: prep_name.to_string(),
            model: model_name.to_string(),
            accuracy: acc,
            max_pct_error: metrics::max_pct_error(yte, &pred),
            r2: metrics::r2(yte, &pred),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoos_match_the_paper_tables() {
        assert_eq!(model_zoo().len(), 21, "Table IV lists 21 models");
        assert_eq!(
            preprocessor_zoo().len(),
            9,
            "Table III lists 8 algorithms + identity baseline"
        );
        for m in model_zoo() {
            assert!(create_model(m).is_some(), "{m} must construct");
        }
        for p in preprocessor_zoo() {
            assert!(create_preprocessor(p).is_some(), "{p} must construct");
        }
        assert!(create_model("gpt").is_none());
        assert!(create_preprocessor("umap").is_none());
    }

    #[test]
    fn search_finds_accurate_pipeline_on_linear_data() {
        let (x, y) = crate::models::testutil::synthetic(120, 0.02, 77);
        let search = ModelSearch::quick();
        let out = search.run(&x, &y).unwrap();
        assert!(
            out.accuracy > 0.9,
            "search accuracy {} on an easy task",
            out.accuracy
        );
        assert!(!out.leaderboard.is_empty());
        // Leaderboard is sorted.
        for w in out.leaderboard.windows(2) {
            assert!(w[0].accuracy >= w[1].accuracy);
        }
        // Refit winner predicts well on the training data.
        let pred = out.best.predict(&x);
        assert!(crate::metrics::r2(&y, &pred) > 0.9);
    }

    #[test]
    fn threshold_stops_early() {
        let (x, y) = crate::models::testutil::synthetic(120, 0.0, 78);
        let mut search = ModelSearch::quick();
        search.accuracy_threshold = 0.5; // trivially reached
        let out = search.run(&x, &y).unwrap();
        assert!(out.early_stopped);
        assert_eq!(out.leaderboard.len(), 1, "stopped after the first combo");
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let (x, y) = crate::models::testutil::synthetic(120, 0.02, 79);
        let reference = ModelSearch {
            num_threads: 1,
            ..ModelSearch::quick()
        }
        .run(&x, &y)
        .unwrap();
        for threads in [2, 4, 8] {
            let out = ModelSearch {
                num_threads: threads,
                ..ModelSearch::quick()
            }
            .run(&x, &y)
            .unwrap();
            assert_eq!(reference.leaderboard, out.leaderboard, "threads={threads}");
            assert_eq!(reference.early_stopped, out.early_stopped);
            assert_eq!(reference.best.model_name, out.best.model_name);
            assert_eq!(reference.best.preprocessor_name, out.best.preprocessor_name);
        }
    }

    #[test]
    fn search_errors_on_tiny_dataset() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let y = [1.0, 2.0];
        assert!(ModelSearch::quick().run(&x, &y).is_err());
    }
}
