//! Algorithm 1 of the paper: automatic search over preprocessing methods
//! (Table III) and regression models (Table IV) for the best-fitting
//! Performance Estimator pipeline.

use crate::any::{AnyModel, AnyPreprocessor};
use crate::models::{DecisionTree, Lasso, Linear, RandomForest, Ridge};
use crate::preprocess::{Identity, Pca, StandardScaler};
use crate::{metrics, train_test_split, Preprocessor, Regressor, TrainError};
use mlcomp_linalg::Matrix;
use mlcomp_parallel::WorkerPool;
use mlcomp_trace as trace;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Names of all Table IV models, in the paper's row order.
pub fn model_zoo() -> Vec<&'static str> {
    AnyModel::NAMES.to_vec()
}

/// Names of all Table III preprocessing algorithms (plus the identity
/// baseline).
pub fn preprocessor_zoo() -> Vec<&'static str> {
    AnyPreprocessor::NAMES.to_vec()
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

    /// Predicts for one feature row, bit for bit the value
    /// [`predict`](FittedPipeline::predict) gives that row, without
    /// building matrices: the row is transformed in `scratch`, whose
    /// contents are overwritten.
    pub fn predict_row(&self, row: &[f64], scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        scratch.extend_from_slice(row);
        self.preprocessor.transform_row(scratch);
        self.model.predict_row(scratch)
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
    /// tests, demos and `MlcompConfig::quick`).
    pub fn quick() -> ModelSearch {
        ModelSearch {
            models: [
                Ridge::NAME,
                Linear::NAME,
                Lasso::NAME,
                DecisionTree::NAME,
                RandomForest::NAME,
            ]
            .map(String::from)
            .to_vec(),
            preprocessors: [Identity::NAME, StandardScaler::NAME, Pca::NAME]
                .map(String::from)
                .to_vec(),
            ..ModelSearch::default()
        }
    }

    /// Algorithm 1 on one target column: fits each (model, preprocessor)
    /// candidate on the training rows, scores it on the test rows, and
    /// refits the winner on all rows.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when `x` has fewer than 8 rows or no
    /// combination could be trained at all (degenerate dataset).
    ///
    /// # Panics
    ///
    /// Panics when `y` has fewer entries than `x` has rows.
    pub fn run(&self, x: &Matrix, y: &[f64]) -> Result<SearchOutcome, TrainError> {
        let mut outcomes = self.run_all(x, &[y])?;
        Ok(outcomes.pop().expect("one outcome per target"))
    }

    /// Algorithm 1 for several target columns measured on the same rows
    /// (the four metrics of a Performance Estimator): the outcome of
    /// [`run`](ModelSearch::run) for each target, in order.
    ///
    /// Neither the train/test split nor a preprocessor's fit reads the
    /// targets, so the split is drawn once and every listed preprocessor
    /// is fitted once on its training rows, and once more on all rows if
    /// it wins for some target. The searches share the worker pool: chunk
    /// *k* of every target's candidate list is evaluated in one fan-out,
    /// and the winners are refit on the pool too. Each target still
    /// consumes its results in the paper's order and stops at its own
    /// early exit, after which it queues no more fits, so every outcome
    /// equals that target's sequential sweep at any
    /// [`num_threads`](ModelSearch::num_threads).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when `x` has fewer than 8 rows, or the first
    /// error in target order of a target for which no combination could
    /// be trained at all (degenerate dataset).
    ///
    /// # Panics
    ///
    /// Panics when a target has fewer entries than `x` has rows.
    pub fn run_all(
        &self,
        x: &Matrix,
        targets: &[&[f64]],
    ) -> Result<Vec<SearchOutcome>, TrainError> {
        if x.rows() < 8 {
            return Err(TrainError::new("need at least 8 samples for model search"));
        }
        let pool = WorkerPool::new(self.num_threads);
        // Split `x`, and fit every listed preprocessor once on the
        // training rows.
        let (train, test, preprocessors) = {
            let mut span = trace::span("search.prepare");
            if span.is_recording() {
                span.field("preprocessors", self.preprocessors.len());
                span.field("rows", x.rows());
            }
            let (train, test) = train_test_split(x.rows(), self.test_fraction, self.seed);
            let (xtr, xte) = (x.select_rows(&train), x.select_rows(&test));
            let preprocessors = pool.map(&self.preprocessors, |_, name| {
                PreparedPreprocessor::fit(name, &xtr, &xte)
            });
            (train, test, preprocessors)
        };
        /// One target's search.
        struct Sweep {
            ytr: Vec<f64>,
            yte: Vec<f64>,
            leaderboard: Vec<SearchEntry>,
            early_stopped: bool,
        }
        let mut sweeps: Vec<Sweep> = targets
            .iter()
            .map(|y| Sweep {
                ytr: train.iter().map(|&i| y[i]).collect(),
                yte: test.iter().map(|&i| y[i]).collect(),
                leaderboard: Vec::new(),
                early_stopped: false,
            })
            .collect();

        // Candidates in the paper's order: models outer, preprocessors
        // inner. Chunks are evaluated in parallel but consumed in order,
        // truncating at the first above-threshold entry, so the resulting
        // leaderboard matches a sequential sweep exactly (at the cost of
        // at most one chunk of extra fits past the early-exit point).
        let candidates: Vec<(&String, &PreparedPreprocessor)> = self
            .models
            .iter()
            .flat_map(|m| preprocessors.iter().map(move |p| (m, p)))
            .collect();
        let chunk_len = pool.num_threads().max(1) * 2;
        let mut search_span = trace::span("search");
        if search_span.is_recording() {
            search_span.field("targets", targets.len());
            search_span.field("candidates", candidates.len());
            search_span.field("rows", x.rows());
            search_span.field("threads", pool.num_threads());
        }
        for batch in candidates.chunks(chunk_len) {
            // The chunk's candidates for every target still searching.
            let jobs: Vec<(usize, &(&String, &PreparedPreprocessor))> = sweeps
                .iter()
                .enumerate()
                .filter(|(_, sweep)| !sweep.early_stopped)
                .flat_map(|(t, _)| batch.iter().map(move |c| (t, c)))
                .collect();
            if jobs.is_empty() {
                break;
            }
            let evaluated = pool.map(&jobs, |_, &(t, &(model_name, prep))| {
                evaluate_candidate(model_name, prep, &sweeps[t].ytr, &sweeps[t].yte)
            });
            for (&(t, _), entry) in jobs.iter().zip(evaluated) {
                let sweep = &mut sweeps[t];
                // A target that stopped earlier in the chunk drops the rest.
                let Some(entry) = entry.filter(|_| !sweep.early_stopped) else {
                    continue;
                };
                sweep.early_stopped = entry.accuracy > self.accuracy_threshold;
                sweep.leaderboard.push(entry);
            }
        }
        for sweep in &mut sweeps {
            sweep
                .leaderboard
                .sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
        }
        if search_span.is_recording() {
            let evaluated: usize = sweeps.iter().map(|s| s.leaderboard.len()).sum();
            let stopped = sweeps.iter().filter(|s| s.early_stopped).count();
            search_span.field("evaluated", evaluated);
            search_span.field("early_stopped", stopped);
        }

        // Refit each winner on the full dataset. A preprocessor's refit is
        // shared by every target it wins for.
        let refits = pool.map(&sweeps, |t, sweep| {
            let Some(winner) = sweep.leaderboard.first() else {
                return Err(TrainError::new("no model/preprocessor combination trained"));
            };
            let prep = preprocessors
                .iter()
                .find(|p| p.name == winner.preprocessor)
                .expect("winner came from the listed preprocessors");
            let (preprocessor, px) = prep.refit(x)?;
            let mut model = AnyModel::from_name(&winner.model).expect("winner came from the zoo");
            model.fit(px, targets[t])?;
            Ok(FittedPipeline {
                preprocessor_name: winner.preprocessor.clone(),
                model_name: winner.model.clone(),
                preprocessor: preprocessor.clone(),
                model,
            })
        });
        sweeps
            .into_iter()
            .zip(refits)
            .map(|(sweep, best)| {
                let best = best?;
                Ok(SearchOutcome {
                    best,
                    accuracy: sweep.leaderboard[0].accuracy,
                    leaderboard: sweep.leaderboard,
                    early_stopped: sweep.early_stopped,
                })
            })
            .collect()
    }
}

/// One listed preprocessor of a search, fitted on the training rows; its
/// refit on all rows is built by the first target it wins for, so the
/// searches of several targets fit each preprocessor at most twice in all.
#[derive(Debug)]
struct PreparedPreprocessor {
    name: String,
    /// The training and test rows through the preprocessor fitted on the
    /// training rows; `None` when the name is not in the zoo or the fit
    /// fails, which skips its candidates.
    rows: Option<(Matrix, Matrix)>,
    /// The preprocessor fitted on all rows, with its output.
    refit: OnceLock<Result<(AnyPreprocessor, Matrix), TrainError>>,
}

impl PreparedPreprocessor {
    fn fit(name: &str, xtr: &Matrix, xte: &Matrix) -> PreparedPreprocessor {
        let rows = AnyPreprocessor::from_name(name).and_then(|mut prep| {
            let ptr = prep.fit_transform(xtr).ok()?;
            Some((ptr, prep.transform(xte)))
        });
        PreparedPreprocessor {
            name: name.to_string(),
            rows,
            refit: OnceLock::new(),
        }
    }

    fn refit(&self, x: &Matrix) -> Result<&(AnyPreprocessor, Matrix), TrainError> {
        self.refit
            .get_or_init(|| {
                let mut prep =
                    AnyPreprocessor::from_name(&self.name).expect("winner came from the zoo");
                let px = prep.fit_transform(x)?;
                Ok((prep, px))
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Fits and scores one candidate's model on the prepared rows; `None` when
/// the candidate cannot be constructed, fails to train, or predicts
/// non-finite values — matching the sequential `continue`s.
fn evaluate_candidate(
    model_name: &str,
    prep: &PreparedPreprocessor,
    ytr: &[f64],
    yte: &[f64],
) -> Option<SearchEntry> {
    let mut fit_span = trace::span("search.fit");
    if fit_span.is_recording() {
        fit_span.field("model", model_name);
        fit_span.field("prep", prep.name.as_str());
    }
    let (ptr, pte) = prep.rows.as_ref()?;
    let mut model = AnyModel::from_name(model_name)?;
    model.fit(ptr, ytr).ok()?;
    let pred = model.predict(pte);
    if pred.iter().any(|p| !p.is_finite()) {
        return None;
    }
    let acc = 1.0 - metrics::mape(yte, &pred);
    if fit_span.is_recording() {
        fit_span.field("accuracy", acc);
        trace::observe("search.accuracy", acc);
    }
    Some(SearchEntry {
        preprocessor: prep.name.clone(),
        model: model_name.to_string(),
        accuracy: acc,
        max_pct_error: metrics::max_pct_error(yte, &pred),
        r2: metrics::r2(yte, &pred),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The zoo order is Algorithm 1's candidate order, and it lives only in
    /// the `any_model!`/`any_preprocessor!` tables.
    #[test]
    fn zoos_match_the_paper_tables() {
        assert_eq!(
            model_zoo(),
            [
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
            ],
            "Table IV's 21 models in row order"
        );
        assert_eq!(
            preprocessor_zoo(),
            [
                "identity", "pca", "nca", "mean-std", "min-max", "max-abs", "robust", "power",
                "quantile",
            ],
            "Table III's 8 algorithms after the identity baseline"
        );
        let quick = ModelSearch::quick();
        assert_eq!(
            quick.models,
            ["ridge", "linear", "lasso", "decision-tree", "random-forest"]
        );
        assert_eq!(quick.preprocessors, ["identity", "mean-std", "pca"]);
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
        assert!(ModelSearch::quick().run_all(&x, &[&y, &y]).is_err());
    }

    /// A non-finite feature fails the fits that read it, which skips
    /// their candidates (Algorithm 1 must not panic on a poisoned row),
    /// whether the row is a training or a test row.
    #[test]
    fn a_non_finite_feature_skips_candidates_instead_of_panicking() {
        let (x, y) = crate::models::testutil::synthetic(24, 0.1, 83);
        let (train, test) = train_test_split(24, 0.25, ModelSearch::quick().seed);
        let zoos = if cfg!(debug_assertions) {
            vec![ModelSearch::quick()]
        } else {
            vec![ModelSearch::quick(), ModelSearch::default()]
        };
        for search in zoos {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut x = x.clone();
                x[(train[0], 1)] = bad;
                let out = search.run(&x, &y);
                assert!(out.is_err(), "no candidate trains on a {bad} feature");
                let mut x_test = x.clone();
                x_test[(train[0], 1)] = 1.0;
                x_test[(test[0], 1)] = bad;
                // Test-row poison reaches only predictions: candidates whose
                // predictions stay finite are scored, and the winner's
                // refit on all rows fails.
                assert!(search.run(&x_test, &y).is_err(), "{bad} in a test row");
            }
        }
    }

    /// Rows of 12 features driven by three latent values (with a constant
    /// column and two near-duplicates, so PCA's MLE dimension and the
    /// scalers' degenerate-column guards take part) and four positive
    /// target columns: exact linear, noisy linear, nonlinear, and one
    /// that saturates.
    fn wide_dataset(n: usize, seed: u64) -> (Matrix, Vec<Vec<f64>>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut rows = Vec::with_capacity(n);
        let mut targets = vec![Vec::new(); 4];
        for _ in 0..n {
            let (a, b, c) = (rnd() * 10.0, rnd() * 4.0, rnd());
            rows.push(vec![
                a,
                b,
                c,
                a + b,
                a - 2.0 * c,
                b * c,
                a * a,
                1.0,
                a + 1e-9 * rnd(),
                b + 1e-9 * rnd(),
                (a + 1.0).ln(),
                rnd(),
            ]);
            targets[0].push(3.0 * a + 2.0 * b + 40.0);
            targets[1].push(3.0 * a + 2.0 * b + 40.0 + 4.0 * rnd());
            targets[2].push(20.0 + a * b + 5.0 * c * c);
            targets[3].push(10.0 + (a / 2.0).min(3.0));
        }
        (Matrix::from_vec_rows(rows), targets)
    }

    /// Requires equal leaderboards (every field, bit for bit, in order),
    /// early exits, winners and serialized fitted pipelines.
    fn assert_same_outcome(got: &SearchOutcome, want: &SearchOutcome, what: &str) {
        assert_eq!(
            format!("{:?}", got.leaderboard),
            format!("{:?}", want.leaderboard),
            "{what}: leaderboard"
        );
        assert_eq!(got.early_stopped, want.early_stopped, "{what}: early exit");
        assert_eq!(
            got.accuracy.to_bits(),
            want.accuracy.to_bits(),
            "{what}: accuracy"
        );
        assert_eq!(
            serde_json::to_string(&got.best).unwrap(),
            serde_json::to_string(&want.best).unwrap(),
            "{what}: fitted pipeline"
        );
    }

    /// One `run_all` searches every target column, and each outcome, and
    /// `run` on that column alone, equals the per-candidate oracle.
    fn check_against_the_oracle(search: &ModelSearch, rows: usize) {
        let (x, targets) = wide_dataset(rows, 81);
        let columns: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
        let all = search.run_all(&x, &columns).unwrap();
        assert_eq!(all.len(), targets.len());
        for (i, (y, got)) in targets.iter().zip(&all).enumerate() {
            let want = oracle::run(search, &x, y).unwrap();
            assert_same_outcome(got, &want, &format!("target {i}"));
            assert_same_outcome(
                &search.run(&x, y).unwrap(),
                &want,
                &format!("run, target {i}"),
            );
        }
    }

    #[test]
    fn search_matches_the_oracle_on_the_quick_zoo() {
        // In the zoo's order `identity` wins every target; reversed,
        // `mean-std` wins three, so refitting the wrong preprocessor shows.
        let mut reversed = ModelSearch::quick().preprocessors;
        reversed.reverse();
        for preprocessors in [ModelSearch::quick().preprocessors, reversed] {
            for threads in [1, 2] {
                let search = ModelSearch {
                    num_threads: threads,
                    preprocessors: preprocessors.clone(),
                    ..ModelSearch::quick()
                };
                check_against_the_oracle(&search, 32);
            }
        }
    }

    // The full zoo: ≈1 s in release, ≈10 s in debug.
    #[cfg(not(debug_assertions))]
    #[test]
    fn search_matches_the_oracle_on_the_paper_zoo() {
        let search = ModelSearch {
            num_threads: 2,
            ..ModelSearch::default()
        };
        check_against_the_oracle(&search, 32);
    }

    #[test]
    fn search_matches_the_oracle_when_the_early_exit_fires_mid_chunk() {
        let (x, targets) = wide_dataset(32, 82);
        // Two threads evaluate chunks of four candidates.
        let base = ModelSearch {
            num_threads: 2,
            accuracy_threshold: f64::INFINITY,
            ..ModelSearch::quick()
        };
        let chunk_len = 4;
        let order: Vec<(&String, &String)> = base
            .models
            .iter()
            .flat_map(|m| base.preprocessors.iter().map(move |p| (m, p)))
            .collect();
        let mut checked = 0;
        for y in &targets {
            let full = oracle::run(&base, &x, y).unwrap();
            assert!(!full.early_stopped);
            // Accuracy of each candidate in search order (`None` if skipped).
            let acc: Vec<Option<f64>> = order
                .iter()
                .map(|&(m, p)| {
                    let e = full
                        .leaderboard
                        .iter()
                        .find(|e| &e.model == m && &e.preprocessor == p);
                    e.map(|e| e.accuracy)
                })
                .collect();
            // A threshold just below the first candidate past the first
            // chunk that beats every earlier one, and is not a chunk's last.
            let mut best_before = f64::NEG_INFINITY;
            let stop = acc.iter().enumerate().find_map(|(i, a)| {
                let a = (*a)?;
                let hit = i >= chunk_len && (i + 1) % chunk_len != 0 && a > best_before;
                let threshold = (a + best_before) / 2.0;
                best_before = best_before.max(a);
                hit.then_some((i, threshold))
            });
            let Some((i, threshold)) = stop else { continue };
            let search = ModelSearch {
                accuracy_threshold: threshold,
                ..base.clone()
            };
            let want = oracle::run(&search, &x, y).unwrap();
            assert!(want.early_stopped, "the threshold must fire");
            let evaluated = acc[..=i].iter().flatten().count();
            assert_eq!(want.leaderboard.len(), evaluated, "stops at candidate {i}");
            let got = search.run(&x, y).unwrap();
            assert_same_outcome(&got, &want, &format!("threshold {threshold}"));
            checked += 1;
        }
        assert!(checked > 0, "no target stops mid-chunk");

        // One threshold for all four targets, under which they stop in
        // different chunks (or not at all), searched together.
        let ordered: Vec<Vec<Option<f64>>> = targets
            .iter()
            .map(|y| {
                let full = oracle::run(&base, &x, y).unwrap();
                order
                    .iter()
                    .map(|&(m, p)| {
                        let e = full.leaderboard.iter();
                        e.filter(|e| &e.model == m && &e.preprocessor == p)
                            .map(|e| e.accuracy)
                            .next()
                    })
                    .collect()
            })
            .collect();
        // Where a target stops under `threshold`: the first candidate in
        // search order above it.
        let stop_at = |acc: &[Option<f64>], threshold: f64| {
            acc.iter().position(|a| a.is_some_and(|a| a > threshold))
        };
        let mut levels: Vec<f64> = ordered.iter().flatten().flatten().copied().collect();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        // The midpoint whose stops fall in the most distinct chunks, with
        // at least one stop inside a chunk.
        let (threshold, chunks) = levels
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0)
            .filter_map(|threshold| {
                let stops: Vec<Option<usize>> =
                    ordered.iter().map(|acc| stop_at(acc, threshold)).collect();
                let mid = stops.iter().flatten().any(|i| (i + 1) % chunk_len != 0);
                let mut chunks: Vec<Option<usize>> =
                    stops.iter().map(|i| i.map(|i| i / chunk_len)).collect();
                chunks.sort_unstable();
                chunks.dedup();
                (mid && chunks.iter().flatten().count() >= 2).then_some((threshold, chunks))
            })
            .max_by_key(|(_, chunks)| chunks.len())
            .expect("a threshold stops two targets in different chunks");
        assert!(chunks.len() >= 2, "{chunks:?}");
        for threads in [2, 4] {
            let search = ModelSearch {
                accuracy_threshold: threshold,
                num_threads: threads,
                ..base.clone()
            };
            let columns: Vec<&[f64]> = targets.iter().map(Vec::as_slice).collect();
            let got = search.run_all(&x, &columns).unwrap();
            assert_eq!(got.len(), targets.len());
            for (i, (got, y)) in got.iter().zip(&targets).enumerate() {
                let want = oracle::run(&search, &x, y).unwrap();
                let stop = stop_at(&ordered[i], threshold);
                assert_eq!(want.early_stopped, stop.is_some(), "target {i}");
                let what = format!("target {i}, threshold {threshold}, threads {threads}");
                assert_same_outcome(got, &want, &what);
            }
        }
    }

    /// The search before preprocessor fits were shared: every candidate
    /// fits its own preprocessor on the training rows, and the winner's
    /// preprocessor is refit on all rows for each search.
    mod oracle {
        use super::super::*;
        use crate::take_rows;

        pub fn run(
            search: &ModelSearch,
            x: &Matrix,
            y: &[f64],
        ) -> Result<SearchOutcome, TrainError> {
            if x.rows() < 8 {
                return Err(TrainError::new("need at least 8 samples for model search"));
            }
            let (train, test) = train_test_split(x.rows(), search.test_fraction, search.seed);
            let (xtr, ytr) = take_rows(x, y, &train);
            let (xte, yte) = take_rows(x, y, &test);
            let candidates: Vec<(&String, &String)> = search
                .models
                .iter()
                .flat_map(|m| search.preprocessors.iter().map(move |p| (m, p)))
                .collect();
            let pool = WorkerPool::new(search.num_threads);
            let chunk_len = pool.num_threads().max(1) * 2;
            let mut leaderboard: Vec<SearchEntry> = Vec::new();
            let mut early_stopped = false;
            'outer: for batch in candidates.chunks(chunk_len) {
                let evaluated = pool.map(batch, |_, &(model_name, prep_name)| {
                    evaluate_candidate(model_name, prep_name, &xtr, &ytr, &xte, &yte)
                });
                for entry in evaluated.into_iter().flatten() {
                    let stop = entry.accuracy > search.accuracy_threshold;
                    leaderboard.push(entry);
                    if stop {
                        early_stopped = true;
                        break 'outer;
                    }
                }
            }
            leaderboard.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
            let Some(winner) = leaderboard.first().cloned() else {
                return Err(TrainError::new("no model/preprocessor combination trained"));
            };
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

        fn evaluate_candidate(
            model_name: &str,
            prep_name: &str,
            xtr: &Matrix,
            ytr: &[f64],
            xte: &Matrix,
            yte: &[f64],
        ) -> Option<SearchEntry> {
            let mut prep = AnyPreprocessor::from_name(prep_name)?;
            let mut model = AnyModel::from_name(model_name)?;
            let ptr = prep.fit_transform(xtr).ok()?;
            model.fit(&ptr, ytr).ok()?;
            let pred = model.predict(&prep.transform(xte));
            if pred.iter().any(|p| !p.is_finite()) {
                return None;
            }
            Some(SearchEntry {
                preprocessor: prep_name.to_string(),
                model: model_name.to_string(),
                accuracy: 1.0 - metrics::mape(yte, &pred),
                max_pct_error: metrics::max_pct_error(yte, &pred),
                r2: metrics::r2(yte, &pred),
            })
        }
    }
}
