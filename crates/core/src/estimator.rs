//! The Performance Estimator (box ② of Fig. 2): one automatically
//! searched preprocessing + regression pipeline per dynamic metric.

use crate::dataset::Dataset;
use mlcomp_features::FeatureVector;
use mlcomp_linalg::Matrix;
use mlcomp_ml::search::{FittedPipeline, ModelSearch, SearchOutcome};
use mlcomp_ml::TrainError;
use mlcomp_platform::{DynamicFeatures, METRIC_COUNT, METRIC_NAMES};
use serde::{Deserialize, Serialize};

/// Per-metric accuracy summary of a trained PE — the numbers behind the
/// paper's "<2% maximum error" claim (Table II row "MLComp (PE)").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorReport {
    /// `(metric, chosen preprocessor, chosen model, held-out accuracy,
    /// held-out max percentage error)` per metric.
    pub rows: Vec<(String, String, String, f64, f64)>,
}

impl EstimatorReport {
    /// The worst (largest) held-out maximum percentage error across all
    /// four metrics.
    pub fn worst_max_pct_error(&self) -> f64 {
        self.rows.iter().map(|r| r.4).fold(0.0, f64::max)
    }
}

impl std::fmt::Display for EstimatorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (metric, prep, model, acc, maxerr) in &self.rows {
            writeln!(
                f,
                "{metric:>13}: {prep} → {model} (accuracy {:.2}%, max err {:.2}%)",
                acc * 100.0,
                maxerr * 100.0
            )?;
        }
        Ok(())
    }
}

/// A trained Performance Estimator: predicts the four dynamic metrics from
/// the 63 static features, no execution required.
///
/// Serializable (one fitted pipeline per metric plus the accuracy report)
/// so a trained PE can ship inside an artifact bundle.
#[derive(Clone, Serialize, Deserialize)]
pub struct PerfEstimator {
    pipelines: Vec<FittedPipeline>,
    report: EstimatorReport,
}

impl std::fmt::Debug for PerfEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PerfEstimator({:?})", self.report)
    }
}

impl PerfEstimator {
    /// Trains one pipeline per metric with Algorithm 1's model search.
    ///
    /// The four searches run together ([`ModelSearch::run_all`]): they
    /// share one split, one fit of each preprocessor and the worker pool,
    /// and only the models are fit per metric.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the dataset is too small or no pipeline
    /// can be fit for some metric.
    pub fn train(dataset: &Dataset, search: &ModelSearch) -> Result<PerfEstimator, TrainError> {
        let targets = METRIC_NAMES.map(|metric| dataset.targets(metric));
        let columns = targets.each_ref().map(Vec::as_slice);
        let outcomes = search.run_all(&dataset.features(), &columns)?;
        let mut pipelines = Vec::with_capacity(METRIC_COUNT);
        let mut rows = Vec::with_capacity(METRIC_COUNT);
        for (metric, outcome) in METRIC_NAMES.iter().zip(outcomes) {
            let SearchOutcome {
                best,
                accuracy,
                leaderboard,
                ..
            } = outcome;
            let winner = &leaderboard[0];
            rows.push((
                metric.to_string(),
                best.preprocessor_name.clone(),
                best.model_name.clone(),
                accuracy,
                winner.max_pct_error,
            ));
            pipelines.push(best);
        }
        Ok(PerfEstimator {
            pipelines,
            report: EstimatorReport { rows },
        })
    }

    /// Predicts all four metrics for one feature vector.
    pub fn predict(&self, features: &FeatureVector) -> DynamicFeatures {
        // Room for a row and its projection, should a pipeline project.
        let mut scratch = Vec::with_capacity(2 * features.values.len());
        let mut out = [0.0; METRIC_COUNT];
        for (i, p) in self.pipelines.iter().enumerate() {
            out[i] = p.predict_row(&features.values, &mut scratch);
        }
        DynamicFeatures::from_array(out)
    }

    /// Predicts one metric column for a feature matrix (used by the
    /// evaluation harness for Figs. 4 and 6).
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn predict_metric(&self, x: &Matrix, metric: &str) -> Vec<f64> {
        let idx = METRIC_NAMES
            .iter()
            .position(|m| *m == metric)
            .unwrap_or_else(|| panic!("unknown metric `{metric}`"));
        self.pipelines[idx].predict(x)
    }

    /// The per-metric accuracy report.
    pub fn report(&self) -> &EstimatorReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::DataExtraction;
    use mlcomp_platform::X86Platform;

    fn small_dataset() -> Dataset {
        let platform = X86Platform::new();
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
            .collect();
        DataExtraction {
            variants_per_app: 12,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap()
    }

    #[test]
    fn trains_one_pipeline_per_metric() {
        let ds = small_dataset();
        let pe = PerfEstimator::train(&ds, &ModelSearch::quick()).unwrap();
        assert_eq!(pe.report().rows.len(), 4);
        // Prediction runs and produces finite metrics.
        let f = FeatureVector {
            values: ds.samples[0].features.clone(),
        };
        let pred = pe.predict(&f);
        assert!(pred.exec_time_s.is_finite());
        assert!(pred.energy_j.is_finite());
        // In-sample prediction of a training point is in the right ballpark.
        let truth = ds.samples[0].metrics;
        assert!(
            (pred.exec_time_s - truth.exec_time_s).abs() / truth.exec_time_s < 0.5,
            "{} vs {}",
            pred.exec_time_s,
            truth.exec_time_s
        );
        let display = pe.report().to_string();
        assert!(display.contains("exec_time_s"));
    }

    #[test]
    fn code_size_is_learned_almost_exactly() {
        // Code size is a deterministic function of static features, so the
        // PE should nail it.
        let ds = small_dataset();
        let pe = PerfEstimator::train(&ds, &ModelSearch::quick()).unwrap();
        let x = ds.features();
        let pred = pe.predict_metric(&x, "code_size");
        let truth = ds.targets("code_size");
        let err = mlcomp_ml::metrics::mape(&truth, &pred);
        assert!(err < 0.15, "code size MAPE {err}");
    }

    #[test]
    fn report_tracks_worst_error() {
        let ds = small_dataset();
        let pe = PerfEstimator::train(&ds, &ModelSearch::quick()).unwrap();
        let worst = pe.report().worst_max_pct_error();
        assert!(worst >= 0.0);
        assert!(pe.report().rows.iter().all(|r| r.4 <= worst));
    }
}
