//! The end-to-end MLComp facade: Data Extraction → PE training → PSS
//! training → a deployable selector.

use crate::dataset::Dataset;
use crate::estimator::PerfEstimator;
use crate::extraction::{DataExtraction, ExtractionError};
use crate::pss::{PhaseSequenceSelector, PssConfig, RewardWeights};
use mlcomp_ml::search::ModelSearch;
use mlcomp_parallel::WorkerPool;
use mlcomp_platform::TargetPlatform;
use mlcomp_rl::TrainingStats;
use mlcomp_suites::BenchProgram;
use std::fmt;

/// Everything the full pipeline produces.
pub struct Artifacts {
    /// The extraction dataset (persistable with `serde`).
    pub dataset: Dataset,
    /// The trained Performance Estimator.
    pub estimator: PerfEstimator,
    /// The trained, deployable Phase Sequence Selector.
    pub selector: PhaseSequenceSelector,
    /// The PSS learning curve.
    pub training_curve: Vec<TrainingStats>,
}

impl fmt::Debug for Artifacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Artifacts(samples={}, pe={:?}, curve_len={})",
            self.dataset.len(),
            self.estimator.report(),
            self.training_curve.len()
        )
    }
}

/// Pipeline-wide configuration.
#[derive(Debug, Clone)]
pub struct MlcompConfig {
    /// Data extraction settings.
    pub extraction: DataExtraction,
    /// Algorithm 1 settings.
    pub search: ModelSearch,
    /// Algorithm 2 / Table V settings.
    pub pss: PssConfig,
    /// Reward shaping.
    pub weights: RewardWeights,
}

impl MlcompConfig {
    /// The paper's configuration: full zoos, Table V hyper-parameters.
    pub fn paper() -> MlcompConfig {
        MlcompConfig {
            extraction: DataExtraction::default(),
            search: ModelSearch::default(),
            pss: PssConfig::paper(),
            weights: RewardWeights::default(),
        }
    }

    /// A scaled-down configuration for demos and tests (reduced zoo and
    /// episode counts; same algorithms).
    pub fn quick() -> MlcompConfig {
        MlcompConfig {
            extraction: DataExtraction::quick(),
            search: ModelSearch::quick(),
            pss: PssConfig::quick(),
            weights: RewardWeights::default(),
        }
    }

    /// Sets the worker-thread count for both parallel stages — data
    /// extraction and Algorithm 1's candidate evaluation, beside which the
    /// feature projector is fitted above one thread. `0` means host
    /// parallelism. Results are bit-identical at any value; see
    /// `DESIGN.md`.
    pub fn with_num_threads(mut self, num_threads: usize) -> MlcompConfig {
        self.extraction.num_threads = num_threads;
        self.search.num_threads = num_threads;
        self
    }
}

impl Default for MlcompConfig {
    fn default() -> Self {
        MlcompConfig::paper()
    }
}

/// An error from the full pipeline.
#[derive(Debug)]
pub enum MlcompError {
    /// Data extraction failed.
    Extraction(ExtractionError),
    /// Model training failed.
    Training(mlcomp_ml::TrainError),
}

impl fmt::Display for MlcompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlcompError::Extraction(e) => write!(f, "{e}"),
            MlcompError::Training(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MlcompError {}

impl From<ExtractionError> for MlcompError {
    fn from(e: ExtractionError) -> Self {
        MlcompError::Extraction(e)
    }
}

impl From<mlcomp_ml::TrainError> for MlcompError {
    fn from(e: mlcomp_ml::TrainError) -> Self {
        MlcompError::Training(e)
    }
}

/// The four-step methodology runner.
///
/// # Examples
///
/// End to end (a couple of minutes with [`MlcompConfig::quick`]; the
/// paper configuration is substantially longer):
///
/// ```no_run
/// use mlcomp_core::{Mlcomp, MlcompConfig};
/// use mlcomp_platform::X86Platform;
///
/// let apps = mlcomp_suites::parsec_suite();
/// let artifacts = Mlcomp::new(MlcompConfig::quick())
///     .run(&X86Platform::new(), &apps)
///     .unwrap();
/// let (optimized, phases) = artifacts.selector.optimize(&apps[0].module);
/// assert!(!phases.is_empty());
/// # let _ = optimized;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mlcomp {
    config: MlcompConfig,
}

impl Mlcomp {
    /// Creates a runner with the given configuration.
    pub fn new(config: MlcompConfig) -> Mlcomp {
        Mlcomp { config }
    }

    /// Runs all four steps for one platform and application set.
    ///
    /// # Errors
    ///
    /// Returns [`MlcompError`] when extraction produces no usable samples
    /// or the PE model search cannot fit any pipeline.
    pub fn run<P: TargetPlatform + Sync + ?Sized>(
        &self,
        platform: &P,
        apps: &[BenchProgram],
    ) -> Result<Artifacts, MlcompError> {
        // ① Data extraction.
        let dataset = self.config.extraction.run(platform, apps)?;
        // ② Performance Estimator model training (Algorithm 1), with the
        //    paper's standardize + PCA(MLE) feature projection for ③ fitted
        //    beside it: the two read the dataset only.
        let (estimator, projector) = WorkerPool::new(self.config.search.num_threads).join(
            || PerfEstimator::train(&dataset, &self.config.search),
            || crate::pss::FeatureProjector::fit(&dataset.features()),
        );
        let (estimator, projector) = (estimator?, projector?);
        // ③ Phase Selection Policy training (Algorithm 2).
        let (selector, training_curve) = PhaseSequenceSelector::train(
            apps,
            &estimator,
            projector,
            self.config.pss.clone(),
            self.config.weights,
        );
        // ④ Deployment is the selector itself.
        Ok(Artifacts {
            dataset,
            estimator,
            selector,
            training_curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_platform::{Profiler, RiscVPlatform, Workload};

    #[test]
    fn full_pipeline_on_beebs_subset() {
        let platform = RiscVPlatform::new();
        let apps: Vec<_> = mlcomp_suites::beebs_suite()
            .into_iter()
            .filter(|p| ["crc32", "fir", "prime"].contains(&p.name))
            .collect();
        let mut config = MlcompConfig::quick();
        config.pss.episodes = 24;
        let artifacts = Mlcomp::new(config).run(&platform, &apps).unwrap();
        assert_eq!(artifacts.dataset.platform, "riscv");
        assert!(artifacts.dataset.len() >= 20);
        assert_eq!(artifacts.estimator.report().rows.len(), 4);
        assert!(!artifacts.training_curve.is_empty());

        // The deployed selector must not regress any metric catastrophically
        // and should improve execution time on average.
        let profiler = Profiler::new(&platform);
        let mut base_total = 0.0;
        let mut tuned_total = 0.0;
        for app in &apps {
            let (opt, _) = artifacts.selector.optimize(&app.module);
            mlcomp_ir::verify(&opt).unwrap();
            let w = Workload::new(app.entry, app.default_args());
            base_total += profiler.profile(&app.module, &w).unwrap().exec_time_s;
            tuned_total += profiler.profile(&opt, &w).unwrap().exec_time_s;
        }
        assert!(
            tuned_total < base_total,
            "selector should speed up the suite: {tuned_total} vs {base_total}"
        );
    }
}
