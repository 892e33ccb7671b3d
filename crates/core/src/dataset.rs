//! The profiling dataset collected by Data Extraction.

use mlcomp_ir::ExecError;
use mlcomp_linalg::Matrix;
use mlcomp_passes::QuarantineReason;
use mlcomp_platform::DynamicFeatures;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One profiled variant: an application compiled under one phase sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Application name.
    pub app: String,
    /// The phase sequence that produced this variant.
    pub sequence: Vec<String>,
    /// The 63 static features of the optimized module.
    pub features: Vec<f64>,
    /// Profiled dynamic metrics.
    pub metrics: DynamicFeatures,
}

/// Why a datapoint produced no sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureCause {
    /// Profiling the variant failed: an interpreter trap or fuel
    /// exhaustion.
    Exec(ExecError),
    /// The worker panicked on the item; the panic message.
    WorkerPanic(String),
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Exec(e) => e.fmt(f),
            FailureCause::WorkerPanic(msg) => f.write_str(msg),
        }
    }
}

/// One datapoint that failed for good: its variant produced no sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedPoint {
    /// Application name.
    pub app: String,
    /// Variant index within the application.
    pub variant: usize,
    /// Why the point failed.
    pub reason: FailureCause,
}

/// One phase occurrence the pass sandbox rolled back while compiling a
/// variant that still produced a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedPhase {
    /// Application name.
    pub app: String,
    /// Variant index within the application.
    pub variant: usize,
    /// Position of the phase in the variant's sequence.
    pub index: usize,
    /// Phase name.
    pub phase: String,
    /// Why the sandbox pulled it.
    pub reason: QuarantineReason,
}

/// Everything that went wrong during one extraction run, carried on the
/// [`Dataset`] so downstream consumers can weigh coverage, and serialized
/// with it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureReport {
    /// Datapoints that produced no sample.
    pub failed: Vec<FailedPoint>,
    /// Phases rolled back by the pass sandbox (their variants survived).
    pub quarantined: Vec<QuarantinedPhase>,
}

impl FailureReport {
    /// Whether the run was completely clean.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty() && self.quarantined.is_empty()
    }
}

/// A Data Extraction output: the PE training set for one platform.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Platform name the metrics were measured on.
    pub platform: String,
    /// All profiled variants.
    pub samples: Vec<Sample>,
    /// What failed along the way (empty on a clean run).
    pub failures: FailureReport,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The feature matrix (`n × 63`).
    pub fn features(&self) -> Matrix {
        Matrix::from_vec_rows(self.samples.iter().map(|s| s.features.clone()).collect())
    }

    /// One metric column by [`mlcomp_platform::METRIC_NAMES`] name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn targets(&self, metric: &str) -> Vec<f64> {
        self.samples.iter().map(|s| s.metrics.get(metric)).collect()
    }

    /// Distinct application names, in first-seen order.
    pub fn apps(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.samples {
            if !out.contains(&s.app) {
                out.push(s.app.clone());
            }
        }
        out
    }

    /// Samples belonging to one application.
    pub fn samples_for(&self, app: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.app == app).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(app: &str, t: f64) -> Sample {
        Sample {
            app: app.into(),
            sequence: vec!["mem2reg".into()],
            features: vec![1.0, 2.0, 3.0],
            metrics: DynamicFeatures {
                exec_time_s: t,
                energy_j: 2.0 * t,
                instructions: 100.0,
                code_size: 400.0,
            },
        }
    }

    #[test]
    fn accessors() {
        let ds = Dataset {
            platform: "x86".into(),
            samples: vec![sample("a", 1.0), sample("b", 2.0), sample("a", 3.0)],
            ..Dataset::default()
        };
        assert_eq!(ds.len(), 3);
        assert!(!ds.is_empty());
        assert_eq!(ds.features().rows(), 3);
        assert_eq!(ds.targets("exec_time_s"), vec![1.0, 2.0, 3.0]);
        assert_eq!(ds.targets("energy_j"), vec![2.0, 4.0, 6.0]);
        assert_eq!(ds.apps(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(ds.samples_for("a").len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let ds = Dataset {
            platform: "riscv".into(),
            samples: vec![sample("a", 1.5)],
            failures: FailureReport {
                failed: vec![
                    FailedPoint {
                        app: "a".into(),
                        variant: 3,
                        reason: FailureCause::Exec(ExecError::DivByZero),
                    },
                    FailedPoint {
                        app: "a".into(),
                        variant: 4,
                        reason: FailureCause::Exec(ExecError::MemoryOutOfBounds { addr: -2 }),
                    },
                    FailedPoint {
                        app: "b".into(),
                        variant: 5,
                        reason: FailureCause::WorkerPanic("worker died".into()),
                    },
                ],
                quarantined: vec![
                    QuarantinedPhase {
                        app: "a".into(),
                        variant: 1,
                        index: 7,
                        phase: "gvn".into(),
                        reason: QuarantineReason::Panic("injected".into()),
                    },
                    QuarantinedPhase {
                        app: "b".into(),
                        variant: 2,
                        index: 0,
                        phase: "licm".into(),
                        reason: QuarantineReason::VerifierReject("use of unplaced value %7".into()),
                    },
                ],
            },
        };
        assert!(!ds.failures.is_empty());
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn causes_display_their_underlying_text() {
        let fuel = FailureCause::Exec(ExecError::OutOfFuel);
        assert_eq!(fuel.to_string(), "execution fuel exhausted");
        assert_eq!(FailureCause::WorkerPanic("boom".into()).to_string(), "boom");
    }
}
