//! The MLComp methodology (Fig. 2 of the paper), end to end:
//!
//! 1. **Data Extraction** ([`extraction`]) — compile target applications
//!    under many phase permutations, collect the 63 static features and
//!    profile the four dynamic metrics on a target platform.
//! 2. **Performance Estimator training** ([`estimator`]) — Algorithm 1's
//!    automatic search over Table III preprocessors × Table IV models, one
//!    pipeline per metric.
//! 3. **Phase Selection Policy training** ([`pss`]) — Algorithm 2's
//!    REINFORCE training where rewards come from PE *predictions*, not
//!    from profiling — the paper's key adaptation-speed trick.
//! 4. **Deployment** ([`pss::PhaseSequenceSelector`]) — the trained policy
//!    drives the pass manager with the Table V limits (sequence length
//!    128, inactive subsequence 8, second/third-best fallback).
//!
//! # Example
//!
//! ```no_run
//! use mlcomp_core::{DataExtraction, Mlcomp, MlcompConfig};
//! use mlcomp_platform::X86Platform;
//! use mlcomp_suites::parsec_suite;
//!
//! let platform = X86Platform::new();
//! let apps = parsec_suite();
//! let artifacts = Mlcomp::new(MlcompConfig::quick())
//!     .run(&platform, &apps)
//!     .unwrap();
//! println!("PE accuracy: {:?}", artifacts.estimator.report());
//! let (optimized, phases) = artifacts.selector.optimize(&apps[0].module);
//! println!("chose {} phases", phases.len());
//! let _ = optimized;
//! ```

pub mod dataset;
pub mod estimator;
pub mod extraction;
pub mod mlcomp;
pub mod pss;

pub use dataset::{Dataset, FailedPoint, FailureCause, FailureReport, QuarantinedPhase, Sample};
pub use estimator::{EstimatorReport, PerfEstimator};
pub use extraction::{DataExtraction, ExtractionError};
pub use mlcomp::{Artifacts, Mlcomp, MlcompConfig};
pub use pss::{
    CompilerEnv, DeployError, FeatureProjector, PhaseSequenceSelector, PssConfig, RewardWeights,
};
