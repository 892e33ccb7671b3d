//! Data Extraction (box ① of Fig. 2): explore phase permutations per
//! application, compile each variant, collect static features and profile
//! the dynamic metrics.
//!
//! # How the knobs map onto the paper
//!
//! | Config field | Paper reference | Role |
//! |---|---|---|
//! | [`variants_per_app`](DataExtraction::variants_per_app) | §IV-B, Fig. 2 box ① | Phase-sequence variants compiled and profiled per application. The paper collects 200–600 data points per platform; `13 apps × 30` (PARSEC, [`Default`]) and `24 × 20` (BEEBS, [`DataExtraction::beebs_default`]) land inside that range. |
//! | [`min_phases`](DataExtraction::min_phases) / [`max_phases`](DataExtraction::max_phases) | Table VI | Length range of the random permutations drawn from the phase registry (the Table VI pass list). |
//! | [`seed`](DataExtraction::seed) | §IV-B | Root of *all* extraction randomness. Every `(app, variant)` work item derives its own RNG stream from `(seed, app name, variant index)`, so the dataset is a pure function of this value — independent of thread count and scheduling. |
//! | [`noise`](DataExtraction::noise) | §IV-A (RAPL / hardware counters) | Relative jitter applied to the measured time/energy, emulating real profiling variance. Seeded per `(app, sequence)`, so repeated measurements of the same variant agree. |
//! | [`num_threads`](DataExtraction::num_threads) | — (this reproduction) | Fan-out width of the worker pool; `0` = host parallelism. Results are bit-identical at any value. |
//! | [`min_success_fraction`](DataExtraction::min_success_fraction) | — (robustness) | Fraction of datapoints that must survive for the run to succeed; losses below that are reported, not fatal. |
//! | [`fault_plan`](DataExtraction::fault_plan) | — (testing) | Deterministic fault injection ([`mlcomp_faults::FaultPlan`]); `None` leaves the pipeline bit-identical to the fault-free build. |
//!
//! The first three variants of every application are fixed anchors —
//! unoptimized, `-O2` and `-O3` — mirroring the baselines the paper's
//! tables compare against; the remainder are random permutations.
//!
//! # Parallel execution
//!
//! Extraction fans out at `(app, variant)` granularity in one
//! [`mlcomp_parallel::WorkerPool::map`] pass; each item compiles and
//! profiles its variant exactly once. See `DESIGN.md` for why per-variant
//! seed derivation keeps the output byte-identical to a sequential run.
//!
//! # Failure handling
//!
//! The pipeline is supervised end to end. Phases run inside the pass
//! sandbox ([`mlcomp_passes::Sandbox::run_sequence`]), so a panicking or
//! IR-corrupting phase is rolled back and quarantined instead of sinking
//! the variant. Each item runs once under [`std::panic::catch_unwind`]:
//! an item is a pure function of `(seed, app, variant)`, so a panic would
//! only recur on a second try, and it costs that item's datapoint alone.
//! Lost datapoints land in the [`FailureReport`] carried on the
//! [`Dataset`], each with its cause as a value: a [`FailureCause`] (the
//! profiler's [`ExecError`] — a trap or fuel exhaustion — or the worker's
//! panic message) for a lost point, the sandbox's [`QuarantineReason`] for
//! a rolled-back phase. The `extraction.fault.*` trace counters are one
//! exhaustive `match` over those causes, bumped as each item's result is
//! collected. The run as a whole only fails when fewer than
//! [`min_success_fraction`](DataExtraction::min_success_fraction) of the
//! points survive.

use crate::dataset::{Dataset, FailedPoint, FailureCause, FailureReport, QuarantinedPhase, Sample};
use mlcomp_faults::{
    panic_reason, quiet_injected_panics, FaultKind, FaultPlan, INJECTED_PANIC_PREFIX,
};
use mlcomp_ir::{ExecError, InterpConfig};
use mlcomp_parallel::{seed, WorkerPool};
use mlcomp_passes::{registry, QuarantineEntry, QuarantineReason, Sandbox};
use mlcomp_platform::{DynamicFeatures, Profiler, TargetPlatform, Workload};
use mlcomp_suites::BenchProgram;
use mlcomp_trace as trace;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fuel budget substituted when [`FaultKind::FuelExhaustion`] fires: small
/// enough that no real workload completes.
const STARVATION_FUEL: u64 = 64;

/// Why an extraction run failed as a whole (individual datapoint failures
/// are *not* errors — they are collected in [`FailureReport`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractionError {
    /// Every attempted datapoint failed; the dataset would be empty.
    NoSamples {
        /// The last datapoint that failed.
        last: FailedPoint,
    },
    /// Fewer than [`DataExtraction::min_success_fraction`] of the
    /// datapoints survived.
    TooManyFailures {
        /// Datapoints that produced samples.
        survived: usize,
        /// Total datapoints attempted.
        total: usize,
        /// The configured survival threshold.
        min_success_fraction: f64,
    },
}

impl fmt::Display for ExtractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractionError::NoSamples { last } => {
                write!(
                    f,
                    "extraction produced no samples; last failure: {}",
                    last.reason
                )
            }
            ExtractionError::TooManyFailures {
                survived,
                total,
                min_success_fraction,
            } => write!(
                f,
                "extraction kept only {survived}/{total} datapoints, below the \
                 required fraction {min_success_fraction}"
            ),
        }
    }
}

impl std::error::Error for ExtractionError {}

/// The fate of one `(app, variant)` work item.
#[derive(Debug)]
enum ItemOutcome {
    /// The variant produced a sample (possibly with quarantined phases).
    Sample {
        /// The profiled sample.
        sample: Sample,
        /// Phases the pass sandbox rolled back while compiling it.
        quarantined: Vec<QuarantinedPhase>,
    },
    /// The variant failed for good.
    Failed(FailedPoint),
}

/// Configuration for the permutation exploration.
///
/// The paper collected 200–600 data points per platform; the defaults here
/// land in that range for the 13-program PARSEC suite (13 × 30 = 390) and
/// the 24-program BEEBS suite (24 × 20 = 480 with
/// [`DataExtraction::beebs_default`]).
#[derive(Debug, Clone)]
pub struct DataExtraction {
    /// Phase-sequence variants per application (incl. the unoptimized and
    /// standard-level baselines).
    pub variants_per_app: usize,
    /// Length range of random phase permutations.
    pub min_phases: usize,
    /// Maximum permutation length.
    pub max_phases: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Relative profiling noise (RAPL-style jitter); 0 = exact.
    pub noise: f64,
    /// Worker threads for the `(app, variant)` fan-out; 0 = host
    /// parallelism. The produced [`Dataset`] is identical at any value.
    pub num_threads: usize,
    /// Fraction of datapoints that must survive for the run to succeed;
    /// below it the run fails with [`ExtractionError::TooManyFailures`].
    pub min_success_fraction: f64,
    /// Deterministic fault injection for robustness testing; `None` (the
    /// default) leaves the pipeline bit-identical to the fault-free path.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DataExtraction {
    fn default() -> Self {
        DataExtraction {
            variants_per_app: 30,
            min_phases: 2,
            max_phases: 24,
            seed: 0xDA7A,
            noise: 0.0,
            num_threads: 0,
            min_success_fraction: 0.5,
            fault_plan: None,
        }
    }
}

impl DataExtraction {
    /// The BEEBS-sized configuration (more apps, fewer variants each).
    pub fn beebs_default() -> DataExtraction {
        DataExtraction {
            variants_per_app: 20,
            ..DataExtraction::default()
        }
    }

    /// A small configuration for tests and demos.
    pub fn quick() -> DataExtraction {
        DataExtraction {
            variants_per_app: 8,
            max_phases: 10,
            ..DataExtraction::default()
        }
    }

    /// Runs extraction for all `apps` on `platform`.
    ///
    /// Per app, the first three variants are fixed anchors — unoptimized,
    /// `-O2` and `-O3` — and the rest are random permutations of the
    /// Table VI phases. Variants that fail to execute (e.g. pathological
    /// sequences hitting interpreter limits) or whose worker panics are
    /// recorded in the dataset's [`FailureReport`]; the run fails only
    /// when the dataset would be empty or fewer than
    /// [`min_success_fraction`](DataExtraction::min_success_fraction) of
    /// the datapoints survive.
    ///
    /// Work is distributed over [`num_threads`](DataExtraction::num_threads)
    /// workers; each `(app, variant)` item derives its RNG stream from its
    /// identity, so the resulting [`Dataset`] — including sample order —
    /// is byte-identical regardless of thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlcomp_core::DataExtraction;
    /// use mlcomp_platform::X86Platform;
    ///
    /// let apps: Vec<_> = mlcomp_suites::beebs_suite()
    ///     .into_iter()
    ///     .filter(|p| p.name == "crc32")
    ///     .collect();
    /// let config = DataExtraction { variants_per_app: 4, max_phases: 6, ..DataExtraction::quick() };
    /// let dataset = config.run(&X86Platform::new(), &apps).unwrap();
    /// assert_eq!(dataset.len(), 4);
    /// assert!(dataset.failures.is_empty());
    ///
    /// // Same seed, different thread count → byte-identical dataset.
    /// let wide = DataExtraction { num_threads: 8, ..config }.run(&X86Platform::new(), &apps);
    /// assert_eq!(dataset, wide.unwrap());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ExtractionError`] when the dataset would be empty or too
    /// few datapoints survived.
    pub fn run<P: TargetPlatform + Sync + ?Sized>(
        &self,
        platform: &P,
        apps: &[BenchProgram],
    ) -> Result<Dataset, ExtractionError> {
        if self.fault_plan.is_some() {
            // Injected panics are expected; keep them off stderr.
            quiet_injected_panics();
        }
        let mut run_span = trace::span("extraction");
        let pool = WorkerPool::new(self.num_threads);
        // One work item per (app, variant); the pool returns results in
        // item order, which is exactly the sequential sample order.
        let items: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|a| (0..self.variants_per_app).map(move |v| (a, v)))
            .collect();
        if run_span.is_recording() {
            run_span.field("apps", apps.len());
            run_span.field("items", items.len());
            run_span.field("threads", pool.num_threads());
        }

        let outcomes = pool.map(&items, |_, &(a, v)| {
            let app = &apps[a];
            catch_unwind(AssertUnwindSafe(|| self.extract_item(platform, app, v))).unwrap_or_else(
                |payload| {
                    ItemOutcome::Failed(FailedPoint {
                        app: app.name.to_string(),
                        variant: v,
                        reason: FailureCause::WorkerPanic(panic_reason(payload.as_ref())),
                    })
                },
            )
        });

        let mut dataset = Dataset {
            platform: platform.name().to_string(),
            samples: Vec::with_capacity(items.len()),
            failures: FailureReport::default(),
        };
        for outcome in outcomes {
            if trace::enabled() {
                count_outcome(&outcome);
            }
            match outcome {
                ItemOutcome::Sample {
                    sample,
                    quarantined,
                } => {
                    dataset.samples.push(sample);
                    dataset.failures.quarantined.extend(quarantined);
                }
                ItemOutcome::Failed(point) => dataset.failures.failed.push(point),
            }
        }

        if dataset.is_empty() {
            if let Some(last) = dataset.failures.failed.pop() {
                return Err(ExtractionError::NoSamples { last });
            }
        }
        if !items.is_empty() {
            let survived = dataset.len();
            if (survived as f64) < self.min_success_fraction * items.len() as f64 {
                return Err(ExtractionError::TooManyFailures {
                    survived,
                    total: items.len(),
                    min_success_fraction: self.min_success_fraction,
                });
            }
        }
        if run_span.is_recording() {
            run_span.field("samples", dataset.len());
            run_span.field("failed", dataset.failures.failed.len());
            run_span.field("quarantined", dataset.failures.quarantined.len());
        }
        Ok(dataset)
    }

    /// Compiles and profiles variant `v` of `app` in an `extract.item`
    /// span. A [`FaultKind::WorkerPanic`] fault keyed `app|v` panics here,
    /// inside the caller's `catch_unwind`.
    fn extract_item<P: TargetPlatform + ?Sized>(
        &self,
        platform: &P,
        app: &BenchProgram,
        v: usize,
    ) -> ItemOutcome {
        let mut item_span = trace::span("extract.item");
        if item_span.is_recording() {
            item_span.field("app", app.name);
            item_span.field("variant", v);
        }
        if let Some(plan) = &self.fault_plan {
            let key = format!("{}|{v}", app.name);
            if plan.fires(FaultKind::WorkerPanic, &key) {
                panic!("{INJECTED_PANIC_PREFIX} worker panic at `{key}`");
            }
        }
        let sequence = self.variant_sequence(app, v);
        let outcome = self.compile_and_profile(platform, app, &sequence);
        if item_span.is_recording() {
            item_span.field("outcome", if outcome.is_ok() { "ok" } else { "failed" });
        }
        match outcome {
            Ok((features, metrics, quarantined)) => ItemOutcome::Sample {
                sample: Sample {
                    app: app.name.to_string(),
                    sequence,
                    features,
                    metrics,
                },
                quarantined: quarantined
                    .into_iter()
                    .map(|q| QuarantinedPhase {
                        app: app.name.to_string(),
                        variant: v,
                        index: q.index,
                        phase: q.phase,
                        reason: q.reason,
                    })
                    .collect(),
            },
            Err(e) => ItemOutcome::Failed(FailedPoint {
                app: app.name.to_string(),
                variant: v,
                reason: FailureCause::Exec(e),
            }),
        }
    }

    /// The phase sequence of one variant: anchors for `v < 3`, then random
    /// permutations drawn from an RNG seeded by the item's identity
    /// `(seed, app, v)` — never from a shared sequential stream.
    fn variant_sequence(&self, app: &BenchProgram, v: usize) -> Vec<String> {
        match v {
            0 => Vec::new(),
            1 => mlcomp_passes::PipelineLevel::O2
                .phases()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            2 => mlcomp_passes::PipelineLevel::O3
                .phases()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            _ => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed::item_seed(
                    self.seed, app.name, v as u64,
                ));
                let len = rng.gen_range(self.min_phases..=self.max_phases);
                (0..len)
                    .map(|_| {
                        registry::PHASE_NAMES
                            .choose(&mut rng)
                            .expect("registry non-empty")
                            .to_string()
                    })
                    .collect()
            }
        }
    }

    /// Compiles `app` under `sequence` (inside the pass sandbox) and
    /// profiles it: a pure function of `(self, app, sequence)`, including
    /// the fault decisions, which are keyed by `(app, canonical sequence)`.
    fn compile_and_profile<P: TargetPlatform + ?Sized>(
        &self,
        platform: &P,
        app: &BenchProgram,
        sequence: &[String],
    ) -> Result<(Vec<f64>, DynamicFeatures, Vec<QuarantineEntry>), ExecError> {
        let mut session = Sandbox::new(app.module.clone());
        let canonical = sequence.join(" ");
        let site_prefix = format!("{}|{canonical}", app.name);
        let report = session
            .run_sequence(
                sequence.iter().map(String::as_str),
                self.fault_plan.as_ref(),
                &site_prefix,
            )
            .expect("registry names are valid");
        // The session's analyses describe its module: most functions keep
        // the CFGs and loop forests the phases left in the cache.
        let (module, cache) = session.analysed();
        let features = mlcomp_features::extract_cached(module, cache);
        let mut interp = InterpConfig::default();
        if let Some(plan) = &self.fault_plan {
            if plan.fires(FaultKind::FuelExhaustion, &site_prefix) {
                interp.fuel = STARVATION_FUEL;
            }
        }
        let profiler = if self.noise > 0.0 {
            // Noise is seeded by (seed, app, sequence) — not by sample
            // position — so repeated profiles of the same variant agree.
            let noise_seed = seed::combine(
                seed::combine(self.seed, seed::hash_str(app.name)),
                seed::hash_str(&canonical),
            );
            Profiler::new(platform).with_noise(self.noise, noise_seed)
        } else {
            Profiler::new(platform)
        }
        .with_interp_config(interp);
        let workload = Workload::new(app.entry, app.default_args());
        profiler
            .profile(module, &workload)
            .map(|metrics| (features.values, metrics, report.quarantine.entries))
    }
}

/// Bumps one finished item's trace counters: `extraction.items_ok` or
/// `extraction.items_failed`, plus one `extraction.fault.*` counter per
/// typed cause. Nothing else writes those counters, so a trace's fault
/// breakdown is exactly the tally of the dataset's [`FailureReport`].
fn count_outcome(outcome: &ItemOutcome) {
    match outcome {
        ItemOutcome::Sample { quarantined, .. } => {
            trace::counter("extraction.items_ok", 1);
            for q in quarantined {
                let counter = match q.reason {
                    QuarantineReason::Panic(_) => "extraction.fault.phase_panic",
                    QuarantineReason::VerifierReject(_) => "extraction.fault.verifier_corrupt",
                };
                trace::counter(counter, 1);
            }
        }
        ItemOutcome::Failed(point) => {
            trace::counter("extraction.items_failed", 1);
            let counter = match point.reason {
                FailureCause::Exec(ExecError::OutOfFuel) => "extraction.fault.fuel_exhaustion",
                FailureCause::Exec(
                    ExecError::StackOverflow
                    | ExecError::OutOfMemory
                    | ExecError::DivByZero
                    | ExecError::MemoryOutOfBounds { .. }
                    | ExecError::BadCall { .. }
                    | ExecError::UnreachableExecuted,
                ) => "extraction.fault.exec_trap",
                FailureCause::WorkerPanic(_) => "extraction.fault.worker_panic",
            };
            trace::counter(counter, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_platform::X86Platform;

    fn two_apps() -> Vec<BenchProgram> {
        mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| p.name == "dedup" || p.name == "vips")
            .collect()
    }

    #[test]
    fn extraction_produces_varied_samples() {
        let platform = X86Platform::new();
        let ex = DataExtraction::quick();
        let ds = ex.run(&platform, &two_apps()).unwrap();
        assert_eq!(ds.len(), 16);
        assert_eq!(ds.platform, "x86");
        assert_eq!(ds.apps().len(), 2);
        assert!(ds.failures.is_empty(), "clean run reports no failures");
        // The unoptimized anchor differs from the -O3 anchor.
        let dedup = ds.samples_for("dedup");
        assert!(dedup[0].sequence.is_empty());
        assert!(!dedup[2].sequence.is_empty());
        assert!(
            dedup[0].metrics.exec_time_s > dedup[2].metrics.exec_time_s,
            "O3 anchor should beat unoptimized"
        );
        // Different sequences give different feature vectors somewhere.
        assert!(dedup.iter().any(|s| s.features != dedup[0].features));
    }

    #[test]
    fn extraction_is_deterministic() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let a = DataExtraction::quick().run(&platform, &apps).unwrap();
        let b = DataExtraction::quick().run(&platform, &apps).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn noise_perturbs_measurements_only() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let clean = DataExtraction::quick().run(&platform, &apps).unwrap();
        let noisy = DataExtraction {
            noise: 0.01,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        assert_eq!(clean.len(), noisy.len());
        assert_ne!(clean.targets("exec_time_s"), noisy.targets("exec_time_s"));
        assert_eq!(
            clean.targets("instructions"),
            noisy.targets("instructions"),
            "counts stay exact"
        );
    }

    #[test]
    fn repeated_sequences_profile_identically() {
        // compile_and_profile is a pure function of (app, sequence), noise
        // included: every item profiles its variant itself, so equal
        // sequences must still yield equal samples.
        let platform = X86Platform::new();
        let apps = vec![mlcomp_suites::program("dedup").expect("suite program")];
        let ds = DataExtraction {
            variants_per_app: 23,
            min_phases: 1,
            max_phases: 1,
            noise: 0.01,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        let mut duplicates = 0;
        for (i, a) in ds.samples.iter().enumerate() {
            for b in &ds.samples[i + 1..] {
                if a.sequence == b.sequence {
                    duplicates += 1;
                    assert_eq!(a.features, b.features, "{:?}", a.sequence);
                    assert_eq!(a.metrics, b.metrics, "{:?}", a.sequence);
                }
            }
        }
        assert!(duplicates > 0, "fixture must draw a repeated sequence");
    }

    #[test]
    fn thread_count_does_not_change_the_dataset() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let base = DataExtraction::quick();
        let reference = DataExtraction {
            num_threads: 1,
            ..base.clone()
        }
        .run(&platform, &apps)
        .unwrap();
        for threads in [2, 4, 8] {
            let ds = DataExtraction {
                num_threads: threads,
                ..base.clone()
            }
            .run(&platform, &apps)
            .unwrap();
            assert_eq!(reference, ds, "num_threads={threads}");
        }
    }

    /// A plan that starves the profiler of the items whose fuel fault
    /// fires, and injects nothing else.
    fn starvation(seed: u64, rate: f64) -> Option<FaultPlan> {
        Some(FaultPlan::from_seed(seed).with_rate(FaultKind::FuelExhaustion, rate))
    }

    #[test]
    fn fuel_exhaustion_is_reported_not_fatal() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let ds = DataExtraction {
            fault_plan: starvation(5, 0.5),
            min_success_fraction: 0.0,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        assert!(!ds.failures.failed.is_empty(), "some variants must starve");
        assert!(!ds.is_empty(), "some variants must survive");
        assert!(
            ds.failures
                .failed
                .iter()
                .all(|p| p.reason == FailureCause::Exec(ExecError::OutOfFuel)),
            "failures are fuel exhaustion: {:?}",
            ds.failures.failed
        );
        assert_eq!(ds.len() + ds.failures.failed.len(), 16);
    }

    #[test]
    fn starving_every_variant_is_no_samples() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let err = DataExtraction {
            fault_plan: starvation(5, 1.0),
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap_err();
        // Every variant starves: the dataset would be empty.
        let ExtractionError::NoSamples { last } = &err else {
            panic!("expected NoSamples, got {err}");
        };
        assert_eq!((last.app.as_str(), last.variant), ("vips", 7));
        assert_eq!(last.reason, FailureCause::Exec(ExecError::OutOfFuel));
        assert_eq!(
            err.to_string(),
            "extraction produced no samples; last failure: execution fuel exhausted"
        );
    }

    #[test]
    fn too_few_survivors_is_too_many_failures() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let err = DataExtraction {
            fault_plan: starvation(5, 0.9),
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap_err();
        // 14 of the 16 variants starve; 8 must survive at the default 0.5.
        assert_eq!(
            err,
            ExtractionError::TooManyFailures {
                survived: 2,
                total: 16,
                min_success_fraction: 0.5,
            }
        );
        assert_eq!(
            err.to_string(),
            "extraction kept only 2/16 datapoints, below the required fraction 0.5"
        );
    }

    #[test]
    fn a_worker_panic_costs_only_its_own_datapoint() {
        let platform = X86Platform::new();
        let apps = two_apps();
        let config = |num_threads| DataExtraction {
            num_threads,
            fault_plan: Some(FaultPlan::from_seed(5).with_rate(FaultKind::WorkerPanic, 0.5)),
            min_success_fraction: 0.0,
            ..DataExtraction::quick()
        };
        let ds = config(1).run(&platform, &apps).unwrap();
        assert!(!ds.failures.failed.is_empty(), "some workers must panic");
        assert!(!ds.is_empty(), "some variants must survive");
        for point in &ds.failures.failed {
            let FailureCause::WorkerPanic(msg) = &point.reason else {
                panic!("expected a worker panic, got {point:?}");
            };
            assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "{msg}");
        }
        assert_eq!(ds.len() + ds.failures.failed.len(), 16);
        assert_eq!(ds, config(4).run(&platform, &apps).unwrap());
    }
}
