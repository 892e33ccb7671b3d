//! Phase Selection Policy training (box ③, Algorithm 2) and the deployed
//! Phase Sequence Selector (box ④) with the Table V limits.

use crate::estimator::PerfEstimator;
use mlcomp_ir::Module;
use mlcomp_ml::preprocess::{Pca, StandardScaler};
use mlcomp_ml::{Preprocessor, TrainError};
use mlcomp_passes::{registry, PhaseOutcome, Sandbox};
use mlcomp_platform::DynamicFeatures;
use mlcomp_rl::{Env, PolicyNet, ReinforceTrainer, TrainingStats};
use mlcomp_suites::BenchProgram;
use mlcomp_trace as trace;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Table V hyper-parameters of PSS training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PssConfig {
    /// Number of policy-network layers (Table V: 3).
    pub layers: usize,
    /// Inner layer width (Table V: 16).
    pub inner_size: usize,
    /// Training episodes (Table V: 512).
    pub episodes: usize,
    /// Episode batch size (Table V: 6).
    pub batch_size: usize,
    /// Maximum phase sequence length (Table V: 128).
    pub max_seq_len: usize,
    /// Learning rate (Table V: 0.1).
    pub learning_rate: f64,
    /// Maximum inactive subsequence length (Table V: 8).
    pub max_inactive: usize,
    /// Discount factor for REINFORCE returns.
    pub gamma: f64,
    /// Seed for policy init and episode sampling.
    pub seed: u64,
}

impl PssConfig {
    /// Exactly the paper's Table V values.
    pub fn paper() -> PssConfig {
        PssConfig {
            layers: 3,
            inner_size: 16,
            episodes: 512,
            batch_size: 6,
            max_seq_len: 128,
            learning_rate: 0.1,
            max_inactive: 8,
            gamma: 0.98,
            seed: 2021,
        }
    }

    /// A reduced configuration for tests and demos.
    pub fn quick() -> PssConfig {
        PssConfig {
            episodes: 64,
            max_seq_len: 24,
            ..PssConfig::paper()
        }
    }
}

impl Default for PssConfig {
    fn default() -> Self {
        PssConfig::paper()
    }
}

/// Weights combining the per-metric relative improvements into the scalar
/// reward; `degradation_penalty` adds extra cost for any worsened metric,
/// steering the policy toward Pareto-improving phases (§III-C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RewardWeights {
    /// Execution-time weight.
    pub time: f64,
    /// Energy weight.
    pub energy: f64,
    /// Code-size weight.
    pub size: f64,
    /// Extra penalty multiplier on degradations.
    pub degradation_penalty: f64,
}

impl Default for RewardWeights {
    fn default() -> Self {
        RewardWeights {
            time: 1.0,
            energy: 1.0,
            size: 0.3,
            degradation_penalty: 0.5,
        }
    }
}

impl RewardWeights {
    /// The reward for moving predicted metrics from `old` to `new`:
    /// weighted relative improvements, minus the Pareto penalty on any
    /// degradation. Relative deltas are clamped to ±1 so one exploding
    /// metric cannot dominate an episode.
    pub fn reward(&self, old: &DynamicFeatures, new: &DynamicFeatures) -> f64 {
        let rel = |o: f64, n: f64| {
            if o.abs() < 1e-12 {
                0.0
            } else {
                ((o - n) / o).clamp(-1.0, 1.0)
            }
        };
        let dt = rel(old.exec_time_s, new.exec_time_s);
        let de = rel(old.energy_j, new.energy_j);
        let ds = rel(old.code_size, new.code_size);
        let gain = self.time * dt + self.energy * de + self.size * ds;
        let penalty: f64 =
            [dt, de, ds].iter().map(|d| (-d).max(0.0)).sum::<f64>() * self.degradation_penalty;
        gain - penalty
    }
}

/// The state projection of §IV: the 63 static features are standardized
/// and reduced by PCA with MLE-selected dimensionality before feeding the
/// policy network. (Standardization keeps any single large-scale feature —
/// e.g. global data size — from dominating the principal components.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureProjector {
    scaler: StandardScaler,
    pca: Pca,
}

impl FeatureProjector {
    /// Fits the projection on the extraction dataset's feature matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] on degenerate input (fewer than two rows).
    pub fn fit(x: &mlcomp_linalg::Matrix) -> Result<FeatureProjector, TrainError> {
        let _span = trace::span("pss.projector");
        let mut scaler = StandardScaler::default();
        let scaled = scaler.fit_transform(x)?;
        let mut pca = Pca::mle();
        pca.fit(&scaled)?;
        Ok(FeatureProjector { scaler, pca })
    }

    /// Projects one feature vector into the policy's state space.
    pub fn project(&self, values: &[f64]) -> Vec<f64> {
        // Room for the input and the projection: one allocation.
        let mut state = Vec::with_capacity(values.len() + self.out_dim());
        state.extend_from_slice(values);
        self.scaler.transform_row(&mut state);
        self.pca.transform_row(&mut state);
        state
    }

    /// Output (state) dimensionality.
    pub fn out_dim(&self) -> usize {
        self.pca.out_dim()
    }
}

/// The RL environment of Algorithm 2: states are PCA-projected static
/// features of the module being optimized, actions are the 48 Table VI
/// phases, and rewards come from Performance Estimator *predictions* —
/// no profiling inside the training loop.
pub struct CompilerEnv<'a> {
    programs: &'a [BenchProgram],
    estimator: &'a PerfEstimator,
    projector: &'a FeatureProjector,
    /// Reward shaping weights.
    pub weights: RewardWeights,
    max_inactive: usize,
    rng: rand::rngs::StdRng,
    /// The episode's sandbox session, holding the module being optimized;
    /// each `reset` opens a new one.
    session: Option<Sandbox>,
    /// The projected state of the session's module, returned again by
    /// steps that leave it unchanged.
    state: Vec<f64>,
    last_pred: DynamicFeatures,
    inactive: usize,
}

impl<'a> CompilerEnv<'a> {
    /// Creates the environment over a program set, estimator and fitted
    /// PCA.
    pub fn new(
        programs: &'a [BenchProgram],
        estimator: &'a PerfEstimator,
        projector: &'a FeatureProjector,
        weights: RewardWeights,
        max_inactive: usize,
        seed: u64,
    ) -> CompilerEnv<'a> {
        assert!(!programs.is_empty(), "need at least one program");
        CompilerEnv {
            programs,
            estimator,
            projector,
            weights,
            max_inactive,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            session: None,
            state: Vec::new(),
            last_pred: DynamicFeatures::from_array([0.0; 4]),
            inactive: 0,
        }
    }

    /// The projected state and predicted dynamic features of the
    /// session's module.
    fn observe(&mut self) -> (Vec<f64>, DynamicFeatures) {
        let session = self.session.as_mut().expect("reset opens a session");
        let (module, cache) = session.analysed();
        let feats = mlcomp_features::extract_cached(module, cache);
        let pred = self.estimator.predict(&feats);
        (self.projector.project(&feats.values), pred)
    }
}

impl Env for CompilerEnv<'_> {
    fn state_dim(&self) -> usize {
        self.projector.out_dim()
    }

    fn action_count(&self) -> usize {
        registry::PHASE_COUNT
    }

    fn reset(&mut self) -> Vec<f64> {
        let idx = self.rng.gen_range(0..self.programs.len());
        let module = self.programs[idx].module.clone();
        // Suite modules verify, which `Sandbox::run_phase` requires.
        debug_assert!(mlcomp_ir::verify(&module).is_ok());
        self.session = Some(Sandbox::new(module));
        let (state, pred) = self.observe();
        self.state = state.clone();
        self.last_pred = pred;
        self.inactive = 0;
        state
    }

    fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
        let session = self.session.as_mut().expect("step before reset");
        let phase = registry::PHASE_NAMES[action];
        // Sandboxed: a panicking or IR-corrupting phase is rolled back and
        // scored like any other inactive phase — training survives it.
        let outcome = session
            .run_phase(phase, None, phase)
            .expect("registry names are valid");
        if outcome != PhaseOutcome::Changed {
            // The phase did nothing: small cost, episode ends after a run
            // of `max_inactive` such steps (the Table V limit). The module
            // equals the one last observed, so its state is reused.
            self.inactive += 1;
            let done = self.inactive >= self.max_inactive;
            return (self.state.clone(), -0.01, done);
        }
        self.inactive = 0;
        let (state, pred) = self.observe();
        let reward = self.weights.reward(&self.last_pred, &pred);
        self.last_pred = pred;
        self.state = state.clone();
        (state, reward, false)
    }
}

/// A selector cannot be deployed: its trained shapes disagree with the
/// environment it is being deployed into.
///
/// Returned by [`PhaseSequenceSelector::validate_deployment`]. Without
/// this check, a policy trained against a different phase registry would
/// emit action indices that are out of bounds for — or silently name the
/// wrong phase in — [`registry::PHASE_NAMES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The policy's action-space size differs from the phase registry's
    /// phase count.
    ActionSpaceMismatch {
        /// Actions the policy was trained with.
        policy_actions: usize,
        /// Phases in this build's registry.
        registry_phases: usize,
    },
    /// The policy's input dimensionality differs from the feature
    /// projector's output dimensionality.
    StateDimMismatch {
        /// State size the policy expects.
        policy_input: usize,
        /// State size the projector produces.
        projector_output: usize,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::ActionSpaceMismatch {
                policy_actions,
                registry_phases,
            } => write!(
                f,
                "policy was trained over {policy_actions} actions but the phase \
                 registry has {registry_phases} phases"
            ),
            DeployError::StateDimMismatch {
                policy_input,
                projector_output,
            } => write!(
                f,
                "policy expects {policy_input}-dimensional states but the feature \
                 projector produces {projector_output} dimensions"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

/// The deployed Phase Sequence Selector: a trained policy plus the fitted
/// PCA, driving the pass manager with the paper's §III-D rules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSequenceSelector {
    /// The trained policy network.
    pub policy: PolicyNet,
    /// The feature projection fitted during training.
    pub projector: FeatureProjector,
    /// Deployment limits (Table V).
    pub config: PssConfig,
}

impl PhaseSequenceSelector {
    /// Trains a selector with Algorithm 2.
    ///
    /// `projector` must already be fitted on the extraction dataset's
    /// features (the paper's "63 code features preprocessed by PCA with
    /// MLE"). Returns the selector and the per-batch learning curve.
    pub fn train(
        programs: &[BenchProgram],
        estimator: &PerfEstimator,
        projector: FeatureProjector,
        config: PssConfig,
        weights: RewardWeights,
    ) -> (PhaseSequenceSelector, Vec<TrainingStats>) {
        let mut env = CompilerEnv::new(
            programs,
            estimator,
            &projector,
            weights,
            config.max_inactive,
            config.seed ^ 0x5EED,
        );
        let mut policy = PolicyNet::new(
            projector.out_dim(),
            config.inner_size,
            registry::PHASE_COUNT,
            config.seed,
        );
        let trainer = ReinforceTrainer {
            episodes: config.episodes,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            gamma: config.gamma,
            max_steps: config.max_seq_len,
            entropy_bonus: 0.01,
            seed: config.seed ^ 0xF00D,
            ..ReinforceTrainer::default()
        };
        let mut span = trace::span("pss.train");
        let stats = trainer.train(&mut policy, &mut env);
        if span.is_recording() {
            span.field("episodes", config.episodes);
            span.field("programs", programs.len());
            if let Some(last) = stats.last() {
                span.field("final_mean_return", last.mean_return);
            }
        }
        drop(span);
        (
            PhaseSequenceSelector {
                policy,
                projector,
                config,
            },
            stats,
        )
    }

    /// Checks that the selector fits the environment it is deployed into:
    /// the policy's action space must match the phase registry and its
    /// input dimensionality must match the projector's output.
    ///
    /// [`optimize`](PhaseSequenceSelector::optimize) and
    /// [`select_from_features`](PhaseSequenceSelector::select_from_features)
    /// index [`registry::PHASE_NAMES`] with policy action indices, so a
    /// selector trained against a drifted registry must be rejected before
    /// it serves a single request.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] on a shape mismatch.
    pub fn validate_deployment(&self) -> Result<(), DeployError> {
        if self.policy.actions != registry::PHASE_COUNT {
            return Err(DeployError::ActionSpaceMismatch {
                policy_actions: self.policy.actions,
                registry_phases: registry::PHASE_COUNT,
            });
        }
        if self.policy.input_dim != self.projector.out_dim() {
            return Err(DeployError::StateDimMismatch {
                policy_input: self.policy.input_dim,
                projector_output: self.projector.out_dim(),
            });
        }
        Ok(())
    }

    /// Feature-only selection: answers "static features → phase sequence"
    /// without access to the module itself.
    ///
    /// This is the serving-time entry point (box ④ as a service): the
    /// caller extracted the 63 static features elsewhere and wants the
    /// policy's phase ordering. Without the module we cannot observe which
    /// phases are inactive, so the selector emits the policy's ranked
    /// phases for the projected state — the same candidate set
    /// [`optimize`](PhaseSequenceSelector::optimize) would try in its
    /// first round — truncated to the Table V limits
    /// (`max_inactive` candidates, at most `max_seq_len` phases).
    ///
    /// Deterministic: equal feature vectors always produce the identical
    /// sequence, the property the serving layer's cache relies on.
    pub fn select_from_features(&self, features: &[f64]) -> Vec<&'static str> {
        let state = self.projector.project(features);
        let ranked = self.policy.ranked_actions(&state);
        ranked
            .iter()
            .take(self.config.max_inactive.min(self.config.max_seq_len))
            .map(|&action| registry::PHASE_NAMES[action])
            .collect()
    }

    /// Deployment (§III-D): iteratively applies the most probable phase;
    /// when a phase leaves the module unchanged, falls back to the second,
    /// third, … best up to "max inactive subsequence length"; stops when
    /// the fallback budget is exhausted or the sequence reaches
    /// "max phase sequence length".
    ///
    /// An input that fails [`mlcomp_ir::verify`] runs no phase: it comes
    /// back unchanged with an empty sequence.
    pub fn optimize(&self, module: &Module) -> (Module, Vec<&'static str>) {
        let mut span = trace::span("pss.optimize");
        // One session for the whole call: a phase try copies the module
        // only after a try that changed it.
        let mut session = Sandbox::new(module.clone());
        let mut applied: Vec<&'static str> = Vec::new();
        // One check up front establishes `Sandbox::run_phase`'s
        // precondition for every phase below.
        let valid = mlcomp_ir::verify(module).is_ok();
        while valid && applied.len() < self.config.max_seq_len {
            let (module, cache) = session.analysed();
            let feats = mlcomp_features::extract_cached(module, cache);
            let state = self.projector.project(&feats.values);
            let ranked = self.policy.ranked_actions(&state);
            let mut progressed = false;
            for &action in ranked.iter().take(self.config.max_inactive) {
                let phase = registry::PHASE_NAMES[action];
                // Sandboxed: a quarantined phase rolls back and falls
                // through to the next-best action, exactly like an
                // inactive phase in the paper's fallback model.
                let outcome = session
                    .run_phase(phase, None, phase)
                    .expect("registry names are valid");
                if outcome == PhaseOutcome::Changed {
                    applied.push(phase);
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        if span.is_recording() {
            span.field("seq_len", applied.len());
        }
        drop(span);
        (session.into_module(), applied)
    }

    /// Serializes the selector to JSON — the reproduction's counterpart of
    /// the paper's TorchScript export.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Reloads a selector serialized with
    /// [`PhaseSequenceSelector::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<PhaseSequenceSelector, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::DataExtraction;
    use mlcomp_ml::search::ModelSearch;
    use mlcomp_platform::{Profiler, TargetPlatform, Workload, X86Platform};

    fn setup() -> (Vec<BenchProgram>, PerfEstimator, FeatureProjector) {
        let platform = X86Platform::new();
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips"].contains(&p.name))
            .collect();
        let ds = DataExtraction {
            variants_per_app: 10,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        let pe = PerfEstimator::train(&ds, &ModelSearch::quick()).unwrap();
        let projector = FeatureProjector::fit(&ds.features()).unwrap();
        (apps, pe, projector)
    }

    /// Single-row inference equals the one-row-matrix path it replaced,
    /// bit for bit, on the features of every suite program: the state
    /// projection and the four PE predictions.
    #[test]
    fn single_row_inference_matches_the_matrix_path_on_the_suites() {
        use mlcomp_linalg::Matrix;
        let (_, pe, projector) = setup();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let programs = mlcomp_suites::parsec_suite()
            .into_iter()
            .chain(mlcomp_suites::beebs_suite());
        for prog in programs {
            let feats = mlcomp_features::extract(&prog.module);
            let x = Matrix::from_vec_rows(vec![feats.values.clone()]);
            let want = projector.pca.transform(&projector.scaler.transform(&x));
            let got = projector.project(&feats.values);
            assert_eq!(bits(&got), bits(want.row(0)), "{}: state", prog.name);
            let want: Vec<f64> = mlcomp_platform::METRIC_NAMES
                .iter()
                .map(|metric| pe.predict_metric(&x, metric)[0])
                .collect();
            let got = pe.predict(&feats).as_array();
            assert_eq!(bits(&got), bits(&want), "{}: prediction", prog.name);
        }
    }

    #[test]
    fn reward_prefers_improvement_and_punishes_tradeoffs() {
        let w = RewardWeights::default();
        let base = DynamicFeatures {
            exec_time_s: 1.0,
            energy_j: 1.0,
            instructions: 100.0,
            code_size: 100.0,
        };
        let better = DynamicFeatures {
            exec_time_s: 0.9,
            ..base
        };
        let worse = DynamicFeatures {
            exec_time_s: 1.2,
            ..base
        };
        assert!(w.reward(&base, &better) > 0.0);
        assert!(w.reward(&base, &worse) < 0.0);
        // A mixed move (time down, energy up by the same fraction) nets
        // negative thanks to the Pareto penalty.
        let mixed = DynamicFeatures {
            exec_time_s: 0.9,
            energy_j: 1.1,
            ..base
        };
        assert!(w.reward(&base, &mixed) < w.reward(&base, &better));
        assert!(w.reward(&base, &mixed) < 0.0);
    }

    #[test]
    fn env_runs_episodes() {
        let (apps, pe, projector) = setup();
        let mut env = CompilerEnv::new(&apps, &pe, &projector, RewardWeights::default(), 4, 9);
        let s0 = env.reset();
        assert_eq!(s0.len(), projector.out_dim());
        // mem2reg is action index…
        let m2r = registry::PHASE_NAMES
            .iter()
            .position(|p| *p == "mem2reg")
            .unwrap();
        let (_s1, r1, done) = env.step(m2r);
        assert!(!done);
        assert!(
            r1 > 0.0,
            "mem2reg should be predicted as an improvement: {r1}"
        );
        // Re-running it is inactive.
        let (_s2, r2, _) = env.step(m2r);
        assert!(r2 <= 0.0);
    }

    #[test]
    fn every_step_state_matches_a_fresh_observation() {
        let (apps, pe, projector) = setup();
        let mut env = CompilerEnv::new(&apps, &pe, &projector, RewardWeights::default(), 8, 3);
        let bits = |state: &[f64]| -> Vec<u64> { state.iter().map(|v| v.to_bits()).collect() };
        let module = |env: &CompilerEnv| env.session.as_ref().expect("reset").module().clone();
        let fresh = |env: &CompilerEnv| {
            let module = module(env);
            bits(&projector.project(&mlcomp_features::extract(&module).values))
        };
        let s0 = env.reset();
        assert_eq!(bits(&s0), fresh(&env));
        let mut inactive = 0;
        for action in 0..registry::PHASE_COUNT {
            let before = module(&env);
            let (state, _, done) = env.step(action);
            if module(&env) == before {
                inactive += 1;
            }
            assert_eq!(
                bits(&state),
                fresh(&env),
                "after `{}`",
                registry::PHASE_NAMES[action]
            );
            if done {
                env.reset();
            }
        }
        assert!(inactive > 0, "the walk must include inactive steps");
    }

    #[test]
    fn optimize_returns_an_invalid_input_untouched() {
        let programs = mlcomp_suites::parsec_suite();
        let rows = programs
            .iter()
            .map(|p| mlcomp_features::extract(&p.module).values)
            .collect();
        let projector = FeatureProjector::fit(&mlcomp_linalg::Matrix::from_vec_rows(rows)).unwrap();
        let selector = PhaseSequenceSelector {
            policy: PolicyNet::new(projector.out_dim(), 4, registry::PHASE_COUNT, 7),
            projector,
            config: PssConfig::quick(),
        };
        // `main` declares an `i64` result but returns nothing; its stack
        // slot would otherwise give `mem2reg` work.
        let mut mb = mlcomp_ir::ModuleBuilder::new("bad");
        mb.begin_function("main", vec![mlcomp_ir::Type::I64], mlcomp_ir::Type::I64);
        {
            let mut b = mb.body();
            let slot = b.local(b.param(0));
            b.load(slot, mlcomp_ir::Type::I64);
            b.ret(None);
        }
        mb.finish_function();
        let bad = mb.build();
        assert!(mlcomp_ir::verify(&bad).is_err());
        let (out, phases) = selector.optimize(&bad);
        assert!(phases.is_empty(), "{phases:?}");
        assert_eq!(out, bad);
        // The same selector does apply phases to a valid program.
        assert!(!selector.optimize(&programs[0].module).1.is_empty());
    }

    #[test]
    fn trained_selector_improves_programs() {
        let (apps, pe, projector) = setup();
        let cfg = PssConfig::quick();
        let (selector, stats) =
            PhaseSequenceSelector::train(&apps, &pe, projector, cfg, RewardWeights::default());
        assert!(!stats.is_empty());
        let platform = X86Platform::new();
        let profiler = Profiler::new(&platform);
        let mut base_total = 0.0;
        let mut tuned_total = 0.0;
        for app in &apps {
            let (opt, phases) = selector.optimize(&app.module);
            assert!(!phases.is_empty(), "{} got no phases", app.name);
            assert!(phases.len() <= selector.config.max_seq_len);
            mlcomp_ir::verify(&opt).unwrap();
            let w = Workload::new(app.entry, app.default_args());
            let base = profiler.profile(&app.module, &w).unwrap();
            let tuned = profiler.profile(&opt, &w).unwrap();
            assert!(
                tuned.exec_time_s <= base.exec_time_s * 1.02,
                "{}: {} → {}",
                app.name,
                base.exec_time_s,
                tuned.exec_time_s
            );
            base_total += base.exec_time_s;
            tuned_total += tuned.exec_time_s;
            let _ = platform.name();
        }
        assert!(
            tuned_total < base_total,
            "suite total should improve: {tuned_total} vs {base_total}"
        );
    }

    #[test]
    fn deployment_validation_rejects_registry_drift() {
        let (apps, pe, projector) = setup();
        let (mut selector, _) = PhaseSequenceSelector::train(
            &apps,
            &pe,
            projector,
            PssConfig {
                episodes: 8,
                ..PssConfig::quick()
            },
            RewardWeights::default(),
        );
        selector.validate_deployment().unwrap();

        // A policy trained against a smaller registry (fewer actions) must
        // be rejected — its indices would silently name the wrong phases.
        let good_dim = selector.policy.input_dim;
        selector.policy = PolicyNet::new(good_dim, 4, registry::PHASE_COUNT - 1, 7);
        assert_eq!(
            selector.validate_deployment(),
            Err(DeployError::ActionSpaceMismatch {
                policy_actions: registry::PHASE_COUNT - 1,
                registry_phases: registry::PHASE_COUNT,
            })
        );

        // A policy with the right action count but the wrong state size is
        // also undeployable.
        selector.policy = PolicyNet::new(good_dim + 1, 4, registry::PHASE_COUNT, 7);
        assert!(matches!(
            selector.validate_deployment(),
            Err(DeployError::StateDimMismatch { .. })
        ));
        let msg = selector.validate_deployment().unwrap_err().to_string();
        assert!(msg.contains("dimension"), "{msg}");
    }

    #[test]
    fn select_from_features_is_deterministic_and_bounded() {
        let (apps, pe, projector) = setup();
        let (selector, _) = PhaseSequenceSelector::train(
            &apps,
            &pe,
            projector,
            PssConfig {
                episodes: 8,
                ..PssConfig::quick()
            },
            RewardWeights::default(),
        );
        let feats = mlcomp_features::extract(&apps[0].module);
        let a = selector.select_from_features(&feats.values);
        let b = selector.select_from_features(&feats.values);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.len() <= selector.config.max_inactive);
        for phase in &a {
            assert!(registry::is_registered(phase));
        }
        // No duplicate phases: ranked_actions is a permutation.
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());

        // Serving contract: the served phases are `optimize`'s first-round
        // candidates, so its first applied phase is the first served phase
        // that changes the module, and it applies nothing if none does.
        let pm = mlcomp_passes::PassManager::new();
        let mut programs = mlcomp_suites::parsec_suite();
        programs.extend(mlcomp_suites::beebs_suite());
        assert_eq!(programs.len(), 37, "all suite programs are checked");
        for program in &programs {
            let module = &program.module;
            let served = selector.select_from_features(&mlcomp_features::extract(module).values);
            let first_changing = served.iter().copied().find(|&phase| {
                let outcome = pm
                    .run_phase_sandboxed(&mut module.clone(), phase, None, phase)
                    .expect("registry names are valid");
                outcome == PhaseOutcome::Changed
            });
            let (_, applied) = selector.optimize(module);
            assert_eq!(applied.first().copied(), first_changing, "{}", program.name);
        }
    }

    #[test]
    fn selector_serialization_roundtrip() {
        let (apps, pe, projector) = setup();
        let (selector, _) = PhaseSequenceSelector::train(
            &apps,
            &pe,
            projector,
            PssConfig {
                episodes: 12,
                ..PssConfig::quick()
            },
            RewardWeights::default(),
        );
        let json = selector.to_json().unwrap();
        let back = PhaseSequenceSelector::from_json(&json).unwrap();
        let (_, p1) = selector.optimize(&apps[0].module);
        let (_, p2) = back.optimize(&apps[0].module);
        assert_eq!(p1, p2, "reloaded selector decides identically");
    }
}
