//! REINFORCE training (the paper's Algorithm 2): batches of episodes,
//! discounted returns, batch-mean baseline, policy-gradient ascent.
//!
//! Training is guarded against a misbehaving environment or estimator:
//! episodes that produce a non-finite reward or state are aborted and
//! counted (not trained on), gradient updates whose components are
//! non-finite are dropped, and finite gradients are clipped to an L2-norm
//! ceiling ([`ReinforceTrainer::grad_clip`]) so one pathological batch
//! cannot blow up the policy weights. Healthy runs are unaffected: the
//! guards only reject values that would already have poisoned the policy.

use crate::policy::{sample_index_detailed, EntropyTerm, Forward, PolicyNet};
use mlcomp_trace as trace;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// An episodic environment with a fixed-dimensional observation and a
/// discrete action set.
pub trait Env {
    /// Observation dimensionality.
    fn state_dim(&self) -> usize;
    /// Number of discrete actions.
    fn action_count(&self) -> usize;
    /// Starts a new episode, returning the initial observation.
    fn reset(&mut self) -> Vec<f64>;
    /// Applies an action; returns `(next_state, reward, done)`.
    fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool);
}

/// Why an episode was aborted instead of trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// The environment returned a NaN or infinite reward.
    NonFiniteReward,
    /// The environment returned a state with a NaN or infinite component.
    NonFiniteState,
    /// The softmax degenerated and sampling fell back to a uniform pick,
    /// so the episode's actions no longer reflect the policy.
    SamplingFallback,
}

impl AbortCause {
    /// The trace counter this cause bumps.
    fn counter(self) -> &'static str {
        match self {
            AbortCause::NonFiniteReward => "rl.abort.non_finite_reward",
            AbortCause::NonFiniteState => "rl.abort.non_finite_state",
            AbortCause::SamplingFallback => "rl.abort.sampling_fallback",
        }
    }
}

/// Aborted episodes, counted per [`AbortCause`] (indexed by variant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; 3]);

impl AbortCounts {
    /// Episodes aborted for `cause`.
    pub fn get(&self, cause: AbortCause) -> u64 {
        self.0[cause as usize]
    }

    /// Episodes aborted for any cause.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn record(&mut self, cause: AbortCause) {
        self.0[cause as usize] += 1;
    }
}

/// Per-batch statistics emitted during training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingStats {
    /// Episodes completed so far.
    pub episodes: usize,
    /// Mean undiscounted episode return in the batch (over episodes that
    /// completed; 0 when every episode aborted).
    pub mean_return: f64,
    /// Mean episode length in the batch (over episodes that completed).
    pub mean_length: f64,
    /// Episodes in the batch aborted instead of trained on, per cause.
    pub aborts: AbortCounts,
}

/// The REINFORCE trainer with Table V's hyper-parameters as defaults
/// (512 episodes, batch 6, learning rate 0.1).
#[derive(Debug, Clone)]
pub struct ReinforceTrainer {
    /// Total training episodes (`num_episodes`).
    pub episodes: usize,
    /// Episodes per policy update (`batch_size`).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Discount factor for returns.
    pub gamma: f64,
    /// Cap on episode length (safety; the env usually terminates first).
    pub max_steps: usize,
    /// Entropy-bonus coefficient: keeps the softmax from collapsing onto a
    /// few actions before the reward signal is trustworthy (0 disables).
    pub entropy_bonus: f64,
    /// L2-norm ceiling on each batch gradient; larger gradients are scaled
    /// down to it (0 disables clipping). The generous default never
    /// triggers on healthy training and exists to stop runaway updates.
    pub grad_clip: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for ReinforceTrainer {
    fn default() -> Self {
        ReinforceTrainer {
            episodes: 512,
            batch_size: 6,
            learning_rate: 0.1,
            gamma: 0.99,
            max_steps: 128,
            entropy_bonus: 0.01,
            grad_clip: 100.0,
            seed: 1234,
        }
    }
}

impl ReinforceTrainer {
    /// Trains `policy` on `env`, returning per-batch statistics.
    pub fn train(&self, policy: &mut PolicyNet, env: &mut dyn Env) -> Vec<TrainingStats> {
        assert_eq!(
            policy.input_dim,
            env.state_dim(),
            "policy/env state mismatch"
        );
        assert_eq!(
            policy.actions,
            env.action_count(),
            "policy/env action mismatch"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let tracing = trace::enabled();
        let mut train_span = trace::span("rl.train");
        if train_span.is_recording() {
            train_span.field("episodes", self.episodes);
            train_span.field("batch_size", self.batch_size);
        }
        let mut stats = Vec::new();
        let mut episode_count = 0usize;
        let mut table = ForwardTable::default();
        while episode_count < self.episodes {
            let batch = self.batch_size.min(self.episodes - episode_count);
            // The policy changes only between batches.
            table.clear();
            // Collect a batch of episodes: each step as (forward in the
            // table, action, return).
            let mut all_steps: Vec<(usize, usize, f64)> = Vec::new();
            let mut batch_return = 0.0;
            let mut batch_len = 0.0;
            let mut completed = 0usize;
            let mut aborts = AbortCounts::default();
            for ep_in_batch in 0..batch {
                let episode_idx = episode_count + ep_in_batch;
                let mut state = env.reset();
                let mut rewards: Vec<f64> = Vec::new();
                let mut steps: Vec<(usize, usize)> = Vec::new();
                let mut entropy_sum = 0.0;
                let mut abort_reason = if state.iter().all(|v| v.is_finite()) {
                    None
                } else {
                    Some(AbortCause::NonFiniteState)
                };
                if abort_reason.is_none() {
                    for _ in 0..self.max_steps {
                        let f = table.forward(policy, &state);
                        let probs = table.forwards[f].probs();
                        let (action, fallback) =
                            sample_index_detailed(probs, rng.gen_range(0.0..1.0));
                        if fallback {
                            // The softmax degenerated (NaN / all-zero probs):
                            // the uniform fallback keeps sampling total, but
                            // the episode's actions no longer reflect the
                            // policy, so it is not trained on.
                            abort_reason = Some(AbortCause::SamplingFallback);
                            break;
                        }
                        let (next, reward, done) = env.step(action);
                        if !reward.is_finite() {
                            // A NaN/inf reward or state would poison every
                            // return of the episode; abort it and move on.
                            abort_reason = Some(AbortCause::NonFiniteReward);
                            break;
                        }
                        if !next.iter().all(|v| v.is_finite()) {
                            abort_reason = Some(AbortCause::NonFiniteState);
                            break;
                        }
                        if tracing {
                            entropy_sum += probs
                                .iter()
                                .filter(|p| **p > 0.0)
                                .map(|p| -p * p.ln())
                                .sum::<f64>();
                        }
                        steps.push((f, action));
                        rewards.push(reward);
                        state = next;
                        if done {
                            break;
                        }
                    }
                }
                if let Some(cause) = abort_reason {
                    aborts.record(cause);
                    if tracing {
                        trace::counter(cause.counter(), 1);
                    }
                    continue;
                }
                completed += 1;
                let ep_return = rewards.iter().sum::<f64>();
                if tracing {
                    trace::point("rl.return", episode_idx as f64, ep_return);
                    if !steps.is_empty() {
                        trace::point(
                            "rl.entropy",
                            episode_idx as f64,
                            entropy_sum / steps.len() as f64,
                        );
                    }
                }
                batch_return += ep_return;
                batch_len += rewards.len() as f64;
                // Discounted returns G_t.
                let mut g = 0.0;
                let mut returns = vec![0.0; rewards.len()];
                for t in (0..rewards.len()).rev() {
                    g = rewards[t] + self.gamma * g;
                    returns[t] = g;
                }
                for ((f, action), ret) in steps.into_iter().zip(returns) {
                    all_steps.push((f, action, ret));
                }
            }
            episode_count += batch;
            if !all_steps.is_empty() {
                // Baseline: batch-mean return (variance reduction).
                let baseline =
                    all_steps.iter().map(|(_, _, g)| g).sum::<f64>() / all_steps.len() as f64;
                let mut grads = vec![0.0; policy.param_count()];
                let scale = 1.0 / all_steps.len() as f64;
                let entropy_beta = (self.entropy_bonus > 0.0).then_some(self.entropy_bonus * scale);
                for &(f, action, g) in &all_steps {
                    let (fwd, entropy) = table.step_terms(policy, f, entropy_beta);
                    policy.accumulate_cached_step_gradient(
                        fwd,
                        action,
                        (g - baseline) * scale,
                        entropy,
                        &mut grads,
                    );
                }
                if grads.iter().all(|g| g.is_finite()) {
                    if self.grad_clip > 0.0 {
                        let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
                        if norm > self.grad_clip {
                            let shrink = self.grad_clip / norm;
                            for g in grads.iter_mut() {
                                *g *= shrink;
                            }
                        }
                    }
                    policy.apply_gradients(&grads, self.learning_rate);
                }
                // Non-finite gradients are dropped whole: losing one update
                // is recoverable, poisoned weights are not.
            }
            let s = TrainingStats {
                episodes: episode_count,
                mean_return: if completed > 0 {
                    batch_return / completed as f64
                } else {
                    0.0
                },
                mean_length: if completed > 0 {
                    batch_len / completed as f64
                } else {
                    0.0
                },
                aborts,
            };
            if tracing {
                trace::point("rl.mean_return", s.episodes as f64, s.mean_return);
            }
            stats.push(s);
        }
        if train_span.is_recording() {
            train_span.field("forwards", table.computed);
        }
        stats
    }
}

/// One batch's distinct forward passes, keyed by the bits of their state,
/// and the entropy term of each, computed when a step first needs it.
///
/// The policy is fixed within a batch, so bit-equal states give bit-equal
/// forwards, and β is fixed too, so one entropy term serves every step on
/// a forward: reusing them changes no bit of the gradient. Episodes
/// revisit states often (an inactive phase leaves the module as it was).
#[derive(Default)]
struct ForwardTable {
    index: HashMap<Box<[u64]>, usize>,
    forwards: Vec<Forward>,
    entropy: Vec<Option<EntropyTerm>>,
    /// The key of the latest lookup, kept to avoid an allocation per step.
    key: Vec<u64>,
    /// Forward passes computed, over all batches.
    computed: usize,
}

impl ForwardTable {
    /// The index of `state`'s forward pass, run on a state not seen yet.
    fn forward(&mut self, policy: &PolicyNet, state: &[f64]) -> usize {
        self.key.clear();
        self.key.extend(state.iter().map(|v| v.to_bits()));
        if let Some(&f) = self.index.get(self.key.as_slice()) {
            return f;
        }
        let f = self.forwards.len();
        self.computed += 1;
        self.forwards.push(policy.forward(state));
        self.entropy.push(None);
        self.index.insert(self.key.as_slice().into(), f);
        f
    }

    /// Forward `f` and, given β, its entropy term. β must be the same on
    /// every call between two [`clear`](Self::clear)s.
    fn step_terms(
        &mut self,
        policy: &PolicyNet,
        f: usize,
        entropy_beta: Option<f64>,
    ) -> (&Forward, Option<&EntropyTerm>) {
        let fwd = &self.forwards[f];
        let entropy = match entropy_beta {
            Some(beta) => {
                Some(&*self.entropy[f].get_or_insert_with(|| policy.entropy_term(fwd, beta)))
            }
            None => None,
        };
        (fwd, entropy)
    }

    /// Forgets the batch's forwards, for a changed policy.
    fn clear(&mut self) {
        self.index.clear();
        self.forwards.clear();
        self.entropy.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trainer before it shared forwards and entropy terms within a
    /// batch.
    mod oracle {
        use super::super::*;

        /// The training loop before it shared forwards and entropy terms:
        /// one forward pass and one one-shot step gradient per step.
        pub fn train(
            trainer: &ReinforceTrainer,
            policy: &mut PolicyNet,
            env: &mut dyn Env,
        ) -> Vec<TrainingStats> {
            assert_eq!(
                policy.input_dim,
                env.state_dim(),
                "policy/env state mismatch"
            );
            assert_eq!(
                policy.actions,
                env.action_count(),
                "policy/env action mismatch"
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(trainer.seed);
            let tracing = trace::enabled();
            let mut train_span = trace::span("rl.train");
            if train_span.is_recording() {
                train_span.field("episodes", trainer.episodes);
                train_span.field("batch_size", trainer.batch_size);
            }
            let mut stats = Vec::new();
            let mut episode_count = 0usize;
            while episode_count < trainer.episodes {
                let batch = trainer.batch_size.min(trainer.episodes - episode_count);
                // Collect a batch of episodes.
                let mut all_steps: Vec<(crate::policy::Forward, usize, f64)> = Vec::new();
                let mut batch_return = 0.0;
                let mut batch_len = 0.0;
                let mut completed = 0usize;
                let mut aborts = AbortCounts::default();
                for ep_in_batch in 0..batch {
                    let episode_idx = episode_count + ep_in_batch;
                    let mut state = env.reset();
                    let mut rewards: Vec<f64> = Vec::new();
                    let mut steps: Vec<(crate::policy::Forward, usize)> = Vec::new();
                    let mut entropy_sum = 0.0;
                    let mut abort_reason = if state.iter().all(|v| v.is_finite()) {
                        None
                    } else {
                        Some(AbortCause::NonFiniteState)
                    };
                    if abort_reason.is_none() {
                        for _ in 0..trainer.max_steps {
                            let fwd = policy.forward(&state);
                            let (action, fallback) =
                                sample_index_detailed(fwd.probs(), rng.gen_range(0.0..1.0));
                            if fallback {
                                // The softmax degenerated (NaN / all-zero probs):
                                // the uniform fallback keeps sampling total, but
                                // the episode's actions no longer reflect the
                                // policy, so it is not trained on.
                                abort_reason = Some(AbortCause::SamplingFallback);
                                break;
                            }
                            let (next, reward, done) = env.step(action);
                            if !reward.is_finite() {
                                // A NaN/inf reward or state would poison every
                                // return of the episode; abort it and move on.
                                abort_reason = Some(AbortCause::NonFiniteReward);
                                break;
                            }
                            if !next.iter().all(|v| v.is_finite()) {
                                abort_reason = Some(AbortCause::NonFiniteState);
                                break;
                            }
                            if tracing {
                                entropy_sum += fwd
                                    .probs()
                                    .iter()
                                    .filter(|p| **p > 0.0)
                                    .map(|p| -p * p.ln())
                                    .sum::<f64>();
                            }
                            steps.push((fwd, action));
                            rewards.push(reward);
                            state = next;
                            if done {
                                break;
                            }
                        }
                    }
                    if let Some(cause) = abort_reason {
                        aborts.record(cause);
                        if tracing {
                            trace::counter(cause.counter(), 1);
                        }
                        continue;
                    }
                    completed += 1;
                    let ep_return = rewards.iter().sum::<f64>();
                    if tracing {
                        trace::point("rl.return", episode_idx as f64, ep_return);
                        if !steps.is_empty() {
                            trace::point(
                                "rl.entropy",
                                episode_idx as f64,
                                entropy_sum / steps.len() as f64,
                            );
                        }
                    }
                    batch_return += ep_return;
                    batch_len += rewards.len() as f64;
                    // Discounted returns G_t.
                    let mut g = 0.0;
                    let mut returns = vec![0.0; rewards.len()];
                    for t in (0..rewards.len()).rev() {
                        g = rewards[t] + trainer.gamma * g;
                        returns[t] = g;
                    }
                    for ((fwd, action), ret) in steps.into_iter().zip(returns) {
                        all_steps.push((fwd, action, ret));
                    }
                }
                episode_count += batch;
                if !all_steps.is_empty() {
                    // Baseline: batch-mean return (variance reduction).
                    let baseline =
                        all_steps.iter().map(|(_, _, g)| g).sum::<f64>() / all_steps.len() as f64;
                    let mut grads = vec![0.0; policy.param_count()];
                    let scale = 1.0 / all_steps.len() as f64;
                    let entropy_beta =
                        (trainer.entropy_bonus > 0.0).then_some(trainer.entropy_bonus * scale);
                    for (fwd, action, g) in &all_steps {
                        policy.accumulate_step_gradient(
                            fwd,
                            *action,
                            (g - baseline) * scale,
                            entropy_beta,
                            &mut grads,
                        );
                    }
                    if grads.iter().all(|g| g.is_finite()) {
                        if trainer.grad_clip > 0.0 {
                            let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
                            if norm > trainer.grad_clip {
                                let shrink = trainer.grad_clip / norm;
                                for g in grads.iter_mut() {
                                    *g *= shrink;
                                }
                            }
                        }
                        policy.apply_gradients(&grads, trainer.learning_rate);
                    }
                    // Non-finite gradients are dropped whole: losing one update
                    // is recoverable, poisoned weights are not.
                }
                let s = TrainingStats {
                    episodes: episode_count,
                    mean_return: if completed > 0 {
                        batch_return / completed as f64
                    } else {
                        0.0
                    },
                    mean_length: if completed > 0 {
                        batch_len / completed as f64
                    } else {
                        0.0
                    },
                    aborts,
                };
                if tracing {
                    trace::point("rl.mean_return", s.episodes as f64, s.mean_return);
                }
                stats.push(s);
            }
            stats
        }
    }

    /// A contextual bandit: the best arm depends on the (binary) state.
    struct ContextBandit {
        state: f64,
        pulls: u32,
        flip: bool,
    }

    impl Env for ContextBandit {
        fn state_dim(&self) -> usize {
            1
        }
        fn action_count(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.flip = !self.flip;
            self.state = if self.flip { 1.0 } else { -1.0 };
            self.pulls = 0;
            vec![self.state]
        }
        fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
            self.pulls += 1;
            // State +1 → arm 0 pays; state −1 → arm 1 pays.
            let pay = if (self.state > 0.0 && action == 0) || (self.state < 0.0 && action == 1) {
                1.0
            } else {
                0.0
            };
            (vec![self.state], pay, self.pulls >= 3)
        }
    }

    #[test]
    fn learns_context_dependent_actions() {
        let mut policy = PolicyNet::new(1, 16, 2, 5);
        let trainer = ReinforceTrainer {
            episodes: 600,
            batch_size: 6,
            learning_rate: 0.1,
            ..Default::default()
        };
        let mut env = ContextBandit {
            state: 1.0,
            pulls: 0,
            flip: false,
        };
        let stats = trainer.train(&mut policy, &mut env);
        assert!(!stats.is_empty());
        assert_eq!(policy.best_action(&[1.0]), 0);
        assert_eq!(policy.best_action(&[-1.0]), 1);
        // Returns improved over training.
        let first: f64 = stats[..10].iter().map(|s| s.mean_return).sum::<f64>() / 10.0;
        let last: f64 = stats[stats.len() - 10..]
            .iter()
            .map(|s| s.mean_return)
            .sum::<f64>()
            / 10.0;
        assert!(
            last > first + 0.3,
            "returns should rise: {first:.2} → {last:.2}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let mk = || {
            let mut policy = PolicyNet::new(1, 16, 2, 5);
            let trainer = ReinforceTrainer {
                episodes: 60,
                ..Default::default()
            };
            let mut env = ContextBandit {
                state: 1.0,
                pulls: 0,
                flip: false,
            };
            trainer.train(&mut policy, &mut env);
            policy
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn episode_budget_is_respected() {
        let mut policy = PolicyNet::new(1, 16, 2, 5);
        let trainer = ReinforceTrainer {
            episodes: 10,
            batch_size: 4,
            ..Default::default()
        };
        let mut env = ContextBandit {
            state: 1.0,
            pulls: 0,
            flip: false,
        };
        let stats = trainer.train(&mut policy, &mut env);
        assert_eq!(stats.last().unwrap().episodes, 10);
        // Batches of 4, 4, 2.
        assert_eq!(stats.len(), 3);
    }

    #[test]
    #[should_panic(expected = "action mismatch")]
    fn mismatched_env_panics() {
        let mut policy = PolicyNet::new(1, 16, 5, 0);
        let mut env = ContextBandit {
            state: 1.0,
            pulls: 0,
            flip: false,
        };
        ReinforceTrainer::default().train(&mut policy, &mut env);
    }

    /// Wraps [`ContextBandit`] but poisons every `poison_every`-th episode
    /// with a NaN reward.
    struct FlakyBandit {
        inner: ContextBandit,
        episode: u32,
        poison_every: u32,
    }

    impl Env for FlakyBandit {
        fn state_dim(&self) -> usize {
            self.inner.state_dim()
        }
        fn action_count(&self) -> usize {
            self.inner.action_count()
        }
        fn reset(&mut self) -> Vec<f64> {
            self.episode += 1;
            self.inner.reset()
        }
        fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
            let (s, r, d) = self.inner.step(action);
            if self.episode.is_multiple_of(self.poison_every) {
                (s, f64::NAN, d)
            } else {
                (s, r, d)
            }
        }
    }

    #[test]
    fn nan_rewards_abort_episodes_but_training_continues() {
        let mut policy = PolicyNet::new(1, 16, 2, 5);
        let trainer = ReinforceTrainer {
            episodes: 600,
            ..Default::default()
        };
        let mut env = FlakyBandit {
            inner: ContextBandit {
                state: 1.0,
                pulls: 0,
                flip: false,
            },
            episode: 0,
            poison_every: 5,
        };
        let stats = trainer.train(&mut policy, &mut env);
        let aborted: u64 = stats.iter().map(|s| s.aborts.total()).sum();
        assert!(
            aborted >= 600 / 5 - 1,
            "every 5th episode aborts: {aborted}"
        );
        let nan_aborts: u64 = stats
            .iter()
            .map(|s| s.aborts.get(AbortCause::NonFiniteReward))
            .sum();
        assert_eq!(nan_aborts, aborted, "only NaN rewards abort here");
        // Training still learns the contextual rule from the healthy 80%.
        assert_eq!(policy.best_action(&[1.0]), 0);
        assert_eq!(policy.best_action(&[-1.0]), 1);
        assert!(policy.probabilities(&[1.0]).iter().all(|p| p.is_finite()));
    }

    #[test]
    fn fully_poisoned_env_leaves_policy_untouched() {
        struct NanEnv;
        impl Env for NanEnv {
            fn state_dim(&self) -> usize {
                1
            }
            fn action_count(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _action: usize) -> (Vec<f64>, f64, bool) {
                (vec![0.0], f64::NAN, false)
            }
        }
        let mut policy = PolicyNet::new(1, 16, 2, 5);
        let before = policy.clone();
        let trainer = ReinforceTrainer {
            episodes: 12,
            ..Default::default()
        };
        let stats = trainer.train(&mut policy, &mut NanEnv);
        assert_eq!(policy, before, "no update from aborted episodes");
        assert_eq!(stats.last().unwrap().episodes, 12);
        assert!(stats.iter().all(|s| s.aborts.total() == 6));
        assert!(stats.iter().all(|s| s.mean_return == 0.0));
        assert!(
            stats
                .iter()
                .all(|s| s.aborts.get(AbortCause::NonFiniteReward) == 6),
            "every abort stems from the NaN reward"
        );
    }

    #[test]
    fn non_finite_initial_state_is_classified() {
        struct BadResetEnv;
        impl Env for BadResetEnv {
            fn state_dim(&self) -> usize {
                1
            }
            fn action_count(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![f64::INFINITY]
            }
            fn step(&mut self, _action: usize) -> (Vec<f64>, f64, bool) {
                (vec![0.0], 0.0, true)
            }
        }
        let mut policy = PolicyNet::new(1, 16, 2, 5);
        let trainer = ReinforceTrainer {
            episodes: 6,
            ..Default::default()
        };
        let stats = trainer.train(&mut policy, &mut BadResetEnv);
        assert!(stats
            .iter()
            .all(|s| s.aborts.get(AbortCause::NonFiniteState) == 6 && s.aborts.total() == 6));
    }

    #[test]
    fn gradient_clipping_bounds_the_update() {
        let mk = |clip: f64| {
            let mut policy = PolicyNet::new(1, 16, 2, 5);
            let trainer = ReinforceTrainer {
                episodes: 12,
                grad_clip: clip,
                ..Default::default()
            };
            let mut env = ContextBandit {
                state: 1.0,
                pulls: 0,
                flip: false,
            };
            trainer.train(&mut policy, &mut env);
            policy
        };
        let frozen = mk(1e-12);
        let trained = mk(0.0); // clipping disabled
                               // A near-zero clip freezes learning; disabled clipping moves the
                               // policy — i.e. the ceiling really bounds the applied update.
        let init = PolicyNet::new(1, 16, 2, 5);
        let (pi, pf, pt) = (
            init.probabilities(&[1.0]),
            frozen.probabilities(&[1.0]),
            trained.probabilities(&[1.0]),
        );
        for (a, b) in pi.iter().zip(&pf) {
            assert!((a - b).abs() < 1e-9, "clipped to ~0: {a} vs {b}");
        }
        assert!(
            pi.iter().zip(&pt).any(|(a, b)| (a - b).abs() > 1e-6),
            "unclipped training must move the policy"
        );
    }

    /// A walk on a line from 0: action 0 stays (the state repeats), 1
    /// steps right, 2 steps left; the reward grows near position 2. The
    /// last component alternates between 0.0 and −0.0, equal values of
    /// different bits.
    struct Walk {
        pos: f64,
        steps: u32,
    }

    impl Env for Walk {
        fn state_dim(&self) -> usize {
            3
        }
        fn action_count(&self) -> usize {
            3
        }
        fn reset(&mut self) -> Vec<f64> {
            self.pos = 0.0;
            self.steps = 0;
            self.state()
        }
        fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
            self.steps += 1;
            self.pos += [0.0, 1.0, -1.0][action];
            (self.state(), -(self.pos - 2.0).abs(), self.steps >= 6)
        }
    }

    impl Walk {
        fn state(&self) -> Vec<f64> {
            let sign = if self.steps.is_multiple_of(2) {
                0.0
            } else {
                -0.0
            };
            vec![self.pos, self.pos * self.pos / 4.0, sign]
        }
    }

    /// Trains a fresh policy with the trainer and with the oracle, each on
    /// its own `make()`, and requires bit-equal policies and statistics.
    fn assert_matches_the_oracle<'a>(
        what: &str,
        trainer: &ReinforceTrainer,
        make: impl Fn() -> Box<dyn Env + 'a>,
    ) {
        let env = make();
        let mut policy = PolicyNet::new(env.state_dim(), 16, env.action_count(), 5);
        let mut want_policy = policy.clone();
        let stats = trainer.train(&mut policy, &mut *make());
        let want = oracle::train(trainer, &mut want_policy, &mut *make());
        assert_eq!(format!("{stats:?}"), format!("{want:?}"), "{what}: stats");
        assert_eq!(
            serde_json::to_string(&policy).unwrap(),
            serde_json::to_string(&want_policy).unwrap(),
            "{what}: policy"
        );
    }

    #[test]
    fn training_matches_the_oracle_on_the_bandits() {
        struct NanEnv;
        impl Env for NanEnv {
            fn state_dim(&self) -> usize {
                1
            }
            fn action_count(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _action: usize) -> (Vec<f64>, f64, bool) {
                (vec![0.0], f64::NAN, false)
            }
        }
        let bandit = || ContextBandit {
            state: 1.0,
            pulls: 0,
            flip: false,
        };
        let trainer = |episodes, entropy_bonus, grad_clip| ReinforceTrainer {
            episodes,
            entropy_bonus,
            grad_clip,
            ..Default::default()
        };
        let on = ReinforceTrainer::default().entropy_bonus;
        for (what, entropy) in [("entropy on", on), ("entropy off", 0.0)] {
            assert_matches_the_oracle(what, &trainer(120, entropy, 100.0), || Box::new(bandit()));
            assert_matches_the_oracle(what, &trainer(120, entropy, 100.0), || {
                Box::new(Walk { pos: 0.0, steps: 0 })
            });
            assert_matches_the_oracle(what, &trainer(120, entropy, 100.0), || {
                Box::new(FlakyBandit {
                    inner: bandit(),
                    episode: 0,
                    poison_every: 5,
                })
            });
            assert_matches_the_oracle(what, &trainer(12, entropy, 100.0), || Box::new(NanEnv));
            for clip in [1e-12, 0.0, 0.05] {
                assert_matches_the_oracle(what, &trainer(36, entropy, clip), || Box::new(bandit()));
            }
        }
    }

    /// Quick PSS training over `dedup`/`vips`/`blackscholes`, set up as
    /// `PhaseSequenceSelector::train` sets it up, against the oracle.
    #[test]
    fn training_matches_the_oracle_on_quick_pss() {
        use mlcomp::core::{
            CompilerEnv, DataExtraction, FeatureProjector, PerfEstimator, PssConfig, RewardWeights,
        };
        /// The facade's `CompilerEnv` implements the `Env` of the library
        /// build of this crate, a trait apart from this test build's.
        struct Compiler<'a>(CompilerEnv<'a>);
        impl Env for Compiler<'_> {
            fn state_dim(&self) -> usize {
                mlcomp::rl::Env::state_dim(&self.0)
            }
            fn action_count(&self) -> usize {
                mlcomp::rl::Env::action_count(&self.0)
            }
            fn reset(&mut self) -> Vec<f64> {
                mlcomp::rl::Env::reset(&mut self.0)
            }
            fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
                mlcomp::rl::Env::step(&mut self.0, action)
            }
        }
        let apps: Vec<_> = mlcomp::suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips", "blackscholes"].contains(&p.name))
            .collect();
        let dataset = DataExtraction::quick()
            .run(&mlcomp::platform::X86Platform::new(), &apps)
            .unwrap();
        let estimator =
            PerfEstimator::train(&dataset, &mlcomp::ml::search::ModelSearch::quick()).unwrap();
        let projector = FeatureProjector::fit(&dataset.features()).unwrap();
        let config = PssConfig::quick();
        let trainer = ReinforceTrainer {
            episodes: config.episodes,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            gamma: config.gamma,
            max_steps: config.max_seq_len,
            seed: config.seed ^ 0xF00D,
            ..ReinforceTrainer::default()
        };
        for entropy_bonus in [trainer.entropy_bonus, 0.0] {
            let trainer = ReinforceTrainer {
                entropy_bonus,
                ..trainer.clone()
            };
            assert_matches_the_oracle(&format!("entropy {entropy_bonus}"), &trainer, || {
                Box::new(Compiler(CompilerEnv::new(
                    &apps,
                    &estimator,
                    &projector,
                    RewardWeights::default(),
                    config.max_inactive,
                    config.seed ^ 0x5EED,
                )))
            });
        }
    }
}
