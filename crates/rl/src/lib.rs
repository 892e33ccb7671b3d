//! Reinforcement learning for the MLComp Phase Selection Policy: a small
//! MLP policy network trained with the REINFORCE policy-gradient method
//! (Williams 1992), exactly as the paper's Algorithm 2 prescribes.
//!
//! The network follows Table V: 3 layers with inner size 16, softmax
//! output over the action (phase) set. Training runs episodes in batches,
//! accumulates discounted rewards, subtracts a batch baseline and ascends
//! the policy gradient. The trained policy serializes with `serde` — the
//! reproduction's counterpart to the paper's TorchScript export that the
//! LLVM-side selector reloads.
//!
//! # Example: solving a 3-armed bandit
//!
//! ```
//! use mlcomp_rl::{Env, PolicyNet, ReinforceTrainer};
//!
//! struct Bandit {
//!     pulls: u32,
//! }
//! impl Env for Bandit {
//!     fn state_dim(&self) -> usize { 1 }
//!     fn action_count(&self) -> usize { 3 }
//!     fn reset(&mut self) -> Vec<f64> { self.pulls = 0; vec![1.0] }
//!     fn step(&mut self, action: usize) -> (Vec<f64>, f64, bool) {
//!         self.pulls += 1;
//!         let reward = [0.1, 1.0, 0.3][action];
//!         (vec![1.0], reward, self.pulls >= 4)
//!     }
//! }
//!
//! let mut policy = PolicyNet::new(1, 16, 3, 7);
//! let trainer = ReinforceTrainer { episodes: 300, batch_size: 6, ..Default::default() };
//! trainer.train(&mut policy, &mut Bandit { pulls: 0 });
//! assert_eq!(policy.best_action(&[1.0]), 1, "learned the best arm");
//! ```

pub mod policy;
pub mod reinforce;

pub use policy::PolicyNet;
pub use reinforce::{AbortCause, AbortCounts, Env, ReinforceTrainer, TrainingStats};
