//! The policy network: a 3-layer MLP (input → 16 → 16 → actions) with a
//! softmax head, implemented with explicit forward/backward passes.

use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A softmax policy over a discrete action set.
///
/// Architecture per the paper's Table V: three layers with inner size 16
/// (two tanh hidden layers of `hidden` units, then a linear layer into the
/// softmax).
///
/// # Examples
///
/// Inference is deterministic, and [`ranked_actions`](PolicyNet::ranked_actions)
/// is a permutation of the full action set — the deployment fallback order
/// of §III-D:
///
/// ```
/// use mlcomp_rl::PolicyNet;
///
/// let policy = PolicyNet::new(4, 16, 5, 42);
/// let state = [0.5, -1.0, 2.0, 0.0];
/// let probs = policy.probabilities(&state);
/// assert_eq!(probs.len(), 5);
/// assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
///
/// let ranked = policy.ranked_actions(&state);
/// assert_eq!(ranked[0], policy.best_action(&state));
/// let mut sorted = ranked.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyNet {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden width (Table V: 16).
    pub hidden: usize,
    /// Number of actions.
    pub actions: usize,
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    w1: Vec<f64>, // input_dim × hidden
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    b1: Vec<f64>,
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    w2: Vec<f64>, // hidden × hidden
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    b2: Vec<f64>,
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    w3: Vec<f64>, // hidden × actions
    #[serde(with = "mlcomp_linalg::serde_bits::vec_f64")]
    b3: Vec<f64>,
}

/// Intermediate activations kept for the backward pass, in one buffer:
/// the probabilities, the input, then each hidden layer's output.
#[derive(Debug, Clone)]
pub struct Forward {
    buf: Vec<f64>,
    input_dim: usize,
    hidden: usize,
}

impl Forward {
    /// Softmax probabilities per action.
    pub fn probs(&self) -> &[f64] {
        &self.buf[..self.actions()]
    }

    /// The input state.
    pub fn x(&self) -> &[f64] {
        let a = self.actions();
        &self.buf[a..a + self.input_dim]
    }

    /// The probabilities, keeping the buffer's allocation.
    fn into_probs(mut self) -> Vec<f64> {
        let a = self.actions();
        self.buf.truncate(a);
        self.buf
    }

    fn actions(&self) -> usize {
        self.buf.len() - self.input_dim - 2 * self.hidden
    }

    fn h1(&self) -> &[f64] {
        let o = self.actions() + self.input_dim;
        &self.buf[o..o + self.hidden]
    }

    fn h2(&self) -> &[f64] {
        &self.buf[self.buf.len() - self.hidden..]
    }
}

/// The entropy bonus's gradients at the logits, at `h2` and at `h1` (in
/// that order, in one buffer) for one forward pass and coefficient, from
/// [`PolicyNet::entropy_term`].
#[derive(Debug, Clone)]
pub(crate) struct EntropyTerm {
    buf: Vec<f64>,
    hidden: usize,
}

impl PolicyNet {
    /// Creates a randomly initialized policy (Xavier-ish, seeded).
    pub fn new(input_dim: usize, hidden: usize, actions: usize, seed: u64) -> PolicyNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut init = |n: usize, fan_in: usize| -> Vec<f64> {
            let bound = (1.0 / fan_in.max(1) as f64).sqrt();
            (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
        };
        PolicyNet {
            input_dim,
            hidden,
            actions,
            w1: init(input_dim * hidden, input_dim),
            b1: vec![0.0; hidden],
            w2: init(hidden * hidden, hidden),
            b2: vec![0.0; hidden],
            w3: init(hidden * actions, hidden),
            b3: vec![0.0; actions],
        }
    }

    /// Forward pass returning action probabilities and cached activations.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim`.
    pub fn forward(&self, x: &[f64]) -> Forward {
        assert_eq!(x.len(), self.input_dim, "state dimension mismatch");
        let h = self.hidden;
        let mut buf = vec![0.0; self.actions + x.len() + 2 * h];
        let (probs, rest) = buf.split_at_mut(self.actions);
        let (input, rest) = rest.split_at_mut(x.len());
        let (h1, h2) = rest.split_at_mut(h);
        input.copy_from_slice(x);
        dense(input, &self.w1, &self.b1, h1);
        h1.iter_mut().for_each(|v| *v = v.tanh());
        dense(h1, &self.w2, &self.b2, h2);
        h2.iter_mut().for_each(|v| *v = v.tanh());
        dense(h2, &self.w3, &self.b3, probs);
        softmax(probs);
        Forward {
            buf,
            input_dim: x.len(),
            hidden: h,
        }
    }

    /// Action probabilities for a state.
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x).into_probs()
    }

    /// The most probable action.
    pub fn best_action(&self, x: &[f64]) -> usize {
        argmax(self.forward(x).probs())
    }

    /// Actions ordered from most to least probable — the deployment-time
    /// "second best, third best, …" fallback order of the paper's PSS.
    pub fn ranked_actions(&self, x: &[f64]) -> Vec<usize> {
        let fwd = self.forward(x);
        let probs = fwd.probs();
        let mut idx: Vec<usize> = (0..probs.len()).collect();
        idx.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
        idx
    }

    /// Samples an action from the policy distribution.
    pub fn sample_action(&self, x: &[f64], rng: &mut rand::rngs::StdRng) -> usize {
        sample_index(self.forward(x).probs(), rng.gen_range(0.0..1.0))
    }

    /// Accumulates one REINFORCE step's gradient into `grads` (layout:
    /// `w1, b1, w2, b2, w3, b3`): that of `−advantage · log π(action|x)`
    /// and, given `entropy_beta`, that of `−β·H(π(·|x))`
    /// (negative-entropy loss: an entropy *bonus* that discourages
    /// premature collapse of the action distribution).
    ///
    /// Each gradient element adds the policy term and then the entropy
    /// term, the additions of two separate backward passes in their order,
    /// so the bits are theirs. This computes the entropy term for this
    /// step alone; training shares it among the steps on one forward.
    pub fn accumulate_step_gradient(
        &self,
        fwd: &Forward,
        action: usize,
        advantage: f64,
        entropy_beta: Option<f64>,
        grads: &mut [f64],
    ) {
        let entropy = entropy_beta.map(|beta| self.entropy_term(fwd, beta));
        self.accumulate_cached_step_gradient(fwd, action, advantage, entropy.as_ref(), grads);
    }

    /// The entropy bonus's part of the backward pass on `fwd` with
    /// coefficient `beta`: its gradients at the logits, at `h2` and at
    /// `h1`. It depends on nothing else, so every step that shares the
    /// forward and β can share it.
    pub(crate) fn entropy_term(&self, fwd: &Forward, beta: f64) -> EntropyTerm {
        let (h, a_n) = (self.hidden, self.actions);
        let mut buf = vec![0.0; a_n + 2 * h];
        let (dlogits, rest) = buf.split_at_mut(a_n);
        let (dh2, dh1) = rest.split_at_mut(h);
        entropy_logit_gradient(fwd.probs(), beta, dlogits);
        input_gradient(&self.w3, dlogits, dh2);
        tanh_backward(fwd.h2(), dh2);
        input_gradient(&self.w2, dh2, dh1);
        tanh_backward(fwd.h1(), dh1);
        EntropyTerm { buf, hidden: h }
    }

    /// [`accumulate_step_gradient`](PolicyNet::accumulate_step_gradient)
    /// with the entropy term already computed (by
    /// [`entropy_term`](PolicyNet::entropy_term) on the same forward):
    /// only the policy term's chain runs here.
    ///
    /// Each term's chain is that of its own backward pass, so the bits
    /// are those of the one-shot form.
    pub(crate) fn accumulate_cached_step_gradient(
        &self,
        fwd: &Forward,
        action: usize,
        advantage: f64,
        entropy: Option<&EntropyTerm>,
        grads: &mut [f64],
    ) {
        let (h, a_n) = (self.hidden, self.actions);
        // The policy term's gradient at the logits, at h2 and at h1.
        let mut buf = vec![0.0; a_n + 2 * h];
        let (dlogits, rest) = buf.split_at_mut(a_n);
        let (dh2, dh1) = rest.split_at_mut(h);
        // dL/dlogit = (p − onehot) · advantage.
        dlogits.copy_from_slice(fwd.probs());
        dlogits[action] -= 1.0;
        for v in dlogits.iter_mut() {
            *v *= advantage;
        }
        let (gw1, rest) = grads.split_at_mut(self.w1.len());
        let (gb1, rest) = rest.split_at_mut(h);
        let (gw2, rest) = rest.split_at_mut(self.w2.len());
        let (gb2, rest) = rest.split_at_mut(h);
        let (gw3, gb3) = rest.split_at_mut(self.w3.len());
        let [e_logits, e_h2, e_h1] = match entropy {
            Some(e) => {
                let (l, rest) = e.buf.split_at(e.buf.len() - 2 * e.hidden);
                let (h2, h1) = rest.split_at(e.hidden);
                [Some(l), Some(h2), Some(h1)]
            }
            None => [None; 3],
        };
        backprop_dense(fwd.h2(), &self.w3, dlogits, e_logits, gw3, gb3, Some(dh2));
        tanh_backward(fwd.h2(), dh2);
        backprop_dense(fwd.h1(), &self.w2, dh2, e_h2, gw2, gb2, Some(dh1));
        tanh_backward(fwd.h1(), dh1);
        backprop_dense(fwd.x(), &self.w1, dh1, e_h1, gw1, gb1, None);
    }

    /// Total parameter count (gradient buffer size).
    pub fn param_count(&self) -> usize {
        self.w1.len()
            + self.b1.len()
            + self.w2.len()
            + self.b2.len()
            + self.w3.len()
            + self.b3.len()
    }

    /// Applies a gradient-descent step `params -= lr · grads`.
    pub fn apply_gradients(&mut self, grads: &[f64], lr: f64) {
        assert_eq!(grads.len(), self.param_count());
        let mut it = grads.iter();
        for p in self
            .w1
            .iter_mut()
            .chain(self.b1.iter_mut())
            .chain(self.w2.iter_mut())
            .chain(self.b2.iter_mut())
            .chain(self.w3.iter_mut())
            .chain(self.b3.iter_mut())
        {
            *p -= lr * it.next().expect("length checked");
        }
    }
}

/// `out = b + Σⱼ input[j] · w[j]`, with `w` row-major (`input.len()` rows
/// of `out.len()`): rows are read whole, and each output adds its terms
/// in row order.
fn dense(input: &[f64], w: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    out.copy_from_slice(b);
    for (j, xj) in input.iter().enumerate() {
        for (o, wjk) in out.iter_mut().zip(&w[j * n..(j + 1) * n]) {
            *o += xj * wjk;
        }
    }
}

/// Backpropagates through `out = dense(input, w, b)`: adds the weight and
/// bias gradients of `d_out` and then, per element, those of `entropy`
/// when given, and writes `d_out`'s gradient at the input into `d_in`.
fn backprop_dense(
    input: &[f64],
    w: &[f64],
    d_out: &[f64],
    entropy: Option<&[f64]>,
    grad_w: &mut [f64],
    grad_b: &mut [f64],
    d_in: Option<&mut [f64]>,
) {
    match entropy {
        Some(e) => accumulate_dense::<2>(input, [d_out, e], grad_w, grad_b),
        None => accumulate_dense::<1>(input, [d_out], grad_w, grad_b),
    }
    if let Some(d_in) = d_in {
        input_gradient(w, d_out, d_in);
    }
}

/// Adds the weight and bias gradients of the `T` terms `d` to `grad_w`
/// and `grad_b`, term by term, in term order.
fn accumulate_dense<const T: usize>(
    input: &[f64],
    d: [&[f64]; T],
    grad_w: &mut [f64],
    grad_b: &mut [f64],
) {
    let n = grad_b.len();
    // Slices of length `n` let every `dt[k]` below go unchecked.
    let d = d.map(|dt| &dt[..n]);
    for (k, gb) in grad_b.iter_mut().enumerate() {
        for dt in d {
            *gb += dt[k];
        }
    }
    for (row, xj) in grad_w.chunks_exact_mut(n).zip(input) {
        for (k, g) in row.iter_mut().enumerate() {
            for dt in d {
                *g += dt[k] * xj;
            }
        }
    }
}

/// The gradient at the input of `dense` with weights `w`, given the one
/// at its output, into `d_in`. Every input's sum is its own chain of
/// additions in `k` order; running the chains side by side, `k` outer,
/// keeps the adder busy.
fn input_gradient(w: &[f64], d_out: &[f64], d_in: &mut [f64]) {
    let n = d_out.len();
    d_in.fill(0.0);
    for (k, dk) in d_out.iter().enumerate() {
        for (j, dij) in d_in.iter_mut().enumerate() {
            *dij += dk * w[j * n + k];
        }
    }
}

/// Turns a gradient at `tanh`'s output `out` into the gradient at its
/// input.
fn tanh_backward(out: &[f64], d: &mut [f64]) {
    for (g, o) in d.iter_mut().zip(out) {
        *g *= 1.0 - o * o;
    }
}

/// `β · d(−H)/dlogit_j = β · p_j · (ln p_j + H)` into `out`, taking each
/// `ln p` once. `ln` reads `max(p, 1e-300)` here; the entropy sum skips
/// `p = 0` and takes the true `ln p` below `1e-300`.
fn entropy_logit_gradient(probs: &[f64], beta: f64, out: &mut [f64]) {
    for (l, &p) in out.iter_mut().zip(probs) {
        *l = p.max(1e-300).ln();
    }
    let entropy: f64 = -probs
        .iter()
        .zip(out.iter())
        .filter(|(&p, _)| p > 0.0)
        .map(|(&p, &l)| p * if p >= 1e-300 { l } else { p.ln() })
        .sum::<f64>();
    for (l, &p) in out.iter_mut().zip(probs) {
        *l = beta * p * (*l + entropy);
    }
}

/// Numerically-guarded softmax over `logits`, in place: non-finite
/// logits (overflowed weights, poisoned features) fall back to the
/// uniform distribution instead of emitting NaN probabilities that would
/// poison sampling and gradients. All-finite logits produce bit-identical
/// results to the unguarded form.
fn softmax(logits: &mut [f64]) {
    let n = logits.len();
    if n == 0 {
        return;
    }
    if logits.iter().any(|l| !l.is_finite()) {
        logits.fill(1.0 / n as f64);
        return;
    }
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
    }
    let sum: f64 = logits.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        logits.fill(1.0 / n as f64);
        return;
    }
    for e in logits.iter_mut() {
        *e /= sum;
    }
}

/// Samples an index from `probs` given a uniform `roll` in `[0, 1)` by
/// walking the CDF. Degenerate vectors — non-finite, negative or all-zero
/// entries — fall back to a uniform pick instead of silently biasing
/// toward the last index.
pub(crate) fn sample_index(probs: &[f64], roll: f64) -> usize {
    sample_index_detailed(probs, roll).0
}

/// Like [`sample_index`], but also reports whether the uniform fallback
/// fired — the trainer uses the flag to abort (and count) episodes whose
/// action distribution has degenerated.
pub(crate) fn sample_index_detailed(probs: &[f64], roll: f64) -> (usize, bool) {
    let n = probs.len();
    assert!(n > 0, "empty probability vector");
    let degenerate =
        probs.iter().any(|p| !p.is_finite() || *p < 0.0) || probs.iter().sum::<f64>() <= 0.0;
    if degenerate {
        return (((roll * n as f64) as usize).min(n - 1), true);
    }
    let mut acc = 0.0;
    for (a, p) in probs.iter().enumerate() {
        acc += p;
        if roll < acc {
            return (a, false);
        }
    }
    (n - 1, false)
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_are_a_distribution() {
        let p = PolicyNet::new(4, 16, 6, 1);
        let probs = p.probabilities(&[0.1, -0.3, 0.5, 2.0]);
        assert_eq!(probs.len(), 6);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn ranked_actions_orders_by_probability() {
        let p = PolicyNet::new(3, 16, 5, 2);
        let x = [1.0, 0.0, -1.0];
        let probs = p.probabilities(&x);
        let ranked = p.ranked_actions(&x);
        assert_eq!(ranked.len(), 5);
        for w in ranked.windows(2) {
            assert!(probs[w[0]] >= probs[w[1]]);
        }
        assert_eq!(ranked[0], p.best_action(&x));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let net = PolicyNet::new(3, 8, 4, 3);
        let x = [0.5, -1.0, 2.0];
        let action = 2;
        let adv = 1.7;
        // Analytic gradient.
        let fwd = net.forward(&x);
        let mut grads = vec![0.0; net.param_count()];
        net.accumulate_step_gradient(&fwd, action, adv, None, &mut grads);
        // Numeric gradient for a few parameters.
        let loss = |n: &PolicyNet| -> f64 { -adv * n.forward(&x).probs()[action].ln() };
        let eps = 1e-6;
        for idx in [0usize, 5, 30, 80] {
            let base = loss(&net);
            // Perturb parameter idx via apply_gradients with a unit vector.
            let mut delta = vec![0.0; net.param_count()];
            delta[idx] = -eps; // apply_gradients subtracts
            let mut plus = net.clone();
            plus.apply_gradients(&delta, 1.0);
            let numeric = (loss(&plus) - base) / eps;
            assert!(
                (numeric - grads[idx]).abs() < 1e-4,
                "param {idx}: numeric {numeric} vs analytic {}",
                grads[idx]
            );
        }
    }

    /// A net with random weights and biases (the seeded constructor
    /// leaves biases at zero).
    fn random_net(d: usize, h: usize, a: usize, seed: u64) -> PolicyNet {
        let mut net = PolicyNet::new(d, h, a, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB1A5);
        for b in [&mut net.b1, &mut net.b2, &mut net.b3] {
            b.iter_mut().for_each(|v| *v = rng.gen_range(-0.5..0.5));
        }
        net
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward activations and the fused step's gradient against the
    /// oracle's forward pass and its two backward passes, bit for bit.
    fn assert_step_matches_the_oracle(net: &PolicyNet, x: &[f64], seed: u64, what: &str) {
        let fwd = net.forward(x);
        let want = oracle::forward(net, x);
        assert_eq!(bits(fwd.probs()), bits(&want.probs), "{what}: probs");
        assert_eq!(bits(fwd.x()), bits(&want.x), "{what}: x");
        assert_eq!(bits(fwd.h1()), bits(&want.h1), "{what}: h1");
        assert_eq!(bits(fwd.h2()), bits(&want.h2), "{what}: h2");
        assert_eq!(bits(&net.probabilities(x)), bits(&want.probs));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Accumulate onto a gradient that already holds values.
        let start: Vec<f64> = (0..net.param_count())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        for (action, advantage, beta) in [
            (0, 0.7, Some(0.01)),
            (net.actions - 1, -1.3, Some(0.002)),
            (net.actions / 2, 0.25, None),
        ] {
            let mut got = start.clone();
            net.accumulate_step_gradient(&fwd, action, advantage, beta, &mut got);
            let mut want_grads = start.clone();
            oracle::accumulate_gradient(net, &want, action, advantage, &mut want_grads);
            if let Some(beta) = beta {
                oracle::accumulate_entropy_gradient(net, &want, beta, &mut want_grads);
            }
            assert_eq!(
                bits(&got),
                bits(&want_grads),
                "{what}: action {action}, beta {beta:?}"
            );
        }
    }

    #[test]
    fn fused_step_matches_the_two_pass_oracle_on_random_nets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for (i, &(d, h, a)) in [(1, 16, 2), (3, 8, 4), (7, 16, 48), (30, 16, 48), (5, 3, 1)]
            .iter()
            .enumerate()
        {
            let net = random_net(d, h, a, i as u64);
            for s in 0..4 {
                let x: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..3.0)).collect();
                assert_step_matches_the_oracle(&net, &x, s, &format!("{d}x{h}x{a}, state {s}"));
            }
        }
    }

    /// A probability that underflows below `1e-300` (where the entropy
    /// and the gradient read different `ln`s) and one that is exactly 0.
    #[test]
    fn fused_step_matches_the_oracle_on_vanishing_probabilities() {
        let mut net = random_net(4, 8, 6, 11);
        net.b3 = vec![0.0, -700.0, -800.0, 0.5, -1.0, -740.0];
        let x = [0.3, -0.2, 1.1, 0.0];
        let probs = net.probabilities(&x);
        assert!(probs[1] > 0.0 && probs[1] < 1e-300, "{}", probs[1]);
        assert_eq!(probs[2], 0.0);
        assert_step_matches_the_oracle(&net, &x, 3, "vanishing");
    }

    /// One entropy term serves every step on its forward: steps that
    /// share it equal the oracle's two backward passes per step, bit for
    /// bit, on random forwards, actions, advantages and β, accumulating
    /// onto a gradient that already holds values.
    #[test]
    fn a_shared_entropy_term_matches_the_two_pass_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (i, &(d, h, a)) in [(1, 16, 2), (7, 16, 48), (30, 16, 48), (5, 3, 1)]
            .iter()
            .enumerate()
        {
            let net = random_net(d, h, a, 40 + i as u64);
            for _ in 0..3 {
                let x: Vec<f64> = (0..d).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let (fwd, want_fwd) = (net.forward(&x), oracle::forward(&net, &x));
                let beta = rng.gen_range(1e-4..0.1);
                let term = net.entropy_term(&fwd, beta);
                let mut got: Vec<f64> = (0..net.param_count())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let mut want = got.clone();
                for _ in 0..5 {
                    let action = rng.gen_range(0..a);
                    let advantage = rng.gen_range(-2.0..2.0);
                    net.accumulate_cached_step_gradient(
                        &fwd,
                        action,
                        advantage,
                        Some(&term),
                        &mut got,
                    );
                    oracle::accumulate_gradient(&net, &want_fwd, action, advantage, &mut want);
                    oracle::accumulate_entropy_gradient(&net, &want_fwd, beta, &mut want);
                    assert_eq!(bits(&got), bits(&want), "{d}x{h}x{a}: action {action}");
                }
            }
        }
    }

    /// The forward pass and the two backward passes before they walked
    /// weight rows whole and shared one pass: one `Vec` per layer and
    /// per buffer, columns read with a stride.
    mod oracle {
        use super::super::*;

        pub struct Forward {
            pub x: Vec<f64>,
            pub h1: Vec<f64>,
            pub h2: Vec<f64>,
            pub probs: Vec<f64>,
        }

        pub fn forward(net: &PolicyNet, x: &[f64]) -> Forward {
            let h = net.hidden;
            let mut h1 = vec![0.0; h];
            for (k, h1k) in h1.iter_mut().enumerate() {
                let mut s = net.b1[k];
                for (j, xv) in x.iter().enumerate() {
                    s += xv * net.w1[j * h + k];
                }
                *h1k = s.tanh();
            }
            let mut h2 = vec![0.0; h];
            for (k, h2k) in h2.iter_mut().enumerate() {
                let mut s = net.b2[k];
                for (j, h1j) in h1.iter().enumerate() {
                    s += h1j * net.w2[j * h + k];
                }
                *h2k = s.tanh();
            }
            let mut logits = vec![0.0; net.actions];
            for (a, l) in logits.iter_mut().enumerate() {
                let mut s = net.b3[a];
                for (j, h2j) in h2.iter().enumerate() {
                    s += h2j * net.w3[j * net.actions + a];
                }
                *l = s;
            }
            let probs = softmax(&logits);
            Forward {
                x: x.to_vec(),
                h1,
                h2,
                probs,
            }
        }

        fn softmax(logits: &[f64]) -> Vec<f64> {
            let n = logits.len();
            if n == 0 {
                return Vec::new();
            }
            if logits.iter().any(|l| !l.is_finite()) {
                return vec![1.0 / n as f64; n];
            }
            let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            if !sum.is_finite() || sum <= 0.0 {
                return vec![1.0 / n as f64; n];
            }
            exps.iter().map(|e| e / sum).collect()
        }

        pub fn accumulate_gradient(
            net: &PolicyNet,
            fwd: &Forward,
            action: usize,
            advantage: f64,
            grads: &mut [f64],
        ) {
            let mut dlogits = fwd.probs.clone();
            dlogits[action] -= 1.0;
            for v in dlogits.iter_mut() {
                *v *= advantage;
            }
            backprop_from_logits(net, fwd, &dlogits, grads);
        }

        fn backprop_from_logits(
            net: &PolicyNet,
            fwd: &Forward,
            dlogits: &[f64],
            grads: &mut [f64],
        ) {
            let h = net.hidden;
            let a_n = net.actions;
            let d = net.input_dim;
            let (o_w1, o_b1) = (0, d * h);
            let (o_w2, o_b2) = (o_b1 + h, o_b1 + h + h * h);
            let (o_w3, o_b3) = (o_b2 + h, o_b2 + h + h * a_n);

            let mut dh2 = vec![0.0; h];
            for a in 0..a_n {
                let g = dlogits[a];
                grads[o_b3 + a] += g;
                for j in 0..h {
                    grads[o_w3 + j * a_n + a] += g * fwd.h2[j];
                    dh2[j] += g * net.w3[j * a_n + a];
                }
            }
            let mut dh1 = vec![0.0; h];
            for k in 0..h {
                let g = dh2[k] * (1.0 - fwd.h2[k] * fwd.h2[k]);
                grads[o_b2 + k] += g;
                for j in 0..h {
                    grads[o_w2 + j * h + k] += g * fwd.h1[j];
                    dh1[j] += g * net.w2[j * h + k];
                }
            }
            for k in 0..h {
                let g = dh1[k] * (1.0 - fwd.h1[k] * fwd.h1[k]);
                grads[o_b1 + k] += g;
                for (j, xv) in fwd.x.iter().enumerate() {
                    grads[o_w1 + j * h + k] += g * xv;
                }
            }
        }

        pub fn accumulate_entropy_gradient(
            net: &PolicyNet,
            fwd: &Forward,
            beta: f64,
            grads: &mut [f64],
        ) {
            let entropy: f64 = -fwd
                .probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| p * p.ln())
                .sum::<f64>();
            let dlogits: Vec<f64> = fwd
                .probs
                .iter()
                .map(|&p| beta * p * (p.max(1e-300).ln() + entropy))
                .collect();
            backprop_from_logits(net, fwd, &dlogits, grads);
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let p = PolicyNet::new(5, 16, 7, 9);
        let json = serde_json::to_string(&p).unwrap();
        let q: PolicyNet = serde_json::from_str(&json).unwrap();
        assert_eq!((q.input_dim, q.hidden, q.actions), (5, 16, 7));
        // Weights survive to within float-printing precision, so decisions
        // are identical — the property the deployment step needs.
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        let (pp, qp) = (p.probabilities(&x), q.probabilities(&x));
        for (a, b) in pp.iter().zip(&qp) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(p.ranked_actions(&x), q.ranked_actions(&x));
    }

    #[test]
    fn sampling_follows_distribution() {
        let p = PolicyNet::new(1, 16, 3, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let probs = p.probabilities(&[1.0]);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[p.sample_action(&[1.0], &mut rng)] += 1;
        }
        for a in 0..3 {
            let freq = counts[a] as f64 / 30_000.0;
            assert!(
                (freq - probs[a]).abs() < 0.02,
                "action {a}: {freq} vs {}",
                probs[a]
            );
        }
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn wrong_input_size_panics() {
        PolicyNet::new(3, 16, 2, 0).forward(&[1.0]);
    }

    #[test]
    fn softmax_falls_back_to_uniform_on_nonfinite_logits() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut probs = [0.0, bad, 1.0];
            softmax(&mut probs);
            assert_eq!(probs, [1.0 / 3.0; 3], "logit {bad}");
        }
        // Extreme but finite logits still form a proper distribution.
        let mut probs = [1e308, -1e308, 0.0];
        softmax(&mut probs);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert_eq!(probs[0], 1.0);
    }

    #[test]
    fn sample_index_handles_degenerate_distributions() {
        // All-zero, NaN-poisoned and negative vectors sample uniformly.
        for probs in [vec![0.0; 4], vec![f64::NAN; 4], vec![-1.0, 2.0, 0.0, 0.0]] {
            assert_eq!(sample_index(&probs, 0.0), 0, "{probs:?}");
            assert_eq!(sample_index(&probs, 0.49), 1, "{probs:?}");
            assert_eq!(sample_index(&probs, 0.999), 3, "{probs:?}");
        }
        // A healthy distribution follows the CDF exactly as before.
        let probs = [0.25, 0.25, 0.5];
        assert_eq!(sample_index(&probs, 0.1), 0);
        assert_eq!(sample_index(&probs, 0.3), 1);
        assert_eq!(sample_index(&probs, 0.9), 2);
    }

    #[test]
    fn sample_index_detailed_flags_the_fallback() {
        let (a, fallback) = sample_index_detailed(&[0.25, 0.25, 0.5], 0.3);
        assert_eq!((a, fallback), (1, false));
        for probs in [vec![0.0; 3], vec![f64::NAN; 3], vec![-1.0, 1.0, 1.0]] {
            let (a, fallback) = sample_index_detailed(&probs, 0.5);
            assert!(a < 3);
            assert!(fallback, "{probs:?} must report the fallback");
        }
    }

    #[test]
    fn poisoned_network_still_yields_decisions() {
        let mut net = PolicyNet::new(2, 4, 3, 7);
        // Blast every parameter to +inf; the forward pass then produces
        // non-finite logits and every decision path must survive it.
        let blast = vec![f64::NEG_INFINITY; net.param_count()];
        net.apply_gradients(&blast, 1.0);
        let x = [0.5, -0.5];
        let probs = net.probabilities(&x);
        assert_eq!(probs, vec![1.0 / 3.0; 3]);
        assert!(net.best_action(&x) < 3);
        assert_eq!(net.ranked_actions(&x).len(), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(net.sample_action(&x, &mut rng) < 3);
    }
}
