//! Deterministic, seed-driven fault injection for the MLComp pipeline.
//!
//! Data-generation-at-scale treats per-sample failure as the common case:
//! an optimization phase can panic on an unusual CFG, the profiling
//! interpreter can exhaust its fuel on a pathological sequence, a worker
//! can die mid-item. The supervision layers built on top of this crate
//! (the pass sandbox in `mlcomp-passes`, graceful degradation in
//! `mlcomp-core`'s extraction) only earn trust if those failures can be
//! *reproduced on demand* — which is what a [`FaultPlan`] provides.
//!
//! A plan is a pure function: whether a fault fires at a given *site* is
//! decided by hashing `(plan seed, fault kind, site key)` against the
//! configured rate. No global state, no RNG streams, no ordering
//! dependence — the same plan injects the same faults whether the pipeline
//! runs on one thread or sixty-four, which is what lets the determinism
//! tests assert bit-identical datasets *under* injected faults.
//!
//! The zero-fault path stays bit-identical to a build without this crate:
//! every injection point accepts an `Option<&FaultPlan>` and does nothing
//! when it is `None`.
//!
//! # Example
//!
//! ```
//! use mlcomp_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::from_seed(7).with_rate(FaultKind::PhasePanic, 0.5);
//! // Decisions are a pure function of (seed, kind, site key):
//! let a = plan.fires(FaultKind::PhasePanic, "dedup|3|gvn");
//! assert_eq!(a, plan.fires(FaultKind::PhasePanic, "dedup|3|gvn"));
//! // Other kinds default to rate 0 and never fire.
//! assert!(!plan.fires(FaultKind::FuelExhaustion, "dedup|3|gvn"));
//! ```

pub use mlcomp_parallel::panic_reason;
use mlcomp_parallel::seed;
use std::fmt;

/// The categories of fault the plan can inject, one per supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A phase panics mid-transform (caught by the pass sandbox).
    PhasePanic,
    /// The post-phase verifier rejects the module (pass sandbox rollback).
    VerifierCorrupt,
    /// The profiling interpreter runs with a starvation fuel budget
    /// (surfaces as `ExecError::OutOfFuel` in extraction).
    FuelExhaustion,
    /// An extraction worker panics on its `(app, variant)` item (caught
    /// by extraction, which loses that one datapoint).
    WorkerPanic,
}

impl FaultKind {
    /// Per-kind salt so the same site key lands in independent streams for
    /// different fault kinds.
    fn salt(self) -> u64 {
        match self {
            FaultKind::PhasePanic => 0x9A51_C0DE_0000_0001,
            FaultKind::VerifierCorrupt => 0x9A51_C0DE_0000_0002,
            FaultKind::FuelExhaustion => 0x9A51_C0DE_0000_0003,
            FaultKind::WorkerPanic => 0x9A51_C0DE_0000_0004,
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::PhasePanic => 0,
            FaultKind::VerifierCorrupt => 1,
            FaultKind::FuelExhaustion => 2,
            FaultKind::WorkerPanic => 3,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::PhasePanic => "phase-panic",
            FaultKind::VerifierCorrupt => "verifier-corrupt",
            FaultKind::FuelExhaustion => "fuel-exhaustion",
            FaultKind::WorkerPanic => "worker-panic",
        })
    }
}

/// The message prefix of every panic this crate injects; the quiet panic
/// hook and failure reports use it to tell injected faults from real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// A deterministic fault-injection plan: a seed plus one firing rate per
/// [`FaultKind`].
///
/// Rates are probabilities in `[0, 1]`; the default for every kind is `0`,
/// so a freshly seeded plan injects nothing until rates are raised with
/// [`FaultPlan::with_rate`] or [`FaultPlan::chaos`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root of all injection decisions.
    pub seed: u64,
    rates: [f64; 4],
}

impl FaultPlan {
    /// Creates a plan with the given seed and all rates at zero.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 4],
        }
    }

    /// The standard chaos profile used by the fault-injection CI job:
    /// 10% phase panics, 5% verifier corruption, 5% fuel exhaustion,
    /// 10% worker panics.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan::from_seed(seed)
            .with_rate(FaultKind::PhasePanic, 0.10)
            .with_rate(FaultKind::VerifierCorrupt, 0.05)
            .with_rate(FaultKind::FuelExhaustion, 0.05)
            .with_rate(FaultKind::WorkerPanic, 0.10)
    }

    /// Builds the chaos plan from the `MLCOMP_FAULT_SEED` environment
    /// variable, or `None` when it is unset or unparsable.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var("MLCOMP_FAULT_SEED").ok()?;
        raw.trim().parse::<u64>().ok().map(FaultPlan::chaos)
    }

    /// Sets the firing rate for one fault kind (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.rates[kind.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The configured firing rate for a fault kind.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// Whether a fault of `kind` fires at the site identified by `key`.
    ///
    /// Pure in `(self, kind, key)`: call it from any thread, any number of
    /// times, in any order — the answer never changes. Site keys should
    /// encode the *identity* of the work (application, variant, phase
    /// position), never execution-order artifacts like timestamps or
    /// counters shared across threads.
    pub fn fires(&self, kind: FaultKind, key: &str) -> bool {
        let rate = self.rates[kind.index()];
        if rate <= 0.0 {
            return false;
        }
        let h = seed::mix(self.seed ^ kind.salt() ^ seed::hash_str(key));
        // Top 53 bits → uniform f64 in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// Panics with an identifiable message if a [`FaultKind::PhasePanic`]
    /// fault fires at `key`. The pass sandbox calls this inside its
    /// `catch_unwind` scope.
    pub fn maybe_panic(&self, key: &str) {
        if self.fires(FaultKind::PhasePanic, key) {
            quiet_injected_panics();
            panic!("{INJECTED_PANIC_PREFIX} phase panic at `{key}`");
        }
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr report for panics whose payload starts with
/// [`INJECTED_PANIC_PREFIX`], delegating every other panic to the previous
/// hook.
///
/// Fault-injection tests unwind hundreds of times by design; without this
/// their output would drown real diagnostics. Genuine panics keep their
/// full report.
pub fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX)) {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_kind_independent() {
        let plan = FaultPlan::from_seed(42)
            .with_rate(FaultKind::PhasePanic, 0.5)
            .with_rate(FaultKind::FuelExhaustion, 0.5);
        for i in 0..256 {
            let key = format!("app|{i}|gvn");
            assert_eq!(
                plan.fires(FaultKind::PhasePanic, &key),
                plan.fires(FaultKind::PhasePanic, &key)
            );
        }
        // The two kinds at the same rate must not mirror each other.
        let agree = (0..4096)
            .filter(|i| {
                let key = format!("k{i}");
                plan.fires(FaultKind::PhasePanic, &key)
                    == plan.fires(FaultKind::FuelExhaustion, &key)
            })
            .count();
        assert!(
            (1500..2600).contains(&agree),
            "independent 50% streams should agree ~half the time, got {agree}/4096"
        );
    }

    #[test]
    fn empirical_rate_matches_configuration() {
        for rate in [0.05, 0.1, 0.5] {
            let plan = FaultPlan::from_seed(7).with_rate(FaultKind::PhasePanic, rate);
            let fired = (0..20_000)
                .filter(|i| plan.fires(FaultKind::PhasePanic, &format!("site{i}")))
                .count();
            let got = fired as f64 / 20_000.0;
            assert!((got - rate).abs() < 0.02, "rate {rate}: observed {got}");
        }
    }

    #[test]
    fn zero_rate_never_fires_and_one_always_fires() {
        let zero = FaultPlan::from_seed(1);
        let one = FaultPlan::from_seed(1).with_rate(FaultKind::WorkerPanic, 1.0);
        for i in 0..1000 {
            let key = format!("k{i}");
            assert!(!zero.fires(FaultKind::WorkerPanic, &key));
            assert!(one.fires(FaultKind::WorkerPanic, &key));
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::from_seed(1).with_rate(FaultKind::PhasePanic, 0.3);
        let b = FaultPlan::from_seed(2).with_rate(FaultKind::PhasePanic, 0.3);
        let diverge = (0..4096)
            .filter(|i| {
                let key = format!("k{i}");
                a.fires(FaultKind::PhasePanic, &key) != b.fires(FaultKind::PhasePanic, &key)
            })
            .count();
        assert!(
            diverge > 1000,
            "seeds must decorrelate: {diverge}/4096 differ"
        );
    }

    #[test]
    fn maybe_panic_fires_and_is_catchable() {
        let plan = FaultPlan::from_seed(9).with_rate(FaultKind::PhasePanic, 1.0);
        let err = std::panic::catch_unwind(|| plan.maybe_panic("always")).unwrap_err();
        let reason = panic_reason(err.as_ref());
        assert!(reason.starts_with(INJECTED_PANIC_PREFIX), "{reason}");
        // Rate 0: no panic.
        FaultPlan::from_seed(9).maybe_panic("never");
    }

    #[test]
    fn chaos_profile_has_documented_rates() {
        let plan = FaultPlan::chaos(0);
        assert_eq!(plan.rate(FaultKind::PhasePanic), 0.10);
        assert_eq!(plan.rate(FaultKind::VerifierCorrupt), 0.05);
        assert_eq!(plan.rate(FaultKind::FuelExhaustion), 0.05);
        assert_eq!(plan.rate(FaultKind::WorkerPanic), 0.10);
    }

    #[test]
    fn panic_reason_handles_payload_shapes() {
        let e = std::panic::catch_unwind(|| panic!("plain &str")).unwrap_err();
        assert_eq!(panic_reason(e.as_ref()), "plain &str");
        let e = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_reason(e.as_ref()), "formatted 7");
        let e = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_reason(e.as_ref()), "panic with non-string payload");
    }
}
