//! The profiler: executes a module on the interpreter and converts the
//! dynamic counts into platform metrics, optionally with measurement
//! noise.

use crate::metrics::DynamicFeatures;
use crate::model::TargetPlatform;
use mlcomp_ir::{ExecError, FuncId, InterpConfig, Interpreter, Module, RtVal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An executable workload: an entry function plus its arguments.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Entry function name.
    pub entry: String,
    /// Arguments passed to the entry.
    pub args: Vec<RtVal>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(entry: impl Into<String>, args: Vec<RtVal>) -> Workload {
        Workload {
            entry: entry.into(),
            args,
        }
    }
}

/// Profiles modules on a target platform.
///
/// Real profiling (RAPL counters, simulator runs) is noisy; the optional
/// Gaussian noise models that jitter deterministically so experiments stay
/// reproducible. Noise applies to the time and energy channels only —
/// instruction counts and code size are exact in real toolchains too.
#[derive(Debug, Clone)]
pub struct Profiler<'p, P: TargetPlatform + ?Sized> {
    platform: &'p P,
    noise_rel_sigma: f64,
    noise_seed: u64,
    interp_config: InterpConfig,
}

impl<'p, P: TargetPlatform + ?Sized> Profiler<'p, P> {
    /// Creates a noise-free profiler.
    pub fn new(platform: &'p P) -> Profiler<'p, P> {
        Profiler {
            platform,
            noise_rel_sigma: 0.0,
            noise_seed: 0,
            interp_config: InterpConfig::default(),
        }
    }

    /// Enables Gaussian measurement noise with the given relative sigma
    /// (e.g. `0.01` = 1% jitter) and seed.
    pub fn with_noise(mut self, rel_sigma: f64, seed: u64) -> Self {
        self.noise_rel_sigma = rel_sigma;
        self.noise_seed = seed;
        self
    }

    /// Overrides interpreter limits (fuel, stack, memory).
    pub fn with_interp_config(mut self, config: InterpConfig) -> Self {
        self.interp_config = config;
        self
    }

    /// The platform this profiler measures on.
    pub fn platform(&self) -> &P {
        self.platform
    }

    /// Runs the workload and returns the measured dynamic features.
    ///
    /// # Errors
    ///
    /// Returns the interpreter's [`ExecError`] if the workload traps, runs
    /// out of fuel, or names a missing entry function.
    pub fn profile(&self, module: &Module, w: &Workload) -> Result<DynamicFeatures, ExecError> {
        let entry = module.find_function(&w.entry).ok_or(ExecError::BadCall {
            target: w.entry.clone(),
        })?;
        self.profile_entry(module, entry, &w.args)
    }

    /// Like [`Profiler::profile`], with a resolved entry id.
    ///
    /// # Errors
    ///
    /// Returns the interpreter's [`ExecError`] on trap or limit.
    pub fn profile_entry(
        &self,
        module: &Module,
        entry: FuncId,
        args: &[RtVal],
    ) -> Result<DynamicFeatures, ExecError> {
        let out = Interpreter::with_config(module, self.interp_config).run(entry, args)?;
        let mut feats = self.platform.features(&out.counts, module);
        if self.noise_rel_sigma > 0.0 {
            let mut rng = StdRng::seed_from_u64(self.noise_seed);
            feats.exec_time_s *= 1.0 + self.noise_rel_sigma * gauss(&mut rng);
            feats.energy_j *= 1.0 + self.noise_rel_sigma * gauss(&mut rng);
        }
        Ok(feats)
    }
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riscv::RiscVPlatform;
    use crate::x86::X86Platform;
    use mlcomp_ir::{ModuleBuilder, Type};

    fn workload_module() -> Module {
        let mut mb = ModuleBuilder::new("w");
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let sq = b.mul(i, i);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, sq);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn profiles_on_both_platforms() {
        let m = workload_module();
        let w = Workload::new("main", vec![RtVal::I(500)]);
        let x86 = X86Platform::new();
        let rv = RiscVPlatform::new();
        let fx = Profiler::new(&x86).profile(&m, &w).unwrap();
        let fr = Profiler::new(&rv).profile(&m, &w).unwrap();
        assert!(fx.exec_time_s > 0.0 && fr.exec_time_s > fx.exec_time_s);
        assert!(fx.energy_j > fr.energy_j, "desktop burns more joules");
        assert_eq!(fx.instructions, fr.instructions, "same scalar program");
        assert!(fr.code_size > 0.0 && fx.code_size > 0.0);
    }

    #[test]
    fn deterministic_without_noise() {
        let m = workload_module();
        let w = Workload::new("main", vec![RtVal::I(100)]);
        let p = X86Platform::new();
        let a = Profiler::new(&p).profile(&m, &w).unwrap();
        let b = Profiler::new(&p).profile(&m, &w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn noise_is_seeded_and_small() {
        let m = workload_module();
        let w = Workload::new("main", vec![RtVal::I(100)]);
        let p = X86Platform::new();
        let clean = Profiler::new(&p).profile(&m, &w).unwrap();
        let n1 = Profiler::new(&p)
            .with_noise(0.01, 7)
            .profile(&m, &w)
            .unwrap();
        let n2 = Profiler::new(&p)
            .with_noise(0.01, 7)
            .profile(&m, &w)
            .unwrap();
        let n3 = Profiler::new(&p)
            .with_noise(0.01, 8)
            .profile(&m, &w)
            .unwrap();
        assert_eq!(n1, n2, "same seed, same measurement");
        assert_ne!(n1, n3, "different seed, different jitter");
        let rel = (n1.exec_time_s - clean.exec_time_s).abs() / clean.exec_time_s;
        assert!(rel < 0.1, "noise is bounded: {rel}");
        assert_eq!(n1.instructions, clean.instructions, "counts stay exact");
    }

    #[test]
    fn missing_entry_is_an_error() {
        let m = workload_module();
        let p = X86Platform::new();
        let e = Profiler::new(&p)
            .profile(&m, &Workload::new("nope", vec![]))
            .unwrap_err();
        assert!(matches!(e, ExecError::BadCall { .. }));
    }

    #[test]
    fn bigger_workload_costs_more() {
        let m = workload_module();
        let p = RiscVPlatform::new();
        let small = Profiler::new(&p)
            .profile(&m, &Workload::new("main", vec![RtVal::I(10)]))
            .unwrap();
        let large = Profiler::new(&p)
            .profile(&m, &Workload::new("main", vec![RtVal::I(1000)]))
            .unwrap();
        assert!(large.exec_time_s > 10.0 * small.exec_time_s);
        assert!(large.energy_j > 10.0 * small.energy_j);
        assert_eq!(large.code_size, small.code_size, "size is static");
    }
}
