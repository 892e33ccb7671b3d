//! The optimization-phase library: all 48 LLVM phases of the MLComp paper's
//! Table VI, implemented as real transforms over [`mlcomp_ir`], plus a pass
//! manager and the standard `-O1`/`-O2`/`-O3`/`-Oz` pipelines they are
//! compared against.
//!
//! Phases interact the way they do in LLVM — `mem2reg` gates `licm`/`gvn`,
//! `loop-rotate` gates `licm`, `indvars` gates `loop-unroll` and
//! `loop-vectorize`, `inline` feeds everything — which is exactly the
//! phase-ordering sensitivity the MLComp Phase Selection Policy learns to
//! exploit.
//!
//! # Example
//!
//! ```
//! use mlcomp_passes::{PassManager, PhaseOutcome};
//! use mlcomp_ir::{ModuleBuilder, Type};
//!
//! let mut mb = ModuleBuilder::new("m");
//! mb.begin_function("f", vec![Type::I64], Type::I64);
//! {
//!     let mut b = mb.body();
//!     let acc = b.local(b.param(0));
//!     let v = b.load(acc, Type::I64);
//!     b.ret(Some(v));
//! }
//! mb.finish_function();
//! let mut m = mb.build();
//!
//! let pm = PassManager::new();
//! let outcome = pm.run_phase_sandboxed(&mut m, "mem2reg", None, "mem2reg").unwrap();
//! assert_eq!(outcome, PhaseOutcome::Changed);
//! assert_eq!(m.functions[0].live_inst_count(), 0); // promoted away
//! ```

pub mod cfgopt;
pub mod cse;
pub mod dce;
#[cfg(test)]
mod interp_oracle;
pub mod ipo;
pub mod loops;
pub mod manager;
pub mod memory;
pub mod motion;
pub mod registry;
pub mod scalar;
pub mod sccp;
#[cfg(test)]
mod suite_states;
pub mod util;
pub mod vector;
#[cfg(test)]
mod verify_oracle;

pub use manager::{
    PassManager, PhaseOutcome, PipelineLevel, Quarantine, QuarantineEntry, QuarantineReason,
    Sandbox, SandboxReport, UnknownPhaseError,
};
pub use registry::{is_registered, run_phase_on, PHASE_COUNT};
