//! The RISC-V embedded platform model — in-order, scalar, statically
//! predicted branches, with a McPAT-like per-operation energy model.
//!
//! This is the substitution for the paper's HIPERSIM + McPAT simulation
//! stack: a deterministic analytic pipeline model for a ~100 MHz embedded
//! RV64 core. Its cost structure differs from x86 in exactly the ways that
//! matter for phase selection: no SIMD unit (vectorization buys nothing),
//! expensive multiplies/divides (strength reduction pays off), costly
//! branches with a static predictor (branch hints and if-conversion pay
//! off), and uniform 4-byte encodings (code size scales with instruction
//! count).

use crate::model::{CostModel, TargetPlatform};

/// An embedded RV64 in-order core at 100 MHz.
#[derive(Debug, Clone)]
pub struct RiscVPlatform {
    model: CostModel,
}

impl RiscVPlatform {
    /// Creates the default embedded-core model.
    pub fn new() -> RiscVPlatform {
        RiscVPlatform {
            model: CostModel {
                freq_hz: 100.0e6,
                static_power_w: 0.012,
                simd_speedup: 1.0, // no vector unit
                //        alu  mul  div   fadd fmul fdiv  fspec load store jump branch call ret alloca
                cycles: [
                    1.0, 4.0, 38.0, 4.0, 5.0, 28.0, 70.0, 2.2, 2.0, 2.0, 2.5, 4.0, 4.0, 1.0,
                ],
                unaligned_penalty: 4.0,
                mispredict_penalty: 5.0,
                memset_cell_cycles: 1.2,
                memcpy_cell_cycles: 2.0,
                mem_intrinsic_overhead: 24.0,
                energy: [
                    18.0e-12, 60.0e-12, 500.0e-12, 70.0e-12, 90.0e-12, 420.0e-12, 900.0e-12,
                    95.0e-12, 105.0e-12, 22.0e-12, 30.0e-12, 80.0e-12, 70.0e-12, 18.0e-12,
                ],
                unaligned_energy: 150.0e-12,
                mem_cell_energy: 45.0e-12,
                //           alu  muldiv fp   mem  cmpsel castgep call branch phi  intrinsic
                inst_bytes: [4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 8.0, 4.0, 4.0, 16.0],
                function_overhead_bytes: 16.0,
                vector_encoding_bytes: 0.0,
            },
        }
    }
}

impl Default for RiscVPlatform {
    fn default() -> Self {
        RiscVPlatform::new()
    }
}

impl TargetPlatform for RiscVPlatform {
    fn name(&self) -> &'static str {
        "riscv"
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x86::X86Platform;
    use mlcomp_ir::DynCounts;

    #[test]
    fn much_slower_than_x86() {
        let rv = RiscVPlatform::new();
        let x86 = X86Platform::new();
        let c = DynCounts {
            int_alu: 100_000,
            int_mul: 10_000,
            load: 20_000,
            ..DynCounts::default()
        };
        let t_rv = rv.cost_model().cycles(&c) / rv.cost_model().freq_hz;
        let t_x86 = x86.cost_model().cycles(&c) / x86.cost_model().freq_hz;
        assert!(t_rv > 20.0 * t_x86);
    }

    #[test]
    fn but_far_lower_power() {
        let rv = RiscVPlatform::new();
        let x86 = X86Platform::new();
        let c = DynCounts {
            int_alu: 100_000,
            ..DynCounts::default()
        };
        // Average power = energy / time.
        let p_rv =
            rv.cost_model().energy(&c) / (rv.cost_model().cycles(&c) / rv.cost_model().freq_hz);
        let p_x86 =
            x86.cost_model().energy(&c) / (x86.cost_model().cycles(&c) / x86.cost_model().freq_hz);
        assert!(p_rv < p_x86 / 100.0, "rv {p_rv} W vs x86 {p_x86} W");
    }

    #[test]
    fn vectorization_buys_nothing_here() {
        let rv = RiscVPlatform::new();
        let scalar = DynCounts {
            int_alu: 1000,
            ..DynCounts::default()
        };
        let vectored = DynCounts {
            int_alu: 1000,
            vector_ops: 800,
            vector_lanes: 3200,
            ..DynCounts::default()
        };
        assert_eq!(
            rv.cost_model().cycles(&scalar),
            rv.cost_model().cycles(&vectored)
        );
    }

    #[test]
    fn names_differ() {
        assert_ne!(RiscVPlatform::new().name(), X86Platform::new().name());
    }
}
