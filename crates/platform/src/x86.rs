//! The x86 (Core i7-class) platform model — out-of-order, superscalar,
//! SIMD-capable, with a RAPL-like package energy model.

use crate::model::{CostModel, TargetPlatform};

/// An Intel Core i7-class desktop target: ~3.5 GHz, effective ILP folded
/// into sub-1.0 cycles-per-op for simple ALU work, strong SIMD, large
/// static (package) power. Stands in for the paper's RAPL-profiled x86
/// host.
#[derive(Debug, Clone)]
pub struct X86Platform {
    model: CostModel,
}

impl X86Platform {
    /// Creates the default i7-like model.
    pub fn new() -> X86Platform {
        X86Platform {
            model: CostModel {
                freq_hz: 3.5e9,
                static_power_w: 15.0,
                simd_speedup: 3.2,
                //        alu   mul  div  fadd fmul fdiv  fspec load store jump branch call ret alloca
                cycles: [
                    0.35, 1.0, 18.0, 0.5, 0.5, 11.0, 22.0, 0.7, 0.9, 0.25, 0.7, 2.5, 1.5, 0.3,
                ],
                unaligned_penalty: 1.0,
                mispredict_penalty: 14.0,
                memset_cell_cycles: 0.25,
                memcpy_cell_cycles: 0.4,
                mem_intrinsic_overhead: 12.0,
                energy: [
                    0.30e-9, 0.80e-9, 6.0e-9, 0.9e-9, 1.0e-9, 5.0e-9, 9.0e-9, 1.6e-9, 2.0e-9,
                    0.2e-9, 0.5e-9, 2.2e-9, 1.4e-9, 0.3e-9,
                ],
                unaligned_energy: 0.8e-9,
                mem_cell_energy: 0.5e-9,
                //           alu  muldiv fp  mem  cmpsel castgep call branch phi  intrinsic
                inst_bytes: [3.0, 4.0, 5.0, 4.0, 3.0, 3.5, 5.0, 2.0, 2.0, 9.0],
                function_overhead_bytes: 12.0,
                vector_encoding_bytes: 2.0,
            },
        }
    }
}

impl Default for X86Platform {
    fn default() -> Self {
        X86Platform::new()
    }
}

impl TargetPlatform for X86Platform {
    fn name(&self) -> &'static str {
        "x86"
    }

    fn cost_model(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::DynCounts;

    #[test]
    fn reasonable_throughput() {
        let p = X86Platform::new();
        // 1M simple ALU ops should take well under a millisecond.
        let c = DynCounts {
            int_alu: 1_000_000,
            ..DynCounts::default()
        };
        let t = p.cost_model().cycles(&c) / p.cost_model().freq_hz;
        assert!(t < 1e-3 && t > 1e-6, "t = {t}");
    }

    #[test]
    fn divides_are_much_slower_than_adds() {
        let p = X86Platform::new();
        let adds = DynCounts {
            int_alu: 1000,
            ..DynCounts::default()
        };
        let divs = DynCounts {
            int_div: 1000,
            ..DynCounts::default()
        };
        assert!(p.cost_model().cycles(&divs) > 20.0 * p.cost_model().cycles(&adds));
    }
}
