//! Static code feature extraction — the 63 Milepost-style features the
//! MLComp paper feeds to its Performance Estimator and Phase Selection
//! Policy.
//!
//! The feature set mirrors the categories of Milepost GCC (Fursin et al.):
//! per-module aggregates of CFG shape (blocks by predecessor/successor
//! arity, edges, critical edges), instruction mix (arithmetic, memory,
//! branches, calls, casts, vector ops), SSA structure (phis, phi arity),
//! loop structure (count, nesting, counted loops), call-graph shape and
//! constant usage. All counts are over non-declaration functions.
//!
//! # Example
//!
//! ```
//! use mlcomp_ir::{ModuleBuilder, Type};
//! use mlcomp_features::{extract, FEATURE_COUNT, FeatureVector};
//!
//! let mut mb = ModuleBuilder::new("m");
//! mb.begin_function("f", vec![Type::I64], Type::I64);
//! {
//!     let mut b = mb.body();
//!     let v = b.add(b.param(0), b.const_i64(1));
//!     b.ret(Some(v));
//! }
//! mb.finish_function();
//! let fv: FeatureVector = extract(&mb.build());
//! assert_eq!(fv.values.len(), FEATURE_COUNT);
//! assert!(fv.get("n_int_add") >= 1.0);
//! ```

use mlcomp_ir::analysis::AnalysisCache;
use mlcomp_ir::{BinOp, InstKind, Module, Terminator, UnOp, Value};
use serde::{Deserialize, Serialize};

/// Number of static features (the paper's "63 code features").
pub const FEATURE_COUNT: usize = 63;

/// Names of all 63 features, in vector order.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    // CFG shape (Milepost ft1–ft13 flavor)
    "n_blocks",
    "n_blocks_single_pred",
    "n_blocks_two_preds",
    "n_blocks_many_preds",
    "n_blocks_single_succ",
    "n_blocks_two_succs",
    "n_blocks_many_succs",
    "n_blocks_single_pred_single_succ",
    "n_blocks_single_pred_two_succs",
    "n_blocks_two_preds_single_succ",
    "n_cfg_edges",
    "n_critical_edges",
    "n_abnormal_blocks",
    // Block size distribution
    "n_blocks_small",
    "n_blocks_medium",
    "n_blocks_large",
    "avg_block_insts",
    // Instruction mix
    "n_insts",
    "n_int_add",
    "n_int_sub",
    "n_int_mul",
    "n_int_div_rem",
    "n_fp_add_sub",
    "n_fp_mul",
    "n_fp_div_rem",
    "n_fp_special",
    "n_logic_ops",
    "n_shift_ops",
    "n_cmp",
    "n_select",
    "n_cast",
    "n_gep",
    "n_load",
    "n_store",
    "n_alloca",
    "n_mem_intrinsic",
    "n_vector_ops",
    "n_unary",
    // SSA / dataflow
    "n_phi",
    "avg_phi_args",
    "n_phi_blocks",
    "max_phi_per_block",
    "n_const_int_operands",
    "n_const_fp_operands",
    "n_operands_total",
    // Control
    "n_cond_branches",
    "n_uncond_branches",
    "n_switches",
    "n_returns",
    "n_weighted_branches",
    // Loops
    "n_loops",
    "max_loop_depth",
    "n_counted_loops",
    "n_loop_blocks",
    "avg_loop_trip_estimate",
    // Calls / functions
    "n_functions",
    "n_calls",
    "n_indirect_calls",
    "n_recursive_functions",
    "avg_call_args",
    "n_params_total",
    // Globals / memory footprint
    "n_globals",
    "global_cells_total",
];

/// A named 63-dimensional static feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Values, ordered as [`FEATURE_NAMES`].
    pub values: Vec<f64>,
}

impl FeatureVector {
    /// Looks a feature up by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`FEATURE_NAMES`].
    pub fn get(&self, name: &str) -> f64 {
        let idx = FEATURE_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown feature `{name}`"));
        self.values[idx]
    }

    /// Iterates `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        FEATURE_NAMES
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }
}

/// Extracts the full feature vector from a module.
pub fn extract(m: &Module) -> FeatureVector {
    extract_cached(m, &mut AnalysisCache::new())
}

/// [`extract`], taking the CFGs, loop forests and call graph from `cache`,
/// which must describe `m`, and leaving what it builds there. Given a
/// sandbox session's cache (`mlcomp_passes::Sandbox::analysed`), the
/// session's next phase runs find them.
pub fn extract_cached(m: &Module, cache: &mut AnalysisCache) -> FeatureVector {
    let mut c = Counters::default();

    for fid in m.function_ids() {
        let f = m.function(fid);
        if f.is_declaration {
            continue;
        }
        c.n_functions += 1.0;
        c.n_params_total += f.params.len() as f64;

        let (cfg, _, lf) = cache.function(fid).loop_forest(f);

        c.n_loops += lf.loops.len() as f64;
        c.max_loop_depth = c.max_loop_depth.max(lf.max_depth() as f64);
        for l in &lf.loops {
            c.n_loop_blocks += l.blocks.len() as f64;
            if let Some(tc) = l.trip_count(f) {
                c.n_counted_loops += 1.0;
                if let Some(t) = tc.const_trips {
                    c.trip_sum += t as f64;
                    c.trip_n += 1.0;
                }
            }
        }

        for b in f.block_ids() {
            let blk = f.block(b);
            c.n_blocks += 1.0;
            let np = cfg.preds[b.index()].len();
            let ns = cfg.succs[b.index()].len();
            match np {
                1 => c.n_blocks_single_pred += 1.0,
                2 => c.n_blocks_two_preds += 1.0,
                x if x > 2 => c.n_blocks_many_preds += 1.0,
                _ => {}
            }
            match ns {
                1 => c.n_blocks_single_succ += 1.0,
                2 => c.n_blocks_two_succs += 1.0,
                x if x > 2 => c.n_blocks_many_succs += 1.0,
                _ => {}
            }
            if np == 1 && ns == 1 {
                c.n_blocks_1p1s += 1.0;
            }
            if np == 1 && ns == 2 {
                c.n_blocks_1p2s += 1.0;
            }
            if np == 2 && ns == 1 {
                c.n_blocks_2p1s += 1.0;
            }
            c.n_cfg_edges += ns as f64;
            for &s in &cfg.succs[b.index()] {
                if cfg.is_critical_edge(b, s) {
                    c.n_critical_edges += 1.0;
                }
            }
            let sz = blk.insts.len();
            if sz < 4 {
                c.n_blocks_small += 1.0;
            } else if sz <= 15 {
                c.n_blocks_medium += 1.0;
            } else {
                c.n_blocks_large += 1.0;
            }

            let mut phis_here = 0.0;
            for &id in &blk.insts {
                let inst = f.inst(id);
                c.n_insts += 1.0;
                inst.kind.for_each_operand(|v| {
                    c.n_operands_total += 1.0;
                    match v {
                        Value::ConstInt(..) => c.n_const_int_operands += 1.0,
                        Value::ConstFloat(..) => c.n_const_fp_operands += 1.0,
                        _ => {}
                    }
                });
                match &inst.kind {
                    InstKind::Bin { op, width, .. } => {
                        if *width > 1 {
                            c.n_vector_ops += 1.0;
                        }
                        match op {
                            BinOp::Add => c.n_int_add += 1.0,
                            BinOp::Sub => c.n_int_sub += 1.0,
                            BinOp::Mul => c.n_int_mul += 1.0,
                            BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem => {
                                c.n_int_div_rem += 1.0
                            }
                            BinOp::FAdd | BinOp::FSub => c.n_fp_add_sub += 1.0,
                            BinOp::FMul => c.n_fp_mul += 1.0,
                            BinOp::FDiv | BinOp::FRem => c.n_fp_div_rem += 1.0,
                            BinOp::And | BinOp::Or | BinOp::Xor => c.n_logic_ops += 1.0,
                            BinOp::Shl | BinOp::AShr | BinOp::LShr => c.n_shift_ops += 1.0,
                        }
                    }
                    InstKind::Un { op, .. } => {
                        c.n_unary += 1.0;
                        if op.is_expensive_float() {
                            c.n_fp_special += 1.0;
                        }
                        if matches!(op, UnOp::FNeg | UnOp::FAbs) {
                            c.n_fp_add_sub += 1.0;
                        }
                    }
                    InstKind::Cmp { .. } => c.n_cmp += 1.0,
                    InstKind::Select { .. } => c.n_select += 1.0,
                    InstKind::Cast { .. } => c.n_cast += 1.0,
                    InstKind::Phi { incomings } => {
                        c.n_phi += 1.0;
                        phis_here += 1.0;
                        c.phi_args += incomings.len() as f64;
                    }
                    InstKind::Alloca { .. } => c.n_alloca += 1.0,
                    InstKind::Load { width, .. } => {
                        c.n_load += 1.0;
                        if *width > 1 {
                            c.n_vector_ops += 1.0;
                        }
                    }
                    InstKind::Store { width, .. } => {
                        c.n_store += 1.0;
                        if *width > 1 {
                            c.n_vector_ops += 1.0;
                        }
                    }
                    InstKind::Gep { .. } => c.n_gep += 1.0,
                    InstKind::Call { callee, args } => {
                        c.n_calls += 1.0;
                        c.call_args += args.len() as f64;
                        if matches!(callee, mlcomp_ir::Callee::Indirect(_)) {
                            c.n_indirect_calls += 1.0;
                        }
                    }
                    InstKind::Memset { .. } | InstKind::Memcpy { .. } => c.n_mem_intrinsic += 1.0,
                    InstKind::Expect { .. } => c.n_unary += 1.0,
                }
            }
            if phis_here > 0.0 {
                c.n_phi_blocks += 1.0;
            }
            c.max_phi_per_block = c.max_phi_per_block.max(phis_here);

            match &blk.term {
                Terminator::Br(_) => c.n_uncond_branches += 1.0,
                Terminator::CondBr { weight, .. } => {
                    c.n_cond_branches += 1.0;
                    if weight.is_some() {
                        c.n_weighted_branches += 1.0;
                    }
                }
                Terminator::Switch { .. } => c.n_switches += 1.0,
                Terminator::Ret(_) => c.n_returns += 1.0,
                Terminator::Unreachable => c.n_abnormal += 1.0,
            }
        }
    }

    let cg = cache.call_graph(m);
    for fid in m.function_ids() {
        if !m.function(fid).is_declaration && cg.is_recursive(fid) {
            c.n_recursive += 1.0;
        }
    }
    c.n_globals = m.global_ids().count() as f64;
    c.global_cells = m.global_ids().map(|g| m.global(g).cells as f64).sum();

    FeatureVector {
        values: c.into_vector(),
    }
}

#[derive(Default)]
struct Counters {
    n_blocks: f64,
    n_blocks_single_pred: f64,
    n_blocks_two_preds: f64,
    n_blocks_many_preds: f64,
    n_blocks_single_succ: f64,
    n_blocks_two_succs: f64,
    n_blocks_many_succs: f64,
    n_blocks_1p1s: f64,
    n_blocks_1p2s: f64,
    n_blocks_2p1s: f64,
    n_cfg_edges: f64,
    n_critical_edges: f64,
    n_abnormal: f64,
    n_blocks_small: f64,
    n_blocks_medium: f64,
    n_blocks_large: f64,
    n_insts: f64,
    n_int_add: f64,
    n_int_sub: f64,
    n_int_mul: f64,
    n_int_div_rem: f64,
    n_fp_add_sub: f64,
    n_fp_mul: f64,
    n_fp_div_rem: f64,
    n_fp_special: f64,
    n_logic_ops: f64,
    n_shift_ops: f64,
    n_cmp: f64,
    n_select: f64,
    n_cast: f64,
    n_gep: f64,
    n_load: f64,
    n_store: f64,
    n_alloca: f64,
    n_mem_intrinsic: f64,
    n_vector_ops: f64,
    n_unary: f64,
    n_phi: f64,
    phi_args: f64,
    n_phi_blocks: f64,
    max_phi_per_block: f64,
    n_const_int_operands: f64,
    n_const_fp_operands: f64,
    n_operands_total: f64,
    n_cond_branches: f64,
    n_uncond_branches: f64,
    n_switches: f64,
    n_returns: f64,
    n_weighted_branches: f64,
    n_loops: f64,
    max_loop_depth: f64,
    n_counted_loops: f64,
    n_loop_blocks: f64,
    trip_sum: f64,
    trip_n: f64,
    n_functions: f64,
    n_calls: f64,
    n_indirect_calls: f64,
    n_recursive: f64,
    call_args: f64,
    n_params_total: f64,
    n_globals: f64,
    global_cells: f64,
}

impl Counters {
    fn into_vector(self) -> Vec<f64> {
        let avg = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let v = vec![
            self.n_blocks,
            self.n_blocks_single_pred,
            self.n_blocks_two_preds,
            self.n_blocks_many_preds,
            self.n_blocks_single_succ,
            self.n_blocks_two_succs,
            self.n_blocks_many_succs,
            self.n_blocks_1p1s,
            self.n_blocks_1p2s,
            self.n_blocks_2p1s,
            self.n_cfg_edges,
            self.n_critical_edges,
            self.n_abnormal,
            self.n_blocks_small,
            self.n_blocks_medium,
            self.n_blocks_large,
            avg(self.n_insts, self.n_blocks),
            self.n_insts,
            self.n_int_add,
            self.n_int_sub,
            self.n_int_mul,
            self.n_int_div_rem,
            self.n_fp_add_sub,
            self.n_fp_mul,
            self.n_fp_div_rem,
            self.n_fp_special,
            self.n_logic_ops,
            self.n_shift_ops,
            self.n_cmp,
            self.n_select,
            self.n_cast,
            self.n_gep,
            self.n_load,
            self.n_store,
            self.n_alloca,
            self.n_mem_intrinsic,
            self.n_vector_ops,
            self.n_unary,
            self.n_phi,
            avg(self.phi_args, self.n_phi),
            self.n_phi_blocks,
            self.max_phi_per_block,
            self.n_const_int_operands,
            self.n_const_fp_operands,
            self.n_operands_total,
            self.n_cond_branches,
            self.n_uncond_branches,
            self.n_switches,
            self.n_returns,
            self.n_weighted_branches,
            self.n_loops,
            self.max_loop_depth,
            self.n_counted_loops,
            self.n_loop_blocks,
            avg(self.trip_sum, self.trip_n),
            self.n_functions,
            self.n_calls,
            self.n_indirect_calls,
            self.n_recursive,
            avg(self.call_args, self.n_calls),
            self.n_params_total,
            self.n_globals,
            self.global_cells,
        ];
        debug_assert_eq!(v.len(), FEATURE_COUNT);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{ModuleBuilder, Type};

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let c = b.load(acc, Type::I64);
                let n = b.add(c, i);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn vector_has_63_entries() {
        let fv = extract(&loop_module());
        assert_eq!(fv.values.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        let mut names = FEATURE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FEATURE_COUNT, "feature names are unique");
    }

    #[test]
    fn counts_match_structure() {
        let fv = extract(&loop_module());
        assert_eq!(fv.get("n_functions"), 1.0);
        assert_eq!(fv.get("n_loops"), 1.0);
        assert_eq!(fv.get("n_counted_loops"), 1.0);
        assert_eq!(fv.get("n_blocks"), 5.0);
        assert_eq!(fv.get("n_phi"), 1.0);
        assert!(fv.get("n_load") >= 2.0);
        assert!(fv.get("n_store") >= 2.0);
        assert_eq!(fv.get("n_alloca"), 1.0);
        assert_eq!(fv.get("n_cond_branches"), 1.0);
        assert_eq!(fv.get("n_returns"), 1.0);
    }

    #[test]
    fn features_respond_to_optimization_like_changes() {
        // Removing loads (as mem2reg would) must change the feature vector.
        let m1 = loop_module();
        let mut m2 = loop_module();
        let f = &mut m2.functions[0];
        for b in f.block_ids().collect::<Vec<_>>() {
            let ids = f.block(b).insts.clone();
            for id in ids {
                if matches!(f.inst(id).kind, InstKind::Load { .. }) {
                    f.remove_from_block(b, id);
                }
            }
        }
        let f1 = extract(&m1);
        let f2 = extract(&m2);
        assert_ne!(f1, f2);
        assert!(f2.get("n_load") < f1.get("n_load"));
    }

    #[test]
    fn empty_module_is_all_zero() {
        let fv = extract(&Module::new("empty"));
        assert!(fv.values.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn iter_pairs_names_with_values() {
        let fv = extract(&loop_module());
        let pairs: Vec<_> = fv.iter().collect();
        assert_eq!(pairs.len(), FEATURE_COUNT);
        assert_eq!(pairs[0].0, "n_blocks");
        assert_eq!(pairs[0].1, fv.get("n_blocks"));
    }

    #[test]
    fn recursion_and_globals_counted() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_const_global("tab", vec![1, 2, 3, 4]);
        let fib = mb.declare("fib", vec![Type::I64], Type::I64);
        mb.begin_existing(fib);
        {
            let mut b = mb.body();
            let c = b.cmp(mlcomp_ir::CmpPred::Lt, b.param(0), b.const_i64(2));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.param(0),
                |b| {
                    let n1 = b.sub(b.param(0), b.const_i64(1));
                    b.call(fib, vec![n1], Type::I64)
                },
            );
            let p = b.gep(b.global_addr(g), b.const_i64(0));
            let t = b.load(p, Type::I64);
            let s = b.add(v, t);
            b.ret(Some(s));
        }
        mb.finish_function();
        let fv = extract(&mb.build());
        assert_eq!(fv.get("n_recursive_functions"), 1.0);
        assert_eq!(fv.get("n_globals"), 1.0);
        assert_eq!(fv.get("global_cells_total"), 4.0);
        assert_eq!(fv.get("n_calls"), 1.0);
        assert_eq!(fv.get("avg_call_args"), 1.0);
    }
}
