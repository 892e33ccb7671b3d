//! The phase registry: every optimization phase of the paper's Table VI,
//! addressable by its LLVM name.

use mlcomp_ir::{Function, Module};

/// Number of phases in the paper's Table VI.
pub const PHASE_COUNT: usize = 48;

/// The 48 phase names of Table VI, in the paper's (alphabetical) order.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "adce",
    "aggressive-instcombine",
    "alignment-from-assumptions",
    "argpromotion",
    "bdce",
    "called-value-propagation",
    "callsite-splitting",
    "constmerge",
    "correlated-propagation",
    "deadargelim",
    "div-rem-pairs",
    "dse",
    "early-cse",
    "early-cse-memssa",
    "elim-avail-extern",
    "float2int",
    "globaldce",
    "globalopt",
    "globals-aa",
    "gvn",
    "indvars",
    "inline",
    "instcombine",
    "instsimplify",
    "ipsccp",
    "jump-threading",
    "licm",
    "loop-deletion",
    "loop-distribute",
    "loop-idiom",
    "loop-load-elim",
    "loop-rotate",
    "loop-sink",
    "loop-unroll",
    "loop-unswitch",
    "loop-vectorize",
    "lower-expect",
    "mem2reg",
    "memcpyopt",
    "mldst-motion",
    "prune-eh",
    "reassociate",
    "sccp",
    "simplifycfg",
    "slp-vectorizer",
    "speculative-execution",
    "sroa",
    "tailcallelim",
];

/// Whether `name` is a registered phase — the cheap pre-flight check the
/// pass manager uses to validate whole sequences before mutating a module.
pub fn is_registered(name: &str) -> bool {
    PHASE_NAMES.contains(&name)
}

/// FNV-1a hash over the phase count and ordered phase names.
///
/// The hash changes whenever a phase is added, removed, renamed or
/// reordered, so an artifact bundle trained against one registry can
/// refuse to deploy against another: a policy's action indices are only
/// meaningful relative to the exact registry it was trained with.
///
/// # Examples
///
/// ```
/// use mlcomp_passes::registry;
///
/// // Stable within a build: deployment compares this value against the
/// // one recorded in a bundle at training time.
/// assert_eq!(registry::registry_hash(), registry::registry_hash());
/// ```
pub fn registry_hash() -> u64 {
    hash_names(&PHASE_NAMES)
}

/// FNV-1a over the name count (little-endian `u64`) followed by each name
/// and a `0` separator, so renames cannot alias across name boundaries.
fn hash_names(names: &[&str]) -> u64 {
    let mut bytes = (names.len() as u64).to_le_bytes().to_vec();
    for name in names {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
    }
    mlcomp_parallel::seed::fnv1a(&bytes)
}

/// Runs one phase by name over a module. Returns `Some(changed)` or `None`
/// for unknown names.
///
/// Function phases run over every function body (with a module snapshot
/// for interprocedural queries like `readnone`); module phases run once.
///
/// This is the raw reference path: no sandbox, and it copies the module
/// for the function phases' snapshot. Pipelines run phases through
/// [`PassManager::run_phase_sandboxed`](crate::PassManager::run_phase_sandboxed),
/// which lends its rollback snapshot instead.
pub fn run_phase_on(m: &mut Module, name: &str) -> Option<bool> {
    let before = m.clone();
    run_phase(m, &before, name)
}

/// Runs one phase by name over `m`, whose pre-phase state is `before`: the
/// module snapshot every function phase reads for interprocedural
/// queries. `before` must equal `m`.
pub(crate) fn run_phase(m: &mut Module, before: &Module, name: &str) -> Option<bool> {
    let changed = match name {
        // Module phases.
        "inline" => crate::ipo::inline(m),
        "argpromotion" => crate::ipo::argpromotion(m),
        "deadargelim" => crate::ipo::deadargelim(m),
        "globaldce" => crate::ipo::globaldce(m),
        "globalopt" => crate::ipo::globalopt(m),
        "constmerge" => crate::ipo::constmerge(m),
        "called-value-propagation" => crate::ipo::called_value_propagation(m),
        "elim-avail-extern" => crate::ipo::elim_avail_extern(m),
        "prune-eh" => crate::ipo::prune_eh(m),
        "globals-aa" => crate::ipo::globals_aa(m),
        "tailcallelim" => crate::ipo::tailcallelim(m),
        "ipsccp" => crate::sccp::ipsccp(m),
        // Function phases.
        "adce" => run_fn(m, before, crate::dce::adce),
        "aggressive-instcombine" => run_fn(m, before, crate::scalar::aggressive_instcombine),
        "alignment-from-assumptions" => {
            run_fn(m, before, crate::scalar::alignment_from_assumptions)
        }
        "bdce" => run_fn(m, before, crate::scalar::bdce),
        "callsite-splitting" => run_fn(m, before, crate::cfgopt::callsite_splitting),
        "correlated-propagation" => run_fn(m, before, crate::sccp::correlated_propagation),
        "div-rem-pairs" => run_fn(m, before, crate::scalar::div_rem_pairs),
        "dse" => run_fn(m, before, crate::dce::dse),
        "early-cse" => run_fn(m, before, crate::cse::early_cse),
        "early-cse-memssa" => run_fn(m, before, crate::cse::early_cse_memssa),
        "float2int" => run_fn(m, before, crate::scalar::float2int),
        "gvn" => run_fn(m, before, crate::cse::gvn),
        "indvars" => run_fn(m, before, crate::loops::indvars),
        "instcombine" => run_fn(m, before, crate::scalar::instcombine),
        "instsimplify" => run_fn(m, before, crate::scalar::instsimplify),
        "jump-threading" => run_fn(m, before, crate::cfgopt::jump_threading),
        "licm" => run_fn(m, before, crate::loops::licm),
        "loop-deletion" => run_fn(m, before, crate::loops::loop_deletion),
        "loop-distribute" => run_fn(m, before, crate::loops::loop_distribute),
        "loop-idiom" => run_fn(m, before, crate::loops::loop_idiom),
        "loop-load-elim" => run_fn(m, before, crate::loops::loop_load_elim),
        "loop-rotate" => run_fn(m, before, crate::loops::loop_rotate),
        "loop-sink" => run_fn(m, before, crate::loops::loop_sink),
        "loop-unroll" => run_fn(m, before, crate::loops::loop_unroll),
        "loop-unswitch" => run_fn(m, before, crate::loops::loop_unswitch),
        "loop-vectorize" => run_fn(m, before, crate::vector::loop_vectorize),
        "lower-expect" => run_fn(m, before, crate::scalar::lower_expect),
        "mem2reg" => run_fn(m, before, crate::memory::mem2reg),
        "memcpyopt" => run_fn(m, before, crate::motion::memcpyopt),
        "mldst-motion" => run_fn(m, before, crate::motion::mldst_motion),
        "reassociate" => run_fn(m, before, crate::scalar::reassociate),
        "sccp" => run_fn(m, before, crate::sccp::sccp),
        "simplifycfg" => run_fn(m, before, crate::cfgopt::simplifycfg),
        "slp-vectorizer" => run_fn(m, before, crate::vector::slp_vectorizer),
        "speculative-execution" => run_fn(m, before, crate::motion::speculative_execution),
        "sroa" => run_fn(m, before, crate::memory::sroa),
        _ => return None,
    };
    Some(changed)
}

fn run_fn(m: &mut Module, before: &Module, pass: fn(&Module, &mut Function) -> bool) -> bool {
    let mut changed = false;
    for f in m.functions.iter_mut() {
        if !f.is_declaration {
            changed |= pass(before, f);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, ModuleBuilder, Type};

    #[test]
    fn exactly_48_phases() {
        assert_eq!(PHASE_NAMES.len(), PHASE_COUNT);
        let mut sorted = PHASE_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), PHASE_COUNT, "no duplicate names");
    }

    #[test]
    fn every_phase_runs_on_a_nontrivial_module() {
        for name in PHASE_NAMES {
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
            let mut m = mb.build();
            let result = run_phase_on(&mut m, name);
            assert!(result.is_some(), "phase `{name}` must be registered");
            verify(&m).unwrap_or_else(|e| panic!("phase `{name}` broke the IR: {e}"));
        }
    }

    #[test]
    fn registry_hash_is_stable_and_order_sensitive() {
        assert_eq!(registry_hash(), registry_hash());
        // Recompute with two names swapped: the hash must differ.
        let mut swapped = PHASE_NAMES;
        swapped.swap(0, 1);
        assert_ne!(registry_hash(), hash_names(&swapped));
    }

    #[test]
    fn unknown_phase_is_none() {
        let mut m = mlcomp_ir::Module::new("t");
        assert_eq!(run_phase_on(&mut m, "no-such-phase"), None);
    }

    #[test]
    fn is_registered_agrees_with_run_phase_on() {
        let mut m = mlcomp_ir::Module::new("t");
        for name in PHASE_NAMES {
            assert!(is_registered(name));
            assert!(run_phase_on(&mut m, name).is_some());
        }
        assert!(!is_registered("no-such-phase"));
        assert!(!is_registered(""));
    }
}
