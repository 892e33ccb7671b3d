//! The IR states the differential oracles compare on: every suite program
//! after a few phase prefixes, plus seeded random walks over the whole
//! registry, so that rewritten code meets the states the pipeline visits
//! and not only pristine modules.

use crate::registry::PHASE_NAMES;
use crate::PassManager;
use mlcomp_ir::Module;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Calls `visit(state, label)` on each state up to `max_insts`
/// instructions and returns how many it visited.
///
/// Each of the 37 suite programs is visited after each prefix in turn,
/// stopping at its first state over the cap. Then every other program
/// takes a seeded walk of up to ten sandboxed phases, visited after each
/// step and ending once its module outgrows the cap. `label` names the
/// program and the phases that led to the state.
pub(crate) fn for_each_suite_state(
    max_insts: usize,
    mut visit: impl FnMut(&Module, &str),
) -> usize {
    let programs: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .chain(mlcomp_suites::beebs_suite())
        .collect();
    assert_eq!(programs.len(), 37);
    let pm = PassManager::new();
    // Ordered by the size of the states they tend to reach, so that a
    // program stops at its first state over the cap.
    let prefixes: [&[&str]; 5] = [
        &[],
        &["inline"],
        &["mem2reg", "loop-unroll"],
        &["sroa", "loop-unroll", "instcombine"],
        &["loop-unroll"],
    ];
    let mut visited = 0;
    for program in &programs {
        for prefix in prefixes {
            let mut state = program.module.clone();
            pm.run_sequence_sandboxed(&mut state, prefix.iter().copied(), None, "prefix")
                .unwrap();
            if state.total_insts() > max_insts {
                break;
            }
            visit(&state, &format!("{} after {prefix:?}", program.name));
            visited += 1;
        }
    }
    let mut rng = StdRng::seed_from_u64(2021);
    for program in programs.iter().step_by(2) {
        let mut state = program.module.clone();
        let mut walk = Vec::new();
        while walk.len() < 10 {
            let phase = PHASE_NAMES[rng.gen_range(0..PHASE_NAMES.len())];
            pm.run_phase_sandboxed(&mut state, phase, None, phase)
                .unwrap();
            walk.push(phase);
            if state.total_insts() > max_insts {
                break;
            }
            visit(&state, &format!("{} after {walk:?}", program.name));
            visited += 1;
        }
    }
    visited
}
