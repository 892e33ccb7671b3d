//! The IR states the differential oracles compare on: every suite program
//! after a few phase prefixes, plus seeded random walks over the whole
//! registry, so that rewritten code meets the states the pipeline visits
//! and not only pristine modules.

use crate::registry::PHASE_NAMES;
use crate::PassManager;
use mlcomp_ir::{BlockId, Inst, InstKind, Module, Type, Value};
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

/// Copies of `state`, each with one fault: an operand pointed at an
/// unplaced value, a phi incoming block swapped for another block, or a
/// branch target deleted: about eight instruction sites and four
/// blocks per function.
pub(crate) fn mutants(state: &Module) -> Vec<Module> {
    let mut out = Vec::new();
    for (fi, f) in state.functions.iter().enumerate() {
        let placed: Vec<_> = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.iter().map(move |&id| (b, id)))
            .collect();
        for &(_, id) in placed.iter().step_by(placed.len() / 8 + 1) {
            if matches!(f.inst(id).kind, InstKind::Phi { .. }) {
                let mut m = state.clone();
                let g = &mut m.functions[fi];
                let blocks = g.blocks.len() as u32;
                let InstKind::Phi { incomings } = &mut g.inst_mut(id).kind else {
                    unreachable!()
                };
                // The last block, unless the phi names it already:
                // a predecessor list out of order for the message.
                let last = BlockId(blocks - 1);
                let swap_in = if incomings.iter().any(|&(p, _)| p == last) {
                    incomings.first().map(|&(p, _)| BlockId((p.0 + 1) % blocks))
                } else {
                    Some(last)
                };
                if let (Some(first), Some(swap_in)) = (incomings.first_mut(), swap_in) {
                    first.0 = swap_in;
                    out.push(m);
                }
                continue;
            }
            let mut has_inst_operand = false;
            f.inst(id)
                .kind
                .for_each_operand(|v| has_inst_operand |= matches!(v, Value::Inst(_)));
            if has_inst_operand {
                let mut m = state.clone();
                let g = &mut m.functions[fi];
                let ghost = g.add_inst(Inst::new(InstKind::Alloca { cells: 1 }, Type::Ptr));
                let mut done = false;
                g.inst_mut(id).kind.map_operands(|v| match v {
                    Value::Inst(_) if !done => {
                        done = true;
                        Value::Inst(ghost)
                    }
                    v => v,
                });
                out.push(m);
            }
        }
        for b in f.block_ids().step_by(f.blocks.len() / 4 + 1) {
            if let Some(&s) = f.block(b).term.successors().last() {
                if s != BlockId::ENTRY {
                    let mut m = state.clone();
                    m.functions[fi].block_mut(s).deleted = true;
                    out.push(m);
                }
            }
        }
    }
    out
}
