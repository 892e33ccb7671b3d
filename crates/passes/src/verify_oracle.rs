//! The verifier as it was before placement became a dense vector and
//! dominance a numbered tree: a `HashMap` of placements, a sorted copy of
//! the predecessor lists per phi, and an idom-chain walk per dominance
//! query. Kept as the differential oracle of `mlcomp_ir::verify`.

use mlcomp_ir::analysis::{Cfg, DomTree};
use mlcomp_ir::{
    verifier::VerifyError, BinOp, BlockId, Function, InstId, InstKind, Module, Terminator, Type,
    Value,
};
use std::collections::HashMap;

/// Verifies every defined function of `m`, as `mlcomp_ir::verify` did.
pub(crate) fn verify(m: &Module) -> Result<(), VerifyError> {
    for fid in m.function_ids() {
        let f = m.function(fid);
        if f.is_declaration {
            continue;
        }
        check_function(m, f)?;
    }
    Ok(())
}

/// Dominance answered by walking up the idom chain.
struct IdomWalk(DomTree);

impl IdomWalk {
    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.0.rpo_index[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.0.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

fn check_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let err = |block: Option<BlockId>, inst: Option<InstId>, message: String| VerifyError {
        function: f.name.clone(),
        block,
        inst,
        message,
    };

    if f.blocks.is_empty() || f.block(BlockId::ENTRY).deleted {
        return Err(err(None, None, "missing or deleted entry block".into()));
    }

    let cfg = Cfg::new(f);
    let dt = &IdomWalk(DomTree::new(&cfg));

    // Placement map + duplicate detection.
    let mut placed: HashMap<InstId, (BlockId, usize)> = HashMap::new();
    for b in f.block_ids() {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            if id.index() >= f.insts.len() {
                return Err(err(Some(b), Some(id), "instruction id out of range".into()));
            }
            if placed.insert(id, (b, pos)).is_some() {
                return Err(err(Some(b), Some(id), "instruction placed twice".into()));
            }
        }
    }

    for b in f.block_ids() {
        let blk = f.block(b);
        // Terminator targets must be live blocks.
        for s in blk.term.successors() {
            if s.index() >= f.blocks.len() || f.block(s).deleted {
                return Err(err(
                    Some(b),
                    None,
                    format!("branch to dead block bb{}", s.0),
                ));
            }
        }
        // Phis must be a prefix.
        let mut seen_non_phi = false;
        for &id in &blk.insts {
            let is_phi = f.inst(id).kind.is_phi();
            if is_phi && seen_non_phi {
                return Err(err(
                    Some(b),
                    Some(id),
                    "phi after non-phi instruction".into(),
                ));
            }
            if !is_phi {
                seen_non_phi = true;
            }
        }

        if !cfg.reachable[b.index()] {
            // Unreachable blocks are tolerated (DCE will drop them) but not
            // deeply checked: their phis may reference stale preds.
            continue;
        }

        for (pos, &id) in blk.insts.iter().enumerate() {
            let inst = f.inst(id);
            check_inst_types(m, f, b, id, inst)?;
            // Operand validity + dominance.
            let mut failure: Option<VerifyError> = None;
            if let InstKind::Phi { incomings } = &inst.kind {
                // Phi incoming blocks must exactly match reachable preds.
                let mut preds: Vec<BlockId> = cfg.preds[b.index()].clone();
                let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                preds.sort();
                preds.dedup();
                inc.sort();
                let inc_d = {
                    let mut d = inc.clone();
                    d.dedup();
                    d
                };
                if inc_d.len() != inc.len() {
                    return Err(err(Some(b), Some(id), "duplicate phi predecessor".into()));
                }
                if inc_d != preds {
                    return Err(err(
                        Some(b),
                        Some(id),
                        format!(
                            "phi predecessors {:?} do not match CFG predecessors {:?}",
                            inc_d, preds
                        ),
                    ));
                }
                for (p, v) in incomings {
                    if let Value::Inst(d) = v {
                        match placed.get(d) {
                            None => {
                                failure = Some(err(
                                    Some(b),
                                    Some(id),
                                    format!("phi uses unplaced value %{}", d.0),
                                ));
                            }
                            Some((db, _)) => {
                                if !dt.dominates(*db, *p) {
                                    failure = Some(err(
                                        Some(b),
                                        Some(id),
                                        format!(
                                            "phi incoming %{} does not dominate pred bb{}",
                                            d.0, p.0
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    if failure.is_some() {
                        break;
                    }
                }
            } else {
                inst.kind.for_each_operand(|v| {
                    if failure.is_some() {
                        return;
                    }
                    if let Some(e) = check_use(m, f, &placed, dt, b, pos, v, || {
                        err(Some(b), Some(id), String::new())
                    }) {
                        failure = Some(e);
                    }
                });
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }

        // Terminator operand checks.
        let mut failure: Option<VerifyError> = None;
        blk.term.for_each_operand(|v| {
            if failure.is_some() {
                return;
            }
            if let Some(e) = check_use(m, f, &placed, dt, b, usize::MAX, v, || {
                err(Some(b), None, String::new())
            }) {
                failure = Some(e);
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        match &blk.term {
            Terminator::CondBr { cond, .. } if f.value_type(*cond) != Type::I1 => {
                return Err(err(Some(b), None, "condbr condition is not i1".into()));
            }
            Terminator::Ret(v) => {
                let got = v.map(|v| f.value_type(v)).unwrap_or(Type::Void);
                if got != f.ret_ty {
                    return Err(err(
                        Some(b),
                        None,
                        format!("return type {got} does not match signature {}", f.ret_ty),
                    ));
                }
            }
            Terminator::Switch { val, .. } if !f.value_type(*val).is_int() => {
                return Err(err(Some(b), None, "switch on non-integer".into()));
            }
            _ => {}
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn check_use(
    m: &Module,
    f: &Function,
    placed: &HashMap<InstId, (BlockId, usize)>,
    dt: &IdomWalk,
    use_block: BlockId,
    use_pos: usize,
    v: Value,
    mk: impl Fn() -> VerifyError,
) -> Option<VerifyError> {
    match v {
        Value::Inst(d) => match placed.get(&d) {
            None => {
                let mut e = mk();
                e.message = format!("use of unplaced value %{}", d.0);
                Some(e)
            }
            Some((db, dp)) => {
                let ok = if *db == use_block {
                    *dp < use_pos
                } else {
                    dt.dominates(*db, use_block)
                };
                if ok {
                    None
                } else {
                    let mut e = mk();
                    e.message = format!("use of %{} not dominated by its definition", d.0);
                    Some(e)
                }
            }
        },
        Value::Param(i) => {
            if (i as usize) < f.params.len() {
                None
            } else {
                let mut e = mk();
                e.message = format!("parameter index {i} out of range");
                Some(e)
            }
        }
        Value::Global(g) => {
            if g.index() < m.globals.len() && !m.global(g).deleted {
                None
            } else {
                let mut e = mk();
                e.message = format!("reference to dead global @g{}", g.0);
                Some(e)
            }
        }
        Value::FuncAddr(fa) => {
            if fa.index() < m.functions.len() {
                None
            } else {
                let mut e = mk();
                e.message = format!("reference to invalid function @fn{}", fa.0);
                Some(e)
            }
        }
        _ => None,
    }
}

fn check_inst_types(
    m: &Module,
    f: &Function,
    b: BlockId,
    id: InstId,
    inst: &mlcomp_ir::Inst,
) -> Result<(), VerifyError> {
    let err = |message: String| VerifyError {
        function: f.name.clone(),
        block: Some(b),
        inst: Some(id),
        message,
    };
    match &inst.kind {
        InstKind::Bin {
            op,
            lhs,
            rhs,
            width,
        } => {
            if *width == 0 {
                return Err(err("vector width 0".into()));
            }
            let lt = f.value_type(*lhs);
            let rt = f.value_type(*rhs);
            if op.is_float() {
                if !lt.is_float() || !rt.is_float() {
                    return Err(err(format!("float op {op} on {lt}/{rt}")));
                }
            } else if matches!(op, BinOp::Shl | BinOp::AShr | BinOp::LShr) {
                if !lt.is_int() || !rt.is_int() {
                    return Err(err(format!("shift {op} on {lt}/{rt}")));
                }
            } else if lt.is_float() || rt.is_float() {
                return Err(err(format!("int op {op} on {lt}/{rt}")));
            }
            if inst.ty != lt {
                return Err(err(format!("result type {} != lhs type {lt}", inst.ty)));
            }
        }
        InstKind::Cmp { lhs, rhs, .. } => {
            if inst.ty != Type::I1 {
                return Err(err("cmp result must be i1".into()));
            }
            let lt = f.value_type(*lhs);
            let rt = f.value_type(*rhs);
            if lt != rt && !(lt.is_ptr() && rt.is_int() || lt.is_int() && rt.is_ptr()) {
                return Err(err(format!("cmp operand types differ: {lt} vs {rt}")));
            }
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => {
            if f.value_type(*cond) != Type::I1 {
                return Err(err("select condition is not i1".into()));
            }
            let tt = f.value_type(*then_val);
            let et = f.value_type(*else_val);
            if tt != et || inst.ty != tt {
                return Err(err(format!(
                    "select arm types {tt}/{et} vs result {}",
                    inst.ty
                )));
            }
        }
        InstKind::Load { ptr, .. } => {
            if !f.value_type(*ptr).is_ptr() {
                return Err(err("load from non-pointer".into()));
            }
            if inst.ty == Type::Void {
                return Err(err("load of void".into()));
            }
        }
        InstKind::Store { ptr, value, .. } => {
            if !f.value_type(*ptr).is_ptr() {
                return Err(err("store to non-pointer".into()));
            }
            if f.value_type(*value) == Type::Void {
                return Err(err("store of void value".into()));
            }
        }
        InstKind::Gep { base, offset } => {
            if !f.value_type(*base).is_ptr() {
                return Err(err("gep base is not a pointer".into()));
            }
            if !f.value_type(*offset).is_int() {
                return Err(err("gep offset is not an integer".into()));
            }
        }
        InstKind::Call {
            callee: mlcomp_ir::Callee::Direct(c),
            args,
        } => {
            if c.index() >= m.functions.len() {
                return Err(err(format!("call to invalid function @fn{}", c.0)));
            }
            let callee_fn = m.function(*c);
            if callee_fn.params.len() != args.len() {
                return Err(err(format!(
                    "call to `{}` with {} args, expected {}",
                    callee_fn.name,
                    args.len(),
                    callee_fn.params.len()
                )));
            }
            if inst.ty != callee_fn.ret_ty {
                return Err(err(format!(
                    "call result type {} != callee return type {}",
                    inst.ty, callee_fn.ret_ty
                )));
            }
        }
        InstKind::Alloca { cells } => {
            if *cells == 0 {
                return Err(err("alloca of zero cells".into()));
            }
            if inst.ty != Type::Ptr {
                return Err(err("alloca result must be ptr".into()));
            }
        }
        _ => {}
    }
    Ok(())
}

mod tests {
    use super::verify as oracle;
    use crate::suite_states::mutants;
    use mlcomp_ir::verify;

    /// The largest state checked: debug builds stop at 1,600 instructions,
    /// as the other suite-state oracles do.
    const MAX_INSTS: usize = if cfg!(debug_assertions) {
        1_600
    } else {
        usize::MAX
    };

    #[test]
    fn verify_matches_the_oracle_on_the_suite_states_and_their_mutants() {
        let (mut states, mut failures) = (0, 0);
        crate::suite_states::for_each_suite_state(MAX_INSTS, |state, label| {
            states += 1;
            assert_eq!(verify(state), oracle(state), "{label}");
            for (i, mutant) in mutants(state).iter().enumerate() {
                let verdict = verify(mutant);
                failures += usize::from(verdict.is_err());
                assert_eq!(verdict, oracle(mutant), "{label}: mutant {i}");
            }
        });
        assert!(states >= 300, "only {states} states checked");
        assert!(failures >= 500, "only {failures} mutants rejected");
    }
}
