//! Structural, type and SSA-dominance verification.
//!
//! Every optimization phase in the pass crate is property-tested with this
//! verifier: a phase that produces ill-formed IR is a bug, never "mostly
//! fine". The checks mirror LLVM's verifier at the granularity this IR
//! needs: CFG integrity, phi/predecessor agreement, operand typing and SSA
//! dominance.

use crate::analysis::{AnalysisCache, DomTree, FunctionAnalyses};
use crate::block::{BlockId, Terminator};
use crate::function::{FuncId, Function};
use crate::inst::{BinOp, InstId, InstKind};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// A verification failure, with enough context to locate the offending IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Offending block, when applicable.
    pub block: Option<BlockId>,
    /// Offending instruction, when applicable.
    pub inst: Option<InstId>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in function `{}`", self.function)?;
        if let Some(b) = self.block {
            write!(f, ", block bb{}", b.0)?;
        }
        if let Some(i) = self.inst {
            write!(f, ", inst %{}", i.0)?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns the first violation found: CFG references to deleted blocks,
/// phi lists disagreeing with predecessors, type mismatches, uses of values
/// that do not dominate them, or malformed calls.
pub fn verify(m: &Module) -> Result<(), VerifyError> {
    for fid in m.function_ids() {
        let f = m.function(fid);
        if f.is_declaration {
            continue;
        }
        verify_function(m, f)?;
    }
    Ok(())
}

/// Verifies `m`, a transformed copy of `before`, checking only what the
/// transform could have broken, and makes `cache`, which describes
/// `before`, describe `m`. Returns exactly what [`verify`] returns on `m`,
/// error included; debug builds assert that.
///
/// Precondition: `before` verifies.
///
/// [`verify_function`] reads nothing of the module but the function
/// count, every function's parameters and return type, the global count
/// and every global's `deleted` flag. When all of these equal `before`'s,
/// a function whose blocks, instructions and declaration flag are
/// unchanged verifies as it did in `before`, so it cannot be the first to
/// fail, and only the other functions are checked. Attributes and module
/// metadata play no part. Otherwise every function is checked, as
/// [`verify`] does.
///
/// The cache is updated by [`AnalysisCache::retain_unchanged`], and the
/// CFG and dominator tree of each checked function become its entries.
///
/// # Errors
///
/// Returns the first violation found, as [`verify`] does.
pub fn verify_changed(
    m: &Module,
    before: &Module,
    cache: &mut AnalysisCache,
) -> Result<(), VerifyError> {
    let changed = cache.retain_unchanged(m, before);
    let same_interface = m.functions.len() == before.functions.len()
        && m.functions
            .iter()
            .zip(&before.functions)
            .all(|(f, old)| f.params == old.params && f.ret_ty == old.ret_ty)
        && m.globals.len() == before.globals.len()
        && m.globals
            .iter()
            .zip(&before.globals)
            .all(|(g, old)| g.deleted == old.deleted);
    let checked: Vec<FuncId> = match changed {
        Some(changed) if same_interface => changed,
        _ => m.function_ids().collect(),
    };
    let verdict = checked
        .into_iter()
        .filter(|&fid| !m.function(fid).is_declaration)
        .try_for_each(|fid| check_function(m, m.function(fid), cache.function(fid)));
    debug_assert_eq!(
        verdict,
        verify(m),
        "verify_changed disagrees with verify: does `before` verify?"
    );
    verdict
}

/// Verifies a single function. See [`verify`].
///
/// # Errors
///
/// Returns the first violation found in this function.
pub fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    check_function(m, f, &FunctionAnalyses::default())
}

/// [`verify_function`], taking the CFG and dominator tree from `entry`,
/// which describes `f`.
fn check_function(m: &Module, f: &Function, entry: &FunctionAnalyses) -> Result<(), VerifyError> {
    let err = |block: Option<BlockId>, inst: Option<InstId>, message: String| VerifyError {
        function: f.name.clone(),
        block,
        inst,
        message,
    };

    if f.blocks.is_empty() || f.block(BlockId::ENTRY).deleted {
        return Err(err(None, None, "missing or deleted entry block".into()));
    }

    let (cfg, dt) = entry.dom_tree(f);

    // Placement (block, position) by arena id + duplicate detection.
    let mut placed = vec![UNPLACED; f.insts.len()];
    for b in f.block_ids() {
        for (pos, &id) in f.block(b).insts.iter().enumerate() {
            let Some(slot) = placed.get_mut(id.index()) else {
                return Err(err(Some(b), Some(id), "instruction id out of range".into()));
            };
            if *slot != UNPLACED {
                return Err(err(Some(b), Some(id), "instruction placed twice".into()));
            }
            *slot = (b, pos);
        }
    }
    let placed = Placement(placed);

    // Per-block marks for the phi checks, `[is_pred, seen]`: `is_pred` of
    // `p` is `b + 1` while block `b` is checked and `p` is one of its
    // predecessors, and `seen` of `p` is `k` while the `k`-th phi is
    // checked and names `p`.
    let mut marks = vec![[0u32; 2]; f.blocks.len()];
    let mut phi_stamp = 0u32;

    for b in f.block_ids() {
        let blk = f.block(b);
        // Terminator targets must be live blocks.
        for &s in &cfg.succs[b.index()] {
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

        // Distinct predecessors of `b`, marked once for all its phis.
        let preds = &cfg.preds[b.index()];
        let mut distinct_preds = 0;
        for &p in preds {
            if marks[p.index()][0] != b.0 + 1 {
                marks[p.index()][0] = b.0 + 1;
                distinct_preds += 1;
            }
        }

        for (pos, &id) in blk.insts.iter().enumerate() {
            let inst = f.inst(id);
            check_inst_types(m, f, b, id, inst)?;
            // Operand validity + dominance.
            let mut failure: Option<VerifyError> = None;
            if let InstKind::Phi { incomings } = &inst.kind {
                // Phi incoming blocks must exactly match reachable preds.
                phi_stamp += 1;
                for (i, (p, _)) in incomings.iter().enumerate() {
                    let repeated = match marks.get_mut(p.index()) {
                        Some([_, seen]) => std::mem::replace(seen, phi_stamp) == phi_stamp,
                        // A block out of range is never a predecessor.
                        None => incomings[..i].iter().any(|(q, _)| q == p),
                    };
                    if repeated {
                        return Err(err(Some(b), Some(id), "duplicate phi predecessor".into()));
                    }
                }
                if incomings.len() != distinct_preds
                    || incomings
                        .iter()
                        .any(|(p, _)| marks.get(p.index()).map(|m| m[0]) != Some(b.0 + 1))
                {
                    let mut preds = preds.clone();
                    preds.sort();
                    preds.dedup();
                    let mut inc: Vec<BlockId> = incomings.iter().map(|(p, _)| *p).collect();
                    inc.sort();
                    return Err(err(
                        Some(b),
                        Some(id),
                        format!(
                            "phi predecessors {:?} do not match CFG predecessors {:?}",
                            inc, preds
                        ),
                    ));
                }
                for (p, v) in incomings {
                    if let Value::Inst(d) = v {
                        match placed.get(*d) {
                            None => {
                                failure = Some(err(
                                    Some(b),
                                    Some(id),
                                    format!("phi uses unplaced value %{}", d.0),
                                ));
                            }
                            Some((db, _)) => {
                                if !dt.dominates(db, *p) {
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

/// The placement of an unplaced instruction.
const UNPLACED: (BlockId, usize) = (BlockId(u32::MAX), usize::MAX);

/// Block and position of each placed instruction, by arena id.
struct Placement(Vec<(BlockId, usize)>);

impl Placement {
    fn get(&self, id: InstId) -> Option<(BlockId, usize)> {
        self.0
            .get(id.index())
            .copied()
            .filter(|&slot| slot != UNPLACED)
    }
}

#[allow(clippy::too_many_arguments)]
fn check_use(
    m: &Module,
    f: &Function,
    placed: &Placement,
    dt: &DomTree,
    use_block: BlockId,
    use_pos: usize,
    v: Value,
    mk: impl Fn() -> VerifyError,
) -> Option<VerifyError> {
    match v {
        Value::Inst(d) => match placed.get(d) {
            None => {
                let mut e = mk();
                e.message = format!("use of unplaced value %{}", d.0);
                Some(e)
            }
            Some((db, dp)) => {
                let ok = if db == use_block {
                    dp < use_pos
                } else {
                    dt.dominates(db, use_block)
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
    inst: &crate::inst::Inst,
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
            callee: crate::inst::Callee::Direct(c),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::Inst;

    #[test]
    fn accepts_valid_module() {
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
        assert!(verify(&mb.build()).is_ok());
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::F64], Type::F64);
        {
            let mut b = mb.body();
            // Int add on float operands.
            let bad = b.func().append_inst(
                BlockId::ENTRY,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Param(0),
                    rhs: Value::f64(1.0),
                    width: 1,
                },
                Type::F64,
            );
            b.ret(Some(bad));
        }
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("int op"), "{e}");
    }

    #[test]
    fn rejects_bad_return_type() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        mb.body().ret(None);
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("return type"), "{e}");
    }

    #[test]
    fn rejects_use_before_def() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let f = b.func();
            // Manually create: %0 = add %1, 1 ; %1 = add 0, 0 — use before def.
            let i0 = f.add_inst(Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::Inst(InstId(1)),
                    rhs: Value::i64(1),
                    width: 1,
                },
                Type::I64,
            ));
            let i1 = f.add_inst(Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Value::i64(0),
                    rhs: Value::i64(0),
                    width: 1,
                },
                Type::I64,
            ));
            f.blocks[0].insts = vec![i0, i1];
            f.blocks[0].term = Terminator::Ret(Some(Value::Inst(i1)));
        }
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let next = b.new_block();
            b.br(next);
            b.switch_to(next);
            // Phi claiming an incoming edge from a non-pred block.
            let bogus = b.new_block();
            let p = b.phi(Type::I64, vec![(bogus, Value::i64(1))]);
            b.ret(Some(p));
            let f = b.func();
            f.block_mut(bogus).term = Terminator::Ret(Some(Value::i64(0)));
        }
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("phi predecessors"), "{e}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("callee", vec![Type::I64], Type::Void);
        mb.begin_existing(callee);
        mb.body().ret(None);
        mb.finish_function();
        mb.begin_function("caller", vec![], Type::Void);
        {
            let mut b = mb.body();
            b.call(callee, vec![], Type::Void); // missing arg
            b.ret(None);
        }
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("0 args"), "{e}");
    }

    #[test]
    fn rejects_branch_to_deleted_block() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::Void);
        {
            let mut b = mb.body();
            let dead = b.new_block();
            b.br(dead);
            let f = b.func();
            f.block_mut(dead).deleted = true;
        }
        mb.finish_function();
        let e = verify(&mb.build()).unwrap_err();
        assert!(e.message.contains("dead block"), "{e}");
    }

    /// `helper(x) = x * 3` and `main(x) = helper(x) + 1`, both valid.
    fn caller_and_callee() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let helper = mb.declare("helper", vec![Type::I64], Type::I64);
        mb.begin_existing(helper);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(3));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let h = b.call(helper, vec![b.param(0)], Type::I64);
            let v = b.add(h, b.const_i64(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn verify_changed_rejects_a_changed_body_that_breaks_ssa() {
        let before = caller_and_callee();
        verify(&before).unwrap();
        let mut m = before.clone();
        // `main` returns `h + 1` before `h` is computed.
        let main = &mut m.functions[1];
        main.blocks[0].insts.reverse();
        let e = verify_changed(&m, &before, &mut AnalysisCache::new()).unwrap_err();
        assert_eq!(Err(e.clone()), verify(&m));
        assert_eq!(e.function, "main");
        assert!(e.message.contains("not dominated"), "{e}");
    }

    #[test]
    fn verify_changed_checks_an_unchanged_caller_of_a_changed_signature() {
        let before = caller_and_callee();
        let mut m = before.clone();
        // `helper` gains a parameter; only its signature changes, and the
        // unchanged `main` now calls it with too few arguments.
        m.functions[0].params.push(Type::I64);
        assert_eq!(m.functions[1], before.functions[1]);
        let e = verify_changed(&m, &before, &mut AnalysisCache::new()).unwrap_err();
        assert_eq!(Err(e.clone()), verify(&m));
        assert_eq!(e.function, "main");
        assert!(e.message.contains("1 args, expected 2"), "{e}");
    }

    #[test]
    fn verify_changed_skips_unchanged_bodies() {
        let before = caller_and_callee();
        let mut m = before.clone();
        // Attributes and metadata are no part of any function check.
        m.functions[0].attrs.readnone = true;
        m.meta.globals_aa_valid = true;
        assert_eq!(
            verify_changed(&m, &before, &mut AnalysisCache::new()),
            Ok(())
        );
    }
}
