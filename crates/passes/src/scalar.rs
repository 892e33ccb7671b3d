//! Peephole and algebraic phases: `instsimplify`, `instcombine`,
//! `aggressive-instcombine`, `reassociate`, `bdce`, `float2int`,
//! `div-rem-pairs`, `lower-expect`, `alignment-from-assumptions`.

use crate::util::{
    all_insts, fold_constant, mem_root, simplify_inst, trivial_dce, until_stable, MemRoot,
    Replacements,
};
use mlcomp_ir::analysis::{Body, CfgDom, DefUse};
use mlcomp_ir::{
    BinOp, CastOp, Function, Inst, InstId, InstKind, Module, RtVal, Terminator, Type, UnOp, Value,
};
use std::borrow::Cow;

/// `instsimplify`: folds instructions to existing values (constants,
/// operands) without ever creating new instructions.
///
/// Each sweep reads operands through the replacements it has recorded and
/// rewrites their uses once, at its end.
pub fn instsimplify(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    loop {
        let mut replaced = Replacements::new(f);
        for (_, id) in all_insts(f) {
            let inst = f.inst(id);
            let simplified = if replaced.touches(&inst.kind) {
                let mut kind = inst.kind.clone();
                kind.map_operands(|v| replaced.resolve(v));
                simplify_inst(f, &kind, inst.ty)
            } else {
                simplify_inst(f, &inst.kind, inst.ty)
            };
            if let Some(v) = simplified.filter(|&v| v != Value::Inst(id)) {
                replaced.record(id, v);
            }
        }
        if !replaced.apply(f) {
            break;
        }
        changed = true;
    }
    changed |= trivial_dce(m, f, false);
    changed
}

/// `instcombine`: `instsimplify` plus rewrites that may create cheaper
/// instructions — strength reduction of multiplies and divides to shifts,
/// cast chains, canonicalization of commutative operands, `x ^ -1 → not x`,
/// `x + x → x << 1`, compare canonicalization.
pub fn instcombine(m: &Module, f: &mut Body) -> bool {
    let mut changed = instsimplify(m, f);
    loop {
        let mut local = false;
        for (_b, id) in all_insts(f) {
            if let Some(new_kind) = combine_one(f, id) {
                f.inst_mut(id).kind = new_kind;
                local = true;
            }
        }
        if !local {
            break;
        }
        changed = true;
        changed |= instsimplify(m, f);
    }
    changed
}

fn combine_one(f: &Function, id: InstId) -> Option<InstKind> {
    let inst = f.inst(id);
    let ty = inst.ty;
    match &inst.kind {
        InstKind::Bin {
            op,
            lhs,
            rhs,
            width,
        } => {
            let (l, r, w) = (*lhs, *rhs, *width);
            // Canonicalize: constant to the right for commutative ops.
            if op.is_commutative() && l.is_const() && !r.is_const() {
                return Some(InstKind::Bin {
                    op: *op,
                    lhs: r,
                    rhs: l,
                    width: w,
                });
            }
            match op {
                BinOp::Mul => {
                    if let Some(c) = r.as_const_int() {
                        if c > 0 && (c as u64).is_power_of_two() {
                            return Some(InstKind::Bin {
                                op: BinOp::Shl,
                                lhs: l,
                                rhs: Value::ConstInt(c.trailing_zeros() as i64, ty),
                                width: w,
                            });
                        }
                    }
                }
                BinOp::UDiv => {
                    if let Some(c) = r.as_const_int() {
                        if c > 0 && (c as u64).is_power_of_two() {
                            return Some(InstKind::Bin {
                                op: BinOp::LShr,
                                lhs: l,
                                rhs: Value::ConstInt(c.trailing_zeros() as i64, ty),
                                width: w,
                            });
                        }
                    }
                }
                BinOp::URem => {
                    if let Some(c) = r.as_const_int() {
                        if c > 0 && (c as u64).is_power_of_two() {
                            return Some(InstKind::Bin {
                                op: BinOp::And,
                                lhs: l,
                                rhs: Value::ConstInt(c - 1, ty),
                                width: w,
                            });
                        }
                    }
                }
                BinOp::Add => {
                    // x + x → x << 1
                    if l == r && ty.is_int() {
                        return Some(InstKind::Bin {
                            op: BinOp::Shl,
                            lhs: l,
                            rhs: Value::ConstInt(1, ty),
                            width: w,
                        });
                    }
                    // (0 - x) + y → y - x
                    if let Some(li) = l.as_inst() {
                        if let InstKind::Bin {
                            op: BinOp::Sub,
                            lhs: zl,
                            rhs: x,
                            ..
                        } = &f.inst(li).kind
                        {
                            if zl.is_zero_int() {
                                return Some(InstKind::Bin {
                                    op: BinOp::Sub,
                                    lhs: r,
                                    rhs: *x,
                                    width: w,
                                });
                            }
                        }
                    }
                }
                BinOp::Sub => {
                    // x - C → x + (-C), canonical for reassociation.
                    if let Some(c) = r.as_const_int() {
                        if c != 0 && c != i64::MIN {
                            return Some(InstKind::Bin {
                                op: BinOp::Add,
                                lhs: l,
                                rhs: Value::ConstInt(UnOp::Neg.eval(RtVal::I(c), ty).as_i(), ty),
                                width: w,
                            });
                        }
                    }
                }
                BinOp::Xor if r == Value::ConstInt(-1, ty) => {
                    return Some(InstKind::Un {
                        op: UnOp::Not,
                        val: l,
                    });
                }
                _ => {}
            }
            None
        }
        InstKind::Un { op: UnOp::Not, val } => {
            if let Some(vi) = val.as_inst() {
                if let InstKind::Un {
                    op: UnOp::Not,
                    val: inner,
                } = &f.inst(vi).kind
                {
                    // Rewrite to a no-op add so instsimplify folds it away.
                    return Some(InstKind::Bin {
                        op: BinOp::Add,
                        lhs: *inner,
                        rhs: Value::ConstInt(0, ty),
                        width: 1,
                    });
                }
            }
            None
        }
        InstKind::Un { op: UnOp::Neg, val } => {
            if let Some(vi) = val.as_inst() {
                if let InstKind::Un {
                    op: UnOp::Neg,
                    val: inner,
                } = &f.inst(vi).kind
                {
                    return Some(InstKind::Bin {
                        op: BinOp::Add,
                        lhs: *inner,
                        rhs: Value::ConstInt(0, ty),
                        width: 1,
                    });
                }
            }
            None
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            // Constant to the right.
            if lhs.is_const() && !rhs.is_const() {
                return Some(InstKind::Cmp {
                    pred: pred.swapped(),
                    lhs: *rhs,
                    rhs: *lhs,
                });
            }
            None
        }
        InstKind::Cast { op, val } => {
            let vi = val.as_inst()?;
            let (inner_op, inner_val) = match &f.inst(vi).kind {
                InstKind::Cast { op, val } => (*op, *val),
                _ => return None,
            };
            match (inner_op, op) {
                // ext then trunc back to the original width → identity.
                (CastOp::Sext, CastOp::Trunc) | (CastOp::Zext, CastOp::Trunc) => {
                    let src_ty = f.value_type(inner_val);
                    if src_ty == ty {
                        return Some(InstKind::Bin {
                            op: BinOp::Add,
                            lhs: inner_val,
                            rhs: Value::ConstInt(0, ty),
                            width: 1,
                        });
                    }
                    None
                }
                (CastOp::Sext, CastOp::Sext) | (CastOp::Zext, CastOp::Zext) => {
                    Some(InstKind::Cast {
                        op: inner_op,
                        val: inner_val,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// `aggressive-instcombine`: costlier pattern rewrites — decomposing
/// multiplies by two-bit constants into shift-add, folding shift-mask
/// chains.
pub fn aggressive_instcombine(m: &Module, f: &mut Body) -> bool {
    aggressive_rewrites(f) | instsimplify(m, f)
}

/// The pattern rewrites of `aggressive-instcombine`, before it simplifies.
fn aggressive_rewrites(f: &mut Body) -> bool {
    let mut changed = false;
    for (b, id) in all_insts(f) {
        let inst = f.inst(id).clone();
        if let InstKind::Bin {
            op: BinOp::Mul,
            lhs,
            rhs,
            width,
        } = inst.kind
        {
            if let Some(c) = rhs.as_const_int() {
                if c > 0 && (c as u64).count_ones() == 2 {
                    let hi = 63 - (c as u64).leading_zeros() as i64;
                    let lo = (c as u64).trailing_zeros() as i64;
                    // x*C → (x<<hi) + (x<<lo)
                    let pos = f.block(b).insts.iter().position(|&i| i == id).unwrap();
                    let s1 = f.add_inst(Inst::new(
                        InstKind::Bin {
                            op: BinOp::Shl,
                            lhs,
                            rhs: Value::ConstInt(hi, inst.ty),
                            width,
                        },
                        inst.ty,
                    ));
                    let s2 = f.add_inst(Inst::new(
                        InstKind::Bin {
                            op: BinOp::Shl,
                            lhs,
                            rhs: Value::ConstInt(lo, inst.ty),
                            width,
                        },
                        inst.ty,
                    ));
                    f.block_mut(b).insts.insert(pos, s2);
                    f.block_mut(b).insts.insert(pos, s1);
                    f.inst_mut(id).kind = InstKind::Bin {
                        op: BinOp::Add,
                        lhs: Value::Inst(s1),
                        rhs: Value::Inst(s2),
                        width,
                    };
                    changed = true;
                }
            }
        }
        // (x << a) lshr a → and(x, mask)
        if let InstKind::Bin {
            op: BinOp::LShr,
            lhs,
            rhs,
            width,
        } = inst.kind
        {
            if let (Some(li), Some(a)) = (lhs.as_inst(), rhs.as_const_int()) {
                if let InstKind::Bin {
                    op: BinOp::Shl,
                    lhs: x,
                    rhs: ra,
                    ..
                } = &f.inst(li).kind
                {
                    if ra.as_const_int() == Some(a) && (0..64).contains(&a) && inst.ty == Type::I64
                    {
                        let mask = (u64::MAX >> a) as i64;
                        f.inst_mut(id).kind = InstKind::Bin {
                            op: BinOp::And,
                            lhs: *x,
                            rhs: Value::ConstInt(mask, inst.ty),
                            width,
                        };
                        changed = true;
                    }
                }
            }
        }
    }
    changed
}

/// `reassociate`: moves constants outward in chains of associative integer
/// operations so they fold — `(x + C1) + C2 → x + (C1+C2)`,
/// `(x + C) + y → (x + y) + C`.
pub fn reassociate(m: &Module, f: &mut Body) -> bool {
    reassociate_rounds(f) | instsimplify(m, f)
}

/// The rounds of `reassociate` up to the first that rewrites nothing,
/// before it simplifies.
fn reassociate_rounds(f: &mut Body) -> bool {
    until_stable::<Cow<DefUse>>(f, |f, du| {
        let mut local = false;
        for (_b, id) in all_insts(f) {
            let inst = f.inst(id);
            let (op, lhs, rhs, width) = match &inst.kind {
                InstKind::Bin {
                    op,
                    lhs,
                    rhs,
                    width,
                } if op.is_associative() => (*op, *lhs, *rhs, *width),
                _ => continue,
            };
            let ty = inst.ty;
            // (x op C1) op C2 → x op fold(C1 op C2)
            if let (Some(li), true) = (lhs.as_inst(), rhs.is_const()) {
                if du.use_count(li) == 1 {
                    if let InstKind::Bin {
                        op: iop,
                        lhs: x,
                        rhs: c1v,
                        ..
                    } = &f.inst(li).kind
                    {
                        if *iop == op && c1v.is_const() {
                            let folded = fold_constant(
                                &InstKind::Bin {
                                    op,
                                    lhs: *c1v,
                                    rhs,
                                    width: 1,
                                },
                                ty,
                            );
                            if let Some(c) = folded {
                                f.inst_mut(id).kind = InstKind::Bin {
                                    op,
                                    lhs: *x,
                                    rhs: c,
                                    width,
                                };
                                local = true;
                                continue;
                            }
                        }
                    }
                }
            }
            // (x op C) op y  →  (x op y) op C   (bubble the constant out)
            if let (Some(li), false) = (lhs.as_inst(), rhs.is_const()) {
                if du.use_count(li) == 1 {
                    if let InstKind::Bin {
                        op: iop,
                        lhs: x,
                        rhs: cv,
                        ..
                    } = f.inst(li).kind.clone()
                    {
                        if iop == op && cv.is_const() {
                            f.inst_mut(li).kind = InstKind::Bin {
                                op,
                                lhs: x,
                                rhs,
                                width,
                            };
                            f.inst_mut(id).kind = InstKind::Bin {
                                op,
                                lhs: Value::Inst(li),
                                rhs: cv,
                                width,
                            };
                            local = true;
                            continue;
                        }
                    }
                }
            }
        }
        local
    })
}

/// `bdce`: bit-tracking dead code elimination — folds mask chains and
/// narrows computations whose upper bits are never observed.
pub fn bdce(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    for (_b, id) in all_insts(f) {
        let inst = f.inst(id).clone();
        match &inst.kind {
            // and(and(x, c1), c2) → and(x, c1 & c2)
            InstKind::Bin {
                op: BinOp::And,
                lhs,
                rhs,
                width,
            } => {
                if let (Some(li), Some(c2)) = (lhs.as_inst(), rhs.as_const_int()) {
                    if let InstKind::Bin {
                        op: BinOp::And,
                        lhs: x,
                        rhs: c1v,
                        ..
                    } = &f.inst(li).kind
                    {
                        if let Some(c1) = c1v.as_const_int() {
                            f.inst_mut(id).kind = InstKind::Bin {
                                op: BinOp::And,
                                lhs: *x,
                                rhs: Value::ConstInt(c1 & c2, inst.ty),
                                width: *width,
                            };
                            changed = true;
                        }
                    }
                }
            }
            // zext(trunc i64→i32) back to i64 → and(x, 0xFFFFFFFF)
            InstKind::Cast {
                op: CastOp::Zext,
                val,
            } => {
                if let Some(vi) = val.as_inst() {
                    if let InstKind::Cast {
                        op: CastOp::Trunc,
                        val: x,
                    } = &f.inst(vi).kind
                    {
                        let src = f.value_type(*x);
                        let mid = f.inst(vi).ty;
                        if src == inst.ty && mid == Type::I32 {
                            f.inst_mut(id).kind = InstKind::Bin {
                                op: BinOp::And,
                                lhs: *x,
                                rhs: Value::ConstInt(0xFFFF_FFFF, inst.ty),
                                width: 1,
                            };
                            changed = true;
                        }
                    }
                }
            }
            // trunc(and(x, 0xFFFFFFFF)) to i32 → trunc(x)
            InstKind::Cast {
                op: CastOp::Trunc,
                val,
            } => {
                if let Some(vi) = val.as_inst() {
                    if let InstKind::Bin {
                        op: BinOp::And,
                        lhs: x,
                        rhs,
                        ..
                    } = &f.inst(vi).kind
                    {
                        if rhs.as_const_int() == Some(0xFFFF_FFFF) && inst.ty == Type::I32 {
                            f.inst_mut(id).kind = InstKind::Cast {
                                op: CastOp::Trunc,
                                val: *x,
                            };
                            changed = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    changed | trivial_dce(m, f, false)
}

/// `float2int`: rewrites float arithmetic whose inputs are `sitofp`
/// conversions (or whole-number constants) and whose only consumer is an
/// `fptosi`, into integer arithmetic.
pub fn float2int(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    let du = f.analyse::<Cow<DefUse>>();
    for (_b, id) in all_insts(f) {
        let inst = f.inst(id).clone();
        let InstKind::Cast {
            op: CastOp::FpToSi,
            val,
        } = &inst.kind
        else {
            continue;
        };
        let Some(op_id) = val.as_inst() else { continue };
        if du.use_count(op_id) != 1 {
            continue;
        }
        let InstKind::Bin {
            op,
            lhs,
            rhs,
            width,
        } = f.inst(op_id).kind.clone()
        else {
            continue;
        };
        let int_op = match op {
            BinOp::FAdd => BinOp::Add,
            BinOp::FSub => BinOp::Sub,
            BinOp::FMul => BinOp::Mul,
            _ => continue,
        };
        let as_int = |v: Value, f: &Function| -> Option<Value> {
            match v {
                Value::Inst(vi) => match &f.inst(vi).kind {
                    InstKind::Cast {
                        op: CastOp::SiToFp,
                        val,
                    } if f.value_type(*val) == inst.ty => Some(*val),
                    _ => None,
                },
                Value::ConstFloat(bits, _) => {
                    let x = f64::from_bits(bits);
                    // Only exact small integers are safe to migrate.
                    if x.fract() == 0.0 && x.abs() < 2f64.powi(31) {
                        Some(Value::ConstInt(x as i64, inst.ty))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        let (Some(il), Some(ir)) = (as_int(lhs, f), as_int(rhs, f)) else {
            continue;
        };
        f.inst_mut(op_id).kind = InstKind::Bin {
            op: int_op,
            lhs: il,
            rhs: ir,
            width,
        };
        f.inst_mut(op_id).ty = inst.ty;
        f.replace_all_uses(id, Value::Inst(op_id));
        changed = true;
    }
    changed | trivial_dce(m, f, false)
}

/// `div-rem-pairs`: when both `a / b` and `a % b` are computed and the
/// division dominates the remainder, rewrites the remainder as
/// `a - (a/b)*b` (multiply + subtract are far cheaper than a second
/// divide on both target platforms).
pub fn div_rem_pairs(m: &Module, f: &mut Body) -> bool {
    let (_, dt) = f.analyse::<CfgDom>();
    let mut changed = false;
    let insts = all_insts(f);
    for (rb, rem_id) in &insts {
        let (rop, a, bv) = match &f.inst(*rem_id).kind {
            InstKind::Bin {
                op: op @ (BinOp::SRem | BinOp::URem),
                lhs,
                rhs,
                ..
            } => (*op, *lhs, *rhs),
            _ => continue,
        };
        let want_div = match rop {
            BinOp::SRem => BinOp::SDiv,
            _ => BinOp::UDiv,
        };
        let div = insts.iter().find(|(db, did)| {
            matches!(
                &f.inst(*did).kind,
                InstKind::Bin { op, lhs, rhs, .. }
                    if *op == want_div && *lhs == a && *rhs == bv
            ) && (if db == rb {
                let pos_d = f.block(*db).insts.iter().position(|i| i == did);
                let pos_r = f.block(*rb).insts.iter().position(|i| i == rem_id);
                pos_d < pos_r
            } else {
                dt.dominates(*db, *rb)
            })
        });
        let Some((_, div_id)) = div else { continue };
        let ty = f.inst(*rem_id).ty;
        let pos = f.block(*rb).insts.iter().position(|i| i == rem_id).unwrap();
        let mul = f.add_inst(Inst::new(
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Value::Inst(*div_id),
                rhs: bv,
                width: 1,
            },
            ty,
        ));
        f.block_mut(*rb).insts.insert(pos, mul);
        f.inst_mut(*rem_id).kind = InstKind::Bin {
            op: BinOp::Sub,
            lhs: a,
            rhs: Value::Inst(mul),
            width: 1,
        };
        changed = true;
    }
    changed | trivial_dce(m, f, false)
}

/// `lower-expect`: converts `expect` hint instructions into branch-weight
/// metadata on the conditional branches they control, then removes them.
pub fn lower_expect(_m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let term = f.block(b).term.clone();
        if let Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            weight: None,
        } = term
        {
            let Some(expectation) = branch_expectation(f, cond) else {
                continue;
            };
            f.block_mut(b).term = Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                weight: Some(if expectation { 90 } else { 10 }),
            };
            changed = true;
        }
    }
    // Lower every expect to its value.
    let mut replaced = Replacements::new(f);
    for (_, id) in all_insts(f) {
        if let InstKind::Expect { val, .. } = f.inst(id).kind {
            replaced.record(id, replaced.resolve(val));
        }
    }
    changed | replaced.apply(f)
}

/// Expected truth value of a branch condition, when an `expect` hint feeds
/// it (directly or through a comparison with a constant).
fn branch_expectation(f: &Function, cond: Value) -> Option<bool> {
    let ci = cond.as_inst()?;
    match &f.inst(ci).kind {
        InstKind::Expect { expected, .. } => Some(*expected != 0),
        InstKind::Cmp { pred, lhs, rhs } => {
            let li = lhs.as_inst()?;
            let InstKind::Expect { expected, .. } = &f.inst(li).kind else {
                return None;
            };
            let k = rhs.as_const_int()?;
            Some(pred.eval_int(*expected, k))
        }
        _ => None,
    }
}

/// `alignment-from-assumptions`: marks loads and stores whose pointer
/// provably derives from an alloca or global as aligned (stack slots and
/// globals are always cell-aligned here); the platform cost models charge
/// unmarked accesses an unaligned penalty.
pub fn alignment_from_assumptions(_m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    for (_b, id) in all_insts(f) {
        let (InstKind::Load { ptr, aligned, .. } | InstKind::Store { ptr, aligned, .. }) =
            f.inst(id).kind
        else {
            continue;
        };
        if !aligned && mem_root(f, ptr) != MemRoot::Unknown {
            if let InstKind::Load { aligned, .. } | InstKind::Store { aligned, .. } =
                &mut f.inst_mut(id).kind
            {
                *aligned = true;
            }
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, CmpPred, Interpreter, ModuleBuilder};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let f = m.find_function(name).unwrap();
        Interpreter::new(m).run(f, args).unwrap().ret
    }

    #[test]
    fn instsimplify_folds_identity_chain() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.add(b.param(0), b.const_i64(0));
            let c = b.mul(a, b.const_i64(1));
            let d = b.sub(c, b.const_i64(0));
            b.ret(Some(d));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(instsimplify(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 0);
        assert_eq!(exec(&m, "f", &[RtVal::I(7)]), Some(RtVal::I(7)));
    }

    #[test]
    fn instcombine_strength_reduces_mul() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(8));
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(instcombine(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Bin { op: BinOp::Shl, .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(40)));
    }

    #[test]
    fn aggressive_instcombine_decomposes_mul() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(10)); // 10 = 8 + 2
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(aggressive_instcombine(
            &mc,
            &mut Body::from(&mut m.functions[0])
        ));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(7)]), Some(RtVal::I(70)));
        let f = &m.functions[0];
        assert!(!all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Bin { op: BinOp::Mul, .. })));
    }

    #[test]
    fn reassociate_folds_constants() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.add(b.param(0), b.const_i64(3));
            let c = b.add(a, b.const_i64(4));
            b.ret(Some(c));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(reassociate(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 1);
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(8)));
    }

    #[test]
    fn reassociate_bubbles_constant_outward() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.add(b.param(0), b.const_i64(3));
            let c = b.add(a, b.param(1));
            let d = b.add(c, b.const_i64(4));
            b.ret(Some(d));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(reassociate(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        // (x+3)+y+4 → (x+y)+7: two adds instead of three.
        assert_eq!(m.functions[0].live_inst_count(), 2);
        assert_eq!(
            exec(&m, "f", &[RtVal::I(1), RtVal::I(2)]),
            Some(RtVal::I(10))
        );
    }

    #[test]
    fn bdce_merges_masks() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.and(b.param(0), b.const_i64(0xFF));
            let c = b.and(a, b.const_i64(0x0F));
            b.ret(Some(c));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(bdce(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 1);
        assert_eq!(exec(&m, "f", &[RtVal::I(0xABCD)]), Some(RtVal::I(0x0D)));
    }

    #[test]
    fn float2int_rewrites_roundtrip() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let x = b.cast(CastOp::SiToFp, b.param(0), Type::F64);
            let y = b.cast(CastOp::SiToFp, b.param(1), Type::F64);
            let s = b.fadd(x, y);
            let r = b.cast(CastOp::FpToSi, s, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(float2int(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f).iter().all(|(_, id)| !matches!(
            f.inst(*id).kind,
            InstKind::Bin { op, .. } if op.is_float()
        )));
        assert_eq!(
            exec(&m, "f", &[RtVal::I(30), RtVal::I(12)]),
            Some(RtVal::I(42))
        );
    }

    #[test]
    fn div_rem_pair_fused() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let d = b.sdiv(b.param(0), b.param(1));
            let r = b.srem(b.param(0), b.param(1));
            let s = b.add(d, r);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(div_rem_pairs(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        let divs = all_insts(f)
            .iter()
            .filter(|(_, id)| {
                matches!(
                    f.inst(*id).kind,
                    InstKind::Bin {
                        op: BinOp::SDiv | BinOp::SRem,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(divs, 1, "only the divide survives");
        assert_eq!(
            exec(&m, "f", &[RtVal::I(17), RtVal::I(5)]),
            Some(RtVal::I(3 + 2))
        );
    }

    #[test]
    fn lower_expect_sets_weights() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let z = b.cast(CastOp::Zext, c, Type::I64);
            let hinted = b.expect(z, 1);
            let c2 = b.cmp(CmpPred::Ne, hinted, b.const_i64(0));
            let v = b.if_else(c2, Type::I64, |b| b.const_i64(1), |b| b.const_i64(0));
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(lower_expect(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        let has_weight = f.block_ids().any(|b| {
            matches!(
                f.block(b).term,
                Terminator::CondBr {
                    weight: Some(_),
                    ..
                }
            )
        });
        assert!(has_weight);
        assert!(!all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Expect { .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(1)));
    }

    #[test]
    fn alignment_marks_stack_accesses() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::Ptr], Type::I64);
        {
            let mut b = mb.body();
            let a = b.alloca(2);
            let p = b.gep(a, b.const_i64(1));
            b.store(p, b.const_i64(5));
            let v1 = b.load(p, Type::I64);
            let v2 = b.load(b.param(0), Type::I64); // unknown pointer
            let s = b.add(v1, v2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(alignment_from_assumptions(
            &mc,
            &mut Body::from(&mut m.functions[0])
        ));
        let f = &m.functions[0];
        let aligned = all_insts(f)
            .iter()
            .filter(|(_, id)| {
                matches!(
                    f.inst(*id).kind,
                    InstKind::Load { aligned: true, .. } | InstKind::Store { aligned: true, .. }
                )
            })
            .count();
        let unaligned = all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { aligned: false, .. }))
            .count();
        assert_eq!(aligned, 2);
        assert_eq!(unaligned, 1, "param-derived load stays unaligned");
    }
}

/// The replacement code this module had before uses were rewritten once
/// per sweep, kept as a differential oracle: every replaced value is
/// rewritten in the whole function at once and unplaced.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{aggressive_rewrites, branch_expectation, combine_one, reassociate_rounds};
    use crate::util::{all_insts, simplify_inst, trivial_dce};
    use mlcomp_ir::analysis::Body;
    use mlcomp_ir::{BlockId, Function, InstId, InstKind, Module, Terminator, Value};

    fn replace_and_remove(f: &mut Function, block: BlockId, id: InstId, val: Value) {
        f.replace_all_uses(id, val);
        f.remove_from_block(block, id);
    }

    pub(crate) fn instsimplify(m: &Module, f: &mut Body) -> bool {
        let mut changed = false;
        loop {
            let mut local = false;
            for (b, id) in all_insts(f) {
                let inst = f.inst(id);
                if let Some(v) = simplify_inst(f, &inst.kind, inst.ty) {
                    if v != Value::Inst(id) {
                        replace_and_remove(f, b, id, v);
                        local = true;
                    }
                }
            }
            if !local {
                break;
            }
            changed = true;
        }
        changed |= trivial_dce(m, f, false);
        changed
    }

    pub(crate) fn instcombine(m: &Module, f: &mut Body) -> bool {
        let mut changed = instsimplify(m, f);
        loop {
            let mut local = false;
            for (_b, id) in all_insts(f) {
                if let Some(new_kind) = combine_one(f, id) {
                    f.inst_mut(id).kind = new_kind;
                    local = true;
                }
            }
            if !local {
                break;
            }
            changed = true;
            changed |= instsimplify(m, f);
        }
        changed
    }

    pub(crate) fn aggressive_instcombine(m: &Module, f: &mut Body) -> bool {
        aggressive_rewrites(f) | instsimplify(m, f)
    }

    pub(crate) fn reassociate(m: &Module, f: &mut Body) -> bool {
        reassociate_rounds(f) | instsimplify(m, f)
    }

    pub(crate) fn lower_expect(_m: &Module, f: &mut Body) -> bool {
        let mut changed = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            let term = f.block(b).term.clone();
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                weight: None,
            } = term
            {
                let Some(expectation) = branch_expectation(f, cond) else {
                    continue;
                };
                f.block_mut(b).term = Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    weight: Some(if expectation { 90 } else { 10 }),
                };
                changed = true;
            }
        }
        for (b, id) in all_insts(f) {
            if let InstKind::Expect { val, .. } = f.inst(id).kind {
                replace_and_remove(f, b, id, val);
                changed = true;
            }
        }
        changed
    }
}
