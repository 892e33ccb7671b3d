//! Control-flow phases: `simplifycfg`, `jump-threading` and
//! `callsite-splitting`.

use crate::util::{
    remove_unreachable_blocks, split_block_after, trivial_dce, until_stable, Replacements,
};
use mlcomp_ir::analysis::{Body, Cfg, CfgDom, DefUse, DomTree};
use mlcomp_ir::{BlockId, Function, Inst, InstId, InstKind, Module, Terminator, Type, Value};
use std::borrow::Cow;
use std::cell::OnceCell;

/// `simplifycfg`: folds constant branches, removes trivially forwarding
/// blocks, merges straight-line block chains, rewrites two-armed diamonds
/// and triangles over empty blocks into `select`s, and deletes unreachable
/// code. Runs to a fixed point.
pub fn simplifycfg(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        local |= fold_constant_terminators(f);
        local |= remove_unreachable_blocks(f);
        local |= merge_block_chains(f);
        local |= remove_forwarding_blocks(f);
        local |= ifs_to_selects(f);
        if !local {
            break;
        }
        changed = true;
    }
    changed | trivial_dce(m, f, false)
}

fn fold_constant_terminators(f: &mut Body) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        match f.block(b).term.clone() {
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                if then_bb == else_bb {
                    f.block_mut(b).term = Terminator::Br(then_bb);
                    changed = true;
                } else if let Some(c) = cond.as_const_int() {
                    let (taken, dropped) = if c != 0 {
                        (then_bb, else_bb)
                    } else {
                        (else_bb, then_bb)
                    };
                    f.block_mut(b).term = Terminator::Br(taken);
                    f.remove_phi_edges(dropped, b);
                    changed = true;
                }
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                if let Some(c) = val.as_const_int() {
                    let taken = cases
                        .iter()
                        .find(|(k, _)| *k == c)
                        .map(|(_, t)| *t)
                        .unwrap_or(default);
                    let mut dropped: Vec<BlockId> = cases.iter().map(|(_, t)| *t).collect();
                    dropped.push(default);
                    dropped.sort();
                    dropped.dedup();
                    f.block_mut(b).term = Terminator::Br(taken);
                    for d in dropped {
                        if d != taken {
                            f.remove_phi_edges(d, b);
                        }
                    }
                    changed = true;
                } else {
                    // All targets equal → unconditional.
                    let mut targets: Vec<BlockId> = cases.iter().map(|(_, t)| *t).collect();
                    targets.push(default);
                    targets.sort();
                    targets.dedup();
                    if targets.len() == 1 {
                        f.block_mut(b).term = Terminator::Br(targets[0]);
                        changed = true;
                    }
                }
            }
            _ => {}
        }
    }
    changed
}

/// Merges each block `s` whose only predecessor `b` ends in `br s` into
/// `b`, from one `Cfg`: blocks are taken in arena order, and `b` takes
/// successors in while its new successor has it as the only predecessor.
/// A merge renames `s` to `b` in the predecessor lists of `s`'s
/// successors; reachability does not change. `s`'s phis are replaced by
/// their incoming from `b`, and every use is rewritten once at the end.
fn merge_block_chains(f: &mut Body) -> bool {
    let mut cfg = f.analyse::<Cow<Cfg>>();
    let mut phis = Replacements::new(f);
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        if f.block(b).deleted || !cfg.reachable[b.index()] {
            continue;
        }
        while let Terminator::Br(s) = f.block(b).term {
            if s == b || cfg.preds[s.index()] != [b] {
                break;
            }
            // Fold S's phis (single pred) into direct values.
            let mut tail = std::mem::take(&mut f.block_mut(s).insts);
            tail.retain(|&id| {
                let InstKind::Phi { incomings } = &f.inst(id).kind else {
                    return true;
                };
                let v = incomings
                    .iter()
                    .find(|(p, _)| *p == b)
                    .map(|(_, v)| *v)
                    .unwrap_or(Value::Undef(f.inst(id).ty));
                phis.record(id, phis.resolve(v));
                false
            });
            // Splice S into B.
            f.block_mut(b).insts.extend(tail);
            let s_term = f.block(s).term.clone();
            let preds = &mut cfg.to_mut().preds;
            for succ in s_term.successors() {
                f.rename_phi_pred(succ, s, b);
                for p in preds[succ.index()].iter_mut().filter(|p| **p == s) {
                    *p = b;
                }
            }
            f.block_mut(b).term = s_term;
            f.delete_block(s);
            changed = true;
        }
    }
    phis.apply(f);
    changed
}

fn remove_forwarding_blocks(f: &mut Body) -> bool {
    until_stable::<Cow<Cfg>>(f, |f, cfg| {
        for b in f.block_ids().collect::<Vec<_>>() {
            if b == BlockId::ENTRY || !cfg.reachable[b.index()] {
                continue;
            }
            if !f.block(b).insts.is_empty() {
                continue;
            }
            let Terminator::Br(t) = f.block(b).term else {
                continue;
            };
            if t == b {
                continue;
            }
            let preds = cfg.preds[b.index()].clone();
            if preds.is_empty() {
                continue;
            }
            // If the target has phis, forwarding is only safe when no pred
            // of `b` is already a pred of `t` (no duplicate entries).
            let t_has_phis = f
                .block(t)
                .insts
                .first()
                .map(|&i| f.inst(i).kind.is_phi())
                .unwrap_or(false);
            if t_has_phis {
                let t_preds = &cfg.preds[t.index()];
                if preds.iter().any(|p| t_preds.contains(p)) {
                    continue;
                }
                for &id in &f.block(t).insts.clone() {
                    if let InstKind::Phi { incomings } = f.inst(id).kind.clone() {
                        let mut new_inc = Vec::new();
                        for (p, v) in incomings {
                            if p == b {
                                for &bp in &preds {
                                    new_inc.push((bp, v));
                                }
                            } else {
                                new_inc.push((p, v));
                            }
                        }
                        f.inst_mut(id).kind = InstKind::Phi { incomings: new_inc };
                    }
                }
            }
            for &p in &preds {
                let mut term = f.block(p).term.clone();
                term.map_targets(|x| if x == b { t } else { x });
                f.block_mut(p).term = term;
            }
            f.delete_block(b);
            return true;
        }
        false
    })
}

fn ifs_to_selects(f: &mut Body) -> bool {
    until_stable::<CfgDom>(f, |f, (cfg, dt)| {
        // Where each instruction is placed, built at the first try: on
        // verified input a failed try moves nothing, and a step ends at
        // the first success.
        let placement = OnceCell::new();
        for b in f.block_ids().collect::<Vec<_>>() {
            if !cfg.reachable[b.index()] {
                continue;
            }
            let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } = f.block(b).term
            else {
                continue;
            };
            if then_bb == else_bb {
                continue;
            }
            // Where an arm jumps when it is empty and entered only from b.
            let empty_jump = |x: BlockId| match f.block(x).term {
                Terminator::Br(j) if f.block(x).insts.is_empty() && cfg.preds[x.index()] == [b] => {
                    Some(j)
                }
                _ => None,
            };
            let (t_jump, e_jump) = (empty_jump(then_bb), empty_jump(else_bb));
            // (join, then_from, else_from, dead arms) of a diamond
            // b → {t, e} → j, then of a triangle with its empty arm on
            // either side: b → {t, j}, t → j and b → {j, e}, e → j.
            let diamond = t_jump.filter(|_| t_jump == e_jump);
            let shapes = [
                (diamond, then_bb, else_bb, &[then_bb, else_bb][..]),
                (t_jump.filter(|&j| j == else_bb), then_bb, b, &[then_bb][..]),
                (e_jump.filter(|&j| j == then_bb), b, else_bb, &[else_bb][..]),
            ];
            for (join, then_from, else_from, dead) in shapes {
                if let Some(j) = join.filter(|&j| j != b) {
                    let du = placement.get_or_init(|| f.analyse::<Cow<DefUse>>());
                    if try_select(f, cfg, (du, dt), b, cond, j, then_from, else_from, dead) {
                        return true;
                    }
                }
            }
        }
        false
    })
}

/// Value is usable at the end of `b` (constant, or defined in a block
/// dominating `b` — including `b` itself, since selects are appended after
/// all existing instructions).
fn usable_at(du: &DefUse, dt: &DomTree, b: BlockId, v: Value) -> bool {
    match v {
        Value::Inst(id) => du
            .block_of(id)
            .is_some_and(|db| db == b || dt.dominates(db, b)),
        _ => true,
    }
}

/// Rewrites the phis of `j`, entered from `then_from` when `cond` holds
/// and from `else_from` otherwise, into `select`s at the end of `b`, which
/// then branches straight to `j`; the empty `dead` arms are deleted. Fails
/// unless `j`'s preds are exactly the two sources and every incoming value
/// is usable at the end of `b`. `cfg`, `du` and `dt` describe `f`: a
/// failed try leaves its branches as they were.
#[allow(clippy::too_many_arguments)]
fn try_select(
    f: &mut Function,
    cfg: &Cfg,
    (du, dt): (&DefUse, &DomTree),
    b: BlockId,
    cond: Value,
    j: BlockId,
    then_from: BlockId,
    else_from: BlockId,
    dead: &[BlockId],
) -> bool {
    let mut preds = cfg.preds[j.index()].clone();
    preds.sort();
    let mut expect = vec![then_from, else_from];
    expect.sort();
    if preds != expect {
        return false;
    }
    let phis: Vec<InstId> = f
        .block(j)
        .insts
        .iter()
        .copied()
        .take_while(|&i| f.inst(i).kind.is_phi())
        .collect();
    for &p in &phis {
        let InstKind::Phi { incomings } = &f.inst(p).kind else {
            unreachable!()
        };
        if !incomings.iter().all(|&(_, v)| usable_at(du, dt, b, v)) {
            return false;
        }
    }
    for p in phis {
        let InstKind::Phi { incomings } = f.inst(p).kind.clone() else {
            unreachable!()
        };
        let tv = incomings
            .iter()
            .find(|(x, _)| *x == then_from)
            .map(|(_, v)| *v);
        let ev = incomings
            .iter()
            .find(|(x, _)| *x == else_from)
            .map(|(_, v)| *v);
        let (Some(tv), Some(ev)) = (tv, ev) else {
            return false;
        };
        let ty = f.inst(p).ty;
        let sel = f.add_inst(Inst::new(
            InstKind::Select {
                cond,
                then_val: tv,
                else_val: ev,
            },
            ty,
        ));
        f.block_mut(b).insts.push(sel);
        f.replace_all_uses(p, Value::Inst(sel));
        f.remove_from_block(j, p);
    }
    f.block_mut(b).term = Terminator::Br(j);
    for &d in dead {
        f.delete_block(d);
    }
    true
}

/// `jump-threading`: when a block consists only of phis and a compare
/// feeding its conditional branch, and a predecessor's incoming value
/// decides the branch, that predecessor jumps directly to the decided
/// successor, skipping the block.
pub fn jump_threading(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<Cow<Cfg>>(f, |f, cfg| {
        'blocks: for b in f.block_ids().collect::<Vec<_>>() {
            if b == BlockId::ENTRY || !cfg.reachable[b.index()] {
                continue;
            }
            let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } = f.block(b).term
            else {
                continue;
            };
            if then_bb == b || else_bb == b {
                continue;
            }
            // The block must contain only phis plus (optionally) the
            // compare that feeds the branch.
            let mut cmp_id: Option<InstId> = None;
            for &id in &f.block(b).insts {
                let k = &f.inst(id).kind;
                if k.is_phi() {
                    continue;
                }
                if Value::Inst(id) == cond && matches!(k, InstKind::Cmp { .. }) && cmp_id.is_none()
                {
                    cmp_id = Some(id);
                    continue;
                }
                continue 'blocks;
            }

            // Threading bypasses `b`, which can break dominance of values
            // defined in `b` over downstream uses. Every phi (and the cmp)
            // may therefore only be used inside `b` itself or as a
            // phi-incoming *along the edge from `b`* in a successor.
            let du = f.analyse::<Cow<mlcomp_ir::analysis::DefUse>>();
            let mut defs_ok = true;
            'defs: for &id in &f.block(b).insts {
                for site in du.uses_of(id) {
                    match site {
                        mlcomp_ir::analysis::UseSite::Term(tb) if *tb == b => {}
                        mlcomp_ir::analysis::UseSite::Inst(ub, uid) => {
                            if *ub == b {
                                continue;
                            }
                            // Must be a phi whose every incoming carrying
                            // this value comes from `b`.
                            let InstKind::Phi { incomings } = &f.inst(*uid).kind else {
                                defs_ok = false;
                                break 'defs;
                            };
                            if incomings
                                .iter()
                                .any(|(p, v)| *v == Value::Inst(id) && *p != b)
                            {
                                defs_ok = false;
                                break 'defs;
                            }
                        }
                        _ => {
                            defs_ok = false;
                            break 'defs;
                        }
                    }
                }
            }
            if !defs_ok {
                continue;
            }

            let preds = cfg.preds[b.index()].clone();
            if preds.len() < 2 {
                continue;
            }
            for p in preds {
                // The pred must reach b through exactly one edge.
                let edges_to_b = f
                    .block(p)
                    .term
                    .successors()
                    .iter()
                    .filter(|&&s| s == b)
                    .count();
                if edges_to_b != 1 {
                    continue;
                }
                let decided = decide_cond(f, b, p, cond, cmp_id);
                let Some(take_then) = decided else { continue };
                let target = if take_then { then_bb } else { else_bb };

                if cfg.preds[target.index()].contains(&p) {
                    continue;
                }
                let mut mapped: Vec<(InstId, Value)> = Vec::new();
                let mut ok = true;
                for &id in &f.block(target).insts {
                    let InstKind::Phi { incomings } = &f.inst(id).kind else {
                        break;
                    };
                    let Some((_, v)) = incomings.iter().find(|(x, _)| *x == b) else {
                        ok = false;
                        break;
                    };
                    match derive_for_pred(f, b, p, *v, cmp_id) {
                        Some(dv) => mapped.push((id, dv)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                // Retarget p's edge.
                let mut term = f.block(p).term.clone();
                term.map_targets(|x| if x == b { target } else { x });
                f.block_mut(p).term = term;
                for (id, dv) in mapped {
                    if let InstKind::Phi { incomings } = &mut f.inst_mut(id).kind {
                        incomings.push((p, dv));
                    }
                }
                f.remove_phi_edges(b, p);
                return true;
            }
        }
        false
    });
    if changed {
        remove_unreachable_blocks(f);
        trivial_dce(m, f, false);
    }
    changed
}

/// If pred `p`'s incoming values decide `cond` in block `b`, returns the
/// branch direction.
fn decide_cond(
    f: &Function,
    b: BlockId,
    p: BlockId,
    cond: Value,
    cmp_id: Option<InstId>,
) -> Option<bool> {
    let incoming = |v: Value| -> Option<Value> {
        match v {
            Value::Inst(id) if f.block(b).insts.contains(&id) => match &f.inst(id).kind {
                InstKind::Phi { incomings } => {
                    incomings.iter().find(|(x, _)| *x == p).map(|(_, v)| *v)
                }
                _ => None,
            },
            v => Some(v),
        }
    };
    match cond {
        Value::Inst(id) if Some(id) == cmp_id => {
            let InstKind::Cmp { pred, lhs, rhs } = &f.inst(id).kind else {
                return None;
            };
            let l = incoming(*lhs)?;
            let r = incoming(*rhs)?;
            match (l.as_const_int(), r.as_const_int()) {
                (Some(a), Some(c)) => Some(pred.eval_int(a, c)),
                _ => match (l.as_const_f64(), r.as_const_f64()) {
                    (Some(a), Some(c)) => Some(pred.eval_float(a, c)),
                    _ => None,
                },
            }
        }
        v => incoming(v)?.as_const_int().map(|c| c != 0),
    }
}

/// Derives the value `v` (used by a phi entry from `b`) for the new direct
/// edge from `p`: constants pass through, `b`-phis map to their incoming.
fn derive_for_pred(
    f: &Function,
    b: BlockId,
    p: BlockId,
    v: Value,
    cmp_id: Option<InstId>,
) -> Option<Value> {
    match v {
        Value::Inst(id) if f.block(b).insts.contains(&id) => {
            if Some(id) == cmp_id {
                let InstKind::Cmp { pred, lhs, rhs } = &f.inst(id).kind else {
                    return None;
                };
                let inc = |x: Value| -> Option<Value> {
                    match x {
                        Value::Inst(xid) if f.block(b).insts.contains(&xid) => {
                            match &f.inst(xid).kind {
                                InstKind::Phi { incomings } => {
                                    incomings.iter().find(|(q, _)| *q == p).map(|(_, v)| *v)
                                }
                                _ => None,
                            }
                        }
                        x => Some(x),
                    }
                };
                let l = inc(*lhs)?.as_const_int()?;
                let r = inc(*rhs)?.as_const_int()?;
                return Some(Value::bool(pred.eval_int(l, r)));
            }
            match &f.inst(id).kind {
                InstKind::Phi { incomings } => {
                    incomings.iter().find(|(q, _)| *q == p).map(|(_, v)| *v)
                }
                _ => None,
            }
        }
        // Defined elsewhere: dominating b does not imply dominating p, so
        // only constants and params are safe.
        v if v.is_const() => Some(v),
        Value::Param(_) => Some(v),
        _ => None,
    }
}

/// `callsite-splitting`: a call taking a `select(c, a, b)` argument is
/// split into a conditional with two specialized call sites, exposing each
/// constant argument to later interprocedural phases.
pub fn callsite_splitting(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    loop {
        let mut split_done = false;
        'outer: for b in f.block_ids().collect::<Vec<_>>() {
            let ids = f.block(b).insts.clone();
            for (pos, &id) in ids.iter().enumerate() {
                let InstKind::Call { callee, args } = f.inst(id).kind.clone() else {
                    continue;
                };
                let sel = args.iter().enumerate().find_map(|(ai, a)| {
                    a.as_inst().and_then(|sid| match &f.inst(sid).kind {
                        InstKind::Select {
                            cond,
                            then_val,
                            else_val,
                        } if then_val.is_const() || else_val.is_const() => {
                            Some((ai, *cond, *then_val, *else_val))
                        }
                        _ => None,
                    })
                });
                let Some((ai, cond, tv, ev)) = sel else {
                    continue;
                };
                let ret_ty = f.inst(id).ty;

                // Split so the call begins a new block, then split again so
                // the continuation follows it.
                let call_bb = if pos == 0 {
                    b
                } else {
                    split_block_after(f, b, pos - 1)
                };
                let cont = split_block_after(f, call_bb, 0);
                f.remove_from_block(call_bb, id);
                let then_bb = f.add_block();
                let else_bb = f.add_block();
                let mut targs = args.clone();
                targs[ai] = tv;
                let mut eargs = args;
                eargs[ai] = ev;
                let tcall = f.add_inst(Inst::new(
                    InstKind::Call {
                        callee,
                        args: targs,
                    },
                    ret_ty,
                ));
                let ecall = f.add_inst(Inst::new(
                    InstKind::Call {
                        callee,
                        args: eargs,
                    },
                    ret_ty,
                ));
                f.block_mut(then_bb).insts.push(tcall);
                f.block_mut(else_bb).insts.push(ecall);
                f.block_mut(then_bb).term = Terminator::Br(cont);
                f.block_mut(else_bb).term = Terminator::Br(cont);
                f.block_mut(call_bb).term = Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    weight: None,
                };
                if ret_ty != Type::Void {
                    let phi = f.add_inst(Inst::new(
                        InstKind::Phi {
                            incomings: vec![
                                (then_bb, Value::Inst(tcall)),
                                (else_bb, Value::Inst(ecall)),
                            ],
                        },
                        ret_ty,
                    ));
                    f.block_mut(cont).insts.insert(0, phi);
                    f.replace_all_uses(id, Value::Inst(phi));
                }
                split_done = true;
                changed = true;
                break 'outer;
            }
        }
        if !split_done {
            break;
        }
    }
    changed | trivial_dce(m, f, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, CmpPred, Interpreter, ModuleBuilder, RtVal};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn folds_constant_branch_and_merges() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let v = b.if_else(
                b.const_bool(true),
                Type::I64,
                |b| b.const_i64(1),
                |b| b.const_i64(2),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(simplifycfg(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_block_count(), 1);
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(1)));
    }

    #[test]
    fn diamond_becomes_select() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("max", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.param(1));
            let v = b.if_else(c, Type::I64, |b| b.param(0), |b| b.param(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(simplifycfg(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.live_block_count(), 1);
        assert!(crate::util::all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Select { .. })));
        assert_eq!(
            exec(&m, "max", &[RtVal::I(3), RtVal::I(9)]),
            Some(RtVal::I(9))
        );
    }

    #[test]
    fn triangle_becomes_select() {
        // One triangle per side of the branch: the empty arm is the then
        // side (`b → {arm, j}`) or the else side (`b → {j, arm}`).
        for arm_is_then in [true, false] {
            let mut mb = ModuleBuilder::new("t");
            mb.begin_function("f", vec![Type::I64], Type::I64);
            {
                let mut b = mb.body();
                let entry = b.current_block();
                let arm = b.new_block();
                let join = b.new_block();
                let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
                if arm_is_then {
                    b.cond_br(c, arm, join);
                } else {
                    b.cond_br(c, join, arm);
                }
                b.switch_to(arm);
                b.br(join);
                b.switch_to(join);
                let v = b.phi(
                    Type::I64,
                    vec![(entry, b.const_i64(10)), (arm, b.const_i64(20))],
                );
                b.ret(Some(v));
            }
            mb.finish_function();
            let mut m = mb.build();
            let mc = m.clone();
            assert!(
                simplifycfg(&mc, &mut Body::from(&mut m.functions[0])),
                "arm_is_then={arm_is_then}"
            );
            verify(&m).unwrap();
            assert_eq!(m.functions[0].live_block_count(), 1);
            let (taken, skipped) = if arm_is_then { (20, 10) } else { (10, 20) };
            assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(taken)));
            assert_eq!(exec(&m, "f", &[RtVal::I(-1)]), Some(RtVal::I(skipped)));
        }
    }

    #[test]
    fn jump_threading_skips_decidable_block() {
        // Two preds feed a phi with constants; the check block is skipped.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let check = b.new_block();
            let yes = b.new_block();
            let no = b.new_block();
            let p1 = b.current_block();
            let c0 = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let p2 = b.new_block();
            b.cond_br(c0, check, p2);
            b.switch_to(p2);
            b.br(check);
            b.switch_to(check);
            let flag = b.phi(Type::I64, vec![(p1, Value::i64(1)), (p2, Value::i64(0))]);
            let c = b.cmp(CmpPred::Ne, flag, b.const_i64(0));
            b.cond_br(c, yes, no);
            b.switch_to(yes);
            b.ret(Some(b.const_i64(100)));
            b.switch_to(no);
            b.ret(Some(b.const_i64(200)));
        }
        mb.finish_function();
        let mut m = mb.build();
        verify(&m).unwrap();
        let mc = m.clone();
        assert!(jump_threading(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(100)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-5)]), Some(RtVal::I(200)));
        // The remaining single-pred phi folds away once simplifycfg merges
        // the chain — the usual JT + simplifycfg pairing.
        simplifycfg(&mc, &mut Body::from(&mut m.functions[0]));
        crate::scalar::instsimplify(&mc, &mut Body::from(&mut m.functions[0]));
        simplifycfg(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(100)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-5)]), Some(RtVal::I(200)));
        let f = &m.functions[0];
        let phi_count = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| f.inst(*id).kind.is_phi())
            .count();
        assert_eq!(
            phi_count, 0,
            "threading + simplifycfg removes the phi block"
        );
    }

    #[test]
    fn callsite_splitting_specializes_args() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("g", vec![Type::I64], Type::I64);
        mb.begin_existing(callee);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(2));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let sel = b.select(c, b.const_i64(10), b.const_i64(20));
            let r = b.call(callee, vec![sel], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(callsite_splitting(
            &mc,
            &mut Body::from(&mut m.functions[1])
        ));
        verify(&m).unwrap();
        let f = &m.functions[1];
        let calls = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Call { .. }))
            .count();
        assert_eq!(calls, 2);
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(20)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-1)]), Some(RtVal::I(40)));
    }

    #[test]
    fn forwarding_block_removed() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let fwd = b.new_block();
            let end = b.new_block();
            b.br(fwd);
            b.switch_to(fwd);
            b.br(end);
            b.switch_to(end);
            b.ret(Some(b.const_i64(3)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(simplifycfg(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_block_count(), 1);
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(3)));
    }

    #[test]
    fn switch_with_single_target_folds() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let only = b.new_block();
            b.switch(b.param(0), vec![(0, only), (1, only)], only);
            b.switch_to(only);
            b.ret(Some(b.const_i64(9)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(simplifycfg(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_block_count(), 1);
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(9)));
    }
}

/// The chain merging and select formation this module had before chains
/// were merged from one `Cfg`, kept as a differential oracle: one merge per
/// fresh `Cfg`, each merged phi rewritten in the whole function at once,
/// and a scan of every block for each incoming value's definition.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{fold_constant_terminators, remove_forwarding_blocks};
    use crate::util::{remove_unreachable_blocks, trivial_dce, until_stable};
    use mlcomp_ir::analysis::{Body, Cfg, CfgDom, DomTree};
    use mlcomp_ir::{BlockId, Function, Inst, InstId, InstKind, Module, Terminator, Value};
    use std::borrow::Cow;

    pub(crate) fn simplifycfg(m: &Module, f: &mut Body) -> bool {
        let mut changed = false;
        loop {
            let mut local = false;
            local |= fold_constant_terminators(f);
            local |= remove_unreachable_blocks(f);
            local |= merge_block_chains(f);
            local |= remove_forwarding_blocks(f);
            local |= ifs_to_selects(f);
            if !local {
                break;
            }
            changed = true;
        }
        changed | trivial_dce(m, f, false)
    }

    fn merge_block_chains(f: &mut Body) -> bool {
        until_stable::<Cow<Cfg>>(f, |f, cfg| {
            for b in f.block_ids().collect::<Vec<_>>() {
                if !cfg.reachable[b.index()] {
                    continue;
                }
                let Terminator::Br(s) = f.block(b).term else {
                    continue;
                };
                if s == b || cfg.preds[s.index()] != vec![b] {
                    continue;
                }
                // Fold S's phis (single pred) into direct values.
                let s_insts = f.block(s).insts.clone();
                for id in s_insts {
                    if let InstKind::Phi { incomings } = f.inst(id).kind.clone() {
                        let v = incomings
                            .iter()
                            .find(|(p, _)| *p == b)
                            .map(|(_, v)| *v)
                            .unwrap_or(Value::Undef(f.inst(id).ty));
                        f.replace_all_uses(id, v);
                        f.remove_from_block(s, id);
                    }
                }
                // Splice S into B.
                let tail = std::mem::take(&mut f.block_mut(s).insts);
                f.block_mut(b).insts.extend(tail);
                let s_term = f.block(s).term.clone();
                for succ in s_term.successors() {
                    f.rename_phi_pred(succ, s, b);
                }
                f.block_mut(b).term = s_term;
                f.delete_block(s);
                return true;
            }
            false
        })
    }

    fn ifs_to_selects(f: &mut Body) -> bool {
        until_stable::<CfgDom>(f, |f, (cfg, dt)| {
            for b in f.block_ids().collect::<Vec<_>>() {
                if !cfg.reachable[b.index()] {
                    continue;
                }
                let Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } = f.block(b).term
                else {
                    continue;
                };
                if then_bb == else_bb {
                    continue;
                }
                // Where an arm jumps when it is empty and entered only from b.
                let empty_jump = |x: BlockId| match f.block(x).term {
                    Terminator::Br(j)
                        if f.block(x).insts.is_empty() && cfg.preds[x.index()] == [b] =>
                    {
                        Some(j)
                    }
                    _ => None,
                };
                let (t_jump, e_jump) = (empty_jump(then_bb), empty_jump(else_bb));
                // (join, then_from, else_from, dead arms) of a diamond
                // b → {t, e} → j, then of a triangle with its empty arm on
                // either side: b → {t, j}, t → j and b → {j, e}, e → j.
                let diamond = t_jump.filter(|_| t_jump == e_jump);
                let shapes = [
                    (diamond, then_bb, else_bb, &[then_bb, else_bb][..]),
                    (t_jump.filter(|&j| j == else_bb), then_bb, b, &[then_bb][..]),
                    (e_jump.filter(|&j| j == then_bb), b, else_bb, &[else_bb][..]),
                ];
                for (join, then_from, else_from, dead) in shapes {
                    if let Some(j) = join.filter(|&j| j != b) {
                        if try_select(f, cfg, dt, b, cond, j, then_from, else_from, dead) {
                            return true;
                        }
                    }
                }
            }
            false
        })
    }

    /// Value is usable at the end of `b` (constant, or defined in a block
    /// dominating `b` — including `b` itself, since selects are appended after
    /// all existing instructions).
    fn usable_at(f: &Function, dt: &DomTree, b: BlockId, v: Value) -> bool {
        match v {
            Value::Inst(id) => f
                .block_ids()
                .find(|&x| f.block(x).insts.contains(&id))
                .map(|db| db == b || dt.dominates(db, b))
                .unwrap_or(false),
            _ => true,
        }
    }

    /// Rewrites the phis of `j`, entered from `then_from` when `cond` holds
    /// and from `else_from` otherwise, into `select`s at the end of `b`, which
    /// then branches straight to `j`; the empty `dead` arms are deleted. Fails
    /// unless `j`'s preds are exactly the two sources and every incoming value
    /// is usable at the end of `b`. `cfg` and `dt` describe `f`: a failed try
    /// leaves its branches as they were.
    #[allow(clippy::too_many_arguments)]
    fn try_select(
        f: &mut Function,
        cfg: &Cfg,
        dt: &DomTree,
        b: BlockId,
        cond: Value,
        j: BlockId,
        then_from: BlockId,
        else_from: BlockId,
        dead: &[BlockId],
    ) -> bool {
        let mut preds = cfg.preds[j.index()].clone();
        preds.sort();
        let mut expect = vec![then_from, else_from];
        expect.sort();
        if preds != expect {
            return false;
        }
        let phis: Vec<InstId> = f
            .block(j)
            .insts
            .iter()
            .copied()
            .take_while(|&i| f.inst(i).kind.is_phi())
            .collect();
        for &p in &phis {
            let InstKind::Phi { incomings } = &f.inst(p).kind else {
                unreachable!()
            };
            for (_, v) in incomings {
                if !usable_at(f, dt, b, *v) {
                    return false;
                }
            }
        }
        for p in phis {
            let InstKind::Phi { incomings } = f.inst(p).kind.clone() else {
                unreachable!()
            };
            let tv = incomings
                .iter()
                .find(|(x, _)| *x == then_from)
                .map(|(_, v)| *v);
            let ev = incomings
                .iter()
                .find(|(x, _)| *x == else_from)
                .map(|(_, v)| *v);
            let (Some(tv), Some(ev)) = (tv, ev) else {
                return false;
            };
            let ty = f.inst(p).ty;
            let sel = f.add_inst(Inst::new(
                InstKind::Select {
                    cond,
                    then_val: tv,
                    else_val: ev,
                },
                ty,
            ));
            f.block_mut(b).insts.push(sel);
            f.replace_all_uses(p, Value::Inst(sel));
            f.remove_from_block(j, p);
        }
        f.block_mut(b).term = Terminator::Br(j);
        for &d in dead {
            f.delete_block(d);
        }
        true
    }
}
