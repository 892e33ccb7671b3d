//! Constant propagation phases: `sccp`, `ipsccp` and
//! `correlated-propagation`.

use crate::util::{fold_constant, remove_unreachable_blocks, trivial_dce, Replacements};
use mlcomp_ir::analysis::{Body, CfgDom, ModuleBody};
use mlcomp_ir::{
    BlockId, Callee, CmpPred, FuncId, Function, InstId, InstKind, Module, Terminator, Value,
};
use std::collections::VecDeque;

/// The SCCP lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lattice {
    /// Not yet known (⊤).
    Unknown,
    /// Proven constant.
    Const(Value),
    /// Proven non-constant (⊥).
    Over,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Unknown, x) | (x, Lattice::Unknown) => x,
            (Lattice::Const(a), Lattice::Const(b)) if a == b => Lattice::Const(a),
            _ => Lattice::Over,
        }
    }
}

/// Sparse conditional constant propagation (intraprocedural): propagates
/// constants through phis along provably executable edges only, then folds
/// constant branches and deletes never-executed blocks.
pub fn sccp(m: &Module, f: &mut Body) -> bool {
    let pruned = remove_unreachable_blocks(f);
    let solution = solve(f);
    apply_solution(m, f, &solution) | pruned
}

/// Interprocedural SCCP: when every direct call site of an internal
/// function passes the same constant for a parameter, that constant is
/// propagated into the callee; constant return values are propagated back
/// to call sites.
///
/// It writes bodies only through [`ModuleBody::body`] and `bodies` and
/// reads attributes from the pre-phase module, so every function it
/// leaves alone keeps its cached analyses.
pub fn ipsccp(m: &mut ModuleBody) -> bool {
    ipsccp_with(m, (apply_solution, replace_call_results))
}

/// How `ipsccp` rewrites a function body: by its own SCCP solution, and by
/// the constants its callees return.
type Rewrites = (
    fn(&Module, &mut Body, &[Option<Value>]) -> bool,
    fn(&mut Body, &[Option<Value>]) -> bool,
);

fn ipsccp_with(m: &mut ModuleBody, (apply_solution, replace_call_results): Rewrites) -> bool {
    let mut changed = false;
    let cg = m.call_graph();
    let before = m.before();

    // Collect per-function parameter lattices from call sites.
    let n = m.functions.len();
    let mut param_consts: Vec<Vec<Lattice>> = m
        .functions
        .iter()
        .map(|f| vec![Lattice::Unknown; f.params.len()])
        .collect();
    for fid in m.function_ids() {
        let f = m.function(fid);
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Call {
                    callee: Callee::Direct(c),
                    args,
                } = &f.inst(id).kind
                {
                    for (i, a) in args.iter().enumerate() {
                        let l = if a.is_const() {
                            Lattice::Const(*a)
                        } else {
                            Lattice::Over
                        };
                        param_consts[c.index()][i] = param_consts[c.index()][i].meet(l);
                    }
                }
            }
        }
    }

    // Substitute proven-constant params inside internal, non-address-taken
    // functions that have at least one caller.
    for (fi, lattices) in param_consts.iter().enumerate() {
        let fid = FuncId(fi as u32);
        if !before.functions[fi].internal
            || cg.address_taken.contains(&fid)
            || cg.call_site_count(fid) == 0
        {
            continue;
        }
        let consts: Vec<(u32, Value)> = lattices
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l {
                Lattice::Const(v) => Some((i as u32, *v)),
                _ => None,
            })
            .collect();
        if consts.is_empty() {
            continue;
        }
        let subst = |v: Value| match v {
            Value::Param(i) => consts
                .iter()
                .find(|(pi, _)| *pi == i)
                .map_or(v, |(_, c)| *c),
            v => v,
        };
        let mut f = m.body(fid);
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                let mut hit = false;
                f.inst(id).kind.for_each_operand(|v| hit |= subst(v) != v);
                if hit {
                    f.inst_mut(id).kind.map_operands(subst);
                    changed = true;
                }
            }
            let mut hit = false;
            f.block(b).term.for_each_operand(|v| hit |= subst(v) != v);
            if hit {
                f.block_mut(b).term.map_operands(subst);
                changed = true;
            }
        }
    }

    // Per-function SCCP, collecting constant returns.
    let mut const_returns: Vec<Option<Value>> = vec![None; n];
    for (mut f, ret_slot) in m.bodies().zip(&mut const_returns) {
        if f.is_declaration {
            continue;
        }
        changed |= remove_unreachable_blocks(&mut f);
        let solution = solve(&f);
        changed |= apply_solution(before, &mut f, &solution);
        // Constant return detection.
        let ret = f
            .block_ids()
            .fold(Lattice::Unknown, |ret, b| match f.block(b).term {
                Terminator::Ret(Some(v)) if v.is_const() => ret.meet(Lattice::Const(v)),
                Terminator::Ret(Some(_)) => Lattice::Over,
                _ => ret,
            });
        if let Lattice::Const(v) = ret {
            *ret_slot = Some(v);
        }
    }

    // Replace call results with constant returns (call stays for effects;
    // DCE will drop it if the callee is readnone). A call whose result has
    // no use changes nothing.
    for mut f in m.bodies() {
        changed |= replace_call_results(&mut f, &const_returns);
    }

    if changed {
        for mut f in m.bodies() {
            if !f.is_declaration {
                trivial_dce(before, &mut f, false);
            }
        }
    }
    changed
}

/// Rewrites the uses of each direct call's result whose callee returns the
/// constant `const_returns` holds for it, and returns whether one was
/// rewritten. The calls stay placed.
fn replace_call_results(f: &mut Body, const_returns: &[Option<Value>]) -> bool {
    let mut results = Replacements::new(f);
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let InstKind::Call {
                callee: Callee::Direct(c),
                ..
            } = &f.inst(id).kind
            {
                if let Some(v) = const_returns[c.index()] {
                    if f.inst(id).ty == f.value_type(v) {
                        results.record(id, v);
                    }
                }
            }
        }
    }
    results.rewrite_uses(f)
}

/// Solves the SCCP lattice of `f` and returns, per instruction id, the
/// constant it is proven to equal. Parameters are never constant here;
/// `ipsccp` substitutes constant arguments into the body beforehand.
fn solve(f: &Function) -> Vec<Option<Value>> {
    let mut lattice = vec![Lattice::Unknown; f.insts.len()];
    let mut exec_block = vec![false; f.blocks.len()];
    // Per block, the predecessors whose edge into it is executable.
    let mut exec_preds: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    let mut work: VecDeque<BlockId> = VecDeque::new();

    let value_lattice = |v: Value, lattice: &[Lattice]| -> Lattice {
        match v {
            Value::Inst(id) => lattice[id.index()],
            Value::Param(_) | Value::Undef(_) => Lattice::Over,
            c => Lattice::Const(c),
        }
    };

    exec_block[BlockId::ENTRY.index()] = true;
    work.push_back(BlockId::ENTRY);

    // Fixpoint iteration: process the worklist, then — because lattice
    // changes must reach *users* (not just CFG successors) — re-seed the
    // worklist with every executable block until nothing changes. This is
    // less efficient than SSA-edge-driven SCCP but cannot miss updates.
    let mut rounds = 0usize;
    let mut global_change = true;
    while global_change {
        rounds += 1;
        // Each round performs at least one lattice lowering and every
        // instruction can lower at most twice, so this bound is never hit;
        // it only guards against bugs, and on trigger we discard the
        // solution entirely (a stale partial solution would be unsound).
        if rounds > 4 * f.insts.len() + 64 {
            return vec![None; f.insts.len()];
        }
        global_change = false;
        if work.is_empty() {
            for (i, &exec) in exec_block.iter().enumerate() {
                if exec {
                    work.push_back(BlockId(i as u32));
                }
            }
        }

        while let Some(b) = work.pop_front() {
            let blk = f.block(b);
            let mut any_change = false;
            for &id in &blk.insts {
                let inst = f.inst(id);
                let old = lattice[id.index()];
                if old == Lattice::Over {
                    continue;
                }
                let new = match &inst.kind {
                    InstKind::Phi { incomings } => {
                        let mut l = Lattice::Unknown;
                        for (p, v) in incomings {
                            if exec_preds[b.index()].contains(p) {
                                l = l.meet(value_lattice(*v, &lattice));
                            }
                        }
                        l
                    }
                    k if k.is_pure() || matches!(k, InstKind::Bin { .. }) => {
                        // Gather operand lattices; fold when all constant.
                        let mut any_unknown = false;
                        let mut any_over = false;
                        k.for_each_operand(|v| match value_lattice(v, &lattice) {
                            Lattice::Unknown => any_unknown = true,
                            Lattice::Over => any_over = true,
                            Lattice::Const(_) => {}
                        });
                        if any_over {
                            Lattice::Over
                        } else if any_unknown {
                            Lattice::Unknown
                        } else {
                            // Substitute constants and fold.
                            let mut kind = k.clone();
                            kind.map_operands(|v| match value_lattice(v, &lattice) {
                                Lattice::Const(c) => c,
                                _ => v,
                            });
                            match fold_constant(&kind, inst.ty) {
                                Some(c) => Lattice::Const(c),
                                None => Lattice::Over,
                            }
                        }
                    }
                    _ => Lattice::Over,
                };
                let merged = old.meet(new);
                if merged != old {
                    lattice[id.index()] = merged;
                    any_change = true;
                }
            }

            // Decide outgoing edges.
            let mut mark_edge = |to: BlockId| {
                let preds = &mut exec_preds[to.index()];
                let newly_edge = !preds.contains(&b);
                if newly_edge {
                    preds.push(b);
                }
                let newly_block = !exec_block[to.index()];
                exec_block[to.index()] = true;
                if newly_edge || newly_block {
                    work.push_back(to);
                }
            };
            match &blk.term {
                Terminator::Br(t) => mark_edge(*t),
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } => match value_lattice(*cond, &lattice) {
                    Lattice::Const(c) => {
                        let t = if c.as_const_int().unwrap_or(0) != 0 {
                            *then_bb
                        } else {
                            *else_bb
                        };
                        mark_edge(t);
                    }
                    Lattice::Unknown => {}
                    Lattice::Over => {
                        mark_edge(*then_bb);
                        mark_edge(*else_bb);
                    }
                },
                Terminator::Switch {
                    val,
                    cases,
                    default,
                } => match value_lattice(*val, &lattice) {
                    Lattice::Const(c) => {
                        let cv = c.as_const_int().unwrap_or(0);
                        let t = cases
                            .iter()
                            .find(|(k, _)| *k == cv)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default);
                        mark_edge(t);
                    }
                    Lattice::Unknown => {}
                    Lattice::Over => {
                        for (_, t) in cases {
                            mark_edge(*t);
                        }
                        mark_edge(*default);
                    }
                },
                _ => {}
            }
            if any_change {
                global_change = true;
                // Revisit executable successors so phis see updates quickly.
                for s in blk.term.successors() {
                    if exec_preds[s.index()].contains(&b) {
                        work.push_back(s);
                    }
                }
            }
        }
    }

    lattice
        .into_iter()
        .map(|l| match l {
            Lattice::Const(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// Replaces the pure instructions and phis `solution` proves constant,
/// folds the branches it decides and deletes what they leave unreachable.
/// A block's replaced instructions leave it before its branch is folded,
/// so dropping a phi edge sees only the phis still placed; every use is
/// rewritten once, before unreachable blocks go.
fn apply_solution(m: &Module, f: &mut Body, solution: &[Option<Value>]) -> bool {
    let mut changed = false;
    let mut replaced = Replacements::new(f);
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut local = false;
        for &id in &f.block(b).insts {
            if let Some(v) = solution[id.index()] {
                if f.inst(id).kind.is_pure() || f.inst(id).kind.is_phi() {
                    replaced.record(id, v);
                    local = true;
                }
            }
        }
        if local {
            f.block_mut(b).insts.retain(|&id| !replaced.is_replaced(id));
            changed = true;
        }
        // Fold constant terminators.
        let term = f.block(b).term.clone();
        match term {
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let c = match cond {
                    Value::Inst(id) => solution[id.index()].and_then(|v| v.as_const_int()),
                    v => v.as_const_int(),
                };
                if let Some(c) = c {
                    let (taken, dropped) = if c != 0 {
                        (then_bb, else_bb)
                    } else {
                        (else_bb, then_bb)
                    };
                    f.block_mut(b).term = Terminator::Br(taken);
                    if dropped != taken {
                        f.remove_phi_edges(dropped, b);
                    }
                    changed = true;
                }
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                let c = match val {
                    Value::Inst(id) => solution[id.index()].and_then(|v| v.as_const_int()),
                    v => v.as_const_int(),
                };
                if let Some(c) = c {
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
                }
            }
            _ => {}
        }
    }
    replaced.apply(f);
    changed |= remove_unreachable_blocks(f);
    changed |= trivial_dce(m, f, false);
    changed
}

/// `correlated-propagation`: inside a branch arm that is only reachable
/// when `x pred K` holds, the same comparison folds to `true` (and to
/// `false` on the other arm); for equality tests, `x` itself is replaced
/// by `K` in the dominated region.
pub fn correlated_propagation(m: &Module, f: &mut Body) -> bool {
    let mut changed = remove_unreachable_blocks(f);
    let (cfg, dt) = f.analyse::<CfgDom>();

    let mut edits: Vec<(InstId, Value)> = Vec::new();
    let mut subst: Vec<(Vec<BlockId>, Value, Value)> = Vec::new();

    for b in f.block_ids() {
        let Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            ..
        } = &f.block(b).term
        else {
            continue;
        };
        let Some(cmp_id) = cond.as_inst() else {
            continue;
        };
        let InstKind::Cmp { pred, lhs, rhs } = f.inst(cmp_id).kind.clone() else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        for (arm, truth) in [(*then_bb, true), (*else_bb, false)] {
            // The arm must be entered only through this edge.
            if cfg.preds[arm.index()] != vec![b] {
                continue;
            }
            // Region: blocks dominated by the arm.
            let region: Vec<BlockId> = f.block_ids().filter(|&x| dt.dominates(arm, x)).collect();
            // Fold the controlling compare in the region.
            for &rb in &region {
                for &id in &f.block(rb).insts {
                    if id == cmp_id {
                        continue;
                    }
                    if let InstKind::Cmp {
                        pred: p2,
                        lhs: l2,
                        rhs: r2,
                    } = &f.inst(id).kind
                    {
                        if *l2 == lhs && *r2 == rhs {
                            if *p2 == pred {
                                edits.push((id, Value::bool(truth)));
                            } else if *p2 == pred.negated() {
                                edits.push((id, Value::bool(!truth)));
                            }
                        }
                    }
                }
            }
            // Equality: substitute the variable with the constant.
            let eq_sub = (pred == CmpPred::Eq && truth) || (pred == CmpPred::Ne && !truth);
            if eq_sub && rhs.is_const() && !lhs.is_const() {
                subst.push((region.clone(), lhs, rhs));
            }
        }
    }

    // A compare folded in two regions keeps its first value.
    let mut folded = Replacements::new(f);
    for (id, v) in edits {
        if !folded.is_replaced(id) {
            folded.record(id, v);
        }
    }
    changed |= folded.apply(f);
    for (region, from, to) in subst {
        for b in region {
            for &id in &f.block(b).insts.clone() {
                // Do not rewrite inside phis: incoming values relate to
                // predecessor edges that may lie outside the region.
                if f.inst(id).kind.is_phi() {
                    continue;
                }
                let mut uses = false;
                f.inst(id).kind.for_each_operand(|v| uses |= v == from);
                if uses {
                    f.inst_mut(id)
                        .kind
                        .map_operands(|v| if v == from { to } else { v });
                    changed = true;
                }
            }
            let mut term = f.block(b).term.clone();
            let mut local = false;
            term.map_operands(|v| {
                if v == from {
                    local = true;
                    to
                } else {
                    v
                }
            });
            if local {
                f.block_mut(b).term = term;
                changed = true;
            }
        }
    }
    changed | trivial_dce(m, f, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal, Type};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn sccp_folds_constant_branch() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Lt, b.const_i64(1), b.const_i64(2));
            let v = b.if_else(c, Type::I64, |b| b.const_i64(10), |b| b.const_i64(20));
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(sccp(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert!(m.functions[0].live_block_count() <= 3); // else arm removed
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(10)));
    }

    #[test]
    fn sccp_propagates_through_phi() {
        // Both arms feed the same constant → phi is constant.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let v = b.if_else(c, Type::I64, |b| b.const_i64(7), |b| b.const_i64(7));
            let w = b.add(v, b.const_i64(1));
            b.ret(Some(w));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(sccp(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(8)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-5)]), Some(RtVal::I(8)));
        // The add must have been folded to the constant 8.
        let f = &m.functions[0];
        let has_add = crate::util::all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Bin { .. }));
        assert!(!has_add);
    }

    #[test]
    fn sccp_kills_dead_loop() {
        // while(false) body — the whole loop must fold away.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(5));
            b.for_loop(b.const_i64(10), b.const_i64(3), 1, |b, _i| {
                b.store(acc, b.const_i64(999));
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(sccp(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(5)));
        assert!(m.functions[0].live_block_count() <= 3);
    }

    #[test]
    fn ipsccp_propagates_constant_args() {
        let mut mb = ModuleBuilder::new("t");
        let helper = mb.declare("helper", vec![Type::I64], Type::I64);
        mb.begin_existing(helper);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(3));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.set_internal(helper);
        mb.begin_function("main", vec![], Type::I64);
        {
            let mut b = mb.body();
            let a = b.call(helper, vec![b.const_i64(7)], Type::I64);
            let c = b.call(helper, vec![b.const_i64(7)], Type::I64);
            let s = b.add(a, c);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(crate::run_phase_on(&mut m, "ipsccp").unwrap());
        verify(&m).unwrap();
        assert_eq!(exec(&m, "main", &[]), Some(RtVal::I(42)));
        // helper's body must have been folded to ret 21.
        let h = &m.functions[helper.index()];
        assert_eq!(h.live_inst_count(), 0);
    }

    #[test]
    fn ipsccp_deletes_a_dead_self_call_of_a_readnone_function() {
        // f(n) = { if n > 0 { f(n - 1); } n }: the self-call is dead, and
        // prune-eh infers `readnone` for f (self-calls allowed).
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare("f", vec![Type::I64], Type::I64);
        mb.begin_existing(f);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.if_then(c, |b| {
                let n = b.sub(b.param(0), b.const_i64(1));
                b.call(f, vec![n], Type::I64);
            });
            b.ret(Some(b.param(0)));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(crate::run_phase_on(&mut m, "prune-eh").unwrap());
        assert!(m.functions[0].attrs.readnone);
        // Solving f asks the pre-phase module, where f is `readnone`,
        // whether the call touches memory, so the dead call goes: the only
        // change ipsccp makes here.
        assert!(crate::run_phase_on(&mut m, "ipsccp").unwrap());
        verify(&m).unwrap();
        let f = &m.functions[0];
        let calls = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Call { .. }))
            .count();
        assert_eq!(calls, 0);
        assert_eq!(exec(&m, "f", &[RtVal::I(3)]), Some(RtVal::I(3)));
    }

    #[test]
    fn ipsccp_changes_nothing_on_a_kept_call_whose_result_has_no_use() {
        // five() writes a global and returns 5; main returns five() + 1.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        let five = mb.declare("five", vec![], Type::I64);
        mb.begin_existing(five);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(1));
            b.ret(Some(b.const_i64(5)));
        }
        mb.finish_function();
        mb.begin_function("main", vec![], Type::I64);
        {
            let mut b = mb.body();
            let r = b.call(five, vec![], Type::I64);
            let s = b.add(r, b.const_i64(1));
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut session = crate::Sandbox::new(mb.build());
        // The first run rewrites the call's result to 5 and the second
        // folds main to `ret 6`; the call stays for its store, its result
        // unused, so a third run changes nothing. Debug builds check each
        // outcome against a comparison of the modules.
        let outcomes: Vec<_> = (0..3)
            .map(|_| session.run_phase("ipsccp", None, "ipsccp").unwrap())
            .collect();
        use crate::PhaseOutcome::{Changed, Unchanged};
        assert_eq!(outcomes, [Changed, Changed, Unchanged]);
        assert_eq!(exec(session.module(), "main", &[]), Some(RtVal::I(6)));
    }

    #[test]
    fn correlated_folds_redundant_compare() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c1 = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(10));
            let v = b.if_else(
                c1,
                Type::I64,
                |b| {
                    // Redundant: we already know param > 10 here.
                    let c2 = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(10));
                    b.select(c2, b.const_i64(1), b.const_i64(2))
                },
                |b| b.const_i64(3),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(correlated_propagation(
            &mc,
            &mut Body::from(&mut m.functions[0])
        ));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(11)]), Some(RtVal::I(1)));
        assert_eq!(exec(&m, "f", &[RtVal::I(9)]), Some(RtVal::I(3)));
        // Only the controlling compare remains.
        let f = &m.functions[0];
        let cmps = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Cmp { .. }))
            .count();
        assert_eq!(cmps, 1);
    }

    #[test]
    fn correlated_substitutes_equal_constant() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Eq, b.param(0), b.const_i64(4));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.mul(b.param(0), b.param(0)), // param == 4 here
                |b| b.const_i64(0),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(correlated_propagation(
            &mc,
            &mut Body::from(&mut m.functions[0])
        ));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(4)]), Some(RtVal::I(16)));
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(0)));
    }

    /// The largest state the oracle checks: debug builds stop at 1,600
    /// instructions, as the other suite oracles do; release builds check
    /// every state.
    const ORACLE_MAX_INSTS: usize = if cfg!(debug_assertions) {
        1_600
    } else {
        usize::MAX
    };

    #[test]
    fn dense_solve_matches_the_oracle_on_the_suites() {
        let checked =
            crate::suite_states::for_each_suite_state(ORACLE_MAX_INSTS, |state, label| {
                for f in state.functions.iter().filter(|f| !f.is_declaration) {
                    let old = oracle::solve(f, &std::collections::HashMap::new());
                    let dense: std::collections::HashMap<InstId, Value> = solve(f)
                        .into_iter()
                        .enumerate()
                        .filter_map(|(i, v)| Some((InstId(i as u32), v?)))
                        .collect();
                    assert_eq!(dense, old, "{label}: `{}`", f.name);
                }
            });
        assert!(checked >= 300, "only {checked} states checked");
    }

    /// The solver as it was before its lattice, executable edges and
    /// solution became dense vectors: hash maps keyed by instruction id
    /// and a hash set of edges.
    mod oracle {
        use super::super::Lattice;
        use crate::util::fold_constant;
        use mlcomp_ir::analysis::Cfg;
        use mlcomp_ir::{BlockId, Function, InstId, InstKind, Terminator, Value};
        use std::collections::{HashMap, HashSet, VecDeque};

        pub(super) fn solve(
            f: &Function,
            param_over: &HashMap<u32, Value>,
        ) -> HashMap<InstId, Value> {
            let cfg = Cfg::new(f);
            let nblocks = f.blocks.len();
            let mut lattice: HashMap<InstId, Lattice> = HashMap::new();
            let mut exec_block = vec![false; nblocks];
            let mut exec_edge: HashSet<(BlockId, BlockId)> = HashSet::new();
            let mut work: VecDeque<BlockId> = VecDeque::new();

            let value_lattice = |v: Value, lattice: &HashMap<InstId, Lattice>| -> Lattice {
                match v {
                    Value::Inst(id) => lattice.get(&id).copied().unwrap_or(Lattice::Unknown),
                    Value::Param(i) => match param_over.get(&i) {
                        Some(c) => Lattice::Const(*c),
                        None => Lattice::Over,
                    },
                    Value::Undef(_) => Lattice::Over,
                    c => Lattice::Const(c),
                }
            };

            exec_block[BlockId::ENTRY.index()] = true;
            work.push_back(BlockId::ENTRY);

            // Fixpoint iteration: process the worklist, then — because lattice
            // changes must reach *users* (not just CFG successors) — re-seed the
            // worklist with every executable block until nothing changes. This is
            // less efficient than SSA-edge-driven SCCP but cannot miss updates.
            let mut rounds = 0usize;
            let mut global_change = true;
            while global_change {
                rounds += 1;
                // Each round performs at least one lattice lowering and every
                // instruction can lower at most twice, so this bound is never hit;
                // it only guards against bugs, and on trigger we discard the
                // solution entirely (a stale partial solution would be unsound).
                if rounds > 4 * f.insts.len() + 64 {
                    return HashMap::new();
                }
                global_change = false;
                if work.is_empty() {
                    for (i, &exec) in exec_block.iter().enumerate() {
                        if exec {
                            work.push_back(BlockId(i as u32));
                        }
                    }
                }

                while let Some(b) = work.pop_front() {
                    let blk = f.block(b);
                    let mut any_change = false;
                    for &id in &blk.insts {
                        let inst = f.inst(id);
                        let old = lattice.get(&id).copied().unwrap_or(Lattice::Unknown);
                        if old == Lattice::Over {
                            continue;
                        }
                        let new = match &inst.kind {
                            InstKind::Phi { incomings } => {
                                let mut l = Lattice::Unknown;
                                for (p, v) in incomings {
                                    if exec_edge.contains(&(*p, b)) {
                                        l = l.meet(value_lattice(*v, &lattice));
                                    }
                                }
                                l
                            }
                            k if k.is_pure() || matches!(k, InstKind::Bin { .. }) => {
                                // Gather operand lattices; fold when all constant.
                                let mut any_unknown = false;
                                let mut any_over = false;
                                k.for_each_operand(|v| match value_lattice(v, &lattice) {
                                    Lattice::Unknown => any_unknown = true,
                                    Lattice::Over => any_over = true,
                                    Lattice::Const(_) => {}
                                });
                                if any_over {
                                    Lattice::Over
                                } else if any_unknown {
                                    Lattice::Unknown
                                } else {
                                    // Substitute constants and fold.
                                    let mut kind = k.clone();
                                    kind.map_operands(|v| match value_lattice(v, &lattice) {
                                        Lattice::Const(c) => c,
                                        _ => v,
                                    });
                                    match fold_constant(&kind, inst.ty) {
                                        Some(c) => Lattice::Const(c),
                                        None => Lattice::Over,
                                    }
                                }
                            }
                            _ => Lattice::Over,
                        };
                        let merged = old.meet(new);
                        if merged != old {
                            lattice.insert(id, merged);
                            any_change = true;
                        }
                    }

                    // Decide outgoing edges.
                    let mark_edge =
                        |from: BlockId,
                         to: BlockId,
                         exec_edge: &mut HashSet<(BlockId, BlockId)>,
                         exec_block: &mut Vec<bool>,
                         work: &mut VecDeque<BlockId>| {
                            let newly_edge = exec_edge.insert((from, to));
                            let newly_block = !exec_block[to.index()];
                            if newly_block {
                                exec_block[to.index()] = true;
                            }
                            if newly_edge || newly_block {
                                work.push_back(to);
                            }
                        };
                    match &blk.term {
                        Terminator::Br(t) => {
                            mark_edge(b, *t, &mut exec_edge, &mut exec_block, &mut work)
                        }
                        Terminator::CondBr {
                            cond,
                            then_bb,
                            else_bb,
                            ..
                        } => match value_lattice(*cond, &lattice) {
                            Lattice::Const(c) => {
                                let t = if c.as_const_int().unwrap_or(0) != 0 {
                                    *then_bb
                                } else {
                                    *else_bb
                                };
                                mark_edge(b, t, &mut exec_edge, &mut exec_block, &mut work);
                            }
                            Lattice::Unknown => {}
                            Lattice::Over => {
                                mark_edge(b, *then_bb, &mut exec_edge, &mut exec_block, &mut work);
                                mark_edge(b, *else_bb, &mut exec_edge, &mut exec_block, &mut work);
                            }
                        },
                        Terminator::Switch {
                            val,
                            cases,
                            default,
                        } => match value_lattice(*val, &lattice) {
                            Lattice::Const(c) => {
                                let cv = c.as_const_int().unwrap_or(0);
                                let t = cases
                                    .iter()
                                    .find(|(k, _)| *k == cv)
                                    .map(|(_, b)| *b)
                                    .unwrap_or(*default);
                                mark_edge(b, t, &mut exec_edge, &mut exec_block, &mut work);
                            }
                            Lattice::Unknown => {}
                            Lattice::Over => {
                                for (_, t) in cases {
                                    mark_edge(b, *t, &mut exec_edge, &mut exec_block, &mut work);
                                }
                                mark_edge(b, *default, &mut exec_edge, &mut exec_block, &mut work);
                            }
                        },
                        _ => {}
                    }
                    if any_change {
                        global_change = true;
                        // Revisit executable successors so phis see updates quickly.
                        for &s in &cfg.succs[b.index()] {
                            if exec_edge.contains(&(b, s)) {
                                work.push_back(s);
                            }
                        }
                    }
                }
            }

            lattice
                .into_iter()
                .filter_map(|(id, l)| match l {
                    Lattice::Const(v) => Some((id, v)),
                    _ => None,
                })
                .collect()
        }
    }
}

/// The replacement code this module had before uses were rewritten once
/// per sweep, kept as a differential oracle: every replaced value is
/// rewritten in the whole function at once, and a call's result counts as
/// replaced whether or not it has a use.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{ipsccp_with, solve};
    use crate::util::{remove_unreachable_blocks, trivial_dce};
    use mlcomp_ir::analysis::{Body, CfgDom, ModuleBody};
    use mlcomp_ir::{BlockId, Callee, CmpPred, InstId, InstKind, Module, Terminator, Value};

    pub(crate) fn sccp(m: &Module, f: &mut Body) -> bool {
        let pruned = remove_unreachable_blocks(f);
        let solution = solve(f);
        apply_solution(m, f, &solution) | pruned
    }

    pub(crate) fn ipsccp(m: &mut ModuleBody) -> bool {
        ipsccp_with(m, (apply_solution, replace_call_results))
    }

    pub(crate) fn replace_call_results(f: &mut Body, const_returns: &[Option<Value>]) -> bool {
        let mut changed = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                if let InstKind::Call {
                    callee: Callee::Direct(c),
                    ..
                } = &f.inst(id).kind
                {
                    if let Some(v) = const_returns[c.index()] {
                        if f.inst(id).ty == f.value_type(v) {
                            f.replace_all_uses(id, v);
                            changed = true;
                        }
                    }
                }
            }
        }
        changed
    }

    pub(crate) fn apply_solution(m: &Module, f: &mut Body, solution: &[Option<Value>]) -> bool {
        let mut changed = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                if let Some(v) = solution[id.index()] {
                    if f.inst(id).kind.is_pure() || f.inst(id).kind.is_phi() {
                        f.replace_all_uses(id, v);
                        f.remove_from_block(b, id);
                        changed = true;
                    }
                }
            }
            // Fold constant terminators.
            let term = f.block(b).term.clone();
            match term {
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    ..
                } => {
                    let c = match cond {
                        Value::Inst(id) => solution[id.index()].and_then(|v| v.as_const_int()),
                        v => v.as_const_int(),
                    };
                    if let Some(c) = c {
                        let (taken, dropped) = if c != 0 {
                            (then_bb, else_bb)
                        } else {
                            (else_bb, then_bb)
                        };
                        f.block_mut(b).term = Terminator::Br(taken);
                        if dropped != taken {
                            f.remove_phi_edges(dropped, b);
                        }
                        changed = true;
                    }
                }
                Terminator::Switch {
                    val,
                    cases,
                    default,
                } => {
                    let c = match val {
                        Value::Inst(id) => solution[id.index()].and_then(|v| v.as_const_int()),
                        v => v.as_const_int(),
                    };
                    if let Some(c) = c {
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
                    }
                }
                _ => {}
            }
        }
        changed |= remove_unreachable_blocks(f);
        changed |= trivial_dce(m, f, false);
        changed
    }

    pub(crate) fn correlated_propagation(m: &Module, f: &mut Body) -> bool {
        let mut changed = remove_unreachable_blocks(f);
        let (cfg, dt) = f.analyse::<CfgDom>();

        let mut edits: Vec<(BlockId, InstId, Value)> = Vec::new();
        let mut subst: Vec<(Vec<BlockId>, Value, Value)> = Vec::new();

        for b in f.block_ids() {
            let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } = &f.block(b).term
            else {
                continue;
            };
            let Some(cmp_id) = cond.as_inst() else {
                continue;
            };
            let InstKind::Cmp { pred, lhs, rhs } = f.inst(cmp_id).kind.clone() else {
                continue;
            };
            if then_bb == else_bb {
                continue;
            }
            for (arm, truth) in [(*then_bb, true), (*else_bb, false)] {
                // The arm must be entered only through this edge.
                if cfg.preds[arm.index()] != vec![b] {
                    continue;
                }
                // Region: blocks dominated by the arm.
                let region: Vec<BlockId> =
                    f.block_ids().filter(|&x| dt.dominates(arm, x)).collect();
                // Fold the controlling compare in the region.
                for &rb in &region {
                    for &id in &f.block(rb).insts {
                        if id == cmp_id {
                            continue;
                        }
                        if let InstKind::Cmp {
                            pred: p2,
                            lhs: l2,
                            rhs: r2,
                        } = &f.inst(id).kind
                        {
                            if *l2 == lhs && *r2 == rhs {
                                if *p2 == pred {
                                    edits.push((rb, id, Value::bool(truth)));
                                } else if *p2 == pred.negated() {
                                    edits.push((rb, id, Value::bool(!truth)));
                                }
                            }
                        }
                    }
                }
                // Equality: substitute the variable with the constant.
                let eq_sub = (pred == CmpPred::Eq && truth) || (pred == CmpPred::Ne && !truth);
                if eq_sub && rhs.is_const() && !lhs.is_const() {
                    subst.push((region.clone(), lhs, rhs));
                }
            }
        }

        for (b, id, v) in edits {
            f.replace_all_uses(id, v);
            f.remove_from_block(b, id);
            changed = true;
        }
        for (region, from, to) in subst {
            for b in region {
                for &id in &f.block(b).insts.clone() {
                    // Do not rewrite inside phis: incoming values relate to
                    // predecessor edges that may lie outside the region.
                    if f.inst(id).kind.is_phi() {
                        continue;
                    }
                    let mut uses = false;
                    f.inst(id).kind.for_each_operand(|v| uses |= v == from);
                    if uses {
                        f.inst_mut(id)
                            .kind
                            .map_operands(|v| if v == from { to } else { v });
                        changed = true;
                    }
                }
                let mut term = f.block(b).term.clone();
                let mut local = false;
                term.map_operands(|v| {
                    if v == from {
                        local = true;
                        to
                    } else {
                        v
                    }
                });
                if local {
                    f.block_mut(b).term = term;
                    changed = true;
                }
            }
        }
        changed | trivial_dce(m, f, false)
    }
}
