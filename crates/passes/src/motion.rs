//! Code-motion phases: `speculative-execution`, `mldst-motion` and
//! `memcpyopt`.

use crate::util::{trivial_dce, until_stable};
use mlcomp_ir::analysis::{Body, Cfg};
use mlcomp_ir::{Function, Inst, InstId, InstKind, Module, Terminator, Type, Value};
use std::borrow::Cow;

/// Maximum instructions hoisted from one branch arm by
/// `speculative-execution` (mirrors LLVM's small default budget).
const SPEC_EXEC_BUDGET: usize = 4;

/// `speculative-execution`: hoists cheap, pure, non-trapping instructions
/// from single-predecessor branch arms into the branching block, shrinking
/// arms so that `simplifycfg` can turn diamonds into selects.
pub fn speculative_execution(m: &Module, f: &mut Body) -> bool {
    let cfg = f.analyse::<Cow<Cfg>>();
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let Terminator::CondBr {
            then_bb, else_bb, ..
        } = f.block(b).term
        else {
            continue;
        };
        for arm in [then_bb, else_bb] {
            if arm == b || cfg.preds[arm.index()] != vec![b] {
                continue;
            }
            let mut moved = 0;
            loop {
                if moved >= SPEC_EXEC_BUDGET {
                    break;
                }
                // Take the first instruction of the arm if hoistable: it is
                // pure, non-phi, and all operands dominate `b` (defined
                // outside the arm — since the arm has a single pred, any
                // operand defined in the arm blocks hoisting).
                let Some(&first) = f.block(arm).insts.first() else {
                    break;
                };
                let kind = &f.inst(first).kind;
                if !kind.is_pure() || kind.is_phi() {
                    break;
                }
                let mut defined_in_arm = false;
                kind.for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        if f.block(arm).insts.contains(&d) {
                            defined_in_arm = true;
                        }
                    }
                });
                if defined_in_arm {
                    break;
                }
                f.block_mut(arm).insts.remove(0);
                f.block_mut(b).insts.push(first);
                moved += 1;
                changed = true;
            }
        }
    }
    changed | trivial_dce(m, f, false)
}

/// `mldst-motion`: merged load/store motion across diamonds — identical
/// loads in both arms are hoisted to the predecessor; stores to the same
/// address at the end of both arms are sunk into the join behind a phi.
pub fn mldst_motion(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<Cow<Cfg>>(f, |f, cfg| {
        let mut moved = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            let Terminator::CondBr {
                then_bb, else_bb, ..
            } = f.block(b).term
            else {
                continue;
            };
            let (t, e) = (then_bb, else_bb);
            if t == e
                || cfg.preds[t.index()] != vec![b]
                || cfg.preds[e.index()] != vec![b]
                || cfg.succs[t.index()].len() != 1
                || cfg.succs[e.index()].len() != 1
                || cfg.succs[t.index()] != cfg.succs[e.index()]
            {
                continue;
            }
            let join = cfg.succs[t.index()][0];
            // The join must be entered only through the two arms, or the
            // sunk store's phi would be missing incomings.
            let mut join_preds = cfg.preds[join.index()].clone();
            join_preds.sort();
            let mut arms = vec![t, e];
            arms.sort();
            if join_preds != arms {
                continue;
            }

            // Hoist a pair of leading identical loads.
            if let (Some(&lt), Some(&le)) = (f.block(t).insts.first(), f.block(e).insts.first()) {
                let (kt, ke) = (f.inst(lt).kind.clone(), f.inst(le).kind.clone());
                if let (
                    InstKind::Load {
                        ptr: p1,
                        aligned: a1,
                        width: w1,
                    },
                    InstKind::Load { ptr: p2, .. },
                ) = (&kt, &ke)
                {
                    let operand_ok = match p1 {
                        Value::Inst(d) => !f.block(t).insts.contains(d),
                        _ => true,
                    };
                    if p1 == p2 && f.inst(lt).ty == f.inst(le).ty && operand_ok {
                        let (p1, a1, w1) = (*p1, *a1, *w1);
                        f.block_mut(t).insts.remove(0);
                        f.block_mut(b).insts.push(lt);
                        f.inst_mut(lt).kind = InstKind::Load {
                            ptr: p1,
                            aligned: a1,
                            width: w1,
                        };
                        f.replace_all_uses(le, Value::Inst(lt));
                        f.block_mut(e).insts.remove(0);
                        moved = true;
                        continue;
                    }
                }
            }

            // Sink trailing stores to the same address into the join.
            let (Some(&st), Some(&se)) = (f.block(t).insts.last(), f.block(e).insts.last()) else {
                continue;
            };
            let (kt, ke) = (f.inst(st).kind.clone(), f.inst(se).kind.clone());
            if let (
                InstKind::Store {
                    ptr: p1,
                    value: v1,
                    aligned: al1,
                    width: w1,
                },
                InstKind::Store {
                    ptr: p2, value: v2, ..
                },
            ) = (&kt, &ke)
            {
                if p1 == p2 {
                    let ptr_ok = match p1 {
                        Value::Inst(d) => {
                            !f.block(t).insts.contains(d) && !f.block(e).insts.contains(d)
                        }
                        _ => true,
                    };
                    if ptr_ok {
                        let ty = f.value_type(*v1);
                        if ty == f.value_type(*v2) {
                            let (p1, v1, v2, al1, w1) = (*p1, *v1, *v2, *al1, *w1);
                            // Build phi in join, then a single store.
                            let phi = f.add_inst(Inst::new(
                                InstKind::Phi {
                                    incomings: vec![(t, v1), (e, v2)],
                                },
                                ty,
                            ));
                            f.block_mut(join).insts.insert(0, phi);
                            let store = f.add_inst(Inst::new(
                                InstKind::Store {
                                    ptr: p1,
                                    value: Value::Inst(phi),
                                    aligned: al1,
                                    width: w1,
                                },
                                Type::Void,
                            ));
                            // Place after the leading phis of the join.
                            let pos = f
                                .block(join)
                                .insts
                                .iter()
                                .position(|&i| !f.inst(i).kind.is_phi())
                                .unwrap_or(f.block(join).insts.len());
                            f.block_mut(join).insts.insert(pos, store);
                            f.block_mut(t).insts.pop();
                            f.block_mut(e).insts.pop();
                            moved = true;
                        }
                    }
                }
            }
        }
        moved
    });
    changed | trivial_dce(m, f, false)
}

/// Minimum run length before `memcpyopt` converts scattered stores into a
/// `memset`/`memcpy` intrinsic.
const MIN_RUN: usize = 4;

/// `memcpyopt`: recognizes runs of stores of one constant to consecutive
/// offsets of a base pointer and fuses them into a `memset`; runs of
/// load/store pairs copying consecutive cells between two bases become a
/// `memcpy`.
pub fn memcpyopt(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        // Collect candidate store descriptors in order.
        #[derive(Clone, Copy)]
        struct St {
            pos: usize,
            id: InstId,
            base: Value,
            off: i64,
            kind: StKind,
        }
        #[derive(Clone, Copy, PartialEq)]
        enum StKind {
            Const(i64),
            CopyFrom(Value, i64), // (src base, src offset)
        }
        let ids = f.block(b).insts.clone();
        let mut stores: Vec<St> = Vec::new();
        for (pos, &id) in ids.iter().enumerate() {
            let InstKind::Store { ptr, value, .. } = f.inst(id).kind else {
                continue;
            };
            let Some((base, off)) = base_and_const_offset(f, ptr) else {
                continue;
            };
            let kind = match value {
                Value::ConstInt(c, Type::I64) => StKind::Const(c),
                Value::Inst(vid) => match f.inst(vid).kind {
                    InstKind::Load { ptr: lp, .. } => match base_and_const_offset(f, lp) {
                        Some((sb, so)) => StKind::CopyFrom(sb, so),
                        None => continue,
                    },
                    _ => continue,
                },
                _ => continue,
            };
            stores.push(St {
                pos,
                id,
                base,
                off,
                kind,
            });
        }
        // Find maximal runs: same base, consecutive offsets, matching kind
        // progression, and only pattern-internal instructions in between.
        let mut i = 0;
        while i < stores.len() {
            let mut j = i;
            while j + 1 < stores.len() {
                let cur = stores[j];
                let nxt = stores[j + 1];
                let contiguous = nxt.base == cur.base && nxt.off == cur.off + 1;
                let dst_root = crate::util::mem_root(f, cur.base);
                let kind_ok = match (cur.kind, nxt.kind) {
                    (StKind::Const(a), StKind::Const(b2)) => a == b2,
                    (StKind::CopyFrom(sb, so), StKind::CopyFrom(nb, no)) => {
                        nb == sb
                            && no == so + 1
                            && nb != cur.base
                            // Src reads must not observe the dst writes we
                            // are about to reorder.
                            && !crate::util::may_alias(crate::util::mem_root(f, nb), dst_root)
                    }
                    _ => false,
                };
                // Everything between the stores must be the loads/geps
                // feeding the pattern (pure, or a load that cannot read the
                // destination region).
                let gap_ok = (cur.pos + 1..nxt.pos).all(|p| {
                    let k = &f.inst(ids[p]).kind;
                    match k {
                        InstKind::Load { ptr, .. } => {
                            !crate::util::may_alias(crate::util::mem_root(f, *ptr), dst_root)
                        }
                        _ => k.is_pure(),
                    }
                });
                if contiguous && kind_ok && gap_ok {
                    j += 1;
                } else {
                    break;
                }
            }
            let run = &stores[i..=j];
            if run.len() >= MIN_RUN {
                let first = run[0];
                let count = run.len() as i64;
                let dst_ptr = f.add_inst(Inst::new(
                    InstKind::Gep {
                        base: first.base,
                        offset: Value::i64(first.off),
                    },
                    Type::Ptr,
                ));
                let intrinsic = match first.kind {
                    StKind::Const(c) => InstKind::Memset {
                        ptr: Value::Inst(dst_ptr),
                        value: Value::i64(c),
                        count: Value::i64(count),
                    },
                    StKind::CopyFrom(sb, so) => {
                        let src_ptr = f.add_inst(Inst::new(
                            InstKind::Gep {
                                base: sb,
                                offset: Value::i64(so),
                            },
                            Type::Ptr,
                        ));
                        // Insert src gep before dst gep later; order fixed below.
                        InstKind::Memcpy {
                            dst: Value::Inst(dst_ptr),
                            src: Value::Inst(src_ptr),
                            count: Value::i64(count),
                        }
                    }
                };
                let intrinsic_id = f.add_inst(Inst::new(intrinsic.clone(), Type::Void));
                // Replace the last store of the run with the intrinsic and
                // drop the others.
                let last_id = run[run.len() - 1].id;
                let pos = f.block(b).insts.iter().position(|&x| x == last_id).unwrap();
                f.block_mut(b).insts.insert(pos, intrinsic_id);
                if let InstKind::Memcpy {
                    src: Value::Inst(sid),
                    ..
                } = &intrinsic
                {
                    f.block_mut(b).insts.insert(pos, *sid);
                }
                f.block_mut(b).insts.insert(pos, dst_ptr);
                for st in run {
                    f.remove_from_block(b, st.id);
                }
                changed = true;
            }
            i = j + 1;
        }
    }
    changed | trivial_dce(m, f, false)
}

fn base_and_const_offset(f: &Function, ptr: Value) -> Option<(Value, i64)> {
    match ptr {
        Value::Inst(id) => match &f.inst(id).kind {
            InstKind::Gep { base, offset } => {
                let off = offset.as_const_int()?;
                // Only one gep level: base must not itself be a const gep.
                Some((*base, off))
            }
            InstKind::Alloca { .. } => Some((ptr, 0)),
            _ => None,
        },
        Value::Global(_) => Some((ptr, 0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::all_insts;
    use mlcomp_ir::{verify, CmpPred, Interpreter, ModuleBuilder, RtVal};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn spec_exec_hoists_cheap_arm() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.add(b.param(0), b.const_i64(1)),
                |b| b.const_i64(0),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(speculative_execution(
            &mc,
            &mut Body::from(&mut m.functions[0])
        ));
        verify(&m).unwrap();
        // The then-arm is now empty.
        let f = &m.functions[0];
        let empty_arms = f
            .block_ids()
            .filter(|b| f.block(*b).insts.is_empty())
            .count();
        assert!(empty_arms >= 1);
        assert_eq!(exec(&m, "f", &[RtVal::I(4)]), Some(RtVal::I(5)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-4)]), Some(RtVal::I(0)));
    }

    #[test]
    fn spec_exec_skips_trapping_ops() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Ne, b.param(0), b.const_i64(0));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.sdiv(b.const_i64(100), b.param(0)), // traps if hoisted!
                |b| b.const_i64(0),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        speculative_execution(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        // Must still be safe when param == 0.
        assert_eq!(exec(&m, "f", &[RtVal::I(0)]), Some(RtVal::I(0)));
        assert_eq!(exec(&m, "f", &[RtVal::I(4)]), Some(RtVal::I(25)));
    }

    #[test]
    fn mldst_sinks_stores() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let t = b.new_block();
            let e = b.new_block();
            let j = b.new_block();
            b.cond_br(c, t, e);
            b.switch_to(t);
            b.store(b.global_addr(g), b.const_i64(1));
            b.br(j);
            b.switch_to(e);
            b.store(b.global_addr(g), b.const_i64(2));
            b.br(j);
            b.switch_to(j);
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(mldst_motion(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        let stores = all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Store { .. }))
            .count();
        assert_eq!(stores, 1, "stores merged behind a phi");
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(1)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-5)]), Some(RtVal::I(2)));
    }

    #[test]
    fn memcpyopt_builds_memset() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let buf = b.alloca(8);
            for k in 0..6 {
                let p = b.gep(buf, b.const_i64(k));
                b.store(p, b.const_i64(7));
            }
            let p3 = b.gep(buf, b.const_i64(3));
            let v = b.load(p3, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(memcpyopt(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Memset { .. })));
        let stores = all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Store { .. }))
            .count();
        assert_eq!(stores, 0);
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(7)));
    }

    #[test]
    fn memcpyopt_builds_memcpy() {
        let mut mb = ModuleBuilder::new("t");
        let src = mb.add_const_global("src", vec![1, 2, 3, 4, 5]);
        let dst = mb.add_global("dst", 5);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            for k in 0..5 {
                let sp = b.gep(b.global_addr(src), b.const_i64(k));
                let v = b.load(sp, Type::I64);
                let dp = b.gep(b.global_addr(dst), b.const_i64(k));
                b.store(dp, v);
            }
            let p = b.gep(b.global_addr(dst), b.const_i64(4));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(memcpyopt(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Memcpy { .. })));
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(5)));
    }

    #[test]
    fn memcpyopt_ignores_short_runs() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let buf = b.alloca(4);
            for k in 0..2 {
                let p = b.gep(buf, b.const_i64(k));
                b.store(p, b.const_i64(7));
            }
            let p = b.gep(buf, b.const_i64(0));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(!memcpyopt(&mc, &mut Body::from(&mut m.functions[0])));
    }
}
