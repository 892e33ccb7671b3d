//! Dead-code phases: `adce` (aggressive DCE) and `dse` (dead store
//! elimination).

use crate::util::{
    all_insts, call_may_touch_memory, escaping_allocas, may_alias, may_write_memory, mem_root,
    remove_unreachable_blocks, MemRoot,
};
use mlcomp_ir::analysis::Body;
use mlcomp_ir::{InstId, InstKind, Module, Value};
use std::collections::{HashSet, VecDeque};

/// `adce`: liveness-propagating dead code elimination. Unlike the trivial
/// DCE that most phases run, this also removes unused *loads* and unused
/// calls to `readnone` functions, and it seeds liveness only from
/// observable effects: stores, effectful calls, memory intrinsics and
/// terminator operands.
pub fn adce(m: &Module, f: &mut Body) -> bool {
    let mut changed = remove_unreachable_blocks(f);
    let insts = all_insts(f);
    let mut live: HashSet<InstId> = HashSet::new();
    let mut work: VecDeque<InstId> = VecDeque::new();

    let mark = |v: Value, live: &mut HashSet<InstId>, work: &mut VecDeque<InstId>| {
        if let Value::Inst(id) = v {
            if live.insert(id) {
                work.push_back(id);
            }
        }
    };

    // Roots: side effects + terminators.
    for &(_, id) in &insts {
        if may_write_memory(m, &f.inst(id).kind) && live.insert(id) {
            work.push_back(id);
        }
    }
    for b in f.block_ids() {
        f.block(b)
            .term
            .for_each_operand(|v| mark(v, &mut live, &mut work));
    }

    // Propagate liveness through operands.
    while let Some(id) = work.pop_front() {
        let mut ops = Vec::new();
        f.inst(id).kind.for_each_operand(|v| ops.push(v));
        for v in ops {
            mark(v, &mut live, &mut work);
        }
    }

    for (b, id) in insts {
        if !live.contains(&id) {
            f.remove_from_block(b, id);
            changed = true;
        }
    }
    changed
}

/// `dse`: removes stores that are provably dead — overwritten before any
/// potential read within the same block, or targeting a non-escaping
/// alloca that is never loaded at all.
pub fn dse(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;

    // Whole-function: stores into never-read, non-escaping allocas. One
    // pass finds the roots read; a read of unknown provenance may read
    // every alloca.
    let insts = all_insts(f);
    let mut write_only = escaping_allocas(f);
    write_only
        .iter_mut()
        .for_each(|escapes| *escapes = !*escapes);
    let mut any_write_only = false;
    for &(_, id) in &insts {
        match f.inst(id).kind.read_ptr().map(|p| mem_root(f, p)) {
            Some(MemRoot::Alloca(a)) => write_only[a.index()] = false,
            Some(MemRoot::Unknown) => return block_local_dse(m, f, false),
            _ => {}
        }
    }
    for &(_, id) in &insts {
        let is_alloca = matches!(f.inst(id).kind, InstKind::Alloca { .. });
        write_only[id.index()] &= is_alloca;
        any_write_only |= write_only[id.index()];
    }
    if any_write_only {
        for (b, id) in insts {
            if let Some(p) = f.inst(id).kind.write_ptr() {
                if let MemRoot::Alloca(a) = mem_root(f, p) {
                    if write_only[a.index()] {
                        f.remove_from_block(b, id);
                        changed = true;
                    }
                }
            }
        }
    }

    block_local_dse(m, f, changed)
}

/// The block-local part of [`dse`]: removes each store overwritten by a
/// later store to the same pointer with no intervening reader or
/// effectful call. Returns `changed` or whether it removed one.
fn block_local_dse(m: &Module, f: &mut Body, mut changed: bool) -> bool {
    for b in f.block_ids().collect::<Vec<_>>() {
        let ids = f.block(b).insts.clone();
        let mut dead: Vec<InstId> = Vec::new();
        for (i, &sid) in ids.iter().enumerate() {
            let InstKind::Store { ptr, .. } = f.inst(sid).kind else {
                continue;
            };
            let root = mem_root(f, ptr);
            for &nid in ids.iter().skip(i + 1) {
                let reads = match &f.inst(nid).kind {
                    InstKind::Store { ptr: p2, .. } if *p2 == ptr => {
                        dead.push(sid);
                        break;
                    }
                    InstKind::Call { callee, .. } => call_may_touch_memory(m, callee),
                    // A different store, even a may-alias one, does not
                    // read: keep scanning.
                    kind => kind
                        .read_ptr()
                        .is_some_and(|p| may_alias(mem_root(f, p), root)),
                };
                if reads {
                    break;
                }
            }
        }
        for d in dead {
            f.remove_from_block(b, d);
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, CmpPred, Interpreter, ModuleBuilder, RtVal, Type};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn adce_removes_dead_load() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let _dead = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(b.const_i64(1)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(adce(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 0);
    }

    #[test]
    fn adce_removes_dead_readnone_call() {
        let mut mb = ModuleBuilder::new("t");
        let pure_fn = mb.declare("pure", vec![Type::I64], Type::I64);
        mb.begin_existing(pure_fn);
        {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.set_attrs(pure_fn, |a| a.readnone = true);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let _unused = b.call(pure_fn, vec![b.const_i64(1)], Type::I64);
            b.ret(Some(b.const_i64(5)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(adce(&mc, &mut Body::from(&mut m.functions[1])));
        verify(&m).unwrap();
        assert_eq!(m.functions[1].live_inst_count(), 0);
    }

    #[test]
    fn adce_keeps_effectful_call() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        let eff = mb.declare("eff", vec![], Type::I64);
        mb.begin_existing(eff);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(1));
            b.ret(Some(b.const_i64(0)));
        }
        mb.finish_function();
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let _unused = b.call(eff, vec![], Type::I64);
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        adce(&mc, &mut Body::from(&mut m.functions[1]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(1)), "call kept");
    }

    #[test]
    fn dse_removes_overwritten_store() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(1));
            b.store(b.global_addr(g), b.const_i64(2));
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(dse(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        let stores = all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Store { .. }))
            .count();
        assert_eq!(stores, 1);
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(2)));
    }

    #[test]
    fn dse_keeps_store_read_in_between() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(1));
            let v1 = b.load(b.global_addr(g), Type::I64);
            b.store(b.global_addr(g), b.const_i64(2));
            let v2 = b.load(b.global_addr(g), Type::I64);
            let s = b.add(v1, v2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        dse(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(3)));
    }

    #[test]
    fn dse_removes_write_only_alloca_stores() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let scratch = b.alloca(4);
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let idx = b.srem(i, b.const_i64(4));
                let p = b.gep(scratch, idx);
                b.store(p, i);
            });
            b.ret(Some(b.param(0)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(dse(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(!all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Store { .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(9)]), Some(RtVal::I(9)));
    }

    #[test]
    fn dse_respects_escaping_alloca() {
        let mut mb = ModuleBuilder::new("t");
        let reader = mb.declare("reader", vec![Type::Ptr], Type::I64);
        mb.begin_existing(reader);
        {
            let mut b = mb.body();
            let v = b.load(b.param(0), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            b.store(p, b.const_i64(42));
            let v = b.call(reader, vec![p], Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        dse(&mc, &mut Body::from(&mut m.functions[1]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(42)));
    }

    #[test]
    fn adce_interacts_with_branches() {
        // Dead computation chains across a diamond go away; live ones stay.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let live = b.if_else(c, Type::I64, |b| b.const_i64(1), |b| b.const_i64(2));
            let d1 = b.mul(live, b.const_i64(10));
            let _d2 = b.add(d1, b.const_i64(5)); // dead chain
            b.ret(Some(live));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(adce(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(3)]), Some(RtVal::I(1)));
    }
}

/// `dse` as it was before its write-only-alloca sweep became one pass:
/// an escape analysis and a scan of every instruction per alloca. Kept as
/// a differential oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::util::{all_insts, alloca_escapes, call_may_touch_memory, may_alias, mem_root};
    use mlcomp_ir::analysis::Body;
    use mlcomp_ir::{InstId, InstKind, Module};
    use std::collections::HashSet;

    /// `dse`: removes stores that are provably dead — overwritten before any
    /// potential read within the same block, or targeting a non-escaping
    /// alloca that is never loaded at all.
    pub(crate) fn dse(m: &Module, f: &mut Body) -> bool {
        let mut changed = false;

        // Whole-function: stores into never-read, non-escaping allocas.
        let mut write_only_allocas: HashSet<InstId> = HashSet::new();
        for (_b, id) in all_insts(f) {
            if matches!(f.inst(id).kind, InstKind::Alloca { .. }) && !alloca_escapes(f, id) {
                let root = crate::util::MemRoot::Alloca(id);
                let read = all_insts(f).into_iter().any(|(_, id2)| {
                    f.inst(id2)
                        .kind
                        .read_ptr()
                        .is_some_and(|p| may_alias(mem_root(f, p), root))
                });
                if !read {
                    write_only_allocas.insert(id);
                }
            }
        }
        if !write_only_allocas.is_empty() {
            for (b, id) in all_insts(f) {
                if let Some(p) = f.inst(id).kind.write_ptr() {
                    if let crate::util::MemRoot::Alloca(a) = mem_root(f, p) {
                        if write_only_allocas.contains(&a) {
                            f.remove_from_block(b, id);
                            changed = true;
                        }
                    }
                }
            }
        }

        // Block-local: store overwritten by a later store to the same pointer
        // with no intervening reader or effectful call.
        for b in f.block_ids().collect::<Vec<_>>() {
            let ids = f.block(b).insts.clone();
            let mut dead: Vec<InstId> = Vec::new();
            for (i, &sid) in ids.iter().enumerate() {
                let InstKind::Store { ptr, .. } = f.inst(sid).kind else {
                    continue;
                };
                let root = mem_root(f, ptr);
                for &nid in ids.iter().skip(i + 1) {
                    let reads = match &f.inst(nid).kind {
                        InstKind::Store { ptr: p2, .. } if *p2 == ptr => {
                            dead.push(sid);
                            break;
                        }
                        InstKind::Call { callee, .. } => call_may_touch_memory(m, callee),
                        // A different store, even a may-alias one, does not
                        // read: keep scanning.
                        kind => kind
                            .read_ptr()
                            .is_some_and(|p| may_alias(mem_root(f, p), root)),
                    };
                    if reads {
                        break;
                    }
                }
            }
            for d in dead {
                f.remove_from_block(b, d);
                changed = true;
            }
        }
        changed
    }
}
