//! Memory-to-register promotion: `mem2reg` and `sroa`.
//!
//! These are the phases that turn `-O0`-style alloca/load/store code into
//! SSA values, unlocking almost every scalar and loop optimization — the
//! central phase-ordering dependency the MLComp policy has to learn.

use crate::util::{escaping_allocas, remove_unreachable_blocks, Replacements};
use mlcomp_ir::analysis::{Body, CfgDom, DefUse, UseSite};
use mlcomp_ir::{BlockId, Function, Inst, InstId, InstKind, Module, Type, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

/// Promotes single-cell, non-escaping allocas accessed only via direct
/// loads and stores into SSA values with phi nodes (the classic
/// Cytron-style algorithm over dominance frontiers).
///
/// Returns `true` if any alloca was promoted or an unreachable block was
/// deleted.
pub fn mem2reg(_m: &Module, f: &mut Body) -> bool {
    let pruned = remove_unreachable_blocks(f);
    let candidates = promotable_allocas(f);
    if candidates.is_empty() {
        return pruned;
    }
    promote(f, &candidates);
    true
}

/// Scalar replacement of aggregates: splits multi-cell allocas whose every
/// access is a load/store through a constant-offset gep into independent
/// single-cell allocas, then promotes them like [`mem2reg`].
pub fn sroa(_m: &Module, f: &mut Body) -> bool {
    let mut changed = remove_unreachable_blocks(f);

    // Find splittable aggregates, from one escape analysis and the
    // function's def-use chains.
    let mut split_targets: Vec<(BlockId, InstId, u32)> = Vec::new();
    {
        let du = f.analyse::<Cow<DefUse>>();
        let mut escapes: Option<Vec<bool>> = None;
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Alloca { cells } = f.inst(id).kind {
                    if cells > 1 && cells <= 64 {
                        let escapes = escapes.get_or_insert_with(|| escaping_allocas(f));
                        if is_splittable(f, &du, escapes, id) {
                            split_targets.push((b, id, cells));
                        }
                    }
                }
            }
        }
    }

    for (ab, alloca, cells) in split_targets {
        // One fresh single-cell alloca per touched offset.
        let mut parts: HashMap<i64, InstId> = HashMap::new();
        for off in touched_offsets(f, alloca) {
            if off < 0 || off >= cells as i64 {
                continue;
            }
            let part = f.add_inst(Inst::new(InstKind::Alloca { cells: 1 }, Type::Ptr));
            parts.insert(off, part);
        }
        // Place the new allocas right after the original, in offset order
        // (sorted so rebuilds are deterministic).
        {
            let mut ordered: Vec<(i64, InstId)> = parts.iter().map(|(o, p)| (*o, *p)).collect();
            ordered.sort_unstable_by_key(|(o, _)| *o);
            let insts = &mut f.block_mut(ab).insts;
            let pos = insts.iter().position(|&i| i == alloca).unwrap();
            for (idx, (_, part)) in ordered.into_iter().enumerate() {
                insts.insert(pos + 1 + idx, part);
            }
        }
        // Retarget every gep through the aggregate.
        let mut geps = Replacements::new(f);
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Gep { base, offset } = f.inst(id).kind {
                    if base == Value::Inst(alloca) {
                        let off = offset.as_const_int().unwrap();
                        if let Some(part) = parts.get(&off) {
                            geps.record(id, Value::Inst(*part));
                        }
                    }
                }
            }
        }
        geps.apply(f);
        // Direct (offset-0) accesses on the aggregate base itself.
        if let Some(zero_part) = parts.get(&0).copied() {
            rewrite_direct_accesses(f, alloca, zero_part);
        }
        f.remove_from_block(ab, alloca);
        changed = true;
    }

    // sroa finishes with promotion, like LLVM's.
    let candidates = promotable_allocas(f);
    if !candidates.is_empty() {
        promote(f, &candidates);
        changed = true;
    }
    changed
}

fn rewrite_direct_accesses(f: &mut Function, alloca: InstId, part: InstId) {
    for b in f.block_ids().collect::<Vec<_>>() {
        for &id in &f.block(b).insts.clone() {
            let mut kind = f.inst(id).kind.clone();
            let mut touched = false;
            match &mut kind {
                InstKind::Load { ptr, .. } if *ptr == Value::Inst(alloca) => {
                    *ptr = Value::Inst(part);
                    touched = true;
                }
                InstKind::Store { ptr, .. } if *ptr == Value::Inst(alloca) => {
                    *ptr = Value::Inst(part);
                    touched = true;
                }
                _ => {}
            }
            if touched {
                f.inst_mut(id).kind = kind;
            }
        }
    }
}

/// Whether the aggregate `alloca`, which `escapes` (from
/// [`escaping_allocas`]) says does not escape, is only loaded, stored
/// (not as a value) and offset by constant geps that feed only loads and
/// store addresses. Reads the uses from `du` rather than scanning `f`.
fn is_splittable(f: &Function, du: &DefUse, escapes: &[bool], alloca: InstId) -> bool {
    if escapes[alloca.index()] {
        return false;
    }
    let av = Value::Inst(alloca);
    du.uses_of(alloca).iter().all(|site| {
        let UseSite::Inst(_, id) = *site else {
            return true; // an escape, caught above
        };
        match &f.inst(id).kind {
            InstKind::Gep { base, offset } if *base == av => {
                // The gep result must itself only feed loads/stores.
                let gv = Value::Inst(id);
                offset.as_const_int().is_some()
                    && du.uses_of(id).iter().all(|site| match *site {
                        UseSite::Inst(_, user) => match &f.inst(user).kind {
                            InstKind::Load { .. } => true,
                            InstKind::Store { ptr, value, .. } => *ptr == gv && *value != gv,
                            _ => false,
                        },
                        UseSite::Term(_) => true,
                    })
            }
            InstKind::Load { .. } | InstKind::Gep { .. } => true,
            InstKind::Store { value, .. } => *value != av,
            _ => false,
        }
    })
}

fn touched_offsets(f: &Function, alloca: InstId) -> Vec<i64> {
    let mut offs: HashSet<i64> = HashSet::new();
    let av = Value::Inst(alloca);
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            match &f.inst(id).kind {
                InstKind::Gep { base, offset } if *base == av => {
                    if let Some(o) = offset.as_const_int() {
                        offs.insert(o);
                    }
                }
                InstKind::Load { ptr, .. } if *ptr == av => {
                    offs.insert(0);
                }
                InstKind::Store { ptr, .. } if *ptr == av => {
                    offs.insert(0);
                }
                _ => {}
            }
        }
    }
    let mut v: Vec<i64> = offs.into_iter().collect();
    v.sort_unstable();
    v
}

/// Allocas eligible for promotion, in layout order: one cell, used only as
/// the address of loads and stores (no geps, no intrinsics, not stored as
/// a value). One pass marks every value used any other way.
fn promotable_allocas(f: &Function) -> Vec<InstId> {
    let mut other_use = vec![false; f.insts.len()];
    let mut mark = |v: Value| {
        if let Value::Inst(d) = v {
            other_use[d.index()] = true;
        }
    };
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            match &f.inst(id).kind {
                InstKind::Load { .. } => {}
                InstKind::Store { value, .. } => mark(*value),
                kind => kind.for_each_operand(&mut mark),
            }
        }
        f.block(b).term.for_each_operand(&mut mark);
    }
    let mut out = Vec::new();
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let InstKind::Alloca { cells: 1 } = f.inst(id).kind {
                if !other_use[id.index()] {
                    out.push(id);
                }
            }
        }
    }
    out
}

/// The value type each alloca holds, by its index in `slot` (needed for
/// phi types): that of its first load or store in layout order, else
/// `i64`.
fn alloca_value_types(f: &Function, slot: &[u32], count: usize) -> Vec<Type> {
    let mut types: Vec<Option<Type>> = vec![None; count];
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            let (ptr, ty) = match &f.inst(id).kind {
                InstKind::Load { ptr, .. } => (*ptr, f.inst(id).ty),
                InstKind::Store { ptr, value, .. } => (*ptr, f.value_type(*value)),
                _ => continue,
            };
            if let Value::Inst(a) = ptr {
                if let Some(&ai) = slot.get(a.index()).filter(|&&ai| ai != u32::MAX) {
                    types[ai as usize].get_or_insert(ty);
                }
            }
        }
    }
    types.into_iter().map(|t| t.unwrap_or(Type::I64)).collect()
}

fn promote(f: &mut Body, allocas: &[InstId]) {
    let (cfg, dt) = f.analyse::<CfgDom>();
    let df = dt.dominance_frontiers(&cfg);
    // Index of each promoted alloca, by arena id.
    let mut alloca_index = vec![u32::MAX; f.insts.len()];
    for (i, a) in allocas.iter().enumerate() {
        alloca_index[a.index()] = i as u32;
    }
    let index_of = |v: Value| match v {
        Value::Inst(a) => alloca_index
            .get(a.index())
            .filter(|&&ai| ai != u32::MAX)
            .map(|&ai| ai as usize),
        _ => None,
    };
    let types = alloca_value_types(f, &alloca_index, allocas.len());

    // Blocks containing a store per alloca, ascending: blocks are visited
    // in order, so a repeat can only be the last entry.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            if let InstKind::Store { ptr, .. } = &f.inst(id).kind {
                if let Some(ai) = index_of(*ptr) {
                    if def_blocks[ai].last() != Some(&b) {
                        def_blocks[ai].push(b);
                    }
                }
            }
        }
    }

    // Phi insertion at iterated dominance frontiers: each block's new
    // phis with their alloca, in alloca order.
    let mut phis_in: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); f.blocks.len()];
    for (ai, defs) in def_blocks.iter().enumerate() {
        // Sorted worklists and frontiers keep phi-creation order (and thus
        // instruction arena ids) deterministic across runs.
        let mut work: VecDeque<BlockId> = defs.iter().copied().collect();
        let mut has_phi: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop_front() {
            for &frontier in &df[b.index()] {
                if has_phi.insert(frontier) {
                    let phi = f.add_inst(Inst::new(
                        InstKind::Phi {
                            incomings: Vec::new(),
                        },
                        types[ai],
                    ));
                    f.block_mut(frontier).insts.insert(0, phi);
                    phis_in[frontier.index()].push((ai, phi));
                    if defs.binary_search(&frontier).is_err() {
                        work.push_back(frontier);
                    }
                }
            }
        }
    }
    // The alloca each inserted phi stands for, by arena id.
    let mut phi_owner = vec![u32::MAX; f.insts.len()];
    for &(ai, phi) in phis_in.iter().flatten() {
        phi_owner[phi.index()] = ai as u32;
    }

    // Renaming pass: DFS over the dominator tree.
    let n_allocas = allocas.len();
    let mut stacks: Vec<Vec<Value>> = vec![Vec::new(); n_allocas];
    let mut removed = vec![false; f.insts.len()];
    let mut loads = Replacements::new(f);
    let mut phi_incomings: HashMap<InstId, Vec<(BlockId, Value)>> = HashMap::new();
    let current = |stacks: &[Vec<Value>], ai: usize| {
        stacks[ai]
            .last()
            .copied()
            .unwrap_or(Value::Undef(types[ai]))
    };

    // Explicit DFS over the dominator tree with enter/exit events so the
    // value stacks unwind correctly: `pushed` logs the alloca of every
    // push, and a block's exit pops what was logged since its entry.
    #[derive(Clone, Copy)]
    enum Ev {
        Enter(BlockId),
        Exit(usize),
    }
    let mut pushed: Vec<usize> = Vec::new();
    let mut dfs: Vec<Ev> = vec![Ev::Enter(BlockId::ENTRY)];
    while let Some(ev) = dfs.pop() {
        match ev {
            Ev::Enter(b) => {
                let mark = pushed.len();
                for &id in &f.block(b).insts {
                    match &f.inst(id).kind {
                        // Phis at block entry define new values.
                        InstKind::Phi { .. } if phi_owner[id.index()] != u32::MAX => {
                            let ai = phi_owner[id.index()] as usize;
                            stacks[ai].push(Value::Inst(id));
                            pushed.push(ai);
                        }
                        InstKind::Load { ptr, .. } => {
                            if let Some(ai) = index_of(*ptr) {
                                loads.record(id, current(&stacks, ai));
                            }
                        }
                        InstKind::Store { ptr, value, .. } => {
                            if let Some(ai) = index_of(*ptr) {
                                stacks[ai].push(*value);
                                pushed.push(ai);
                                removed[id.index()] = true;
                            }
                        }
                        _ => {}
                    }
                }
                // Record phi incomings for successors (dedup in case a
                // conditional branch targets the same block twice).
                let mut succs = f.block(b).term.successors();
                succs.sort();
                succs.dedup();
                for s in succs {
                    for &(ai, phi) in &phis_in[s.index()] {
                        phi_incomings
                            .entry(phi)
                            .or_default()
                            .push((b, current(&stacks, ai)));
                    }
                }
                dfs.push(Ev::Exit(mark));
                dfs.extend(dt.children_of(b).map(Ev::Enter));
            }
            Ev::Exit(mark) => {
                for ai in pushed.drain(mark..) {
                    stacks[ai].pop();
                }
            }
        }
    }

    // Apply: fill phis, replace loads, drop loads/stores/allocas.
    for (phi, inc) in phi_incomings {
        f.inst_mut(phi).kind = InstKind::Phi { incomings: inc };
    }
    // The stores are still placed while the loads' uses are rewritten.
    loads.apply(f);
    for &a in allocas {
        removed[a.index()] = true;
    }
    for block in f.blocks.iter_mut().filter(|b| !b.deleted) {
        block.insts.retain(|id| !removed[id.index()]);
    }
    // Phis with all-identical incomings (single-pred joins) fold away.
    crate::util::trivial_dce(&Module::new("tmp"), f, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal};

    fn sum_module() -> mlcomp_ir::Module {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("sum", vec![Type::I64], Type::I64);
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
        mb.build()
    }

    #[test]
    fn promotes_loop_accumulator() {
        let mut m = sum_module();
        let mc = m.clone();
        let f = &mut m.functions[0];
        let loads_before = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. }))
            .count();
        assert!(loads_before >= 2);
        assert!(mem2reg(&mc, &mut Body::from(&mut *f)));
        verify(&m).expect("valid after mem2reg");
        let f = &m.functions[0];
        let loads_after = crate::util::all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. }))
            .count();
        assert_eq!(loads_after, 0);
        // Behaviour preserved.
        let fid = m.find_function("sum").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(50)]).unwrap();
        assert_eq!(out.ret, Some(RtVal::I(1225)));
    }

    #[test]
    fn leaves_escaping_allocas_alone() {
        let mut mb = ModuleBuilder::new("t");
        let sink = mb.declare("sink", vec![Type::Ptr], Type::Void);
        mb.begin_existing(sink);
        {
            let mut b = mb.body();
            b.store(b.param(0), b.const_i64(9));
            b.ret(None);
        }
        mb.finish_function();
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            b.store(p, b.const_i64(1));
            b.call(sink, vec![p], Type::Void);
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        let f = &mut m.functions[1];
        mem2reg(&mc, &mut Body::from(&mut *f));
        verify(&m).expect("still valid");
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[]).unwrap();
        assert_eq!(
            out.ret,
            Some(RtVal::I(9)),
            "escaped alloca must stay in memory"
        );
    }

    #[test]
    fn sroa_splits_struct_like_alloca() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let agg = b.alloca(3);
            let p0 = b.gep(agg, b.const_i64(0));
            let p1 = b.gep(agg, b.const_i64(1));
            let p2 = b.gep(agg, b.const_i64(2));
            b.store(p0, b.param(0));
            b.store(p1, b.const_i64(10));
            b.store(p2, b.const_i64(20));
            let a = b.load(p0, Type::I64);
            let c = b.load(p1, Type::I64);
            let d = b.load(p2, Type::I64);
            let s1 = b.add(a, c);
            let s2 = b.add(s1, d);
            b.ret(Some(s2));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        let f = &mut m.functions[0];
        assert!(sroa(&mc, &mut Body::from(&mut *f)));
        verify(&m).expect("valid after sroa");
        let f = &m.functions[0];
        // Everything promoted: no loads, no allocas left.
        assert!(!crate::util::all_insts(f).iter().any(|(_, id)| matches!(
            f.inst(*id).kind,
            InstKind::Load { .. } | InstKind::Alloca { .. }
        )));
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(5)]).unwrap();
        assert_eq!(out.ret, Some(RtVal::I(35)));
    }

    #[test]
    fn sroa_skips_variable_index() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let agg = b.alloca(4);
            let p = b.gep(agg, b.param(0)); // dynamic index
            b.store(p, b.const_i64(1));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        let f = &mut m.functions[0];
        sroa(&mc, &mut Body::from(&mut *f));
        verify(&m).expect("valid");
        let f = &m.functions[0];
        assert!(
            crate::util::all_insts(f)
                .iter()
                .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Alloca { cells: 4 })),
            "dynamic-index aggregate must not be split"
        );
    }

    #[test]
    fn promotes_branchy_variable_with_phi() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let x = b.local(b.const_i64(0));
            let c = b.cmp(mlcomp_ir::CmpPred::Gt, b.param(0), b.const_i64(10));
            b.if_then(c, |b| {
                b.store(x, b.const_i64(100));
            });
            let v = b.load(x, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).expect("valid");
        let fid = m.find_function("f").unwrap();
        let hi = Interpreter::new(&m).run(fid, &[RtVal::I(20)]).unwrap();
        assert_eq!(hi.ret, Some(RtVal::I(100)));
        let lo = Interpreter::new(&m).run(fid, &[RtVal::I(5)]).unwrap();
        assert_eq!(lo.ret, Some(RtVal::I(0)));
        // A phi must have been inserted at the join.
        let f = &m.functions[0];
        assert!(crate::util::all_insts(f)
            .iter()
            .any(|(_, id)| f.inst(*id).kind.is_phi()));
    }
}

/// The promotion and aggregate splitting this module had before uses were
/// rewritten once per phase run, kept as a differential oracle: every
/// promoted load and retargeted gep is rewritten in the whole function at
/// once, and every removed instruction is searched for in its block.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{rewrite_direct_accesses, touched_offsets};
    use crate::util::{alloca_escapes, remove_unreachable_blocks};
    use mlcomp_ir::analysis::{Body, CfgDom};
    use mlcomp_ir::{BlockId, Function, Inst, InstId, InstKind, Module, Type, Value};
    use std::collections::{HashMap, HashSet, VecDeque};

    pub(crate) fn mem2reg(_m: &Module, f: &mut Body) -> bool {
        let pruned = remove_unreachable_blocks(f);
        let candidates = promotable_allocas(f);
        if candidates.is_empty() {
            return pruned;
        }
        promote(f, &candidates);
        true
    }

    pub(crate) fn sroa(_m: &Module, f: &mut Body) -> bool {
        let mut changed = remove_unreachable_blocks(f);

        // Find splittable aggregates.
        let mut split_targets: Vec<(BlockId, InstId, u32)> = Vec::new();
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                if let InstKind::Alloca { cells } = f.inst(id).kind {
                    if cells > 1 && cells <= 64 && is_splittable(f, id) {
                        split_targets.push((b, id, cells));
                    }
                }
            }
        }

        for (ab, alloca, cells) in split_targets {
            // One fresh single-cell alloca per touched offset.
            let mut parts: HashMap<i64, InstId> = HashMap::new();
            for off in touched_offsets(f, alloca) {
                if off < 0 || off >= cells as i64 {
                    continue;
                }
                let part = f.add_inst(Inst::new(InstKind::Alloca { cells: 1 }, Type::Ptr));
                parts.insert(off, part);
            }
            // Place the new allocas right after the original, in offset order
            // (sorted so rebuilds are deterministic).
            {
                let mut ordered: Vec<(i64, InstId)> = parts.iter().map(|(o, p)| (*o, *p)).collect();
                ordered.sort_unstable_by_key(|(o, _)| *o);
                let insts = &mut f.block_mut(ab).insts;
                let pos = insts.iter().position(|&i| i == alloca).unwrap();
                for (idx, (_, part)) in ordered.into_iter().enumerate() {
                    insts.insert(pos + 1 + idx, part);
                }
            }
            // Retarget every gep through the aggregate.
            for b in f.block_ids().collect::<Vec<_>>() {
                for &id in &f.block(b).insts.clone() {
                    if let InstKind::Gep { base, offset } = f.inst(id).kind {
                        if base == Value::Inst(alloca) {
                            let off = offset.as_const_int().unwrap();
                            if let Some(part) = parts.get(&off) {
                                f.replace_all_uses(id, Value::Inst(*part));
                                f.remove_from_block(b, id);
                            }
                        }
                    }
                }
            }
            // Direct (offset-0) accesses on the aggregate base itself.
            if let Some(zero_part) = parts.get(&0).copied() {
                rewrite_direct_accesses(f, alloca, zero_part);
            }
            f.remove_from_block(ab, alloca);
            changed = true;
        }

        // sroa finishes with promotion, like LLVM's.
        let candidates = promotable_allocas(f);
        if !candidates.is_empty() {
            promote(f, &candidates);
            changed = true;
        }
        changed
    }

    fn promote(f: &mut Body, allocas: &[InstId]) {
        let (cfg, dt) = f.analyse::<CfgDom>();
        let df = dt.dominance_frontiers(&cfg);
        let alloca_index: HashMap<InstId, usize> =
            allocas.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let types: Vec<Type> = allocas.iter().map(|a| alloca_value_type(f, *a)).collect();

        // Blocks containing a store per alloca, ascending: blocks are visited
        // in order, so a repeat can only be the last entry.
        let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Store {
                    ptr: Value::Inst(a),
                    ..
                } = &f.inst(id).kind
                {
                    if let Some(&ai) = alloca_index.get(a) {
                        if def_blocks[ai].last() != Some(&b) {
                            def_blocks[ai].push(b);
                        }
                    }
                }
            }
        }

        // Phi insertion at iterated dominance frontiers.
        // phi_of[block][alloca] = phi inst id
        let mut phi_of: HashMap<(BlockId, usize), InstId> = HashMap::new();
        for (ai, defs) in def_blocks.iter().enumerate() {
            // Sorted worklists and frontiers keep phi-creation order (and thus
            // instruction arena ids) deterministic across runs.
            let mut work: VecDeque<BlockId> = defs.iter().copied().collect();
            let mut has_phi: HashSet<BlockId> = HashSet::new();
            while let Some(b) = work.pop_front() {
                for &frontier in &df[b.index()] {
                    if has_phi.insert(frontier) {
                        let phi = f.add_inst(Inst::new(
                            InstKind::Phi {
                                incomings: Vec::new(),
                            },
                            types[ai],
                        ));
                        f.block_mut(frontier).insts.insert(0, phi);
                        phi_of.insert((frontier, ai), phi);
                        if defs.binary_search(&frontier).is_err() {
                            work.push_back(frontier);
                        }
                    }
                }
            }
        }

        // Renaming pass: DFS over the dominator tree.
        let children = dt.children();
        let n_allocas = allocas.len();
        let mut stacks: Vec<Vec<Value>> = vec![Vec::new(); n_allocas];
        let mut removals: Vec<(BlockId, InstId)> = Vec::new();
        let mut replacements: Vec<(InstId, Value)> = Vec::new();
        let mut phi_incomings: HashMap<InstId, Vec<(BlockId, Value)>> = HashMap::new();

        // Explicit DFS over the dominator tree with enter/exit events so the
        // value stacks unwind correctly.
        #[derive(Clone, Copy)]
        enum Ev {
            Enter(BlockId),
            Exit(BlockId),
        }
        // Track push counts per block to pop on exit.
        let mut push_counts: HashMap<BlockId, Vec<usize>> = HashMap::new();
        let mut dfs: Vec<Ev> = vec![Ev::Enter(BlockId::ENTRY)];
        while let Some(ev) = dfs.pop() {
            match ev {
                Ev::Enter(b) => {
                    let mut pushes = vec![0usize; n_allocas];
                    // Phis at block entry define new values.
                    for &id in &f.block(b).insts.clone() {
                        if let Some(ai) = phi_owner(&phi_of, b, id, n_allocas) {
                            stacks[ai].push(Value::Inst(id));
                            pushes[ai] += 1;
                        }
                    }
                    for &id in &f.block(b).insts.clone() {
                        match f.inst(id).kind.clone() {
                            InstKind::Load {
                                ptr: Value::Inst(a),
                                ..
                            } => {
                                if let Some(&ai) = alloca_index.get(&a) {
                                    let cur = stacks[ai]
                                        .last()
                                        .copied()
                                        .unwrap_or(Value::Undef(types[ai]));
                                    replacements.push((id, cur));
                                    removals.push((b, id));
                                }
                            }
                            InstKind::Store {
                                ptr: Value::Inst(a),
                                value,
                                ..
                            } => {
                                if let Some(&ai) = alloca_index.get(&a) {
                                    stacks[ai].push(value);
                                    pushes[ai] += 1;
                                    removals.push((b, id));
                                }
                            }
                            _ => {}
                        }
                    }
                    // Record phi incomings for successors (dedup in case a
                    // conditional branch targets the same block twice).
                    let mut succs = f.block(b).term.successors();
                    succs.sort();
                    succs.dedup();
                    for s in succs {
                        for ai in 0..n_allocas {
                            if let Some(&phi) = phi_of.get(&(s, ai)) {
                                let cur = stacks[ai]
                                    .last()
                                    .copied()
                                    .unwrap_or(Value::Undef(types[ai]));
                                phi_incomings.entry(phi).or_default().push((b, cur));
                            }
                        }
                    }
                    push_counts.insert(b, pushes);
                    dfs.push(Ev::Exit(b));
                    for &c in &children[b.index()] {
                        dfs.push(Ev::Enter(c));
                    }
                }
                Ev::Exit(b) => {
                    if let Some(pushes) = push_counts.remove(&b) {
                        for (ai, n) in pushes.into_iter().enumerate() {
                            for _ in 0..n {
                                stacks[ai].pop();
                            }
                        }
                    }
                }
            }
        }

        // Apply: fill phis, replace loads, drop loads/stores/allocas.
        for (phi, inc) in phi_incomings {
            f.inst_mut(phi).kind = InstKind::Phi { incomings: inc };
        }
        for (id, v) in replacements {
            f.replace_all_uses(id, v);
        }
        for (b, id) in removals {
            f.remove_from_block(b, id);
        }
        for &a in allocas {
            // Find and remove the alloca from its block.
            for b in f.block_ids().collect::<Vec<_>>() {
                if f.remove_from_block(b, a) {
                    break;
                }
            }
        }
        // Phis with all-identical incomings (single-pred joins) fold away.
        crate::util::trivial_dce(&Module::new("tmp"), f, false);
    }

    fn is_splittable(f: &Function, alloca: InstId) -> bool {
        if alloca_escapes(f, alloca) {
            return false;
        }
        let av = Value::Inst(alloca);
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                let kind = &f.inst(id).kind;
                match kind {
                    InstKind::Gep { base, offset } if *base == av => {
                        if offset.as_const_int().is_none() {
                            return false;
                        }
                        // The gep result must itself only feed loads/stores.
                        let gv = Value::Inst(id);
                        for b2 in f.block_ids() {
                            for &id2 in &f.block(b2).insts {
                                let k2 = &f.inst(id2).kind;
                                let mut bad = false;
                                k2.for_each_operand(|v| {
                                    if v == gv {
                                        match k2 {
                                            InstKind::Load { .. } => {}
                                            InstKind::Store { ptr, value, .. } => {
                                                if *ptr != gv || *value == gv {
                                                    bad = true;
                                                }
                                            }
                                            _ => bad = true,
                                        }
                                    }
                                });
                                if bad {
                                    return false;
                                }
                            }
                        }
                    }
                    InstKind::Load { ptr, .. } if *ptr == av => {}
                    InstKind::Store { ptr, value, .. } if *ptr == av => {
                        if *value == av {
                            return false;
                        }
                    }
                    InstKind::Memset { ptr, .. } | InstKind::Memcpy { dst: ptr, .. }
                        if *ptr == av =>
                    {
                        return false;
                    }
                    InstKind::Memcpy { src, .. } if *src == av => return false,
                    _ => {
                        let mut uses_it = false;
                        kind.for_each_operand(|v| {
                            if v == av {
                                uses_it = true;
                            }
                        });
                        if uses_it && !matches!(kind, InstKind::Load { .. } | InstKind::Gep { .. })
                        {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Allocas eligible for promotion: one cell, non-escaping, only loaded and
    /// stored directly (no geps, no intrinsics).
    fn promotable_allocas(f: &Function) -> Vec<InstId> {
        let mut out = Vec::new();
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Alloca { cells: 1 } = f.inst(id).kind {
                    if is_promotable(f, id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    fn is_promotable(f: &Function, alloca: InstId) -> bool {
        let av = Value::Inst(alloca);
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                let kind = &f.inst(id).kind;
                let mut ok = true;
                kind.for_each_operand(|v| {
                    if v != av {
                        return;
                    }
                    match kind {
                        InstKind::Load { ptr, .. } => ok &= *ptr == av,
                        InstKind::Store { ptr, value, .. } => ok &= *ptr == av && *value != av,
                        _ => ok = false,
                    }
                });
                if !ok {
                    return false;
                }
            }
            let mut used_by_term = false;
            f.block(b).term.for_each_operand(|v| {
                if v == av {
                    used_by_term = true;
                }
            });
            if used_by_term {
                return false;
            }
        }
        true
    }

    /// The value type stored in / loaded from an alloca (needed for phi types).
    fn alloca_value_type(f: &Function, alloca: InstId) -> Type {
        let av = Value::Inst(alloca);
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                match &f.inst(id).kind {
                    InstKind::Load { ptr, .. } if *ptr == av => return f.inst(id).ty,
                    InstKind::Store { ptr, value, .. } if *ptr == av => {
                        return f.value_type(*value)
                    }
                    _ => {}
                }
            }
        }
        Type::I64
    }

    fn phi_owner(
        phi_of: &HashMap<(BlockId, usize), InstId>,
        b: BlockId,
        id: InstId,
        n: usize,
    ) -> Option<usize> {
        (0..n).find(|ai| phi_of.get(&(b, *ai)) == Some(&id))
    }
}
