//! Interprocedural phases: `inline`, `argpromotion`, `deadargelim`,
//! `globaldce`, `globalopt`, `constmerge`, `called-value-propagation`,
//! `elim-avail-extern`, `prune-eh` (function-attribute inference) and
//! `tailcallelim`.

use crate::util::{all_insts, function_size, remove_unreachable_blocks, trivial_dce};
use mlcomp_ir::analysis::ModuleBody;
use mlcomp_ir::{
    BlockId, Callee, FuncId, Function, GlobalId, Inst, InstId, InstKind, Module, Terminator, Type,
    Value,
};
use std::collections::{HashMap, HashSet};

/// Default inlining threshold in abstract size units (instructions +
/// blocks); `inlinehint` doubles it, `cold` halves it.
pub const INLINE_THRESHOLD: usize = 45;

/// `inline`: bottom-up inlining of small direct callees. The callee's
/// blocks are spliced into the caller, parameters become argument values,
/// returns converge on a continuation block behind a phi, and entry-block
/// allocas are re-homed to the caller's entry (as LLVM's inliner does, so
/// loops around the call site do not grow the stack per iteration).
pub fn inline(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    // Iterate until no more call sites qualify (bounded by caller growth).
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > 8 {
            break;
        }
        let cg = m.call_graph();
        let mut site: Option<(FuncId, BlockId, InstId, FuncId)> = None;
        'search: for caller in m.function_ids() {
            if m.function(caller).is_declaration {
                continue;
            }
            // Cap caller growth.
            if function_size(m.function(caller)) > 600 {
                continue;
            }
            for b in m.function(caller).block_ids() {
                for &id in &m.function(caller).block(b).insts {
                    if let InstKind::Call {
                        callee: Callee::Direct(c),
                        ..
                    } = &m.function(caller).inst(id).kind
                    {
                        let callee = m.function(*c);
                        if callee.is_declaration
                            || callee.attrs.no_inline
                            || *c == caller
                            || cg.is_recursive(*c)
                        {
                            continue;
                        }
                        let mut threshold = INLINE_THRESHOLD;
                        if callee.attrs.inline_hint {
                            threshold *= 2;
                        }
                        if callee.attrs.cold {
                            threshold /= 2;
                        }
                        if function_size(callee) <= threshold {
                            site = Some((caller, b, id, *c));
                            break 'search;
                        }
                    }
                }
            }
        }
        let Some((caller, block, call_id, callee)) = site else {
            break;
        };
        inline_site(m, caller, block, call_id, callee);
        changed = true;
    }
    if changed {
        // Inlining adds no function and writes no attribute, so the
        // pre-phase module answers `trivial_dce`'s `readnone` queries.
        let before = m.before();
        for mut f in m.bodies() {
            if !f.is_declaration {
                remove_unreachable_blocks(&mut f);
                trivial_dce(before, &mut f, false);
            }
        }
    }
    changed
}

fn inline_site(m: &mut Module, caller: FuncId, block: BlockId, call_id: InstId, callee: FuncId) {
    let callee_fn = m.function(callee).clone();
    let args: Vec<Value> = match &m.function(caller).inst(call_id).kind {
        InstKind::Call { args, .. } => args.clone(),
        _ => unreachable!("inline_site called on a non-call"),
    };
    let ret_ty = m.function(caller).inst(call_id).ty;
    let f = m.function_mut(caller);

    // Split the call block: everything after the call moves to `cont`.
    let call_pos = f
        .block(block)
        .insts
        .iter()
        .position(|&i| i == call_id)
        .expect("call is in its block");
    let cont = crate::util::split_block_after(f, block, call_pos);
    // Remove the call itself from `block`.
    f.remove_from_block(block, call_id);

    // Clone callee blocks into the caller.
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
    for cb in callee_fn.block_ids() {
        block_map.insert(cb, f.add_block());
    }
    for cb in callee_fn.block_ids() {
        let nb = block_map[&cb];
        for &cid in &callee_fn.block(cb).insts {
            let inst = callee_fn.inst(cid).clone();
            let nid = f.add_inst(inst);
            inst_map.insert(cid, nid);
            f.block_mut(nb).insts.push(nid);
        }
        f.block_mut(nb).term = callee_fn.block(cb).term.clone();
    }
    // Remap operands: params → args, internal insts/blocks → clones.
    let remap = |v: Value, inst_map: &HashMap<InstId, InstId>, args: &[Value]| -> Value {
        match v {
            Value::Inst(i) => inst_map.get(&i).map(|n| Value::Inst(*n)).unwrap_or(v),
            Value::Param(p) => args.get(p as usize).copied().unwrap_or(v),
            _ => v,
        }
    };
    let mut ret_sites: Vec<(BlockId, Option<Value>)> = Vec::new();
    for cb in callee_fn.block_ids() {
        let nb = block_map[&cb];
        for &nid in &f.block(nb).insts.clone() {
            let mut kind = f.inst(nid).kind.clone();
            kind.map_operands(|v| remap(v, &inst_map, &args));
            if let InstKind::Phi { incomings } = &mut kind {
                for (pb, _) in incomings.iter_mut() {
                    if let Some(np) = block_map.get(pb) {
                        *pb = *np;
                    }
                }
            }
            f.inst_mut(nid).kind = kind;
        }
        let mut term = f.block(nb).term.clone();
        term.map_targets(|t| block_map.get(&t).copied().unwrap_or(t));
        term.map_operands(|v| remap(v, &inst_map, &args));
        if let Terminator::Ret(rv) = &term {
            ret_sites.push((nb, *rv));
            term = Terminator::Br(cont);
        }
        f.block_mut(nb).term = term;
    }

    // Wire the call block into the inlined entry.
    let inlined_entry = block_map[&BlockId::ENTRY];
    f.block_mut(block).term = Terminator::Br(inlined_entry);
    // `cont` inherited `block`'s successors; phis there already renamed by
    // split_block_after. The return value becomes a phi in `cont`.
    if ret_ty != Type::Void {
        let phi = f.add_inst(Inst::new(
            InstKind::Phi {
                incomings: ret_sites
                    .iter()
                    .map(|(b, v)| (*b, v.unwrap_or(Value::Undef(ret_ty))))
                    .collect(),
            },
            ret_ty,
        ));
        f.block_mut(cont).insts.insert(0, phi);
        f.replace_all_uses(call_id, Value::Inst(phi));
    }

    // Re-home entry allocas so loops around the call site do not grow the
    // stack each iteration.
    let entry_insts = f.block(inlined_entry).insts.clone();
    let mut moved = Vec::new();
    for id in entry_insts {
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) {
            f.remove_from_block(inlined_entry, id);
            moved.push(id);
        }
    }
    for (i, id) in moved.into_iter().enumerate() {
        f.block_mut(BlockId::ENTRY).insts.insert(i, id);
    }
}

/// `argpromotion`: internal functions whose pointer parameter is only ever
/// loaded (offset 0) get the loaded *value* instead; callers load before
/// the call. Unlocks scalar optimization of by-reference parameters.
pub fn argpromotion(m: &mut ModuleBody) -> bool {
    let cg = m.call_graph();
    let mut changed = false;
    for target in m.function_ids().collect::<Vec<_>>() {
        let f = m.function(target);
        if f.is_declaration || !f.internal || cg.address_taken.contains(&target) {
            continue;
        }
        if cg.call_site_count(target) == 0 {
            continue;
        }
        // Find a promotable pointer param: every use is `load(param)`.
        let mut candidate: Option<(u32, Type)> = None;
        'params: for (pi, &pty) in f.params.iter().enumerate() {
            if pty != Type::Ptr {
                continue;
            }
            let pv = Value::Param(pi as u32);
            let mut loaded_ty: Option<Type> = None;
            for b in f.block_ids() {
                for &id in &f.block(b).insts {
                    let kind = &f.inst(id).kind;
                    let mut uses_param = false;
                    kind.for_each_operand(|v| uses_param |= v == pv);
                    if !uses_param {
                        continue;
                    }
                    match kind {
                        InstKind::Load { ptr, .. } if *ptr == pv => {
                            let t = f.inst(id).ty;
                            if loaded_ty.get_or_insert(t) != &t {
                                continue 'params;
                            }
                        }
                        _ => continue 'params,
                    }
                }
                let mut term_use = false;
                f.block(b).term.for_each_operand(|v| term_use |= v == pv);
                if term_use {
                    continue 'params;
                }
            }
            if let Some(t) = loaded_ty {
                candidate = Some((pi as u32, t));
                break;
            }
        }
        let Some((pi, loaded_ty)) = candidate else {
            continue;
        };
        // Rewrite the callee: param type changes, loads become the param.
        {
            let f = m.function_mut(target);
            f.params[pi as usize] = loaded_ty;
            for b in f.block_ids().collect::<Vec<_>>() {
                for &id in &f.block(b).insts.clone() {
                    if let InstKind::Load { ptr, .. } = &f.inst(id).kind {
                        if *ptr == Value::Param(pi) {
                            f.replace_all_uses(id, Value::Param(pi));
                            f.remove_from_block(b, id);
                        }
                    }
                }
            }
        }
        // Rewrite every call site: insert a load of the pointer argument.
        for caller in m.function_ids().collect::<Vec<_>>() {
            let f = m.function_mut(caller);
            if f.is_declaration {
                continue;
            }
            for b in f.block_ids().collect::<Vec<_>>() {
                for &id in &f.block(b).insts.clone() {
                    let InstKind::Call {
                        callee: Callee::Direct(c),
                        args,
                    } = f.inst(id).kind.clone()
                    else {
                        continue;
                    };
                    if c != target {
                        continue;
                    }
                    let ptr_arg = args[pi as usize];
                    let load = f.add_inst(Inst::new(
                        InstKind::Load {
                            ptr: ptr_arg,
                            aligned: false,
                            width: 1,
                        },
                        loaded_ty,
                    ));
                    let pos = f.block(b).insts.iter().position(|&x| x == id).unwrap();
                    f.block_mut(b).insts.insert(pos, load);
                    let mut new_args = args;
                    new_args[pi as usize] = Value::Inst(load);
                    f.inst_mut(id).kind = InstKind::Call {
                        callee: Callee::Direct(c),
                        args: new_args,
                    };
                }
            }
        }
        changed = true;
    }
    changed
}

/// `deadargelim`: removes parameters of internal functions that no body
/// instruction reads, rewriting all call sites.
pub fn deadargelim(m: &mut ModuleBody) -> bool {
    let cg = m.call_graph();
    let mut changed = false;
    for target in m.function_ids().collect::<Vec<_>>() {
        let f = m.function(target);
        if f.is_declaration || !f.internal || cg.address_taken.contains(&target) {
            continue;
        }
        // Find dead params.
        let nparams = f.params.len();
        let mut used = vec![false; nparams];
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                f.inst(id).kind.for_each_operand(|v| {
                    if let Value::Param(i) = v {
                        used[i as usize] = true;
                    }
                });
            }
            f.block(b).term.for_each_operand(|v| {
                if let Value::Param(i) = v {
                    used[i as usize] = true;
                }
            });
        }
        let dead: Vec<usize> = (0..nparams).filter(|&i| !used[i]).collect();
        if dead.is_empty() {
            continue;
        }
        // Param index remapping.
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(nparams);
        let mut next = 0u32;
        for &u in used.iter().take(nparams) {
            if u {
                remap.push(Some(next));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        // Rewrite callee signature + body param refs.
        {
            let f = m.function_mut(target);
            f.params = f
                .params
                .iter()
                .enumerate()
                .filter(|(i, _)| used[*i])
                .map(|(_, t)| *t)
                .collect();
            for b in f.block_ids().collect::<Vec<_>>() {
                for &id in &f.block(b).insts.clone() {
                    f.inst_mut(id).kind.map_operands(|v| match v {
                        Value::Param(i) => Value::Param(remap[i as usize].unwrap_or(i)),
                        v => v,
                    });
                }
                let mut term = f.block(b).term.clone();
                term.map_operands(|v| match v {
                    Value::Param(i) => Value::Param(remap[i as usize].unwrap_or(i)),
                    v => v,
                });
                f.block_mut(b).term = term;
            }
        }
        // Rewrite call sites.
        for caller in m.function_ids().collect::<Vec<_>>() {
            let f = m.function_mut(caller);
            if f.is_declaration {
                continue;
            }
            for b in f.block_ids().collect::<Vec<_>>() {
                for &id in &f.block(b).insts.clone() {
                    let InstKind::Call {
                        callee: Callee::Direct(c),
                        args,
                    } = f.inst(id).kind.clone()
                    else {
                        continue;
                    };
                    if c != target {
                        continue;
                    }
                    let new_args: Vec<Value> = args
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| used[*i])
                        .map(|(_, a)| a)
                        .collect();
                    f.inst_mut(id).kind = InstKind::Call {
                        callee: Callee::Direct(c),
                        args: new_args,
                    };
                }
            }
        }
        changed = true;
    }
    changed
}

/// `globaldce`: deletes internal functions unreachable from any root
/// (externally visible function or address-taken function) and internal
/// globals that are never referenced.
pub fn globaldce(m: &mut ModuleBody) -> bool {
    let cg = m.call_graph();
    let mut changed = false;
    let roots: Vec<FuncId> = m
        .function_ids()
        .filter(|f| !m.function(*f).internal)
        .collect();
    for dead in cg.unreachable_from(&roots) {
        let f = m.function_mut(dead);
        if !f.is_declaration && f.internal && !f.blocks.is_empty() {
            f.blocks.clear();
            f.insts.clear();
            f.is_declaration = true;
            changed = true;
        }
    }
    // Unreferenced internal globals.
    let mut referenced: HashSet<GlobalId> = HashSet::new();
    for f in &m.functions {
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                f.inst(id).kind.for_each_operand(|v| {
                    if let Value::Global(g) = v {
                        referenced.insert(g);
                    }
                });
            }
            f.block(b).term.for_each_operand(|v| {
                if let Value::Global(g) = v {
                    referenced.insert(g);
                }
            });
        }
    }
    for g in m.global_ids().collect::<Vec<_>>() {
        if m.global(g).internal && !referenced.contains(&g) {
            m.global_mut(g).deleted = true;
            changed = true;
        }
    }
    if changed {
        m.invalidate_meta();
    }
    changed
}

/// `globalopt`: internal globals that are never written become constants;
/// loads of single-cell constant globals fold to their initializer.
pub fn globalopt(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    let nglobals = m.globals.len();
    let mut written = vec![false; nglobals];
    let mut escapes = vec![false; nglobals];
    for f in &m.functions {
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                let kind = &f.inst(id).kind;
                if let Some(g) = kind.write_ptr().and_then(|p| global_root(f, p)) {
                    written[g.index()] = true;
                }
                match kind {
                    InstKind::Store {
                        value: Value::Global(g),
                        ..
                    } => escapes[g.index()] = true,
                    InstKind::Call { args, .. } => {
                        for a in args {
                            if let Some(g) = global_root(f, *a) {
                                escapes[g.index()] = true;
                                written[g.index()] = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    for gi in m.global_ids().collect::<Vec<_>>() {
        let g = m.global_mut(gi);
        if g.internal && !g.is_const && !written[gi.index()] && !escapes[gi.index()] {
            g.is_const = true;
            changed = true;
        }
    }
    // Fold loads of constant single cells with constant offsets.
    for fi in m.function_ids().collect::<Vec<_>>() {
        let f = &m.functions[fi.index()];
        if f.is_declaration {
            continue;
        }
        let mut folds: Vec<(BlockId, InstId, Value)> = Vec::new();
        for (b, id) in all_insts(f) {
            let InstKind::Load { ptr, .. } = &f.inst(id).kind else {
                continue;
            };
            let Some((g, off)) = global_and_offset(f, *ptr) else {
                continue;
            };
            let gl = m.global(g);
            if !gl.is_const || off < 0 || off >= gl.cells as i64 {
                continue;
            }
            let bits = gl.init_cell(off as usize);
            let ty = f.inst(id).ty;
            let v = if ty.is_float() {
                Value::ConstFloat(bits as u64, ty)
            } else {
                Value::ConstInt(bits, ty)
            };
            folds.push((b, id, v));
        }
        let f = m.function_mut(fi);
        for (b, id, v) in folds {
            f.replace_all_uses(id, v);
            f.remove_from_block(b, id);
            changed = true;
        }
    }
    if changed {
        m.invalidate_meta();
    }
    changed
}

fn global_root(f: &Function, ptr: Value) -> Option<GlobalId> {
    match crate::util::mem_root(f, ptr) {
        crate::util::MemRoot::Global(g) => Some(g),
        _ => None,
    }
}

fn global_and_offset(f: &Function, ptr: Value) -> Option<(GlobalId, i64)> {
    match ptr {
        Value::Global(g) => Some((g, 0)),
        Value::Inst(id) => match &f.inst(id).kind {
            InstKind::Gep { base, offset } => {
                let (g, base_off) = global_and_offset(f, *base)?;
                Some((g, base_off + offset.as_const_int()?))
            }
            _ => None,
        },
        _ => None,
    }
}

/// `constmerge`: merges identical internal constant globals, rewriting all
/// references to the surviving copy.
pub fn constmerge(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    let mut canon: HashMap<Vec<i64>, GlobalId> = HashMap::new();
    let mut rewrite: HashMap<GlobalId, GlobalId> = HashMap::new();
    for g in m.global_ids().collect::<Vec<_>>() {
        let gl = m.global(g);
        if !gl.is_const || !gl.internal {
            continue;
        }
        let mut key = gl.init.clone();
        key.resize(gl.cells as usize, 0);
        match canon.get(&key) {
            Some(&keep) => {
                rewrite.insert(g, keep);
            }
            None => {
                canon.insert(key, g);
            }
        }
    }
    if rewrite.is_empty() {
        return false;
    }
    for f in m.functions.iter_mut() {
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                f.inst_mut(id).kind.map_operands(|v| match v {
                    Value::Global(g) => Value::Global(rewrite.get(&g).copied().unwrap_or(g)),
                    v => v,
                });
            }
            let mut term = f.block(b).term.clone();
            term.map_operands(|v| match v {
                Value::Global(g) => Value::Global(rewrite.get(&g).copied().unwrap_or(g)),
                v => v,
            });
            f.block_mut(b).term = term;
        }
    }
    for (dead, _) in rewrite {
        m.global_mut(dead).deleted = true;
        changed = true;
    }
    m.invalidate_meta();
    changed
}

/// `called-value-propagation`: indirect calls through a constant function
/// address (directly or via a single-incoming phi/select chain) become
/// direct calls.
pub fn called_value_propagation(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    for fi in m.function_ids().collect::<Vec<_>>() {
        let f = m.function_mut(fi);
        if f.is_declaration {
            continue;
        }
        for b in f.block_ids().collect::<Vec<_>>() {
            for &id in &f.block(b).insts.clone() {
                let InstKind::Call {
                    callee: Callee::Indirect(fp),
                    args,
                } = f.inst(id).kind.clone()
                else {
                    continue;
                };
                let Some(target) = resolve_fn_pointer(f, fp, 0) else {
                    continue;
                };
                f.inst_mut(id).kind = InstKind::Call {
                    callee: Callee::Direct(target),
                    args,
                };
                changed = true;
            }
        }
    }
    changed
}

fn resolve_fn_pointer(f: &Function, v: Value, depth: u32) -> Option<FuncId> {
    if depth > 4 {
        return None;
    }
    match v {
        Value::FuncAddr(t) => Some(t),
        Value::Inst(id) => match &f.inst(id).kind {
            InstKind::Phi { incomings } => {
                let mut t = None;
                for (_, iv) in incomings {
                    let r = resolve_fn_pointer(f, *iv, depth + 1)?;
                    if *t.get_or_insert(r) != r {
                        return None;
                    }
                }
                t
            }
            InstKind::Select {
                then_val, else_val, ..
            } => {
                let a = resolve_fn_pointer(f, *then_val, depth + 1)?;
                let b = resolve_fn_pointer(f, *else_val, depth + 1)?;
                (a == b).then_some(a)
            }
            _ => None,
        },
        _ => None,
    }
}

/// `elim-avail-extern`: drops the bodies of `available_externally`
/// functions once nothing in the module calls them anymore (post-inlining)
/// — in a real toolchain the external definition takes over at link time;
/// here the body must be genuinely unused.
pub fn elim_avail_extern(m: &mut ModuleBody) -> bool {
    let cg = m.call_graph();
    let mut changed = false;
    for fid in m.function_ids().collect::<Vec<_>>() {
        let f = m.function(fid);
        if f.is_declaration || !f.attrs.available_externally {
            continue;
        }
        if cg.call_site_count(fid) == 0 && !cg.address_taken.contains(&fid) {
            let f = m.function_mut(fid);
            f.blocks.clear();
            f.insts.clear();
            f.is_declaration = true;
            changed = true;
        }
    }
    changed
}

/// `prune-eh` substitute: bottom-up inference of `nounwind` and `readnone`
/// function attributes over the call graph. Our IR has no exception
/// handling, so the unwind half is trivially true for any function whose
/// callees are all known; the `readnone` half is what unlocks DCE and CSE
/// around calls (see DESIGN.md §2).
pub fn prune_eh(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    // Fixed-point: a function is readnone if it has no memory effects and
    // only calls readnone functions (self-calls allowed).
    loop {
        let mut local = false;
        for fid in m.function_ids().collect::<Vec<_>>() {
            let f = m.function(fid);
            if f.is_declaration || f.attrs.readnone {
                continue;
            }
            let mut pure_fn = true;
            for b in f.block_ids() {
                for &id in &f.block(b).insts {
                    match &f.inst(id).kind {
                        InstKind::Load { .. }
                        | InstKind::Store { .. }
                        | InstKind::Memset { .. }
                        | InstKind::Memcpy { .. }
                        | InstKind::Alloca { .. } => pure_fn = false,
                        InstKind::Call { callee, .. } => match callee {
                            Callee::Direct(c) => {
                                if *c != fid && !m.function(*c).attrs.readnone {
                                    pure_fn = false;
                                }
                            }
                            Callee::Indirect(_) => pure_fn = false,
                        },
                        _ => {}
                    }
                    if !pure_fn {
                        break;
                    }
                }
                if !pure_fn {
                    break;
                }
            }
            if pure_fn {
                m.function_mut(fid).attrs.readnone = true;
                local = true;
                changed = true;
            }
        }
        if !local {
            break;
        }
    }
    // nounwind: everything with a body (no EH in this IR).
    for fid in m.function_ids().collect::<Vec<_>>() {
        let f = m.function_mut(fid);
        if !f.is_declaration && !f.attrs.nounwind {
            f.attrs.nounwind = true;
            changed = true;
        }
    }
    changed
}

/// `globals-aa`: records which globals never escape (their address is only
/// used for direct loads/stores/geps) in module metadata; the memory
/// phases consult this to disambiguate global accesses from calls.
pub fn globals_aa(m: &mut ModuleBody) -> bool {
    let mut escaping: HashSet<GlobalId> = HashSet::new();
    for f in &m.functions {
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                let kind = &f.inst(id).kind;
                match kind {
                    InstKind::Load { .. } | InstKind::Gep { .. } => {}
                    InstKind::Store { value, .. } => {
                        if let Some(g) = global_root(f, *value) {
                            escaping.insert(g);
                        }
                    }
                    InstKind::Call { args, callee } => {
                        for a in args {
                            if let Some(g) = global_root(f, *a) {
                                escaping.insert(g);
                            }
                        }
                        if let Callee::Indirect(v) = callee {
                            if let Some(g) = global_root(f, *v) {
                                escaping.insert(g);
                            }
                        }
                    }
                    _ => {
                        kind.for_each_operand(|v| {
                            if let Value::Global(g) = v {
                                if !matches!(kind, InstKind::Cmp { .. }) {
                                    escaping.insert(g);
                                }
                            }
                        });
                    }
                }
            }
            f.block(b).term.for_each_operand(|v| {
                if let Value::Global(g) = v {
                    escaping.insert(g);
                }
            });
        }
    }
    let nonescaping: std::collections::BTreeSet<GlobalId> =
        m.global_ids().filter(|g| !escaping.contains(g)).collect();
    let was_valid = m.meta.globals_aa_valid;
    let same = m.meta.nonescaping_globals == nonescaping;
    m.meta.nonescaping_globals = nonescaping;
    m.meta.globals_aa_valid = true;
    !was_valid || !same
}

/// `tailcallelim`: rewrites direct self-recursive tail calls into a loop —
/// the entry becomes a dispatch block, parameters become phis, and each
/// tail call becomes a back edge carrying its arguments.
pub fn tailcallelim(m: &mut ModuleBody) -> bool {
    let mut changed = false;
    for fid in m.function_ids().collect::<Vec<_>>() {
        let f = m.function(fid);
        if f.is_declaration {
            continue;
        }
        // Find tail sites: call to self immediately followed by ret of its
        // result (the call is the last instruction of the block).
        let mut tail_sites: Vec<(BlockId, InstId, Vec<Value>)> = Vec::new();
        for b in f.block_ids() {
            let Some(&last) = f.block(b).insts.last() else {
                continue;
            };
            let InstKind::Call {
                callee: Callee::Direct(c),
                args,
            } = &f.inst(last).kind
            else {
                continue;
            };
            if *c != fid {
                continue;
            }
            let ok = match &f.block(b).term {
                Terminator::Ret(Some(v)) => *v == Value::Inst(last),
                Terminator::Ret(None) => f.ret_ty == Type::Void,
                _ => false,
            };
            if ok {
                tail_sites.push((b, last, args.clone()));
            }
        }
        if tail_sites.is_empty() {
            continue;
        }
        // A tail site in the entry block would be relocated by the header
        // split below; skip that rare shape.
        if tail_sites.iter().any(|(b, _, _)| *b == BlockId::ENTRY) {
            continue;
        }
        // The entry must not be a loop header already (no phis) — our
        // builder guarantees that, but be safe.
        if f.block(BlockId::ENTRY)
            .insts
            .iter()
            .any(|&i| f.inst(i).kind.is_phi())
        {
            continue;
        }
        let nparams = f.params.len();
        let param_tys = f.params.clone();
        let mut f = m.body(fid);
        // Move the entry's contents into a fresh header block.
        let header = f.add_block();
        let entry_insts = std::mem::take(&mut f.block_mut(BlockId::ENTRY).insts);
        let entry_term = std::mem::replace(
            &mut f.block_mut(BlockId::ENTRY).term,
            Terminator::Br(header),
        );
        f.block_mut(header).insts = entry_insts;
        for s in entry_term.successors() {
            f.rename_phi_pred(s, BlockId::ENTRY, header);
        }
        f.block_mut(header).term = entry_term;
        // Parameter phis in the header.
        let mut param_phis = Vec::with_capacity(nparams);
        for (i, ty) in param_tys.iter().enumerate() {
            let phi = f.add_inst(Inst::new(
                InstKind::Phi {
                    incomings: vec![(BlockId::ENTRY, Value::Param(i as u32))],
                },
                *ty,
            ));
            f.block_mut(header).insts.insert(i, phi);
            param_phis.push(phi);
        }
        // Rewrite all param uses outside the entry block to the phis
        // (phi operands themselves keep Param for the entry incoming).
        for b in f.block_ids().collect::<Vec<_>>() {
            if b == BlockId::ENTRY {
                continue;
            }
            for &id in &f.block(b).insts.clone() {
                if param_phis.contains(&id) {
                    continue;
                }
                f.inst_mut(id).kind.map_operands(|v| match v {
                    Value::Param(i) => Value::Inst(param_phis[i as usize]),
                    v => v,
                });
            }
            f.block_mut(b).term.map_operands(|v| match v {
                Value::Param(i) => Value::Inst(param_phis[i as usize]),
                v => v,
            });
        }
        // Rewrite each tail site into a back edge.
        for (b, call_id, args) in tail_sites {
            // Args were rewritten to phis above if they referenced params.
            let args: Vec<Value> = args
                .into_iter()
                .map(|a| match a {
                    Value::Param(i) => Value::Inst(param_phis[i as usize]),
                    a => a,
                })
                .collect();
            f.remove_from_block(b, call_id);
            f.block_mut(b).term = Terminator::Br(header);
            for (i, phi) in param_phis.iter().enumerate() {
                if let InstKind::Phi { incomings } = &mut f.inst_mut(*phi).kind {
                    incomings.push((b, args[i]));
                }
            }
        }
        changed = true;
    }
    if changed {
        let before = m.before();
        for mut f in m.bodies() {
            if !f.is_declaration {
                trivial_dce(before, &mut f, false);
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::analysis::AnalysisCache;
    use mlcomp_ir::{verify, CmpPred, Interpreter, ModuleBuilder, RtVal};

    /// Runs module phase `pass` on `m` with nothing cached.
    fn run(pass: fn(&mut ModuleBody) -> bool, m: &mut Module) -> bool {
        let before = m.clone();
        pass(&mut AnalysisCache::new().lend(m, &before))
    }

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn inline_splices_small_callee() {
        let mut mb = ModuleBuilder::new("t");
        let sq = mb.declare("sq", vec![Type::I64], Type::I64);
        mb.begin_existing(sq);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.param(0));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.call(sq, vec![b.param(0)], Type::I64);
            let c = b.call(sq, vec![a], Type::I64);
            b.ret(Some(c));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(inline, &mut m));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(2)]), Some(RtVal::I(16)));
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(2)]).unwrap();
        assert_eq!(out.counts.call, 0, "all calls inlined");
    }

    #[test]
    fn inline_branchy_callee_builds_ret_phi() {
        let mut mb = ModuleBuilder::new("t");
        let absf = mb.declare("absf", vec![Type::I64], Type::I64);
        mb.begin_existing(absf);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Lt, b.param(0), b.const_i64(0));
            let t = b.new_block();
            let e = b.new_block();
            b.cond_br(c, t, e);
            b.switch_to(t);
            let neg = b.sub(b.const_i64(0), b.param(0));
            b.ret(Some(neg));
            b.switch_to(e);
            b.ret(Some(b.param(0)));
        }
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.call(absf, vec![b.param(0)], Type::I64);
            let r = b.add(a, b.const_i64(1));
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(inline, &mut m));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(-5)]), Some(RtVal::I(6)));
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(6)));
    }

    #[test]
    fn inline_rehomes_allocas() {
        let mut mb = ModuleBuilder::new("t");
        let tmp = mb.declare("tmp", vec![Type::I64], Type::I64);
        mb.begin_existing(tmp);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            b.store(p, b.param(0));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let v = b.call(tmp, vec![i], Type::I64);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, v);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(inline, &mut m));
        verify(&m).unwrap();
        // A large iteration count must not blow the memory limit — the
        // alloca is re-homed to the entry, not repeated per iteration.
        assert_eq!(
            exec(&m, "f", &[RtVal::I(10_000)]),
            Some(RtVal::I(49_995_000))
        );
    }

    #[test]
    fn argpromotion_promotes_readonly_pointer() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("take", vec![Type::Ptr], Type::I64);
        mb.begin_existing(callee);
        {
            let mut b = mb.body();
            let v = b.load(b.param(0), Type::I64);
            let r = b.mul(v, b.const_i64(2));
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.set_internal(callee);
        mb.set_attrs(callee, |a| a.no_inline = true);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            b.store(p, b.param(0));
            let r = b.call(callee, vec![p], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(argpromotion, &mut m));
        verify(&m).unwrap();
        assert_eq!(m.functions[callee.index()].params, vec![Type::I64]);
        assert_eq!(exec(&m, "f", &[RtVal::I(21)]), Some(RtVal::I(42)));
    }

    #[test]
    fn deadargelim_drops_unused_param() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("g", vec![Type::I64, Type::I64], Type::I64);
        mb.begin_existing(callee);
        {
            let mut b = mb.body();
            b.ret(Some(b.param(1)));
        }
        mb.finish_function();
        mb.set_internal(callee);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let r = b.call(callee, vec![b.const_i64(999), b.param(0)], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(deadargelim, &mut m));
        verify(&m).unwrap();
        assert_eq!(m.functions[callee.index()].params.len(), 1);
        assert_eq!(exec(&m, "f", &[RtVal::I(7)]), Some(RtVal::I(7)));
    }

    #[test]
    fn globaldce_strips_dead_function_and_global() {
        let mut mb = ModuleBuilder::new("t");
        let dead_fn = mb.declare("dead", vec![], Type::Void);
        mb.begin_existing(dead_fn);
        mb.body().ret(None);
        mb.finish_function();
        mb.set_internal(dead_fn);
        let _dead_g = mb.add_const_global("dead_g", vec![1, 2, 3]);
        mb.begin_function("main", vec![], Type::I64);
        {
            let mut b = mb.body();
            b.ret(Some(b.const_i64(0)));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(globaldce, &mut m));
        assert!(m.functions[dead_fn.index()].is_declaration);
        assert_eq!(m.global_ids().count(), 0);
    }

    #[test]
    fn globalopt_folds_constant_global_loads() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("cfg", 1); // never written → effectively const
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(globalopt, &mut m));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 0, "load folded to init");
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(0)));
    }

    #[test]
    fn constmerge_dedups_tables() {
        let mut mb = ModuleBuilder::new("t");
        let g1 = mb.add_const_global("t1", vec![1, 2, 3]);
        let g2 = mb.add_const_global("t2", vec![1, 2, 3]);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let v1 = b.load(b.global_addr(g1), Type::I64);
            let p = b.gep(b.global_addr(g2), b.const_i64(1));
            let v2 = b.load(p, Type::I64);
            let s = b.add(v1, v2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(constmerge, &mut m));
        verify(&m).unwrap();
        assert_eq!(m.global_ids().count(), 1);
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(3)));
    }

    #[test]
    fn called_value_propagation_devirtualizes() {
        let mut mb = ModuleBuilder::new("t");
        let target = mb.declare("target", vec![Type::I64], Type::I64);
        mb.begin_existing(target);
        {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(5));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let fp = Value::FuncAddr(target);
            let r = b.call_indirect(fp, vec![b.param(0)], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(called_value_propagation, &mut m));
        verify(&m).unwrap();
        let f = &m.functions[1];
        assert!(all_insts(f).iter().all(|(_, id)| !matches!(
            &f.inst(*id).kind,
            InstKind::Call {
                callee: Callee::Indirect(_),
                ..
            }
        )));
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(6)));
    }

    #[test]
    fn prune_eh_infers_readnone() {
        let mut mb = ModuleBuilder::new("t");
        let leaf = mb.declare("leaf", vec![Type::I64], Type::I64);
        mb.begin_existing(leaf);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.param(0));
            b.ret(Some(v));
        }
        mb.finish_function();
        let mid = mb.declare("mid", vec![Type::I64], Type::I64);
        mb.begin_existing(mid);
        {
            let mut b = mb.body();
            let v = b.call(leaf, vec![b.param(0)], Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(prune_eh, &mut m));
        assert!(m.functions[leaf.index()].attrs.readnone);
        assert!(m.functions[mid.index()].attrs.readnone);
        assert!(m.functions[mid.index()].attrs.nounwind);
    }

    #[test]
    fn globals_aa_identifies_nonescaping() {
        let mut mb = ModuleBuilder::new("t");
        let safe = mb.add_global("safe", 1);
        let leaked = mb.add_global("leaked", 1);
        let sink = mb.declare("sink", vec![Type::Ptr], Type::Void);
        mb.begin_existing(sink);
        mb.body().ret(None);
        mb.finish_function();
        mb.begin_function("f", vec![], Type::Void);
        {
            let mut b = mb.body();
            b.store(b.global_addr(safe), b.const_i64(1));
            b.call(sink, vec![b.global_addr(leaked)], Type::Void);
            b.ret(None);
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(globals_aa, &mut m));
        assert!(m.meta.globals_aa_valid);
        assert!(m.meta.nonescaping_globals.contains(&safe));
        assert!(!m.meta.nonescaping_globals.contains(&leaked));
    }

    #[test]
    fn tailcallelim_turns_recursion_into_loop() {
        // sum(n, acc) = n == 0 ? acc : sum(n-1, acc+n)
        let mut mb = ModuleBuilder::new("t");
        let sum = mb.declare("sum", vec![Type::I64, Type::I64], Type::I64);
        mb.begin_existing(sum);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Eq, b.param(0), b.const_i64(0));
            let base = b.new_block();
            let rec = b.new_block();
            b.cond_br(c, base, rec);
            b.switch_to(base);
            b.ret(Some(b.param(1)));
            b.switch_to(rec);
            let n1 = b.sub(b.param(0), b.const_i64(1));
            let a1 = b.add(b.param(1), b.param(0));
            let r = b.call(sum, vec![n1, a1], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(run(tailcallelim, &mut m));
        verify(&m).unwrap();
        let fid = m.find_function("sum").unwrap();
        let out = Interpreter::new(&m)
            .run(fid, &[RtVal::I(100_000), RtVal::I(0)])
            .unwrap();
        assert_eq!(out.ret, Some(RtVal::I(5_000_050_000)));
        assert_eq!(out.counts.call, 0, "recursion became a loop");
        // Deep recursion would overflow the stack without the transform.
    }

    #[test]
    fn elim_avail_extern_drops_inlined_bodies() {
        let mut mb = ModuleBuilder::new("t");
        let helper = mb.declare("helper", vec![Type::I64], Type::I64);
        mb.begin_existing(helper);
        {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.set_attrs(helper, |a| a.available_externally = true);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let r = b.call(helper, vec![b.param(0)], Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        // Still called → kept.
        assert!(!run(elim_avail_extern, &mut m));
        // Inline, then it can go.
        run(inline, &mut m);
        assert!(run(elim_avail_extern, &mut m));
        assert!(m.functions[helper.index()].is_declaration);
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(4)]), Some(RtVal::I(5)));
    }
}
