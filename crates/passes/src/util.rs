//! Shared machinery used by many phases: constant folding, algebraic
//! simplification, re-analysis after rewrites, trivial dead-code
//! elimination, CFG cleanup, alias queries and region cloning.

use mlcomp_ir::analysis::{Body, Cfg, DefUse, Fetch};
use mlcomp_ir::{
    BinOp, BlockId, Callee, Function, Inst, InstId, InstKind, Module, RtVal, Terminator, Type,
    Value,
};
use std::borrow::Cow;
use std::collections::HashSet;

/// Folds an operation whose operands are all constants into a constant
/// value. Returns `None` when not fully constant or when folding would
/// change trap behaviour (division by zero is preserved). The result is
/// what the interpreter computes: both call the operators' `eval`.
pub fn fold_constant(kind: &InstKind, ty: Type) -> Option<Value> {
    let r = match kind {
        InstKind::Bin { op, lhs, rhs, .. } => op.eval(runtime(*lhs)?, runtime(*rhs)?, ty)?,
        InstKind::Un { op, val } => op.eval(runtime(*val)?, ty),
        InstKind::Cmp { pred, lhs, rhs } => {
            return Some(Value::bool(pred.eval(runtime(*lhs)?, runtime(*rhs)?)))
        }
        InstKind::Cast { op, val } => op.eval(runtime(*val)?, val.ty_of_const()?, ty),
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => {
            return match cond.as_const_int()? {
                0 => Some(*else_val),
                _ => Some(*then_val),
            }
        }
        InstKind::Expect { val, .. } if val.is_const() => return Some(*val),
        _ => return None,
    };
    Some(match r {
        RtVal::I(x) => Value::ConstInt(x, ty),
        RtVal::F(x) => Value::ConstFloat(x.to_bits(), ty),
    })
}

/// The runtime value of a numeric constant.
fn runtime(v: Value) -> Option<RtVal> {
    match v {
        Value::ConstInt(x, _) => Some(RtVal::I(x)),
        Value::ConstFloat(bits, _) => Some(RtVal::F(f64::from_bits(bits))),
        _ => None,
    }
}

/// Algebraic simplifications that return an *existing* value (never create
/// instructions): `x+0 → x`, `x*1 → x`, `x*0 → 0`, `x-x → 0`, `x&x → x`,
/// `x^x → 0`, `select c,v,v → v`, etc. Includes full constant folding.
pub fn simplify_inst(f: &Function, kind: &InstKind, ty: Type) -> Option<Value> {
    if let Some(c) = fold_constant(kind, ty) {
        return Some(c);
    }
    match kind {
        InstKind::Bin { op, lhs, rhs, .. } => {
            let (l, r) = (*lhs, *rhs);
            match op {
                BinOp::Add => {
                    if r.is_zero_int() {
                        return Some(l);
                    }
                    if l.is_zero_int() {
                        return Some(r);
                    }
                }
                BinOp::Sub => {
                    if r.is_zero_int() {
                        return Some(l);
                    }
                    if l == r {
                        return Some(Value::ConstInt(0, ty));
                    }
                }
                BinOp::Mul => {
                    if r.is_one_int() {
                        return Some(l);
                    }
                    if l.is_one_int() {
                        return Some(r);
                    }
                    if r.is_zero_int() || l.is_zero_int() {
                        return Some(Value::ConstInt(0, ty));
                    }
                }
                BinOp::SDiv | BinOp::UDiv => {
                    if r.is_one_int() {
                        return Some(l);
                    }
                }
                BinOp::SRem | BinOp::URem => {
                    if r.is_one_int() {
                        return Some(Value::ConstInt(0, ty));
                    }
                }
                BinOp::And => {
                    if l == r {
                        return Some(l);
                    }
                    if l.is_zero_int() || r.is_zero_int() {
                        return Some(Value::ConstInt(0, ty));
                    }
                    if r == Value::ConstInt(-1, ty) {
                        return Some(l);
                    }
                    if l == Value::ConstInt(-1, ty) {
                        return Some(r);
                    }
                }
                BinOp::Or => {
                    if l == r {
                        return Some(l);
                    }
                    if r.is_zero_int() {
                        return Some(l);
                    }
                    if l.is_zero_int() {
                        return Some(r);
                    }
                }
                BinOp::Xor => {
                    if l == r {
                        return Some(Value::ConstInt(0, ty));
                    }
                    if r.is_zero_int() {
                        return Some(l);
                    }
                    if l.is_zero_int() {
                        return Some(r);
                    }
                }
                BinOp::Shl | BinOp::AShr | BinOp::LShr => {
                    if r.is_zero_int() {
                        return Some(l);
                    }
                    if l.is_zero_int() {
                        return Some(Value::ConstInt(0, ty));
                    }
                }
                BinOp::FAdd | BinOp::FSub => {
                    // `x + 0.0` is only an identity when x is not -0.0; we
                    // accept the usual fast-math-free LLVM rule: x + (-0.0)
                    // and x - 0.0 are identities.
                    if *op == BinOp::FSub && r == Value::f64(0.0) && ty == Type::F64 {
                        return Some(l);
                    }
                }
                BinOp::FMul | BinOp::FDiv | BinOp::FRem => {
                    if *op == BinOp::FMul && r == Value::f64(1.0) && ty == Type::F64 {
                        return Some(l);
                    }
                    if *op == BinOp::FDiv && r == Value::f64(1.0) && ty == Type::F64 {
                        return Some(l);
                    }
                }
            }
            None
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            if lhs == rhs && !f.value_type(*lhs).is_float() {
                use mlcomp_ir::CmpPred::*;
                return Some(Value::bool(matches!(pred, Eq | Le | Ge)));
            }
            None
        }
        InstKind::Select {
            then_val, else_val, ..
        } => {
            if then_val == else_val {
                return Some(*then_val);
            }
            None
        }
        InstKind::Gep { base, offset } => {
            if offset.is_zero_int() {
                return Some(*base);
            }
            None
        }
        InstKind::Phi { incomings } => {
            // Phi whose incomings are all the same value folds to it.
            let mut unique: Option<Value> = None;
            for (_, v) in incomings {
                if unique.is_none() {
                    unique = Some(*v);
                } else if unique != Some(*v) {
                    return None;
                }
            }
            unique
        }
        InstKind::Expect { val, .. } => {
            if val.is_const() {
                return Some(*val);
            }
            None
        }
        _ => None,
    }
}

/// Runs `step` on `f` with fresh analyses `A` of it until a step reports
/// no rewrite, and returns whether any step rewrote `f`.
///
/// This is the one place a phase re-analyses after rewriting: a step makes
/// the rewrites its analyses still describe and returns `true` to have
/// them rebuilt before the next step. Until the first write the analyses
/// come from `f`'s cache entry.
pub(crate) fn until_stable<'a, A: Fetch<'a>>(
    f: &mut Body<'a>,
    mut step: impl FnMut(&mut Body<'a>, &A) -> bool,
) -> bool {
    let mut changed = false;
    loop {
        let analyses = f.analyse::<A>();
        if !step(f, &analyses) {
            return changed;
        }
        changed = true;
    }
}

/// Removes instructions that are pure (or unused loads when
/// `remove_loads`), have no uses, and are not phis-with-uses. Iterates to a
/// fixed point. Returns `true` if anything was removed.
///
/// One [`DefUse`] seeds a use count per instruction; deleting an
/// instruction decrements its operands' counts and queues those that reach
/// zero. Removal only edits block lists, so the fixed point, and thus the
/// result, does not depend on the order of deletion.
pub fn trivial_dce(m: &Module, f: &mut Body, remove_loads: bool) -> bool {
    let du = f.analyse::<Cow<DefUse>>();
    let removable = |kind: &InstKind| {
        kind.is_pure()
            || kind.is_phi()
            || matches!(kind, InstKind::Alloca { .. })
            || (remove_loads && matches!(kind, InstKind::Load { .. }))
            || matches!(kind, InstKind::Call { callee, .. } if !call_may_touch_memory(m, callee))
    };
    let mut uses: Vec<usize> = (0..f.insts.len() as u32)
        .map(|i| du.use_count(InstId(i)))
        .collect();
    let mut work: Vec<InstId> = (0..f.insts.len() as u32)
        .map(InstId)
        .filter(|&id| {
            uses[id.index()] == 0 && du.block_of(id).is_some() && removable(&f.inst(id).kind)
        })
        .collect();
    let changed = !work.is_empty();
    while let Some(id) = work.pop() {
        let block = du.block_of(id).expect("queued instructions are placed");
        f.remove_from_block(block, id);
        f.inst(id).kind.for_each_operand(|v| {
            if let Value::Inst(d) = v {
                let n = &mut uses[d.index()];
                *n -= 1;
                if *n == 0 && du.block_of(d).is_some() && removable(&f.inst(d).kind) {
                    work.push(d);
                }
            }
        });
    }
    changed
}

/// Deletes blocks unreachable from the entry, fixing phis in surviving
/// blocks. Returns `true` if anything was deleted.
pub fn remove_unreachable_blocks(f: &mut Body) -> bool {
    let cfg = f.analyse::<Cow<Cfg>>();
    let dead: Vec<BlockId> = f
        .block_ids()
        .filter(|b| !cfg.reachable[b.index()])
        .collect();
    if dead.is_empty() {
        return false;
    }
    // Remove phi edges from dead preds in surviving blocks.
    let live: Vec<BlockId> = f.block_ids().filter(|b| cfg.reachable[b.index()]).collect();
    for &b in &live {
        for &d in &dead {
            f.remove_phi_edges(b, d);
        }
    }
    for d in dead {
        f.delete_block(d);
    }
    true
}

/// The allocation a pointer value is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRoot {
    /// A specific alloca instruction.
    Alloca(InstId),
    /// A specific global.
    Global(mlcomp_ir::GlobalId),
    /// Unknown provenance (loaded pointer, parameter, arithmetic).
    Unknown,
}

/// Walks gep chains to the root object of a pointer value.
pub fn mem_root(f: &Function, mut ptr: Value) -> MemRoot {
    loop {
        match ptr {
            Value::Global(g) => return MemRoot::Global(g),
            Value::Inst(id) => match &f.inst(id).kind {
                InstKind::Alloca { .. } => return MemRoot::Alloca(id),
                InstKind::Gep { base, .. } => ptr = *base,
                _ => return MemRoot::Unknown,
            },
            _ => return MemRoot::Unknown,
        }
    }
}

/// May two pointers alias? Distinct allocas never alias; an alloca never
/// aliases a global; distinct globals never alias. Anything involving
/// [`MemRoot::Unknown`] may alias everything.
pub fn may_alias(a: MemRoot, b: MemRoot) -> bool {
    match (a, b) {
        (MemRoot::Unknown, _) | (_, MemRoot::Unknown) => true,
        (x, y) => x == y,
    }
}

/// Whether a call to `callee` may read or write memory: anything but a
/// direct call to a `readnone` function (inferred by the `prune-eh`
/// substitute). An unused call that touches no memory can be deleted.
pub fn call_may_touch_memory(m: &Module, callee: &Callee) -> bool {
    match callee {
        Callee::Direct(c) => !m
            .functions
            .get(c.index())
            .is_some_and(|cf| cf.attrs.readnone),
        Callee::Indirect(_) => true,
    }
}

/// Whether an instruction may write memory: a store, memset or memcpy, or
/// a call that may touch memory.
pub fn may_write_memory(m: &Module, kind: &InstKind) -> bool {
    match kind {
        InstKind::Call { callee, .. } => call_may_touch_memory(m, callee),
        kind => kind.write_ptr().is_some(),
    }
}

/// Whether an alloca's address escapes: it is stored as a *value*, passed
/// to a call, returned, or used by pointer arithmetic whose result escapes.
/// Non-escaping allocas can be reasoned about precisely.
pub fn alloca_escapes(f: &Function, alloca: InstId) -> bool {
    // Transitively collect values derived from the alloca (gep chains).
    let mut derived: HashSet<Value> = HashSet::new();
    derived.insert(Value::Inst(alloca));
    loop {
        let mut grew = false;
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let InstKind::Gep { base, .. } = &f.inst(id).kind {
                    if derived.contains(base) && derived.insert(Value::Inst(id)) {
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            let kind = &f.inst(id).kind;
            match kind {
                InstKind::Store { value, .. } => {
                    if derived.contains(value) {
                        return true; // address stored to memory
                    }
                }
                // Deriving an address or accessing memory through it does
                // not escape it.
                InstKind::Load { .. }
                | InstKind::Gep { .. }
                | InstKind::Memset { .. }
                | InstKind::Memcpy { .. } => {}
                InstKind::Call { args, callee } => {
                    if let Callee::Indirect(v) = callee {
                        if derived.contains(v) {
                            return true;
                        }
                    }
                    if args.iter().any(|a| derived.contains(a)) {
                        return true;
                    }
                }
                _ => {
                    let mut esc = false;
                    kind.for_each_operand(|v| {
                        if derived.contains(&v)
                            && !matches!(kind, InstKind::Load { .. } | InstKind::Gep { .. })
                        {
                            // Pointer used in arithmetic/compare — compares
                            // do not escape, casts do (we lose tracking).
                            if matches!(kind, InstKind::Cmp { .. }) {
                                return;
                            }
                            esc = true;
                        }
                    });
                    if esc {
                        return true;
                    }
                }
            }
        }
        let mut esc = false;
        f.block(b).term.for_each_operand(|v| {
            if derived.contains(&v) {
                esc = true; // returned or switched on
            }
        });
        if esc {
            return true;
        }
    }
    false
}

/// [`alloca_escapes`] for every alloca of `f` at once, in one pass: entry
/// `a` of the result, indexed by arena id, tells whether alloca `a`
/// escapes (entries of other instructions are `false`).
///
/// A value is derived from alloca `a` when [`mem_root`] reaches `a`
/// through geps. In a verified function that is the set `alloca_escapes`
/// grows, since every operand of a placed instruction is placed, so each
/// use that lets a derived value escape marks its root.
pub(crate) fn escaping_allocas(f: &Function) -> Vec<bool> {
    let mut escapes = vec![false; f.insts.len()];
    let mut mark = |v: Value| {
        if let MemRoot::Alloca(a) = mem_root(f, v) {
            escapes[a.index()] = true;
        }
    };
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            let kind = &f.inst(id).kind;
            match kind {
                // Stored as a value: the address reaches memory.
                InstKind::Store { value, .. } => mark(*value),
                // Deriving an address or accessing memory through it does
                // not escape it, nor does comparing it.
                InstKind::Load { .. }
                | InstKind::Gep { .. }
                | InstKind::Memset { .. }
                | InstKind::Memcpy { .. }
                | InstKind::Cmp { .. } => {}
                InstKind::Call { args, callee } => {
                    if let Callee::Indirect(v) = callee {
                        mark(*v);
                    }
                    args.iter().for_each(|&a| mark(a));
                }
                _ => kind.for_each_operand(&mut mark),
            }
        }
        f.block(b).term.for_each_operand(&mut mark);
    }
    escapes
}

/// A set of blocks of a function, numbered once so that it can be cloned
/// any number of times: each clone's blocks and instructions are appended
/// to the arenas in region order, so a clone's map is two offsets.
pub struct Region {
    /// The blocks, in clone order.
    blocks: Vec<BlockId>,
    /// Per block of the function, its index in `blocks`, or `u32::MAX`.
    block_slot: Vec<u32>,
    /// Per instruction of the arena, its index among the region's placed
    /// instructions in clone order, or `u32::MAX`.
    inst_slot: Vec<u32>,
}

/// Where one clone of a [`Region`] starts in the block and instruction
/// arenas.
#[derive(Debug, Clone, Copy)]
pub struct RegionCopy {
    first_block: u32,
    first_inst: u32,
}

impl Region {
    /// Numbers `blocks` of `f` and their instructions.
    pub fn new(f: &Function, blocks: &[BlockId]) -> Region {
        let mut block_slot = vec![u32::MAX; f.blocks.len()];
        let mut inst_slot = vec![u32::MAX; f.insts.len()];
        let mut next = 0;
        for (i, &b) in blocks.iter().enumerate() {
            block_slot[b.index()] = i as u32;
            for &id in &f.block(b).insts {
                inst_slot[id.index()] = next;
                next += 1;
            }
        }
        Region {
            blocks: blocks.to_vec(),
            block_slot,
            inst_slot,
        }
    }

    /// The clone of `b` in `copy`, when `b` is in the region.
    pub fn block(&self, copy: RegionCopy, b: BlockId) -> Option<BlockId> {
        let slot = *self.block_slot.get(b.index())?;
        (slot != u32::MAX).then(|| BlockId(copy.first_block + slot))
    }

    /// The clone of `id` in `copy`, when `id` is placed in the region.
    pub fn inst(&self, copy: RegionCopy, id: InstId) -> Option<InstId> {
        let slot = *self.inst_slot.get(id.index())?;
        (slot != u32::MAX).then(|| InstId(copy.first_inst + slot))
    }

    /// Clones the region inside `f`, remapping internal branch targets,
    /// phi predecessors and instruction references. Values defined outside
    /// the region are left untouched; phi edges from outside the region
    /// are preserved as-is (callers fix them up).
    pub fn clone_into(&self, f: &mut Function) -> RegionCopy {
        let copy = RegionCopy {
            first_block: f.blocks.len() as u32,
            first_inst: f.insts.len() as u32,
        };
        for _ in &self.blocks {
            f.add_block();
        }
        let remap = |v: Value| match v {
            Value::Inst(id) => self.inst(copy, id).map_or(v, Value::Inst),
            _ => v,
        };
        for (i, &b) in self.blocks.iter().enumerate() {
            let nb = BlockId(copy.first_block + i as u32);
            let count = f.block(b).insts.len();
            let mut insts = Vec::with_capacity(count);
            for k in 0..count {
                let mut inst = f.inst(f.block(b).insts[k]).clone();
                inst.kind.map_operands(remap);
                if let InstKind::Phi { incomings } = &mut inst.kind {
                    for (pb, _) in incomings.iter_mut() {
                        *pb = self.block(copy, *pb).unwrap_or(*pb);
                    }
                }
                insts.push(f.add_inst(inst));
            }
            let mut term = f.block(b).term.clone();
            term.map_targets(|t| self.block(copy, t).unwrap_or(t));
            term.map_operands(remap);
            let block = f.block_mut(nb);
            block.insts = insts;
            block.term = term;
        }
        copy
    }
}

/// Clones a set of blocks inside `f` once (see [`Region::clone_into`]).
/// Returns the region's numbering and where its clone starts.
pub fn clone_region(f: &mut Function, blocks: &[BlockId]) -> (Region, RegionCopy) {
    let region = Region::new(f, blocks);
    let copy = region.clone_into(f);
    (region, copy)
}

/// Splits `block` right after position `pos` (the instruction at `pos`
/// stays in the original block). The new block receives the remaining
/// instructions and the old terminator; the original block ends with a
/// branch to the new block. Phi predecessors in successors are renamed.
pub fn split_block_after(f: &mut Function, block: BlockId, pos: usize) -> BlockId {
    let new_bb = f.add_block();
    let tail: Vec<InstId> = f.block_mut(block).insts.split_off(pos + 1);
    let old_term = std::mem::replace(&mut f.block_mut(block).term, Terminator::Br(new_bb));
    for s in old_term.successors() {
        f.rename_phi_pred(s, block, new_bb);
    }
    f.block_mut(new_bb).insts = tail;
    f.block_mut(new_bb).term = old_term;
    new_bb
}

/// Inserts a preheader for a loop whose header currently has multiple
/// outside predecessors (or an outside predecessor with several
/// successors). All outside edges are retargeted to a fresh block that
/// branches to the header; header phis are split accordingly.
pub fn ensure_preheader(f: &mut Function, header: BlockId, loop_blocks: &[BlockId]) -> BlockId {
    let cfg = Cfg::new(f);
    let outside: Vec<BlockId> = cfg.preds[header.index()]
        .iter()
        .copied()
        .filter(|p| !loop_blocks.contains(p))
        .collect();
    if outside.len() == 1 && cfg.succs[outside[0].index()].len() == 1 {
        return outside[0];
    }
    let pre = f.add_block();
    f.block_mut(pre).term = Terminator::Br(header);
    // Retarget outside edges.
    for &p in &outside {
        let mut term = f.block(p).term.clone();
        term.map_targets(|t| if t == header { pre } else { t });
        f.block_mut(p).term = term;
    }
    // Split header phis: the pre-incoming is a new phi in the preheader.
    let header_insts = f.block(header).insts.clone();
    for id in header_insts {
        let (ty, incomings) = match &f.inst(id).kind {
            InstKind::Phi { incomings } => (f.inst(id).ty, incomings.clone()),
            _ => break,
        };
        let (out_inc, in_inc): (Vec<_>, Vec<_>) = incomings
            .into_iter()
            .partition(|(b, _)| outside.contains(b));
        let pre_val = if out_inc.len() == 1 {
            out_inc[0].1
        } else {
            let phi = f.add_inst(Inst::new(
                InstKind::Phi {
                    incomings: out_inc.clone(),
                },
                ty,
            ));
            f.block_mut(pre).insts.insert(0, phi);
            Value::Inst(phi)
        };
        let mut new_inc = in_inc;
        new_inc.push((pre, pre_val));
        f.inst_mut(id).kind = InstKind::Phi { incomings: new_inc };
    }
    pre
}

/// Instruction results a phase replaces during one sweep over a function,
/// rewritten into their uses in one pass at the end of the sweep.
///
/// [`Replacements::apply`] leaves the function that replacing each value
/// in turn with [`Function::replace_all_uses`] and unplacing it would
/// leave. A use follows its chain of replacements to the end, as long as
/// each link was recorded after the one before it: a value that replaces
/// another after being replaced itself was already gone from the uses
/// when it arrived. A replaced instruction's arena slot keeps the operands
/// it had when it was replaced, which are those the replacements recorded
/// up to and including its own rewrite. Until the sweep applies, it reads
/// operands through [`Replacements::resolve`].
#[derive(Debug)]
pub(crate) struct Replacements {
    /// Per instruction, the value replacing it and its position in
    /// `order`; empty until the first record, as most sweeps record none.
    by: Vec<Option<(Value, usize)>>,
    /// The size of the instruction arena.
    arena: usize,
    /// Replaced instructions, in the order they were recorded.
    order: Vec<InstId>,
    /// How many of `order` the last [`Replacements::apply`] saw.
    applied: usize,
}

impl Replacements {
    /// No replacements yet, for the instruction arena of `f`.
    pub(crate) fn new(f: &Function) -> Replacements {
        Replacements {
            by: Vec::new(),
            arena: f.insts.len(),
            order: Vec::new(),
            applied: 0,
        }
    }

    /// Whether `id` has been replaced.
    pub(crate) fn is_replaced(&self, id: InstId) -> bool {
        self.by.get(id.index()).is_some_and(Option::is_some)
    }

    /// `v` after the replacements recorded so far: what a use of `v`
    /// becomes when each is applied in turn.
    pub(crate) fn resolve(&self, v: Value) -> Value {
        self.resolve_through(v, usize::MAX)
    }

    /// `v` after the first `seen` replacements recorded, plus one, each
    /// applied in turn: every link of the chain is recorded after the one
    /// before it.
    fn resolve_through(&self, mut v: Value, seen: usize) -> Value {
        let mut last = None;
        while let Value::Inst(id) = v {
            match self.by.get(id.index()).copied().flatten() {
                Some((next, at)) if at <= seen && last.is_none_or(|l| at > l) => {
                    v = next;
                    last = Some(at);
                }
                _ => break,
            }
        }
        v
    }

    /// Whether an operand of `kind` is the result of a replaced
    /// instruction.
    pub(crate) fn touches(&self, kind: &InstKind) -> bool {
        if self.order.is_empty() {
            return false;
        }
        let mut hit = false;
        kind.for_each_operand(|v| hit |= self.replaces(v));
        hit
    }

    /// Whether `v` is the result of a replaced instruction.
    fn replaces(&self, v: Value) -> bool {
        matches!(v, Value::Inst(id) if self.is_replaced(id))
    }

    /// Records that `v` replaces `id`. Unless the caller has unplaced
    /// `id`, the next [`Replacements::apply`] does. A `v` read from an
    /// operand is passed through [`Replacements::resolve`] first, as a
    /// placed operand would already have been rewritten.
    pub(crate) fn record(&mut self, id: InstId, v: Value) {
        debug_assert!(!self.is_replaced(id), "{id:?} is replaced twice");
        if self.by.is_empty() {
            self.by = vec![None; self.arena];
        }
        self.by[id.index()] = Some((v, self.order.len()));
        self.order.push(id);
    }

    /// Gives each instruction replaced since the last call the operands it
    /// had when it was replaced, unplaces it, then rewrites every use in
    /// the placed instructions and terminators in one pass. Returns
    /// whether anything was recorded since the last call.
    pub(crate) fn apply(&mut self, f: &mut Body) -> bool {
        if self.applied == self.order.len() {
            return false;
        }
        for (at, &id) in self.order.iter().enumerate().skip(self.applied) {
            if self.touches(&f.inst(id).kind) {
                f.inst_mut(id)
                    .kind
                    .map_operands(|v| self.resolve_through(v, at));
            }
        }
        self.applied = self.order.len();
        for block in f.blocks.iter_mut().filter(|b| !b.deleted) {
            block.insts.retain(|&id| !self.is_replaced(id));
        }
        f.map_uses(|v| self.resolve(v));
        true
    }

    /// Rewrites the uses of replaced values in the placed instructions and
    /// terminators, leaving every instruction placed, and returns whether
    /// any use was rewritten. Writes `f` only if one is.
    pub(crate) fn rewrite_uses(&self, f: &mut Body) -> bool {
        let uses = |b: BlockId| {
            let block = f.block(b);
            let mut hit = block.insts.iter().any(|&id| self.touches(&f.inst(id).kind));
            block.term.for_each_operand(|v| hit |= self.replaces(v));
            hit
        };
        let hit = !self.order.is_empty() && f.block_ids().any(uses);
        if hit {
            f.map_uses(|v| self.resolve(v));
        }
        hit
    }
}

/// Estimated static "size" of a function in abstract instruction units,
/// used by inlining and unrolling thresholds.
pub fn function_size(f: &Function) -> usize {
    f.live_inst_count() + f.live_block_count()
}

/// Returns every `(block, inst)` in a function, in layout order.
pub fn all_insts(f: &Function) -> Vec<(BlockId, InstId)> {
    let mut v = Vec::with_capacity(f.live_inst_count());
    for b in f.block_ids() {
        for &id in &f.block(b).insts {
            v.push((b, id));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{CmpPred, ModuleBuilder};

    #[test]
    fn only_direct_calls_to_readnone_functions_leave_memory_alone() {
        let mut mb = ModuleBuilder::new("t");
        let pure_fn = mb.declare("pure", vec![], Type::I64);
        mb.set_attrs(pure_fn, |a| a.readnone = true);
        let io_fn = mb.declare("io", vec![], Type::I64);
        let m = mb.build();
        let past_end = mlcomp_ir::FuncId(m.functions.len() as u32);
        for (callee, touches) in [
            (Callee::Direct(pure_fn), false),
            (Callee::Direct(io_fn), true),
            (Callee::Indirect(Value::FuncAddr(pure_fn)), true),
            (Callee::Direct(past_end), true),
        ] {
            assert_eq!(call_may_touch_memory(&m, &callee), touches, "{callee:?}");
            let call = InstKind::Call {
                callee,
                args: Vec::new(),
            };
            assert_eq!(may_write_memory(&m, &call), touches, "{callee:?}");
        }
        let load = InstKind::Load {
            ptr: Value::Param(0),
            aligned: true,
            width: 1,
        };
        assert!(!may_write_memory(&m, &load));
        let store = InstKind::Store {
            ptr: Value::Param(0),
            value: Value::i64(1),
            aligned: true,
            width: 1,
        };
        assert!(may_write_memory(&m, &store));
    }

    #[test]
    fn folds_int_arith() {
        let kind = InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::i64(40),
            rhs: Value::i64(2),
            width: 1,
        };
        assert_eq!(fold_constant(&kind, Type::I64), Some(Value::i64(42)));
        let div0 = InstKind::Bin {
            op: BinOp::SDiv,
            lhs: Value::i64(1),
            rhs: Value::i64(0),
            width: 1,
        };
        assert_eq!(fold_constant(&div0, Type::I64), None);
    }

    #[test]
    fn folds_i32_wrapping() {
        let kind = InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::i32(i32::MAX),
            rhs: Value::i32(1),
            width: 1,
        };
        assert_eq!(fold_constant(&kind, Type::I32), Some(Value::i32(i32::MIN)));
    }

    #[test]
    fn folds_cmp_and_select() {
        let c = InstKind::Cmp {
            pred: CmpPred::Lt,
            lhs: Value::i64(1),
            rhs: Value::i64(2),
        };
        assert_eq!(fold_constant(&c, Type::I1), Some(Value::bool(true)));
        let s = InstKind::Select {
            cond: Value::bool(false),
            then_val: Value::i64(1),
            else_val: Value::i64(2),
        };
        assert_eq!(fold_constant(&s, Type::I64), Some(Value::i64(2)));
    }

    #[test]
    fn simplifies_identities() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        let m = {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(0));
            b.ret(Some(v));
            mb.finish_function();
            mb.build()
        };
        let f = &m.functions[0];
        let id = InstId(0);
        let got = simplify_inst(f, &f.inst(id).kind, f.inst(id).ty);
        assert_eq!(got, Some(Value::Param(0)));
    }

    #[test]
    fn dce_removes_dead_chain() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let dead1 = b.add(b.param(0), b.const_i64(1));
            let _dead2 = b.mul(dead1, dead1);
            b.ret(Some(b.param(0)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mut f = m.functions.remove(0);
        assert!(trivial_dce(&m, &mut Body::from(&mut f), false));
        assert_eq!(f.live_inst_count(), 0);
    }

    #[test]
    fn dce_keeps_a_self_referencing_loop_phi() {
        // entry: br header; header: p = phi [entry: 0, header: p];
        // cond_br (x < 0) header, exit; exit: ret 0. The phi's only use
        // is itself, so it is not unused and stays.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        let (header, phi);
        {
            let mut b = mb.body();
            header = b.new_block();
            let exit = b.new_block();
            b.br(header);
            b.switch_to(header);
            let p = b.phi(Type::I64, vec![(BlockId::ENTRY, b.const_i64(0))]);
            phi = p.as_inst().unwrap();
            let c = b.cmp(CmpPred::Lt, b.param(0), b.const_i64(0));
            b.cond_br(c, header, exit);
            b.switch_to(exit);
            b.ret(Some(b.const_i64(0)));
        }
        mb.finish_function();
        let mut m = mb.build();
        if let InstKind::Phi { incomings } = &mut m.functions[0].inst_mut(phi).kind {
            incomings.push((header, Value::Inst(phi)));
        }
        mlcomp_ir::verify(&m).unwrap();
        let mut f = m.functions[0].clone();
        assert!(!trivial_dce(&m, &mut Body::from(&mut f), true));
        assert_eq!(f, m.functions[0]);
        assert_eq!(f.block(header).insts[0], phi);
    }

    #[test]
    fn unreachable_block_removal_fixes_phis() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let next = b.new_block();
            b.br(next);
            b.switch_to(next);
            let p = b.phi(Type::I64, vec![(BlockId::ENTRY, Value::i64(1))]);
            b.ret(Some(p));
            // Dead block that also branches to `next` (stale edge).
            let f = b.func();
            let dead = f.add_block();
            f.block_mut(dead).term = Terminator::Br(next);
            if let InstKind::Phi { incomings } = &mut f.inst_mut(InstId(0)).kind {
                incomings.push((dead, Value::i64(2)));
            }
        }
        mb.finish_function();
        let mut m = mb.build();
        assert!(remove_unreachable_blocks(&mut Body::from(
            &mut m.functions[0]
        )));
        mlcomp_ir::verify(&m).expect("clean after removal");
    }

    #[test]
    fn escape_analysis() {
        let mut mb = ModuleBuilder::new("t");
        let callee = mb.declare("sink", vec![Type::Ptr], Type::Void);
        mb.begin_existing(callee);
        mb.body().ret(None);
        mb.finish_function();
        mb.begin_function("f", vec![], Type::I64);
        let (safe_id, escaped_id);
        {
            let mut b = mb.body();
            let safe = b.alloca(1);
            b.store(safe, b.const_i64(1));
            let esc = b.alloca(1);
            b.call(callee, vec![esc], Type::Void);
            safe_id = safe.as_inst().unwrap();
            escaped_id = esc.as_inst().unwrap();
            let v = b.load(safe, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        let main = &m.functions[1];
        assert!(!alloca_escapes(main, safe_id));
        assert!(alloca_escapes(main, escaped_id));
    }

    #[test]
    fn mem_roots() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 4);
        mb.begin_function("f", vec![Type::Ptr], Type::Void);
        let (a_id, ga, unk);
        {
            let mut b = mb.body();
            let a = b.alloca(2);
            let a2 = b.gep(a, b.const_i64(1));
            a_id = a.as_inst().unwrap();
            ga = b.gep(b.global_addr(g), b.const_i64(2));
            unk = b.gep(b.param(0), b.const_i64(0));
            b.store(a2, b.const_i64(0));
            b.ret(None);
        }
        mb.finish_function();
        let m = mb.build();
        let f = &m.functions[0];
        assert_eq!(mem_root(f, ga), MemRoot::Global(g));
        assert_eq!(mem_root(f, unk), MemRoot::Unknown);
        assert!(may_alias(MemRoot::Unknown, MemRoot::Alloca(a_id)));
        assert!(!may_alias(MemRoot::Alloca(a_id), MemRoot::Global(g)));
    }

    #[test]
    fn region_cloning_is_self_contained() {
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
        let mut m = mb.build();
        let f = &mut m.functions[0];
        let before_blocks = f.live_block_count();
        let region: Vec<BlockId> = f.block_ids().collect();
        let (numbered, copy) = clone_region(f, &region);
        let clones: Vec<_> = region.iter().map(|&b| numbered.block(copy, b)).collect();
        assert!(clones
            .iter()
            .all(|c| c.is_some_and(|c| !region.contains(&c))));
        assert_eq!(f.live_block_count(), before_blocks * 2);
    }

    #[test]
    fn block_splitting() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let x = b.add(b.param(0), b.const_i64(1));
            let y = b.mul(x, x);
            b.ret(Some(y));
        }
        mb.finish_function();
        let mut m = mb.build();
        let f = &mut m.functions[0];
        let nb = split_block_after(f, BlockId::ENTRY, 0);
        assert_eq!(f.block(BlockId::ENTRY).insts.len(), 1);
        assert_eq!(f.block(nb).insts.len(), 1);
        mlcomp_ir::verify(&m).expect("split is valid");
    }

    /// The largest state the oracles check: debug builds stop at 1,600
    /// instructions, as the memory CSE oracle does, to bound the walks'
    /// cost; release builds check every state.
    const ORACLE_MAX_INSTS: usize = if cfg!(debug_assertions) {
        1_600
    } else {
        usize::MAX
    };

    /// Asserts that every function of `state` gets the oracle's def-use
    /// chains (use order included) for every arena id and one past the
    /// end, and the oracle's `trivial_dce` result, arena included.
    fn assert_matches_oracles(state: &Module, label: &str) {
        for f in &state.functions {
            let du = DefUse::new(f);
            let old = oracle::DefUse::new(f);
            for i in 0..=f.insts.len() as u32 {
                let id = InstId(i);
                assert_eq!(du.uses_of(id), old.uses_of(id), "{label}: uses of {id:?}");
                assert_eq!(du.block_of(id), old.block_of(id), "{label}: {id:?}");
            }
            for remove_loads in [false, true] {
                let context = format!("{label}: `{}`, remove_loads {remove_loads}", f.name);
                let (mut new, mut old) = (f.clone(), f.clone());
                assert_eq!(
                    trivial_dce(state, &mut Body::from(&mut new), remove_loads),
                    oracle::trivial_dce(state, &mut old, remove_loads),
                    "{context}"
                );
                assert!(new == old, "{context}: functions differ");
            }
        }
    }

    #[test]
    fn defuse_and_trivial_dce_match_the_oracles_on_the_suites() {
        let checked =
            crate::suite_states::for_each_suite_state(ORACLE_MAX_INSTS, assert_matches_oracles);
        assert!(checked >= 300, "only {checked} states checked");
    }

    /// Asserts that every function of `state` gets the oracles' loops, in
    /// the same order and with each body equal to the oracle's set sorted,
    /// and the oracle's dominance frontiers, each sorted.
    fn assert_loops_match_oracles(state: &Module, label: &str) {
        use mlcomp_ir::analysis::{DomTree, LoopForest};
        for f in &state.functions {
            let context = format!("{label}: `{}`", f.name);
            let cfg = Cfg::new(f);
            let dt = DomTree::new(&cfg);
            let forest = LoopForest::new(&cfg, &dt);
            let old = oracle::loop_forest(&cfg, &dt);
            assert_eq!(forest.loops.len(), old.len(), "{context}: loop count");
            for (l, o) in forest.loops.iter().zip(&old) {
                let mut blocks: Vec<BlockId> = o.blocks.iter().copied().collect();
                blocks.sort_unstable();
                assert_eq!(l.blocks, blocks, "{context}: body of {:?}", o.header);
                assert_eq!(
                    (l.header, &l.latches, &l.exiting, &l.exits),
                    (o.header, &o.latches, &o.exiting, &o.exits),
                    "{context}"
                );
                assert_eq!(
                    (l.preheader, l.depth, l.parent),
                    (o.preheader, o.depth, o.parent),
                    "{context}: loop at {:?}",
                    o.header
                );
            }
            let df = dt.dominance_frontiers(&cfg);
            let old = oracle::dominance_frontiers(&dt, &cfg);
            assert_eq!(df.len(), old.len(), "{context}");
            for (b, (new, old)) in df.iter().zip(&old).enumerate() {
                let mut old: Vec<BlockId> = old.iter().copied().collect();
                old.sort_unstable();
                assert_eq!(*new, old, "{context}: frontier of block {b}");
            }
        }
    }

    #[test]
    fn loop_forest_and_frontiers_match_the_oracles_on_the_suites() {
        let checked =
            crate::suite_states::for_each_suite_state(ORACLE_MAX_INSTS, assert_loops_match_oracles);
        assert!(checked >= 300, "only {checked} states checked");
    }

    /// Asserts that `DomTree::dominates` and `children` agree with the idom
    /// walk on every pair of blocks of every function of `state`, deleted
    /// and unreachable blocks included.
    fn assert_dominance_matches_oracle(state: &Module, label: &str) {
        use mlcomp_ir::analysis::DomTree;
        for f in &state.functions {
            let dt = DomTree::new(&Cfg::new(f));
            let blocks = (0..f.blocks.len() as u32).map(BlockId);
            for a in blocks.clone() {
                for b in blocks.clone() {
                    assert_eq!(
                        dt.dominates(a, b),
                        oracle::dominates(&dt, a, b),
                        "{label}: `{}`: does {a:?} dominate {b:?}",
                        f.name
                    );
                }
            }
            assert_eq!(
                dt.children(),
                oracle::children(&dt),
                "{label}: `{}`",
                f.name
            );
        }
    }

    /// Asserts that `escaping_allocas` agrees with `alloca_escapes` on
    /// every placed alloca of every function of `state`.
    fn assert_escapes_match_oracle(state: &Module, label: &str) {
        for f in &state.functions {
            let escapes = escaping_allocas(f);
            for (_, id) in all_insts(f) {
                if matches!(f.inst(id).kind, InstKind::Alloca { .. }) {
                    assert_eq!(
                        escapes[id.index()],
                        alloca_escapes(f, id),
                        "{label}: `{}`: does {id:?} escape",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn escaping_allocas_match_the_per_alloca_scan_on_the_suites() {
        let checked = crate::suite_states::for_each_suite_state(
            ORACLE_MAX_INSTS,
            assert_escapes_match_oracle,
        );
        assert!(checked >= 300, "only {checked} states checked");
    }

    #[test]
    fn dominance_matches_the_idom_walk_on_the_suites() {
        let checked = crate::suite_states::for_each_suite_state(
            ORACLE_MAX_INSTS,
            assert_dominance_matches_oracle,
        );
        assert!(checked >= 300, "only {checked} states checked");
    }

    /// Dominance as it was answered before the tree was numbered: a walk
    /// up the idom chain per query, and one `Vec` of children per block.
    ///
    /// Def-use chains and trivial DCE as they were before the dense
    /// rewrite, kept as differential oracles: one hash-map entry and one
    /// `Vec` per used instruction, and a DCE that rebuilds the chains and
    /// sweeps every block until a sweep removes nothing.
    ///
    /// The loop forest and dominance frontiers as they were before loop
    /// bodies and frontiers became sorted vectors: one `HashSet` per loop
    /// body and per frontier.
    mod oracle {
        use super::super::call_may_touch_memory;
        use mlcomp_ir::analysis::{Cfg, DomTree, UseSite};
        use mlcomp_ir::{BlockId, Function, InstId, InstKind, Module, Value};
        use std::collections::{HashMap, HashSet};

        #[derive(Default)]
        pub(super) struct DefUse {
            uses: HashMap<InstId, Vec<UseSite>>,
            placement: HashMap<InstId, BlockId>,
        }

        impl DefUse {
            pub(super) fn new(f: &Function) -> DefUse {
                let mut du = DefUse::default();
                for b in f.block_ids() {
                    for &id in &f.block(b).insts {
                        du.placement.insert(id, b);
                        f.inst(id).kind.for_each_operand(|v| {
                            if let Value::Inst(d) = v {
                                du.uses.entry(d).or_default().push(UseSite::Inst(b, id));
                            }
                        });
                    }
                    f.block(b).term.for_each_operand(|v| {
                        if let Value::Inst(d) = v {
                            du.uses.entry(d).or_default().push(UseSite::Term(b));
                        }
                    });
                }
                du
            }

            pub(super) fn uses_of(&self, id: InstId) -> &[UseSite] {
                self.uses.get(&id).map(Vec::as_slice).unwrap_or(&[])
            }

            pub(super) fn block_of(&self, id: InstId) -> Option<BlockId> {
                self.placement.get(&id).copied()
            }
        }

        pub(super) fn trivial_dce(m: &Module, f: &mut Function, remove_loads: bool) -> bool {
            let mut changed = false;
            loop {
                let du = DefUse::new(f);
                let mut removed_any = false;
                for b in f.block_ids().collect::<Vec<_>>() {
                    let ids = f.block(b).insts.clone();
                    for id in ids {
                        if !du.uses_of(id).is_empty() {
                            continue;
                        }
                        let kind = &f.inst(id).kind;
                        let removable = kind.is_pure()
                            || kind.is_phi()
                            || matches!(kind, InstKind::Alloca { .. })
                            || (remove_loads && matches!(kind, InstKind::Load { .. }))
                            || matches!(kind, InstKind::Call { callee, .. }
                                if !call_may_touch_memory(m, callee));
                        if removable {
                            f.remove_from_block(b, id);
                            removed_any = true;
                            changed = true;
                        }
                    }
                }
                if !removed_any {
                    return changed;
                }
            }
        }

        pub(super) struct Loop {
            pub(super) header: BlockId,
            pub(super) latches: Vec<BlockId>,
            pub(super) blocks: HashSet<BlockId>,
            pub(super) exiting: Vec<BlockId>,
            pub(super) exits: Vec<BlockId>,
            pub(super) preheader: Option<BlockId>,
            pub(super) depth: u32,
            pub(super) parent: Option<usize>,
        }

        pub(super) fn loop_forest(cfg: &Cfg, dt: &DomTree) -> Vec<Loop> {
            let mut headers: Vec<BlockId> = Vec::new();
            let mut latch_map: Vec<Vec<BlockId>> = Vec::new();
            for &b in &cfg.rpo {
                for &s in &cfg.succs[b.index()] {
                    if dt.dominates(s, b) {
                        match headers.iter().position(|&h| h == s) {
                            Some(i) => latch_map[i].push(b),
                            None => {
                                headers.push(s);
                                latch_map.push(vec![b]);
                            }
                        }
                    }
                }
            }
            let mut loops = Vec::new();
            for (hi, &header) in headers.iter().enumerate() {
                let latches = latch_map[hi].clone();
                let mut blocks: HashSet<BlockId> = HashSet::new();
                blocks.insert(header);
                let mut stack = latches.clone();
                while let Some(b) = stack.pop() {
                    if blocks.insert(b) {
                        for &p in &cfg.preds[b.index()] {
                            stack.push(p);
                        }
                    }
                }
                let mut exiting = Vec::new();
                let mut exits = Vec::new();
                let mut ordered_blocks: Vec<BlockId> = blocks.iter().copied().collect();
                ordered_blocks.sort_unstable();
                for &b in &ordered_blocks {
                    for &s in &cfg.succs[b.index()] {
                        if !blocks.contains(&s) {
                            if !exiting.contains(&b) {
                                exiting.push(b);
                            }
                            if !exits.contains(&s) {
                                exits.push(s);
                            }
                        }
                    }
                }
                let outside_preds: Vec<BlockId> = cfg.preds[header.index()]
                    .iter()
                    .copied()
                    .filter(|p| !blocks.contains(p))
                    .collect();
                let preheader = match outside_preds.as_slice() {
                    [p] if cfg.succs[p.index()].len() == 1 => Some(*p),
                    _ => None,
                };
                loops.push(Loop {
                    header,
                    latches,
                    blocks,
                    exiting,
                    exits,
                    preheader,
                    depth: 1,
                    parent: None,
                });
            }
            let n = loops.len();
            for i in 0..n {
                let mut best: Option<usize> = None;
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    if loops[j].blocks.contains(&loops[i].header)
                        && loops[j].header != loops[i].header
                    {
                        best = match best {
                            None => Some(j),
                            Some(b) if loops[j].blocks.len() < loops[b].blocks.len() => Some(j),
                            other => other,
                        };
                    }
                }
                loops[i].parent = best;
            }
            for i in 0..n {
                let mut d = 1;
                let mut cur = loops[i].parent;
                while let Some(p) = cur {
                    d += 1;
                    cur = loops[p].parent;
                }
                loops[i].depth = d;
            }
            loops
        }

        pub(super) fn dominates(dt: &DomTree, a: BlockId, b: BlockId) -> bool {
            if dt.rpo_index[b.index()] == usize::MAX {
                return false;
            }
            let mut cur = b;
            loop {
                if cur == a {
                    return true;
                }
                match dt.idom[cur.index()] {
                    Some(d) if d != cur => cur = d,
                    _ => return false,
                }
            }
        }

        pub(super) fn children(dt: &DomTree) -> Vec<Vec<BlockId>> {
            let n = dt.idom.len();
            let mut ch = vec![Vec::new(); n];
            for (i, d) in dt.idom.iter().enumerate() {
                if let Some(d) = d {
                    if d.index() != i {
                        ch[d.index()].push(BlockId(i as u32));
                    }
                }
            }
            ch
        }

        pub(super) fn dominance_frontiers(dt: &DomTree, cfg: &Cfg) -> Vec<HashSet<BlockId>> {
            let n = cfg.succs.len();
            let mut df: Vec<HashSet<BlockId>> = vec![HashSet::new(); n];
            for &b in &cfg.rpo {
                if cfg.preds[b.index()].len() >= 2 {
                    let idom_b = match dt.idom[b.index()] {
                        Some(d) => d,
                        None => continue,
                    };
                    for &p in &cfg.preds[b.index()] {
                        let mut runner = p;
                        while runner != idom_b {
                            df[runner.index()].insert(b);
                            match dt.idom[runner.index()] {
                                Some(d) if d != runner => runner = d,
                                _ => break,
                            }
                        }
                    }
                }
            }
            df
        }
    }
}
