//! Redundancy elimination: `early-cse`, `early-cse-memssa` and `gvn`.
//!
//! All three share a dominator-tree-scoped hash of pure expressions; they
//! differ — as in LLVM — in how much memory reasoning they do:
//!
//! * `early-cse` reuses loads only within a basic block, by the
//!   forwarding step that `loop-load-elim` runs on loop blocks too;
//! * `early-cse-memssa` adds cross-block load reuse (our stand-in for
//!   MemorySSA): a load takes the value of a dominating load or store of
//!   the same pointer when nothing that may write its memory can run on
//!   any path between the two. Paths are read off a block-reachability
//!   bitset, computed once per function, and per-block lists of the
//!   instructions that may write memory;
//! * `gvn` additionally canonicalizes commutative operands, catching
//!   `a+b` vs `b+a` pairs the CSE passes miss.

use crate::util::{may_write_memory, mem_root, trivial_dce, MemRoot, Replacements};
use mlcomp_ir::analysis::{Body, Cfg, CfgDom, DomTree};
use mlcomp_ir::hash::FastMap;
use mlcomp_ir::{
    BinOp, BlockId, CastOp, CmpPred, Function, InstId, InstKind, Module, Type, UnOp, Value,
};

/// A hash key identifying a pure expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, Value, Value, u8),
    Un(UnOp, Value),
    Cmp(CmpPred, Value, Value),
    Select(Value, Value, Value),
    Cast(CastOp, Value, Type),
    Gep(Value, Value),
}

fn expr_key(kind: &InstKind, ty: Type, canonicalize: bool) -> Option<ExprKey> {
    if !kind.is_pure() {
        return None;
    }
    Some(match kind {
        InstKind::Bin {
            op,
            lhs,
            rhs,
            width,
        } => {
            let (mut l, mut r) = (*lhs, *rhs);
            if canonicalize && op.is_commutative() && value_rank(l) > value_rank(r) {
                std::mem::swap(&mut l, &mut r);
            }
            ExprKey::Bin(*op, l, r, *width)
        }
        InstKind::Un { op, val } => ExprKey::Un(*op, *val),
        InstKind::Cmp { pred, lhs, rhs } => {
            let (mut p, mut l, mut r) = (*pred, *lhs, *rhs);
            if canonicalize && value_rank(l) > value_rank(r) {
                p = p.swapped();
                std::mem::swap(&mut l, &mut r);
            }
            ExprKey::Cmp(p, l, r)
        }
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => ExprKey::Select(*cond, *then_val, *else_val),
        InstKind::Cast { op, val } => ExprKey::Cast(*op, *val, ty),
        InstKind::Gep { base, offset } => ExprKey::Gep(*base, *offset),
        _ => return None,
    })
}

fn value_rank(v: Value) -> (u8, u64, u64) {
    match v {
        Value::Inst(id) => (0, id.0 as u64, 0),
        Value::Param(i) => (1, i as u64, 0),
        Value::ConstInt(c, t) => (2, c as u64, t as u64),
        Value::ConstFloat(b, t) => (3, b, t as u64),
        Value::Global(g) => (4, g.0 as u64, 0),
        Value::FuncAddr(f) => (5, f.0 as u64, 0),
        Value::Undef(t) => (6, t as u64, 0),
    }
}

/// Dominator-scoped CSE of pure expressions, plus block-local load reuse
/// and store-to-load forwarding.
pub fn early_cse(m: &Module, f: &mut Body) -> bool {
    run_cse(m, f, false, None)
}

/// [`early_cse`] plus cross-block load reuse backed by the reachability
/// clobber analysis (the MemorySSA-powered variant in LLVM).
pub fn early_cse_memssa(m: &Module, f: &mut Body) -> bool {
    run_cse(m, f, false, Some(eliminate_cross_block_loads))
}

/// Global value numbering: commutative-canonicalized scoped CSE plus
/// cross-block load elimination.
pub fn gvn(m: &Module, f: &mut Body) -> bool {
    run_cse(m, f, true, Some(eliminate_cross_block_loads))
}

/// Scoped CSE, then `cross_block_loads` when given, then trivial DCE.
fn run_cse(
    m: &Module,
    f: &mut Body,
    canonicalize: bool,
    cross_block_loads: Option<fn(&Module, &mut Body) -> bool>,
) -> bool {
    let mut changed = crate::util::remove_unreachable_blocks(f);
    changed |= scoped_replacements(m, f, canonicalize).apply(f);
    if let Some(eliminate_loads) = cross_block_loads {
        changed |= eliminate_loads(m, f);
    }
    changed | trivial_dce(m, f, false)
}

/// The dominator-tree walk of scoped CSE. Returns the value that replaces
/// each redundant instruction. Every recorded value is resolved through the
/// earlier records, so no replacement value is itself replaced.
fn scoped_replacements(m: &Module, f: &Body, canonicalize: bool) -> Replacements {
    let (_, dt) = f.analyse::<CfgDom>();
    let mut replaced = Replacements::new(f);

    // Scoped hash: one table plus the keys the open dom-tree scopes
    // inserted, innermost last; a scope's exit removes those logged since
    // its entry. A key is inserted only after a lookup misses, so closing a
    // scope never uncovers a shadowed binding.
    let mut table: FastMap<ExprKey, Value> = FastMap::default();
    let mut inserted: Vec<ExprKey> = Vec::new();
    // Block-local loads, emptied for each block.
    let mut avail_loads = Available::default();

    #[derive(Clone, Copy)]
    enum Ev {
        Enter(BlockId),
        Exit(usize),
    }
    let mut dfs = vec![Ev::Enter(BlockId::ENTRY)];
    while let Some(ev) = dfs.pop() {
        match ev {
            Ev::Enter(b) => {
                let mark = inserted.len();
                avail_loads.clear();
                for &id in &f.block(b).insts {
                    let inst = f.inst(id);
                    let reuse = match expr_key(&inst.kind, inst.ty, canonicalize) {
                        Some(key) => {
                            let found = table.get(&key).copied();
                            if found.is_none() {
                                table.insert(key, Value::Inst(id));
                                inserted.push(key);
                            }
                            found
                        }
                        None => forwarding_step(m, f, &mut avail_loads, id),
                    };
                    if let Some(v) = reuse {
                        replaced.record(id, replaced.resolve(v));
                    }
                }
                dfs.push(Ev::Exit(mark));
                dfs.extend(dt.children_of(b).map(Ev::Enter));
            }
            Ev::Exit(mark) => {
                for key in inserted.drain(mark..) {
                    table.remove(&key);
                }
            }
        }
    }
    replaced
}

/// What a load of each pointer yields at one point of a block, for
/// block-local load reuse and store-to-load forwarding.
#[derive(Default)]
pub(crate) struct Available {
    /// The value a load of each pointer yields.
    values: FastMap<Value, Value>,
    /// The pointers of `values` by memory root, so that a store forgets
    /// the pointers it may alias without visiting the others. A pointer
    /// may be listed more than once, or after it left `values`.
    by_root: FastMap<MemRoot, Vec<Value>>,
}

impl Available {
    fn insert(&mut self, f: &Function, ptr: Value, v: Value) {
        self.values.insert(ptr, v);
        self.by_root.entry(mem_root(f, ptr)).or_default().push(ptr);
    }

    /// Forgets every pointer that may alias one of `root`.
    fn forget_aliases(&mut self, root: MemRoot) {
        if root == MemRoot::Unknown {
            return self.clear();
        }
        for root in [root, MemRoot::Unknown] {
            for p in self.by_root.remove(&root).into_iter().flatten() {
                self.values.remove(&p);
            }
        }
    }

    fn clear(&mut self) {
        self.values.clear();
        self.by_root.clear();
    }
}

/// One step of block-local load reuse and store-to-load forwarding, shared
/// by scoped CSE and `loop-load-elim`. `avail` tells what a load of each
/// pointer yields at this point of the block, starting empty. Returns the
/// value that replaces `id` when it is a load whose pointer `avail` maps
/// to a value of the load's type; otherwise updates `avail` for what `id`
/// reads or writes. Callers record the result through
/// [`Replacements::resolve`], since a stored value may itself be a
/// replaced load.
pub(crate) fn forwarding_step(
    m: &Module,
    f: &Function,
    avail: &mut Available,
    id: InstId,
) -> Option<Value> {
    let inst = f.inst(id);
    match &inst.kind {
        InstKind::Load { ptr, .. } => match avail.values.get(ptr) {
            Some(&v) if f.value_type(v) == inst.ty => return Some(v),
            _ => avail.insert(f, *ptr, Value::Inst(id)),
        },
        InstKind::Store { ptr, value, .. } => {
            avail.forget_aliases(mem_root(f, *ptr));
            avail.insert(f, *ptr, *value);
        }
        kind if may_write_memory(m, kind) => avail.clear(),
        _ => {}
    }
    None
}

/// Block reachability in one or more edges, one bitset row per block,
/// both ways.
struct Reach {
    words: usize,
    /// Row `a`: the blocks `a` reaches.
    bits: Vec<u64>,
    /// Row `b`: the blocks that reach `b`.
    reaching: Vec<u64>,
}

impl Reach {
    fn new(cfg: &Cfg) -> Reach {
        let n = cfg.succs.len();
        let words = n.div_ceil(64);
        // reach(b) = ∪ over successors s of {s} ∪ reach(s); iterating in
        // post-order reaches the fixpoint in about loop-depth sweeps.
        // The reverse rows do the same over predecessors in reverse
        // post-order.
        let bits = Reach::closure(words, cfg.rpo.iter().rev(), &cfg.succs);
        let reaching = Reach::closure(words, cfg.rpo.iter(), &cfg.preds);
        Reach {
            words,
            bits,
            reaching,
        }
    }

    /// Rows of the blocks each block reaches over `edges` in one or more
    /// steps, sweeping the blocks in `order` until nothing grows.
    fn closure<'a>(
        words: usize,
        order: impl Iterator<Item = &'a BlockId> + Clone,
        edges: &[Vec<BlockId>],
    ) -> Vec<u64> {
        let mut bits = vec![0u64; edges.len() * words];
        let mut grew = true;
        while grew {
            grew = false;
            for &b in order.clone() {
                let row = b.index() * words;
                for &s in &edges[b.index()] {
                    let own = &mut bits[row + s.index() / 64];
                    let bit = 1u64 << (s.index() % 64);
                    grew |= *own & bit == 0;
                    *own |= bit;
                    let succ_row = s.index() * words;
                    for w in 0..words {
                        let merged = bits[row + w] | bits[succ_row + w];
                        grew |= merged != bits[row + w];
                        bits[row + w] = merged;
                    }
                }
            }
        }
        bits
    }

    /// Whether a path of at least one edge leads from `a` to `b`.
    fn reaches(&self, a: BlockId, b: BlockId) -> bool {
        self.bits[a.index() * self.words + b.index() / 64] >> (b.index() % 64) & 1 == 1
    }

    fn row(&self, a: BlockId) -> &[u64] {
        &self.bits[a.index() * self.words..(a.index() + 1) * self.words]
    }

    /// The blocks from which a path of at least one edge leads to `b`.
    fn reaching(&self, b: BlockId) -> &[u64] {
        &self.reaching[b.index() * self.words..(b.index() + 1) * self.words]
    }
}

/// Clobber positions of one class, for one function: the blocks holding
/// any and, in layout order, where each sits.
#[derive(Default)]
struct Clobbers {
    /// Bitset of the blocks holding a clobber of the class.
    blocks: Vec<u64>,
    /// `(block, position)` of each, in layout order, so sorted.
    at: Vec<(u32, u32)>,
}

impl Clobbers {
    fn push(&mut self, b: BlockId, pos: u32, words: usize) {
        if self.blocks.is_empty() {
            self.blocks = vec![0; words];
        }
        self.blocks[b.index() / 64] |= 1 << (b.index() % 64);
        self.at.push((b.0, pos));
    }

    /// Whether one sits in block `b` at a position within `range`.
    fn any_in(&self, b: BlockId, range: &std::ops::Range<u32>) -> bool {
        let first = self.at.partition_point(|&at| at < (b.0, range.start));
        self.at
            .get(first)
            .is_some_and(|&(ab, pos)| ab == b.0 && pos < range.end)
    }
}

/// The memory instructions of one function, indexed for cross-block load
/// elimination. Built from the current IR; an index stays valid while only
/// non-pointer loads are replaced, because replacing a load reorders
/// nothing and replacing a non-pointer value rewrites no address.
///
/// Clobbers, everything that may write memory, are summarised per class:
/// all of them answer for a load of unknown provenance; for a load of a
/// known root, calls and writes through unknown pointers plus the writes
/// to that root. A class answers "is there one in this block, or in this
/// part of it" from a bitset and a binary search.
struct MemIndex {
    /// Block and position within it of each placed instruction, by id.
    place: Vec<(BlockId, u32)>,
    /// Loads in layout order (blocks in arena order, then position).
    loads: Vec<InstId>,
    /// Loads and stores by pointer operand, in layout order.
    by_ptr: FastMap<Value, Vec<InstId>>,
    /// Every clobber: stores, memsets, memcpys and calls not known
    /// `readnone`.
    any: Clobbers,
    /// Clobbers that may write any memory: calls, and writes through a
    /// pointer of unknown provenance.
    universal: Clobbers,
    /// Writes through a pointer of a known root, by root.
    by_root: FastMap<MemRoot, Clobbers>,
    /// The operands of memsets and memcpys, as the index found them. The
    /// verifier types load, store and gep addresses as pointers, but not
    /// theirs.
    intrinsic_operands: Vec<Value>,
}

impl MemIndex {
    fn new(m: &Module, f: &Function) -> MemIndex {
        let words = f.blocks.len().div_ceil(64);
        let mut index = MemIndex {
            place: vec![(BlockId::ENTRY, 0); f.insts.len()],
            loads: Vec::new(),
            by_ptr: FastMap::default(),
            any: Clobbers::default(),
            universal: Clobbers::default(),
            by_root: FastMap::default(),
            intrinsic_operands: Vec::new(),
        };
        for b in f.block_ids() {
            for (pos, &id) in f.block(b).insts.iter().enumerate() {
                let pos = pos as u32;
                index.place[id.index()] = (b, pos);
                let kind = &f.inst(id).kind;
                match kind {
                    InstKind::Load { ptr, .. } => {
                        index.loads.push(id);
                        index.by_ptr.entry(*ptr).or_default().push(id);
                    }
                    InstKind::Store { ptr, .. } => index.by_ptr.entry(*ptr).or_default().push(id),
                    InstKind::Memset { .. } | InstKind::Memcpy { .. } => {
                        kind.for_each_operand(|v| index.intrinsic_operands.push(v));
                    }
                    _ => {}
                }
                if may_write_memory(m, kind) {
                    index.any.push(b, pos, words);
                    match kind.write_ptr().map(|p| mem_root(f, p)) {
                        None | Some(MemRoot::Unknown) => index.universal.push(b, pos, words),
                        Some(root) => index.by_root.entry(root).or_default().push(b, pos, words),
                    }
                }
            }
        }
        index
    }

    /// The clobber classes that may write `root`'s memory.
    fn classes(&self, root: MemRoot) -> [Option<&Clobbers>; 2] {
        match root {
            MemRoot::Unknown => [Some(&self.any), None],
            root => [Some(&self.universal), self.by_root.get(&root)],
        }
    }

    /// The value a dominating load or store of the same pointer makes
    /// available to `load` with no clobber in between: the first such
    /// candidate in layout order. Stored values are read through
    /// `replaced`, which holds the loads this sweep eliminated.
    fn available_value(
        &self,
        f: &Function,
        dt: &DomTree,
        reach: &Reach,
        replaced: &Replacements,
        load: InstId,
    ) -> Option<Value> {
        let InstKind::Load { ptr, .. } = f.inst(load).kind else {
            return None;
        };
        let ty = f.inst(load).ty;
        let classes = self.classes(mem_root(f, ptr));
        let (lb, lpos) = self.place[load.index()];
        // Blocks that may clobber the load's memory whole and reach its
        // block, which itself is checked by position.
        let mut middle: Option<Vec<u64>> = None;
        self.by_ptr[&ptr].iter().find_map(|&o| {
            if o == load || replaced.is_replaced(o) {
                return None;
            }
            let avail = match f.inst(o).kind {
                InstKind::Load { .. } => Value::Inst(o),
                InstKind::Store { value, .. } => replaced.resolve(value),
                _ => return None,
            };
            if f.value_type(avail) != ty {
                return None;
            }
            let (ob, opos) = self.place[o.index()];
            let dominates = if ob == lb {
                opos < lpos
            } else {
                dt.dominates(ob, lb)
            };
            if !dominates {
                return None;
            }
            let middle = middle.get_or_insert_with(|| {
                let mut mask = reach.reaching(lb).to_vec();
                for (w, word) in mask.iter_mut().enumerate() {
                    let mut clobbering = 0;
                    for class in classes.iter().flatten() {
                        clobbering |= class.blocks.get(w).copied().unwrap_or(0);
                    }
                    *word &= clobbering;
                }
                mask[lb.index() / 64] &= !(1 << (lb.index() % 64));
                mask
            });
            self.no_clobbers_between(reach, middle, (ob, opos), (lb, lpos), classes)
                .then_some(avail)
        })
    }

    /// Returns `true` when no clobber of `classes` can execute on any path
    /// from just after `from` to just before `to`, both `(block,
    /// position)`. `middle` holds the blocks other than `to`'s that reach
    /// it and hold such a clobber; those `from`'s block reaches are on a
    /// path. An endpoint block counts whole when a path can re-enter it.
    fn no_clobbers_between(
        &self,
        reach: &Reach,
        middle: &[u64],
        (fb, fpos): (BlockId, u32),
        (tb, tpos): (BlockId, u32),
        classes: [Option<&Clobbers>; 2],
    ) -> bool {
        let clobbers_in = |b: BlockId, range: std::ops::Range<u32>| {
            classes.iter().flatten().any(|c| c.any_in(b, &range))
        };
        let from_in_cycle = reach.reaches(fb, fb);
        if fb == tb && !from_in_cycle {
            // Straight-line within one block.
            return !clobbers_in(fb, fpos + 1..tpos);
        }
        let own = (fb.index() / 64, 1u64 << (fb.index() % 64));
        let on_a_path = reach
            .row(fb)
            .iter()
            .zip(middle)
            .enumerate()
            .any(|(w, (&r, &c))| r & c & if w == own.0 { !own.1 } else { !0 } != 0);
        if on_a_path {
            return false;
        }
        // Endpoint: tail of `from`'s block (whole block if re-enterable).
        let from_lo = if from_in_cycle && reach.reaches(fb, tb) {
            0
        } else {
            fpos + 1
        };
        if clobbers_in(fb, from_lo..u32::MAX) {
            return false;
        }
        // Endpoint: head of `to`'s block.
        let to_hi = if reach.reaches(fb, tb) && reach.reaches(tb, tb) {
            u32::MAX
        } else {
            tpos
        };
        fb == tb || !clobbers_in(tb, 0..to_hi)
    }

    /// Whether `id`, after `replaced`, is an operand of a memset or memcpy.
    fn feeds_memory_intrinsic(&self, replaced: &Replacements, id: InstId) -> bool {
        self.intrinsic_operands
            .iter()
            .any(|&v| replaced.resolve(v) == Value::Inst(id))
    }
}

/// Replaces each load that a dominating load or store of the same pointer
/// makes redundant, trying loads and then candidates in layout order.
///
/// Replacing a load never changes the CFG, so the CFG, dominator tree and
/// reachability are computed once. Eliminated loads are recorded in one
/// [`Replacements`], applied when the sweep ends: a load that found no
/// candidate cannot gain one, since its candidates, their dominance and
/// the clobbers in between are unchanged. The one exception is a load
/// whose value may be an address. Replacing it can change a pointer
/// operand, a gep base or a memory root, so the sweep applies what it
/// recorded and rewinds to the first load with a fresh index.
fn eliminate_cross_block_loads(m: &Module, f: &mut Body) -> bool {
    let (cfg, dt) = f.analyse::<CfgDom>();
    let reach = Reach::new(&cfg);
    let mut replaced = Replacements::new(f);
    let mut changed = false;
    loop {
        let index = MemIndex::new(m, f);
        let mut rewind = false;
        for &load in &index.loads {
            let Some(avail) = index.available_value(f, &dt, &reach, &replaced, load) else {
                continue;
            };
            rewind = f.inst(load).ty.is_ptr() || index.feeds_memory_intrinsic(&replaced, load);
            replaced.record(load, avail);
            if rewind {
                break;
            }
        }
        changed |= replaced.apply(f);
        if !rewind {
            return changed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::all_insts;
    use crate::{PassManager, PhaseOutcome, QuarantineReason};
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    #[test]
    fn cse_removes_duplicate_exprs() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a1 = b.add(b.param(0), b.param(1));
            let a2 = b.add(b.param(0), b.param(1));
            let s = b.mul(a1, a2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(early_cse(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 2);
        assert_eq!(
            exec(&m, "f", &[RtVal::I(3), RtVal::I(4)]),
            Some(RtVal::I(49))
        );
    }

    #[test]
    fn cse_is_dominator_scoped() {
        // The same expression in two sibling branches must NOT be merged.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.add(b.param(0), b.const_i64(5)),
                |b| b.add(b.param(0), b.const_i64(5)),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        early_cse(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(6)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-1)]), Some(RtVal::I(4)));
    }

    #[test]
    fn block_local_store_to_load_forwarding() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            b.store(p, b.param(0));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(early_cse(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(!all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(11)]), Some(RtVal::I(11)));
    }

    #[test]
    fn store_invalidates_aliasing_loads() {
        // load p; store q (may-alias); load p — must re-load.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::Ptr, Type::Ptr], Type::I64);
        {
            let mut b = mb.body();
            let v1 = b.load(b.param(0), Type::I64);
            b.store(b.param(1), b.const_i64(99));
            let v2 = b.load(b.param(0), Type::I64);
            let s = b.add(v1, v2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        early_cse(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        let f = &m.functions[0];
        let loads = all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 2, "aliasing store must kill the available load");
    }

    #[test]
    fn memssa_forwards_across_blocks() {
        // store g, then in a later block load g with no clobber between.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.param(0));
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.load(b.global_addr(g), Type::I64),
                |b| b.const_i64(0),
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(early_cse_memssa(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(!all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(3)]), Some(RtVal::I(3)));
    }

    #[test]
    fn memssa_respects_clobbering_arm() {
        // Diamond where one arm stores to the pointer: the join load stays.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(1));
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.if_then(c, |b| {
                b.store(b.global_addr(g), b.const_i64(2));
            });
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        early_cse_memssa(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(2)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-1)]), Some(RtVal::I(1)));
    }

    #[test]
    fn gvn_catches_commuted_expressions() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a1 = b.add(b.param(0), b.param(1));
            let a2 = b.add(b.param(1), b.param(0)); // commuted duplicate
            let s = b.mul(a1, a2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();

        // early-cse misses it…
        let mut m2 = m.clone();
        early_cse(&mc, &mut Body::from(&mut m2.functions[0]));
        assert_eq!(m2.functions[0].live_inst_count(), 3);

        // …gvn gets it.
        assert!(gvn(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(m.functions[0].live_inst_count(), 2);
        assert_eq!(
            exec(&m, "f", &[RtVal::I(2), RtVal::I(5)]),
            Some(RtVal::I(49))
        );
    }

    #[test]
    fn loop_load_not_forwarded_across_latch_store() {
        // A store inside the loop body must block hoist-like forwarding of
        // a header load from the preheader store.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.store(b.global_addr(g), b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
                let cur = b.load(b.global_addr(g), Type::I64);
                let n = b.add(cur, b.const_i64(2));
                b.store(b.global_addr(g), n);
            });
            let r = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        gvn(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(10)));
    }

    #[test]
    fn chained_replacements_leave_no_dangling_use() {
        // y = a+b; x = a+b; store p, x; v = load p; ret y*v. Scoped CSE maps
        // x → y and v → x, so v's uses must end up on y, not on the removed x.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            let y = b.add(b.param(0), b.param(1));
            let x = b.add(b.param(0), b.param(1));
            b.store(p, x);
            let v = b.load(p, Type::I64);
            let r = b.mul(y, v);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(early_cse(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(
            exec(&m, "f", &[RtVal::I(3), RtVal::I(4)]),
            Some(RtVal::I(49))
        );
    }

    /// Builds `f(x)` over blocks laid out as entry, `late`, `mid`, with
    /// control running entry → `mid` → `late`; `mid_body` fills `mid`.
    /// Entry stores `x` to the global `g` and the alloca `a`'s address to
    /// the alloca `slot`; `late` returns a load of `g`. Returns the module
    /// and the id of that load.
    fn late_load_module(
        mid_body: impl FnOnce(&mut mlcomp_ir::FunctionBuilder<'_>, Value, Value),
    ) -> (Module, InstId) {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("g", 1);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        let late_load;
        {
            let mut b = mb.body();
            let late = b.new_block();
            let mid = b.new_block();
            let a = b.alloca(1);
            let slot = b.alloca(1);
            b.store(b.global_addr(g), b.param(0));
            b.store(slot, a);
            b.br(mid);
            b.switch_to(late);
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
            b.switch_to(mid);
            let g_addr = b.global_addr(g);
            mid_body(&mut b, g_addr, slot);
            b.br(late);
            let Value::Inst(id) = v else { unreachable!() };
            late_load = id;
        }
        mb.finish_function();
        (mb.build(), late_load)
    }

    fn load_count(f: &Function) -> usize {
        all_insts(f)
            .iter()
            .filter(|(_, id)| matches!(f.inst(*id).kind, InstKind::Load { .. }))
            .count()
    }

    #[test]
    fn eliminating_a_pointer_load_rewinds_the_scan() {
        // `late`'s load of g, first in layout, fails at first: `mid` stores
        // through the loaded pointer q, which may alias anything. Replacing
        // q, a pointer load later in layout, by `a` turns that store into
        // one to `a`; only a rescan from the start then forwards x to it.
        let (mut m, _) = late_load_module(|b, _, slot| {
            let q = b.load(slot, Type::Ptr);
            b.store(q, b.const_i64(7));
        });
        let mc = m.clone();
        let mut old = m.clone();
        assert!(gvn(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(load_count(&m.functions[0]), 0);
        assert_eq!(exec(&m, "f", &[RtVal::I(5)]), Some(RtVal::I(5)));
        assert!(oracle::gvn(&mc, &mut Body::from(&mut old.functions[0])));
        assert!(m == old, "the rewrite must match the oracle");
    }

    #[test]
    fn first_dominating_candidate_in_layout_order_wins() {
        // Entry's `store g, x` and mid's `w = load g` both dominate late's
        // load with no clobber in between; the store comes first in layout.
        let (mut m, late_load) = late_load_module(|b, g, _| {
            b.load(g, Type::I64);
        });
        let mc = m.clone();
        let f = &m.functions[0];
        let cfg = Cfg::new(f);
        let dt = DomTree::new(&cfg);
        let reach = Reach::new(&cfg);
        let index = MemIndex::new(&mc, f);
        let replaced = Replacements::new(f);
        assert_eq!(
            index.available_value(f, &dt, &reach, &replaced, late_load),
            Some(Value::Param(0))
        );
        let mut old = m.clone();
        assert!(gvn(&mc, &mut Body::from(&mut m.functions[0])));
        assert!(oracle::gvn(&mc, &mut Body::from(&mut old.functions[0])));
        assert!(m == old, "the rewrite must match the oracle");
    }

    #[test]
    fn walked_suite_state_with_chained_replacements_is_not_quarantined() {
        // A state a seeded walk reaches: before the fix, `early-cse-memssa`
        // left a use of a removed instruction here and was rolled back.
        let program = mlcomp_suites::program("matmult-float").unwrap();
        let expected = program.run_default().unwrap();
        let mut state = program.clone();
        let prefix = [
            "instsimplify",
            "callsite-splitting",
            "loop-unroll",
            "sccp",
            "loop-rotate",
            "tailcallelim",
            "early-cse",
            "licm",
            "deadargelim",
            "lower-expect",
            "simplifycfg",
            "correlated-propagation",
            "speculative-execution",
            "loop-distribute",
            "loop-unswitch",
        ];
        let pm = PassManager::new();
        let report = pm
            .run_sequence_sandboxed(&mut state.module, prefix, None, "prefix")
            .unwrap();
        assert!(report.quarantine.is_empty());
        let phase = "early-cse-memssa";
        let mut old = state.module.clone();
        assert!(matches!(
            oracle_phase(&mut old, phase),
            PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(e)) if e.contains("unplaced")
        ));
        let outcome = pm
            .run_phase_sandboxed(&mut state.module, phase, None, phase)
            .unwrap();
        assert_eq!(outcome, PhaseOutcome::Changed);
        assert_eq!(state.run_default().unwrap(), expected);
    }

    /// The sandbox's verdict on running `phase` through the oracle,
    /// mirroring `PassManager::run_phase_sandboxed` without a fault plan.
    fn oracle_phase(m: &mut Module, phase: &str) -> PhaseOutcome {
        let pass = match phase {
            "gvn" => oracle::gvn,
            "early-cse-memssa" => oracle::early_cse_memssa,
            other => unreachable!("no oracle for `{other}`"),
        };
        let snapshot = m.clone();
        let mut changed = false;
        for f in m.functions.iter_mut().filter(|f| !f.is_declaration) {
            changed |= pass(&snapshot, f);
        }
        match verify(m) {
            Err(e) => {
                *m = snapshot;
                PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(e.to_string()))
            }
            Ok(()) if changed => PhaseOutcome::Changed,
            Ok(()) => PhaseOutcome::Unchanged,
        }
    }

    /// Runs `gvn` and `early-cse-memssa` on `state` both ways and asserts
    /// the same outcome and the same module, instruction arena included.
    fn assert_matches_oracle(state: &Module, context: &str) {
        for phase in ["gvn", "early-cse-memssa"] {
            let mut new = state.clone();
            let outcome = PassManager::new()
                .run_phase_sandboxed(&mut new, phase, None, phase)
                .unwrap();
            let mut old = state.clone();
            assert_eq!(
                outcome,
                oracle_phase(&mut old, phase),
                "{context}: `{phase}`"
            );
            assert!(new == old, "{context}: `{phase}` differs from the oracle");
        }
    }

    /// The largest state the oracle checks. Its cost grows superlinearly
    /// (about a second per call on the 7,000-instruction unrolled `matmult`
    /// states in a release build), so debug builds check the states up to
    /// 1,600 instructions and release builds check them all.
    const ORACLE_MAX_INSTS: usize = if cfg!(debug_assertions) {
        1_600
    } else {
        usize::MAX
    };

    #[test]
    fn rewrite_matches_the_oracle_on_the_suites() {
        let checked =
            crate::suite_states::for_each_suite_state(ORACLE_MAX_INSTS, assert_matches_oracle);
        assert!(checked >= 300, "only {checked} states checked");
    }

    /// The implementation this module had before its linear-time rewrite,
    /// kept as a differential oracle: a scope stack searched innermost
    /// first, replacements applied one at a time, and a cross-block step
    /// that restarts after every elimination and runs two breadth-first
    /// searches per candidate pair.
    mod oracle {
        use super::super::{expr_key, ExprKey};
        use crate::util::{
            all_insts, call_may_touch_memory, may_alias, mem_root, trivial_dce, MemRoot,
        };
        use mlcomp_ir::analysis::{Cfg, DomTree};
        use mlcomp_ir::{BlockId, Function, InstId, InstKind, Module, Value};
        use std::collections::{HashMap, HashSet, VecDeque};

        pub(super) fn early_cse_memssa(m: &Module, f: &mut Function) -> bool {
            run_cse(m, f, false, true)
        }

        pub(super) fn gvn(m: &Module, f: &mut Function) -> bool {
            run_cse(m, f, true, true)
        }

        fn run_cse(
            m: &Module,
            f: &mut Function,
            canonicalize: bool,
            cross_block_loads: bool,
        ) -> bool {
            crate::util::remove_unreachable_blocks(&mut mlcomp_ir::analysis::Body::from(&mut *f));
            let cfg = Cfg::new(f);
            let dt = DomTree::new(&cfg);
            let children = dt.children();
            let mut changed = false;

            let mut scopes: Vec<HashMap<ExprKey, Value>> = vec![HashMap::new()];
            let mut replacements: Vec<(BlockId, InstId, Value)> = Vec::new();

            #[derive(Clone, Copy)]
            enum Ev {
                Enter(BlockId),
                Exit,
            }
            let mut dfs = vec![Ev::Enter(BlockId::ENTRY)];
            while let Some(ev) = dfs.pop() {
                match ev {
                    Ev::Enter(b) => {
                        scopes.push(HashMap::new());
                        let mut avail_loads: HashMap<Value, Value> = HashMap::new();
                        let ids = f.block(b).insts.clone();
                        for id in ids {
                            let inst = f.inst(id).clone();
                            match &inst.kind {
                                InstKind::Load { ptr, .. } => {
                                    if let Some(&v) = avail_loads.get(ptr) {
                                        if f.value_type(v) == inst.ty {
                                            replacements.push((b, id, v));
                                            continue;
                                        }
                                    }
                                    avail_loads.insert(*ptr, Value::Inst(id));
                                }
                                InstKind::Store { ptr, value, .. } => {
                                    let root = mem_root(f, *ptr);
                                    avail_loads.retain(|p, _| !may_alias(mem_root(f, *p), root));
                                    avail_loads.insert(*ptr, *value);
                                }
                                InstKind::Memset { .. } | InstKind::Memcpy { .. } => {
                                    avail_loads.clear();
                                }
                                InstKind::Call { callee, .. } => {
                                    if call_may_touch_memory(m, callee) {
                                        avail_loads.clear();
                                    }
                                }
                                _ => {
                                    if let Some(key) = expr_key(&inst.kind, inst.ty, canonicalize) {
                                        if let Some(v) = lookup(&scopes, key) {
                                            replacements.push((b, id, v));
                                            continue;
                                        }
                                        scopes.last_mut().unwrap().insert(key, Value::Inst(id));
                                    }
                                }
                            }
                        }
                        dfs.push(Ev::Exit);
                        for &c in &children[b.index()] {
                            dfs.push(Ev::Enter(c));
                        }
                    }
                    Ev::Exit => {
                        scopes.pop();
                    }
                }
            }

            for (b, id, v) in replacements {
                f.replace_all_uses(id, v);
                f.remove_from_block(b, id);
                changed = true;
            }

            if cross_block_loads {
                changed |= eliminate_cross_block_loads(m, f);
            }
            changed | trivial_dce(m, &mut mlcomp_ir::analysis::Body::from(f), false)
        }

        fn lookup(scopes: &[HashMap<ExprKey, Value>], key: ExprKey) -> Option<Value> {
            scopes.iter().rev().find_map(|s| s.get(&key).copied())
        }

        /// Location of an instruction: block + position.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Loc {
            block: BlockId,
            pos: usize,
        }

        /// `true` when nothing that may write `root`'s memory can execute on
        /// any path from just after `from` to just before `to`.
        fn no_clobbers_between(
            m: &Module,
            f: &Function,
            cfg: &Cfg,
            from: Loc,
            to: Loc,
            root: MemRoot,
        ) -> bool {
            let mut fwd: HashSet<BlockId> = HashSet::new();
            let mut q: VecDeque<BlockId> = cfg.succs[from.block.index()].iter().copied().collect();
            while let Some(b) = q.pop_front() {
                if fwd.insert(b) {
                    q.extend(cfg.succs[b.index()].iter().copied());
                }
            }
            let mut bwd: HashSet<BlockId> = HashSet::new();
            let mut q: VecDeque<BlockId> = cfg.preds[to.block.index()].iter().copied().collect();
            while let Some(b) = q.pop_front() {
                if bwd.insert(b) {
                    q.extend(cfg.preds[b.index()].iter().copied());
                }
            }

            let from_in_cycle = fwd.contains(&from.block);
            let to_in_cycle = bwd.contains(&to.block);

            let mut candidates: Vec<(BlockId, usize, usize)> = Vec::new();
            let full = |b: BlockId| f.block(b).insts.len();

            if from.block == to.block && !from_in_cycle {
                candidates.push((from.block, from.pos + 1, to.pos));
            } else {
                for &b in fwd.intersection(&bwd) {
                    if b != from.block && b != to.block {
                        candidates.push((b, 0, full(b)));
                    }
                }
                if fwd.contains(&from.block) && bwd.contains(&from.block) && from_in_cycle {
                    candidates.push((from.block, 0, full(from.block)));
                } else {
                    candidates.push((from.block, from.pos + 1, full(from.block)));
                }
                if to.block != from.block {
                    if fwd.contains(&to.block) && bwd.contains(&to.block) && to_in_cycle {
                        candidates.push((to.block, 0, full(to.block)));
                    } else {
                        candidates.push((to.block, 0, to.pos));
                    }
                }
            }

            for (b, lo, hi) in candidates {
                let insts = &f.block(b).insts;
                for &id in insts.iter().take(hi).skip(lo) {
                    match &f.inst(id).kind {
                        InstKind::Store { ptr, .. } | InstKind::Memset { ptr, .. }
                            if may_alias(mem_root(f, *ptr), root) =>
                        {
                            return false;
                        }
                        InstKind::Memcpy { dst, .. } if may_alias(mem_root(f, *dst), root) => {
                            return false;
                        }
                        InstKind::Call { callee, .. } if call_may_touch_memory(m, callee) => {
                            return false;
                        }
                        _ => {}
                    }
                }
            }
            true
        }

        fn eliminate_cross_block_loads(m: &Module, f: &mut Function) -> bool {
            let mut changed = false;
            loop {
                let cfg = Cfg::new(f);
                let dt = DomTree::new(&cfg);
                let insts = all_insts(f);
                let pos_of = |b: BlockId, id: InstId, f: &Function| -> usize {
                    f.block(b).insts.iter().position(|&i| i == id).unwrap()
                };
                let mut done_one = false;
                'outer: for (lb, load_id) in &insts {
                    let load = f.inst(*load_id).clone();
                    let InstKind::Load { ptr, .. } = load.kind else {
                        continue;
                    };
                    let root = mem_root(f, ptr);
                    for (ob, oid) in &insts {
                        if oid == load_id {
                            continue;
                        }
                        let (o_ptr, avail): (Value, Value) = match &f.inst(*oid).kind {
                            InstKind::Load { ptr: p, .. } => (*p, Value::Inst(*oid)),
                            InstKind::Store { ptr: p, value, .. } => (*p, *value),
                            _ => continue,
                        };
                        if o_ptr != ptr || f.value_type(avail) != load.ty {
                            continue;
                        }
                        let from = Loc {
                            block: *ob,
                            pos: pos_of(*ob, *oid, f),
                        };
                        let to = Loc {
                            block: *lb,
                            pos: pos_of(*lb, *load_id, f),
                        };
                        let dominates = if ob == lb {
                            from.pos < to.pos
                        } else {
                            dt.dominates(*ob, *lb)
                        };
                        if !dominates {
                            continue;
                        }
                        if no_clobbers_between(m, f, &cfg, from, to, root) {
                            f.replace_all_uses(*load_id, avail);
                            f.remove_from_block(*lb, *load_id);
                            changed = true;
                            done_one = true;
                            break 'outer;
                        }
                    }
                }
                if !done_one {
                    break;
                }
            }
            changed
        }
    }
}

/// Cross-block load elimination as it was before eliminated loads were
/// recorded in a `Replacements` and clobbers summarised per block: one
/// `replace_all_uses` and one removal per eliminated load, and a scan of
/// each clobber list a candidate's path crosses. Kept as the differential
/// oracle of `gvn` and `early-cse-memssa`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{run_cse, Reach};
    use crate::util::{may_alias, may_write_memory, mem_root, MemRoot};
    use mlcomp_ir::analysis::{Body, CfgDom, DomTree};
    use mlcomp_ir::{BlockId, Function, InstId, InstKind, Module, Value};
    use std::collections::HashMap;

    pub(crate) fn early_cse_memssa(m: &Module, f: &mut Body) -> bool {
        run_cse(m, f, false, Some(eliminate_cross_block_loads))
    }

    pub(crate) fn gvn(m: &Module, f: &mut Body) -> bool {
        run_cse(m, f, true, Some(eliminate_cross_block_loads))
    }

    /// The memory instructions of one function, indexed for cross-block load
    /// elimination. Built from the current IR; an index stays valid while only
    /// non-pointer loads are removed, because removing a load reorders nothing
    /// and replacing a non-pointer value rewrites no address.
    struct MemIndex {
        /// Block and position within it of each placed instruction, by id.
        place: Vec<(BlockId, u32)>,
        /// Loads in layout order (blocks in arena order, then position).
        loads: Vec<InstId>,
        /// Loads and stores by pointer operand, in layout order.
        by_ptr: HashMap<Value, Vec<InstId>>,
        /// Per block, in order: stores, memsets, memcpys and calls not known
        /// `readnone` — everything that may write memory.
        clobbers: Vec<Vec<InstId>>,
        /// Bitset of the blocks whose clobber list is non-empty.
        clobbered: Vec<u64>,
    }

    impl MemIndex {
        fn new(m: &Module, f: &Function) -> MemIndex {
            let mut index = MemIndex {
                place: vec![(BlockId::ENTRY, 0); f.insts.len()],
                loads: Vec::new(),
                by_ptr: HashMap::new(),
                clobbers: vec![Vec::new(); f.blocks.len()],
                clobbered: vec![0; f.blocks.len().div_ceil(64)],
            };
            for b in f.block_ids() {
                for (pos, &id) in f.block(b).insts.iter().enumerate() {
                    index.place[id.index()] = (b, pos as u32);
                    let kind = &f.inst(id).kind;
                    match kind {
                        InstKind::Load { ptr, .. } => {
                            index.loads.push(id);
                            index.by_ptr.entry(*ptr).or_default().push(id);
                        }
                        InstKind::Store { ptr, .. } => {
                            index.by_ptr.entry(*ptr).or_default().push(id)
                        }
                        _ => {}
                    }
                    if may_write_memory(m, kind) {
                        index.clobbers[b.index()].push(id);
                        index.clobbered[b.index() / 64] |= 1 << (b.index() % 64);
                    }
                }
            }
            index
        }

        /// The value a dominating load or store of the same pointer makes
        /// available to `load` with no clobber in between: the first such
        /// candidate in layout order.
        fn available_value(
            &self,
            f: &Function,
            dt: &DomTree,
            reach: &Reach,
            removed: &[bool],
            load: InstId,
        ) -> Option<Value> {
            let InstKind::Load { ptr, .. } = f.inst(load).kind else {
                return None;
            };
            let ty = f.inst(load).ty;
            let root = mem_root(f, ptr);
            let (lb, lpos) = self.place[load.index()];
            self.by_ptr[&ptr].iter().find_map(|&o| {
                if o == load || removed[o.index()] {
                    return None;
                }
                let avail = match f.inst(o).kind {
                    InstKind::Load { .. } => Value::Inst(o),
                    InstKind::Store { value, .. } => value,
                    _ => return None,
                };
                if f.value_type(avail) != ty {
                    return None;
                }
                let (ob, opos) = self.place[o.index()];
                let dominates = if ob == lb {
                    opos < lpos
                } else {
                    dt.dominates(ob, lb)
                };
                (dominates && self.no_clobbers_between(f, reach, (ob, opos), (lb, lpos), root))
                    .then_some(avail)
            })
        }

        /// Returns `true` when no instruction that may write `root`'s memory
        /// (or any call that might) can execute on any path from just after
        /// `from` to just before `to`, both `(block, position)`. The blocks
        /// scanned are those reachable from `from`'s block that reach `to`'s;
        /// an endpoint block is scanned whole when a path can re-enter it.
        fn no_clobbers_between(
            &self,
            f: &Function,
            reach: &Reach,
            (fb, fpos): (BlockId, u32),
            (tb, tpos): (BlockId, u32),
            root: MemRoot,
        ) -> bool {
            let from_in_cycle = reach.reaches(fb, fb);
            if fb == tb && !from_in_cycle {
                // Straight-line within one block.
                return !self.clobbers_in(f, fb, fpos + 1..tpos, root);
            }
            // Middle blocks: scanned whole.
            for (w, (&r, &c)) in reach.row(fb).iter().zip(&self.clobbered).enumerate() {
                let mut bits = r & c;
                while bits != 0 {
                    let b = BlockId((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                    if b != fb
                        && b != tb
                        && reach.reaches(b, tb)
                        && self.clobbers_in(f, b, 0..u32::MAX, root)
                    {
                        return false;
                    }
                }
            }
            // Endpoint: tail of `from`'s block (whole block if re-enterable).
            let from_lo = if from_in_cycle && reach.reaches(fb, tb) {
                0
            } else {
                fpos + 1
            };
            if self.clobbers_in(f, fb, from_lo..u32::MAX, root) {
                return false;
            }
            // Endpoint: head of `to`'s block.
            let to_hi = if reach.reaches(fb, tb) && reach.reaches(tb, tb) {
                u32::MAX
            } else {
                tpos
            };
            fb == tb || !self.clobbers_in(f, tb, 0..to_hi, root)
        }

        /// Whether a clobber of `root` sits in block `b` at a position within
        /// `range`. Memory roots are read from the current IR.
        fn clobbers_in(
            &self,
            f: &Function,
            b: BlockId,
            range: std::ops::Range<u32>,
            root: MemRoot,
        ) -> bool {
            self.clobbers[b.index()].iter().any(|&c| {
                range.contains(&self.place[c.index()].1)
                    && f.inst(c)
                        .kind
                        .write_ptr()
                        .is_none_or(|p| may_alias(mem_root(f, p), root))
            })
        }

        /// Whether `id` is an operand of a memset or memcpy. The verifier types
        /// load, store and gep addresses as pointers, but not theirs.
        fn feeds_memory_intrinsic(&self, f: &Function, id: InstId) -> bool {
            self.clobbers.iter().flatten().any(|&c| {
                let kind = &f.inst(c).kind;
                let mut uses = false;
                if matches!(kind, InstKind::Memset { .. } | InstKind::Memcpy { .. }) {
                    kind.for_each_operand(|v| uses |= v == Value::Inst(id));
                }
                uses
            })
        }
    }

    /// Replaces each load that a dominating load or store of the same pointer
    /// makes redundant, trying loads and then candidates in layout order.
    ///
    /// Removing a load never changes the CFG, so the CFG, dominator tree and
    /// reachability are computed once. The scan resumes after an elimination:
    /// a load that found no candidate cannot gain one, since its candidates,
    /// their dominance and the clobbers in between are unchanged. The one
    /// exception is a load whose value may be an address. Replacing it can
    /// change a pointer operand, a gep base or a memory root, so the scan
    /// rewinds to the first load with a fresh index.
    fn eliminate_cross_block_loads(m: &Module, f: &mut Body) -> bool {
        let (cfg, dt) = f.analyse::<CfgDom>();
        let reach = Reach::new(&cfg);
        let mut changed = false;
        loop {
            let index = MemIndex::new(m, f);
            let mut removed = vec![false; f.insts.len()];
            let mut rewind = false;
            for &load in &index.loads {
                let Some(avail) = index.available_value(f, &dt, &reach, &removed, load) else {
                    continue;
                };
                rewind = f.inst(load).ty.is_ptr() || index.feeds_memory_intrinsic(f, load);
                f.replace_all_uses(load, avail);
                f.remove_from_block(index.place[load.index()].0, load);
                removed[load.index()] = true;
                changed = true;
                if rewind {
                    break;
                }
            }
            if !rewind {
                return changed;
            }
        }
    }
}
