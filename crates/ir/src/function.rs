//! Functions: parameterized single-entry CFGs over an instruction arena.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{Inst, InstId, InstKind};
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Index of a function inside a [`Module`](crate::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Array index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Function attributes, mirroring the LLVM attributes the Table VI phases
/// consume or infer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FnAttrs {
    /// Prefer inlining (`inlinehint`).
    pub inline_hint: bool,
    /// Never inline.
    pub no_inline: bool,
    /// Reads/writes no memory other than its arguments' pointees; inferred
    /// by the `prune-eh` substitute, consumed by DCE/CSE.
    pub readnone: bool,
    /// Cannot unwind; inferred by the `prune-eh` substitute.
    pub nounwind: bool,
    /// Body is a duplicate of an external definition and may be dropped by
    /// `elim-avail-extern` once inlining is done.
    pub available_externally: bool,
    /// Rarely executed; discourages inlining.
    pub cold: bool,
}

/// A function definition (or declaration).
///
/// Instructions live in the [`Function::insts`] arena and are referenced by
/// id from block instruction lists; removing an instruction from a block
/// leaves its arena slot in place, so ids stay stable across transforms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types; parameters are referenced as [`Value::Param`].
    pub params: Vec<Type>,
    /// Return type.
    pub ret_ty: Type,
    /// Block arena; entry is [`BlockId::ENTRY`].
    pub blocks: Vec<BasicBlock>,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Attributes.
    pub attrs: FnAttrs,
    /// `true` if the function has no body (external).
    pub is_declaration: bool,
    /// `true` if the symbol is not visible outside the module. Internal
    /// functions may have their signature changed (`deadargelim`,
    /// `argpromotion`) or be removed (`globaldce`) when all call sites are
    /// known.
    pub internal: bool,
}

impl Function {
    /// Creates an empty function with a single entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: vec![BasicBlock::new()],
            insts: Vec::new(),
            attrs: FnAttrs::default(),
            is_declaration: false,
            internal: false,
        }
    }

    /// Creates an external declaration.
    pub fn declaration(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: Vec::new(),
            insts: Vec::new(),
            attrs: FnAttrs::default(),
            is_declaration: true,
            internal: false,
        }
    }

    /// Adds a new (empty, unreachable-terminated) block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Adds an instruction to the arena (without placing it in a block).
    pub fn add_inst(&mut self, inst: Inst) -> InstId {
        self.insts.push(inst);
        InstId((self.insts.len() - 1) as u32)
    }

    /// Appends an instruction to the arena and to the end of `block`'s
    /// instruction list, returning the result value.
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind, ty: Type) -> Value {
        let id = self.add_inst(Inst::new(kind, ty));
        self.blocks[block.index()].insts.push(id);
        Value::Inst(id)
    }

    /// Shorthand for `&self.insts[id.index()]`.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Shorthand for `&mut self.insts[id.index()]`.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Shorthand for `&self.blocks[id.index()]`.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Shorthand for `&mut self.blocks[id.index()]`.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates over ids of non-deleted blocks in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.deleted)
            .map(|(i, _)| BlockId(i as u32))
    }

    /// The type of any value in the context of this function.
    ///
    /// # Panics
    ///
    /// Panics if a `Param` index is out of range.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            Value::Param(i) => self.params[i as usize],
            other => other.ty_of_const().expect("const value has a type"),
        }
    }

    /// Replaces every use of `from` (an instruction result) with `to` in all
    /// instructions and terminators of live blocks.
    pub fn replace_all_uses(&mut self, from: InstId, to: Value) {
        let fv = Value::Inst(from);
        self.map_uses(|v| if v == fv { to } else { v });
    }

    /// Rewrites every operand of the instructions and terminators of live
    /// blocks through `subst`.
    pub fn map_uses(&mut self, subst: impl Fn(Value) -> Value + Copy) {
        let Function { blocks, insts, .. } = self;
        for block in blocks.iter_mut().filter(|b| !b.deleted) {
            for &id in &block.insts {
                insts[id.index()].kind.map_operands(subst);
            }
            block.term.map_operands(subst);
        }
    }

    /// Removes `id` from `block`'s instruction list (the arena slot
    /// remains). Returns `true` if it was present.
    pub fn remove_from_block(&mut self, block: BlockId, id: InstId) -> bool {
        let insts = &mut self.blocks[block.index()].insts;
        if let Some(pos) = insts.iter().position(|&i| i == id) {
            insts.remove(pos);
            true
        } else {
            false
        }
    }

    /// Counts instructions in non-deleted blocks.
    pub fn live_inst_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| !b.deleted)
            .map(|b| b.insts.len())
            .sum()
    }

    /// Counts non-deleted blocks.
    pub fn live_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| !b.deleted).count()
    }

    /// Marks a block deleted and clears its contents. Callers must have
    /// already removed CFG edges into it.
    pub fn delete_block(&mut self, id: BlockId) {
        let b = self.block_mut(id);
        b.deleted = true;
        b.insts.clear();
        b.term = Terminator::Unreachable;
    }

    /// Fixes phi nodes in `block` after the edge from `pred` was removed.
    pub fn remove_phi_edges(&mut self, block: BlockId, pred: BlockId) {
        let Function { blocks, insts, .. } = self;
        for &id in &blocks[block.index()].insts {
            if let InstKind::Phi { incomings } = &mut insts[id.index()].kind {
                incomings.retain(|(b, _)| *b != pred);
            }
        }
    }

    /// Renames `from` to `to` in phi incoming-block lists of `block`
    /// (after retargeting a CFG edge).
    pub fn rename_phi_pred(&mut self, block: BlockId, from: BlockId, to: BlockId) {
        let Function { blocks, insts, .. } = self;
        for &id in &blocks[block.index()].insts {
            if let InstKind::Phi { incomings } = &mut insts[id.index()].kind {
                for (b, _) in incomings.iter_mut() {
                    if *b == from {
                        *b = to;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn simple_fn() -> Function {
        let mut f = Function::new("f", vec![Type::I64], Type::I64);
        let x = f.append_inst(
            BlockId::ENTRY,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Param(0),
                rhs: Value::i64(1),
                width: 1,
            },
            Type::I64,
        );
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(x));
        f
    }

    #[test]
    fn construction() {
        let f = simple_fn();
        assert_eq!(f.live_block_count(), 1);
        assert_eq!(f.live_inst_count(), 1);
        assert_eq!(f.value_type(Value::Param(0)), Type::I64);
        assert_eq!(f.value_type(Value::Inst(InstId(0))), Type::I64);
    }

    #[test]
    fn replace_all_uses() {
        let mut f = simple_fn();
        // Add a second inst using the first.
        let y = f.append_inst(
            BlockId::ENTRY,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Value::Inst(InstId(0)),
                rhs: Value::Inst(InstId(0)),
                width: 1,
            },
            Type::I64,
        );
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(y));
        f.replace_all_uses(InstId(0), Value::i64(42));
        match &f.inst(InstId(1)).kind {
            InstKind::Bin { lhs, rhs, .. } => {
                assert_eq!(*lhs, Value::i64(42));
                assert_eq!(*rhs, Value::i64(42));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn remove_from_block() {
        let mut f = simple_fn();
        assert!(f.remove_from_block(BlockId::ENTRY, InstId(0)));
        assert!(!f.remove_from_block(BlockId::ENTRY, InstId(0)));
        assert_eq!(f.live_inst_count(), 0);
    }

    #[test]
    fn delete_block_clears() {
        let mut f = simple_fn();
        let b = f.add_block();
        f.delete_block(b);
        assert_eq!(f.live_block_count(), 1);
        assert!(f.block(b).deleted);
    }

    #[test]
    fn phi_edge_maintenance() {
        let mut f = Function::new("g", vec![], Type::I64);
        let b1 = f.add_block();
        let b2 = f.add_block();
        let join = f.add_block();
        let phi = f.append_inst(
            join,
            InstKind::Phi {
                incomings: vec![(b1, Value::i64(1)), (b2, Value::i64(2))],
            },
            Type::I64,
        );
        f.block_mut(join).term = Terminator::Ret(Some(phi));
        f.remove_phi_edges(join, b1);
        match &f.inst(InstId(0)).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 1),
            _ => unreachable!(),
        }
        f.rename_phi_pred(join, b2, b1);
        match &f.inst(InstId(0)).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings[0].0, b1),
            _ => unreachable!(),
        }
    }
}
