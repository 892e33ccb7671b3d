//! Basic blocks and terminators.

use crate::inst::InstId;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Index of a basic block inside a [`Function`](crate::Function).
///
/// The entry block is always `BlockId(0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The function entry block.
    pub const ENTRY: BlockId = BlockId(0);

    /// Array index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The control-flow-transferring final operation of a basic block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch.
    CondBr {
        /// `I1` condition.
        cond: Value,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
        /// Probability (percent, 0–100) of taking `then_bb`, when known
        /// from `lower-expect` or profile metadata.
        weight: Option<u8>,
    },
    /// Multi-way branch on an integer.
    Switch {
        /// Scrutinee.
        val: Value,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Marks a block that can never be reached dynamically.
    Unreachable,
}

impl Terminator {
    /// Appends every successor block to `out`.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Switch { cases, default, .. } => {
                let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            Terminator::Ret(_) | Terminator::Unreachable => Vec::new(),
        }
    }

    /// Visits every value operand of the terminator.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Terminator::CondBr { cond, .. } => f(*cond),
            Terminator::Switch { val, .. } => f(*val),
            Terminator::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Rewrites every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Switch { val, .. } => *val = f(*val),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrites every successor block id in place (used when splitting or
    /// merging blocks).
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(b) => *b = f(*b),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Switch { cases, default, .. } => {
                for (_, b) in cases.iter_mut() {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            Terminator::Ret(_) | Terminator::Unreachable => {}
        }
    }
}

/// A basic block: a straight-line instruction sequence ended by a
/// [`Terminator`].
///
/// Blocks live in a [`Function`](crate::Function) arena; deleting a block
/// sets [`BasicBlock::deleted`] rather than shifting ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Instruction ids in execution order. Phis, when present, must form a
    /// prefix of this list.
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub term: Terminator,
    /// Tombstone flag: `true` once the block has been removed from the CFG.
    pub deleted: bool,
}

impl BasicBlock {
    /// Creates a block that falls through to `Unreachable` until a real
    /// terminator is set.
    pub fn new() -> BasicBlock {
        BasicBlock {
            insts: Vec::new(),
            term: Terminator::Unreachable,
            deleted: false,
        }
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        BasicBlock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors() {
        let t = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            weight: None,
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
        let sw = Terminator::Switch {
            val: Value::i64(0),
            cases: vec![(0, BlockId(1)), (1, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(sw.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
    }

    #[test]
    fn map_targets() {
        let mut t = Terminator::Br(BlockId(5));
        t.map_targets(|b| if b == BlockId(5) { BlockId(7) } else { b });
        assert_eq!(t, Terminator::Br(BlockId(7)));
    }

    #[test]
    fn operands() {
        let mut n = 0;
        Terminator::Ret(Some(Value::i64(3))).for_each_operand(|_| n += 1);
        assert_eq!(n, 1);
        Terminator::Br(BlockId(0)).for_each_operand(|_| n += 10);
        assert_eq!(n, 1);
    }
}
