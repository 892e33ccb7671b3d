//! Control-flow graph: successor/predecessor maps and orderings.

use crate::block::BlockId;
use crate::function::Function;

/// Reverse post-order of reachable blocks — the canonical iteration order
/// for forward dataflow.
pub type RPO = Vec<BlockId>;

/// Successor/predecessor maps plus reachability for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// `succs[b]` — successor blocks of `b`.
    pub succs: Vec<Vec<BlockId>>,
    /// `preds[b]` — predecessor blocks of `b`.
    pub preds: Vec<Vec<BlockId>>,
    /// `reachable[b]` — whether `b` is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Reverse post-order over reachable blocks.
    pub rpo: RPO,
}

impl Cfg {
    /// Computes the CFG of `f`. Deleted blocks get empty edge lists and are
    /// never reachable.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in f.block_ids() {
            let ss = f.block(b).term.successors();
            for s in &ss {
                preds[s.index()].push(b);
            }
            succs[b.index()] = ss;
        }

        // DFS for reachability and post-order.
        let mut reachable = vec![false; n];
        let mut post = Vec::with_capacity(n);
        if n > 0 && !f.blocks.is_empty() && !f.block(BlockId::ENTRY).deleted {
            // Iterative DFS with explicit state: (block, next-succ-index).
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
            reachable[BlockId::ENTRY.index()] = true;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < succs[b.index()].len() {
                    let s = succs[b.index()][*i];
                    *i += 1;
                    if !reachable[s.index()] {
                        reachable[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();

        // Predecessor lists keep only reachable preds (edges from dead code
        // would otherwise confuse phi checking).
        for p in preds.iter_mut() {
            p.retain(|b| reachable[b.index()]);
        }

        Cfg {
            succs,
            preds,
            reachable,
            rpo: post,
        }
    }

    /// Number of CFG edges among reachable blocks.
    pub fn edge_count(&self) -> usize {
        self.rpo.iter().map(|b| self.succs[b.index()].len()).sum()
    }

    /// Whether the edge `from → to` is critical (multi-successor source and
    /// multi-predecessor target).
    pub fn is_critical_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.succs[from.index()].len() > 1 && self.preds[to.index()].len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;
    use crate::types::Type;
    use crate::value::Value;

    #[test]
    fn diamond() {
        let mut f = Function::new("f", vec![], Type::Void);
        let t = f.add_block();
        let e = f.add_block();
        let j = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: t,
            else_bb: e,
            weight: None,
        };
        f.block_mut(t).term = Terminator::Br(j);
        f.block_mut(e).term = Terminator::Br(j);
        f.block_mut(j).term = Terminator::Ret(None);

        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs[0], vec![t, e]);
        assert_eq!(cfg.preds[j.index()].len(), 2);
        assert!(cfg.reachable.iter().all(|&r| r));
        assert_eq!(cfg.rpo[0], BlockId::ENTRY);
        assert_eq!(*cfg.rpo.last().unwrap(), j);
        assert_eq!(cfg.edge_count(), 4);
    }

    #[test]
    fn unreachable_block() {
        let mut f = Function::new("f", vec![], Type::Void);
        let dead = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(None);
        f.block_mut(dead).term = Terminator::Ret(None);
        let cfg = Cfg::new(&f);
        assert!(!cfg.reachable[dead.index()]);
        assert_eq!(cfg.rpo.len(), 1);
    }

    #[test]
    fn critical_edge_detection() {
        // entry condbr -> {a, join}; a br -> join. Edge entry->join is critical.
        let mut f = Function::new("f", vec![], Type::Void);
        let a = f.add_block();
        let join = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: join,
            weight: None,
        };
        f.block_mut(a).term = Terminator::Br(join);
        f.block_mut(join).term = Terminator::Ret(None);
        let cfg = Cfg::new(&f);
        assert!(cfg.is_critical_edge(BlockId::ENTRY, join));
        assert!(!cfg.is_critical_edge(a, join));
    }
}
