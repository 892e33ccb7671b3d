//! Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.

use super::cfg::Cfg;
use crate::block::BlockId;

/// Immediate-dominator tree over the reachable blocks of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// `idom[b]` — immediate dominator of `b`; the entry's idom is itself;
    /// `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Position of each block in reverse post-order (used internally and by
    /// clients that need a topological-ish order); `usize::MAX` when
    /// unreachable.
    pub rpo_index: Vec<usize>,
}

impl DomTree {
    /// Computes dominators using the Cooper–Harvey–Kennedy iterative
    /// algorithm over the CFG's reverse post-order.
    pub fn new(cfg: &Cfg) -> DomTree {
        let n = cfg.succs.len();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in cfg.rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if cfg.rpo.is_empty() {
            return DomTree { idom, rpo_index };
        }
        let entry = cfg.rpo[0];
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        DomTree { idom, rpo_index }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[b.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Dominance frontier of every block — the classic ingredient of SSA
    /// phi placement in `mem2reg` — each sorted ascending and free of
    /// duplicates.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = cfg.succs.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in &cfg.rpo {
            if cfg.preds[b.index()].len() >= 2 {
                let idom_b = match self.idom[b.index()] {
                    Some(d) => d,
                    None => continue,
                };
                for &p in &cfg.preds[b.index()] {
                    let mut runner = p;
                    while runner != idom_b {
                        // All of `b`'s insertions happen here, so a
                        // repeat can only be the last entry.
                        let frontier = &mut df[runner.index()];
                        if frontier.last() != Some(&b) {
                            frontier.push(b);
                        }
                        match self.idom[runner.index()] {
                            Some(d) if d != runner => runner = d,
                            _ => break,
                        }
                    }
                }
            }
        }
        for frontier in &mut df {
            frontier.sort_unstable();
        }
        df
    }

    /// Children lists of the dominator tree.
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut ch = vec![Vec::new(); n];
        for (i, d) in self.idom.iter().enumerate() {
            if let Some(d) = d {
                if d.index() != i {
                    ch[d.index()].push(BlockId(i as u32));
                }
            }
        }
        ch
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Terminator;
    use crate::function::Function;
    use crate::types::Type;
    use crate::value::Value;

    /// entry → {a, b} → join → exit
    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut f = Function::new("f", vec![], Type::Void);
        let a = f.add_block();
        let b = f.add_block();
        let j = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
            weight: None,
        };
        f.block_mut(a).term = Terminator::Br(j);
        f.block_mut(b).term = Terminator::Br(j);
        f.block_mut(j).term = Terminator::Ret(None);
        (f, a, b, j)
    }

    #[test]
    fn idoms_of_diamond() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        assert_eq!(dt.idom[a.index()], Some(BlockId::ENTRY));
        assert_eq!(dt.idom[b.index()], Some(BlockId::ENTRY));
        assert_eq!(dt.idom[j.index()], Some(BlockId::ENTRY));
        assert!(dt.dominates(BlockId::ENTRY, j));
        assert!(!dt.dominates(a, j));
        assert!(dt.dominates(j, j));
    }

    #[test]
    fn frontiers_of_diamond() {
        let (f, a, b, j) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        let df = dt.dominance_frontiers(&cfg);
        assert!(df[a.index()].contains(&j));
        assert!(df[b.index()].contains(&j));
        assert!(df[BlockId::ENTRY.index()].is_empty());
    }

    #[test]
    fn loop_dominance() {
        // entry → header; header → {body, exit}; body → header.
        let mut f = Function::new("f", vec![], Type::Void);
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::Br(h);
        f.block_mut(h).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: body,
            else_bb: exit,
            weight: None,
        };
        f.block_mut(body).term = Terminator::Br(h);
        f.block_mut(exit).term = Terminator::Ret(None);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        assert!(dt.dominates(h, body));
        assert!(dt.dominates(h, exit));
        assert!(!dt.dominates(body, exit));
        let ch = dt.children();
        assert!(ch[h.index()].contains(&body));
        assert!(ch[h.index()].contains(&exit));
    }
}
