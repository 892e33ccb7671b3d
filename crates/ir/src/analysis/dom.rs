//! Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.
//!
//! The tree is numbered once, by a depth-first walk that records each
//! block's entry and exit times, so that [`DomTree::dominates`] answers
//! with two comparisons instead of walking the idom chain. Children are
//! kept as first-child / next-sibling links in one dense vector with the
//! times, so the numbering allocates nothing per block.

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
    /// Per block, its place in the tree.
    nodes: Vec<Node>,
}

/// A block's links in the dominator tree and its times in a depth-first
/// walk of it: `a` dominates reachable `b` iff `a`'s `[entry, exit]`
/// contains `b`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// The block's first child, or [`NONE`]; each block's children are
    /// linked in ascending order.
    first_child: u32,
    /// The next child of the block's immediate dominator, or [`NONE`].
    next_sibling: u32,
    entry: u32,
    exit: u32,
}

/// No block, in the child links.
const NONE: u32 = u32::MAX;

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
            return DomTree::numbered(idom, rpo_index, None);
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
        DomTree::numbered(idom, rpo_index, Some(entry))
    }

    /// Links each block under its immediate dominator and numbers the
    /// tree rooted at `entry` by one depth-first walk.
    fn numbered(
        idom: Vec<Option<BlockId>>,
        rpo_index: Vec<usize>,
        entry: Option<BlockId>,
    ) -> DomTree {
        let mut nodes = vec![
            Node {
                first_child: NONE,
                next_sibling: NONE,
                entry: 0,
                exit: 0,
            };
            idom.len()
        ];
        // Prepending in descending order leaves each list ascending.
        for (i, d) in idom.iter().enumerate().rev() {
            if let Some(d) = d.filter(|d| d.index() != i) {
                nodes[i].next_sibling = nodes[d.index()].first_child;
                nodes[d.index()].first_child = i as u32;
            }
        }
        if let Some(entry) = entry {
            // Descend to first children; from a leaf, exit it and each
            // ancestor it is the last child of, then enter the next
            // sibling. The idom links stand in for a stack.
            let mut clock = 0u32;
            let mut tick = || {
                clock += 1;
                clock
            };
            let mut b = entry.index();
            nodes[b].entry = tick();
            'walk: loop {
                if nodes[b].first_child != NONE {
                    b = nodes[b].first_child as usize;
                    nodes[b].entry = tick();
                    continue;
                }
                loop {
                    nodes[b].exit = tick();
                    if b == entry.index() {
                        break 'walk;
                    }
                    if nodes[b].next_sibling != NONE {
                        b = nodes[b].next_sibling as usize;
                        nodes[b].entry = tick();
                        break;
                    }
                    b = idom[b].expect("a tree block has an idom").index();
                }
            }
        }
        DomTree {
            idom,
            rpo_index,
            nodes,
        }
    }

    /// Whether `a` dominates `b` (reflexive); `false` when either is
    /// unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[a.index()] == usize::MAX || self.rpo_index[b.index()] == usize::MAX {
            return false;
        }
        let (a, b) = (self.nodes[a.index()], self.nodes[b.index()]);
        a.entry <= b.entry && b.exit <= a.exit
    }

    /// The children of `b` in the dominator tree, ascending.
    pub fn children_of(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        let mut next = self.nodes[b.index()].first_child;
        std::iter::from_fn(move || {
            let c = (next != NONE).then_some(BlockId(next))?;
            next = self.nodes[c.index()].next_sibling;
            Some(c)
        })
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

    /// Children lists of the dominator tree, each ascending.
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        (0..self.idom.len() as u32)
            .map(|b| self.children_of(BlockId(b)).collect())
            .collect()
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
    fn unreachable_blocks_dominate_and_are_dominated_by_nothing() {
        let (mut f, a, _, j) = diamond();
        let dead = f.add_block();
        f.block_mut(dead).term = Terminator::Br(j);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        for b in [BlockId::ENTRY, a, j, dead] {
            assert!(!dt.dominates(dead, b));
            assert!(!dt.dominates(b, dead));
        }
        assert!(dt.children_of(dead).next().is_none());
        assert_eq!(dt.children_of(BlockId::ENTRY).count(), 3);
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
