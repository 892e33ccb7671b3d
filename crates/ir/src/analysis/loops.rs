//! Natural-loop detection and canonical trip-count analysis.
//!
//! A [`Loop`] owns its membership: `blocks` is sorted ascending and
//! [`Loop::contains`] binary-searches it, so every phase that walks a loop
//! body sees the same deterministic order without copying or sorting it.

use super::cfg::Cfg;
use super::dom::DomTree;
use crate::block::{BlockId, Terminator};
use crate::function::Function;
use crate::inst::{BinOp, CmpPred, InstId, InstKind};
use crate::value::Value;

/// A natural loop: a header dominating one or more latches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (unique entry from inside the loop's perspective).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop body, including the header, sorted
    /// ascending.
    pub blocks: Vec<BlockId>,
    /// Blocks inside the loop with an edge leaving it.
    pub exiting: Vec<BlockId>,
    /// Blocks outside the loop targeted by exiting edges.
    pub exits: Vec<BlockId>,
    /// The unique preheader, if the header has exactly one reachable
    /// predecessor outside the loop and that predecessor has a single
    /// successor.
    pub preheader: Option<BlockId>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Index of the enclosing loop in the forest, if any.
    pub parent: Option<usize>,
}

/// Result of canonical induction-variable analysis for a loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripCount {
    /// The phi defining the induction variable (in the header).
    pub iv_phi: InstId,
    /// Initial value.
    pub start: Value,
    /// Loop bound (exclusive upper bound for `Lt` loops).
    pub bound: Value,
    /// Constant step added each iteration.
    pub step: i64,
    /// The compare instruction controlling the exit.
    pub cmp: InstId,
    /// Number of iterations when `start` and `bound` are both constants.
    pub const_trips: Option<u64>,
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopForest {
    /// Loops, outermost-first within each nest.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detects natural loops from back edges (`latch → header` where the
    /// header dominates the latch). Back edges sharing a header are merged
    /// into one loop, as in LLVM's `LoopInfo`.
    pub fn new(cfg: &Cfg, dt: &DomTree) -> LoopForest {
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latch_map: Vec<Vec<BlockId>> = Vec::new();
        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.index()] {
                if dt.dominates(s, b) {
                    // back edge b → s
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

        // `body_of[b] == i` while loop `i` is built marks `b` in its body,
        // so one vector serves every loop without clearing.
        let mut body_of = vec![usize::MAX; cfg.succs.len()];
        let mut loops = Vec::new();
        for (i, (header, latches)) in headers.into_iter().zip(latch_map).enumerate() {
            // Body = header + all blocks that reach a latch without passing
            // through the header (reverse DFS from latches; latches may
            // include the header for self-loops).
            body_of[header.index()] = i;
            let mut blocks = vec![header];
            let mut stack = latches.clone();
            while let Some(b) = stack.pop() {
                if body_of[b.index()] != i {
                    body_of[b.index()] = i;
                    blocks.push(b);
                    stack.extend_from_slice(&cfg.preds[b.index()]);
                }
            }
            blocks.sort_unstable();
            let inside = |b: &BlockId| body_of[b.index()] == i;
            let mut exiting = Vec::new();
            let mut exits = Vec::new();
            for &b in &blocks {
                for &s in &cfg.succs[b.index()] {
                    if !inside(&s) {
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
                .filter(|p| !inside(p))
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

        // Establish nesting: loop A is a parent of loop B if A contains B's
        // header and A != B. Choose the smallest containing loop as parent.
        let n = loops.len();
        for i in 0..n {
            let mut best: Option<usize> = None;
            for j in 0..n {
                if i == j {
                    continue;
                }
                if loops[j].contains(loops[i].header) && loops[j].header != loops[i].header {
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

        LoopForest { loops }
    }

    /// Maximum nesting depth across the function.
    pub fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }
}

impl Loop {
    /// Whether `b` is in the loop body.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Recognizes the canonical counted-loop pattern produced by the
    /// builder (and by `indvars` canonicalization):
    ///
    /// ```text
    /// header:  iv = phi [start, preheader], [iv.next, latch]
    ///          c  = cmp lt iv, bound
    ///          condbr c, body, exit
    /// latch:   iv.next = add iv, step      ; step constant
    /// ```
    ///
    /// Returns `None` for anything else; `loop-unroll` and `loop-vectorize`
    /// only fire on loops this analysis understands, which is exactly why
    /// running `indvars`/`loop-rotate` first matters for phase ordering.
    pub fn trip_count(&self, f: &Function) -> Option<TripCount> {
        if self.latches.len() != 1 {
            return None;
        }
        let latch = self.latches[0];
        let header = f.block(self.header);
        // Header must end in a conditional exit on a compare.
        let (cond, _then_bb, _else_bb) = match &header.term {
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => (cond, *then_bb, *else_bb),
            _ => return None,
        };
        let cmp_id = cond.as_inst()?;
        let (pred, lhs, rhs) = match &f.inst(cmp_id).kind {
            InstKind::Cmp { pred, lhs, rhs } => (*pred, *lhs, *rhs),
            _ => return None,
        };
        if pred != CmpPred::Lt {
            return None;
        }
        let iv_phi = lhs.as_inst()?;
        let incomings = match &f.inst(iv_phi).kind {
            InstKind::Phi { incomings } if incomings.len() == 2 => incomings.clone(),
            _ => return None,
        };
        if !header.insts.contains(&iv_phi) {
            return None;
        }
        let (mut start, mut next) = (None, None);
        for (b, v) in &incomings {
            if *b == latch {
                next = Some(*v);
            } else if !self.contains(*b) {
                start = Some(*v);
            }
        }
        let (start, next) = (start?, next?);
        let next_id = next.as_inst()?;
        let step = match &f.inst(next_id).kind {
            InstKind::Bin {
                op: BinOp::Add,
                lhs,
                rhs,
                ..
            } if *lhs == Value::Inst(iv_phi) => rhs.as_const_int()?,
            _ => return None,
        };
        if step <= 0 {
            return None;
        }
        // Bound must be loop-invariant: constant, param, or defined outside.
        let invariant = match rhs {
            Value::Inst(id) => !self.blocks.iter().any(|b| f.block(*b).insts.contains(&id)),
            _ => true,
        };
        if !invariant {
            return None;
        }
        let const_trips = match (start.as_const_int(), rhs.as_const_int()) {
            (Some(s), Some(b)) if b > s => Some(((b - s) as u64).div_ceil(step as u64)),
            (Some(s), Some(b)) if b <= s => Some(0),
            _ => None,
        };
        Some(TripCount {
            iv_phi,
            start,
            bound: rhs,
            step,
            cmp: cmp_id,
            const_trips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    fn loop_fn(to: Option<i64>) -> Function {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let bound = match to {
                Some(c) => b.const_i64(c),
                None => b.param(0),
            };
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), bound, 1, |b, i| {
                let cur = b.load(acc, Type::I64);
                let nxt = b.add(cur, i);
                b.store(acc, nxt);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.build().functions.remove(0)
    }

    #[test]
    fn detects_single_loop() {
        let f = loop_fn(None);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dt);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.latches.len(), 1);
        assert_eq!(l.depth, 1);
        assert!(l.preheader.is_some());
        assert_eq!(l.exits.len(), 1);
        assert_eq!(forest.max_depth(), 1);
    }

    #[test]
    fn trip_count_param_bound() {
        let f = loop_fn(None);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dt);
        let tc = forest.loops[0].trip_count(&f).expect("canonical loop");
        assert_eq!(tc.step, 1);
        assert_eq!(tc.const_trips, None);
        assert_eq!(tc.start, Value::i64(0));
    }

    #[test]
    fn trip_count_constant() {
        let f = loop_fn(Some(10));
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dt);
        let tc = forest.loops[0].trip_count(&f).expect("canonical loop");
        assert_eq!(tc.const_trips, Some(10));
    }

    #[test]
    fn nested_depth() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::Void);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
                b.for_loop(b.const_i64(0), b.param(0), 1, |b, _j| {
                    let p = b.alloca(1);
                    b.store(p, b.const_i64(0));
                });
            });
            b.ret(None);
        }
        mb.finish_function();
        let f = mb.build().functions.remove(0);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dt);
        assert_eq!(forest.loops.len(), 2);
        assert_eq!(forest.max_depth(), 2);
        let inner = forest.loops.iter().find(|l| l.depth == 2).unwrap();
        assert!(inner.parent.is_some());
    }
}
