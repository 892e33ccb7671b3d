//! Def-use chains over a function snapshot.
//!
//! The chains are stored densely, indexed by instruction arena id, in
//! compressed-sparse-row (CSR) form: the uses of instruction `i` are the
//! slice `sites[offsets[i]..offsets[i + 1]]` of one flat array, and the
//! block each placed instruction lives in is one more dense vector.
//! Building takes two scans and three allocations whatever the function's
//! size. Both scans visit blocks in arena order, then each block's
//! instructions, then its terminator, so every use list is in that scan
//! order.

use crate::block::BlockId;
use crate::function::Function;
use crate::inst::InstId;
use crate::value::Value;

/// A location where a value is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseSite {
    /// Used as an operand of an instruction (which lives in the block).
    Inst(BlockId, InstId),
    /// Used by the terminator of a block.
    Term(BlockId),
}

impl UseSite {
    /// The block the use occurs in.
    pub fn block(self) -> BlockId {
        match self {
            UseSite::Inst(b, _) => b,
            UseSite::Term(b) => b,
        }
    }
}

/// Use lists for every instruction result in a function.
///
/// Only uses by instructions placed in live blocks, and by live blocks'
/// terminators, count. Ids at or past the end of the arena the analysis
/// was built over (instructions a pass adds afterwards) have no uses and
/// no block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefUse {
    /// `offsets[i]..offsets[i + 1]` is the range of `sites` holding the
    /// uses of instruction `i`; one entry per arena id plus one.
    offsets: Vec<u32>,
    /// Every use site, grouped by the instruction it uses.
    sites: Vec<UseSite>,
    /// Block each placed instruction lives in, indexed by arena id.
    placement: Vec<Option<BlockId>>,
}

impl DefUse {
    /// Scans `f` and records every use of every instruction result.
    pub fn new(f: &Function) -> DefUse {
        let n = f.insts.len();
        // Counting scan: the uses of `d` are tallied at `offsets[d + 2]`,
        // so that after the prefix sum `offsets[d + 1]` is where the fill
        // scan starts writing them.
        let mut offsets = vec![0u32; n + 2];
        let mut placement = vec![None; n];
        let mut count = |v: Value| {
            if let Value::Inst(d) = v {
                offsets[d.index() + 2] += 1;
            }
        };
        for b in f.block_ids() {
            let block = f.block(b);
            for &id in &block.insts {
                placement[id.index()] = Some(b);
                f.inst(id).kind.for_each_operand(&mut count);
            }
            block.term.for_each_operand(&mut count);
        }
        for i in 2..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Fill scan: each write advances `offsets[d + 1]`, which ends at
        // the end of `d`'s uses, i.e. the start of `d + 1`'s.
        let mut sites = vec![UseSite::Term(BlockId::ENTRY); offsets[n + 1] as usize];
        let mut fill = |v: Value, site: UseSite| {
            if let Value::Inst(d) = v {
                let next = &mut offsets[d.index() + 1];
                sites[*next as usize] = site;
                *next += 1;
            }
        };
        for b in f.block_ids() {
            let block = f.block(b);
            for &id in &block.insts {
                f.inst(id)
                    .kind
                    .for_each_operand(|v| fill(v, UseSite::Inst(b, id)));
            }
            block.term.for_each_operand(|v| fill(v, UseSite::Term(b)));
        }
        offsets.pop();
        DefUse {
            offsets,
            sites,
            placement,
        }
    }

    /// Use sites of `id` in scan order (empty slice when unused).
    pub fn uses_of(&self, id: InstId) -> &[UseSite] {
        let i = id.index();
        match self.offsets.get(i..i + 2) {
            Some(&[start, end]) => &self.sites[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Number of uses of `id`.
    pub fn use_count(&self, id: InstId) -> usize {
        self.uses_of(id).len()
    }

    /// Whether `id` has no uses.
    pub fn is_unused(&self, id: InstId) -> bool {
        self.use_count(id) == 0
    }

    /// The block where `id` is placed, if it is placed in a live block.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.placement.get(id.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn counts_uses() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        let (x_id, dead_id);
        {
            let mut b = mb.body();
            let x = b.add(b.param(0), b.const_i64(1));
            let dead = b.mul(x, b.const_i64(2)); // uses x but is itself unused
            let y = b.mul(x, x);
            x_id = x.as_inst().unwrap();
            dead_id = dead.as_inst().unwrap();
            b.ret(Some(y));
        }
        mb.finish_function();
        let m = mb.build();
        let du = DefUse::new(&m.functions[0]);
        assert_eq!(du.use_count(x_id), 3); // dead(1) + y(2)
        assert!(du.is_unused(dead_id));
        assert_eq!(du.block_of(x_id), Some(BlockId::ENTRY));
    }

    #[test]
    fn terminator_uses() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        let id;
        {
            let mut b = mb.body();
            let v = b.add(b.const_i64(1), b.const_i64(2));
            id = v.as_inst().unwrap();
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        let du = DefUse::new(&m.functions[0]);
        assert_eq!(du.uses_of(id), &[UseSite::Term(BlockId::ENTRY)]);
        assert_eq!(du.uses_of(id)[0].block(), BlockId::ENTRY);
    }

    /// `f(p) = p + 1`, with a dead `(p + 1) * 2` in between.
    fn add_with_dead_mul() -> (Function, InstId, InstId) {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        let (x, dead);
        {
            let mut b = mb.body();
            let xv = b.add(b.param(0), b.const_i64(1));
            let dv = b.mul(xv, b.const_i64(2));
            x = xv.as_inst().unwrap();
            dead = dv.as_inst().unwrap();
            b.ret(Some(xv));
        }
        mb.finish_function();
        (mb.build().functions.remove(0), x, dead)
    }

    #[test]
    fn removed_instruction_stays_in_the_arena_but_counts_for_nothing() {
        let (mut f, x, dead) = add_with_dead_mul();
        assert_eq!(DefUse::new(&f).use_count(x), 2);
        assert!(f.remove_from_block(BlockId::ENTRY, dead));
        assert!(
            dead.index() < f.insts.len(),
            "removal leaves the arena alone"
        );
        let du = DefUse::new(&f);
        assert_eq!(du.uses_of(x), &[UseSite::Term(BlockId::ENTRY)]);
        assert!(du.is_unused(dead));
        assert_eq!(du.block_of(dead), None);
        assert_eq!(du.block_of(x), Some(BlockId::ENTRY));
    }

    #[test]
    fn ids_past_the_arena_have_no_uses_and_no_block() {
        let (f, _, _) = add_with_dead_mul();
        let du = DefUse::new(&f);
        for id in [f.insts.len() as u32, f.insts.len() as u32 + 1, u32::MAX] {
            assert!(du.uses_of(InstId(id)).is_empty());
            assert_eq!(du.block_of(InstId(id)), None);
        }
        let empty = DefUse::default();
        assert!(empty.is_unused(InstId(0)));
        assert_eq!(empty.block_of(InstId(0)), None);
    }

    #[test]
    fn self_referencing_loop_phi_uses_itself_once() {
        use crate::inst::{CmpPred, InstKind};
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
        let mut f = mb.build().functions.remove(0);
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.push((header, Value::Inst(phi)));
        }
        let du = DefUse::new(&f);
        assert_eq!(du.use_count(phi), 1);
        assert_eq!(du.uses_of(phi), &[UseSite::Inst(header, phi)]);
    }
}
