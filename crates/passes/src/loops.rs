//! Loop phases: `licm`, `loop-rotate`, `indvars`, `loop-unroll`,
//! `loop-deletion`, `loop-idiom`, `loop-unswitch`, `loop-sink`,
//! `loop-load-elim` and `loop-distribute`.
//!
//! The interactions here mirror LLVM's: `loop-rotate` turns while-loops
//! into do-while form so that body blocks dominate the exiting latch,
//! which is what lets `licm` hoist loads; `indvars` canonicalizes exit
//! conditions so `loop-unroll`/`loop-vectorize` can compute trip counts;
//! `loop-idiom` needs `instcombine`-canonicalized address arithmetic.
//!
//! The questions these phases ask about a loop's shape are each answered
//! by one function below (`private_exit`, `defines_live_out`,
//! `header_phis`, `single_body`, ...), and the phases that rewrite one
//! loop at a time re-analyse through `util::until_stable`.

use crate::cse::{forwarding_step, Available};
use crate::util::{
    clone_region, ensure_preheader, may_alias, mem_root, remove_unreachable_blocks, trivial_dce,
    until_stable, MemRoot, Region, Replacements,
};
use mlcomp_ir::analysis::{Body, Cfg, CfgLoops, DefUse, Loop, UseSite};
use mlcomp_ir::{
    BinOp, BlockId, CmpPred, Function, Inst, InstId, InstKind, Module, Terminator, Type, Value,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Upper bound on `trip count × body size` for full unrolling (matches the
/// spirit of LLVM's unroll threshold).
const UNROLL_BUDGET: usize = 256;
/// Maximum trip count considered for full unrolling.
const UNROLL_MAX_TRIPS: u64 = 32;
/// Maximum loop size cloned by `loop-unswitch`.
const UNSWITCH_BUDGET: usize = 96;

/// The memory roots loop `l` may write, or `None` when it contains a call:
/// `licm` treats every call as an unknown write.
fn loop_effectful_roots(f: &Function, l: &Loop) -> Option<HashSet<MemRoot>> {
    let mut roots = HashSet::new();
    for &b in &l.blocks {
        for &id in &f.block(b).insts {
            let kind = &f.inst(id).kind;
            if matches!(kind, InstKind::Call { .. }) {
                return None;
            }
            if let Some(p) = kind.write_ptr() {
                roots.insert(mem_root(f, p));
            }
        }
    }
    Some(roots)
}

/// Whether `v` is invariant in loop `l` (defined outside it).
fn is_invariant(f: &Function, l: &Loop, v: Value) -> bool {
    match v {
        Value::Inst(id) => !l.blocks.iter().any(|&b| f.block(b).insts.contains(&id)),
        _ => true,
    }
}

/// Whether `id` has a use outside loop `l`.
fn used_outside(du: &DefUse, l: &Loop, id: InstId) -> bool {
    du.uses_of(id).iter().any(|u| !l.contains(u.block()))
}

/// Whether a value defined in one of `blocks`, all in loop `l`, is used
/// outside `l`.
fn defines_live_out<'a>(
    f: &Function,
    du: &DefUse,
    l: &Loop,
    mut blocks: impl Iterator<Item = &'a BlockId>,
) -> bool {
    blocks.any(|&b| f.block(b).insts.iter().any(|&id| used_outside(du, l, id)))
}

/// The loop's only exit block, when the header alone enters it (so the
/// header is also the only exiting block).
fn private_exit(cfg: &Cfg, l: &Loop) -> Option<BlockId> {
    match l.exits[..] {
        [exit] if cfg.preds[exit.index()] == [l.header] => Some(exit),
        _ => None,
    }
}

/// Whether block `b` has phis.
fn has_phis(f: &Function, b: BlockId) -> bool {
    f.block(b).insts.iter().any(|&i| f.inst(i).kind.is_phi())
}

/// The header's leading phis as `(phi, preheader incoming, latch
/// incoming)`, or `None` when a phi lacks either incoming.
fn header_phis(
    f: &Function,
    l: &Loop,
    pre: BlockId,
    latch: BlockId,
) -> Option<Vec<(InstId, Value, Value)>> {
    f.block(l.header)
        .insts
        .iter()
        .take_while(|&&i| f.inst(i).kind.is_phi())
        .map(|&p| {
            let InstKind::Phi { incomings } = &f.inst(p).kind else {
                unreachable!()
            };
            let from = |b: BlockId| incomings.iter().find(|(x, _)| *x == b).map(|(_, v)| *v);
            Some((p, from(pre)?, from(latch)?))
        })
        .collect()
}

/// Whether `iv`, the phi of a trip count, is the only phi of `l`'s header.
fn iv_is_only_phi(f: &Function, l: &Loop, iv: InstId) -> bool {
    let mut phis = f
        .block(l.header)
        .insts
        .iter()
        .filter(|&&i| f.inst(i).kind.is_phi());
    phis.next() == Some(&iv) && phis.next().is_none()
}

/// The body block and latch of a loop made of its header, one body block
/// and a latch.
pub(crate) fn single_body(l: &Loop) -> Option<(BlockId, BlockId)> {
    let [latch] = l.latches[..] else { return None };
    if l.blocks.len() != 3 {
        return None;
    }
    let mut rest = l
        .blocks
        .iter()
        .copied()
        .filter(|&b| b != l.header && b != latch);
    let body = rest.next()?;
    rest.next().is_none().then_some((body, latch))
}

/// Replaces the uses of `def` in the blocks outside loop `l` with `with`;
/// returns whether there were any.
fn replace_uses_outside(f: &mut Function, l: &Loop, def: InstId, with: Value) -> bool {
    let mut replaced = false;
    let mut subst = |v: Value| {
        if v == Value::Inst(def) {
            replaced = true;
            with
        } else {
            v
        }
    };
    for b in f.block_ids().collect::<Vec<_>>() {
        if l.contains(b) {
            continue;
        }
        for &uid in &f.block(b).insts.clone() {
            f.inst_mut(uid).kind.map_operands(&mut subst);
        }
        f.block_mut(b).term.map_operands(&mut subst);
    }
    replaced
}

/// Sends `from`, which enters loop `l` at its header, to the loop's `exit`
/// instead (the exit's phis take their header incomings from `from`), and
/// deletes the loop, together with every block `reachable`, the step's
/// reachability, leaves out.
///
/// That is all the blocks unreachable afterwards, and no phi of a
/// reachable block names one of them: `exit` is the only block outside
/// `l` that a block of `l` enters, and it is entered from `from` now.
fn bypass_loop(f: &mut Function, l: &Loop, reachable: &[bool], from: BlockId, exit: BlockId) {
    f.block_mut(from)
        .term
        .map_targets(|t| if t == l.header { exit } else { t });
    f.rename_phi_pred(exit, l.header, from);
    for &b in &l.blocks {
        f.delete_block(b);
    }
    for (b, &reachable) in reachable.iter().enumerate() {
        if !reachable && !f.blocks[b].deleted {
            f.delete_block(BlockId(b as u32));
        }
    }
}

/// `licm`: hoists loop-invariant pure computations to the preheader, and
/// invariant loads when nothing in the loop can write the location and the
/// load's block dominates every exiting block (so it is guaranteed to
/// execute — the property `loop-rotate` establishes for body blocks).
///
/// A loop's membership is one flag per instruction, set for those placed
/// in its blocks and cleared as they are hoisted; a block drops what it
/// hoisted once its scan ends.
pub fn licm(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<CfgLoops>(f, |f, (_, dt, lf)| {
        let mut inside = vec![false; f.insts.len()];
        for l in &lf.loops {
            // Materialize a preheader if the loop lacks one.
            let Some(pre) = l.preheader else {
                ensure_preheader(f, l.header, &l.blocks);
                return true;
            };
            let write_roots = loop_effectful_roots(f, l);
            for &b in &l.blocks {
                for &id in &f.block(b).insts {
                    inside[id.index()] = true;
                }
            }
            let mut hoisted = false;
            for &b in &l.blocks {
                let mut moved = false;
                for i in 0..f.block(b).insts.len() {
                    let id = f.block(b).insts[i];
                    let kind = &f.inst(id).kind;
                    let mut invariant = true;
                    kind.for_each_operand(|v| {
                        invariant &= !matches!(v, Value::Inst(d) if inside[d.index()]);
                    });
                    if !invariant {
                        continue;
                    }
                    let can_hoist = if kind.is_pure() && !kind.is_phi() {
                        true
                    } else if let InstKind::Load { ptr, .. } = kind {
                        // Safe only when the loop cannot write the root and
                        // the load executes on every iteration.
                        let root = mem_root(f, *ptr);
                        let no_writes = match &write_roots {
                            Some(roots) => !roots.iter().any(|r| may_alias(*r, root)),
                            None => false,
                        };
                        let guaranteed = l.exiting.iter().all(|&x| dt.dominates(b, x));
                        no_writes && guaranteed
                    } else {
                        false
                    };
                    if can_hoist {
                        f.block_mut(pre).insts.push(id);
                        inside[id.index()] = false;
                        moved = true;
                    }
                }
                if moved {
                    f.block_mut(b).insts.retain(|id| inside[id.index()]);
                    hoisted = true;
                }
            }
            if hoisted {
                return true;
            }
            for &b in &l.blocks {
                for &id in &f.block(b).insts {
                    inside[id.index()] = false;
                }
            }
        }
        false
    });
    changed | trivial_dce(m, f, false)
}

/// `loop-rotate`: converts while-shaped loops (exit test in the header)
/// into guarded do-while form (exit test in the latch), creating the
/// body-dominates-latch property `licm` and `loop-load-elim` need.
pub fn loop_rotate(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<CfgLoops>(f, |f, (cfg, _, lf)| {
        for l in &lf.loops {
            let [latch] = l.latches[..] else { continue };
            if l.header == latch {
                continue;
            }
            let Some(pre) = l.preheader else { continue };
            // Header must end in the loop's only exit test.
            let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                weight,
            } = f.block(l.header).term.clone()
            else {
                continue;
            };
            let (body_entry, exit) = if l.contains(then_bb) && !l.contains(else_bb) {
                (then_bb, else_bb)
            } else if l.contains(else_bb) && !l.contains(then_bb) {
                (else_bb, then_bb)
            } else {
                continue;
            };
            // Exit must be private to this loop exit and free of phis
            // (rotation changes its predecessor set).
            if private_exit(cfg, l) != Some(exit) || has_phis(f, exit) {
                continue;
            }
            // Latch must fall through to the header unconditionally.
            if !matches!(f.block(latch).term, Terminator::Br(t) if t == l.header) {
                continue;
            }
            // Phis: initial (preheader) and next-iteration (latch) values.
            let Some(phis) = header_phis(f, l, pre, latch) else {
                continue;
            };
            // Header non-phi instructions must be pure (they get cloned).
            let body_insts: Vec<InstId> = f.block(l.header).insts[phis.len()..].to_vec();
            if body_insts
                .iter()
                .any(|&i| !f.inst(i).kind.is_pure() || f.inst(i).kind.is_phi())
            {
                continue;
            }
            let init_map: HashMap<InstId, Value> =
                phis.iter().map(|&(p, init, _)| (p, init)).collect();
            let next_map: HashMap<InstId, Value> =
                phis.iter().map(|&(p, _, next)| (p, next)).collect();

            // Clone the header computation twice: into the preheader
            // (guard) and into the latch (next-iteration test).
            let clone_into = |f: &mut Function,
                              target: BlockId,
                              subst: &HashMap<InstId, Value>,
                              body_insts: &[InstId]|
             -> HashMap<InstId, Value> {
                let mut map: HashMap<InstId, Value> = HashMap::new();
                for &src in body_insts {
                    let mut kind = f.inst(src).kind.clone();
                    let ty = f.inst(src).ty;
                    kind.map_operands(|v| {
                        if let Value::Inst(i) = v {
                            if let Some(s) = subst.get(&i) {
                                return *s;
                            }
                            if let Some(s) = map.get(&i) {
                                return *s;
                            }
                        }
                        v
                    });
                    let nid = f.add_inst(Inst::new(kind, ty));
                    f.block_mut(target).insts.push(nid);
                    map.insert(src, Value::Inst(nid));
                }
                map
            };
            let guard_map = clone_into(f, pre, &init_map, &body_insts);
            let latch_map = clone_into(f, latch, &next_map, &body_insts);

            let subst_val = |v: Value,
                             map: &HashMap<InstId, Value>,
                             phi_map: &HashMap<InstId, Value>|
             -> Value {
                match v {
                    Value::Inst(i) => phi_map
                        .get(&i)
                        .copied()
                        .or_else(|| map.get(&i).copied())
                        .unwrap_or(v),
                    _ => v,
                }
            };
            let guard_cond = subst_val(cond, &guard_map, &init_map);
            let latch_cond = subst_val(cond, &latch_map, &next_map);

            // Live-out fixup: values defined in the header (phis or pure
            // insts) used outside the loop need merging phis in the exit:
            // (def, pre_version, latch_version).
            let du = f.analyse::<Cow<DefUse>>();
            let mut liveouts: Vec<(InstId, Value, Value)> = phis
                .iter()
                .copied()
                .filter(|&(p, ..)| used_outside(&du, l, p))
                .collect();
            for &i in &body_insts {
                if used_outside(&du, l, i) {
                    liveouts.push((
                        i,
                        subst_val(Value::Inst(i), &guard_map, &init_map),
                        subst_val(Value::Inst(i), &latch_map, &next_map),
                    ));
                }
            }
            // Rewire terminators.
            let (g_then, g_else, l_then, l_else) = if then_bb == body_entry {
                (l.header, exit, l.header, exit)
            } else {
                (exit, l.header, exit, l.header)
            };
            f.block_mut(pre).term = Terminator::CondBr {
                cond: guard_cond,
                then_bb: g_then,
                else_bb: g_else,
                weight,
            };
            f.block_mut(latch).term = Terminator::CondBr {
                cond: latch_cond,
                then_bb: l_then,
                else_bb: l_else,
                weight,
            };
            f.block_mut(l.header).term = Terminator::Br(body_entry);

            // Exit now has preds {pre, latch}: build the live-out phis.
            for (def, pre_v, latch_v) in liveouts {
                let ty = f.inst(def).ty;
                let phi = f.add_inst(Inst::new(
                    InstKind::Phi {
                        incomings: vec![(pre, pre_v), (latch, latch_v)],
                    },
                    ty,
                ));
                // Uses outside the loop take the phi, which is placed only
                // afterwards so that its own incomings stay as they are.
                replace_uses_outside(f, l, def, Value::Inst(phi));
                f.block_mut(exit).insts.insert(0, phi);
            }
            return true;
        }
        false
    });
    changed | trivial_dce(m, f, false)
}

/// `indvars`: canonicalizes induction variables — rewrites `i <= C` into
/// `i < C+1` and `i != C` into `i < C` exit tests (when provably
/// equivalent), and replaces loop-exit uses of the induction variable with
/// its computed final value when the trip count is a known constant.
pub fn indvars(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    let (_, _, lf) = f.analyse::<CfgLoops>();
    for l in &lf.loops {
        // Canonicalize the header compare.
        let Terminator::CondBr { cond, .. } = &f.block(l.header).term else {
            continue;
        };
        let Some(cmp_id) = cond.as_inst() else {
            continue;
        };
        let InstKind::Cmp { pred, lhs, rhs } = f.inst(cmp_id).kind.clone() else {
            continue;
        };
        if let Some(c) = rhs.as_const_int() {
            match pred {
                CmpPred::Le if c < i64::MAX => {
                    f.inst_mut(cmp_id).kind = InstKind::Cmp {
                        pred: CmpPred::Lt,
                        lhs,
                        rhs: Value::ConstInt(c + 1, f.value_type(rhs)),
                    };
                    changed = true;
                }
                CmpPred::Ne => {
                    // Only sound when the IV provably starts at or below
                    // the bound and steps by +1.
                    if let Some(phi_id) = lhs.as_inst() {
                        if let InstKind::Phi { incomings } = &f.inst(phi_id).kind {
                            let start_const = incomings
                                .iter()
                                .filter(|(b2, _)| !l.contains(*b2))
                                .filter_map(|(_, v)| v.as_const_int())
                                .next();
                            let step_one = incomings.iter().any(|(b2, v)| {
                                l.contains(*b2)
                                    && v.as_inst()
                                        .map(|nid| {
                                            matches!(
                                                &f.inst(nid).kind,
                                                InstKind::Bin {
                                                    op: BinOp::Add,
                                                    lhs: a,
                                                    rhs: s,
                                                    ..
                                                } if *a == Value::Inst(phi_id)
                                                    && s.as_const_int() == Some(1)
                                            )
                                        })
                                        .unwrap_or(false)
                            });
                            if let Some(s) = start_const {
                                if step_one && s <= c {
                                    f.inst_mut(cmp_id).kind = InstKind::Cmp {
                                        pred: CmpPred::Lt,
                                        lhs,
                                        rhs,
                                    };
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Exit-value rewriting: constant-trip loops expose the IV's final value.
    let (_, _, lf) = f.analyse::<CfgLoops>();
    for l in &lf.loops {
        let Some(tc) = l.trip_count(f) else { continue };
        let Some(trips) = tc.const_trips else {
            continue;
        };
        let Some(start) = tc.start.as_const_int() else {
            continue;
        };
        let final_val = start + (trips as i64) * tc.step;
        let du = f.analyse::<Cow<DefUse>>();
        if !used_outside(&du, l, tc.iv_phi) {
            continue;
        }
        let ty = f.inst(tc.iv_phi).ty;
        changed |= replace_uses_outside(f, l, tc.iv_phi, Value::ConstInt(final_val, ty));
    }
    changed | trivial_dce(m, f, false)
}

/// `loop-unroll`: fully unrolls canonical counted loops with small constant
/// trip counts, substituting the induction variable with constants and
/// threading accumulator phis through the copies.
///
/// The body is numbered once per loop and copied by [`Region::clone_into`];
/// the header phis and the exit compare are replaced in one pass over the
/// function once the last copy is made.
///
/// Loops are tried in forest order, and the first that qualifies is
/// unrolled. Unrolling a loop with no inner loop replaces it by an
/// acyclic chain of copies from its preheader to its only exit, so the
/// other loops stay as a fresh analysis would find them: same headers,
/// edges and order, and no new loop. The one difference is the body of
/// each enclosing loop, where the copies take the loop's place, provided
/// the exit lies inside its parent; the step then updates those bodies
/// and tries the loops again from the first, against the current IR and
/// fresh def-use chains, instead of rebuilding the CFG, dominator tree
/// and loop forest. Any other unroll ends the step.
pub fn loop_unroll(m: &Module, f: &mut Body) -> bool {
    let mut unrolled_any = false;
    let changed = until_stable::<CfgLoops>(f, |f, (cfg, _, lf)| {
        // The forest, copied once a loop is unrolled within the step.
        let mut forest: Cow<[Loop]> = Cow::Borrowed(&lf.loops);
        let mut unrolled = vec![false; forest.len()];
        // Built on the first candidate that needs it, and again after each
        // unroll.
        let mut du: Option<Cow<DefUse>> = None;
        let mut i = 0;
        while i < forest.len() {
            i += 1;
            let l = &forest[i - 1];
            if unrolled[i - 1] {
                continue;
            }
            let Some(tc) = l.trip_count(f) else { continue };
            let Some(trips) = tc.const_trips else {
                continue;
            };
            let size: usize = l.blocks.iter().map(|&b| f.block(b).insts.len()).sum();
            if trips > UNROLL_MAX_TRIPS || trips as usize * size > UNROLL_BUDGET {
                continue;
            }
            let [latch] = l.latches[..] else { continue };
            // The latch must fall through to the header unconditionally —
            // in a nested loop the latch can simultaneously be an inner
            // loop's header, whose conditional terminator must survive.
            if !matches!(f.block(latch).term, Terminator::Br(t) if t == l.header) {
                continue;
            }
            let Some(pre) = l.preheader else { continue };
            let Some(exit) = private_exit(cfg, l) else {
                continue;
            };
            // Header: phis + the exit compare only.
            let Some(phis) = header_phis(f, l, pre, latch) else {
                continue;
            };
            if f.block(l.header).insts[phis.len()..] != [tc.cmp] {
                continue;
            }
            // The exit compare must feed only the header terminator;
            // anything else would dangle after the header is deleted.
            let uses = du.get_or_insert_with(|| f.analyse());
            if !uses
                .uses_of(tc.cmp)
                .iter()
                .all(|u| matches!(u, UseSite::Term(b) if *b == l.header))
            {
                continue;
            }
            // No values from non-header loop blocks may be used outside
            // (header phis get their final values below).
            let body_blocks = l.blocks.iter().filter(|&&b| b != l.header);
            if defines_live_out(f, uses, l, body_blocks) {
                continue;
            }

            // Body region: loop blocks minus header, entered at the
            // header's in-loop successor.
            let Terminator::CondBr {
                then_bb, else_bb, ..
            } = f.block(l.header).term
            else {
                continue;
            };
            let body_entry = if l.contains(then_bb) {
                then_bb
            } else {
                else_bb
            };
            if body_entry == l.header {
                continue; // self-loop; nothing to unroll structurally
            }
            let blocks: Vec<BlockId> = l
                .blocks
                .iter()
                .copied()
                .filter(|&b| b != l.header)
                .collect();
            let region = Region::new(f, &blocks);
            let first_copy = f.blocks.len() as u32;

            // Per-phi current value, starting with the preheader incoming,
            // in the order of `phis`.
            let mut cur: Vec<Value> = phis.iter().map(|&(_, init, _)| init).collect();
            let phi_index = |v: Value| phis.iter().position(|&(p, ..)| v == Value::Inst(p));
            let current = |cur: &[Value], v: Value| phi_index(v).map_or(v, |k| cur[k]);

            let mut link = pre; // block that branches into the next copy
            for _ in 0..trips {
                let copy = region.clone_into(f);
                // Header-phi uses in the copy take the current values, and
                // its phis that named the header as a pred come from
                // `link`.
                for &b in &blocks {
                    let nb = region.block(copy, b).expect("a region block");
                    let Function {
                        blocks: arena_blocks,
                        insts,
                        ..
                    } = &mut **f;
                    let block = &mut arena_blocks[nb.index()];
                    for &nid in &block.insts {
                        insts[nid.index()].kind.map_operands(|v| current(&cur, v));
                    }
                    block.term.map_operands(|v| current(&cur, v));
                    f.rename_phi_pred(nb, l.header, link);
                }
                // Link the previous block to this copy's entry.
                let entry_copy = region.block(copy, body_entry).expect("a region block");
                f.block_mut(link)
                    .term
                    .map_targets(|t| if t == l.header { entry_copy } else { t });
                // The copy's latch ends the iteration.
                let latch_copy = region.block(copy, latch).expect("a region block");
                f.block_mut(latch_copy).term = Terminator::Br(l.header); // placeholder; fixed next loop or at the end
                link = latch_copy;
                // Advance phi values to the latch incomings, remapped into
                // this copy.
                cur = phis
                    .iter()
                    .map(|&(_, _, nv)| match (phi_index(nv), nv) {
                        (Some(k), _) => cur[k],
                        (None, Value::Inst(i)) => region.inst(copy, i).map_or(nv, Value::Inst),
                        (None, _) => nv,
                    })
                    .collect();
            }
            // Uses of header phis → final values; of the compare → false
            // (loop exited): in order, as one replacement each in turn.
            let mut finals = Replacements::new(f);
            for (&(p, ..), &fv) in phis.iter().zip(&cur) {
                finals.record(p, fv);
            }
            finals.record(tc.cmp, Value::bool(false));
            finals.apply(f);
            // The last copy leaves for the exit, and the old loop goes.
            bypass_loop(f, l, &cfg.reachable, link, exit);
            unrolled_any = true;
            let innermost = forest.iter().all(|o| o.parent != Some(i - 1));
            let exit_inside = l.parent.is_none_or(|p| forest[p].contains(exit));
            if !(innermost && exit_inside) {
                return true;
            }
            // The copies replace the loop in the bodies around it.
            let (gone, mut parent) = (l.blocks.clone(), l.parent);
            let loops = forest.to_mut();
            while let Some(p) = parent {
                let around = &mut loops[p];
                around.blocks.retain(|b| gone.binary_search(b).is_err());
                around
                    .blocks
                    .extend((first_copy..f.blocks.len() as u32).map(BlockId));
                parent = around.parent;
            }
            unrolled[i - 1] = true;
            du = None;
            i = 0;
        }
        false
    });
    changed | unrolled_any | trivial_dce(m, f, false)
}

/// `loop-deletion`: removes loops with no observable effects — no stores,
/// no calls, no loop-defined values used outside — and a provably finite
/// trip count.
pub fn loop_deletion(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<CfgLoops>(f, |f, (cfg, _, lf)| {
        for l in &lf.loops {
            if l.trip_count(f).is_none() {
                continue; // cannot prove termination
            }
            let Some(pre) = l.preheader else { continue };
            let Some(exit) = private_exit(cfg, l) else {
                continue;
            };
            // No side effects at all inside.
            let effect_free = l.blocks.iter().all(|&b| {
                f.block(b)
                    .insts
                    .iter()
                    .all(|&id| !f.inst(id).kind.has_side_effects())
            });
            if !effect_free {
                continue;
            }
            // No loop value used outside.
            let du = f.analyse::<Cow<DefUse>>();
            if defines_live_out(f, &du, l, l.blocks.iter()) {
                continue;
            }
            // Exit phis from the header must reference invariant values.
            let mut ok = true;
            for &id in &f.block(exit).insts.clone() {
                if let InstKind::Phi { incomings } = &f.inst(id).kind {
                    for (p, v) in incomings {
                        if *p == l.header && !is_invariant(f, l, *v) {
                            ok = false;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            bypass_loop(f, l, &cfg.reachable, pre, exit);
            return true;
        }
        false
    });
    changed | trivial_dce(m, f, false)
}

/// `loop-idiom`: recognizes memset loops — a canonical counted loop whose
/// body only stores a loop-invariant value at `base + iv` — and replaces
/// them with a `memset` intrinsic; the analogous load/store pattern
/// becomes `memcpy`.
pub fn loop_idiom(m: &Module, f: &mut Body) -> bool {
    let changed = until_stable::<CfgLoops>(f, |f, (cfg, _, lf)| {
        for l in &lf.loops {
            let Some(tc) = l.trip_count(f) else { continue };
            if tc.step != 1 {
                continue;
            }
            let Some(pre) = l.preheader else { continue };
            let Some((body, latch)) = single_body(l) else {
                continue;
            };
            let Some(exit) = private_exit(cfg, l) else {
                continue;
            };
            // Latch must only advance the IV.
            let latch_ok = f.block(latch).insts.iter().all(|&id| {
                matches!(&f.inst(id).kind, InstKind::Bin { op: BinOp::Add, lhs, .. }
                    if *lhs == Value::Inst(tc.iv_phi))
            });
            if !latch_ok {
                continue;
            }
            // Body: gep(base, iv) + store(gep, invariant) [memset], or
            // plus gep(src, iv) + load [memcpy].
            let ids = f.block(body).insts.clone();
            let mut geps: HashMap<InstId, Value> = HashMap::new(); // gep → base
            let mut the_store: Option<(Value, Value)> = None; // (gep result, value)
            let mut the_load: Option<(InstId, Value)> = None; // (load id, gep result)
            let mut ok = true;
            for &id in &ids {
                match &f.inst(id).kind {
                    InstKind::Gep { base, offset } => {
                        if *offset == Value::Inst(tc.iv_phi) && is_invariant(f, l, *base) {
                            geps.insert(id, *base);
                        } else {
                            ok = false;
                        }
                    }
                    InstKind::Store { ptr, value, .. } => {
                        if the_store.is_some() {
                            ok = false;
                        }
                        the_store = Some((*ptr, *value));
                    }
                    InstKind::Load { ptr, .. } => {
                        if the_load.is_some() {
                            ok = false;
                        }
                        the_load = Some((id, *ptr));
                    }
                    _ => ok = false,
                }
            }
            let Some((sptr, sval)) = the_store else {
                continue;
            };
            if !ok {
                continue;
            }
            let Some(dst_base) = sptr.as_inst().and_then(|i| geps.get(&i)).copied() else {
                continue;
            };
            // Header phis: only the IV (an accumulator would change value).
            if !iv_is_only_phi(f, l, tc.iv_phi) {
                continue;
            }
            // No loop value used outside, and no exit phis fed by the loop.
            let du = f.analyse::<Cow<DefUse>>();
            if defines_live_out(f, &du, l, l.blocks.iter()) || has_phis(f, exit) {
                continue;
            }

            let intrinsic = match (the_load, sval) {
                (None, v) if is_invariant(f, l, v) => {
                    // memset(base + start, v, bound - start)
                    Some((dst_base, None, v))
                }
                (Some((lid, lptr)), v) if v == Value::Inst(lid) => {
                    let src_base = lptr.as_inst().and_then(|i| geps.get(&i)).copied();
                    src_base.map(|sb| (dst_base, Some(sb), Value::i64(0)))
                }
                _ => None,
            };
            let Some((dst_base, src_base, fill)) = intrinsic else {
                continue;
            };
            // Overlap safety for memcpy: forward cell-by-cell copy is what
            // the loop did, and our memcpy is forward too, so overlap is
            // preserved; still require distinct known roots when both are
            // known to avoid exotic aliasing through unknown pointers.
            if let Some(sb) = src_base {
                let (dr, sr) = (mem_root(f, dst_base), mem_root(f, sb));
                if dr == MemRoot::Unknown && sr == MemRoot::Unknown {
                    continue;
                }
            }

            // Materialize in the preheader: count = bound - start.
            let ty = Type::I64;
            let count = f.add_inst(Inst::new(
                InstKind::Bin {
                    op: BinOp::Sub,
                    lhs: tc.bound,
                    rhs: tc.start,
                    width: 1,
                },
                ty,
            ));
            let dptr = f.add_inst(Inst::new(
                InstKind::Gep {
                    base: dst_base,
                    offset: tc.start,
                },
                Type::Ptr,
            ));
            f.block_mut(pre).insts.push(count);
            f.block_mut(pre).insts.push(dptr);
            let intr = match src_base {
                None => InstKind::Memset {
                    ptr: Value::Inst(dptr),
                    value: fill,
                    count: Value::Inst(count),
                },
                Some(sb) => {
                    let sptr = f.add_inst(Inst::new(
                        InstKind::Gep {
                            base: sb,
                            offset: tc.start,
                        },
                        Type::Ptr,
                    ));
                    f.block_mut(pre).insts.push(sptr);
                    InstKind::Memcpy {
                        dst: Value::Inst(dptr),
                        src: Value::Inst(sptr),
                        count: Value::Inst(count),
                    }
                }
            };
            let intr_id = f.add_inst(Inst::new(intr, Type::Void));
            f.block_mut(pre).insts.push(intr_id);
            // Bypass the loop.
            bypass_loop(f, l, &cfg.reachable, pre, exit);
            return true;
        }
        false
    });
    changed | trivial_dce(m, f, false)
}

/// `loop-unswitch`: a loop branching on a loop-invariant condition is
/// duplicated — one specialized copy per branch direction — and the
/// preheader selects the right copy, removing the branch from the hot
/// path.
pub fn loop_unswitch(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    let (_, _, lf) = f.analyse::<CfgLoops>();
    for l in &lf.loops {
        let size: usize = l.blocks.iter().map(|&b| f.block(b).insts.len()).sum();
        if size > UNSWITCH_BUDGET {
            continue;
        }
        let Some(pre) = l.preheader else { continue };
        // Exits must have no phis and no loop value may be used outside.
        if l.exits.iter().any(|&e| has_phis(f, e)) {
            continue;
        }
        let du = f.analyse::<Cow<DefUse>>();
        if defines_live_out(f, &du, l, l.blocks.iter()) {
            continue;
        }
        // Find an invariant conditional branch inside the loop (not the
        // loop-exit test in the header).
        let mut target: Option<(BlockId, Value, BlockId, BlockId)> = None;
        for &b in &l.blocks {
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } = &f.block(b).term
            {
                if is_invariant(f, l, *cond)
                    && l.contains(*then_bb)
                    && l.contains(*else_bb)
                    && then_bb != else_bb
                {
                    target = Some((b, *cond, *then_bb, *else_bb));
                    break;
                }
            }
        }
        let Some((cb, cond, then_bb, else_bb)) = target else {
            continue;
        };
        // Clone the loop; original becomes the cond-true version.
        let (region, copy) = clone_region(f, &l.blocks);
        let map = |b: BlockId| region.block(copy, b).expect("a loop block");
        // Original: branch always-then. Clone: always-else. The dropped
        // edges must disappear from the target phis too.
        f.block_mut(cb).term = Terminator::Br(then_bb);
        f.remove_phi_edges(else_bb, cb);
        let cb_clone = map(cb);
        let else_clone = map(else_bb);
        let then_clone = map(then_bb);
        f.block_mut(cb_clone).term = Terminator::Br(else_clone);
        f.remove_phi_edges(then_clone, cb_clone);
        // Preheader dispatches on the invariant condition.
        let header_clone = map(l.header);
        // Clone phis in header_clone still reference `pre` as pred — fine.
        f.block_mut(pre).term = Terminator::CondBr {
            cond,
            then_bb: l.header,
            else_bb: header_clone,
            weight: None,
        };
        changed = true;
        break;
    }
    if changed {
        remove_unreachable_blocks(f);
        trivial_dce(m, f, false);
    }
    changed
}

/// `loop-sink`: moves computations from the preheader into the loop header
/// when their only uses are inside the loop. This is profitable when the
/// loop is rarely entered (LLVM guards it with profile data; here it is an
/// unconditional trade-off the phase-selection policy must learn to place).
pub fn loop_sink(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    let (_, _, lf) = f.analyse::<CfgLoops>();
    for l in &lf.loops {
        let Some(pre) = l.preheader else { continue };
        let du = f.analyse::<Cow<DefUse>>();
        let ids = f.block(pre).insts.clone();
        for id in ids.into_iter().rev() {
            let kind = &f.inst(id).kind;
            if !kind.is_pure() || kind.is_phi() {
                continue;
            }
            let uses = du.uses_of(id);
            if uses.is_empty() {
                continue;
            }
            let all_inside = uses.iter().all(|u| l.contains(u.block()));
            // Operands must not be defined later in the preheader… they are
            // earlier by construction; sinking to the header keeps order.
            if all_inside {
                f.remove_from_block(pre, id);
                // Insert after the header's phis.
                let pos = f
                    .block(l.header)
                    .insts
                    .iter()
                    .position(|&i| !f.inst(i).kind.is_phi())
                    .unwrap_or(f.block(l.header).insts.len());
                f.block_mut(l.header).insts.insert(pos, id);
                changed = true;
            }
        }
    }
    changed | trivial_dce(m, f, false)
}

/// `loop-load-elim`: forwards stored values to loads of the same address
/// within a loop iteration (a loop-focused subset of `gvn`, cheap enough
/// to run repeatedly between other loop phases). Each loop block, in
/// ascending order, runs the block-local forwarding step of `early-cse`;
/// a block's replacements are applied before the next block is scanned,
/// so later blocks see rewritten pointers.
pub fn loop_load_elim(m: &Module, f: &mut Body) -> bool {
    let (_, _, lf) = f.analyse::<CfgLoops>();
    // Blocks in any loop, ascending.
    let mut loop_blocks: Vec<BlockId> = lf
        .loops
        .iter()
        .flat_map(|l| l.blocks.iter().copied())
        .collect();
    loop_blocks.sort_unstable();
    loop_blocks.dedup();
    let mut replaced = Replacements::new(f);
    let mut changed = false;
    for b in loop_blocks {
        let mut avail = Available::default();
        let mut recorded = false;
        for &id in &f.block(b).insts {
            if let Some(v) = forwarding_step(m, f, &mut avail, id) {
                replaced.record(id, replaced.resolve(v));
                recorded = true;
            }
        }
        if recorded {
            changed |= replaced.apply(f);
        }
    }
    changed | trivial_dce(m, f, false)
}

/// `loop-distribute`: splits a counted loop whose single body block writes
/// two independent, non-aliasing memory roots into two sequential loops —
/// the enabling transform for vectorizing one of the halves.
pub fn loop_distribute(m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    let (cfg, _dt, lf) = f.analyse::<CfgLoops>();
    for l in &lf.loops {
        let Some(tc) = l.trip_count(f) else { continue };
        let Some(pre) = l.preheader else { continue };
        let Some((body, _)) = single_body(l) else {
            continue;
        };
        let Some(exit) = private_exit(&cfg, l) else {
            continue;
        };
        // Header: only the IV phi + compare.
        if !iv_is_only_phi(f, l, tc.iv_phi) {
            continue;
        }
        // No loop value used outside; exit has no phis.
        let du = f.analyse::<Cow<DefUse>>();
        if defines_live_out(f, &du, l, l.blocks.iter()) || has_phis(f, exit) {
            continue;
        }
        // Partition body instructions into two independent store chains.
        let ids = f.block(body).insts.clone();
        let stores: Vec<InstId> = ids
            .iter()
            .copied()
            .filter(|&id| matches!(f.inst(id).kind, InstKind::Store { .. }))
            .collect();
        if stores.len() != 2 {
            continue;
        }
        if ids.iter().any(|&id| {
            matches!(
                f.inst(id).kind,
                InstKind::Call { .. } | InstKind::Memset { .. } | InstKind::Memcpy { .. }
            )
        }) {
            continue;
        }
        // Compute the backward slice of each store within the body.
        let slice = |store: InstId, f: &Function| -> HashSet<InstId> {
            let mut s = HashSet::new();
            let mut work = vec![store];
            while let Some(id) = work.pop() {
                if !s.insert(id) {
                    continue;
                }
                f.inst(id).kind.for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        if ids.contains(&d) {
                            work.push(d);
                        }
                    }
                });
            }
            s
        };
        let s1 = slice(stores[0], f);
        let s2 = slice(stores[1], f);
        if !s1.is_disjoint(&s2) {
            continue; // shared computation; keep fused
        }
        if s1.len() + s2.len() != ids.len() {
            continue; // leftover insts (e.g. loads feeding nothing)
        }
        // Store roots must be distinct and known.
        let root_of = |sid: InstId, f: &Function| -> MemRoot {
            match &f.inst(sid).kind {
                InstKind::Store { ptr, .. } => mem_root(f, *ptr),
                _ => MemRoot::Unknown,
            }
        };
        let (r1, r2) = (root_of(stores[0], f), root_of(stores[1], f));
        if r1 == MemRoot::Unknown || r2 == MemRoot::Unknown || may_alias(r1, r2) {
            continue;
        }
        // Loads in each slice must not read the other slice's store root
        // (no cross-loop dependence after distribution).
        let loads_ok = |s: &HashSet<InstId>, other_root: MemRoot, f: &Function| -> bool {
            s.iter().all(|&id| match &f.inst(id).kind {
                InstKind::Load { ptr, .. } => !may_alias(mem_root(f, *ptr), other_root),
                _ => true,
            })
        };
        if !loads_ok(&s1, r2, f) || !loads_ok(&s2, r1, f) {
            continue;
        }
        // Also no slice may load its *own* store root (cross-iteration
        // dependence would make reordering iterations unsound — here we
        // keep iteration order per loop, but loads of the other root were
        // the real hazard; self-root loads are fine).

        // Clone the whole loop; original keeps slice 1, clone keeps 2.
        let (region, copy) = clone_region(f, &l.blocks);
        // Original body: drop slice-2 instructions.
        for &id in &ids {
            if s2.contains(&id) {
                f.remove_from_block(body, id);
            }
        }
        // Clone body: drop slice-1 clones.
        let body_clone = region.block(copy, body).expect("a loop block");
        for &id in &ids {
            if s1.contains(&id) {
                if let Some(nid) = region.inst(copy, id) {
                    f.remove_from_block(body_clone, nid);
                }
            }
        }
        // Chain: original exit edge → clone header; clone keeps exit.
        let header_clone = region.block(copy, l.header).expect("a loop block");
        let mut term = f.block(l.header).term.clone();
        term.map_targets(|t| if t == exit { header_clone } else { t });
        f.block_mut(l.header).term = term;
        // The clone's header phis reference `pre` (cloned as-is); retarget
        // to the original header (which now acts as the clone's preheader).
        f.rename_phi_pred(header_clone, pre, l.header);
        changed = true;
        break;
    }
    if changed {
        remove_unreachable_blocks(f);
        trivial_dce(m, f, false);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::all_insts;
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal};

    fn exec(m: &Module, name: &str, args: &[RtVal]) -> Option<RtVal> {
        let fid = m.find_function(name).unwrap();
        Interpreter::new(m).run(fid, args).unwrap().ret
    }

    /// sum += g[0] * i — the `g[0]` load is invariant but only hoistable
    /// after rotation.
    fn invariant_load_loop() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_const_global("g", vec![3]);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let k = b.load(b.global_addr(g), Type::I64);
                let t = b.mul(k, i);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, t);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn licm_hoists_pure_invariant() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
                let inv = b.mul(b.param(1), b.param(1)); // invariant
                let c = b.load(acc, Type::I64);
                let n = b.add(c, inv);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(licm(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(
            exec(&m, "f", &[RtVal::I(4), RtVal::I(3)]),
            Some(RtVal::I(36))
        );
        // The multiply now executes once, not per iteration.
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m)
            .run(fid, &[RtVal::I(100), RtVal::I(2)])
            .unwrap();
        assert_eq!(out.counts.int_mul, 1);
    }

    #[test]
    fn rotate_enables_load_hoisting() {
        // Before rotation licm cannot hoist the load (body does not
        // dominate the exiting header); after rotation it can.
        let mut m1 = invariant_load_loop();
        let mc = m1.clone();
        licm(&mc, &mut Body::from(&mut m1.functions[0]));
        verify(&m1).unwrap();
        let f1 = m1.find_function("f").unwrap();
        let loads_unrotated = Interpreter::new(&m1)
            .run(f1, &[RtVal::I(50)])
            .unwrap()
            .counts
            .load;

        let mut m2 = invariant_load_loop();
        let mc2 = m2.clone();
        crate::memory::mem2reg(&mc2, &mut Body::from(&mut m2.functions[0]));
        assert!(loop_rotate(&mc2, &mut Body::from(&mut m2.functions[0])));
        verify(&m2).unwrap();
        licm(&mc2, &mut Body::from(&mut m2.functions[0]));
        verify(&m2).unwrap();
        let f2 = m2.find_function("f").unwrap();
        let out = Interpreter::new(&m2).run(f2, &[RtVal::I(50)]).unwrap();
        assert_eq!(out.ret, Some(RtVal::I(3 * (49 * 50 / 2))));
        assert!(
            out.counts.load < loads_unrotated,
            "rotation+licm must reduce dynamic loads ({} vs {})",
            out.counts.load,
            loads_unrotated
        );
    }

    #[test]
    fn rotate_preserves_zero_trip_loops() {
        let mut m = invariant_load_loop();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        loop_rotate(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(0)]), Some(RtVal::I(0)));
        assert_eq!(exec(&m, "f", &[RtVal::I(-3)]), Some(RtVal::I(0)));
        assert_eq!(exec(&m, "f", &[RtVal::I(1)]), Some(RtVal::I(0)));
        assert_eq!(exec(&m, "f", &[RtVal::I(3)]), Some(RtVal::I(9)));
    }

    #[test]
    fn unroll_constant_trip_loop() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.const_i64(8), 1, |b, i| {
                let c = b.load(acc, Type::I64);
                let t = b.mul(i, b.param(0));
                let n = b.add(c, t);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_unroll(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(3)]), Some(RtVal::I(84)));
        // No branches left: the loop is gone.
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(3)]).unwrap();
        assert_eq!(out.counts.branch, 0, "fully unrolled");
    }

    /// Two loops in a row, the second running up to the first's final
    /// counter: it has a constant trip count only once the first, which
    /// never runs, is unrolled and its counter replaced by its initial
    /// value. The forest lists the second loop first (its latch comes
    /// first in reverse post-order), so the step must try the forest again
    /// from the start after an unroll, as a re-analysis would.
    #[test]
    fn unrolling_a_loop_can_qualify_one_before_it_in_the_forest() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            let mut counter = None;
            b.for_loop(b.const_i64(0), b.const_i64(0), 1, |b, i| {
                counter = Some(i);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, i);
                b.store(acc, n);
            });
            let bound = counter.expect("the first loop's counter");
            b.for_loop(b.const_i64(0), bound, 1, |b, j| {
                let c = b.load(acc, Type::I64);
                let n = b.mul(c, j);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        let expected = exec(&m, "f", &[]);
        let mc = m.clone();
        let mut old = m.clone();
        assert!(loop_unroll(&mc, &mut Body::from(&mut m.functions[0])));
        assert!(oracle::loop_unroll(
            &mc,
            &mut Body::from(&mut old.functions[0])
        ));
        assert!(m == old, "differs from re-analysing after every unroll");
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[]), expected);
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[]).unwrap();
        assert_eq!(out.counts.branch, 0, "both loops unrolled");
    }

    #[test]
    fn unroll_zero_trip_loop() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.param(0));
            b.for_loop(b.const_i64(5), b.const_i64(5), 1, |b, _i| {
                b.store(acc, b.const_i64(99));
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        loop_unroll(&mc, &mut Body::from(&mut m.functions[0]));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(7)]), Some(RtVal::I(7)));
    }

    #[test]
    fn deletion_removes_effect_free_loop() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let _x = b.mul(i, i); // dead work
            });
            b.ret(Some(b.const_i64(1)));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(loop_deletion(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(1000)]), Some(RtVal::I(1)));
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(1000)]).unwrap();
        assert!(out.counts.branch < 3, "loop gone: {:?}", out.counts.branch);
    }

    #[test]
    fn idiom_recognizes_memset_loop() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("buf", 64);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let p = b.gep(b.global_addr(g), i);
                b.store(p, b.const_i64(7));
            });
            let p = b.gep(b.global_addr(g), b.const_i64(5));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_idiom(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Memset { .. })));
        assert_eq!(exec(&m, "f", &[RtVal::I(10)]), Some(RtVal::I(7)));
        assert_eq!(exec(&m, "f", &[RtVal::I(0)]), Some(RtVal::I(0)));
    }

    #[test]
    fn idiom_recognizes_memcpy_loop() {
        let mut mb = ModuleBuilder::new("t");
        let src = mb.add_const_global("src", vec![9, 8, 7, 6]);
        let dst = mb.add_global("dst", 4);
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.const_i64(4), 1, |b, i| {
                let sp = b.gep(b.global_addr(src), i);
                let v = b.load(sp, Type::I64);
                let dp = b.gep(b.global_addr(dst), i);
                b.store(dp, v);
            });
            let p = b.gep(b.global_addr(dst), b.const_i64(2));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_idiom(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let f = &m.functions[0];
        assert!(all_insts(f)
            .iter()
            .any(|(_, id)| matches!(f.inst(*id).kind, InstKind::Memcpy { .. })));
        assert_eq!(exec(&m, "f", &[]), Some(RtVal::I(7)));
    }

    #[test]
    fn unswitch_hoists_invariant_branch() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("out", 1);
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let flag = b.cmp(CmpPred::Gt, b.param(1), b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                b.if_then(flag, |b| {
                    let cur = b.load(b.global_addr(g), Type::I64);
                    let n = b.add(cur, i);
                    b.store(b.global_addr(g), n);
                });
            });
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_unswitch(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(
            exec(&m, "f", &[RtVal::I(5), RtVal::I(1)]),
            Some(RtVal::I(10))
        );
        // Reset global between runs: rebuild module.
        let mut m2 = mb_rebuild();
        let mc2 = m2.clone();
        crate::memory::mem2reg(&mc2, &mut Body::from(&mut m2.functions[0]));
        loop_unswitch(&mc2, &mut Body::from(&mut m2.functions[0]));
        assert_eq!(
            exec(&m2, "f", &[RtVal::I(5), RtVal::I(-1)]),
            Some(RtVal::I(0))
        );

        fn mb_rebuild() -> Module {
            let mut mb = ModuleBuilder::new("t");
            let g = mb.add_global("out", 1);
            mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
            {
                let mut b = mb.body();
                let flag = b.cmp(CmpPred::Gt, b.param(1), b.const_i64(0));
                b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                    b.if_then(flag, |b| {
                        let cur = b.load(b.global_addr(g), Type::I64);
                        let n = b.add(cur, i);
                        b.store(b.global_addr(g), n);
                    });
                });
                let v = b.load(b.global_addr(g), Type::I64);
                b.ret(Some(v));
            }
            mb.finish_function();
            mb.build()
        }
    }

    #[test]
    fn sink_moves_preheader_work_into_loop() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("out", 1);
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let inv = b.mul(b.param(1), b.param(1)); // used only in loop
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, _i| {
                let cur = b.load(b.global_addr(g), Type::I64);
                let n = b.add(cur, inv);
                b.store(b.global_addr(g), n);
            });
            let v = b.load(b.global_addr(g), Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(loop_sink(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(
            exec(&m, "f", &[RtVal::I(3), RtVal::I(2)]),
            Some(RtVal::I(12))
        );
        // The multiply now runs per iteration (cost moved into the loop).
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m)
            .run(fid, &[RtVal::I(10), RtVal::I(2)])
            .unwrap();
        assert!(out.counts.int_mul >= 10);
    }

    #[test]
    fn load_elim_forwards_in_iteration() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("buf", 8);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let off = b.and(i, b.const_i64(7));
                let p = b.gep(b.global_addr(g), off);
                b.store(p, i);
                let v = b.load(p, Type::I64); // forwardable
                let c = b.load(acc, Type::I64);
                let n = b.add(c, v);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(loop_load_elim(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(10)]), Some(RtVal::I(45)));
    }

    /// `a = load p` is forwarded from `store p, i`, and `b = load q` from
    /// `store q, a`: the value recorded for `b` must be `i`, not the
    /// removed `a`, or the output uses an unplaced value.
    #[test]
    fn load_elim_resolves_a_stored_forwarded_load() {
        let mut mb = ModuleBuilder::new("t");
        let gp = mb.add_global("p", 8);
        let gq = mb.add_global("q", 8);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let off = b.and(i, b.const_i64(7));
                let p = b.gep(b.global_addr(gp), off);
                let q = b.gep(b.global_addr(gq), off);
                b.store(p, i);
                let a = b.load(p, Type::I64);
                b.store(q, a);
                let v = b.load(q, Type::I64);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, v);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let mut m = mb.build();
        let outcome = crate::PassManager::new()
            .run_phase_sandboxed(&mut m, "loop-load-elim", None, "loop-load-elim")
            .unwrap();
        assert_eq!(outcome, crate::PhaseOutcome::Changed);
        verify(&m).unwrap();
        let f = &m.functions[0];
        let analyses = mlcomp_ir::analysis::FunctionAnalyses::default();
        let (_, _, lf) = analyses.loop_forest(f);
        let global_loads = lf.loops[0]
            .blocks
            .iter()
            .flat_map(|&b| &f.block(b).insts)
            .filter(|&&id| match f.inst(id).kind {
                InstKind::Load { ptr, .. } => matches!(mem_root(f, ptr), MemRoot::Global(_)),
                _ => false,
            })
            .count();
        assert_eq!(global_loads, 0, "both loads leave the loop body");
        assert_eq!(exec(&m, "f", &[RtVal::I(10)]), Some(RtVal::I(45)));
    }

    #[test]
    fn distribute_splits_independent_chains() {
        let mut mb = ModuleBuilder::new("t");
        let g1 = mb.add_global("a", 32);
        let g2 = mb.add_global("b", 32);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let p1 = b.gep(b.global_addr(g1), i);
                let v1 = b.mul(i, b.const_i64(2));
                b.store(p1, v1);
                let p2 = b.gep(b.global_addr(g2), i);
                let v2 = b.mul(i, b.const_i64(3));
                b.store(p2, v2);
            });
            let pa = b.gep(b.global_addr(g1), b.const_i64(4));
            let pb = b.gep(b.global_addr(g2), b.const_i64(4));
            let va = b.load(pa, Type::I64);
            let vb = b.load(pb, Type::I64);
            let s = b.add(va, vb);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_distribute(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        assert_eq!(exec(&m, "f", &[RtVal::I(8)]), Some(RtVal::I(8 + 12)));
        // Two loops now: twice the backward branches.
        let (_, _, lf) = Body::from(&mut m.functions[0]).analyse::<CfgLoops>();
        assert_eq!(lf.loops.len(), 2);
    }
}

/// `licm` as it was before loop membership became one flag per
/// instruction, kept as a differential oracle: each operand's invariance
/// is decided by searching every block of the loop. And `loop-unroll` as
/// it was before the body was numbered once per loop: hash-map clones, one
/// `replace_all_uses` per header phi, and a `Cfg` per bypassed loop.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{
        defines_live_out, header_phis, is_invariant, loop_effectful_roots, private_exit,
        UNROLL_BUDGET, UNROLL_MAX_TRIPS,
    };
    use crate::util::{
        ensure_preheader, may_alias, mem_root, remove_unreachable_blocks, trivial_dce, until_stable,
    };
    use mlcomp_ir::analysis::{Body, CfgLoops, DefUse, Loop, UseSite};
    use mlcomp_ir::{BlockId, Function, InstId, InstKind, Module, Terminator, Value};
    use std::borrow::Cow;
    use std::collections::HashMap;

    pub(crate) fn licm(m: &Module, f: &mut Body) -> bool {
        let changed = until_stable::<CfgLoops>(f, |f, (_, dt, lf)| {
            for l in &lf.loops {
                // Materialize a preheader if the loop lacks one.
                let Some(pre) = l.preheader else {
                    ensure_preheader(f, l.header, &l.blocks);
                    return true;
                };
                let write_roots = loop_effectful_roots(f, l);
                let mut hoisted = false;
                for &b in &l.blocks {
                    let ids = f.block(b).insts.clone();
                    for id in ids {
                        let kind = f.inst(id).kind.clone();
                        let mut invariant = true;
                        kind.for_each_operand(|v| invariant &= is_invariant(f, l, v));
                        if !invariant {
                            continue;
                        }
                        let can_hoist = if kind.is_pure() && !kind.is_phi() {
                            true
                        } else if let InstKind::Load { ptr, .. } = &kind {
                            // Safe only when the loop cannot write the root and
                            // the load executes on every iteration.
                            let root = mem_root(f, *ptr);
                            let no_writes = match &write_roots {
                                Some(roots) => !roots.iter().any(|r| may_alias(*r, root)),
                                None => false,
                            };
                            let guaranteed = l.exiting.iter().all(|&x| dt.dominates(b, x));
                            no_writes && guaranteed
                        } else {
                            false
                        };
                        if can_hoist {
                            f.remove_from_block(b, id);
                            f.block_mut(pre).insts.push(id);
                            hoisted = true;
                        }
                    }
                }
                if hoisted {
                    return true;
                }
            }
            false
        });
        changed | trivial_dce(m, f, false)
    }

    /// `loop-unroll`: fully unrolls canonical counted loops with small constant
    /// trip counts, substituting the induction variable with constants and
    /// threading accumulator phis through the copies.
    pub(crate) fn loop_unroll(m: &Module, f: &mut Body) -> bool {
        let changed = until_stable::<CfgLoops>(f, |f, (cfg, _, lf)| {
            // Built on the first candidate that needs it: `f` stays unchanged
            // until an unroll, which ends the step.
            let mut du: Option<Cow<DefUse>> = None;
            for l in &lf.loops {
                let Some(tc) = l.trip_count(f) else { continue };
                let Some(trips) = tc.const_trips else {
                    continue;
                };
                let size: usize = l.blocks.iter().map(|&b| f.block(b).insts.len()).sum();
                if trips > UNROLL_MAX_TRIPS || trips as usize * size > UNROLL_BUDGET {
                    continue;
                }
                let [latch] = l.latches[..] else { continue };
                // The latch must fall through to the header unconditionally —
                // in a nested loop the latch can simultaneously be an inner
                // loop's header, whose conditional terminator must survive.
                if !matches!(f.block(latch).term, Terminator::Br(t) if t == l.header) {
                    continue;
                }
                let Some(pre) = l.preheader else { continue };
                let Some(exit) = private_exit(cfg, l) else {
                    continue;
                };
                // Header: phis + the exit compare only.
                let Some(phis) = header_phis(f, l, pre, latch) else {
                    continue;
                };
                if f.block(l.header).insts[phis.len()..] != [tc.cmp] {
                    continue;
                }
                // The exit compare must feed only the header terminator;
                // anything else would dangle after the header is deleted.
                let du = du.get_or_insert_with(|| f.analyse());
                if !du
                    .uses_of(tc.cmp)
                    .iter()
                    .all(|u| matches!(u, UseSite::Term(b) if *b == l.header))
                {
                    continue;
                }
                // No values from non-header loop blocks may be used outside
                // (header phis get their final values below).
                let body_blocks = l.blocks.iter().filter(|&&b| b != l.header);
                if defines_live_out(f, du, l, body_blocks) {
                    continue;
                }

                // Body region: loop blocks minus header, entered at the
                // header's in-loop successor.
                let Terminator::CondBr {
                    then_bb, else_bb, ..
                } = f.block(l.header).term.clone()
                else {
                    continue;
                };
                let body_entry = if l.contains(then_bb) {
                    then_bb
                } else {
                    else_bb
                };
                if body_entry == l.header {
                    continue; // self-loop; nothing to unroll structurally
                }
                let region: Vec<BlockId> = l
                    .blocks
                    .iter()
                    .copied()
                    .filter(|&b| b != l.header)
                    .collect();

                // Per-phi current value, starting with the preheader incoming.
                let mut cur: HashMap<InstId, Value> =
                    phis.iter().map(|&(p, init, _)| (p, init)).collect();

                let mut link = pre; // block that branches into the next copy
                for _k in 0..trips {
                    let (map, inst_map) = clone_region(f, &region);
                    // Substitute header-phi uses in the copy with current vals.
                    for (&_old, &new_b) in &map {
                        for &nid in &f.block(new_b).insts.clone() {
                            f.inst_mut(nid).kind.map_operands(|v| {
                                if let Value::Inst(i) = v {
                                    if let Some(c) = cur.get(&i) {
                                        return *c;
                                    }
                                }
                                v
                            });
                            // Phis in the copy that referenced the header as a
                            // pred now come from `link`.
                        }
                        f.rename_phi_pred(new_b, l.header, link);
                        let mut term = f.block(new_b).term.clone();
                        term.map_operands(|v| {
                            if let Value::Inst(i) = v {
                                if let Some(c) = cur.get(&i) {
                                    return *c;
                                }
                            }
                            v
                        });
                        f.block_mut(new_b).term = term;
                    }
                    // Link the previous block to this copy's entry.
                    let entry_copy = map[&body_entry];
                    let mut term = f.block(link).term.clone();
                    term.map_targets(|t| if t == l.header { entry_copy } else { t });
                    f.block_mut(link).term = term;
                    // The copy's latch ends the iteration.
                    let latch_copy = map[&latch];
                    f.block_mut(latch_copy).term = Terminator::Br(l.header); // placeholder; fixed next loop or at the end
                    link = latch_copy;
                    // Advance phi values to the latch incomings, remapped into
                    // this copy.
                    let mut next_cur = HashMap::new();
                    for &(p, _, nv) in &phis {
                        let remapped = match nv {
                            Value::Inst(i) => {
                                if let Some(c) = cur.get(&i) {
                                    *c
                                } else if let Some(&ni) = inst_map.get(&i) {
                                    Value::Inst(ni)
                                } else {
                                    nv
                                }
                            }
                            _ => nv,
                        };
                        next_cur.insert(p, remapped);
                    }
                    cur = next_cur;
                }
                // Outside uses of header phis → final values; of the compare →
                // false (loop exited).
                for &(p, ..) in &phis {
                    let fv = cur[&p];
                    f.replace_all_uses(p, fv);
                }
                f.replace_all_uses(tc.cmp, Value::bool(false));
                // The last copy leaves for the exit, and the old loop goes.
                bypass_loop(f, l, link, exit);
                return true;
            }
            false
        });
        changed | trivial_dce(m, f, false)
    }

    /// Sends `from`, which enters loop `l` at its header, to the loop's `exit`
    /// instead (the exit's phis take their header incomings from `from`), and
    /// deletes the loop.
    fn bypass_loop(f: &mut Function, l: &Loop, from: BlockId, exit: BlockId) {
        f.block_mut(from)
            .term
            .map_targets(|t| if t == l.header { exit } else { t });
        f.rename_phi_pred(exit, l.header, from);
        for &b in &l.blocks {
            f.delete_block(b);
        }
        remove_unreachable_blocks(&mut Body::from(f));
    }

    /// Clones a set of blocks inside `f`, remapping internal branch targets and
    /// instruction references. Returns the old→new block and instruction maps.
    /// Values defined outside the region are left untouched; phi edges from
    /// outside the region are preserved as-is (callers fix them up).
    fn clone_region(
        f: &mut Function,
        region: &[BlockId],
    ) -> (HashMap<BlockId, BlockId>, HashMap<InstId, InstId>) {
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        let mut inst_map: HashMap<InstId, InstId> = HashMap::new();
        for &b in region {
            let nb = f.add_block();
            block_map.insert(b, nb);
        }
        // First pass: clone instructions (so ids exist), collecting the map.
        for &b in region {
            let ids = f.block(b).insts.clone();
            let nb = block_map[&b];
            for id in ids {
                let inst = f.inst(id).clone();
                let nid = f.add_inst(inst);
                inst_map.insert(id, nid);
                f.block_mut(nb).insts.push(nid);
            }
            f.block_mut(nb).term = f.block(b).term.clone();
        }
        // Second pass: remap operands and targets in the clones.
        let remap_val = |v: Value, inst_map: &HashMap<InstId, InstId>| -> Value {
            match v {
                Value::Inst(id) => inst_map.get(&id).map(|n| Value::Inst(*n)).unwrap_or(v),
                _ => v,
            }
        };
        for &b in region {
            let nb = block_map[&b];
            let ids = f.block(nb).insts.clone();
            for id in ids {
                let mut kind = f.inst(id).kind.clone();
                kind.map_operands(|v| remap_val(v, &inst_map));
                if let InstKind::Phi { incomings } = &mut kind {
                    for (pb, _) in incomings.iter_mut() {
                        if let Some(npb) = block_map.get(pb) {
                            *pb = *npb;
                        }
                    }
                }
                f.inst_mut(id).kind = kind;
            }
            let mut term = f.block(nb).term.clone();
            term.map_targets(|t| block_map.get(&t).copied().unwrap_or(t));
            term.map_operands(|v| remap_val(v, &inst_map));
            f.block_mut(nb).term = term;
        }
        (block_map, inst_map)
    }
}
