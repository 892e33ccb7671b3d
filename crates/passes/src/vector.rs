//! Vectorization phases: `loop-vectorize` and `slp-vectorizer`.
//!
//! Vectorization in this reproduction is a *cost-model annotation*: an
//! instruction with `width = N` still computes one lane in the interpreter
//! (dynamic semantics are bit-for-bit unchanged, which keeps every
//! behaviour-preservation property trivially true), but the profiler
//! counts it as a vector lane and the platform models amortize its cost by
//! the platform's SIMD width. This preserves exactly what the MLComp
//! models consume — the effect of vectorization on execution time, energy
//! and effective instruction count — without introducing vector semantics
//! into the IR. See DESIGN.md §2 for the substitution rationale.

use crate::loops::single_body;
use crate::util::{may_alias, mem_root, MemRoot};
use mlcomp_ir::analysis::{Body, CfgLoops};
use mlcomp_ir::{Function, InstId, InstKind, Module, Value};
use std::collections::HashSet;

/// SIMD width assumed by the annotation (both platform models define their
/// own effective width; 4 is the canonical lane count here).
pub const VECTOR_WIDTH: u8 = 4;

/// `loop-vectorize`: marks the arithmetic and memory operations of
/// innermost counted loops as vectorized when the loop is analyzable
/// (canonical induction variable from `indvars`) and has no loop-carried
/// memory dependences: no location both loaded and stored through
/// different addresses, no calls, no unknown pointer roots.
pub fn loop_vectorize(_m: &Module, f: &mut Body) -> bool {
    let (_, _, lf) = f.analyse::<CfgLoops>();
    let mut changed = false;

    'loops: for l in &lf.loops {
        // Innermost only.
        if lf
            .loops
            .iter()
            .any(|o| o.header != l.header && l.contains(o.header))
        {
            continue;
        }
        let Some(tc) = l.trip_count(f) else { continue };
        if tc.step != 1 {
            continue;
        }
        // Single body block keeps the dependence analysis honest.
        let Some((body, _)) = single_body(l) else {
            continue;
        };

        // Dependence check: roots that are stored must not also be loaded
        // unless every access to that root is at offset exactly `iv`
        // (element-wise, no cross-iteration flow), and no unknown roots.
        let ids = f.block(body).insts.clone();
        let mut loaded: HashSet<MemRoot> = HashSet::new();
        let mut stored: HashSet<MemRoot> = HashSet::new();
        let mut elementwise = true;
        for &id in &ids {
            match &f.inst(id).kind {
                InstKind::Load { ptr, .. } => {
                    let r = mem_root(f, *ptr);
                    if r == MemRoot::Unknown {
                        continue 'loops;
                    }
                    loaded.insert(r);
                    elementwise &= offset_is_iv(f, *ptr, tc.iv_phi);
                }
                InstKind::Store { ptr, .. } => {
                    let r = mem_root(f, *ptr);
                    if r == MemRoot::Unknown {
                        continue 'loops;
                    }
                    stored.insert(r);
                    elementwise &= offset_is_iv(f, *ptr, tc.iv_phi);
                }
                InstKind::Call { .. } | InstKind::Memset { .. } | InstKind::Memcpy { .. } => {
                    continue 'loops;
                }
                _ => {}
            }
        }
        let overlap = loaded
            .iter()
            .any(|r| stored.iter().any(|s| may_alias(*r, *s)));
        if overlap && !elementwise {
            continue;
        }
        // Reduction phis (accumulators) other than the IV are fine — they
        // vectorize as horizontal reductions — but their presence plus an
        // overlap is too subtle to annotate; keep the simple rule.
        let mut marked = false;
        for &id in &ids {
            marked |= widen(f, id);
        }
        if marked {
            changed = true;
        }
    }
    changed
}

fn offset_is_iv(f: &Function, ptr: Value, iv: InstId) -> bool {
    match ptr {
        Value::Inst(id) => match &f.inst(id).kind {
            InstKind::Gep { offset, .. } => *offset == Value::Inst(iv),
            _ => false,
        },
        _ => false,
    }
}

fn widen(f: &mut Function, id: InstId) -> bool {
    match &mut f.inst_mut(id).kind {
        InstKind::Bin { width, .. }
        | InstKind::Load { width, .. }
        | InstKind::Store { width, .. }
            if *width == 1 =>
        {
            *width = VECTOR_WIDTH;
            true
        }
        _ => false,
    }
}

/// Minimum isomorphic group size the SLP vectorizer packs.
const SLP_MIN_GROUP: usize = 2;

/// `slp-vectorizer`: packs groups of isomorphic, independent scalar
/// operations within one basic block (same opcode, same type, no
/// def-use chain between them) into vector-annotated operations.
pub fn slp_vectorizer(_m: &Module, f: &mut Body) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let ids = f.block(b).insts.clone();
        // Group scalar binary ops by (op, ty).
        let mut groups: Vec<(String, Vec<InstId>)> = Vec::new();
        for &id in &ids {
            if let InstKind::Bin { op, width: 1, .. } = &f.inst(id).kind {
                let key = format!("{}/{}", op, f.inst(id).ty);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(id),
                    None => groups.push((key, vec![id])),
                }
            }
        }
        for (_k, group) in groups {
            if group.len() < SLP_MIN_GROUP {
                continue;
            }
            // Independence: no member may (transitively within the group)
            // consume another member's result.
            let set: HashSet<InstId> = group.iter().copied().collect();
            let mut independent = true;
            for &id in &group {
                f.inst(id).kind.for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        if set.contains(&d) {
                            independent = false;
                        }
                    }
                });
            }
            if !independent {
                continue;
            }
            let lanes = group.len().min(VECTOR_WIDTH as usize) as u8;
            for &id in group.iter().take(lanes as usize) {
                if let InstKind::Bin { width, .. } = &mut f.inst_mut(id).kind {
                    *width = lanes;
                }
            }
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal, Type};

    #[test]
    fn vectorize_marks_elementwise_loop() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.add_global("a", 64);
        let c = mb.add_global("c", 64);
        mb.begin_function("axpy", vec![Type::I64], Type::Void);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let pa = b.gep(b.global_addr(a), i);
                let va = b.load(pa, Type::I64);
                let v2 = b.mul(va, b.const_i64(3));
                let pc = b.gep(b.global_addr(c), i);
                b.store(pc, v2);
            });
            b.ret(None);
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(loop_vectorize(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        // Dynamic behaviour identical; vector lanes now counted.
        let fid = m.find_function("axpy").unwrap();
        let out = Interpreter::new(&m).run(fid, &[RtVal::I(16)]).unwrap();
        assert!(out.counts.vector_ops > 0);
        assert!(out.counts.vector_lanes >= out.counts.vector_ops * 4);
    }

    #[test]
    fn vectorize_rejects_loop_carried_dependence() {
        // b[i] = b[i-1] + 1 — not vectorizable.
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("b", 64);
        mb.begin_function("scan", vec![Type::I64], Type::Void);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(1), b.param(0), 1, |b, i| {
                let prev_i = b.sub(i, b.const_i64(1));
                let pp = b.gep(b.global_addr(g), prev_i);
                let pv = b.load(pp, Type::I64);
                let nv = b.add(pv, b.const_i64(1));
                let pi = b.gep(b.global_addr(g), i);
                b.store(pi, nv);
            });
            b.ret(None);
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[0]));
        assert!(!loop_vectorize(&mc, &mut Body::from(&mut m.functions[0])));
    }

    #[test]
    fn vectorize_rejects_loops_with_calls() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_global("a", 64);
        let h = mb.declare("h", vec![], Type::Void);
        mb.begin_existing(h);
        mb.body().ret(None);
        mb.finish_function();
        mb.begin_function("f", vec![Type::I64], Type::Void);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let p = b.gep(b.global_addr(g), i);
                b.store(p, i);
                b.call(h, vec![], Type::Void);
            });
            b.ret(None);
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        crate::memory::mem2reg(&mc, &mut Body::from(&mut m.functions[1]));
        assert!(!loop_vectorize(&mc, &mut Body::from(&mut m.functions[1])));
    }

    #[test]
    fn slp_packs_isomorphic_ops() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function(
            "f",
            vec![Type::F64, Type::F64, Type::F64, Type::F64],
            Type::F64,
        );
        {
            let mut b = mb.body();
            let m0 = b.fmul(b.param(0), b.param(0));
            let m1 = b.fmul(b.param(1), b.param(1));
            let m2 = b.fmul(b.param(2), b.param(2));
            let m3 = b.fmul(b.param(3), b.param(3));
            let s1 = b.fadd(m0, m1);
            let s2 = b.fadd(m2, m3);
            let s = b.fadd(s1, s2);
            b.ret(Some(s));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(slp_vectorizer(&mc, &mut Body::from(&mut m.functions[0])));
        verify(&m).unwrap();
        let fid = m.find_function("f").unwrap();
        let out = Interpreter::new(&m)
            .run(
                fid,
                &[RtVal::F(1.0), RtVal::F(2.0), RtVal::F(3.0), RtVal::F(4.0)],
            )
            .unwrap();
        assert_eq!(out.ret, Some(RtVal::F(30.0)));
        assert!(out.counts.vector_ops >= 4, "the four fmuls are packed");
    }

    #[test]
    fn slp_respects_dependences() {
        // A chain a→b→c of adds must not be packed.
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let a = b.add(b.param(0), b.const_i64(1));
            let c = b.add(a, b.const_i64(2));
            let d = b.add(c, b.const_i64(3));
            b.ret(Some(d));
        }
        mb.finish_function();
        let mut m = mb.build();
        let mc = m.clone();
        assert!(!slp_vectorizer(&mc, &mut Body::from(&mut m.functions[0])));
    }
}
