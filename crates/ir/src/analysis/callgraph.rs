//! Module call graph: direct call edges, call-site counts, recursion.

use crate::function::FuncId;
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use std::collections::HashSet;

/// Direct-call graph of a module.
///
/// Indirect calls contribute to [`CallGraph::has_indirect_calls`] but not to
/// the edge lists; `called-value-propagation` tries to remove them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// `callees[f]` — functions called directly from `f` (with multiplicity).
    pub callees: Vec<Vec<FuncId>>,
    /// `callers[f]` — functions containing a direct call to `f` (with
    /// multiplicity).
    pub callers: Vec<Vec<FuncId>>,
    /// `true` when the function contains at least one indirect call.
    pub has_indirect_calls: Vec<bool>,
    /// Functions whose address is taken (via [`crate::Value::FuncAddr`]);
    /// these may be reached by indirect calls and must be kept by
    /// `globaldce`.
    pub address_taken: HashSet<FuncId>,
}

impl CallGraph {
    /// Builds the call graph of `m`.
    pub fn new(m: &Module) -> CallGraph {
        let n = m.functions.len();
        let mut callees = vec![Vec::new(); n];
        let mut callers = vec![Vec::new(); n];
        let mut has_indirect = vec![false; n];
        let mut address_taken = HashSet::new();
        for fid in m.function_ids() {
            let f = m.function(fid);
            for b in f.block_ids() {
                for &id in &f.block(b).insts {
                    let inst = f.inst(id);
                    if let InstKind::Call { callee, .. } = &inst.kind {
                        match callee {
                            Callee::Direct(c) => {
                                callees[fid.index()].push(*c);
                                callers[c.index()].push(fid);
                            }
                            Callee::Indirect(_) => has_indirect[fid.index()] = true,
                        }
                    }
                    inst.kind.for_each_operand(|v| {
                        if let crate::value::Value::FuncAddr(af) = v {
                            address_taken.insert(af);
                        }
                    });
                }
            }
        }
        CallGraph {
            callees,
            callers,
            has_indirect_calls: has_indirect,
            address_taken,
        }
    }

    /// Whether `f` calls itself directly.
    pub fn is_self_recursive(&self, f: FuncId) -> bool {
        self.callees[f.index()].contains(&f)
    }

    /// Whether `f` participates in any call cycle (direct edges only).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        // DFS from f looking for a path back to f.
        let mut seen = HashSet::new();
        let mut stack: Vec<FuncId> = self.callees[f.index()].clone();
        while let Some(c) = stack.pop() {
            if c == f {
                return true;
            }
            if seen.insert(c) {
                stack.extend(self.callees[c.index()].iter().copied());
            }
        }
        false
    }

    /// Number of direct call sites of `f` across the module.
    pub fn call_site_count(&self, f: FuncId) -> usize {
        self.callers[f.index()].len()
    }

    /// Functions unreachable from `roots` via direct calls, excluding
    /// address-taken functions (candidates for `globaldce`).
    pub fn unreachable_from(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let mut live: HashSet<FuncId> = HashSet::new();
        let mut stack: Vec<FuncId> = roots.to_vec();
        stack.extend(self.address_taken.iter().copied());
        while let Some(f) = stack.pop() {
            if live.insert(f) {
                stack.extend(self.callees[f.index()].iter().copied());
            }
        }
        (0..self.callees.len() as u32)
            .map(FuncId)
            .filter(|f| !live.contains(f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    fn sample() -> (Module, FuncId, FuncId, FuncId) {
        let mut mb = ModuleBuilder::new("t");
        let fa = mb.declare("a", vec![], Type::Void);
        let fb = mb.declare("b", vec![], Type::Void);
        let fc = mb.declare("c", vec![], Type::Void);
        mb.begin_existing(fa);
        {
            let mut b = mb.body();
            b.call(fb, vec![], Type::Void);
            b.ret(None);
        }
        mb.finish_function();
        mb.begin_existing(fb);
        {
            let mut b = mb.body();
            b.call(fb, vec![], Type::Void); // self-recursive
            b.ret(None);
        }
        mb.finish_function();
        mb.begin_existing(fc);
        {
            let mut b = mb.body();
            b.ret(None);
        }
        mb.finish_function();
        (mb.build(), fa, fb, fc)
    }

    #[test]
    fn edges_and_recursion() {
        let (m, fa, fb, fc) = sample();
        let cg = CallGraph::new(&m);
        assert_eq!(cg.callees[fa.index()], vec![fb]);
        assert_eq!(cg.call_site_count(fb), 2);
        assert!(cg.is_self_recursive(fb));
        assert!(!cg.is_self_recursive(fa));
        assert!(cg.is_recursive(fb));
        assert!(!cg.is_recursive(fa));
        assert!(!cg.is_recursive(fc));
    }

    #[test]
    fn dead_function_detection() {
        let (m, fa, fb, fc) = sample();
        let cg = CallGraph::new(&m);
        let dead = cg.unreachable_from(&[fa]);
        assert!(!dead.contains(&fa));
        assert!(!dead.contains(&fb));
        assert!(dead.contains(&fc));
    }

    #[test]
    fn address_taken_is_kept() {
        let mut mb = ModuleBuilder::new("t");
        let target = mb.declare("target", vec![], Type::Void);
        let main = mb.declare("main", vec![], Type::Void);
        mb.begin_existing(target);
        mb.body().ret(None);
        mb.finish_function();
        mb.begin_existing(main);
        {
            let mut b = mb.body();
            let fp = crate::value::Value::FuncAddr(target);
            b.call_indirect(fp, vec![], Type::Void);
            b.ret(None);
        }
        mb.finish_function();
        let m = mb.build();
        let cg = CallGraph::new(&m);
        assert!(cg.address_taken.contains(&target));
        assert!(cg.has_indirect_calls[main.index()]);
        assert!(cg.unreachable_from(&[main]).is_empty());
    }
}
