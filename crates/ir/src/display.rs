//! Human-readable IR printing, for debugging phases and golden tests.

use crate::block::Terminator;
use crate::function::Function;
use crate::inst::{Callee, InstKind};
use crate::module::Module;
use std::fmt::Write;

/// Renders a function as LLVM-flavored text.
pub fn print_function(f: &Function) -> String {
    let mut s = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{t} %arg{i}"))
        .collect();
    let _ = writeln!(
        s,
        "define {} @{}({}) {{",
        f.ret_ty,
        f.name,
        params.join(", ")
    );
    for b in f.block_ids() {
        let _ = writeln!(s, "bb{}:", b.0);
        for &id in &f.block(b).insts {
            let inst = f.inst(id);
            let _ = write!(s, "  ");
            if inst.ty.has_value() {
                let _ = write!(s, "%{} = ", id.0);
            }
            let _ = writeln!(s, "{}", render_kind(&inst.kind, inst.ty));
        }
        let _ = writeln!(s, "  {}", render_term(&f.block(b).term));
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    for g in m.global_ids() {
        let gl = m.global(g);
        let _ = writeln!(
            s,
            "@g{} = {}{} [{} cells] {:?}",
            g.0,
            if gl.internal { "internal " } else { "" },
            if gl.is_const { "const" } else { "global" },
            gl.cells,
            gl.init
        );
    }
    for f in &m.functions {
        if f.is_declaration {
            let _ = writeln!(s, "declare {} @{}(...)", f.ret_ty, f.name);
        } else {
            s.push_str(&print_function(f));
        }
        s.push('\n');
    }
    s
}

fn render_kind(k: &InstKind, ty: crate::Type) -> String {
    match k {
        InstKind::Bin {
            op,
            lhs,
            rhs,
            width,
        } => {
            let w = if *width > 1 {
                format!("<{width} x> ")
            } else {
                String::new()
            };
            format!("{w}{op} {lhs}, {rhs}")
        }
        InstKind::Un { op, val } => format!("{op} {val}"),
        InstKind::Cmp { pred, lhs, rhs } => format!("cmp {pred} {lhs}, {rhs}"),
        InstKind::Select {
            cond,
            then_val,
            else_val,
        } => format!("select {cond}, {then_val}, {else_val}"),
        InstKind::Cast { op, val } => format!("{op} {val} to {ty}"),
        InstKind::Phi { incomings } => {
            let parts: Vec<String> = incomings
                .iter()
                .map(|(b, v)| format!("[bb{}, {v}]", b.0))
                .collect();
            format!("phi {}", parts.join(", "))
        }
        InstKind::Alloca { cells } => format!("alloca {cells}"),
        InstKind::Load {
            ptr,
            aligned,
            width,
        } => {
            let mut flags = String::new();
            if *aligned {
                flags.push_str(" aligned");
            }
            if *width > 1 {
                let _ = write!(flags, " x{width}");
            }
            format!("load{flags} {ty}, {ptr}")
        }
        InstKind::Store {
            ptr,
            value,
            aligned,
            width,
        } => {
            let mut flags = String::new();
            if *aligned {
                flags.push_str(" aligned");
            }
            if *width > 1 {
                let _ = write!(flags, " x{width}");
            }
            format!("store{flags} {value}, {ptr}")
        }
        InstKind::Gep { base, offset } => format!("gep {base}, {offset}"),
        InstKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(|v| v.to_string()).collect();
            match callee {
                Callee::Direct(fid) => format!("call @fn{}({})", fid.0, a.join(", ")),
                Callee::Indirect(v) => format!("call {v}({})", a.join(", ")),
            }
        }
        InstKind::Memset { ptr, value, count } => format!("memset {ptr}, {value}, {count}"),
        InstKind::Memcpy { dst, src, count } => format!("memcpy {dst}, {src}, {count}"),
        InstKind::Expect { val, expected } => format!("expect {val}, {expected}"),
    }
}

fn render_term(t: &Terminator) -> String {
    match t {
        Terminator::Br(b) => format!("br bb{}", b.0),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            weight,
        } => {
            let w = weight.map(|w| format!(" !prob {w}%")).unwrap_or_default();
            format!("condbr {cond}, bb{}, bb{}{w}", then_bb.0, else_bb.0)
        }
        Terminator::Switch {
            val,
            cases,
            default,
        } => {
            let cs: Vec<String> = cases
                .iter()
                .map(|(c, b)| format!("{c} → bb{}", b.0))
                .collect();
            format!("switch {val} [{}] default bb{}", cs.join(", "), default.0)
        }
        Terminator::Ret(Some(v)) => format!("ret {v}"),
        Terminator::Ret(None) => "ret void".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn prints_function() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        let text = print_module(&m);
        assert!(text.contains("define i64 @f"));
        assert!(text.contains("add"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn prints_loop_with_phi() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::Void);
        {
            let mut b = mb.body();
            b.for_loop(b.const_i64(0), b.param(0), 1, |_b, _i| {});
            b.ret(None);
        }
        mb.finish_function();
        let text = print_function(&mb.build().functions[0]);
        assert!(text.contains("phi"));
        assert!(text.contains("condbr"));
    }
}
