//! Property test: compile-time constant folding must agree bit-for-bit
//! with the interpreter's runtime semantics for every operation — the
//! contract that makes `sccp`/`instcombine` safe.

use mlcomp_ir::{
    BinOp, CastOp, CmpPred, InstKind, Interpreter, ModuleBuilder, RtVal, Type, UnOp, Value,
};
use mlcomp_passes::util::fold_constant;
use proptest::prelude::*;

fn run_int_bin(op: BinOp, a: i64, b: i64, ty: Type) -> Option<i64> {
    let mut mb = ModuleBuilder::new("t");
    mb.begin_function("f", vec![], ty);
    {
        let mut bd = mb.body();
        let l = Value::ConstInt(a, ty);
        let r = Value::ConstInt(b, ty);
        let v = bd.bin(op, l, r);
        bd.ret(Some(v));
    }
    mb.finish_function();
    let m = mb.build();
    let f = m.find_function("f").unwrap();
    match Interpreter::new(&m).run(f, &[]) {
        Ok(out) => match out.ret {
            Some(RtVal::I(v)) => Some(v),
            _ => None,
        },
        Err(_) => None, // trap (div by zero)
    }
}

fn int_ops() -> impl Strategy<Value = BinOp> {
    prop::sample::select(vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::UDiv,
        BinOp::SRem,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::LShr,
    ])
}

proptest! {
    #[test]
    fn int_fold_matches_interp(op in int_ops(), a in any::<i64>(), b in any::<i64>(), use_i32 in any::<bool>()) {
        let ty = if use_i32 { Type::I32 } else { Type::I64 };
        let (a, b) = if use_i32 { (a as i32 as i64, b as i32 as i64) } else { (a, b) };
        let kind = InstKind::Bin {
            op,
            lhs: Value::ConstInt(a, ty),
            rhs: Value::ConstInt(b, ty),
            width: 1,
        };
        let folded = fold_constant(&kind, ty);
        let executed = run_int_bin(op, a, b, ty);
        match (folded, executed) {
            (Some(Value::ConstInt(fv, _)), Some(ev)) => prop_assert_eq!(fv, ev, "{} {} {}", op, a, b),
            (None, None) => {} // both refused (division by zero)
            (None, Some(_)) => {
                // Folding may be conservative (refuse) where execution
                // succeeds — never the other way around.
            }
            (f, e) => prop_assert!(false, "fold {f:?} vs exec {e:?} for {op} {a} {b}"),
        }
    }

    #[test]
    fn float_fold_matches_interp(
        op in prop::sample::select(vec![BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv]),
        a in -1e12f64..1e12,
        b in prop::num::f64::NORMAL,
    ) {
        let kind = InstKind::Bin {
            op,
            lhs: Value::f64(a),
            rhs: Value::f64(b),
            width: 1,
        };
        let folded = fold_constant(&kind, Type::F64).and_then(Value::as_const_f64);
        let expected = match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => a / b,
            _ => unreachable!(),
        };
        prop_assert_eq!(folded.map(f64::to_bits), Some(expected.to_bits()));
    }

    #[test]
    fn unary_fold_matches_std(v in prop::num::f64::NORMAL) {
        for (op, expect) in [
            (UnOp::FNeg, -v),
            (UnOp::FAbs, v.abs()),
            (UnOp::Sqrt, v.sqrt()),
            (UnOp::Exp, v.exp()),
            (UnOp::Log, v.ln()),
        ] {
            let kind = InstKind::Un { op, val: Value::f64(v) };
            let folded = fold_constant(&kind, Type::F64).and_then(Value::as_const_f64);
            prop_assert_eq!(folded.map(f64::to_bits), Some(expect.to_bits()), "{}", op);
        }
    }

    #[test]
    fn cmp_fold_matches_eval(a in any::<i64>(), b in any::<i64>()) {
        for pred in [CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge] {
            let kind = InstKind::Cmp {
                pred,
                lhs: Value::i64(a),
                rhs: Value::i64(b),
            };
            let folded = fold_constant(&kind, Type::I1);
            prop_assert_eq!(folded, Some(Value::bool(pred.eval_int(a, b))));
        }
    }

    #[test]
    fn cast_fold_matches_interp(v in any::<i64>()) {
        // trunc i64→i32 then sext back: folding and runtime agree.
        let trunc = InstKind::Cast {
            op: CastOp::Trunc,
            val: Value::i64(v),
        };
        let folded = fold_constant(&trunc, Type::I32).and_then(Value::as_const_int);
        prop_assert_eq!(folded, Some(v as i32 as i64));
        let tofp = InstKind::Cast {
            op: CastOp::SiToFp,
            val: Value::i64(v),
        };
        let as_f = fold_constant(&tofp, Type::F64).and_then(Value::as_const_f64);
        prop_assert_eq!(as_f.map(f64::to_bits), Some((v as f64).to_bits()));
    }
}
