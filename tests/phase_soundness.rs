//! The compiler-correctness backbone: every Table VI phase — alone, in
//! random sequences, and in the standard pipelines — must preserve the
//! observable behaviour (checksum) of every benchmark program and keep the
//! IR verifier-clean.
//!
//! The operator oracle below holds the folding phases to the interpreter
//! on single instructions over edge constants, including the `I32` and
//! `F32` values no suite program reaches.
//!
//! Every phase run here also checks the sandbox's `changed` bit: the
//! deployed selector treats a phase as inactive exactly when it reports
//! anything but `Changed`, so `Changed` must hold exactly when the module
//! differs from its pre-phase state.

use mlcomp::ir::{
    BinOp, CastOp, CmpPred, ExecError, FunctionBuilder, Interpreter, Module, ModuleBuilder, RtVal,
    Type, UnOp, Value,
};
use mlcomp::passes::{registry, PassManager, PhaseOutcome, PipelineLevel};
use mlcomp::suites::BenchProgram;
use proptest::prelude::*;
use std::collections::HashSet;

fn sample_programs() -> Vec<BenchProgram> {
    // A structurally diverse subset (loops, recursion, floats, switches,
    // globals) keeps the test fast while covering the IR surface.
    let names = [
        "blackscholes",
        "fluidanimate",
        "dedup",
        "crc32",
        "fibcall",
        "qsort",
        "nsichneu",
        "minver",
    ];
    mlcomp::suites::parsec_suite()
        .into_iter()
        .chain(mlcomp::suites::beebs_suite())
        .filter(|p| names.contains(&p.name))
        .collect()
}

/// Runs `phase` sandboxed and checks its outcome: the phase must not be
/// quarantined (a panic or verifier rejection fails the caller), and it
/// must report `Changed` exactly when the module differs from a clone
/// taken before it ran. `context` names the program state in messages.
fn run_checked(module: &mut Module, phase: &str, context: &str) -> PhaseOutcome {
    let before = module.clone();
    let outcome = PassManager::new()
        .run_phase_sandboxed(module, phase, None, phase)
        .expect("phase exists");
    assert!(
        !matches!(outcome, PhaseOutcome::Quarantined(_)),
        "{context}: `{phase}` was quarantined: {outcome:?}"
    );
    let differs = *module != before;
    assert_eq!(
        outcome == PhaseOutcome::Changed,
        differs,
        "{context}: `{phase}` reported {outcome:?}; module differs from its pre-phase clone: {differs}"
    );
    outcome
}

/// [`run_checked`] over every phase of a standard pipeline level.
fn run_level_checked(module: &mut Module, level: PipelineLevel, context: &str) {
    for phase in level.phases() {
        run_checked(module, phase, &format!("{context} in {level}"));
    }
}

#[test]
fn every_single_phase_preserves_behaviour() {
    // Pristine modules plus two states the selector reaches in one step:
    // rotated loops (what `licm` feeds on) and a simplified CFG.
    let prefixes: [&[&str]; 3] = [&[], &["loop-rotate"], &["simplifycfg"]];
    for program in sample_programs() {
        let reference = program.run_default().expect("baseline executes");
        for prefix in prefixes {
            let context = format!("{} after {prefix:?}", program.name);
            let mut state = program.clone();
            for phase in prefix {
                run_checked(&mut state.module, phase, &context);
            }
            for phase in registry::PHASE_NAMES {
                let mut variant = state.clone();
                run_checked(&mut variant.module, phase, &context);
                let got = variant
                    .run_default()
                    .unwrap_or_else(|e| panic!("{context}, `{phase}` trapped: {e}"));
                assert_eq!(
                    got, reference,
                    "{context}: phase `{phase}` changed the checksum"
                );
            }
        }
    }
}

#[test]
fn licm_reports_preheader_insertion_as_a_change() {
    // Inserting a missing preheader edits the module, so `licm` must report
    // it; otherwise the selector takes the edited module for an inactive step.
    for (program, prefix) in [("dedup", "loop-rotate"), ("streamcluster", "simplifycfg")] {
        let mut module = mlcomp::suites::program(program)
            .expect("suite program")
            .module;
        let context = format!("{program} after {prefix}");
        run_checked(&mut module, prefix, &context);
        assert_eq!(
            run_checked(&mut module, "licm", &context),
            PhaseOutcome::Changed,
            "{context}"
        );
    }
}

#[test]
fn every_phase_is_deterministic() {
    // Hash-map iteration order must never leak into the produced IR:
    // applying the same phase to the same module twice (fresh container
    // states each time) must yield *identical* modules, arena order
    // included — the property that makes trained-selector reloads and
    // dataset extraction bit-reproducible.
    for program in sample_programs() {
        for phase in registry::PHASE_NAMES {
            let mut a = program.module.clone();
            let mut b = program.module.clone();
            run_checked(&mut a, phase, program.name);
            run_checked(&mut b, phase, program.name);
            assert_eq!(
                a, b,
                "{}: phase `{phase}` is nondeterministic",
                program.name
            );
        }
        // And the composed -O3 pipeline.
        let mut a = program.module.clone();
        let mut b = program.module.clone();
        run_level_checked(&mut a, PipelineLevel::O3, program.name);
        run_level_checked(&mut b, PipelineLevel::O3, program.name);
        assert_eq!(a, b, "{}: -O3 is nondeterministic", program.name);
    }
}

#[test]
fn standard_pipelines_preserve_behaviour_everywhere() {
    for program in mlcomp::suites::parsec_suite()
        .into_iter()
        .chain(mlcomp::suites::beebs_suite())
    {
        let reference = program.run_default().expect("baseline executes");
        for level in PipelineLevel::ALL {
            let mut variant = program.clone();
            run_level_checked(&mut variant.module, level, program.name);
            let got = variant
                .run_default()
                .unwrap_or_else(|e| panic!("{}/{level} trapped: {e}", program.name));
            assert_eq!(
                got, reference,
                "{}: {level} changed the checksum",
                program.name
            );
        }
    }
}

/// What running `main` observably produced. Floats are kept as raw bits,
/// so `-0.0` differs from `0.0`, but every NaN is one value.
#[derive(Debug, PartialEq)]
enum Observed {
    Int(i64),
    Float(u64),
    Trap(ExecError),
}

fn observe(module: &Module, args: &[RtVal]) -> Observed {
    let main = module.find_function("main").expect("module has `main`");
    match Interpreter::new(module).run(main, args) {
        Ok(out) => match out.ret.expect("`main` returns a value") {
            RtVal::I(x) => Observed::Int(x),
            RtVal::F(x) if x.is_nan() => Observed::Float(f64::NAN.to_bits()),
            RtVal::F(x) => Observed::Float(x.to_bits()),
        },
        Err(e) => Observed::Trap(e),
    }
}

/// A module whose `main(params)` returns the value `body` emits.
fn single_function(
    params: Vec<Type>,
    ret: Type,
    body: impl FnOnce(&mut FunctionBuilder<'_>) -> Value,
) -> Module {
    let mut mb = ModuleBuilder::new("oracle");
    mb.begin_function("main", params, ret);
    {
        let mut b = mb.body();
        let v = body(&mut b);
        b.ret(Some(v));
    }
    mb.finish_function();
    mb.build()
}

const INT_TYPES: [Type; 3] = [Type::I1, Type::I32, Type::I64];
const FLOAT_TYPES: [Type; 2] = [Type::F32, Type::F64];

/// The distinct edge constants of type `ty`, each fitted to the type.
fn edge_constants(ty: Type) -> Vec<Value> {
    const INTS: [i64; 8] = [
        0,
        1,
        -1,
        2,
        i32::MIN as i64,
        i32::MAX as i64,
        i64::MIN,
        16_777_217,
    ];
    const FLOATS: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.0,
        i32::MIN as f64,
        i32::MAX as f64,
        i64::MIN as f64,
        16_777_217.0,
        f64::NAN,
    ];
    let all: Vec<Value> = match ty {
        Type::I1 => INTS.iter().map(|&x| Value::bool(x & 1 == 1)).collect(),
        Type::I32 => INTS.iter().map(|&x| Value::i32(x as i32)).collect(),
        Type::I64 => INTS.iter().map(|&x| Value::i64(x)).collect(),
        Type::F32 => FLOATS.iter().map(|&x| Value::f32(x as f32)).collect(),
        _ => FLOATS.iter().map(|&x| Value::f64(x)).collect(),
    };
    let mut seen = HashSet::new();
    all.into_iter().filter(|v| seen.insert(*v)).collect()
}

/// Every well-typed cast among the scalar types: `trunc` narrows, `zext`
/// and `sext` widen, and `bitcast` keeps the width.
fn cast_signatures() -> Vec<(CastOp, Type, Type)> {
    let mut casts = vec![
        (CastOp::FpTrunc, Type::F64, Type::F32),
        (CastOp::FpExt, Type::F32, Type::F64),
        (CastOp::Bitcast, Type::I64, Type::F64),
        (CastOp::Bitcast, Type::F64, Type::I64),
        (CastOp::Bitcast, Type::I32, Type::F32),
        (CastOp::Bitcast, Type::F32, Type::I32),
    ];
    for from in INT_TYPES {
        for to in INT_TYPES {
            if from.bit_width() > to.bit_width() {
                casts.push((CastOp::Trunc, from, to));
            } else if from.bit_width() < to.bit_width() {
                casts.push((CastOp::Zext, from, to));
                casts.push((CastOp::Sext, from, to));
            }
        }
        for fty in FLOAT_TYPES {
            casts.push((CastOp::SiToFp, from, fty));
            casts.push((CastOp::FpToSi, fty, from));
        }
    }
    casts
}

#[test]
fn constant_folding_equals_execution() {
    // Each folding phase must compute what the interpreter computes, or
    // leave the instruction alone: a fold that disagrees changes the
    // program's result, here its return value or its trap.
    const FOLDERS: [&str; 4] = ["sccp", "ipsccp", "instsimplify", "instcombine"];
    let check = |ret: Type, what: String, body: &dyn Fn(&mut FunctionBuilder<'_>) -> Value| {
        let module = single_function(vec![], ret, body);
        let reference = observe(&module, &[]);
        for phase in FOLDERS {
            let mut folded = module.clone();
            run_checked(&mut folded, phase, &what);
            assert_eq!(
                observe(&folded, &[]),
                reference,
                "{what}: `{phase}` changed the result"
            );
        }
    };
    use BinOp::*;
    let binops = [
        Add, Sub, Mul, SDiv, UDiv, SRem, URem, FAdd, FSub, FMul, FDiv, FRem, And, Or, Xor, Shl,
        AShr, LShr,
    ];
    for op in binops {
        let types: &[Type] = if op.is_float() {
            &FLOAT_TYPES
        } else {
            &INT_TYPES
        };
        for &ty in types {
            for a in edge_constants(ty) {
                for b in edge_constants(ty) {
                    check(ty, format!("{op} {a}, {b}"), &|fb| fb.bin(op, a, b));
                }
            }
        }
    }
    use UnOp::*;
    for op in [Neg, FNeg, Not, Sqrt, FAbs, Exp, Log, Sin, Cos] {
        let types: &[Type] = if matches!(op, Neg | Not) {
            &INT_TYPES
        } else {
            &FLOAT_TYPES
        };
        for &ty in types {
            for v in edge_constants(ty) {
                check(ty, format!("{op} {v}"), &|fb| fb.un(op, v));
            }
        }
    }
    use CmpPred::*;
    for pred in [Eq, Ne, Lt, Le, Gt, Ge] {
        for ty in INT_TYPES.into_iter().chain(FLOAT_TYPES) {
            for a in edge_constants(ty) {
                for b in edge_constants(ty) {
                    check(Type::I1, format!("cmp {pred} {a}, {b}"), &|fb| {
                        fb.cmp(pred, a, b)
                    });
                }
            }
        }
    }
    for (op, from, to) in cast_signatures() {
        for v in edge_constants(from) {
            check(to, format!("{op} {v} to {to}"), &|fb| fb.cast(op, v, to));
        }
    }
}

#[test]
fn bdce_mask_rewrite_keeps_zero_extension() {
    // `bdce` rewrites `zext(trunc x to i32)` to `and x, 0xFFFFFFFF`, which
    // is sound only if `zext` zero-extends from the 32-bit source.
    let module = single_function(vec![Type::I64], Type::I64, |b| {
        let t = b.cast(CastOp::Trunc, b.param(0), Type::I32);
        b.cast(CastOp::Zext, t, Type::I64)
    });
    let what = "zext(trunc x to i32) at x = -1";
    let args = [RtVal::I(-1)];
    let reference = observe(&module, &args);
    assert_eq!(reference, Observed::Int(0xFFFF_FFFF), "{what}");
    let mut rewritten = module.clone();
    assert_eq!(
        run_checked(&mut rewritten, "bdce", what),
        PhaseOutcome::Changed,
        "{what}"
    );
    assert_eq!(observe(&rewritten, &args), reference, "{what}: `bdce`");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Random phase sequences over random programs: the MLComp search
    /// space itself. Any checksum change or verifier failure here is a
    /// miscompile the RL policy could stumble into.
    #[test]
    fn random_phase_sequences_are_sound(
        program_idx in 0usize..8,
        phase_indices in prop::collection::vec(0usize..registry::PHASE_COUNT, 1..14),
    ) {
        let programs = sample_programs();
        let program = &programs[program_idx];
        let reference = program.run_default().expect("baseline executes");
        let mut variant = program.clone();
        let names: Vec<&str> = phase_indices
            .iter()
            .map(|&i| registry::PHASE_NAMES[i])
            .collect();
        let context = format!("{} under {names:?}", program.name);
        for phase in &names {
            run_checked(&mut variant.module, phase, &context);
        }
        let got = variant
            .run_default()
            .unwrap_or_else(|e| panic!("{context} trapped: {e}"));
        prop_assert_eq!(
            got,
            reference,
            "{} miscompiled by {:?}",
            program.name,
            names
        );
    }
}
