//! Compiler-hacker entry point: build a program with the IR builder, drive
//! the pass manager phase by phase, and watch the static features and
//! dynamic profile respond — the raw material MLComp learns from.
//!
//! ```sh
//! cargo run --release --example custom_pipeline
//! ```

use mlcomp::ir::{Interpreter, ModuleBuilder, RtVal, Type};
use mlcomp::passes::{PassManager, PipelineLevel};
use mlcomp::platform::{TargetPlatform, X86Platform};

fn main() {
    // A dot-product kernel in deliberately naive (-O0 style) form.
    let mut mb = ModuleBuilder::new("demo");
    let a = mb.add_global("a", 256);
    let c = mb.add_global("c", 256);
    mb.begin_function("main", vec![Type::I64], Type::I64);
    {
        let mut b = mb.body();
        b.for_loop(b.const_i64(0), b.const_i64(256), 1, |b, i| {
            let v = b.mul(i, b.const_i64(3));
            let pa = b.gep(b.global_addr(a), i);
            b.store(pa, v);
            let w = b.add(i, b.const_i64(7));
            let pc = b.gep(b.global_addr(c), i);
            b.store(pc, w);
        });
        let acc = b.local(b.const_i64(0));
        b.for_loop(b.const_i64(0), b.param(0), 1, |b, _rep| {
            b.for_loop(b.const_i64(0), b.const_i64(256), 1, |b, i| {
                let pa = b.gep(b.global_addr(a), i);
                let pc = b.gep(b.global_addr(c), i);
                let va = b.load(pa, Type::I64);
                let vc = b.load(pc, Type::I64);
                let prod = b.mul(va, vc);
                let cur = b.load(acc, Type::I64);
                let nxt = b.add(cur, prod);
                b.store(acc, nxt);
            });
        });
        let r = b.load(acc, Type::I64);
        b.ret(Some(r));
    }
    mb.finish_function();
    let module = mb.build();
    mlcomp::ir::verify(&module).expect("valid IR");

    let platform = X86Platform::new();
    let pm = PassManager::new();
    let profile = |m: &mlcomp::ir::Module, label: &str| {
        let entry = m.find_function("main").unwrap();
        let out = Interpreter::new(m).run(entry, &[RtVal::I(50)]).unwrap();
        let feats = platform.features(&out.counts, m);
        let stat = mlcomp::features::extract(m);
        println!(
            "{label:<26} checksum {:?} | {:>9} dyn insts | {:>7.3}ms | {:>5} bytes | {:>3} static insts",
            out.ret,
            out.counts.total_instructions(),
            feats.exec_time_s * 1e3,
            feats.code_size as u64,
            stat.get("n_insts") as u64,
        );
    };

    profile(&module, "unoptimized");

    // Hand-rolled sequence, phase by phase.
    let mut hand = module.clone();
    for phase in [
        "mem2reg",
        "loop-rotate",
        "licm",
        "gvn",
        "instcombine",
        "loop-vectorize",
        "simplifycfg",
    ] {
        pm.run_phase_sandboxed(&mut hand, phase, None, phase)
            .expect("known phase");
        profile(&hand, &format!("  after {phase}"));
    }

    // Standard levels for comparison.
    for level in [
        PipelineLevel::O1,
        PipelineLevel::O2,
        PipelineLevel::O3,
        PipelineLevel::Oz,
    ] {
        let mut m = module.clone();
        pm.run_level(&mut m, level);
        profile(&m, &format!("{level}"));
    }
}
