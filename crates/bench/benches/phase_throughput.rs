//! Per-phase sandboxed throughput over a representative suite module —
//! the cost of one PSS step's compiler work (snapshot, transform, verify).

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_passes::PassManager;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let program = mlcomp_suites::program("blackscholes").expect("suite program");
    let pm = PassManager::new();
    let mut g = c.benchmark_group("phase-throughput");
    for phase in [
        "mem2reg",
        "instcombine",
        "gvn",
        "simplifycfg",
        "licm",
        "loop-rotate",
        "inline",
        "sccp",
        "adce",
        "loop-vectorize",
    ] {
        g.bench_function(phase, |b| {
            b.iter(|| {
                let mut m = black_box(program.module.clone());
                pm.run_phase_sandboxed(&mut m, phase, None, phase).unwrap();
                black_box(m)
            })
        });
    }
    // A full -O3 pipeline for scale.
    g.bench_function("-O3 pipeline", |b| {
        b.iter(|| {
            let mut m = black_box(program.module.clone());
            pm.run_level(&mut m, mlcomp_passes::PipelineLevel::O3);
            black_box(m)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
