//! Profiling-substrate throughput: interpreter speed on representative
//! kernels, unoptimized vs -O3 (the cost of one Data Extraction sample),
//! on the two costliest `-O0` profiles of extraction (`vips`, `x264`) and
//! on one state RL training profiles (`x264` after `loop-unroll`). Each id
//! reports its time per executed instruction as well as per run.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use mlcomp_ir::{Interpreter, Module, RtVal};
use mlcomp_passes::{PassManager, PipelineLevel};
use std::hint::black_box;

/// Benchmarks one run of `entry` in `module`, with the executed
/// instruction count as the throughput.
fn bench_run(g: &mut BenchmarkGroup<'_>, id: &str, module: &Module, entry: &str, args: &[RtVal]) {
    let entry = module.find_function(entry).expect("entry function");
    let executed = Interpreter::new(module)
        .run(entry, args)
        .expect("executes")
        .counts
        .total_instructions();
    g.throughput(Throughput::Elements(executed));
    g.bench_function(id, |b| {
        b.iter(|| black_box(Interpreter::new(module).run(entry, args).unwrap()))
    });
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    let pm = PassManager::new();
    for name in ["crc32", "matmult-int", "blackscholes"] {
        let program = mlcomp_suites::program(name).expect("suite program");
        let args = program.default_args();
        bench_run(
            &mut g,
            &format!("{name} -O0"),
            &program.module,
            program.entry,
            &args,
        );
        let mut opt = program.module.clone();
        pm.run_level(&mut opt, PipelineLevel::O3);
        bench_run(&mut g, &format!("{name} -O3"), &opt, program.entry, &args);
    }
    for name in ["vips", "x264"] {
        let program = mlcomp_suites::program(name).expect("suite program");
        let args = program.default_args();
        bench_run(
            &mut g,
            &format!("{name} -O0"),
            &program.module,
            program.entry,
            &args,
        );
    }
    let x264 = mlcomp_suites::program("x264").expect("suite program");
    let mut unrolled = x264.module.clone();
    pm.run_phase_sandboxed(&mut unrolled, "loop-unroll", None, "loop-unroll")
        .unwrap();
    bench_run(
        &mut g,
        "x264+loop-unroll",
        &unrolled,
        x264.entry,
        &x264.default_args(),
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
