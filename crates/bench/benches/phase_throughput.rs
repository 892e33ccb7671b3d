//! Per-phase sandboxed throughput — the cost of one PSS step's compiler
//! work (snapshot, transform, verify) — on a pristine suite module and, in
//! the in-situ group, on states that real phase prefixes reach.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_ir::analysis::{Cfg, DefUse, DomTree, LoopForest};
use mlcomp_passes::{PassManager, PhaseOutcome, Sandbox};
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

/// Memory CSE and `instcombine` on unrolled modules, where their cost grows
/// with the IR: pristine modules hide that. Also `loop-unroll` itself, on
/// pristine `x264` (a run RL training repeats) and once more on its output,
/// where it changes nothing: the cost of an inactive phase run. `ipsccp`
/// and `instsimplify`, the costliest phases of deployment, mostly run
/// without changing anything, so they measure the fixed cost of a phase
/// run, as does building def-use chains for every function. `loop-load-elim`,
/// `dse` and `adce` on unrolled `x264` time the phases that ask the shared
/// memory-effect queries on every instruction, and `mem2reg` there the
/// per-alloca scans of promotion. `simplifycfg`, `licm`,
/// `reassociate`, `sroa` and `loop-rotate` on unrolled `x264` time the
/// phases whose cost grows fastest with the IR in RL training; the
/// largest state, unrolled `matmult-int`, times `simplifycfg`, `licm`,
/// `instsimplify` and `sroa` once more, where a whole-function scan per
/// rewritten value would cost a hundred times its linear reading. The
/// `snapshot` ids run eight phases that change nothing on unrolled `x264`,
/// once as one-shot calls (a module copy each) and once through one
/// sandbox session (one copy in all): the gap is the cost of seven
/// snapshot copies. `ipsccp in a session on x264` repeats `ipsccp` in one
/// session that it no longer changes, against the one-shot `ipsccp on
/// x264`: no copy, and every analysis served from the session's cache.
/// `gvn` after `instcombine` and `early-cse-memssa` after that `gvn` on
/// unrolled `x264` are the memory CSE runs RL training repeats most;
/// `verify` and `LoopForest::new` on unrolled `x264` time the dominance
/// queries every verified run and every loop phase ask.
fn bench_in_situ(c: &mut Criterion) {
    /// Phases that leave `x264+loop-unroll` unchanged.
    const UNCHANGED: [&str; 8] = [
        "lower-expect",
        "tailcallelim",
        "inline",
        "globaldce",
        "jump-threading",
        "loop-unroll",
        "loop-load-elim",
        "adce",
    ];
    let pm = PassManager::new();
    let mut g = c.benchmark_group("phase-throughput-in-situ");
    for (name, prefix, phases) in [
        (
            "x264",
            &[][..],
            &["loop-unroll", "ipsccp", "instsimplify"][..],
        ),
        (
            "x264",
            &["loop-unroll"][..],
            &[
                "gvn",
                "early-cse-memssa",
                "instcombine",
                "loop-unroll",
                "ipsccp",
                "instsimplify",
                "loop-load-elim",
                "mem2reg",
                "dse",
                "adce",
                "simplifycfg",
                "licm",
                "reassociate",
                "sroa",
                "loop-rotate",
            ][..],
        ),
        ("x264", &["loop-unroll", "instcombine"][..], &["gvn"][..]),
        (
            "x264",
            &["loop-unroll", "instcombine", "gvn"][..],
            &["early-cse-memssa"][..],
        ),
        (
            "matmult-int",
            &["sroa", "loop-unroll"][..],
            &[
                "gvn",
                "early-cse-memssa",
                "instcombine",
                "simplifycfg",
                "licm",
                "instsimplify",
                "sroa",
            ][..],
        ),
    ] {
        let mut state = mlcomp_suites::program(name).expect("suite program").module;
        let report = pm
            .run_sequence_sandboxed(&mut state, prefix.iter().copied(), None, "prefix")
            .unwrap();
        assert!(report.quarantine.is_empty(), "prefix {prefix:?} on {name}");
        let state_name = [name]
            .iter()
            .chain(prefix)
            .copied()
            .collect::<Vec<_>>()
            .join("+");
        println!("{state_name}: {} insts", state.total_insts());
        if state_name == "x264" {
            let mut session = Sandbox::new(state.clone());
            while session.run_phase("ipsccp", None, "").unwrap() == PhaseOutcome::Changed {}
            g.bench_function("ipsccp in a session on x264", |b| {
                b.iter(|| black_box(session.run_phase("ipsccp", None, "").unwrap()))
            });
        }
        if state_name == "x264+loop-unroll" {
            g.bench_function(format!("DefUse::new on {state_name}"), |b| {
                b.iter(|| {
                    for f in &black_box(&state).functions {
                        black_box(DefUse::new(f));
                    }
                })
            });
            g.bench_function(format!("verify on {state_name}"), |b| {
                b.iter(|| mlcomp_ir::verify(black_box(&state)).unwrap())
            });
            let analyses: Vec<(Cfg, DomTree)> = state
                .functions
                .iter()
                .map(|f| {
                    let cfg = Cfg::new(f);
                    let dt = DomTree::new(&cfg);
                    (cfg, dt)
                })
                .collect();
            g.bench_function(format!("LoopForest::new on {state_name}"), |b| {
                b.iter(|| {
                    for (cfg, dt) in black_box(&analyses) {
                        black_box(LoopForest::new(cfg, dt));
                    }
                })
            });
            for phase in UNCHANGED {
                let outcome = pm
                    .run_phase_sandboxed(&mut state.clone(), phase, None, phase)
                    .unwrap();
                assert_eq!(outcome, PhaseOutcome::Unchanged, "{phase} on {state_name}");
            }
            g.bench_function(format!("snapshot: 8 one-shot runs on {state_name}"), |b| {
                b.iter(|| {
                    let mut m = black_box(state.clone());
                    for phase in UNCHANGED {
                        pm.run_phase_sandboxed(&mut m, phase, None, phase).unwrap();
                    }
                    black_box(m)
                })
            });
            g.bench_function(
                format!("snapshot: 8 runs in one session on {state_name}"),
                |b| {
                    b.iter(|| {
                        let mut session = Sandbox::new(black_box(state.clone()));
                        for phase in UNCHANGED {
                            session.run_phase(phase, None, phase).unwrap();
                        }
                        black_box(session.into_module())
                    })
                },
            );
        }
        for &phase in phases {
            g.bench_function(format!("{phase} on {state_name}"), |b| {
                b.iter(|| {
                    let mut m = black_box(state.clone());
                    pm.run_phase_sandboxed(&mut m, phase, None, phase).unwrap();
                    black_box(m)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench, bench_in_situ);
criterion_main!(benches);
