//! Deployment-overhead benches: policy forward pass, one full PSS
//! decision step, and a whole `optimize` run — the cost MLComp adds to a
//! compilation.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_core::{Mlcomp, MlcompConfig};
use mlcomp_platform::X86Platform;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let platform = X86Platform::new();
    let apps: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "x264"].contains(&p.name))
        .collect();
    let mut config = MlcompConfig::quick();
    config.pss.episodes = 24;
    let artifacts = Mlcomp::new(config)
        .run(&platform, &apps)
        .expect("pipeline runs");
    let selector = &artifacts.selector;

    let features = mlcomp_features::extract(&apps[0].module);
    let state = selector.projector.project(&features.values);

    let mut g = c.benchmark_group("pss-deployment");
    g.bench_function("policy forward", |b| {
        b.iter(|| black_box(selector.policy.probabilities(black_box(&state))))
    });
    g.bench_function("ranked actions", |b| {
        b.iter(|| black_box(selector.policy.ranked_actions(black_box(&state))))
    });
    g.bench_function("optimize (full sequence, dedup)", |b| {
        b.iter(|| black_box(selector.optimize(black_box(&apps[0].module))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
