//! Deployment-overhead benches: policy forward pass, one full PSS
//! decision step, a served feature-only selection and a whole `optimize`
//! run — the cost MLComp adds to a compilation — plus the policy math of
//! one REINFORCE training step.

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
    g.bench_function("select_from_features", |b| {
        b.iter(|| black_box(selector.select_from_features(black_box(&features.values))))
    });
    g.bench_function("optimize (full sequence, dedup)", |b| {
        b.iter(|| black_box(selector.optimize(black_box(&apps[0].module))))
    });
    g.finish();

    // One step of Algorithm 2's update: the fused policy-gradient and
    // entropy-bonus backward pass on a cached forward pass.
    let mut g = c.benchmark_group("pss-training");
    let fwd = selector.policy.forward(&state);
    let mut grads = vec![0.0; selector.policy.param_count()];
    g.bench_function("REINFORCE step gradient", |b| {
        b.iter(|| {
            selector.policy.accumulate_step_gradient(
                &fwd,
                3,
                black_box(0.25),
                Some(0.01),
                &mut grads,
            );
            black_box(&grads);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
