//! Deployment-overhead benches: policy forward pass, one full PSS
//! decision step, a served feature-only selection and a whole `optimize`
//! run — the cost MLComp adds to a compilation — plus the policy math of
//! one REINFORCE training step and a whole quick PSS training.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_core::{
    DataExtraction, Mlcomp, MlcompConfig, PerfEstimator, PhaseSequenceSelector, PssConfig,
    RewardWeights,
};
use mlcomp_ml::search::ModelSearch;
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

    // One step of Algorithm 2's update on a cached forward pass: the
    // entropy-bonus chain and the policy-gradient chain, both added into
    // every weight. Training shares the entropy chain among the steps on
    // one forward, so it pays less than this per step.
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

    // Algorithm 2 as the quickstart runs it: the trainer with its
    // environment, through `PhaseSequenceSelector::train`, whose own work
    // beside the trainer is setting both up.
    let apps: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
        .collect();
    let dataset = DataExtraction::quick()
        .run(&platform, &apps)
        .expect("extraction runs");
    let estimator = PerfEstimator::train(&dataset, &ModelSearch::quick()).expect("PE trains");
    let projector = mlcomp_core::FeatureProjector::fit(&dataset.features()).expect("fits");
    g.bench_function(
        "ReinforceTrainer::train (quick PSS, dedup/vips/x264)",
        |b| {
            b.iter(|| {
                black_box(PhaseSequenceSelector::train(
                    &apps,
                    &estimator,
                    projector.clone(),
                    PssConfig::quick(),
                    RewardWeights::default(),
                ))
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
