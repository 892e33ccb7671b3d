//! The mechanism behind the paper's adaptation-time claim (50× faster
//! training, 2 days vs 15–108): obtaining dynamic features from the PE is
//! orders of magnitude cheaper than profiling an execution. This bench
//! measures both paths on the same program, and the cost of training the
//! PE (Algorithm 1's model search for all four metrics), of its
//! costliest single fit on the dataset and of fitting the PSS feature
//! projection there.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_core::{DataExtraction, FeatureProjector, PerfEstimator};
use mlcomp_ml::models::RandomForest;
use mlcomp_ml::search::ModelSearch;
use mlcomp_ml::Regressor;
use mlcomp_platform::{Profiler, Workload, X86Platform};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let platform = X86Platform::new();
    let apps: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
        .collect();
    let dataset = DataExtraction::quick()
        .run(&platform, &apps)
        .expect("extraction runs");
    let search = ModelSearch::quick();
    let estimator = PerfEstimator::train(&dataset, &search).expect("PE trains");

    let target = &apps[0];
    let features = mlcomp_features::extract(&target.module);
    let profiler = Profiler::new(&platform);
    let workload = Workload::new(target.entry, target.default_args());

    let mut g = c.benchmark_group("dynamic-feature-acquisition");
    g.bench_function("profiling (execute + cost model)", |b| {
        b.iter(|| {
            black_box(
                profiler
                    .profile(black_box(&target.module), &workload)
                    .unwrap(),
            )
        })
    });
    g.bench_function("pe-prediction (no execution)", |b| {
        b.iter(|| black_box(estimator.predict(black_box(&features))))
    });
    g.bench_function("feature-extraction", |b| {
        b.iter(|| black_box(mlcomp_features::extract(black_box(&target.module))))
    });
    g.finish();

    let mut g = c.benchmark_group("pe-training");
    g.bench_function("PerfEstimator::train (quick zoo)", |b| {
        b.iter(|| black_box(PerfEstimator::train(black_box(&dataset), &search).unwrap()))
    });
    // The costliest fit of the quick zoo: 30 bagged trees.
    let (x, y) = (dataset.features(), dataset.targets("exec_time_s"));
    g.bench_function("RandomForest::fit (quick dataset)", |b| {
        b.iter(|| {
            let mut forest = RandomForest::default();
            forest.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(forest)
        })
    });
    // Standardize + PCA(MLE): one eigendecomposition of the 63 × 63
    // covariance of the standardized features.
    g.bench_function("FeatureProjector::fit (quick dataset)", |b| {
        b.iter(|| black_box(FeatureProjector::fit(black_box(&x)).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
