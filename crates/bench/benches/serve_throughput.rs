//! Serving-layer throughput: batched vs. unbatched submission, cold vs.
//! warm sequence cache — the numbers behind EXPERIMENTS.md §"Serving
//! throughput".
//!
//! Each iteration serves the same 64-request workload (16 distinct
//! feature vectors × 4 repeats, shuffled deterministically), so the warm
//! benches measure steady-state cache behaviour while the cold benches
//! rebuild the server — and therefore an empty cache — inside the timed
//! region's setup.

use criterion::{criterion_group, criterion_main, Criterion};
use mlcomp_core::{Mlcomp, MlcompConfig};
use mlcomp_platform::X86Platform;
use mlcomp_serve::{
    ArtifactBundle, BatchServer, CacheConfig, SelectionEngine, SelectionRequest, ServerConfig,
};
use std::hint::black_box;

/// 16 distinct synthetic feature vectors × 4 repeats, interleaved so that
/// repeats are never adjacent (a trivially adjacent repeat would flatter
/// the cache).
fn workload(base: &[f64]) -> Vec<SelectionRequest> {
    let distinct: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            base.iter()
                .enumerate()
                .map(|(j, &v)| v + ((i * 31 + j) % 7) as f64)
                .collect()
        })
        .collect();
    (0..64)
        .map(|id| SelectionRequest {
            id: id as u64,
            features: distinct[id % 16].clone(),
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let platform = X86Platform::new();
    let apps: Vec<_> = mlcomp_suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "vips"].contains(&p.name))
        .collect();
    let mut config = MlcompConfig::quick();
    config.pss.episodes = 24;
    let artifacts = Mlcomp::new(config)
        .run(&platform, &apps)
        .expect("pipeline runs");
    let bundle = ArtifactBundle::new(artifacts.selector, artifacts.estimator).expect("deployable");
    let requests = workload(&mlcomp_features::extract(&apps[0].module).values);

    let server = |threads: usize| {
        BatchServer::new(
            SelectionEngine::from_bundle(bundle.clone(), CacheConfig::default()),
            ServerConfig {
                queue_capacity: 256,
                num_threads: threads,
            },
        )
    };

    let mut g = c.benchmark_group("serve-throughput");
    // Cold: a fresh cache every iteration; every request computes.
    g.bench_function("unbatched cold (64 reqs one-by-one)", |b| {
        b.iter(|| {
            let s = server(1);
            for r in &requests {
                black_box(s.submit_batch(std::slice::from_ref(r)).unwrap());
            }
        })
    });
    g.bench_function("batched cold (one 64-req batch)", |b| {
        b.iter(|| {
            let s = server(0);
            black_box(s.submit_batch(&requests).unwrap())
        })
    });
    // Warm: the server (and its cache) survives across iterations.
    let warm_seq = server(1);
    warm_seq.submit_batch(&requests).unwrap();
    g.bench_function("unbatched warm (64 reqs one-by-one)", |b| {
        b.iter(|| {
            for r in &requests {
                black_box(warm_seq.submit_batch(std::slice::from_ref(r)).unwrap());
            }
        })
    });
    let warm_batch = server(0);
    warm_batch.submit_batch(&requests).unwrap();
    g.bench_function("batched warm (one 64-req batch)", |b| {
        b.iter(|| black_box(warm_batch.submit_batch(&requests).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
