//! Determinism regression tests for the parallel hot paths: the same seed
//! must produce byte-identical artifacts at every worker-thread count.
//!
//! This is the contract that makes `num_threads` a pure performance knob —
//! datasets extracted on a laptop and a 64-core server are interchangeable,
//! and every experiment in the paper reproduction is exactly repeatable.

use mlcomp::core::{DataExtraction, PerfEstimator};
use mlcomp::ml::search::ModelSearch;
use mlcomp::platform::{X86Platform, METRIC_NAMES};

fn small_suite() -> Vec<mlcomp::suites::BenchProgram> {
    mlcomp::suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "vips", "blackscholes"].contains(&p.name))
        .collect()
}

#[test]
fn dataset_serialization_is_identical_across_thread_counts() {
    let platform = X86Platform::new();
    let apps = small_suite();
    let reference = DataExtraction {
        num_threads: 1,
        noise: 0.005,
        ..DataExtraction::quick()
    }
    .run(&platform, &apps)
    .unwrap();
    let reference_json = serde_json::to_string(&reference).unwrap();
    for threads in [4usize, 8] {
        let ds = DataExtraction {
            num_threads: threads,
            noise: 0.005,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        assert_eq!(
            reference_json,
            serde_json::to_string(&ds).unwrap(),
            "Dataset JSON must be byte-identical at num_threads={threads}"
        );
    }
}

#[test]
fn model_search_winner_is_identical_across_thread_counts() {
    let platform = X86Platform::new();
    let apps = small_suite();
    let dataset = DataExtraction::quick().run(&platform, &apps).unwrap();
    let x = dataset.features();
    let y = dataset.targets("exec_time_s");

    let reference = ModelSearch {
        num_threads: 1,
        ..ModelSearch::quick()
    }
    .run(&x, &y)
    .unwrap();
    for threads in [2usize, 4, 8] {
        let out = ModelSearch {
            num_threads: threads,
            ..ModelSearch::quick()
        }
        .run(&x, &y)
        .unwrap();
        assert_eq!(
            (
                reference.best.model_name.as_str(),
                reference.best.preprocessor_name.as_str(),
                reference.early_stopped,
            ),
            (
                out.best.model_name.as_str(),
                out.best.preprocessor_name.as_str(),
                out.early_stopped,
            ),
            "winning pipeline must not depend on num_threads={threads}"
        );
        assert_eq!(reference.leaderboard, out.leaderboard);
    }
}

#[test]
fn fitted_estimator_bytes_are_identical_across_thread_counts() {
    let platform = X86Platform::new();
    let dataset = DataExtraction::quick()
        .run(&platform, &small_suite())
        .unwrap();
    let train = |threads: usize| {
        let search = ModelSearch {
            num_threads: threads,
            ..ModelSearch::quick()
        };
        let estimator = PerfEstimator::train(&dataset, &search).unwrap();
        assert_eq!(estimator.report().rows.len(), METRIC_NAMES.len());
        serde_json::to_string(&estimator).unwrap()
    };
    // The JSON holds every metric's fitted pipeline (preprocessor and
    // model parameters, bit for bit) and its report row.
    let reference = train(1);
    for threads in [2usize, 4] {
        assert_eq!(
            reference,
            train(threads),
            "fitted PerfEstimator JSON must be byte-identical at num_threads={threads}"
        );
    }
}

/// The four metrics' searches run together on the pool (chunk *k* of
/// every metric in one fan-out), yet each metric's pipeline and report row
/// equal those of a search of that metric alone, at every thread count.
#[test]
fn estimator_equals_one_search_per_metric_at_every_thread_count() {
    let platform = X86Platform::new();
    let dataset = DataExtraction::quick()
        .run(&platform, &small_suite())
        .unwrap();
    let x = dataset.features();
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for threads in [1usize, 2, 4] {
        let search = ModelSearch {
            num_threads: threads,
            ..ModelSearch::quick()
        };
        let estimator = PerfEstimator::train(&dataset, &search).unwrap();
        for (metric, row) in METRIC_NAMES.iter().zip(&estimator.report().rows) {
            let alone = search.run(&x, &dataset.targets(metric)).unwrap();
            let want = (
                metric.to_string(),
                alone.best.preprocessor_name.clone(),
                alone.best.model_name.clone(),
                alone.accuracy,
                alone.leaderboard[0].max_pct_error,
            );
            assert_eq!(row, &want, "{metric} at num_threads={threads}");
            assert_eq!(
                bits(estimator.predict_metric(&x, metric)),
                bits(alone.best.predict(&x)),
                "{metric} predictions at num_threads={threads}"
            );
        }
    }
}

/// The observability contract (DESIGN.md §11): attaching a trace sink
/// must not change a single byte of any artifact. Timing is read only for
/// events, never fed back into seeds, ordering, or results.
#[test]
fn tracing_does_not_perturb_extraction_fingerprints() {
    use std::sync::Arc;

    let platform = X86Platform::new();
    let apps = small_suite();
    let config = DataExtraction {
        num_threads: 4,
        ..DataExtraction::quick()
    };

    // Reference: tracing never installed (the shipping default).
    let untraced = serde_json::to_string(&config.run(&platform, &apps).unwrap()).unwrap();

    // NullSink: instrumentation stays disabled.
    let null_traced = mlcomp::trace::with_sink(Arc::new(mlcomp::trace::NullSink), || {
        serde_json::to_string(&config.run(&platform, &apps).unwrap()).unwrap()
    });
    assert_eq!(untraced, null_traced, "NullSink must be a no-op");

    // RingSink: full instrumentation enabled, events buffered in memory.
    let ring = Arc::new(mlcomp::trace::RingSink::new(1 << 16));
    let ring_traced = mlcomp::trace::with_sink(ring.clone(), || {
        serde_json::to_string(&config.run(&platform, &apps).unwrap()).unwrap()
    });
    assert_eq!(
        untraced, ring_traced,
        "an in-memory sink must not perturb the Dataset"
    );
    assert!(
        !ring.is_empty(),
        "an enabled sink must actually observe events"
    );

    // JsonlSink: full instrumentation writing to a real file.
    let path = std::env::temp_dir().join("mlcomp_determinism_trace.jsonl");
    let sink = mlcomp::trace::JsonlSink::create(&path).expect("temp trace file");
    let jsonl_traced = mlcomp::trace::with_sink(Arc::new(sink), || {
        serde_json::to_string(&config.run(&platform, &apps).unwrap()).unwrap()
    });
    assert_eq!(
        untraced, jsonl_traced,
        "a JSONL sink must not perturb the Dataset"
    );
    let trace = std::fs::read_to_string(&path).expect("trace file exists");
    std::fs::remove_file(&path).ok();
    assert!(
        trace.lines().any(|l| l.contains("\"t\":\"span\"")),
        "the trace file must contain span events"
    );
}

#[test]
fn extraction_is_repeatable_within_one_thread_count() {
    let platform = X86Platform::new();
    let apps = small_suite();
    let config = DataExtraction {
        num_threads: 8,
        ..DataExtraction::quick()
    };
    let a = config.run(&platform, &apps).unwrap();
    let b = config.run(&platform, &apps).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

/// The whole pipeline at 1, 2 and 4 threads: the dataset, the estimator,
/// the selector and the training curve must be byte-identical. Above one
/// thread the feature projector is fitted beside Algorithm 1.
#[test]
fn pipeline_is_identical_across_thread_counts() {
    use mlcomp::core::{Mlcomp, MlcompConfig};
    let platform = X86Platform::new();
    let apps = small_suite();
    let run = |threads: usize| {
        let artifacts = Mlcomp::new(MlcompConfig::quick().with_num_threads(threads))
            .run(&platform, &apps)
            .unwrap();
        [
            serde_json::to_string(&artifacts.dataset).unwrap(),
            serde_json::to_string(&artifacts.estimator).unwrap(),
            serde_json::to_string(&artifacts.selector).unwrap(),
            format!("{:?}", artifacts.training_curve),
        ]
    };
    let reference = run(1);
    for threads in [2usize, 4] {
        let out = run(threads);
        for (what, (a, b)) in ["dataset", "estimator", "selector", "training curve"]
            .iter()
            .zip(reference.iter().zip(&out))
        {
            assert!(a == b, "{what} differs at num_threads={threads}");
        }
    }
}

/// PSS training reads trace state only to emit events: under a
/// `RingSink` it yields the selector and statistics of an untraced run.
/// The `rl.train` span reports the distinct forwards it computed, fewer
/// than its environment steps.
#[test]
fn tracing_does_not_change_pss_training() {
    use mlcomp::core::{FeatureProjector, PhaseSequenceSelector, PssConfig, RewardWeights};
    use mlcomp::trace::{FieldValue, TraceEvent};
    use std::sync::Arc;

    let platform = X86Platform::new();
    let apps = small_suite();
    let dataset = DataExtraction::quick().run(&platform, &apps).unwrap();
    let estimator = PerfEstimator::train(&dataset, &ModelSearch::quick()).unwrap();
    let projector = FeatureProjector::fit(&dataset.features()).unwrap();
    let train = || {
        let (selector, stats) = PhaseSequenceSelector::train(
            &apps,
            &estimator,
            projector.clone(),
            PssConfig::quick(),
            RewardWeights::default(),
        );
        (
            serde_json::to_string(&selector).unwrap(),
            format!("{stats:?}"),
        )
    };
    let untraced = train();
    let ring = Arc::new(mlcomp::trace::RingSink::new(1 << 18));
    let traced = mlcomp::trace::with_sink(ring.clone(), train);
    assert!(untraced.0 == traced.0, "a RingSink changed the selector");
    assert_eq!(untraced.1, traced.1, "a RingSink changed the statistics");

    // Other tests may trace concurrently: match the `phase` spans of the
    // training by thread and time.
    let events = ring.take();
    let (thread, start, end, forwards) = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Span {
                name: "rl.train",
                thread,
                start_ns,
                dur_ns,
                fields,
                ..
            } => fields.iter().find(|f| f.key == "forwards").map(|f| {
                let FieldValue::U64(n) = f.value else {
                    panic!("forwards is a count: {:?}", f.value)
                };
                (*thread, *start_ns, start_ns + dur_ns, n)
            }),
            _ => None,
        })
        .expect("an rl.train span with a forwards field");
    let steps = events
        .iter()
        .filter(|e| {
            matches!(e, TraceEvent::Span { name: "phase", path, thread: t, start_ns, .. }
                if *t == thread && (start..end).contains(start_ns) && path.contains("pss.train/"))
        })
        .count() as u64;
    assert!(
        0 < forwards && forwards < steps,
        "{forwards} forwards over {steps} steps"
    );
}
