//! Algorithm 1 in isolation: run the automatic model search for the
//! Performance Estimator on PARSEC/x86 profiling data and print the
//! leaderboard for each metric.
//!
//! ```sh
//! cargo run --release --example pe_model_search
//! ```

use mlcomp::core::DataExtraction;
use mlcomp::ml::search::ModelSearch;
use mlcomp::platform::{X86Platform, METRIC_NAMES};

fn main() {
    let platform = X86Platform::new();
    let apps: Vec<_> = mlcomp::suites::parsec_suite()
        .into_iter()
        .filter(|p| ["blackscholes", "dedup", "streamcluster", "x264"].contains(&p.name))
        .collect();

    println!("extracting profiling data (4 apps × 14 variants)…");
    let extraction = DataExtraction {
        variants_per_app: 14,
        ..DataExtraction::quick()
    };
    let dataset = extraction.run(&platform, &apps).expect("extraction runs");
    println!("collected {} samples\n", dataset.len());

    // A mid-sized slice of the Table III × Table IV grid, searched per
    // metric with Algorithm 1's early-exit threshold.
    let search = ModelSearch {
        models: [
            "ridge",
            "linear",
            "huber",
            "lasso",
            "decision-tree",
            "random-forest",
            "kernel-ridge",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        preprocessors: ["identity", "mean-std", "pca", "robust"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..ModelSearch::default()
    };

    // The split and the preprocessor fits do not read the targets: one
    // `run_all` shares them across the four metrics' searches.
    let targets = METRIC_NAMES.map(|metric| dataset.targets(metric));
    let columns = targets.each_ref().map(Vec::as_slice);
    let outcomes = search
        .run_all(&dataset.features(), &columns)
        .expect("search runs");
    for (metric, outcome) in METRIC_NAMES.iter().zip(outcomes) {
        println!(
            "metric `{metric}` — winner: {} → {} (accuracy {:.2}%, early stop: {})",
            outcome.best.preprocessor_name,
            outcome.best.model_name,
            outcome.accuracy * 100.0,
            outcome.early_stopped,
        );
        for entry in outcome.leaderboard.iter().take(5) {
            println!(
                "    {:>10} → {:<18} acc {:>6.2}%  max-err {:>6.2}%  R² {:>5.2}",
                entry.preprocessor,
                entry.model,
                entry.accuracy * 100.0,
                entry.max_pct_error * 100.0,
                entry.r2,
            );
        }
        println!();
    }
}
