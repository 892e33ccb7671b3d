//! Thread-scaling of the parallel data-extraction hot path.
//!
//! Runs the quick extraction configuration over the PARSEC suite at
//! 1/2/4/8 worker threads, reporting wall-clock per run, the speedup over
//! the single-thread baseline, and — the determinism contract — that every
//! thread count serializes to *byte-identical* JSON.
//!
//! Reading the output: `speedup` at 4 threads should be ≥ 2× on a
//! ≥ 4-core host (the acceptance bar); flat numbers mean the workload is
//! too small (raise `variants_per_app`) or the host is core-starved.

use mlcomp_core::DataExtraction;
use mlcomp_platform::X86Platform;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let platform = X86Platform::new();
    let apps = mlcomp_suites::parsec_suite();
    let config = DataExtraction::quick();

    println!(
        "== extraction_scaling ({} apps × {} variants)",
        apps.len(),
        config.variants_per_app
    );

    let mut baseline_secs = 0.0;
    let mut baseline_json = String::new();
    for threads in [1usize, 2, 4, 8] {
        let config = DataExtraction {
            num_threads: threads,
            ..config.clone()
        };
        // Warm-up, then the timed runs.
        let dataset = config.run(&platform, &apps).expect("extraction runs");
        let runs = 3;
        let start = Instant::now();
        for _ in 0..runs {
            black_box(config.run(&platform, &apps).expect("extraction runs"));
        }
        let secs = start.elapsed().as_secs_f64() / runs as f64;

        let json = serde_json::to_string(&dataset).expect("dataset serializes");
        if threads == 1 {
            baseline_secs = secs;
            baseline_json = json;
            println!(
                "threads=1   {:>8.1} ms   speedup 1.00x   ({} samples)",
                secs * 1e3,
                dataset.len()
            );
        } else {
            assert_eq!(
                baseline_json, json,
                "dataset must be byte-identical at num_threads={threads}"
            );
            println!(
                "threads={threads}   {:>8.1} ms   speedup {:.2}x   (byte-identical ✓)",
                secs * 1e3,
                baseline_secs / secs
            );
        }
    }
}
