//! The paper's adaptation story: retarget the same application domain from
//! x86 to RISC-V by re-running extraction and retraining — no manual
//! modeling. The two platforms reward different phases (SIMD pays on x86,
//! strength reduction and branch hints pay on the in-order RISC-V core),
//! and the printout shows the per-platform PE picks and phase choices.
//!
//! ```sh
//! cargo run --release --example cross_platform
//! ```

use mlcomp::core::{DataExtraction, Mlcomp, MlcompConfig};
use mlcomp::ml::search::ModelSearch;
use mlcomp::platform::{Profiler, RiscVPlatform, TargetPlatform, Workload, X86Platform};
use mlcomp::suites::BenchProgram;

fn demo_config() -> MlcompConfig {
    // Stronger than `quick()` (more variants, a diverse model subset) while
    // staying in demo runtime.
    let mut c = MlcompConfig::quick();
    c.extraction = DataExtraction {
        variants_per_app: 16,
        ..DataExtraction::default()
    };
    c.search = ModelSearch {
        models: [
            "ridge",
            "huber",
            "kernel-ridge",
            "decision-tree",
            "random-forest",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        preprocessors: ["identity", "mean-std", "pca"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..ModelSearch::default()
    };
    c.pss.episodes = 128;
    c
}

fn run_on<P: TargetPlatform + Sync>(platform: &P, apps: &[BenchProgram]) {
    println!("=== target: {} ===", platform.name());
    let artifacts = Mlcomp::new(demo_config())
        .run(platform, apps)
        .expect("pipeline runs");
    println!("PE pipelines:");
    print!("{}", artifacts.estimator.report());
    let profiler = Profiler::new(platform);
    for app in apps {
        let (optimized, phases) = artifacts.selector.optimize(&app.module);
        let w = Workload::new(app.entry, app.default_args());
        let base = profiler.profile(&app.module, &w).expect("baseline runs");
        let tuned = profiler.profile(&optimized, &w).expect("optimized runs");
        println!(
            "  {:<14} time {:+6.1}% | energy {:+6.1}% | size {:+6.1}% | {:?}…",
            app.name,
            (tuned.exec_time_s / base.exec_time_s - 1.0) * 100.0,
            (tuned.energy_j / base.energy_j - 1.0) * 100.0,
            (tuned.code_size / base.code_size - 1.0) * 100.0,
            &phases[..phases.len().min(4)],
        );
    }
    println!();
}

fn main() {
    // The same application domain, retargeted — only the platform (and its
    // profiler) changes, exactly the adaptation §IV promises.
    let apps: Vec<_> = mlcomp::suites::beebs_suite()
        .into_iter()
        .filter(|p| ["matmult-int", "fir", "crc32"].contains(&p.name))
        .collect();

    run_on(&X86Platform::new(), &apps);
    run_on(&RiscVPlatform::new(), &apps);
}
