//! Fig. 6: comparison between profiling data and PE prediction for BEEBS
//! applications on the RISC-V platform (the paper shows an overview of the
//! distribution points; we print the per-app summaries and the overall
//! scatter statistics).
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin fig6_pe_beebs [--quick|--paper]
//! ```

use mlcomp_bench::{fmt_five, pe_experiment, Scale};
use mlcomp_platform::RiscVPlatform;

fn main() {
    let scale = Scale::from_args();
    let platform = RiscVPlatform::new();
    let apps = mlcomp_suites::beebs_suite();
    let (extraction, search) = scale.pe_parts(true);
    eprintln!(
        "[fig6] extracting {} BEEBS apps × {} variants on riscv ({scale:?})…",
        apps.len(),
        extraction.variants_per_app
    );
    let out = pe_experiment(&platform, &apps, &extraction, &search);

    println!("== Fig. 6 — PE profiled vs predicted distributions (BEEBS / RISC-V) ==");
    println!(
        "dataset: {} samples over {} apps",
        out.dataset.len(),
        apps.len()
    );
    println!("\nper-metric winning pipelines (held-out):");
    print!("{}", out.estimator.report());

    // The paper shows an overview rather than 24 per-app panels; print the
    // per-metric overall correspondence plus the per-app MAPE spread.
    for metric in mlcomp_platform::METRIC_NAMES {
        let rows: Vec<_> = out.rows.iter().filter(|r| r.metric == metric).collect();
        let all_prof: Vec<f64> = rows.iter().flat_map(|r| r.profiled.clone()).collect();
        let all_pred: Vec<f64> = rows.iter().flat_map(|r| r.predicted.clone()).collect();
        let mapes: Vec<f64> = rows.iter().map(|r| r.mape() * 100.0).collect();
        println!("\n--- metric: {metric} ---");
        println!("  profiled  {}", fmt_five(&all_prof));
        println!("  predicted {}", fmt_five(&all_pred));
        println!(
            "  per-app MAPE: median {:.2}%, worst {:.2}% ({} apps)",
            mlcomp_linalg::median(&mapes),
            mapes.iter().copied().fold(0.0, f64::max),
            mapes.len()
        );
    }
}
