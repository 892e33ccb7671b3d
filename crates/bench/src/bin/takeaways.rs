//! §V-C "Discussion and Key Takeaways": the paper-vs-measured summary for
//! every headline claim, across both platforms.
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin takeaways [--quick|--paper]
//! ```

use mlcomp_bench::{geomean_metric, pe_experiment, pss_experiment, Scale};
use mlcomp_platform::{RiscVPlatform, X86Platform};
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    println!("== §V-C paper-vs-measured summary ({scale:?} scale) ==\n");

    // --- PE accuracy claim: "<2% maximum percentage error across all four
    // metrics" (paper), vs 2–7% single-metric state of the art.
    let t0 = Instant::now();
    let x86 = X86Platform::new();
    let parsec = mlcomp_suites::parsec_suite();
    let (ex, search) = scale.pe_parts(false);
    let pe_x86 = pe_experiment(&x86, &parsec, &ex, &search);
    let rv = RiscVPlatform::new();
    let beebs = mlcomp_suites::beebs_suite();
    let (ex_b, search_b) = scale.pe_parts(true);
    let pe_rv = pe_experiment(&rv, &beebs, &ex_b, &search_b);
    let pe_wall = t0.elapsed();

    println!("--- Performance Estimator ---");
    println!("paper claim: max error < 2% on all 4 metrics; adaptation in ~2 days vs 15–108.");
    for (label, pe) in [("PARSEC/x86", &pe_x86), ("BEEBS/riscv", &pe_rv)] {
        println!("{label}: held-out per metric:");
        print!("{}", pe.estimator.report());
        // In-sample per-(app,metric) MAPE — the distribution fidelity of
        // Figs. 4/6.
        let mapes: Vec<f64> = pe.rows.iter().map(|r| r.mape() * 100.0).collect();
        println!(
            "  distribution fidelity (per-app MAPE): median {:.2}%, worst {:.2}%",
            mlcomp_linalg::median(&mapes),
            mapes.iter().copied().fold(0.0, f64::max)
        );
    }
    println!(
        "measured: extraction+training for BOTH platforms took {:.1}s on one laptop core\n\
     (the paper's 2-day adaptation compressed by the simulated substrate — the claim\n\
     preserved is the *relative* speed: training needs no per-candidate profiling).\n",
        pe_wall.as_secs_f64()
    );

    // --- PSS claims: up to 12% exec-time improvement, up to 6% energy,
    // ~0.1% code size, versus standard levels.
    let t1 = Instant::now();
    let pss_x86 = pss_experiment(&x86, &parsec, scale.config(false));
    let pss_rv = pss_experiment(&rv, &beebs, scale.config(true));
    let pss_wall = t1.elapsed();

    println!(
        "--- Phase Sequence Selector (trained+validated in {:.1}s) ---",
        pss_wall.as_secs_f64()
    );
    println!("paper claim: up to 12% exec-time and 6% energy improvement, ~0.1% code size.");
    for (label, out) in [("PARSEC/x86", &pss_x86), ("BEEBS/riscv", &pss_rv)] {
        println!("{label}:");
        for metric in ["exec_time_s", "energy_j", "code_size"] {
            let ml = geomean_metric(&out.rows, "MLComp", metric);
            let best_std = ["-O1", "-O2", "-O3", "-Oz"]
                .iter()
                .map(|c| geomean_metric(&out.rows, c, metric))
                .fold(f64::INFINITY, f64::min);
            println!(
                "  {metric:<12} geomean vs -O0: MLComp {ml:.3}× | best standard {best_std:.3}× | MLComp {}",
                if ml <= best_std * 1.001 { "matches/beats standard" } else { "trails standard" }
            );
        }
        // Per-app best-case improvement over the best standard level.
        let mut best_gain = 0.0f64;
        let mut best_app = "";
        for row in &out.rows {
            let ml = row
                .series
                .iter()
                .find(|(c, _)| c == "MLComp")
                .map(|(_, f)| f.exec_time_s)
                .unwrap_or(1.0);
            let std_best = row
                .series
                .iter()
                .filter(|(c, _)| c != "MLComp")
                .map(|(_, f)| f.exec_time_s)
                .fold(f64::INFINITY, f64::min);
            let gain = (std_best - ml) / std_best * 100.0;
            if gain > best_gain {
                best_gain = gain;
                best_app = &row.app;
            }
        }
        println!(
            "  best per-app exec-time gain over the best standard level: {best_gain:.1}% ({best_app})"
        );
        // Standard-level pathologies (the paper's 8–10× outliers).
        let mut worst = (1.0f64, String::new(), "");
        for row in &out.rows {
            for (cfg, f) in &row.series {
                if cfg != "MLComp" && f.exec_time_s > worst.0 {
                    worst = (f.exec_time_s, row.app.clone(), "exec_time_s");
                    let _ = cfg;
                }
            }
        }
        if worst.0 > 1.05 {
            println!(
                "  standard-level pathology: {} degraded to {:.2}× unoptimized on some level",
                worst.1, worst.0
            );
        }
    }
    println!(
        "\n(absolute numbers differ from the paper — its testbed was real hardware +\n\
     HIPERSIM; the reproduced claims are the *shapes*: PE tracks profiled\n\
     distributions per app, PSS matches or beats standard levels on time and\n\
     energy while holding code size, and adaptation is profiling-free.)"
    );
}
