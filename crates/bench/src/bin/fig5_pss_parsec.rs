//! Fig. 5: PSS validation for PARSEC applications on the x86 platform —
//! execution time, energy and code size of every configuration relative to
//! unoptimized code (lower is better), standard levels vs MLComp.
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin fig5_pss_parsec [--quick|--paper]
//! ```

use mlcomp_bench::{geomean_metric, pss_experiment, Scale};
use mlcomp_platform::X86Platform;

fn main() {
    let scale = Scale::from_args();
    let platform = X86Platform::new();
    let apps = mlcomp_suites::parsec_suite();
    eprintln!(
        "[fig5] full pipeline on {} PARSEC apps / x86 ({scale:?})…",
        apps.len()
    );
    let out = pss_experiment(&platform, &apps, scale.config(false));

    println!("== Fig. 5 — PSS validation (PARSEC / x86), relative to -O0, lower is better ==");
    println!(
        "\nPE pipelines used for training rewards:\n{}",
        out.estimator_report
    );
    for metric in ["exec_time_s", "energy_j", "code_size"] {
        println!("\n--- {metric} (×  of unoptimized) ---");
        print!("{:<14}", "app");
        for cfg in ["-O1", "-O2", "-O3", "-Oz", "MLComp"] {
            print!("{cfg:>9}");
        }
        println!();
        for row in &out.rows {
            print!("{:<14}", row.app);
            for (_, feats) in &row.series {
                print!("{:>9.3}", feats.get(metric));
            }
            println!();
        }
        print!("{:<14}", "geomean");
        for cfg in ["-O1", "-O2", "-O3", "-Oz", "MLComp"] {
            print!("{:>9.3}", geomean_metric(&out.rows, cfg, metric));
        }
        println!();
    }

    // The paper's pointers ①/③: standard levels occasionally pessimize
    // hard while MLComp stays safe.
    println!("\npathologies (any configuration > 1.05× unoptimized):");
    for row in &out.rows {
        for (cfg, feats) in &row.series {
            for metric in ["exec_time_s", "energy_j"] {
                let v = feats.get(metric);
                if v > 1.05 {
                    println!("  {:<14} {cfg:<7} {metric} = {v:.2}×", row.app);
                }
            }
        }
    }
    println!("\nMLComp phase sequences:");
    for row in &out.rows {
        println!(
            "  {:<14} ({:>2}) {:?}",
            row.app,
            row.mlcomp_sequence.len(),
            &row.mlcomp_sequence[..row.mlcomp_sequence.len().min(8)]
        );
    }
}
