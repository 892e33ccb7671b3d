//! Fig. 7: PSS validation for BEEBS applications on the RISC-V platform —
//! all metrics relative to unoptimized code, standard levels vs MLComp.
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin fig7_pss_beebs [--quick|--paper]
//! ```

use mlcomp_bench::{geomean_metric, pss_experiment, Scale};
use mlcomp_platform::RiscVPlatform;

fn main() {
    let scale = Scale::from_args();
    let platform = RiscVPlatform::new();
    let apps = mlcomp_suites::beebs_suite();
    eprintln!(
        "[fig7] full pipeline on {} BEEBS apps / riscv ({scale:?})…",
        apps.len()
    );
    let out = pss_experiment(&platform, &apps, scale.config(true));

    println!("== Fig. 7 — PSS validation (BEEBS / RISC-V), relative to -O0, lower is better ==");
    for metric in ["exec_time_s", "energy_j", "code_size"] {
        println!("\n--- {metric} (× of unoptimized) ---");
        print!("{:<16}", "app");
        for cfg in ["-O1", "-O2", "-O3", "-Oz", "MLComp"] {
            print!("{cfg:>9}");
        }
        println!();
        for row in &out.rows {
            print!("{:<16}", row.app);
            for (_, feats) in &row.series {
                print!("{:>9.3}", feats.get(metric));
            }
            println!();
        }
        print!("{:<16}", "geomean");
        for cfg in ["-O1", "-O2", "-O3", "-Oz", "MLComp"] {
            print!("{:>9.3}", geomean_metric(&out.rows, cfg, metric));
        }
        println!();
    }

    // Pointer ①: average behaviour; pointer ③: balance across metrics.
    println!("\nbalance check (MLComp geomeans):");
    let t = geomean_metric(&out.rows, "MLComp", "exec_time_s");
    let e = geomean_metric(&out.rows, "MLComp", "energy_j");
    let s = geomean_metric(&out.rows, "MLComp", "code_size");
    println!("  time {t:.3}× | energy {e:.3}× | size {s:.3}× (vs -O0)");
    let o3_t = geomean_metric(&out.rows, "-O3", "exec_time_s");
    let o3_e = geomean_metric(&out.rows, "-O3", "energy_j");
    println!(
        "  -O3 reference: time {o3_t:.3}× | energy {o3_e:.3}× — MLComp {} on time, {} on energy",
        if t <= o3_t { "wins/ties" } else { "trails" },
        if e <= o3_e { "wins/ties" } else { "trails" },
    );
}
