//! Extension experiment (the paper's §III-D future work): quantify PSS
//! quality with *probabilistic dominance* — under realistic profiling
//! noise, how probable is it that MLComp's output Pareto-dominates the
//! unoptimized build, and how often is it dominated by a standard level?
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin pss_dominance [--quick|--paper]
//! ```

use mlcomp_bench::{pss_experiment, Scale};
use mlcomp_platform::{probabilistic_dominance, DynamicFeatures, X86Platform};

fn main() {
    let scale = Scale::from_args();
    let platform = X86Platform::new();
    let apps = mlcomp_suites::parsec_suite();
    eprintln!("[dominance] training PSS on PARSEC/x86 ({scale:?})…");
    let out = pss_experiment(&platform, &apps, scale.config(false));

    const NOISE: f64 = 0.02; // 2% RAPL-style jitter
    const SAMPLES: usize = 4000;
    let unopt = DynamicFeatures::from_array([1.0, 1.0, 1.0, 1.0]); // relative space

    println!(
        "== Probabilistic dominance under {:.0}% measurement noise ==",
        NOISE * 100.0
    );
    println!(
        "{:<14} {:>22} {:>22} {:>14}",
        "app", "P(MLComp ≻ -O0)", "P(-O3 ≻ MLComp)", "P(incomp.)"
    );
    let mut dom_o0 = 0.0;
    let mut dominated_by_o3 = 0.0;
    for row in &out.rows {
        let ml = row
            .series
            .iter()
            .find(|(c, _)| c == "MLComp")
            .map(|(_, f)| *f)
            .expect("MLComp series present");
        let o3 = row
            .series
            .iter()
            .find(|(c, _)| c == "-O3")
            .map(|(_, f)| *f)
            .expect("-O3 series present");
        let vs_unopt = probabilistic_dominance(&ml, &unopt, NOISE, SAMPLES, 41);
        let vs_o3 = probabilistic_dominance(&o3, &ml, NOISE, SAMPLES, 42);
        println!(
            "{:<14} {:>21.1}% {:>21.1}% {:>13.1}%",
            row.app,
            vs_unopt.a_dominates * 100.0,
            vs_o3.a_dominates * 100.0,
            vs_o3.incomparable * 100.0
        );
        dom_o0 += vs_unopt.a_dominates;
        dominated_by_o3 += vs_o3.a_dominates;
    }
    let n = out.rows.len() as f64;
    println!(
        "\nmeans: P(MLComp ≻ -O0) = {:.1}% | P(-O3 ≻ MLComp) = {:.1}%",
        dom_o0 / n * 100.0,
        dominated_by_o3 / n * 100.0
    );
    println!(
        "reading: MLComp reliably dominates unoptimized code; -O3 rarely\n\
         *dominates* MLComp outright because MLComp holds code size where -O3\n\
         trades it away — the quasi-Pareto-optimality §III-D argues for."
    );
}
