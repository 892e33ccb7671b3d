//! Ablation of the reward design (DESIGN.md §4): how much does the
//! Pareto *degradation penalty* in the PSS reward matter? Trains three
//! policies — no penalty, the default, and a harsh penalty — and counts
//! how often each one's deployed sequences regress a metric.
//!
//! ```sh
//! cargo run --release -p mlcomp-bench --bin ablation_reward [--quick]
//! ```

use mlcomp_bench::Scale;
use mlcomp_core::{FeatureProjector, PerfEstimator, PhaseSequenceSelector, RewardWeights};
use mlcomp_platform::{Profiler, Workload, X86Platform};

fn main() {
    let scale = Scale::from_args();
    let platform = X86Platform::new();
    let apps = mlcomp_suites::parsec_suite();
    let mut config = scale.config(false);
    if config.pss.episodes > 192 {
        config.pss.episodes = 192; // three trainings; keep the total bounded
    }

    eprintln!("[ablation] extraction + PE…");
    let dataset = config
        .extraction
        .run(&platform, &apps)
        .expect("extraction runs");
    let estimator = PerfEstimator::train(&dataset, &config.search).expect("PE trains");
    let projector = FeatureProjector::fit(&dataset.features()).expect("projection fits");

    println!("== Reward ablation: degradation penalty (PARSEC / x86) ==");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>14}",
        "reward", "geo time×", "geo energy×", "geo size×", "regressions"
    );
    for (label, penalty) in [
        ("no penalty", 0.0),
        ("paper default", 0.5),
        ("harsh ×2", 2.0),
    ] {
        let weights = RewardWeights {
            degradation_penalty: penalty,
            ..RewardWeights::default()
        };
        let (selector, _) = PhaseSequenceSelector::train(
            &apps,
            &estimator,
            projector.clone(),
            config.pss.clone(),
            weights,
        );
        let profiler = Profiler::new(&platform);
        let mut logs = [0.0f64; 3];
        let mut regressions = 0usize;
        for app in &apps {
            let (opt, _) = selector.optimize(&app.module);
            let w = Workload::new(app.entry, app.default_args());
            let base = profiler.profile(&app.module, &w).expect("base runs");
            let tuned = profiler.profile(&opt, &w).expect("tuned runs");
            let rel = tuned.relative_to(&base);
            logs[0] += rel.exec_time_s.max(1e-12).ln();
            logs[1] += rel.energy_j.max(1e-12).ln();
            logs[2] += rel.code_size.max(1e-12).ln();
            for v in [rel.exec_time_s, rel.energy_j, rel.code_size] {
                if v > 1.02 {
                    regressions += 1;
                }
            }
        }
        let n = apps.len() as f64;
        println!(
            "{:<22} {:>10.3} {:>12.3} {:>12.3} {:>10} / {}",
            label,
            (logs[0] / n).exp(),
            (logs[1] / n).exp(),
            (logs[2] / n).exp(),
            regressions,
            apps.len() * 3
        );
    }
    println!(
        "\nreading: without the penalty the policy chases single-metric gains and\n\
         regresses other metrics more often; the paper's penalized reward trades a\n\
         little average speed for Pareto safety."
    );
}
