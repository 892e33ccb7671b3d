//! Algorithm 2 in isolation: train the Phase Selection Policy on
//! BEEBS/RISC-V with the Table V hyper-parameters (reduced episode count
//! for demo speed) and print the learning curve.
//!
//! ```sh
//! cargo run --release --example pss_training
//! ```

use mlcomp::core::{
    DataExtraction, FeatureProjector, PerfEstimator, PhaseSequenceSelector, PssConfig,
    RewardWeights,
};
use mlcomp::ml::search::ModelSearch;
use mlcomp::platform::RiscVPlatform;

fn main() {
    let platform = RiscVPlatform::new();
    let apps: Vec<_> = mlcomp::suites::beebs_suite()
        .into_iter()
        .filter(|p| ["crc32", "fir", "edn", "prime"].contains(&p.name))
        .collect();

    println!("① data extraction…");
    let dataset = DataExtraction::quick()
        .run(&platform, &apps)
        .expect("extraction runs");
    println!("   {} samples on {}", dataset.len(), dataset.platform);

    println!("② performance estimator…");
    let estimator = PerfEstimator::train(&dataset, &ModelSearch::quick()).expect("PE trains");
    print!("{}", estimator.report());

    println!("③ policy training (Table V params, 128 episodes)…");
    let projector = FeatureProjector::fit(&dataset.features()).expect("projection fits");
    println!(
        "   standardize + PCA(MLE): 63 features → {} dims",
        projector.out_dim()
    );
    let config = PssConfig {
        episodes: 128,
        ..PssConfig::paper()
    };
    let (selector, curve) = PhaseSequenceSelector::train(
        &apps,
        &estimator,
        projector,
        config,
        RewardWeights::default(),
    );

    println!("   learning curve (mean episode return per batch):");
    for (i, s) in curve.iter().enumerate() {
        if i % 4 == 0 || i == curve.len() - 1 {
            let bar_len = ((s.mean_return.max(-1.0) + 1.0) * 20.0) as usize;
            println!(
                "   ep {:>4}  return {:>7.3}  len {:>5.1}  {}",
                s.episodes,
                s.mean_return,
                s.mean_length,
                "#".repeat(bar_len.min(60)),
            );
        }
    }

    println!("④ deployment:");
    for app in &apps {
        let (_, phases) = selector.optimize(&app.module);
        println!(
            "   {:<8} sequence ({} phases): {:?}",
            app.name,
            phases.len(),
            phases
        );
    }
}
