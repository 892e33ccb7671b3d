//! The experiment harness that regenerates every table and figure of the
//! MLComp paper's evaluation (§V). Each binary in `src/bin/` reproduces
//! one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_pe_parsec` | Fig. 4 — PE profiled-vs-predicted, PARSEC/x86 |
//! | `fig5_pss_parsec` | Fig. 5 — PSS vs standard levels, PARSEC/x86 |
//! | `fig6_pe_beebs` | Fig. 6 — PE profiled-vs-predicted, BEEBS/RISC-V |
//! | `fig7_pss_beebs` | Fig. 7 — PSS vs standard levels, BEEBS/RISC-V |
//! | `tables` | Tables I–VI (with measured MLComp rows) |
//! | `takeaways` | §V-C paper-vs-measured summary |
//!
//! Criterion microbenchmarks live in `benches/` (PE-prediction vs
//! profiling latency, phase throughput, policy inference, interpreter
//! speed).

use mlcomp_core::{DataExtraction, Dataset, Mlcomp, MlcompConfig, PerfEstimator};
use mlcomp_ml::search::ModelSearch;
use mlcomp_passes::{PassManager, PipelineLevel};
use mlcomp_platform::{DynamicFeatures, Profiler, TargetPlatform, Workload, METRIC_NAMES};
use mlcomp_suites::BenchProgram;

/// How much compute an experiment binary spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds — CI-sized smoke run.
    Quick,
    /// A couple of minutes — the default; big enough for stable shapes.
    Medium,
    /// The paper's full configuration (Table V, full zoos, 200–600 points).
    Paper,
}

impl Scale {
    /// Parses `--quick` / `--medium` / `--paper` from process args
    /// (default: medium).
    pub fn from_args() -> Scale {
        for a in std::env::args() {
            match a.as_str() {
                "--quick" => return Scale::Quick,
                "--paper" => return Scale::Paper,
                "--medium" => return Scale::Medium,
                _ => {}
            }
        }
        Scale::Medium
    }

    /// The end-to-end pipeline configuration at this scale.
    pub fn config(self, beebs: bool) -> MlcompConfig {
        match self {
            Scale::Quick => {
                let mut c = MlcompConfig::quick();
                c.pss.episodes = 48;
                c
            }
            Scale::Medium => {
                let mut c = MlcompConfig::paper();
                c.extraction = DataExtraction {
                    variants_per_app: if beebs { 12 } else { 18 },
                    ..DataExtraction::default()
                };
                c.search = medium_search();
                c.pss.episodes = 192;
                c
            }
            Scale::Paper => {
                let mut c = MlcompConfig::paper();
                if beebs {
                    c.extraction = DataExtraction::beebs_default();
                }
                c
            }
        }
    }

    /// The extraction + search configuration for PE-only experiments.
    pub fn pe_parts(self, beebs: bool) -> (DataExtraction, ModelSearch) {
        let c = self.config(beebs);
        (c.extraction, c.search)
    }
}

/// A mid-sized Algorithm 1 grid: diverse model families, the most useful
/// preprocessors — large enough to exercise the search, small enough to
/// finish in minutes.
pub fn medium_search() -> ModelSearch {
    ModelSearch {
        models: [
            "ridge",
            "linear",
            "bayesian-ridge",
            "huber",
            "lasso",
            "elastic-net",
            "kernel-ridge",
            "decision-tree",
            "extra-tree",
            "random-forest",
            "mlp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        preprocessors: ["identity", "mean-std", "pca", "robust", "power"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..ModelSearch::default()
    }
}

/// One Fig. 4/6 cell: the profiled and predicted value lists of one metric
/// for one application (distributions over that app's variants).
#[derive(Debug, Clone)]
pub struct DistributionRow {
    /// Application name.
    pub app: String,
    /// Metric name.
    pub metric: &'static str,
    /// Profiled values.
    pub profiled: Vec<f64>,
    /// PE-predicted values for the same variants.
    pub predicted: Vec<f64>,
}

impl DistributionRow {
    /// Mean absolute percentage error between the two series.
    pub fn mape(&self) -> f64 {
        mlcomp_ml::metrics::mape(&self.profiled, &self.predicted)
    }
}

/// The PE experiment output (Figs. 4 and 6).
pub struct PeExperiment {
    /// The extraction dataset.
    pub dataset: Dataset,
    /// The trained estimator (held-out accuracies in its report).
    pub estimator: PerfEstimator,
    /// Per-(app, metric) distribution pairs.
    pub rows: Vec<DistributionRow>,
}

/// Runs extraction + Algorithm 1 and collects the profiled/predicted
/// distribution pairs of Figs. 4/6.
pub fn pe_experiment<P: TargetPlatform + Sync + ?Sized>(
    platform: &P,
    apps: &[BenchProgram],
    extraction: &DataExtraction,
    search: &ModelSearch,
) -> PeExperiment {
    let dataset = extraction.run(platform, apps).expect("extraction runs");
    let estimator = PerfEstimator::train(&dataset, search).expect("PE trains");
    let x = dataset.features();
    let mut rows = Vec::new();
    for metric in METRIC_NAMES {
        let predicted_all = estimator.predict_metric(&x, metric);
        for app in dataset.apps() {
            let mut profiled = Vec::new();
            let mut predicted = Vec::new();
            for (i, s) in dataset.samples.iter().enumerate() {
                if s.app == app {
                    profiled.push(s.metrics.get(metric));
                    predicted.push(predicted_all[i]);
                }
            }
            rows.push(DistributionRow {
                app: app.clone(),
                metric,
                profiled,
                predicted,
            });
        }
    }
    PeExperiment {
        dataset,
        estimator,
        rows,
    }
}

/// One Fig. 5/7 row: an application's metrics under each optimization
/// configuration, relative to unoptimized (`-O0` ≡ 1.0).
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Application name.
    pub app: String,
    /// `(config name, metrics relative to -O0)`, including `"MLComp"`.
    pub series: Vec<(String, DynamicFeatures)>,
    /// The phase sequence MLComp chose.
    pub mlcomp_sequence: Vec<&'static str>,
}

/// The PSS experiment output (Figs. 5 and 7).
pub struct PssExperiment {
    /// Per-application validation rows.
    pub rows: Vec<ValidationRow>,
    /// The PE report from the underlying pipeline.
    pub estimator_report: String,
}

/// Runs the full pipeline and validates the trained selector against every
/// standard level, relative to unoptimized code (Figs. 5/7).
pub fn pss_experiment<P: TargetPlatform + Sync + ?Sized>(
    platform: &P,
    apps: &[BenchProgram],
    config: MlcompConfig,
) -> PssExperiment {
    let artifacts = Mlcomp::new(config)
        .run(platform, apps)
        .expect("pipeline runs");
    let profiler = Profiler::new(platform);
    let pm = PassManager::new();
    let mut rows = Vec::new();
    for app in apps {
        let w = Workload::new(app.entry, app.default_args());
        let base = profiler.profile(&app.module, &w).expect("O0 profiles");
        let mut series = Vec::new();
        for level in [
            PipelineLevel::O1,
            PipelineLevel::O2,
            PipelineLevel::O3,
            PipelineLevel::Oz,
        ] {
            let mut m = app.module.clone();
            pm.run_level(&mut m, level);
            let feats = profiler.profile(&m, &w).expect("level profiles");
            series.push((level.flag().to_string(), feats.relative_to(&base)));
        }
        let (optimized, sequence) = artifacts.selector.optimize(&app.module);
        let feats = profiler.profile(&optimized, &w).expect("MLComp profiles");
        series.push(("MLComp".to_string(), feats.relative_to(&base)));
        rows.push(ValidationRow {
            app: app.name.to_string(),
            series,
            mlcomp_sequence: sequence,
        });
    }
    PssExperiment {
        rows,
        estimator_report: artifacts.estimator.report().to_string(),
    }
}

/// Five-number summary `(min, q25, median, q75, max)`.
pub fn five_num(values: &[f64]) -> (f64, f64, f64, f64, f64) {
    use mlcomp_linalg::percentile;
    (
        percentile(values, 0.0),
        percentile(values, 25.0),
        percentile(values, 50.0),
        percentile(values, 75.0),
        percentile(values, 100.0),
    )
}

/// Formats a five-number summary compactly.
pub fn fmt_five(values: &[f64]) -> String {
    let (mn, q1, md, q3, mx) = five_num(values);
    format!("[{mn:9.3e} |{q1:9.3e} {md:9.3e} {q3:9.3e}|{mx:9.3e}]")
}

/// Geometric mean of a metric across validation rows for one configuration.
pub fn geomean_metric(rows: &[ValidationRow], config: &str, metric: &str) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0;
    for r in rows {
        if let Some((_, feats)) = r.series.iter().find(|(c, _)| c == config) {
            let v = feats.get(metric).max(1e-12);
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_platform::X86Platform;

    #[test]
    fn scale_parsing_defaults_to_medium() {
        assert_eq!(Scale::from_args(), Scale::Medium);
    }

    #[test]
    fn five_number_summary() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(five_num(&v), (1.0, 2.0, 3.0, 4.0, 5.0));
        assert!(fmt_five(&v).contains('|'));
    }

    #[test]
    fn pe_experiment_produces_all_cells() {
        let platform = X86Platform::new();
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips"].contains(&p.name))
            .collect();
        let (ex, _) = Scale::Quick.pe_parts(false);
        let out = pe_experiment(&platform, &apps, &ex, &ModelSearch::quick());
        assert_eq!(out.rows.len(), 2 * 4, "apps × metrics");
        for row in &out.rows {
            assert_eq!(row.profiled.len(), row.predicted.len());
            assert!(row.mape().is_finite());
        }
    }

    #[test]
    fn pss_experiment_has_all_series() {
        let platform = X86Platform::new();
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| p.name == "x264")
            .collect();
        let out = pss_experiment(&platform, &apps, Scale::Quick.config(false));
        assert_eq!(out.rows.len(), 1);
        let names: Vec<&str> = out.rows[0].series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["-O1", "-O2", "-O3", "-Oz", "MLComp"]);
        let g = geomean_metric(&out.rows, "MLComp", "exec_time_s");
        assert!(g > 0.0 && g < 2.0);
    }
}
