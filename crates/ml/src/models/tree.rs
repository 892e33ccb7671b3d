//! Tree models: CART regression tree (variance-reduction splits), extra
//! tree (random thresholds) and random forest (bagged CARTs with feature
//! subsampling).

use super::check_xy;
use crate::{Regressor, TrainError};
use mlcomp_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, row: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] <= *threshold {
                    left.predict(row)
                } else {
                    right.predict(row)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TreeCfg {
    max_depth: usize,
    min_samples_split: usize,
    random_thresholds: bool,
    feature_subsample: bool,
}

fn sse(ys: &[f64]) -> f64 {
    if ys.is_empty() {
        return 0.0;
    }
    let m = mlcomp_linalg::mean(ys);
    ys.iter().map(|y| (y - m) * (y - m)).sum()
}

/// Buffers one fit reuses for every node and threshold (a forest, for
/// every tree): a split search allocates nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The node's targets, in row order.
    ys: Vec<f64>,
    /// The candidate features.
    feats: Vec<usize>,
    /// The candidate feature's value per row, in row order.
    col: Vec<f64>,
    /// The column's distinct values, ascending.
    vals: Vec<f64>,
    /// The targets left and right of a threshold, in row order.
    left: Vec<f64>,
    right: Vec<f64>,
    /// The rows right of the chosen split while `rows` is partitioned.
    spill: Vec<usize>,
}

/// Grows the subtree of `rows`, which it reorders: the rows left of the
/// chosen split come first, each side in its original order.
///
/// Every sum runs over the same values in the same order as a search
/// that collects each side into fresh vectors, and the random draws come
/// at the same points of `rng`'s stream, so the tree is the same.
fn build(
    x: &Matrix,
    y: &[f64],
    rows: &mut [usize],
    depth: usize,
    cfg: TreeCfg,
    rng: &mut rand::rngs::StdRng,
    s: &mut Scratch,
) -> Node {
    s.ys.clear();
    s.ys.extend(rows.iter().map(|&r| y[r]));
    let node_value = mlcomp_linalg::mean(&s.ys);
    if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split {
        return Node::Leaf(node_value);
    }
    let parent_sse = sse(&s.ys);
    if parent_sse < 1e-12 {
        return Node::Leaf(node_value);
    }
    let d = x.cols();
    // Candidate features.
    s.feats.clear();
    s.feats.extend(0..d);
    if cfg.feature_subsample && d > 2 {
        s.feats.shuffle(rng);
        let k = ((d as f64).sqrt().ceil() as usize).max(1);
        s.feats.truncate(k);
    }
    let Scratch {
        ys,
        feats,
        col,
        vals,
        left,
        right,
        spill,
    } = s;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    for &f in feats.iter() {
        col.clear();
        col.extend(rows.iter().map(|&r| x[(r, f)]));
        vals.clear();
        vals.extend_from_slice(col);
        // Fits reject non-finite features, so every pair compares.
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let mut try_threshold = |t: f64| {
            left.clear();
            right.clear();
            for (&v, &yv) in col.iter().zip(ys.iter()) {
                if v <= t {
                    left.push(yv);
                } else {
                    right.push(yv);
                }
            }
            if left.is_empty() || right.is_empty() {
                return;
            }
            let gain = parent_sse - sse(left) - sse(right);
            if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                best = Some((f, t, gain));
            }
        };
        if cfg.random_thresholds {
            let lo = vals[0];
            let hi = vals[vals.len() - 1];
            try_threshold(rng.gen_range(lo..hi));
        } else {
            for w in vals.windows(2) {
                try_threshold((w[0] + w[1]) / 2.0);
            }
        }
    }
    let Some((f, t, _)) = best else {
        return Node::Leaf(node_value);
    };
    // Stable partition: left rows to the front, right rows after them.
    spill.clear();
    let mut n_left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if x[(r, f)] <= t {
            rows[n_left] = r;
            n_left += 1;
        } else {
            spill.push(r);
        }
    }
    rows[n_left..].copy_from_slice(spill);
    let (lrows, rrows) = rows.split_at_mut(n_left);
    let left = Box::new(build(x, y, lrows, depth + 1, cfg, rng, s));
    let right = Box::new(build(x, y, rrows, depth + 1, cfg, rng, s));
    Node::Split {
        feature: f,
        threshold: t,
        left,
        right,
    }
}

/// CART regression tree with variance-reduction splits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    root: Option<Node>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree {
            max_depth: 8,
            min_samples_split: 4,
            root: None,
        }
    }
}

impl DecisionTree {
    /// Tree with an explicit depth cap.
    pub fn with_depth(max_depth: usize) -> DecisionTree {
        DecisionTree {
            max_depth,
            ..DecisionTree::default()
        }
    }
}

impl DecisionTree {
    /// Depth of the fitted tree (0 before fitting).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map(Node::depth).unwrap_or(0)
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let mut rows: Vec<usize> = (0..x.rows()).collect();
        let cfg = TreeCfg {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            random_thresholds: false,
            feature_subsample: false,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut scratch = Scratch::default();
        self.root = Some(build(x, y, &mut rows, 0, cfg, &mut rng, &mut scratch));
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.root.as_ref().expect("predict before fit").predict(row)
    }
}

/// Extremely randomized tree: split thresholds drawn uniformly at random
/// (one per candidate feature).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtraTree {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Threshold-sampling seed.
    pub seed: u64,
    root: Option<Node>,
}

impl Default for ExtraTree {
    fn default() -> Self {
        ExtraTree {
            max_depth: 10,
            min_samples_split: 4,
            seed: 17,
            root: None,
        }
    }
}

impl Regressor for ExtraTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let mut rows: Vec<usize> = (0..x.rows()).collect();
        let cfg = TreeCfg {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            random_thresholds: true,
            feature_subsample: false,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut scratch = Scratch::default();
        self.root = Some(build(x, y, &mut rows, 0, cfg, &mut rng, &mut scratch));
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.root.as_ref().expect("predict before fit").predict(row)
    }
}

/// Random forest: bootstrap-aggregated CARTs with √d feature subsampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Bootstrap/shuffle seed.
    pub seed: u64,
    trees: Vec<Node>,
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest {
            n_trees: 30,
            max_depth: 8,
            seed: 23,
            trees: Vec::new(),
        }
    }
}

impl RandomForest {
    /// Forest with explicit size and depth.
    pub fn new(n_trees: usize, max_depth: usize) -> RandomForest {
        RandomForest {
            n_trees,
            max_depth,
            ..RandomForest::default()
        }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let n = x.rows();
        let cfg = TreeCfg {
            max_depth: self.max_depth,
            min_samples_split: 4,
            random_thresholds: false,
            feature_subsample: true,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut scratch = Scratch::default();
        let mut rows = Vec::with_capacity(n);
        self.trees = (0..self.n_trees)
            .map(|_| {
                rows.clear();
                rows.extend((0..n).map(|_| rng.gen_range(0..n)));
                build(x, y, &mut rows, 0, cfg, &mut rng, &mut scratch)
            })
            .collect();
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict before fit");
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_learns, synthetic};
    use super::*;

    #[test]
    fn all_learn() {
        assert_learns(&mut DecisionTree::default(), 0.85);
        assert_learns(
            &mut ExtraTree {
                max_depth: 12,
                ..ExtraTree::default()
            },
            0.70,
        );
        assert_learns(&mut RandomForest::default(), 0.85);
    }

    #[test]
    fn tree_fits_step_function_exactly() {
        // A step no linear model can capture, trivial for a tree.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_vec_rows(rows);
        let mut t = DecisionTree::default();
        t.fit(&x, &y).unwrap();
        let pred = t.predict(&x);
        assert_eq!(pred, y);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (x, y) = synthetic(100, 0.5, 31);
        let mut t = DecisionTree {
            max_depth: 2,
            ..DecisionTree::default()
        };
        t.fit(&x, &y).unwrap();
        assert!(t.depth() <= 2);
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let (x, y) = synthetic(150, 1.5, 41);
        let (tr, te) = crate::train_test_split(x.rows(), 0.3, 2);
        let (xtr, ytr) = crate::take_rows(&x, &y, &tr);
        let (xte, yte) = crate::take_rows(&x, &y, &te);
        let mut tree = DecisionTree {
            max_depth: 12,
            min_samples_split: 2,
            ..DecisionTree::default()
        };
        let mut forest = RandomForest::default();
        tree.fit(&xtr, &ytr).unwrap();
        forest.fit(&xtr, &ytr).unwrap();
        let r_tree = crate::metrics::r2(&yte, &tree.predict(&xte));
        let r_forest = crate::metrics::r2(&yte, &forest.predict(&xte));
        assert!(
            r_forest > r_tree,
            "forest {r_forest:.3} should generalize better than a deep tree {r_tree:.3}"
        );
    }

    /// Fits every tree model on `(x, y)` in a few configurations and
    /// requires the trees of the oracle's split search, serialized.
    fn assert_trees_match_the_oracle(x: &Matrix, y: &[f64], what: &str) {
        let json = |n: &Node| serde_json::to_string(n).unwrap();
        for mut m in [
            DecisionTree::default(),
            DecisionTree::with_depth(3),
            DecisionTree {
                max_depth: 12,
                min_samples_split: 2,
                ..DecisionTree::default()
            },
        ] {
            m.fit(x, y).unwrap();
            let want = oracle::decision_tree(&m, x, y);
            assert_eq!(json(m.root.as_ref().unwrap()), json(&want), "{what}: {m:?}");
        }
        for mut m in [
            ExtraTree::default(),
            ExtraTree {
                max_depth: 12,
                min_samples_split: 2,
                seed: 5,
                ..ExtraTree::default()
            },
        ] {
            m.fit(x, y).unwrap();
            let want = oracle::extra_tree(&m, x, y);
            assert_eq!(json(m.root.as_ref().unwrap()), json(&want), "{what}: extra");
        }
        for mut m in [RandomForest::default(), RandomForest::new(7, 4)] {
            m.fit(x, y).unwrap();
            let want = oracle::random_forest(&m, x, y);
            assert_eq!(m.trees.len(), want.len());
            for (got, want) in m.trees.iter().zip(&want) {
                assert_eq!(json(got), json(want), "{what}: forest");
            }
        }
    }

    #[test]
    fn split_search_matches_the_oracle_on_synthetic_data() {
        for (n, noise, seed) in [(18, 0.0, 1), (60, 0.3, 2), (150, 1.5, 3)] {
            let (x, y) = synthetic(n, noise, seed);
            assert_trees_match_the_oracle(&x, &y, &format!("synthetic({n}, {noise}, {seed})"));
        }
        // Repeated values, a constant column and ties between targets.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 4) as f64, 1.0, (i / 3) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| ((i % 5) * (i % 3)) as f64).collect();
        assert_trees_match_the_oracle(&Matrix::from_vec_rows(rows), &y, "ties");
    }

    /// The quick three-program PARSEC dataset of an MLComp run, through
    /// each preprocessor of the quick zoo, with every metric as target.
    #[test]
    fn split_search_matches_the_oracle_on_the_parsec_dataset() {
        use crate::any::AnyPreprocessor;
        use crate::Preprocessor;
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips", "x264"].contains(&p.name))
            .collect();
        let dataset = mlcomp_core::DataExtraction::quick()
            .run(&mlcomp_platform::X86Platform::new(), &apps)
            .unwrap();
        let x = dataset.features();
        for prep in crate::search::ModelSearch::quick().preprocessors {
            let px = AnyPreprocessor::from_name(&prep)
                .unwrap()
                .fit_transform(&x)
                .unwrap();
            for metric in mlcomp_platform::METRIC_NAMES {
                let y = dataset.targets(metric);
                assert_trees_match_the_oracle(&px, &y, &format!("{prep}, {metric}"));
            }
        }
    }

    #[test]
    fn non_finite_features_are_refused() {
        let (mut x, y) = synthetic(24, 0.1, 9);
        x[(5, 1)] = f64::NAN;
        assert!(DecisionTree::default().fit(&x, &y).is_err());
        assert!(ExtraTree::default().fit(&x, &y).is_err());
        x[(5, 1)] = f64::INFINITY;
        assert!(RandomForest::default().fit(&x, &y).is_err());
    }

    /// The split search before it reused buffers: fresh vectors per node
    /// and per threshold.
    mod oracle {
        use super::super::*;

        pub fn decision_tree(m: &DecisionTree, x: &Matrix, y: &[f64]) -> Node {
            let rows: Vec<usize> = (0..x.rows()).collect();
            let cfg = TreeCfg {
                max_depth: m.max_depth,
                min_samples_split: m.min_samples_split,
                random_thresholds: false,
                feature_subsample: false,
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            build(x, y, &rows, 0, cfg, &mut rng)
        }

        pub fn extra_tree(m: &ExtraTree, x: &Matrix, y: &[f64]) -> Node {
            let rows: Vec<usize> = (0..x.rows()).collect();
            let cfg = TreeCfg {
                max_depth: m.max_depth,
                min_samples_split: m.min_samples_split,
                random_thresholds: true,
                feature_subsample: false,
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(m.seed);
            build(x, y, &rows, 0, cfg, &mut rng)
        }

        pub fn random_forest(m: &RandomForest, x: &Matrix, y: &[f64]) -> Vec<Node> {
            let n = x.rows();
            let cfg = TreeCfg {
                max_depth: m.max_depth,
                min_samples_split: 4,
                random_thresholds: false,
                feature_subsample: true,
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(m.seed);
            (0..m.n_trees)
                .map(|_| {
                    let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                    build(x, y, &rows, 0, cfg, &mut rng)
                })
                .collect()
        }

        fn build(
            x: &Matrix,
            y: &[f64],
            rows: &[usize],
            depth: usize,
            cfg: TreeCfg,
            rng: &mut rand::rngs::StdRng,
        ) -> Node {
            let ys: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
            let node_value = mlcomp_linalg::mean(&ys);
            if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || sse(&ys) < 1e-12 {
                return Node::Leaf(node_value);
            }
            let d = x.cols();
            let mut feats: Vec<usize> = (0..d).collect();
            if cfg.feature_subsample && d > 2 {
                feats.shuffle(rng);
                let k = ((d as f64).sqrt().ceil() as usize).max(1);
                feats.truncate(k);
            }
            let parent_sse = sse(&ys);
            let mut best: Option<(usize, f64, f64)> = None;
            for &f in &feats {
                let mut vals: Vec<f64> = rows.iter().map(|&r| x[(r, f)]).collect();
                vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
                vals.dedup();
                if vals.len() < 2 {
                    continue;
                }
                let thresholds: Vec<f64> = if cfg.random_thresholds {
                    let lo = vals[0];
                    let hi = vals[vals.len() - 1];
                    vec![rng.gen_range(lo..hi)]
                } else {
                    vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
                };
                for t in thresholds {
                    let (mut ly, mut ry) = (Vec::new(), Vec::new());
                    for &r in rows {
                        if x[(r, f)] <= t {
                            ly.push(y[r]);
                        } else {
                            ry.push(y[r]);
                        }
                    }
                    if ly.is_empty() || ry.is_empty() {
                        continue;
                    }
                    let gain = parent_sse - sse(&ly) - sse(&ry);
                    if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                        best = Some((f, t, gain));
                    }
                }
            }
            let Some((f, t, _)) = best else {
                return Node::Leaf(node_value);
            };
            let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
            for &r in rows {
                if x[(r, f)] <= t {
                    lrows.push(r);
                } else {
                    rrows.push(r);
                }
            }
            Node::Split {
                feature: f,
                threshold: t,
                left: Box::new(build(x, y, &lrows, depth + 1, cfg, rng)),
                right: Box::new(build(x, y, &rrows, depth + 1, cfg, rng)),
            }
        }
    }

    #[test]
    fn forest_is_seeded() {
        let (x, y) = synthetic(60, 0.3, 51);
        let mut a = RandomForest::default();
        let mut b = RandomForest::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
