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
    // Candidate features.
    let mut feats: Vec<usize> = (0..d).collect();
    if cfg.feature_subsample && d > 2 {
        feats.shuffle(rng);
        let k = ((d as f64).sqrt().ceil() as usize).max(1);
        feats.truncate(k);
    }
    let parent_sse = sse(&ys);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
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
    fn name(&self) -> &'static str {
        "decision-tree"
    }

    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let rows: Vec<usize> = (0..x.rows()).collect();
        let cfg = TreeCfg {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            random_thresholds: false,
            feature_subsample: false,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        self.root = Some(build(x, y, &rows, 0, cfg, &mut rng));
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let root = self.root.as_ref().expect("predict before fit");
        (0..x.rows()).map(|i| root.predict(x.row(i))).collect()
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
    fn name(&self) -> &'static str {
        "extra-tree"
    }

    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
        check_xy(x, y)?;
        let rows: Vec<usize> = (0..x.rows()).collect();
        let cfg = TreeCfg {
            max_depth: self.max_depth,
            min_samples_split: self.min_samples_split,
            random_thresholds: true,
            feature_subsample: false,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        self.root = Some(build(x, y, &rows, 0, cfg, &mut rng));
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let root = self.root.as_ref().expect("predict before fit");
        (0..x.rows()).map(|i| root.predict(x.row(i))).collect()
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
    fn name(&self) -> &'static str {
        "random-forest"
    }

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
        self.trees = (0..self.n_trees)
            .map(|_| {
                let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                build(x, y, &rows, 0, cfg, &mut rng)
            })
            .collect();
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict before fit");
        (0..x.rows())
            .map(|i| {
                self.trees.iter().map(|t| t.predict(x.row(i))).sum::<f64>()
                    / self.trees.len() as f64
            })
            .collect()
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
