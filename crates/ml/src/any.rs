//! Closed, serializable sums over the model and preprocessor zoos, and
//! the one table of each zoo.
//!
//! A zoo member is named and built only in the `any_model!` and
//! `any_preprocessor!` tables below: they generate the name lists of
//! [`model_zoo`](crate::model_zoo) and
//! [`preprocessor_zoo`](crate::preprocessor_zoo), in the paper's order,
//! which is Algorithm 1's candidate order, and each member's name.
//!
//! A trained Performance Estimator has to leave the process inside an
//! artifact bundle (DESIGN.md §12), so [`AnyModel`] and
//! [`AnyPreprocessor`] enumerate the zoos of the paper's Tables III/IV as
//! concrete variants; each variant serializes with its fitted parameters
//! using the externally-tagged layout (`{"Ridge": {…}}`).
//!
//! The enums implement the same [`Regressor`]/[`Preprocessor`] traits by
//! delegation, so fitted pipelines behave identically whether they were
//! trained in-process or loaded from a bundle.

use crate::models::*;
use crate::preprocess::*;
use crate::{Preprocessor, Regressor, TrainError};
use mlcomp_linalg::Matrix;
use serde::{Deserialize, Serialize};

macro_rules! any_model {
    ($( $name:literal => $variant:ident ),+ $(,)?) => {
        /// Every Table IV regression model as one serializable sum type.
        ///
        /// # Examples
        ///
        /// ```
        /// use mlcomp_ml::any::AnyModel;
        ///
        /// for &name in AnyModel::NAMES {
        ///     assert_eq!(AnyModel::from_name(name).unwrap().name(), name);
        /// }
        /// assert!(AnyModel::from_name("gpt").is_none());
        /// ```
        #[derive(Debug, Clone, Serialize, Deserialize)]
        pub enum AnyModel {
            $(
                #[doc = concat!("The `", $name, "` model.")]
                $variant($variant),
            )+
        }

        $(
            impl $variant {
                #[doc = concat!("The zoo name of [`", stringify!($variant), "`].")]
                pub(crate) const NAME: &'static str = $name;
            }
        )+

        impl AnyModel {
            /// Every Table IV model's name, in the paper's row order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// Instantiates a default-configured model by zoo name
            /// (`None` for names outside Table IV).
            pub fn from_name(name: &str) -> Option<AnyModel> {
                Some(match name {
                    $( $name => AnyModel::$variant($variant::default()), )+
                    _ => return None,
                })
            }

            /// The model's zoo name (Table IV's row).
            pub fn name(&self) -> &'static str {
                match self {
                    $( AnyModel::$variant(_) => $variant::NAME, )+
                }
            }
        }

        impl Regressor for AnyModel {
            fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), TrainError> {
                match self {
                    $( AnyModel::$variant(m) => m.fit(x, y), )+
                }
            }

            fn predict_row(&self, row: &[f64]) -> f64 {
                match self {
                    $( AnyModel::$variant(m) => m.predict_row(row), )+
                }
            }

            fn predict(&self, x: &Matrix) -> Vec<f64> {
                match self {
                    $( AnyModel::$variant(m) => m.predict(x), )+
                }
            }
        }
    };
}

any_model! {
    "ridge" => Ridge,
    "kernel-ridge" => KernelRidge,
    "bayesian-ridge" => BayesianRidge,
    "linear" => Linear,
    "sgd" => Sgd,
    "passive-aggressive" => PassiveAggressive,
    "ard" => Ard,
    "huber" => Huber,
    "theil-sen" => TheilSen,
    "lars" => Lars,
    "lasso" => Lasso,
    "lasso-lars" => LassoLars,
    "svr" => Svr,
    "nu-svr" => NuSvr,
    "linear-svr" => LinearSvr,
    "elastic-net" => ElasticNet,
    "omp" => Omp,
    "mlp" => Mlp,
    "decision-tree" => DecisionTree,
    "extra-tree" => ExtraTree,
    "random-forest" => RandomForest,
}

macro_rules! any_preprocessor {
    ($( $name:literal => $variant:ident ($ctor:expr) ),+ $(,)?) => {
        /// Every Table III preprocessing algorithm (plus the identity
        /// baseline) as one serializable sum type.
        #[derive(Debug, Clone, Serialize, Deserialize)]
        pub enum AnyPreprocessor {
            $(
                #[doc = concat!("The `", $name, "` preprocessor.")]
                $variant($variant),
            )+
        }

        $(
            impl $variant {
                #[doc = concat!("The zoo name of [`", stringify!($variant), "`].")]
                pub(crate) const NAME: &'static str = $name;
            }
        )+

        impl AnyPreprocessor {
            /// Every Table III preprocessor's name (plus the identity
            /// baseline), in the paper's order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// Instantiates a default-configured preprocessor by zoo name
            /// (`None` for names outside Table III).
            pub fn from_name(name: &str) -> Option<AnyPreprocessor> {
                Some(match name {
                    $( $name => AnyPreprocessor::$variant($ctor), )+
                    _ => return None,
                })
            }

            /// The preprocessor's zoo name (Table III's entry).
            pub fn name(&self) -> &'static str {
                match self {
                    $( AnyPreprocessor::$variant(_) => $variant::NAME, )+
                }
            }
        }

        impl Preprocessor for AnyPreprocessor {
            fn fit(&mut self, x: &Matrix) -> Result<(), TrainError> {
                match self {
                    $( AnyPreprocessor::$variant(p) => p.fit(x), )+
                }
            }

            fn transform(&self, x: &Matrix) -> Matrix {
                match self {
                    $( AnyPreprocessor::$variant(p) => p.transform(x), )+
                }
            }

            fn transform_row(&self, row: &mut Vec<f64>) {
                match self {
                    $( AnyPreprocessor::$variant(p) => p.transform_row(row), )+
                }
            }
        }
    };
}

any_preprocessor! {
    "identity" => Identity(Identity),
    "pca" => Pca(Pca::mle()),
    "nca" => Nca(Nca::new(8)),
    "mean-std" => StandardScaler(StandardScaler::default()),
    "min-max" => MinMaxScaler(MinMaxScaler::default()),
    "max-abs" => MaxAbsScaler(MaxAbsScaler::default()),
    "robust" => RobustScaler(RobustScaler::default()),
    "power" => PowerTransformer(PowerTransformer::default()),
    "quantile" => QuantileTransformer(QuantileTransformer::default()),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::synthetic;
    use crate::search::{model_zoo, preprocessor_zoo};

    #[test]
    fn every_zoo_name_constructs_and_round_trips_names() {
        for name in model_zoo() {
            let m = AnyModel::from_name(name).unwrap_or_else(|| panic!("{name} constructs"));
            assert_eq!(m.name(), name);
        }
        for name in preprocessor_zoo() {
            let p = AnyPreprocessor::from_name(name).unwrap_or_else(|| panic!("{name} constructs"));
            assert_eq!(p.name(), name);
        }
        assert!(AnyModel::from_name("gpt").is_none());
        assert!(AnyPreprocessor::from_name("umap").is_none());
    }

    #[test]
    fn fitted_models_round_trip_through_json_bit_exactly() {
        let (x, y) = synthetic(80, 0.05, 3);
        for name in model_zoo() {
            let mut m = AnyModel::from_name(name).unwrap();
            m.fit(&x, &y).unwrap_or_else(|e| panic!("{name} fits: {e}"));
            let json = serde_json::to_string(&m).unwrap();
            let back: AnyModel =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name} round-trips: {e}"));
            assert_eq!(back.name(), name);
            let a = m.predict(&x);
            let b = back.predict(&x);
            assert_eq!(a, b, "{name} predictions must be bit-identical");
        }
    }

    /// Every zoo member's one-row path gives the bits of its matrix path,
    /// with a constant column, which centers to zeros (PCA's skipped
    /// terms).
    #[test]
    fn single_rows_match_the_matrix_path_bit_for_bit() {
        let (x, y) = synthetic(60, 0.05, 6);
        let x = Matrix::from_vec_rows((0..x.rows()).map(|i| [x.row(i), &[1.0]].concat()).collect());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for name in model_zoo() {
            let mut m = AnyModel::from_name(name).unwrap();
            m.fit(&x, &y).unwrap();
            let rows: Vec<f64> = (0..x.rows()).map(|i| m.predict_row(x.row(i))).collect();
            assert_eq!(bits(&rows), bits(&m.predict(&x)), "{name}");
        }
        for name in preprocessor_zoo() {
            let mut p = AnyPreprocessor::from_name(name).unwrap();
            let want = p.fit_transform(&x).unwrap();
            let mut row = Vec::new();
            for i in 0..x.rows() {
                row.clear();
                row.extend_from_slice(x.row(i));
                p.transform_row(&mut row);
                assert_eq!(bits(&row), bits(want.row(i)), "{name}, row {i}");
            }
        }
    }

    #[test]
    fn fitted_preprocessors_round_trip_through_json_bit_exactly() {
        let (x, _) = synthetic(80, 0.05, 4);
        for name in preprocessor_zoo() {
            let mut p = AnyPreprocessor::from_name(name).unwrap();
            p.fit(&x).unwrap_or_else(|e| panic!("{name} fits: {e}"));
            let json = serde_json::to_string(&p).unwrap();
            let back: AnyPreprocessor =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name} round-trips: {e}"));
            let a = p.transform(&x);
            let b = back.transform(&x);
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{name} transforms must be bit-identical"
            );
        }
    }
}
