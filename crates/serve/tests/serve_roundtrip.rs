//! End-to-end guarantees of the deployment layer: export → import is the
//! identity on serving behaviour, every corruption mode is rejected with
//! the right typed error, and the cache is invisible in responses.

use mlcomp_core::{
    DataExtraction, DeployError, FeatureProjector, PerfEstimator, PhaseSequenceSelector, PssConfig,
    RewardWeights,
};
use mlcomp_features::FEATURE_COUNT;
use mlcomp_ml::search::ModelSearch;
use mlcomp_platform::X86Platform;
use mlcomp_rl::PolicyNet;
use mlcomp_serve::{
    fingerprint_of, ArtifactBundle, BatchServer, BundleError, CacheConfig, SelectionEngine,
    SelectionRequest, ServeError, ServerConfig, FORMAT_VERSION,
};
use mlcomp_suites::BenchProgram;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One quick-config training run shared by every test in this binary.
fn fixture() -> &'static (Vec<BenchProgram>, ArtifactBundle) {
    static FIXTURE: OnceLock<(Vec<BenchProgram>, ArtifactBundle)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let platform = X86Platform::new();
        let apps: Vec<_> = mlcomp_suites::parsec_suite()
            .into_iter()
            .filter(|p| ["dedup", "vips"].contains(&p.name))
            .collect();
        let ds = DataExtraction {
            variants_per_app: 10,
            ..DataExtraction::quick()
        }
        .run(&platform, &apps)
        .unwrap();
        let estimator = PerfEstimator::train(&ds, &ModelSearch::quick()).unwrap();
        let projector = FeatureProjector::fit(&ds.features()).unwrap();
        let (selector, _) = PhaseSequenceSelector::train(
            &apps,
            &estimator,
            projector,
            PssConfig {
                episodes: 8,
                ..PssConfig::quick()
            },
            RewardWeights::default(),
        );
        let bundle = ArtifactBundle::new(selector, estimator).unwrap();
        (apps, bundle)
    })
}

#[test]
fn export_import_is_the_identity_on_serving_behaviour() {
    let (apps, bundle) = fixture();
    let json = bundle.export();
    let loaded = ArtifactBundle::import(&json).unwrap();
    assert_eq!(loaded.registry_hash(), bundle.registry_hash());
    assert_eq!(loaded.fingerprint(), bundle.fingerprint());
    // Re-export is byte-identical: the format is stable under round trip.
    assert_eq!(loaded.export(), json);
    // The loaded selector decides exactly like the in-process one, both
    // for feature-only serving and for full module optimization.
    for app in apps {
        let feats = mlcomp_features::extract(&app.module);
        assert_eq!(
            bundle.selector().select_from_features(&feats.values),
            loaded.selector().select_from_features(&feats.values),
            "{}: served sequences must be bit-identical",
            app.name
        );
    }
    let (m1, p1) = bundle.selector().optimize(&apps[0].module);
    let (m2, p2) = loaded.selector().optimize(&apps[0].module);
    assert_eq!(p1, p2, "optimize picks identical phases through the bundle");
    assert_eq!(m1, m2, "and produces the identical module");
    // The estimator round-trips too: identical predictions.
    let fv = mlcomp_features::extract(&apps[0].module);
    assert_eq!(
        bundle.estimator().predict(&fv),
        loaded.estimator().predict(&fv)
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For arbitrary feature vectors — not just ones seen in training —
    /// the exported-then-imported selector serves bit-identical sequences.
    #[test]
    fn random_feature_vectors_select_identically_after_round_trip(
        features in prop::collection::vec(-100.0f64..1000.0, FEATURE_COUNT),
    ) {
        let (_, bundle) = fixture();
        let json = bundle.export();
        let loaded = ArtifactBundle::import(&json).unwrap();
        let a = bundle.selector().select_from_features(&features);
        let b = loaded.selector().select_from_features(&features);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn corrupted_payload_is_rejected_by_fingerprint() {
    let (_, bundle) = fixture();
    let json = bundle.export();
    // Flip one digit somewhere in the document. Whether it lands in the
    // stored fingerprint or in the payload, the two can no longer agree.
    let tampered = json.replacen("48", "47", 1);
    assert_ne!(tampered, json, "tamper site must exist");
    assert!(matches!(
        ArtifactBundle::import(&tampered).unwrap_err(),
        BundleError::FingerprintMismatch { .. }
    ));
    // Truncation is caught before anything is deserialized.
    let truncated = &json[..json.len() - 10];
    assert!(matches!(
        ArtifactBundle::import(truncated).unwrap_err(),
        BundleError::Malformed(_)
    ));
}

#[test]
fn version_skew_is_rejected_before_anything_else() {
    let (_, bundle) = fixture();
    let json = bundle.export();
    let skewed = json.replacen(
        &format!("\"format_version\": {FORMAT_VERSION}"),
        "\"format_version\": 2",
        1,
    );
    assert_ne!(skewed, json);
    assert_eq!(
        ArtifactBundle::import(&skewed).unwrap_err(),
        BundleError::UnsupportedVersion {
            found: 2,
            supported: FORMAT_VERSION,
        }
    );
}

#[test]
fn registry_drift_is_rejected_even_with_a_valid_fingerprint() {
    let (_, bundle) = fixture();
    let json = bundle.export();
    // Surgically change the recorded registry hash, then re-stamp the
    // envelope with the *correct* fingerprint of the tampered payload —
    // simulating a bundle honestly exported by a build whose phase
    // registry differs from ours.
    let real = mlcomp_passes::registry::registry_hash();
    let (_, payload) = json
        .split_once("\"payload\": ")
        .expect("envelope has a payload");
    let payload = payload.strip_suffix('}').expect("envelope closes");
    let tampered_payload =
        payload.replacen(&real.to_string(), &real.wrapping_add(1).to_string(), 1);
    assert_ne!(tampered_payload, payload, "hash digits must appear");
    let restamped = format!(
        "{{\"format_version\": {FORMAT_VERSION}, \"fingerprint\": {}, \"payload\": {tampered_payload}}}",
        fingerprint_of(&tampered_payload)
    );
    match ArtifactBundle::import(&restamped).unwrap_err() {
        BundleError::RegistryMismatch {
            bundle_hash,
            build_hash,
        } => {
            assert_eq!(bundle_hash, real.wrapping_add(1));
            assert_eq!(build_hash, real);
        }
        other => panic!("expected RegistryMismatch, got {other:?}"),
    }
}

#[test]
fn undeployable_selector_cannot_be_exported() {
    let (_, bundle) = fixture();
    let mut selector = bundle.selector().clone();
    let dim = selector.policy.input_dim;
    selector.policy = PolicyNet::new(dim, 4, mlcomp_passes::registry::PHASE_COUNT - 1, 7);
    let err = ArtifactBundle::new(selector, bundle.estimator().clone()).unwrap_err();
    assert!(matches!(
        err,
        BundleError::Deploy(DeployError::ActionSpaceMismatch { .. })
    ));
}

#[test]
fn cache_hit_and_miss_responses_are_byte_identical() {
    let (apps, bundle) = fixture();
    let engine = SelectionEngine::from_bundle(bundle.clone(), CacheConfig::default());
    let server = BatchServer::new(engine, ServerConfig::default());
    let batch: Vec<SelectionRequest> = apps
        .iter()
        .enumerate()
        .map(|(id, app)| SelectionRequest {
            id: id as u64,
            features: mlcomp_features::extract(&app.module).values,
        })
        .collect();
    // First submission misses, second hits the cache for every request.
    let cold = server.submit_batch(&batch).unwrap();
    assert_eq!(server.engine().cache_len(), batch.len());
    let warm = server.submit_batch(&batch).unwrap();
    assert_eq!(cold, warm);
    for (a, b) in cold.iter().zip(&warm) {
        let aj = serde_json::to_string(a).unwrap();
        let bj = serde_json::to_string(b).unwrap();
        assert_eq!(aj, bj, "serialized responses must be byte-identical");
        assert!(!a.phases.is_empty());
    }
    // The cached flag itself is visible on the engine API…
    let f = &batch[0].features;
    assert!(server.engine().select(f).cached);
    // …but selections agree with the selector's direct answer.
    let direct: Vec<String> = bundle
        .selector()
        .select_from_features(f)
        .iter()
        .map(|p| p.to_string())
        .collect();
    assert_eq!(cold[0].phases, direct);
}

#[test]
fn oversized_batches_are_rejected_whole() {
    let (apps, bundle) = fixture();
    let engine = SelectionEngine::from_bundle(bundle.clone(), CacheConfig::default());
    let server = BatchServer::new(
        engine,
        ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    let features = mlcomp_features::extract(&apps[0].module).values;
    let batch: Vec<SelectionRequest> = (0..3)
        .map(|id| SelectionRequest {
            id,
            features: features.clone(),
        })
        .collect();
    let err = server.submit_batch(&batch).unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            submitted: 3,
            queue_capacity: 1,
        }
    );
    assert!(err.to_string().contains("overloaded"));
    // Backpressure is atomic: nothing was served, nothing was cached.
    assert_eq!(server.engine().cache_len(), 0);
    // A conforming retry succeeds.
    assert!(server.submit_batch(&batch[..1]).is_ok());
}

#[test]
fn a_request_with_the_wrong_feature_count_is_rejected_whole() {
    let (apps, bundle) = fixture();
    let engine = SelectionEngine::from_bundle(bundle.clone(), CacheConfig::default());
    let server = BatchServer::new(engine, ServerConfig::default());
    let features = mlcomp_features::extract(&apps[0].module).values;
    for got in [2, FEATURE_COUNT + 7] {
        let batch = vec![
            SelectionRequest {
                id: 0,
                features: features.clone(),
            },
            SelectionRequest {
                id: 1,
                features: vec![1.0; got],
            },
        ];
        let err = server.submit_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            ServeError::FeatureCount {
                id: 1,
                got,
                expected: FEATURE_COUNT,
            }
        );
        assert_eq!(
            err.to_string(),
            format!("request 1 has {got} features, expected {FEATURE_COUNT}")
        );
        // The rejection is atomic: the valid request was not served either.
        assert_eq!(server.engine().cache_len(), 0);
    }
    assert!(server
        .submit_batch(&[SelectionRequest { id: 0, features }])
        .is_ok());
}
