//! The versioned artifact bundle: everything a serving process needs to
//! answer phase-selection requests, in one self-validating JSON document.
//!
//! Layout (DESIGN.md §12.1):
//!
//! ```json
//! {
//!   "format_version": 1,
//!   "fingerprint": 1234567890123456789,
//!   "payload": {
//!     "registry_hash": …, "phase_count": 48,
//!     "selector": { … }, "estimator": { … }
//!   }
//! }
//! ```
//!
//! The fingerprint is an FNV-1a-64 hash of the serialized `payload` text.
//! This is well-defined because the workspace's `serde_json` printer is
//! byte-stable: objects keep insertion order and integral floats keep a
//! trailing `.0`, so print ∘ parse ∘ print is the identity on anything the
//! printer emitted. [`ArtifactBundle::import`] re-prints the parsed
//! payload, re-hashes it, and refuses the bundle on any disagreement —
//! truncation, bit-rot and hand-edits all surface as a typed
//! [`BundleError`] instead of a policy that silently selects wrong phases.

use mlcomp_core::{DeployError, PerfEstimator, PhaseSequenceSelector};
use mlcomp_parallel::seed::fnv1a;
use mlcomp_passes::registry;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// The bundle format version written by this build. [`ArtifactBundle::import`]
/// rejects any other value with [`BundleError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 1;

/// The bundle format's fingerprint function: FNV-1a-64 over the payload's
/// serialized JSON text. Public so external tooling can verify or re-stamp
/// a bundle envelope without importing it.
pub fn fingerprint_of(payload_json: &str) -> u64 {
    fnv1a(payload_json.as_bytes())
}

/// Loading or constructing an artifact bundle failed.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// Not valid JSON, not an object, or a payload that does not
    /// deserialize into the expected shapes.
    Malformed(String),
    /// The bundle was written by a different format version.
    UnsupportedVersion {
        /// Version recorded in the bundle.
        found: u64,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The payload text does not hash to the recorded fingerprint: the
    /// bundle was corrupted or edited after export.
    FingerprintMismatch {
        /// Fingerprint recorded in the envelope.
        stored: u64,
        /// Fingerprint of the payload as actually received.
        computed: u64,
    },
    /// The bundle was trained against a different phase registry than the
    /// one compiled into this build.
    RegistryMismatch {
        /// Registry hash recorded at training time.
        bundle_hash: u64,
        /// This build's `registry::registry_hash()`.
        build_hash: u64,
    },
    /// The selector's trained shapes fail deployment validation.
    Deploy(DeployError),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Malformed(msg) => write!(f, "malformed bundle: {msg}"),
            BundleError::UnsupportedVersion { found, supported } => write!(
                f,
                "bundle format version {found} is not supported (this build reads \
                 version {supported})"
            ),
            BundleError::FingerprintMismatch { stored, computed } => write!(
                f,
                "bundle fingerprint mismatch: envelope records {stored:#018x} but the \
                 payload hashes to {computed:#018x} — the bundle was corrupted or edited"
            ),
            BundleError::RegistryMismatch {
                bundle_hash,
                build_hash,
            } => write!(
                f,
                "bundle was trained against phase registry {bundle_hash:#018x} but this \
                 build's registry is {build_hash:#018x} — retrain or rebuild"
            ),
            BundleError::Deploy(e) => write!(f, "bundle fails deployment validation: {e}"),
        }
    }
}

impl std::error::Error for BundleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BundleError::Deploy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeployError> for BundleError {
    fn from(e: DeployError) -> Self {
        BundleError::Deploy(e)
    }
}

/// The fingerprinted part of the bundle: the trained artifacts plus the
/// registry identity they were trained against.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BundlePayload {
    registry_hash: u64,
    phase_count: usize,
    selector: PhaseSequenceSelector,
    estimator: PerfEstimator,
}

/// A deployable MLComp artifact: the trained Phase Sequence Selector
/// (policy network + feature projector + Table V limits) and the trained
/// Performance Estimator (the winning Algorithm 1 pipeline per metric),
/// stamped with the phase-registry hash they were trained against.
///
/// Construction and import both run the full validation gauntlet, so a
/// value of this type is always deployable: [`ArtifactBundle::import`]
/// never hands back a bundle that would panic or mis-index at serving
/// time.
///
/// # Examples
///
/// Import rejects anything that is not a well-formed bundle with a typed
/// error, never a panic:
///
/// ```
/// use mlcomp_serve::{ArtifactBundle, BundleError};
///
/// assert!(matches!(
///     ArtifactBundle::import("not json").unwrap_err(),
///     BundleError::Malformed(_)
/// ));
/// assert!(matches!(
///     ArtifactBundle::import(r#"{"format_version": 99}"#).unwrap_err(),
///     BundleError::UnsupportedVersion { found: 99, .. }
/// ));
/// ```
///
/// The full export → import round trip (training elided for brevity):
///
/// ```no_run
/// use mlcomp_serve::ArtifactBundle;
/// # let (selector, estimator) = unimplemented!();
/// let bundle = ArtifactBundle::new(selector, estimator).unwrap();
/// let json = bundle.export();
/// let back = ArtifactBundle::import(&json).unwrap();
/// assert_eq!(back.registry_hash(), bundle.registry_hash());
/// ```
#[derive(Debug, Clone)]
pub struct ArtifactBundle {
    payload: BundlePayload,
}

impl ArtifactBundle {
    /// Packages trained artifacts for export, stamping them with this
    /// build's registry hash.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Deploy`] when the selector fails
    /// [`PhaseSequenceSelector::validate_deployment`] — an undeployable
    /// selector must not be exportable in the first place.
    pub fn new(
        selector: PhaseSequenceSelector,
        estimator: PerfEstimator,
    ) -> Result<ArtifactBundle, BundleError> {
        selector.validate_deployment()?;
        Ok(ArtifactBundle {
            payload: BundlePayload {
                registry_hash: registry::registry_hash(),
                phase_count: registry::PHASE_COUNT,
                selector,
                estimator,
            },
        })
    }

    /// The deployed Phase Sequence Selector.
    pub fn selector(&self) -> &PhaseSequenceSelector {
        &self.payload.selector
    }

    /// The trained Performance Estimator shipped alongside the selector.
    pub fn estimator(&self) -> &PerfEstimator {
        &self.payload.estimator
    }

    /// The phase-registry hash recorded at training time.
    pub fn registry_hash(&self) -> u64 {
        self.payload.registry_hash
    }

    /// The FNV-1a-64 fingerprint of this bundle's serialized payload —
    /// the value [`export`](ArtifactBundle::export) records in the
    /// envelope.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.payload_json().as_bytes())
    }

    fn payload_json(&self) -> String {
        serde_json::to_string(&self.payload).expect("payload serialization is infallible")
    }

    /// Serializes the bundle to its JSON envelope.
    pub fn export(&self) -> String {
        let payload_json = self.payload_json();
        let fingerprint = fnv1a(payload_json.as_bytes());
        format!(
            "{{\"format_version\": {FORMAT_VERSION}, \"fingerprint\": {fingerprint}, \
             \"payload\": {payload_json}}}"
        )
    }

    /// Parses and fully validates a bundle exported by
    /// [`export`](ArtifactBundle::export).
    ///
    /// Validation order (each stage has its own [`BundleError`] variant):
    /// JSON well-formedness → format version → payload fingerprint →
    /// payload shape → registry identity → deployment shapes.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's [`BundleError`].
    pub fn import(json: &str) -> Result<ArtifactBundle, BundleError> {
        let malformed = |msg: String| BundleError::Malformed(msg);
        let v: Value = serde_json::from_str(json).map_err(|e| malformed(e.to_string()))?;
        let obj = v
            .as_object()
            .ok_or_else(|| malformed("bundle must be a JSON object".to_string()))?;
        let version = obj
            .get("format_version")
            .and_then(as_u64)
            .ok_or_else(|| malformed("missing or non-integer `format_version`".to_string()))?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(BundleError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored = obj
            .get("fingerprint")
            .and_then(as_u64)
            .ok_or_else(|| malformed("missing or non-integer `fingerprint`".to_string()))?;
        let payload_value = obj
            .get("payload")
            .ok_or_else(|| malformed("missing `payload`".to_string()))?;
        // Re-print the parsed payload: byte-identical to the exported text
        // when the bundle is intact (the printer is stable under reparse).
        let payload_json =
            serde_json::to_string(payload_value).expect("re-printing a parsed value is infallible");
        let computed = fnv1a(payload_json.as_bytes());
        if computed != stored {
            return Err(BundleError::FingerprintMismatch { stored, computed });
        }
        let payload =
            BundlePayload::deserialize(payload_value).map_err(|e| malformed(e.to_string()))?;
        let build_hash = registry::registry_hash();
        if payload.registry_hash != build_hash || payload.phase_count != registry::PHASE_COUNT {
            return Err(BundleError::RegistryMismatch {
                bundle_hash: payload.registry_hash,
                build_hash,
            });
        }
        payload.selector.validate_deployment()?;
        Ok(ArtifactBundle { payload })
    }

    /// Consumes the bundle, handing out the validated artifacts.
    pub fn into_parts(self) -> (PhaseSequenceSelector, PerfEstimator) {
        (self.payload.selector, self.payload.estimator)
    }
}

/// Reads a JSON integer as `u64` whether the parser produced `Int` (fits
/// in `i64`) or `UInt` (above `i64::MAX`).
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}
