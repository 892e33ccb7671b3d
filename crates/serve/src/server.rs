//! The batched request loop: bounded admission, parallel execution over
//! the deterministic worker pool, per-request latency metrics.

use crate::engine::SelectionEngine;
use mlcomp_features::FEATURE_COUNT;
use mlcomp_parallel::WorkerPool;
use mlcomp_trace as trace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Server geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum requests admitted per batch; a larger submission is
    /// rejected whole with [`ServeError::Overloaded`] (backpressure —
    /// the caller retries in smaller batches or sheds load).
    pub queue_capacity: usize,
    /// Worker threads (`0` = one per host core, the pool's default).
    pub num_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            num_threads: 0,
        }
    }
}

/// The server refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The batch exceeds the configured queue capacity. Nothing was
    /// processed; the submission is rejected atomically.
    Overloaded {
        /// Requests in the rejected submission.
        submitted: usize,
        /// The server's admission limit.
        queue_capacity: usize,
    },
    /// A request's feature vector does not have the
    /// [`FEATURE_COUNT`] static features the policy reads. Nothing was
    /// processed; the submission is rejected atomically.
    FeatureCount {
        /// The first offending request's id.
        id: u64,
        /// Features the request carried.
        got: usize,
        /// Features every request must carry ([`FEATURE_COUNT`]).
        expected: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                submitted,
                queue_capacity,
            } => write!(
                f,
                "overloaded: batch of {submitted} requests exceeds queue capacity \
                 {queue_capacity}"
            ),
            ServeError::FeatureCount { id, got, expected } => {
                write!(f, "request {id} has {got} features, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One serving request: a static-feature vector with a caller-chosen id.
///
/// The JSONL wire form is one request per line:
/// `{"id": 7, "features": [63 numbers…]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The 63 static features of the module to optimize.
    pub features: Vec<f64>,
}

/// One serving response. Deliberately excludes cache metadata so the
/// serialized response is byte-identical for cache hits and misses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The selected phase names, best-first.
    pub phases: Vec<String>,
}

/// Batched serving over a [`SelectionEngine`]: admits up to
/// `queue_capacity` requests at a time, fans them out across the worker
/// pool, and returns responses in submission order (the pool's `map` is
/// input-ordered, so serving is deterministic end to end).
pub struct BatchServer {
    engine: SelectionEngine,
    pool: WorkerPool,
    config: ServerConfig,
}

impl BatchServer {
    /// Builds a server over a validated engine.
    pub fn new(engine: SelectionEngine, config: ServerConfig) -> BatchServer {
        BatchServer {
            engine,
            pool: WorkerPool::new(config.num_threads),
            config,
        }
    }

    /// Serves one batch. Responses are in submission order.
    ///
    /// Emits a `serve.batch` span, a per-request `serve.request` span and
    /// a `serve.latency_us` histogram observation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] when the batch exceeds the queue
    /// capacity, and [`ServeError::FeatureCount`] when a request does not
    /// carry exactly [`FEATURE_COUNT`] features. Either way nothing is
    /// processed.
    pub fn submit_batch(
        &self,
        requests: &[SelectionRequest],
    ) -> Result<Vec<SelectionResponse>, ServeError> {
        if requests.len() > self.config.queue_capacity {
            trace::counter("serve.rejected", 1);
            return Err(ServeError::Overloaded {
                submitted: requests.len(),
                queue_capacity: self.config.queue_capacity,
            });
        }
        if let Some(req) = requests.iter().find(|r| r.features.len() != FEATURE_COUNT) {
            trace::counter("serve.rejected", 1);
            return Err(ServeError::FeatureCount {
                id: req.id,
                got: req.features.len(),
                expected: FEATURE_COUNT,
            });
        }
        let mut batch_span = trace::span("serve.batch");
        let responses = self.pool.map(requests, |_, req| {
            let mut span = trace::span("serve.request");
            let start = Instant::now();
            let selection = self.engine.select(&req.features);
            trace::observe("serve.latency_us", start.elapsed().as_secs_f64() * 1e6);
            if span.is_recording() {
                span.field("id", req.id);
                span.field("cached", selection.cached);
            }
            SelectionResponse {
                id: req.id,
                phases: selection.phases.iter().map(|p| p.to_string()).collect(),
            }
        });
        if batch_span.is_recording() {
            batch_span.field("requests", requests.len());
        }
        Ok(responses)
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &SelectionEngine {
        &self.engine
    }

    /// The configured admission limit.
    pub fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }
}
