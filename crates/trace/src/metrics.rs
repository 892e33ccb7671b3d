//! Lock-sharded counter/histogram registry.
//!
//! Writers hash their thread onto one of a fixed number of shards so hot
//! loops on different worker threads rarely contend on the same mutex.
//! [`drain`] merges all shards into deterministically ordered `BTreeMap`s:
//! counters sum, histogram observations are concatenated and sorted before
//! any float accumulation so summary statistics do not depend on thread
//! interleaving.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<String, u64>>,
    hists: Mutex<HashMap<String, Vec<f64>>>,
}

struct Registry {
    shards: Vec<Shard>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        shards: (0..SHARDS).map(|_| Shard::default()).collect(),
    })
}

static SHARD_COUNTER: AtomicU64 = AtomicU64::new(0);

fn shard() -> &'static Shard {
    // Round-robin shard assignment per thread: consecutive worker threads
    // land on distinct shards, so hot loops rarely share a mutex.
    thread_local! {
        static SHARD_IDX: usize =
            (SHARD_COUNTER.fetch_add(1, Ordering::Relaxed) as usize) % SHARDS;
    }
    let idx = SHARD_IDX.with(|i| *i);
    &registry().shards[idx]
}

/// Add `delta` to the named counter.
pub(crate) fn add_counter(name: &str, delta: u64) {
    let mut map = shard().counters.lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            map.insert(name.to_string(), delta);
        }
    }
}

/// Record one observation in the named histogram.
pub(crate) fn observe_hist(name: &str, value: f64) {
    let mut map = shard().hists.lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(name) {
        Some(v) => v.push(value),
        None => {
            map.insert(name.to_string(), vec![value]);
        }
    }
}

/// Snapshot of all metric families, deterministically ordered.
pub(crate) struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Vec<f64>>,
}

/// Drain every shard, resetting the registry to empty.
pub(crate) fn drain() -> MetricsSnapshot {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for sh in &registry().shards {
        for (k, v) in std::mem::take(&mut *sh.counters.lock().unwrap_or_else(|e| e.into_inner())) {
            *counters.entry(k).or_insert(0) += v;
        }
        for (k, mut v) in std::mem::take(&mut *sh.hists.lock().unwrap_or_else(|e| e.into_inner())) {
            hists.entry(k).or_default().append(&mut v);
        }
    }
    for values in hists.values_mut() {
        values.sort_by(f64::total_cmp);
    }
    MetricsSnapshot { counters, hists }
}

/// Summary statistics of a *sorted* slice of observations.
pub(crate) fn summarize(sorted: &[f64]) -> (f64, f64, f64, f64, f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }
    let min = sorted[0];
    let max = sorted[sorted.len() - 1];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let pct = |q: f64| {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    (min, max, mean, pct(0.50), pct(0.90), pct(0.99))
}
