//! The `passes.analysis.hit.<kind>` / `passes.analysis.build.<kind>`
//! counters: a sandbox session serves each kind of analysis from its cache
//! across phase runs, so it builds fewer and hits more than one-shot runs
//! of the same phases. Its own test binary, because trace counters are
//! process-global.

use mlcomp_passes::{PassManager, PipelineLevel, Sandbox};
use mlcomp_trace::{RingSink, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs `f` under a fresh sink and returns the `passes.analysis.*`
/// counter totals.
fn analysis_counters(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let ring = Arc::new(RingSink::new(1 << 14));
    mlcomp_trace::with_sink(ring.clone(), || {
        f();
        mlcomp_trace::flush();
    });
    let mut totals = BTreeMap::new();
    for event in ring.events() {
        if let TraceEvent::Counter { name, value } = event {
            if name.starts_with("passes.analysis.") {
                *totals.entry(name).or_insert(0) += value;
            }
        }
    }
    totals
}

#[test]
fn a_session_serves_every_kind_of_analysis_from_its_cache() {
    let module = mlcomp_suites::program("x264").unwrap().module;
    let phases = PipelineLevel::O3.phases();
    let session = analysis_counters(|| {
        let mut session = Sandbox::new(module.clone());
        for phase in phases {
            session.run_phase(phase, None, phase).unwrap();
        }
    });
    let one_shot = analysis_counters(|| {
        let mut m = module.clone();
        for phase in phases {
            PassManager::new()
                .run_phase_sandboxed(&mut m, phase, None, phase)
                .unwrap();
        }
    });
    let count = |totals: &BTreeMap<String, u64>, event: &str, kind: &str| {
        totals
            .get(&format!("passes.analysis.{event}.{kind}"))
            .copied()
            .unwrap_or(0)
    };
    for kind in ["cfg", "dom_tree", "loop_forest", "def_use", "call_graph"] {
        let (hits, builds) = (count(&session, "hit", kind), count(&session, "build", kind));
        assert!(hits > 0, "no {kind} hit in a session: {session:?}");
        assert!(
            hits > count(&one_shot, "hit", kind),
            "a session hits {kind} no more often than one-shot runs: \
             {session:?} vs {one_shot:?}"
        );
        assert!(
            builds < count(&one_shot, "build", kind),
            "a session builds {kind} as often as one-shot runs: {session:?} vs {one_shot:?}"
        );
    }
}
