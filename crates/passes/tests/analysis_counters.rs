//! The `passes.analysis.hit.<kind>` / `passes.analysis.build.<kind>`
//! counters: a sandbox session serves each kind of analysis from its cache
//! across phase runs, so it builds fewer and hits more than one-shot runs
//! of the same phases. Its own test binary, because trace counters are
//! process-global.

use mlcomp_passes::{PassManager, PhaseOutcome, PipelineLevel, Sandbox};
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

fn count(totals: &BTreeMap<String, u64>, event: &str, kind: &str) -> u64 {
    totals
        .get(&format!("passes.analysis.{event}.{kind}"))
        .copied()
        .unwrap_or(0)
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

#[test]
fn repeated_ipsccp_runs_in_a_session_build_nothing() {
    const RUNS: usize = 3;
    let module = mlcomp_suites::program("blackscholes").unwrap().module;
    let mut session = Sandbox::new(module);
    // Warm up inside a sink scope too, so no other test's scope counts it:
    // run until a run changes nothing, which builds what is still missing.
    analysis_counters(|| {
        while session.run_phase("ipsccp", None, "").unwrap() == PhaseOutcome::Changed {}
    });
    let repeated = analysis_counters(|| {
        for _ in 0..RUNS {
            let outcome = session.run_phase("ipsccp", None, "").unwrap();
            assert_eq!(outcome, PhaseOutcome::Unchanged);
        }
    });
    // Debug builds verify every output in full, building their own `Cfg`
    // and `DomTree`; the phase itself may build nothing.
    let verifier = analysis_counters(|| {
        for _ in 0..RUNS {
            if cfg!(debug_assertions) {
                mlcomp_ir::verify(session.module()).unwrap();
            }
        }
    });
    for kind in ["cfg", "def_use", "call_graph"] {
        assert!(
            count(&repeated, "hit", kind) > 0,
            "no {kind} hit: {repeated:?}"
        );
    }
    for kind in ["cfg", "dom_tree", "loop_forest", "def_use", "call_graph"] {
        assert_eq!(
            count(&repeated, "build", kind),
            count(&verifier, "build", kind),
            "repeated runs built {kind}: {repeated:?}"
        );
    }
}

/// `simplifycfg` merges the block chains `loop-unroll` leaves from one
/// `Cfg`; a `Cfg` per merged block (about 290 on this state) would mean
/// the merges restart after each one again.
#[test]
fn simplifycfg_on_an_unrolled_state_builds_few_cfgs() {
    /// One run builds 9 in release builds, a few per round of the
    /// phase's fixpoint; debug builds add one for their full verify.
    const MAX_CFG_BUILDS: u64 = 10;
    let mut module = mlcomp_suites::program("x264").unwrap().module;
    // Unroll inside a sink scope too, so no other test's scope counts it.
    analysis_counters(|| {
        let outcome = PassManager::new()
            .run_phase_sandboxed(&mut module, "loop-unroll", None, "")
            .unwrap();
        assert_eq!(outcome, PhaseOutcome::Changed);
    });
    let mut session = Sandbox::new(module);
    let totals = analysis_counters(|| {
        let outcome = session.run_phase("simplifycfg", None, "").unwrap();
        assert_eq!(outcome, PhaseOutcome::Changed);
    });
    let builds = count(&totals, "build", "cfg");
    assert!(
        builds <= MAX_CFG_BUILDS,
        "one simplifycfg run built {builds} Cfgs: {totals:?}"
    );
}

/// One `loop-unroll` run on `x264` unrolls nine loops: the middle loop of
/// a three-deep nest, then the eight copies of the innermost loop it
/// leaves, which need no `Cfg` between them. At a `Cfg` per step plus one
/// per bypassed loop it built 20.
#[test]
fn loop_unroll_on_x264_builds_few_cfgs() {
    /// One run builds 3 in release builds: one per step of the phase's
    /// fixpoint and one to verify its output; debug builds add one for
    /// their full verify.
    const MAX_CFG_BUILDS: u64 = 4;
    let module = mlcomp_suites::program("x264").unwrap().module;
    let mut session = Sandbox::new(module);
    let totals = analysis_counters(|| {
        let outcome = session.run_phase("loop-unroll", None, "").unwrap();
        assert_eq!(outcome, PhaseOutcome::Changed);
    });
    let builds = count(&totals, "build", "cfg");
    assert!(
        builds <= MAX_CFG_BUILDS,
        "one loop-unroll run built {builds} Cfgs: {totals:?}"
    );
}
