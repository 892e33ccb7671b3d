//! The `passes.snapshots` counter: a sandbox session copies the module
//! for its first run and after each changed or quarantined run, never
//! after an unchanged one. Its own test binary, because trace counters are
//! process-global and the crate's unit tests run phases concurrently.

use mlcomp_faults::{FaultKind, FaultPlan};
use mlcomp_passes::{PassManager, PhaseOutcome, PipelineLevel, Sandbox};
use mlcomp_trace::{RingSink, TraceEvent};
use std::sync::Arc;

/// Runs `f` under a fresh sink and returns the `passes.snapshots` total.
fn snapshots(f: impl FnOnce()) -> u64 {
    let ring = Arc::new(RingSink::new(1 << 14));
    mlcomp_trace::with_sink(ring.clone(), f);
    ring.events()
        .into_iter()
        .filter_map(|event| match event {
            TraceEvent::Counter { name, value } if name == "passes.snapshots" => Some(value),
            _ => None,
        })
        .sum()
}

#[test]
fn a_session_refreshes_its_snapshot_only_after_a_change_or_a_rollback() {
    mlcomp_faults::quiet_injected_panics();
    let module = mlcomp_suites::program("x264").unwrap().module;
    let phases = PipelineLevel::O3.phases();
    let plan = FaultPlan::from_seed(7).with_rate(FaultKind::PhasePanic, 0.2);
    for plan in [None, Some(&plan)] {
        let (mut changed, mut quarantined) = (0, 0);
        let refreshes = snapshots(|| {
            let mut session = Sandbox::new(module.clone());
            for (i, phase) in phases.iter().enumerate() {
                match session.run_phase(phase, plan, &format!("x264|{i}|{phase}")) {
                    Ok(PhaseOutcome::Changed) => changed += 1,
                    Ok(PhaseOutcome::Unchanged) => {}
                    Ok(PhaseOutcome::Quarantined(_)) => quarantined += 1,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let runs = phases.len() as u64;
        assert!(
            refreshes <= 1 + changed + quarantined,
            "{refreshes} refreshes for {changed} changed and {quarantined} quarantined runs"
        );
        assert!(
            refreshes < runs,
            "{refreshes} refreshes over {runs} runs: unchanged runs must reuse the snapshot"
        );
        if plan.is_some() {
            assert!(quarantined > 0, "the plan should fire");
        }
    }
    // One-shot runs copy once each, changed or not.
    let one_shot = snapshots(|| {
        let mut m = module.clone();
        for phase in phases {
            PassManager::new()
                .run_phase_sandboxed(&mut m, phase, None, phase)
                .unwrap();
        }
    });
    assert_eq!(one_shot, phases.len() as u64);
}
