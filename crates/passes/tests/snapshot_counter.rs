//! The `passes.snapshots` counter and `passes.snapshot` span: a sandbox
//! session copies the module for its first run and after each changed or
//! quarantined run, never after an unchanged one, and times the copy
//! outside the `phase` span of the run that needs it. Its own test binary,
//! because trace counters are process-global and the crate's unit tests
//! run phases concurrently.

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

#[test]
fn a_refresh_after_a_changed_run_is_timed_outside_the_phase() {
    let module = mlcomp_suites::program("crc32").unwrap().module;
    let ring = Arc::new(RingSink::new(1 << 10));
    mlcomp_trace::with_sink(ring.clone(), || {
        let mut session = Sandbox::new(module);
        let outcomes: Vec<PhaseOutcome> = (0..3)
            .map(|i| session.run_phase("mem2reg", None, &i.to_string()).unwrap())
            .collect();
        assert_eq!(
            outcomes,
            [
                PhaseOutcome::Changed,
                PhaseOutcome::Unchanged,
                PhaseOutcome::Unchanged
            ]
        );
    });
    // (name, path, start, end) of each span, in the order they closed.
    let events = ring.events();
    let spans: Vec<(&str, &str, u64, u64)> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Span {
                name,
                path,
                start_ns,
                dur_ns,
                ..
            } => Some((*name, path.as_str(), *start_ns, start_ns + dur_ns)),
            _ => None,
        })
        .collect();
    let names: Vec<&str> = spans.iter().map(|s| s.0).collect();
    // The first run copies for the session; the second copies because the
    // first changed the module; the third reuses the snapshot.
    assert_eq!(
        names,
        [
            "passes.snapshot",
            "phase",
            "passes.snapshot",
            "phase",
            "phase"
        ]
    );
    for pair in spans.windows(2) {
        let ((name, path, _, copy_end), (_, phase_path, phase_start, _)) = (pair[0], pair[1]);
        if name == "passes.snapshot" {
            assert_eq!((path, phase_path), ("passes.snapshot", "phase"));
            assert!(
                copy_end <= phase_start,
                "the copy ({copy_end} ns) must end before the phase starts ({phase_start} ns)"
            );
        }
    }
    let counted: u64 = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Counter { name, value } if name == "passes.snapshots" => Some(*value),
            _ => None,
        })
        .sum();
    assert_eq!(counted, 2, "one counter tick per copy");
}
