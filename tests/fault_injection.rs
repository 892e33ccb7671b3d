//! Fault-injection integration tests: the supervision layer must keep the
//! pipeline correct, deterministic and fully reporting while phases panic,
//! the verifier rejects modules, the interpreter starves and workers die.
//!
//! The fault seed can be varied from outside (CI runs a small seed matrix)
//! via `MLCOMP_FAULT_SEED`; with the variable unset a fixed seed is used,
//! so a plain `cargo test` is reproducible.

use mlcomp::core::{DataExtraction, FailureCause};
use mlcomp::faults::{quiet_injected_panics, FaultPlan};
use mlcomp::ir::ExecError;
use mlcomp::passes::{registry, PassManager, QuarantineReason};
use mlcomp::platform::X86Platform;
use mlcomp::suites::BenchProgram;
use mlcomp::trace::{RingSink, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Chaos extractions bump process-global trace counters while a sink is
/// installed; the tests that run one hold this lock, so the counter test
/// sees only its own run.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The plan under test: `MLCOMP_FAULT_SEED` if set (the CI seed matrix),
/// otherwise a fixed chaos plan (~10% phase panics, 5% verifier
/// corruption, 5% fuel starvation, 10% worker panics).
fn fault_plan() -> FaultPlan {
    FaultPlan::from_env().unwrap_or_else(|| FaultPlan::chaos(20210))
}

fn sample_programs() -> Vec<BenchProgram> {
    let names = ["blackscholes", "dedup", "crc32", "qsort"];
    mlcomp::suites::parsec_suite()
        .into_iter()
        .chain(mlcomp::suites::beebs_suite())
        .filter(|p| names.contains(&p.name))
        .collect()
}

fn small_suite() -> Vec<BenchProgram> {
    mlcomp::suites::parsec_suite()
        .into_iter()
        .filter(|p| ["dedup", "vips", "blackscholes"].contains(&p.name))
        .collect()
}

#[test]
fn zero_rate_plan_is_bit_identical_to_no_plan() {
    // The injection hook must be free when disabled: an all-zero plan
    // takes the exact same path as no plan at all.
    let platform = X86Platform::new();
    let apps = small_suite();
    let without = DataExtraction::quick().run(&platform, &apps).unwrap();
    let with = DataExtraction {
        fault_plan: Some(FaultPlan::from_seed(99)),
        ..DataExtraction::quick()
    }
    .run(&platform, &apps)
    .unwrap();
    assert_eq!(
        serde_json::to_string(&without).unwrap(),
        serde_json::to_string(&with).unwrap()
    );
    assert!(without.failures.is_empty());
}

#[test]
fn chaos_run_completes_and_accounts_for_every_datapoint() {
    let _chaos = chaos_lock();
    let platform = X86Platform::new();
    let apps = small_suite();
    let ds = DataExtraction {
        fault_plan: Some(fault_plan()),
        min_success_fraction: 0.0,
        ..DataExtraction::quick()
    }
    .run(&platform, &apps)
    .unwrap();
    // Every (app, variant) item is either a sample or a reported failure.
    let total = apps.len() * 8;
    assert_eq!(ds.len() + ds.failures.failed.len(), total);
    for q in &ds.failures.quarantined {
        assert!(registry::is_registered(&q.phase), "unknown phase {:?}", q);
        assert!(!q.reason.to_string().is_empty());
    }
    for f in &ds.failures.failed {
        assert!(!f.reason.to_string().is_empty());
    }
}

/// Every `extraction.fault.*` counter, one per typed cause.
const FAULT_COUNTERS: [&str; 5] = [
    "extraction.fault.fuel_exhaustion",
    "extraction.fault.exec_trap",
    "extraction.fault.worker_panic",
    "extraction.fault.phase_panic",
    "extraction.fault.verifier_corrupt",
];

#[test]
fn fault_counters_tally_the_typed_causes() {
    let _chaos = chaos_lock();
    let platform = X86Platform::new();
    let apps = small_suite();
    let config = DataExtraction {
        fault_plan: Some(fault_plan()),
        min_success_fraction: 0.0,
        ..DataExtraction::quick()
    };
    let ring = Arc::new(RingSink::new(1 << 16));
    let ds = mlcomp::trace::with_sink(ring.clone(), || config.run(&platform, &apps).unwrap());

    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for f in &ds.failures.failed {
        let counter = match f.reason {
            FailureCause::Exec(ExecError::OutOfFuel) => "extraction.fault.fuel_exhaustion",
            FailureCause::Exec(_) => "extraction.fault.exec_trap",
            FailureCause::WorkerPanic(_) => "extraction.fault.worker_panic",
        };
        *expected.entry(counter).or_default() += 1;
    }
    for q in &ds.failures.quarantined {
        let counter = match q.reason {
            QuarantineReason::Panic(_) => "extraction.fault.phase_panic",
            QuarantineReason::VerifierReject(_) => "extraction.fault.verifier_corrupt",
        };
        *expected.entry(counter).or_default() += 1;
    }
    assert!(
        !expected.is_empty(),
        "the chaos plan should injure something"
    );

    let mut counted: BTreeMap<&str, u64> = BTreeMap::new();
    for event in ring.events() {
        if let TraceEvent::Counter { name, value } = event {
            if name.starts_with("extraction.fault.") {
                let known = FAULT_COUNTERS.iter().find(|c| **c == name);
                let counter = *known.unwrap_or_else(|| panic!("untyped fault counter {name}"));
                *counted.entry(counter).or_default() += value;
            }
        }
    }
    assert_eq!(
        counted, expected,
        "fault counters must tally the dataset's causes"
    );
}

#[test]
fn faulty_extraction_is_bit_identical_across_thread_counts() {
    let _chaos = chaos_lock();
    // Fault decisions are pure functions of (plan seed, site key), so the
    // chaos dataset — samples, quarantines and failures — must not depend
    // on worker scheduling.
    let platform = X86Platform::new();
    let apps = small_suite();
    let plan = fault_plan();
    let config = |threads: usize| DataExtraction {
        num_threads: threads,
        fault_plan: Some(plan),
        min_success_fraction: 0.0,
        ..DataExtraction::quick()
    };
    let reference = config(1).run(&platform, &apps).unwrap();
    let reference_json = serde_json::to_string(&reference).unwrap();
    assert!(
        !reference.failures.is_empty(),
        "the chaos plan should injure something in 24 datapoints"
    );
    for threads in [4usize, 8] {
        let ds = config(threads).run(&platform, &apps).unwrap();
        assert_eq!(
            reference_json,
            serde_json::to_string(&ds).unwrap(),
            "chaos dataset must be byte-identical at num_threads={threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Random long phase sequences under injected faults: whatever panics
    /// or corrupts, the surviving module must behave exactly like the
    /// unoptimized (-O0) program, every skipped phase must sit in the
    /// quarantine report, and replaying the same plan must be
    /// bit-identical.
    #[test]
    fn faulty_sequences_preserve_behaviour(
        program_idx in 0usize..4,
        phase_indices in prop::collection::vec(0usize..registry::PHASE_COUNT, 1..48),
    ) {
        quiet_injected_panics();
        let programs = sample_programs();
        let program = &programs[program_idx];
        let reference = program.run_default().expect("baseline executes");
        let plan = fault_plan();
        let pm = PassManager::new();
        let names: Vec<&str> = phase_indices
            .iter()
            .map(|&i| registry::PHASE_NAMES[i])
            .collect();

        let mut variant = program.clone();
        let report = pm
            .run_sequence_sandboxed(
                &mut variant.module,
                names.iter().copied(),
                Some(&plan),
                program.name,
            )
            .expect("all names are registered");
        // Every quarantine entry points at the phase occurrence it pulled.
        for entry in &report.quarantine.entries {
            prop_assert_eq!(entry.phase.as_str(), names[entry.index]);
        }
        mlcomp::ir::verify(&variant.module).expect("sandboxed module stays verifier-clean");
        let got = variant
            .run_default()
            .unwrap_or_else(|e| panic!("{} under {names:?} trapped: {e}", program.name));
        prop_assert_eq!(got, reference, "{} miscompiled under faults", program.name);

        // Same plan, same sites → bit-identical module and report.
        let mut replay = program.clone();
        let replay_report = pm
            .run_sequence_sandboxed(
                &mut replay.module,
                names.iter().copied(),
                Some(&plan),
                program.name,
            )
            .expect("all names are registered");
        prop_assert_eq!(&variant.module, &replay.module);
        prop_assert_eq!(&report.quarantine, &replay_report.quarantine);
    }
}
