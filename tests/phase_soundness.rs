//! The compiler-correctness backbone: every Table VI phase — alone, in
//! random sequences, and in the standard pipelines — must preserve the
//! observable behaviour (checksum) of every benchmark program and keep the
//! IR verifier-clean.
//!
//! Every phase run here also checks the sandbox's `changed` bit: the
//! deployed selector treats a phase as inactive exactly when it reports
//! anything but `Changed`, so `Changed` must hold exactly when the module
//! differs from its pre-phase state.

use mlcomp::ir::Module;
use mlcomp::passes::{registry, PassManager, PhaseOutcome, PipelineLevel};
use mlcomp::suites::BenchProgram;
use proptest::prelude::*;

fn sample_programs() -> Vec<BenchProgram> {
    // A structurally diverse subset (loops, recursion, floats, switches,
    // globals) keeps the test fast while covering the IR surface.
    let names = [
        "blackscholes",
        "fluidanimate",
        "dedup",
        "crc32",
        "fibcall",
        "qsort",
        "nsichneu",
        "minver",
    ];
    mlcomp::suites::parsec_suite()
        .into_iter()
        .chain(mlcomp::suites::beebs_suite())
        .filter(|p| names.contains(&p.name))
        .collect()
}

/// Runs `phase` sandboxed and checks its outcome: the phase must not be
/// quarantined (a panic or verifier rejection fails the caller), and it
/// must report `Changed` exactly when the module differs from a clone
/// taken before it ran. `context` names the program state in messages.
fn run_checked(module: &mut Module, phase: &str, context: &str) -> PhaseOutcome {
    let before = module.clone();
    let outcome = PassManager::new()
        .run_phase_sandboxed(module, phase, None, phase)
        .expect("phase exists");
    assert!(
        !matches!(outcome, PhaseOutcome::Quarantined(_)),
        "{context}: `{phase}` was quarantined: {outcome:?}"
    );
    let differs = *module != before;
    assert_eq!(
        outcome == PhaseOutcome::Changed,
        differs,
        "{context}: `{phase}` reported {outcome:?}; module differs from its pre-phase clone: {differs}"
    );
    outcome
}

/// [`run_checked`] over every phase of a standard pipeline level.
fn run_level_checked(module: &mut Module, level: PipelineLevel, context: &str) {
    for phase in level.phases() {
        run_checked(module, phase, &format!("{context} in {level}"));
    }
}

#[test]
fn every_single_phase_preserves_behaviour() {
    // Pristine modules plus two states the selector reaches in one step:
    // rotated loops (what `licm` feeds on) and a simplified CFG.
    let prefixes: [&[&str]; 3] = [&[], &["loop-rotate"], &["simplifycfg"]];
    for program in sample_programs() {
        let reference = program.run_default().expect("baseline executes");
        for prefix in prefixes {
            let context = format!("{} after {prefix:?}", program.name);
            let mut state = program.clone();
            for phase in prefix {
                run_checked(&mut state.module, phase, &context);
            }
            for phase in registry::PHASE_NAMES {
                let mut variant = state.clone();
                run_checked(&mut variant.module, phase, &context);
                let got = variant
                    .run_default()
                    .unwrap_or_else(|e| panic!("{context}, `{phase}` trapped: {e}"));
                assert_eq!(
                    got, reference,
                    "{context}: phase `{phase}` changed the checksum"
                );
            }
        }
    }
}

#[test]
fn licm_reports_preheader_insertion_as_a_change() {
    // Inserting a missing preheader edits the module, so `licm` must report
    // it; otherwise the selector takes the edited module for an inactive step.
    for (program, prefix) in [("dedup", "loop-rotate"), ("streamcluster", "simplifycfg")] {
        let mut module = mlcomp::suites::program(program)
            .expect("suite program")
            .module;
        let context = format!("{program} after {prefix}");
        run_checked(&mut module, prefix, &context);
        assert_eq!(
            run_checked(&mut module, "licm", &context),
            PhaseOutcome::Changed,
            "{context}"
        );
    }
}

#[test]
fn every_phase_is_deterministic() {
    // Hash-map iteration order must never leak into the produced IR:
    // applying the same phase to the same module twice (fresh container
    // states each time) must yield *identical* modules, arena order
    // included — the property that makes trained-selector reloads and
    // dataset extraction bit-reproducible.
    for program in sample_programs() {
        for phase in registry::PHASE_NAMES {
            let mut a = program.module.clone();
            let mut b = program.module.clone();
            run_checked(&mut a, phase, program.name);
            run_checked(&mut b, phase, program.name);
            assert_eq!(
                a, b,
                "{}: phase `{phase}` is nondeterministic",
                program.name
            );
        }
        // And the composed -O3 pipeline.
        let mut a = program.module.clone();
        let mut b = program.module.clone();
        run_level_checked(&mut a, PipelineLevel::O3, program.name);
        run_level_checked(&mut b, PipelineLevel::O3, program.name);
        assert_eq!(a, b, "{}: -O3 is nondeterministic", program.name);
    }
}

#[test]
fn standard_pipelines_preserve_behaviour_everywhere() {
    for program in mlcomp::suites::parsec_suite()
        .into_iter()
        .chain(mlcomp::suites::beebs_suite())
    {
        let reference = program.run_default().expect("baseline executes");
        for level in PipelineLevel::ALL {
            let mut variant = program.clone();
            run_level_checked(&mut variant.module, level, program.name);
            let got = variant
                .run_default()
                .unwrap_or_else(|e| panic!("{}/{level} trapped: {e}", program.name));
            assert_eq!(
                got, reference,
                "{}: {level} changed the checksum",
                program.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Random phase sequences over random programs: the MLComp search
    /// space itself. Any checksum change or verifier failure here is a
    /// miscompile the RL policy could stumble into.
    #[test]
    fn random_phase_sequences_are_sound(
        program_idx in 0usize..8,
        phase_indices in prop::collection::vec(0usize..registry::PHASE_COUNT, 1..14),
    ) {
        let programs = sample_programs();
        let program = &programs[program_idx];
        let reference = program.run_default().expect("baseline executes");
        let mut variant = program.clone();
        let names: Vec<&str> = phase_indices
            .iter()
            .map(|&i| registry::PHASE_NAMES[i])
            .collect();
        let context = format!("{} under {names:?}", program.name);
        for phase in &names {
            run_checked(&mut variant.module, phase, &context);
        }
        let got = variant
            .run_default()
            .unwrap_or_else(|e| panic!("{context} trapped: {e}"));
        prop_assert_eq!(
            got,
            reference,
            "{} miscompiled by {:?}",
            program.name,
            names
        );
    }
}
