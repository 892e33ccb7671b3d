//! The phase registry: every optimization phase of the paper's Table VI,
//! addressable by its LLVM name.

use crate::{cfgopt, cse, dce, ipo, loops, memory, motion, scalar, sccp, vector};
use mlcomp_ir::analysis::{AnalysisCache, Body, ModuleBody};
use mlcomp_ir::Module;

/// How a registered phase transforms a module.
#[derive(Clone, Copy)]
pub(crate) enum Transform {
    /// Runs once over the whole module.
    Module(fn(&mut ModuleBody) -> bool),
    /// Runs over every function body, reading the pre-phase module for
    /// interprocedural queries like `readnone`.
    Function(fn(&Module, &mut Body) -> bool),
}

impl Transform {
    /// Runs the phase over `m`, whose pre-phase state is `before`: the
    /// module snapshot every phase reads for interprocedural queries.
    /// `before` must equal `m`, and `cache` must describe it. Returns
    /// whether the module changed.
    ///
    /// The phase borrows `m` and its functions from `cache` through one
    /// [`ModuleBody`] (see [`AnalysisCache::lend`]), so the cache still
    /// describes `before` afterwards; the caller brings it up to date.
    pub(crate) fn run(self, m: &mut Module, before: &Module, cache: &mut AnalysisCache) -> bool {
        let mut lent = cache.lend(m, before);
        match self {
            Transform::Module(pass) => pass(&mut lent),
            Transform::Function(pass) => {
                let mut changed = false;
                for mut body in lent.bodies() {
                    if !body.is_declaration {
                        changed |= pass(before, &mut body);
                    }
                }
                changed
            }
        }
    }
}

/// The 48 phases of Table VI, in the paper's (alphabetical) order, each
/// with its transform.
#[rustfmt::skip]
const PHASES: &[(&str, Transform)] = &[
    ("adce", Transform::Function(dce::adce)),
    ("aggressive-instcombine", Transform::Function(scalar::aggressive_instcombine)),
    ("alignment-from-assumptions", Transform::Function(scalar::alignment_from_assumptions)),
    ("argpromotion", Transform::Module(ipo::argpromotion)),
    ("bdce", Transform::Function(scalar::bdce)),
    ("called-value-propagation", Transform::Module(ipo::called_value_propagation)),
    ("callsite-splitting", Transform::Function(cfgopt::callsite_splitting)),
    ("constmerge", Transform::Module(ipo::constmerge)),
    ("correlated-propagation", Transform::Function(sccp::correlated_propagation)),
    ("deadargelim", Transform::Module(ipo::deadargelim)),
    ("div-rem-pairs", Transform::Function(scalar::div_rem_pairs)),
    ("dse", Transform::Function(dce::dse)),
    ("early-cse", Transform::Function(cse::early_cse)),
    ("early-cse-memssa", Transform::Function(cse::early_cse_memssa)),
    ("elim-avail-extern", Transform::Module(ipo::elim_avail_extern)),
    ("float2int", Transform::Function(scalar::float2int)),
    ("globaldce", Transform::Module(ipo::globaldce)),
    ("globalopt", Transform::Module(ipo::globalopt)),
    ("globals-aa", Transform::Module(ipo::globals_aa)),
    ("gvn", Transform::Function(cse::gvn)),
    ("indvars", Transform::Function(loops::indvars)),
    ("inline", Transform::Module(ipo::inline)),
    ("instcombine", Transform::Function(scalar::instcombine)),
    ("instsimplify", Transform::Function(scalar::instsimplify)),
    ("ipsccp", Transform::Module(sccp::ipsccp)),
    ("jump-threading", Transform::Function(cfgopt::jump_threading)),
    ("licm", Transform::Function(loops::licm)),
    ("loop-deletion", Transform::Function(loops::loop_deletion)),
    ("loop-distribute", Transform::Function(loops::loop_distribute)),
    ("loop-idiom", Transform::Function(loops::loop_idiom)),
    ("loop-load-elim", Transform::Function(loops::loop_load_elim)),
    ("loop-rotate", Transform::Function(loops::loop_rotate)),
    ("loop-sink", Transform::Function(loops::loop_sink)),
    ("loop-unroll", Transform::Function(loops::loop_unroll)),
    ("loop-unswitch", Transform::Function(loops::loop_unswitch)),
    ("loop-vectorize", Transform::Function(vector::loop_vectorize)),
    ("lower-expect", Transform::Function(scalar::lower_expect)),
    ("mem2reg", Transform::Function(memory::mem2reg)),
    ("memcpyopt", Transform::Function(motion::memcpyopt)),
    ("mldst-motion", Transform::Function(motion::mldst_motion)),
    ("prune-eh", Transform::Module(ipo::prune_eh)),
    ("reassociate", Transform::Function(scalar::reassociate)),
    ("sccp", Transform::Function(sccp::sccp)),
    ("simplifycfg", Transform::Function(cfgopt::simplifycfg)),
    ("slp-vectorizer", Transform::Function(vector::slp_vectorizer)),
    ("speculative-execution", Transform::Function(motion::speculative_execution)),
    ("sroa", Transform::Function(memory::sroa)),
    ("tailcallelim", Transform::Module(ipo::tailcallelim)),
];

/// Number of phases in the paper's Table VI.
pub const PHASE_COUNT: usize = PHASES.len();

/// The 48 phase names of Table VI, in the paper's (alphabetical) order.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = {
    let mut names = [""; PHASE_COUNT];
    let mut i = 0;
    while i < PHASE_COUNT {
        names[i] = PHASES[i].0;
        i += 1;
    }
    names
};

/// The transform registered under `name`, if any.
pub(crate) fn lookup(name: &str) -> Option<Transform> {
    PHASES.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

/// Whether `name` is a registered phase — the cheap pre-flight check the
/// pass manager uses to validate whole sequences before mutating a module.
pub fn is_registered(name: &str) -> bool {
    lookup(name).is_some()
}

/// FNV-1a hash over the phase count and ordered phase names.
///
/// The hash changes whenever a phase is added, removed, renamed or
/// reordered, so an artifact bundle trained against one registry can
/// refuse to deploy against another: a policy's action indices are only
/// meaningful relative to the exact registry it was trained with.
///
/// # Examples
///
/// ```
/// use mlcomp_passes::registry;
///
/// // Stable within a build: deployment compares this value against the
/// // one recorded in a bundle at training time.
/// assert_eq!(registry::registry_hash(), registry::registry_hash());
/// ```
pub fn registry_hash() -> u64 {
    hash_names(&PHASE_NAMES)
}

/// FNV-1a over the name count (little-endian `u64`) followed by each name
/// and a `0` separator, so renames cannot alias across name boundaries.
fn hash_names(names: &[&str]) -> u64 {
    let mut bytes = (names.len() as u64).to_le_bytes().to_vec();
    for name in names {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
    }
    mlcomp_parallel::seed::fnv1a(&bytes)
}

/// Runs one phase by name over a module. Returns `Some(changed)` or `None`
/// for unknown names.
///
/// Function phases run over every function body (with a module snapshot
/// for interprocedural queries like `readnone`); module phases run once.
///
/// This is the raw reference path: no sandbox, it copies the module for
/// the function phases' snapshot on every call, and its analysis cache
/// starts empty. Pipelines run phases through a
/// [`Sandbox`](crate::Sandbox) session, which lends its rollback snapshot
/// instead, copies it only after a run that changed the module or was
/// rolled back, and keeps its analysis cache across runs.
pub fn run_phase_on(m: &mut Module, name: &str) -> Option<bool> {
    let transform = lookup(name)?;
    let before = m.clone();
    Some(transform.run(m, &before, &mut AnalysisCache::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, ModuleBuilder, Type};

    #[test]
    fn exactly_48_phases() {
        assert_eq!(PHASE_COUNT, 48);
        let mut sorted = PHASE_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), PHASE_COUNT, "no duplicate names");
    }

    #[test]
    fn every_phase_runs_on_a_nontrivial_module() {
        for name in PHASE_NAMES {
            let mut mb = ModuleBuilder::new("t");
            mb.begin_function("f", vec![Type::I64], Type::I64);
            {
                let mut b = mb.body();
                let acc = b.local(b.const_i64(0));
                b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                    let c = b.load(acc, Type::I64);
                    let n = b.add(c, i);
                    b.store(acc, n);
                });
                let r = b.load(acc, Type::I64);
                b.ret(Some(r));
            }
            mb.finish_function();
            let mut m = mb.build();
            let result = run_phase_on(&mut m, name);
            assert!(result.is_some(), "phase `{name}` must be registered");
            verify(&m).unwrap_or_else(|e| panic!("phase `{name}` broke the IR: {e}"));
        }
    }

    #[test]
    fn registry_hash_is_stable_and_order_sensitive() {
        assert_eq!(registry_hash(), registry_hash());
        // Recompute with two names swapped: the hash must differ.
        let mut swapped = PHASE_NAMES;
        swapped.swap(0, 1);
        assert_ne!(registry_hash(), hash_names(&swapped));
    }

    #[test]
    fn registry_hash_is_pinned() {
        // Bundles record this value at export and refuse to import under
        // another, so it may change only with the phase list itself.
        assert_eq!(registry_hash(), 0x3d2e_08eb_d989_e55a);
    }

    #[test]
    fn unknown_phase_is_none() {
        let mut m = mlcomp_ir::Module::new("t");
        assert_eq!(run_phase_on(&mut m, "no-such-phase"), None);
        assert!(!is_registered("no-such-phase"));
        assert!(!is_registered(""));
    }

    /// The phases whose replacements, chain merges, loop membership,
    /// per-alloca scans, cross-block loads or loop copies were rewritten to
    /// run in linear time, each with its implementation from before as an
    /// oracle.
    fn rewritten_phases() -> [(&'static str, Transform); 16] {
        use Transform::{Function as F, Module as M};
        [
            (
                "aggressive-instcombine",
                F(scalar::oracle::aggressive_instcombine),
            ),
            (
                "correlated-propagation",
                F(sccp::oracle::correlated_propagation),
            ),
            ("dse", F(dce::oracle::dse)),
            ("early-cse-memssa", F(cse::oracle::early_cse_memssa)),
            ("gvn", F(cse::oracle::gvn)),
            ("instcombine", F(scalar::oracle::instcombine)),
            ("instsimplify", F(scalar::oracle::instsimplify)),
            ("ipsccp", M(sccp::oracle::ipsccp)),
            ("licm", F(loops::oracle::licm)),
            ("loop-unroll", F(loops::oracle::loop_unroll)),
            ("lower-expect", F(scalar::oracle::lower_expect)),
            ("mem2reg", F(memory::oracle::mem2reg)),
            ("reassociate", F(scalar::oracle::reassociate)),
            ("sccp", F(sccp::oracle::sccp)),
            ("simplifycfg", F(cfgopt::oracle::simplifycfg)),
            ("sroa", F(memory::oracle::sroa)),
        ]
    }

    /// Runs each rewritten phase and its oracle, raw, on every suite state
    /// of more than `min_insts` and at most `max_insts` instructions, and
    /// asserts the same changed bit and the same module, instruction arena
    /// included. Returns the number of states.
    fn assert_rewrites_match_the_oracles(min_insts: usize, max_insts: usize) -> usize {
        let phases = rewritten_phases();
        let mut states = 0;
        crate::suite_states::for_each_suite_state(max_insts, |state, label| {
            if state.total_insts() <= min_insts {
                return;
            }
            states += 1;
            for (phase, oracle) in phases {
                let mut new = state.clone();
                let changed = run_phase_on(&mut new, phase).unwrap();
                let mut old = state.clone();
                let old_changed = oracle.run(&mut old, state, &mut AnalysisCache::new());
                assert_eq!(changed, old_changed, "{phase} on {label}: changed bits");
                assert!(new == old, "{phase} on {label}: differs from the oracle");
            }
        });
        states
    }

    #[test]
    fn rewritten_phases_match_their_oracles_on_the_suite_states() {
        let states = assert_rewrites_match_the_oracles(0, FINGERPRINT_MAX_INSTS);
        assert!(states >= 300, "only {states} states checked");
    }

    /// The same on the 44 states over `FINGERPRINT_MAX_INSTS`, where the
    /// oracles cost up to about 0.2 s per run: release builds only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn rewritten_phases_match_their_oracles_on_the_large_states() {
        let states = assert_rewrites_match_the_oracles(FINGERPRINT_MAX_INSTS, usize::MAX);
        assert!(states >= 40, "only {states} states checked");
    }

    /// The largest state the fingerprint test runs the phases on, the same
    /// in both profiles so that one table serves both.
    const FINGERPRINT_MAX_INSTS: usize = 200;

    /// FNV-1a of each phase's outputs on the suite states, in
    /// `PHASE_NAMES` order.
    const FINGERPRINTS: [u64; PHASE_COUNT] = [
        0x6d9d86be4cadd439,
        0x09e9fd75621799db,
        0x9889dbe55d5f19e5,
        0xc6e6b3799ef50526,
        0x208bc4289bf32690,
        0xc6e6b3799ef50526,
        0x5c4b2b0d283a10c2,
        0xc6e6b3799ef50526,
        0xc6e6b3799ef50526,
        0xc6e6b3799ef50526,
        0xc6e6b3799ef50526,
        0xf368eed87aded8cd,
        0x01cde39052eaaae7,
        0x016e025bc1633ca5,
        0xc6e6b3799ef50526,
        0xc6e6b3799ef50526,
        0x169be8b0cfb809e4,
        0x1c25389c1ba48e04,
        0x03d9b6d34d1af98d,
        0x016e025bc1633ca5,
        0xc6e6b3799ef50526,
        0x9be3a521409202c2,
        0x4af2f6fe6fe2d27b,
        0xf6052f04f9dd39f2,
        0xf6d46165e436ed67,
        0xc6e6b3799ef50526,
        0x66a691eded211a54,
        0xc6e6b3799ef50526,
        0x1d4d8b5615e8e474,
        0xc6e6b3799ef50526,
        0x7dbe1fea3f3266fc,
        0x02b12303b59912af,
        0xe5a901dbe5809018,
        0x197de4fbaede4d62,
        0x7d389126ccec0541,
        0xf171c1673e6ecd8b,
        0xc6e6b3799ef50526,
        0x27440821c16d1f13,
        0xc6e6b3799ef50526,
        0xc6e6b3799ef50526,
        0x2dc9e9b228f5f7b7,
        0xd63d5acac649188f,
        0xf6d46165e436ed67,
        0xca393bea1fdeef51,
        0x6488f24122988d8a,
        0xdd9b19b3ef4d7fa6,
        0x4bfa2d81354c0930,
        0xa788c1fbda2dd636,
    ];

    /// FNV-1a over all text written to it.
    #[derive(Clone, Copy)]
    struct Fnv1a(u64);

    impl std::fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }

    /// The phase runs on the fingerprint states that the sandbox rolls
    /// back, as `phase on state`. `loop-sink` breaks the IR on these.
    const QUARANTINES: [&str; 4] = [
        r#"loop-sink on insertsort after ["mem2reg", "loop-unroll"]"#,
        r#"loop-sink on insertsort after ["sroa", "loop-unroll", "instcombine"]"#,
        r#"loop-sink on janne_complex after ["mem2reg", "loop-unroll"]"#,
        r#"loop-sink on janne_complex after ["sroa", "loop-unroll", "instcombine"]"#,
    ];

    /// Runs each of `phases` sandboxed on every suite state of more than
    /// `min_insts` and at most `max_insts` instructions, and hashes the
    /// `Debug` text of its outputs, arena included. Returns one FNV-1a
    /// hash per phase, the quarantined runs as `phase on state`, and the
    /// number of states.
    fn fingerprint_phases(
        phases: &[&'static str],
        min_insts: usize,
        max_insts: usize,
    ) -> (Vec<u64>, Vec<(&'static str, String)>, usize) {
        use std::fmt::Write;
        let pm = crate::PassManager::new();
        let mut hashes = vec![Fnv1a(0xcbf2_9ce4_8422_2325); phases.len()];
        let mut quarantined = Vec::new();
        let mut states = 0;
        crate::suite_states::for_each_suite_state(max_insts, |state, label| {
            if state.total_insts() <= min_insts {
                return;
            }
            states += 1;
            for (&name, hash) in phases.iter().zip(&mut hashes) {
                let mut m = state.clone();
                let outcome = pm.run_phase_sandboxed(&mut m, name, None, name).unwrap();
                if let crate::PhaseOutcome::Quarantined(_) = outcome {
                    quarantined.push((name, format!("{name} on {label}")));
                }
                write!(hash, "{m:?}").unwrap();
            }
        });
        (hashes.iter().map(|h| h.0).collect(), quarantined, states)
    }

    /// Panics with the table to paste when `got` is not `want`.
    fn assert_fingerprints(got: &[u64], want: &[u64], states: usize) {
        if got != want {
            let table: String = got
                .iter()
                .map(|h| format!("        {h:#018x},\n"))
                .collect();
            panic!("phase outputs changed on {states} states; new table:\n{table}");
        }
    }

    /// Runs every phase sandboxed on every suite state and hashes the
    /// `Debug` text of its outputs, arena included, so that a rewrite
    /// which changes any phase's output on these states fails here. To
    /// re-record after an intended change, paste the table it prints.
    ///
    /// A rollback leaves the input in place, so the hashes cannot tell a
    /// quarantined run from an inactive one: the runs the sandbox
    /// quarantines are checked against `QUARANTINES` as well.
    #[test]
    fn phase_outputs_match_the_recorded_fingerprints() {
        let (got, quarantined, states) = fingerprint_phases(&PHASE_NAMES, 0, FINGERPRINT_MAX_INSTS);
        assert!(states >= 300, "only {states} states checked");
        assert_fingerprints(&got, &FINGERPRINTS, states);
        if quarantined
            .iter()
            .map(|(_, run)| run.as_str())
            .ne(QUARANTINES)
        {
            let mut counts = std::collections::BTreeMap::new();
            for (name, _) in &quarantined {
                *counts.entry(*name).or_insert(0) += 1;
            }
            panic!("quarantines per phase on {states} states: {counts:?}\n{quarantined:#?}");
        }
    }

    /// `phase_outputs_match_the_recorded_fingerprints` for the 44 states it
    /// leaves out, those over `FINGERPRINT_MAX_INSTS` instructions (unrolled
    /// states, up to 7,235 instructions). `simplifycfg`, `licm`,
    /// `loop-rotate`, `reassociate`, `loop-vectorize`, `globalopt` and
    /// `globals-aa` rewrite some of them; the other eight change none, and
    /// the table pins that too. No run is quarantined. Release builds only
    /// (about 5 s): the cost grows with the states' size.
    #[cfg(not(debug_assertions))]
    #[test]
    fn phase_outputs_on_large_states_match_the_recorded_fingerprints() {
        /// The phases that re-analyse after each rewrite, decide loop shape,
        /// or ask which global a pointer is derived from.
        const LARGE_STATE_PHASES: [&str; 15] = [
            "globalopt",
            "globals-aa",
            "indvars",
            "jump-threading",
            "licm",
            "loop-deletion",
            "loop-distribute",
            "loop-idiom",
            "loop-rotate",
            "loop-unroll",
            "loop-unswitch",
            "loop-vectorize",
            "mldst-motion",
            "reassociate",
            "simplifycfg",
        ];

        /// FNV-1a of each `LARGE_STATE_PHASES` phase's outputs on the suite
        /// states over `FINGERPRINT_MAX_INSTS`, in that order.
        const LARGE_STATE_FINGERPRINTS: [u64; 15] = [
            0x0ab5e4fba176bdb6,
            0x9a508602e417e063,
            0x65a90cadb9d290aa,
            0x65a90cadb9d290aa,
            0x4876667d0b084998,
            0x65a90cadb9d290aa,
            0x65a90cadb9d290aa,
            0x65a90cadb9d290aa,
            0xe3b5bd37da21a0cf,
            0x65a90cadb9d290aa,
            0x65a90cadb9d290aa,
            0x71f31ad09df336aa,
            0x65a90cadb9d290aa,
            0x154d5afed59ebba1,
            0x5ab058cb4e6c2818,
        ];

        let (got, quarantined, states) =
            fingerprint_phases(&LARGE_STATE_PHASES, FINGERPRINT_MAX_INSTS, usize::MAX);
        assert!(states >= 40, "only {states} states checked");
        assert_fingerprints(&got, &LARGE_STATE_FINGERPRINTS, states);
        assert_eq!(quarantined, [], "quarantined on {states} states");
    }
}
