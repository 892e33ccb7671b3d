//! The pass manager: runs named phase sequences and defines the standard
//! `-O1`/`-O2`/`-O3`/`-Oz` pipelines MLComp is evaluated against.
//!
//! # The pass sandbox
//!
//! The paper's deployment rules (max inactive subsequence = 8, max
//! sequence = 128) already treat individual phases as potentially useless;
//! the sandbox extends that to potentially *harmful*. Each phase of
//! [`Sandbox::run_sequence`] runs under
//! [`std::panic::catch_unwind`] against a snapshot of the module: if the
//! phase panics — or the post-phase verifier rejects its output — the
//! module rolls back and the phase lands in a [`Quarantine`] report
//! instead of killing the pipeline. Semantically a quarantined phase *is*
//! an inactive phase, which is exactly the failure model the paper's
//! fallback rules assume.
//!
//! A module is verified once where it enters the sandbox
//! ([`Sandbox::run_sequence`]); from then on only a phase
//! that reports a change can break it. Because
//! [`PhaseOutcome::Changed`] is exact, an unchanged output equals its
//! already-valid snapshot, so release builds verify changed outputs only,
//! and of those only what changed: [`mlcomp_ir::verify_changed`] checks
//! the functions whose bodies differ from the snapshot, and the whole
//! module only when a signature or a global's liveness changed. Debug
//! builds verify every output in full and assert the unchanged ones pass.
//!
//! Phases run in a [`Sandbox`] session, which owns the module and its
//! rollback snapshot. The snapshot doubles as the pre-phase module that
//! function phases read for interprocedural queries, and it is copied only
//! when stale: after a changed or quarantined run, and before a session's
//! first run. An unchanged run leaves it equal to the module, so the next
//! run reuses it. [`Sandbox::run_sequence`] runs a sequence in the session
//! ([`PassManager::run_sequence_sandboxed`] in a new one);
//! [`PassManager::run_phase_sandboxed`] is a session of one run and copies
//! once. [`crate::run_phase_on`] is the raw reference path: it takes its
//! own copy and runs the same transform without the sandbox.
//!
//! A session also keeps an [`AnalysisCache`] describing its module, so
//! that the many runs that change nothing build no analysis. Phases borrow
//! the module from it ([`AnalysisCache::lend`]) with the snapshot as the
//! pre-phase module, and get a function's cached analyses until they first
//! write it. Invalidation is exact and decided by comparing bodies, never
//! by which phase ran:
//!
//! - After a changed run, [`mlcomp_ir::verify_changed`] drops the entries
//!   of each function whose blocks, instructions or declaration flag
//!   differ from the snapshot's, the call graph if any body differs, and
//!   everything if the function count or a function's name changed
//!   ([`AnalysisCache::retain_unchanged`]). The `Cfg` and `DomTree` it
//!   builds to verify a function become that function's entries. A phase
//!   that writes only attributes (`prune-eh`, `globals-aa`) drops
//!   nothing.
//! - An unchanged run leaves the module equal to the snapshot, which the
//!   cache describes.
//! - A quarantine swaps the snapshot back and drops, the same way, what
//!   differs between the restored and the rejected module.
//!
//! [`Sandbox::analysed`] lends the module with its cache to feature
//! extraction. Debug builds compare every cache hit with a fresh build.
//!
//! Deterministic fault injection plugs in through an optional
//! [`mlcomp_faults::FaultPlan`]; with `None` the sandbox adds nothing but
//! that verification, and the module trajectory is bit-identical to the
//! raw transforms ([`crate::run_phase_on`]) on healthy phases.

use crate::registry::{is_registered, lookup};
use mlcomp_faults::{FaultKind, FaultPlan, INJECTED_PANIC_PREFIX};
use mlcomp_ir::analysis::AnalysisCache;
use mlcomp_ir::Module;
use mlcomp_trace as trace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Standard optimization levels, approximating LLVM's legacy pipelines at
/// the granularity of Table VI's phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineLevel {
    /// No optimization.
    O0,
    /// Quick cleanups: promotion, peepholes, CFG simplification.
    O1,
    /// The default production pipeline.
    O2,
    /// `O2` plus aggressive loop transforms and vectorization.
    O3,
    /// Size-focused: `O2`-style cleanups, no unrolling/vectorization, plus
    /// global deduplication.
    Oz,
}

impl PipelineLevel {
    /// All levels, for sweeps.
    pub const ALL: [PipelineLevel; 5] = [
        PipelineLevel::O0,
        PipelineLevel::O1,
        PipelineLevel::O2,
        PipelineLevel::O3,
        PipelineLevel::Oz,
    ];

    /// The phase sequence of this level.
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            PipelineLevel::O0 => &[],
            PipelineLevel::O1 => &[
                "mem2reg",
                "instcombine",
                "simplifycfg",
                "early-cse",
                "sccp",
                "adce",
                "simplifycfg",
            ],
            PipelineLevel::O2 => &[
                "lower-expect",
                "prune-eh",
                "inline",
                "sroa",
                "mem2reg",
                "instcombine",
                "simplifycfg",
                "early-cse-memssa",
                "speculative-execution",
                "jump-threading",
                "correlated-propagation",
                "simplifycfg",
                "instcombine",
                "reassociate",
                "loop-rotate",
                "licm",
                "loop-unswitch",
                "indvars",
                "loop-idiom",
                "loop-deletion",
                "gvn",
                "memcpyopt",
                "sccp",
                "bdce",
                "dse",
                "mldst-motion",
                "adce",
                "simplifycfg",
                "instcombine",
                "globaldce",
                "constmerge",
            ],
            PipelineLevel::O3 => &[
                "lower-expect",
                "prune-eh",
                "callsite-splitting",
                "ipsccp",
                "called-value-propagation",
                "globalopt",
                "deadargelim",
                "argpromotion",
                "inline",
                "sroa",
                "mem2reg",
                "instcombine",
                "simplifycfg",
                "early-cse-memssa",
                "speculative-execution",
                "jump-threading",
                "correlated-propagation",
                "aggressive-instcombine",
                "simplifycfg",
                "instcombine",
                "tailcallelim",
                "reassociate",
                "loop-rotate",
                "licm",
                "loop-unswitch",
                "indvars",
                "loop-idiom",
                "loop-deletion",
                "loop-unroll",
                "gvn",
                "memcpyopt",
                "sccp",
                "bdce",
                "instcombine",
                "jump-threading",
                "correlated-propagation",
                "dse",
                "licm",
                "adce",
                "simplifycfg",
                "instcombine",
                "float2int",
                "loop-distribute",
                "loop-vectorize",
                "loop-load-elim",
                "slp-vectorizer",
                "div-rem-pairs",
                "alignment-from-assumptions",
                "globals-aa",
                "globaldce",
                "constmerge",
            ],
            PipelineLevel::Oz => &[
                "lower-expect",
                "prune-eh",
                "ipsccp",
                "globalopt",
                "deadargelim",
                "inline",
                "sroa",
                "mem2reg",
                "instsimplify",
                "simplifycfg",
                "early-cse",
                "sccp",
                "bdce",
                "dse",
                "adce",
                "simplifycfg",
                "instcombine",
                "loop-deletion",
                "loop-idiom",
                "elim-avail-extern",
                "globaldce",
                "constmerge",
            ],
        }
    }

    /// Conventional flag name (`-O2` etc.).
    pub fn flag(self) -> &'static str {
        match self {
            PipelineLevel::O0 => "-O0",
            PipelineLevel::O1 => "-O1",
            PipelineLevel::O2 => "-O2",
            PipelineLevel::O3 => "-O3",
            PipelineLevel::Oz => "-Oz",
        }
    }
}

impl fmt::Display for PipelineLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.flag())
    }
}

/// Error returned when a phase name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPhaseError(pub String);

impl fmt::Display for UnknownPhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown optimization phase `{}`", self.0)
    }
}

impl std::error::Error for UnknownPhaseError {}

/// Why the sandbox pulled a phase out of a sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The phase panicked mid-transform; the payload message is kept.
    Panic(String),
    /// The post-phase verifier rejected the transformed module.
    VerifierReject(String),
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Panic(msg) => write!(f, "panicked: {msg}"),
            QuarantineReason::VerifierReject(msg) => write!(f, "verifier rejected output: {msg}"),
        }
    }
}

/// One quarantined phase occurrence within a sandboxed sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Position of the phase in the requested sequence.
    pub index: usize,
    /// Phase name.
    pub phase: String,
    /// What went wrong.
    pub reason: QuarantineReason,
}

/// The sandbox's record of every phase that was rolled back.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quarantine {
    /// Quarantined phases, in sequence order.
    pub entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// Number of quarantined phase occurrences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether some occurrence of `phase` was quarantined.
    pub fn contains(&self, phase: &str) -> bool {
        self.entries.iter().any(|e| e.phase == phase)
    }
}

/// Outcome of one phase run under the sandbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The phase ran, verified clean, and changed the module.
    Changed,
    /// The phase ran and verified clean but left the module untouched.
    Unchanged,
    /// The phase panicked or broke the IR; the module was rolled back.
    Quarantined(QuarantineReason),
}

/// Basic blocks across defined (non-declaration) functions.
fn total_blocks(m: &Module) -> usize {
    m.functions
        .iter()
        .filter(|f| !f.is_declaration)
        .map(|f| f.blocks.len())
        .sum()
}

/// What [`Sandbox::run_sequence`] returns: progress plus the
/// quarantine record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SandboxReport {
    /// Number of phases that ran cleanly and changed the module.
    pub changed: usize,
    /// Every rolled-back phase.
    pub quarantine: Quarantine,
}

/// Runs phases and pipelines over modules. Every phase runs inside the
/// sandbox: panics are caught, a changed module is verified afterwards,
/// and a failure rolls it back. There is no unsandboxed path.
///
/// # Examples
///
/// ```
/// use mlcomp_ir::{ModuleBuilder, Type};
/// use mlcomp_passes::{PassManager, PhaseOutcome};
///
/// let mut mb = ModuleBuilder::new("demo");
/// mb.begin_function("double", vec![Type::I64], Type::I64);
/// {
///     let mut b = mb.body();
///     let slot = b.local(b.param(0));
///     let v = b.load(slot, Type::I64);
///     let sum = b.add(v, v);
///     b.ret(Some(sum));
/// }
/// mb.finish_function();
/// let mut module = mb.build();
///
/// let pm = PassManager::new();
/// let report = pm
///     .run_sequence_sandboxed(&mut module, ["mem2reg", "simplifycfg"], None, "demo")
///     .unwrap();
/// assert!(report.changed >= 1, "mem2reg promotes the stack slot");
/// assert!(report.quarantine.is_empty());
/// // A second promotion finds nothing left to do.
/// let outcome = pm.run_phase_sandboxed(&mut module, "mem2reg", None, "demo").unwrap();
/// assert_eq!(outcome, PhaseOutcome::Unchanged);
/// // Unknown names are rejected before any phase runs.
/// assert!(pm
///     .run_sequence_sandboxed(&mut module, ["mem2reg", "nope"], None, "demo")
///     .is_err());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PassManager;

impl PassManager {
    /// Creates a manager.
    pub fn new() -> PassManager {
        PassManager
    }

    /// Runs one phase inside the sandbox: panics are caught, a changed
    /// module is verified afterwards, and any failure rolls the module back
    /// to its pre-phase state.
    ///
    /// This is a one-shot [`Sandbox`] session, so it copies the module once
    /// for the rollback snapshot. Callers that run several phases on one
    /// module should hold a [`Sandbox`], which copies only after a change.
    /// See [`Sandbox::run_phase`] for the precondition (`m` verifies), the
    /// outcomes and `plan`/`site_key`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPhaseError`] if the name is not registered (the
    /// module is untouched).
    pub fn run_phase_sandboxed(
        &self,
        m: &mut Module,
        name: &str,
        plan: Option<&FaultPlan>,
        site_key: &str,
    ) -> Result<PhaseOutcome, UnknownPhaseError> {
        let mut session = Sandbox::new(std::mem::replace(m, Module::new("")));
        let outcome = session.run_phase(name, plan, site_key);
        *m = session.into_module();
        outcome
    }

    /// Runs a phase sequence on `m` in a new [`Sandbox`] session: see
    /// [`Sandbox::run_sequence`]. An unknown phase leaves `m` untouched.
    pub fn run_sequence_sandboxed<'a>(
        &self,
        m: &mut Module,
        names: impl IntoIterator<Item = &'a str>,
        plan: Option<&FaultPlan>,
        site_prefix: &str,
    ) -> Result<SandboxReport, UnknownPhaseError> {
        let mut session = Sandbox::new(std::mem::replace(m, Module::new("")));
        let report = session.run_sequence(names, plan, site_prefix);
        *m = session.into_module();
        report
    }

    /// Runs a standard pipeline level, sandboxed.
    pub fn run_level(&self, m: &mut Module, level: PipelineLevel) -> SandboxReport {
        self.run_sequence_sandboxed(m, level.phases().iter().copied(), None, level.flag())
            .expect("pipeline levels only use registered phases")
    }
}

/// A sandbox session: owns a module and its rollback snapshot across any
/// number of phase runs.
///
/// The snapshot is copied from the module only when it is stale. A run
/// that leaves the module unchanged keeps it fresh, because
/// [`PhaseOutcome::Unchanged`] is exact; a changed run makes it stale; a
/// quarantine swaps the snapshot back in and makes it stale. A session
/// therefore copies the module once per changed or quarantined run, plus
/// once for its first run, instead of once per run, and
/// [`PassManager::run_phase_sandboxed`] is a session of one run.
///
/// # Examples
///
/// ```
/// use mlcomp_passes::{PhaseOutcome, Sandbox};
///
/// let module = mlcomp_suites::program("crc32").unwrap().module;
/// let mut session = Sandbox::new(module.clone());
/// assert_eq!(session.run_phase("mem2reg", None, "").unwrap(), PhaseOutcome::Changed);
/// // Nothing left to promote: the snapshot stays fresh and is reused.
/// assert_eq!(session.run_phase("mem2reg", None, "").unwrap(), PhaseOutcome::Unchanged);
/// assert_ne!(session.into_module(), module);
/// ```
#[derive(Debug)]
pub struct Sandbox {
    module: Module,
    /// Equals `module` whenever `fresh` holds.
    snapshot: Module,
    fresh: bool,
    /// Describes `module`.
    cache: AnalysisCache,
}

impl Sandbox {
    /// Opens a session on `module`. Nothing is copied until the first run.
    pub fn new(module: Module) -> Sandbox {
        Sandbox {
            module,
            snapshot: Module::new(""),
            fresh: false,
            cache: AnalysisCache::new(),
        }
    }

    /// The module as the runs so far left it.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The module with the session's analysis cache, which describes it.
    /// Analyses built through the cache are kept for the next runs.
    pub fn analysed(&mut self) -> (&Module, &mut AnalysisCache) {
        (&self.module, &mut self.cache)
    }

    /// Ends the session and returns the module.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// Runs a phase sequence with every phase sandboxed: a panicking or
    /// IR-breaking phase is rolled back, recorded in the report's
    /// [`Quarantine`], and the sequence *continues* — the semantics of
    /// "this phase was inactive", matching the paper's fallback model.
    ///
    /// The sequence is validated up front, so an unknown name can never
    /// leave the module half-optimized. The module is then verified once,
    /// which establishes [`Sandbox::run_phase`]'s precondition for every
    /// phase: an input that fails [`mlcomp_ir::verify`] runs no phase, and
    /// every phase is quarantined as
    /// [`QuarantineReason::VerifierReject`] with the input's error.
    ///
    /// `site_prefix` names the sequence for `plan`: a phase's site key is
    /// `{site_prefix}|{index}|{name}`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPhaseError`] naming the first unregistered phase;
    /// the module is untouched in that case.
    pub fn run_sequence<'a>(
        &mut self,
        names: impl IntoIterator<Item = &'a str>,
        plan: Option<&FaultPlan>,
        site_prefix: &str,
    ) -> Result<SandboxReport, UnknownPhaseError> {
        let names: Vec<&str> = names.into_iter().collect();
        if let Some(bad) = names.iter().find(|n| !is_registered(n)) {
            return Err(UnknownPhaseError(bad.to_string()));
        }
        let mut span = trace::span("phase-seq");
        let mut report = SandboxReport::default();
        let mut quarantine = |index: usize, name: &str, reason: QuarantineReason| {
            report.quarantine.entries.push(QuarantineEntry {
                index,
                phase: name.to_string(),
                reason,
            });
        };
        // One check here establishes every phase's precondition below.
        if let Err(e) = mlcomp_ir::verify(&self.module) {
            let reason = QuarantineReason::VerifierReject(e.to_string());
            for (index, name) in names.iter().enumerate() {
                quarantine(index, name, reason.clone());
            }
        } else {
            for (index, name) in names.iter().enumerate() {
                // Only a fault plan reads the key.
                let site_key = match plan {
                    Some(_) => format!("{site_prefix}|{index}|{name}"),
                    None => String::new(),
                };
                match self.run_phase(name, plan, &site_key) {
                    Ok(PhaseOutcome::Changed) => report.changed += 1,
                    Ok(PhaseOutcome::Unchanged) => {}
                    Ok(PhaseOutcome::Quarantined(reason)) => quarantine(index, name, reason),
                    Err(_) => unreachable!("the sequence was validated"),
                }
            }
        }
        if span.is_recording() {
            span.field("phases", names.len());
            span.field("changed", report.changed);
            span.field("quarantined", report.quarantine.len());
        }
        Ok(report)
    }

    /// Runs one phase: panics are caught, a changed module is verified
    /// afterwards, and any failure rolls the module back to its pre-phase
    /// state.
    ///
    /// Precondition: the module verifies ([`mlcomp_ir::verify`]). Modules
    /// from outside should enter through [`Sandbox::run_sequence`], which
    /// checks this; a module produced by this sandbox always meets it.
    ///
    /// [`PhaseOutcome::Changed`] holds exactly when the module differs
    /// from its pre-phase state (debug builds assert it), so callers
    /// branch on the outcome instead of cloning and comparing modules. The
    /// same exactness lets release builds skip verifying an unchanged
    /// output: it equals the valid input. A changed output is checked with
    /// [`mlcomp_ir::verify_changed`] against the snapshot, which verifies
    /// only the functions whose bodies changed unless a signature or a
    /// global's liveness did; so a phase that touches only attributes or
    /// metadata verifies no body. Debug builds verify every output in full
    /// and panic if the precondition was broken.
    ///
    /// `plan` is the deterministic fault-injection hook (`None` injects
    /// nothing); `site_key` identifies this phase occurrence for the plan —
    /// it should encode work identity (app, sequence, position), never
    /// execution order. Without a plan nothing reads it.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownPhaseError`] if the name is not registered (the
    /// module is untouched).
    pub fn run_phase(
        &mut self,
        name: &str,
        plan: Option<&FaultPlan>,
        site_key: &str,
    ) -> Result<PhaseOutcome, UnknownPhaseError> {
        let Some(transform) = lookup(name) else {
            return Err(UnknownPhaseError(name.to_string()));
        };
        // The copy belongs to the session, not to this phase: a stale
        // snapshot is refreshed in its own span, outside the `phase` span.
        if self.fresh {
            debug_assert!(
                self.snapshot == self.module,
                "a fresh snapshot must equal the module"
            );
        } else {
            let span = trace::span("passes.snapshot");
            self.snapshot = self.module.clone();
            self.fresh = true;
            if span.is_recording() {
                trace::counter("passes.snapshots", 1);
            }
        }
        let mut span = trace::span("phase");
        let recording = span.is_recording();
        let (insts_before, blocks_before) = if recording {
            (self.module.total_insts(), total_blocks(&self.module))
        } else {
            (0, 0)
        };
        // The rollback snapshot doubles as the pre-phase module that
        // function phases read.
        let (m, snapshot, cache) = (&mut self.module, &self.snapshot, &mut self.cache);
        // AssertUnwindSafe: on unwind the module may be mid-transform, but
        // the only thing we do with it afterwards is swap it for the
        // snapshot — the broken state never escapes.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = plan {
                p.maybe_panic(site_key);
            }
            transform.run(m, snapshot, cache)
        }));
        let mut verify_ns = 0;
        let outcome = match ran {
            Err(payload) => PhaseOutcome::Quarantined(QuarantineReason::Panic(
                mlcomp_faults::panic_reason(payload.as_ref()),
            )),
            Ok(changed) => {
                let verdict = if changed {
                    let verify_start = recording.then(Instant::now);
                    let verdict = mlcomp_ir::verify_changed(m, snapshot, cache);
                    if let Some(t) = verify_start {
                        verify_ns = t.elapsed().as_nanos() as u64;
                    }
                    verdict
                } else {
                    debug_assert!(
                        mlcomp_ir::verify(m).is_ok(),
                        "phase `{name}` left the module unchanged but it fails to \
                         verify: the sandbox's input must verify"
                    );
                    Ok(())
                };
                // The injected verdict is rolled on every clean run,
                // changed or not, so a fault plan quarantines the same
                // occurrences whichever outputs get verified.
                match verdict {
                    Err(e) => {
                        PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(e.to_string()))
                    }
                    Ok(())
                        if plan.is_some_and(|p| p.fires(FaultKind::VerifierCorrupt, site_key)) =>
                    {
                        PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(format!(
                            "{INJECTED_PANIC_PREFIX} verifier corruption at `{site_key}`"
                        )))
                    }
                    Ok(()) if changed => PhaseOutcome::Changed,
                    Ok(()) => PhaseOutcome::Unchanged,
                }
            }
        };
        match outcome {
            PhaseOutcome::Quarantined(_) => {
                std::mem::swap(&mut self.module, &mut self.snapshot);
                self.fresh = false;
                // The cache describes the pre-phase module (a panic) or
                // the rejected one (a verdict); either way, dropping what
                // differs between the two leaves it describing the module.
                self.cache.retain_unchanged(&self.module, &self.snapshot);
            }
            _ => {
                debug_assert!(
                    (outcome == PhaseOutcome::Changed) == (self.module != self.snapshot),
                    "phase `{name}` reported {outcome:?}, which disagrees with \
                     comparing the module to its pre-phase snapshot"
                );
                self.fresh = outcome == PhaseOutcome::Unchanged;
            }
        }
        if recording {
            let m = &self.module;
            span.field("phase", name);
            span.field("insts_before", insts_before);
            span.field("insts_after", m.total_insts());
            span.field("blocks_before", blocks_before);
            span.field("blocks_after", total_blocks(m));
            span.field("verify_ns", verify_ns);
            span.field("changed", outcome == PhaseOutcome::Changed);
            if let PhaseOutcome::Quarantined(reason) = &outcome {
                span.field("rollback", true);
                trace::counter("passes.rollbacks", 1);
                match reason {
                    QuarantineReason::Panic(_) => trace::counter("passes.rollback.panic", 1),
                    QuarantineReason::VerifierReject(_) => {
                        trace::counter("passes.rollback.verifier_reject", 1)
                    }
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcomp_ir::{verify, Interpreter, ModuleBuilder, RtVal, Type};

    fn workload() -> Module {
        let mut mb = ModuleBuilder::new("w");
        let helper = mb.declare("helper", vec![Type::I64], Type::I64);
        mb.begin_existing(helper);
        {
            let mut b = mb.body();
            let v = b.mul(b.param(0), b.const_i64(3));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.set_internal(helper);
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let h = b.call(helper, vec![i], Type::I64);
                let c = b.load(acc, Type::I64);
                let n = b.add(c, h);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        mb.build()
    }

    fn run_main(m: &Module, n: i64) -> (Option<RtVal>, mlcomp_ir::DynCounts) {
        let fid = m.find_function("main").unwrap();
        let out = Interpreter::new(m).run(fid, &[RtVal::I(n)]).unwrap();
        (out.ret, out.counts)
    }

    /// Runs `phase` sandboxed and returns its outcome plus the net live
    /// instructions it removed (negative when it grew code).
    fn outcome_and_insts_removed(m: &mut Module, phase: &str) -> (PhaseOutcome, i64) {
        let before = m.total_insts() as i64;
        let outcome = PassManager::new()
            .run_phase_sandboxed(m, phase, None, phase)
            .unwrap();
        (outcome, before - m.total_insts() as i64)
    }

    #[test]
    fn all_levels_preserve_behaviour() {
        let reference = run_main(&workload(), 37).0;
        for level in PipelineLevel::ALL {
            let mut m = workload();
            let report = PassManager::new().run_level(&mut m, level);
            assert!(report.quarantine.is_empty(), "{level}: {report:?}");
            verify(&m).unwrap();
            assert_eq!(
                run_main(&m, 37).0,
                reference,
                "{level} changed observable behaviour"
            );
        }
    }

    #[test]
    fn higher_levels_run_faster() {
        let mut o0 = workload();
        let mut o3 = workload();
        let pm = PassManager::new();
        pm.run_level(&mut o3, PipelineLevel::O3);
        let (_, c0) = run_main(&o0, 200);
        let (_, c3) = run_main(&o3, 200);
        let _ = &mut o0;
        assert!(
            c3.total_instructions() * 3 < c0.total_instructions() * 2,
            "O3 ({}) should cut instruction count vs O0 ({}) by ≥1.5x",
            c3.total_instructions(),
            c0.total_instructions()
        );
    }

    #[test]
    fn oz_reduces_static_size() {
        let mut m = workload();
        let before = m.total_insts();
        PassManager::new().run_level(&mut m, PipelineLevel::Oz);
        assert!(m.total_insts() < before);
    }

    #[test]
    fn unknown_phase_is_an_error() {
        let mut m = workload();
        let pm = PassManager::new();
        let err = pm
            .run_phase_sandboxed(&mut m, "fuse-everything", None, "t")
            .unwrap_err();
        assert_eq!(err, UnknownPhaseError("fuse-everything".into()));
        assert!(err.to_string().contains("fuse-everything"));
    }

    #[test]
    fn unknown_phase_mid_sequence_leaves_module_untouched() {
        // Regression: an unknown name used to abort mid-sequence with the
        // earlier phases already applied and no way to tell.
        let mut m = workload();
        let pristine = m.clone();
        let pm = PassManager::new();
        let err = pm
            .run_sequence_sandboxed(&mut m, ["mem2reg", "fuse-everything", "sccp"], None, "t")
            .unwrap_err();
        assert_eq!(err, UnknownPhaseError("fuse-everything".into()));
        assert_eq!(m, pristine, "no phase may run when validation fails");
        let err = pm
            .run_sequence_sandboxed(&mut m, ["gvn", "nope"], None, "t")
            .unwrap_err();
        assert_eq!(err, UnknownPhaseError("nope".into()));
        assert_eq!(m, pristine);
    }

    /// `main(x)` calls a `readnone`, never-inlined helper and drops the
    /// result: only a phase that reads the helper's attributes from its
    /// pre-phase module can delete the call.
    fn dead_readnone_call() -> Module {
        let mut mb = ModuleBuilder::new("d");
        let helper = mb.declare("helper", vec![Type::I64], Type::I64);
        mb.begin_existing(helper);
        {
            let mut b = mb.body();
            let v = b.add(b.param(0), b.const_i64(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.set_attrs(helper, |a| {
            a.readnone = true;
            a.no_inline = true;
        });
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            b.call(helper, vec![b.param(0)], Type::I64);
            b.ret(Some(b.param(0)));
        }
        mb.finish_function();
        mb.build()
    }

    /// The zero-fault sandbox hands function phases its rollback snapshot
    /// as their pre-phase module; the raw path makes its own copy. Both
    /// must reach the same module with the same verdicts: over every
    /// standard pipeline, and phase by phase over each program's seeded
    /// shuffle of the whole registry.
    #[test]
    fn sandbox_matches_plain_run_on_healthy_phases() {
        use crate::registry::{run_phase_on, PHASE_NAMES};
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let pm = PassManager::new();
        let mut inputs = vec![
            ("workload", workload()),
            ("dead-readnone-call", dead_readnone_call()),
        ];
        for name in ["blackscholes", "x264", "crc32", "matmult-int"] {
            inputs.push((name, mlcomp_suites::program(name).unwrap().module));
        }
        for (name, start) in &inputs {
            for level in PipelineLevel::ALL {
                let mut plain = start.clone();
                let mut sandboxed = start.clone();
                let changed = level
                    .phases()
                    .iter()
                    .filter(|phase| run_phase_on(&mut plain, phase).unwrap())
                    .count();
                let report = pm
                    .run_sequence_sandboxed(
                        &mut sandboxed,
                        level.phases().iter().copied(),
                        None,
                        "w",
                    )
                    .unwrap();
                assert!(
                    plain == sandboxed,
                    "{name} at {level:?}: zero-fault sandbox must be bit-identical"
                );
                assert_eq!(report.changed, changed, "{name} at {level:?}");
                assert!(report.quarantine.is_empty(), "{name} at {level:?}");
            }
        }
        let mut rng = StdRng::seed_from_u64(2021);
        for (name, start) in &inputs {
            let mut walk = PHASE_NAMES;
            walk.shuffle(&mut rng);
            let mut plain = start.clone();
            let mut sandboxed = start.clone();
            for (step, phase) in walk.into_iter().enumerate() {
                let changed = run_phase_on(&mut plain, phase).unwrap();
                let outcome = pm
                    .run_phase_sandboxed(&mut sandboxed, phase, None, phase)
                    .unwrap();
                let context = format!("{name} after {:?}", &walk[..=step]);
                let expected = if changed {
                    PhaseOutcome::Changed
                } else {
                    PhaseOutcome::Unchanged
                };
                assert_eq!(outcome, expected, "{context}");
                assert!(plain == sandboxed, "{context}: modules differ");
            }
        }
    }

    #[test]
    fn sandbox_rolls_back_injected_panics_and_quarantines_them() {
        use mlcomp_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::from_seed(11).with_rate(FaultKind::PhasePanic, 1.0);
        let reference = run_main(&workload(), 37).0;
        let mut m = workload();
        let pristine = m.clone();
        let pm = PassManager::new();
        let report = pm
            .run_sequence_sandboxed(
                &mut m,
                PipelineLevel::O2.phases().iter().copied(),
                Some(&plan),
                "w",
            )
            .unwrap();
        // Rate 1.0: every phase panics, every phase is quarantined, and the
        // module survives untouched.
        assert_eq!(report.changed, 0);
        assert_eq!(report.quarantine.len(), PipelineLevel::O2.phases().len());
        assert!(report
            .quarantine
            .entries
            .iter()
            .all(|e| matches!(e.reason, QuarantineReason::Panic(_))));
        assert_eq!(m, pristine);
        assert_eq!(run_main(&m, 37).0, reference);
    }

    #[test]
    fn sandbox_quarantines_injected_verifier_corruption() {
        use mlcomp_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::from_seed(5).with_rate(FaultKind::VerifierCorrupt, 1.0);
        let mut m = workload();
        let pristine = m.clone();
        let pm = PassManager::new();
        let outcome = pm
            .run_phase_sandboxed(&mut m, "mem2reg", Some(&plan), "w|0|mem2reg")
            .unwrap();
        assert!(
            matches!(
                outcome,
                PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(_))
            ),
            "{outcome:?}"
        );
        assert_eq!(m, pristine, "corrupted output must be rolled back");
    }

    #[test]
    fn injected_verifier_corruption_also_hits_unchanged_phases() {
        use mlcomp_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::from_seed(5).with_rate(FaultKind::VerifierCorrupt, 1.0);
        let mut m = workload();
        let pm = PassManager::new();
        let clean = pm.run_phase_sandboxed(&mut m, "mem2reg", None, "w|0|mem2reg");
        assert_eq!(clean, Ok(PhaseOutcome::Changed));
        // A second promotion changes nothing, yet the injected verdict still
        // quarantines it: skipping verification of unchanged outputs must
        // not skip the fault roll.
        let promoted = m.clone();
        let outcome = pm
            .run_phase_sandboxed(&mut m, "mem2reg", Some(&plan), "w|1|mem2reg")
            .unwrap();
        assert!(
            matches!(
                outcome,
                PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(_))
            ),
            "{outcome:?}"
        );
        assert_eq!(m, promoted);
    }

    /// The unused internal `dead` declares an `i64` result but returns
    /// nothing, so the module fails to verify. Were it run, `globaldce`
    /// would delete `dead` and leave a valid module.
    fn invalid_module() -> Module {
        let mut mb = ModuleBuilder::new("bad");
        let dead = mb.declare("dead", vec![], Type::I64);
        mb.begin_existing(dead);
        mb.body().ret(None);
        mb.finish_function();
        mb.set_internal(dead);
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let slot = b.local(b.param(0));
            let v = b.load(slot, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn invalid_input_runs_no_phase() {
        let mut m = invalid_module();
        let input_error = verify(&m).unwrap_err().to_string();
        let pristine = m.clone();
        let seq = ["mem2reg", "simplifycfg", "globaldce"];
        let report = PassManager::new()
            .run_sequence_sandboxed(&mut m, seq, None, "bad")
            .unwrap();
        assert_eq!(report.changed, 0);
        let expected: Vec<QuarantineEntry> = seq
            .iter()
            .enumerate()
            .map(|(index, phase)| QuarantineEntry {
                index,
                phase: phase.to_string(),
                reason: QuarantineReason::VerifierReject(input_error.clone()),
            })
            .collect();
        assert_eq!(report.quarantine.entries, expected);
        assert_eq!(m, pristine, "an invalid input must stay untouched");
    }

    #[test]
    fn partial_injection_still_preserves_behaviour() {
        use mlcomp_faults::{FaultKind, FaultPlan};
        let plan = FaultPlan::from_seed(99).with_rate(FaultKind::PhasePanic, 0.4);
        let reference = run_main(&workload(), 23).0;
        let mut m = workload();
        let pm = PassManager::new();
        let report = pm
            .run_sequence_sandboxed(
                &mut m,
                PipelineLevel::O3.phases().iter().copied(),
                Some(&plan),
                "w",
            )
            .unwrap();
        assert!(
            !report.quarantine.is_empty() && report.changed > 0,
            "40% rate over the O3 pipeline should both quarantine and progress: {report:?}"
        );
        mlcomp_ir::verify(&m).unwrap();
        assert_eq!(
            run_main(&m, 23).0,
            reference,
            "semantics preserved under faults"
        );
        // Same plan, same module, same prefix → same trajectory.
        let mut again = workload();
        let replay = pm
            .run_sequence_sandboxed(
                &mut again,
                PipelineLevel::O3.phases().iter().copied(),
                Some(&plan),
                "w",
            )
            .unwrap();
        assert_eq!(m, again);
        assert_eq!(report, replay);
    }

    /// Fixture with one dead instruction (for DCE), one duplicated pure
    /// subexpression (for CSE), and one constant-foldable operation (for
    /// SCCP), so each phase has a predictable instruction delta.
    fn delta_fixture() -> Module {
        let mut mb = ModuleBuilder::new("delta");
        mb.begin_function("main", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let _dead = b.mul(b.param(0), b.const_i64(7));
            let a = b.add(b.param(0), b.const_i64(5));
            let a2 = b.add(b.param(0), b.const_i64(5));
            let c = b.mul(b.const_i64(2), b.const_i64(3));
            let s1 = b.add(a, a2);
            let s2 = b.add(s1, c);
            b.ret(Some(s2));
        }
        mb.finish_function();
        mb.build()
    }

    #[test]
    fn sandbox_reports_ir_deltas_for_dce_cse_and_sccp() {
        // The registry's DCE/CSE/SCCP phases are named `adce`,
        // `early-cse`, and `sccp`.
        for phase in ["adce", "early-cse", "sccp"] {
            let mut m = delta_fixture();
            assert_eq!(total_blocks(&m), 1, "{phase}");
            let (outcome, removed) = outcome_and_insts_removed(&mut m, phase);
            assert_eq!(outcome, PhaseOutcome::Changed, "{phase}");
            assert!(
                removed > 0,
                "{phase} should remove instructions from the fixture: {removed}"
            );
            assert_eq!(total_blocks(&m), 1, "{phase}");
            verify(&m).unwrap();
        }
    }

    #[test]
    fn sandbox_exact_deltas_on_the_fixture() {
        // adce kills exactly the one dead multiply.
        let (_, removed) = outcome_and_insts_removed(&mut delta_fixture(), "adce");
        assert_eq!(removed, 1);
        // early-cse folds the duplicated `p0 + 5`, and its trivial-DCE
        // sweep also picks up the dead multiply: two instructions gone.
        let (_, removed) = outcome_and_insts_removed(&mut delta_fixture(), "early-cse");
        assert_eq!(removed, 2);
        // sccp folds the constant `2 * 3` and, like early-cse, sweeps the
        // trivially dead multiply afterwards.
        let (_, removed) = outcome_and_insts_removed(&mut delta_fixture(), "sccp");
        assert_eq!(removed, 2);
    }

    #[test]
    fn sandbox_unchanged_and_unknown_phases() {
        let mut m = delta_fixture();
        let pristine = m.clone();
        // `globaldce` has nothing to do on a module with only `main`.
        let (outcome, removed) = outcome_and_insts_removed(&mut m, "globaldce");
        assert_eq!(outcome, PhaseOutcome::Unchanged);
        assert_eq!(removed, 0);
        assert_eq!(m, pristine);
        let err = PassManager::new()
            .run_phase_sandboxed(&mut m, "nope", None, "nope")
            .unwrap_err();
        assert_eq!(err, UnknownPhaseError("nope".into()));
    }

    #[test]
    fn sandbox_records_rollback_deltas_as_zero() {
        use mlcomp_faults::{FaultKind, FaultPlan};
        // Quarantined phases must leave a zero IR delta (the rollback
        // restored the snapshot).
        let plan = FaultPlan::from_seed(3).with_rate(FaultKind::PhasePanic, 1.0);
        let mut m = delta_fixture();
        let pristine = m.clone();
        mlcomp_faults::quiet_injected_panics();
        let outcome = PassManager::new()
            .run_phase_sandboxed(&mut m, "adce", Some(&plan), "k")
            .unwrap();
        assert!(matches!(outcome, PhaseOutcome::Quarantined(_)));
        assert_eq!(m, pristine);
        assert_eq!(m.total_insts(), pristine.total_insts());
    }

    #[test]
    fn random_phase_sequences_preserve_behaviour() {
        // A light fuzz: fixed pseudo-random phase orders must never change
        // what the program computes.
        let reference = run_main(&workload(), 23).0;
        let names = crate::registry::PHASE_NAMES;
        let mut state = 0x9E3779B97F4A7C15u64;
        for trial in 0..12 {
            let mut m = workload();
            let pm = PassManager::new();
            for _ in 0..10 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (state >> 33) as usize % names.len();
                let outcome = pm
                    .run_phase_sandboxed(&mut m, names[idx], None, "t")
                    .unwrap();
                assert!(
                    !matches!(outcome, PhaseOutcome::Quarantined(_)),
                    "trial {trial}: `{}` {outcome:?}",
                    names[idx]
                );
            }
            assert_eq!(run_main(&m, 23).0, reference, "trial {trial} diverged");
        }
    }

    /// `workload` plus one unreachable block in `main`, which the
    /// verifier tolerates.
    fn with_unreachable_block() -> Module {
        use mlcomp_ir::{BinOp, InstKind, Terminator, Value};
        let mut m = workload();
        let main = m.find_function("main").unwrap();
        let f = &mut m.functions[main.index()];
        let dead = f.add_block();
        let kind = InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::Param(0),
            rhs: Value::i64(1),
            width: 1,
        };
        let v = f.append_inst(dead, kind, Type::I64);
        f.block_mut(dead).term = Terminator::Ret(Some(v));
        verify(&m).unwrap();
        m
    }

    /// A session trusts `Changed` to tell when its snapshot went stale, so
    /// a phase that only deletes an unreachable block must report it. A
    /// plain `assert!`, so that release builds check it too.
    #[test]
    fn deleting_an_unreachable_block_is_a_change() {
        let input = with_unreachable_block();
        let pm = PassManager::new();
        for name in crate::registry::PHASE_NAMES {
            let mut m = input.clone();
            let outcome = pm.run_phase_sandboxed(&mut m, name, None, name).unwrap();
            assert!(
                (outcome == PhaseOutcome::Changed) == (m != input),
                "`{name}` reported {outcome:?}, yet the module {}",
                if m == input {
                    "is unchanged"
                } else {
                    "changed"
                }
            );
        }
    }

    /// The largest suite state the session and `verify_changed` checks
    /// start from, as in the fingerprint test.
    const SESSION_MAX_INSTS: usize = 200;

    /// One session must give the outcomes and the final module that
    /// one-shot runs give, phase by phase over a walk from every suite
    /// state: without faults, and under a plan that injects panics and
    /// verifier corruption mid-walk, so that the session also rolls back.
    #[test]
    fn a_session_matches_one_shot_runs_on_the_suite_states() {
        use crate::registry::{PHASE_COUNT, PHASE_NAMES};
        use mlcomp_faults::{FaultKind, FaultPlan};
        mlcomp_faults::quiet_injected_panics();
        let plan = FaultPlan::from_seed(18)
            .with_rate(FaultKind::PhasePanic, 0.05)
            .with_rate(FaultKind::VerifierCorrupt, 0.05);
        let pm = PassManager::new();
        let (mut panics, mut corruptions) = (0, 0);
        let mut start = 0;
        let states =
            crate::suite_states::for_each_suite_state(SESSION_MAX_INSTS, |state, label| {
                // Twelve distinct phases, a different run of them per state.
                start = (start + 5) % PHASE_COUNT;
                let walk: Vec<&str> = (0..12)
                    .map(|i| PHASE_NAMES[(start + 7 * i) % PHASE_COUNT])
                    .collect();
                for plan in [None, Some(&plan)] {
                    let mut session = Sandbox::new(state.clone());
                    let mut one_shot = state.clone();
                    for (step, phase) in walk.iter().enumerate() {
                        let key = format!("{label}|{step}|{phase}");
                        let outcome = session.run_phase(phase, plan, &key).unwrap();
                        let expected = pm
                            .run_phase_sandboxed(&mut one_shot, phase, plan, &key)
                            .unwrap();
                        assert_eq!(outcome, expected, "{label}, step {step} `{phase}`");
                        match outcome {
                            PhaseOutcome::Quarantined(QuarantineReason::Panic(msg))
                                if msg.starts_with(INJECTED_PANIC_PREFIX) =>
                            {
                                panics += 1
                            }
                            PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(msg))
                                if msg.starts_with(INJECTED_PANIC_PREFIX) =>
                            {
                                corruptions += 1
                            }
                            _ => {}
                        }
                    }
                    assert_eq!(
                        format!("{:?}", session.module()),
                        format!("{one_shot:?}"),
                        "{label} after {walk:?}, plan {plan:?}"
                    );
                }
            });
        assert!(states >= 300, "only {states} states checked");
        assert!(
            panics > 0 && corruptions > 0,
            "{panics} injected panics, {corruptions} injected corruptions"
        );
    }

    /// The walk of `a_session_matches_one_shot_runs_on_the_suite_states`
    /// from the 44 suite states over `SESSION_MAX_INSTS` instructions
    /// (unrolled states, up to 7,235 instructions), where the session's
    /// cached analyses are largest. Release builds only: the cost grows
    /// with the states' size.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_session_matches_one_shot_runs_on_the_large_states() {
        use crate::registry::{PHASE_COUNT, PHASE_NAMES};
        use mlcomp_faults::{FaultKind, FaultPlan};
        mlcomp_faults::quiet_injected_panics();
        let plan = FaultPlan::from_seed(18)
            .with_rate(FaultKind::PhasePanic, 0.05)
            .with_rate(FaultKind::VerifierCorrupt, 0.05);
        let pm = PassManager::new();
        let (mut states, mut panics, mut corruptions) = (0, 0, 0);
        let mut start = 0;
        crate::suite_states::for_each_suite_state(usize::MAX, |state, label| {
            if state.total_insts() <= SESSION_MAX_INSTS {
                return;
            }
            states += 1;
            // Twelve distinct phases, a different run of them per state.
            start = (start + 5) % PHASE_COUNT;
            let walk: Vec<&str> = (0..12)
                .map(|i| PHASE_NAMES[(start + 7 * i) % PHASE_COUNT])
                .collect();
            for plan in [None, Some(&plan)] {
                let mut session = Sandbox::new(state.clone());
                let mut one_shot = state.clone();
                for (step, phase) in walk.iter().enumerate() {
                    let key = format!("{label}|{step}|{phase}");
                    let outcome = session.run_phase(phase, plan, &key).unwrap();
                    let expected = pm
                        .run_phase_sandboxed(&mut one_shot, phase, plan, &key)
                        .unwrap();
                    assert_eq!(outcome, expected, "{label}, step {step} `{phase}`");
                    match outcome {
                        PhaseOutcome::Quarantined(QuarantineReason::Panic(msg))
                            if msg.starts_with(INJECTED_PANIC_PREFIX) =>
                        {
                            panics += 1
                        }
                        PhaseOutcome::Quarantined(QuarantineReason::VerifierReject(msg))
                            if msg.starts_with(INJECTED_PANIC_PREFIX) =>
                        {
                            corruptions += 1
                        }
                        _ => {}
                    }
                }
                assert_eq!(
                    format!("{:?}", session.module()),
                    format!("{one_shot:?}"),
                    "{label} after {walk:?}, plan {plan:?}"
                );
            }
        });
        assert_eq!(states, 44);
        assert!(
            panics > 0 && corruptions > 0,
            "{panics} injected panics, {corruptions} injected corruptions"
        );
    }

    /// `verify_changed` against the snapshot must return what `verify`
    /// returns, error included, after every phase on every suite state.
    /// The raw path keeps what `loop-sink` breaks, so rejects are checked
    /// too.
    #[test]
    fn verify_changed_matches_verify_after_every_phase() {
        use crate::registry::{run_phase_on, PHASE_NAMES};
        let mut rejects = 0;
        let states =
            crate::suite_states::for_each_suite_state(SESSION_MAX_INSTS, |state, label| {
                for name in PHASE_NAMES {
                    let mut m = state.clone();
                    run_phase_on(&mut m, name).unwrap();
                    let full = verify(&m);
                    rejects += usize::from(full.is_err());
                    assert_eq!(
                        mlcomp_ir::verify_changed(&m, state, &mut AnalysisCache::new()),
                        full,
                        "`{name}` on {label}"
                    );
                }
            });
        assert!(states >= 300, "only {states} states checked");
        assert!(rejects > 0, "no phase output failed to verify");
    }
}
