//! The per-function analysis cache of a module, and the handles through
//! which phases read it.
//!
//! An [`AnalysisCache`] describes one module: each function's entry holds
//! whichever of its [`Cfg`], [`DomTree`], [`LoopForest`] and [`DefUse`]
//! were asked for, built on first request, and the module has one
//! [`CallGraph`]. The owner keeps the cache describing its module.
//! A sandbox session does so by body comparison after every changed run
//! ([`AnalysisCache::retain_unchanged`]): an analysis reads nothing of a
//! function but its blocks, instructions and declaration flag, so an entry
//! stays valid exactly as long as those are equal.
//!
//! Phases see the cache only through [`AnalysisCache::lend`], which lends
//! the module as a [`ModuleBody`], with the pre-phase module, and its
//! functions as [`Body`] handles. A handle hands out cached analyses until
//! the phase first writes what it describes and builds afresh from then
//! on, so whatever a phase asks for after a write describes the body as it
//! is then, and nothing built after a write lands in the cache. A write
//! through a [`Body`] gives up that function's entry and the call graph; a
//! write through the [`ModuleBody`] gives up everything. A [`Body`] made
//! from a bare function (tests) has nothing cached; it runs the same code.
//!
//! Debug builds check every cache hit against a fresh build. While a trace
//! is recording, each hit and each build through the cache or a handle
//! counts in `passes.analysis.hit.<kind>` / `passes.analysis.build.<kind>`,
//! where `<kind>` is `cfg`, `dom_tree`, `loop_forest`, `def_use` or
//! `call_graph`.

use super::{CallGraph, Cfg, DefUse, DomTree, LoopForest};
use crate::function::{FuncId, Function};
use crate::module::Module;
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::fmt::Debug;
use std::ops::{Deref, DerefMut};

/// The analyses [`AnalysisCache`] keeps, named as in its trace counters.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Cfg,
    DomTree,
    LoopForest,
    DefUse,
    CallGraph,
}

impl Kind {
    fn count(self, hit: bool) {
        let name = match (self, hit) {
            (Kind::Cfg, true) => "passes.analysis.hit.cfg",
            (Kind::Cfg, false) => "passes.analysis.build.cfg",
            (Kind::DomTree, true) => "passes.analysis.hit.dom_tree",
            (Kind::DomTree, false) => "passes.analysis.build.dom_tree",
            (Kind::LoopForest, true) => "passes.analysis.hit.loop_forest",
            (Kind::LoopForest, false) => "passes.analysis.build.loop_forest",
            (Kind::DefUse, true) => "passes.analysis.hit.def_use",
            (Kind::DefUse, false) => "passes.analysis.build.def_use",
            (Kind::CallGraph, true) => "passes.analysis.hit.call_graph",
            (Kind::CallGraph, false) => "passes.analysis.build.call_graph",
        };
        mlcomp_trace::counter(name, 1);
    }
}

/// `cell`'s analysis, built with `build` on a miss. Debug builds check a
/// hit against a fresh build.
fn fetch<T: PartialEq + Debug>(cell: &OnceCell<T>, kind: Kind, build: impl Fn() -> T) -> &T {
    match cell.get() {
        Some(hit) => {
            kind.count(true);
            debug_assert!(
                *hit == build(),
                "the cached {kind:?} differs from a fresh build"
            );
            hit
        }
        None => {
            kind.count(false);
            cell.get_or_init(build)
        }
    }
}

/// `build`'s analysis, counted as a build.
fn built<T>(kind: Kind, build: impl FnOnce() -> T) -> T {
    kind.count(false);
    build()
}

/// One function's cached analyses, each built on first request from the
/// function passed in. Every call must pass the same body, the one the
/// entry describes; [`AnalysisCache`] and [`Body`] see to that.
#[derive(Debug, Clone, Default)]
pub struct FunctionAnalyses {
    cfg: OnceCell<Cfg>,
    dom_tree: OnceCell<DomTree>,
    loop_forest: OnceCell<LoopForest>,
    def_use: OnceCell<DefUse>,
}

impl FunctionAnalyses {
    /// The CFG of `f`.
    pub fn cfg(&self, f: &Function) -> &Cfg {
        fetch(&self.cfg, Kind::Cfg, || Cfg::new(f))
    }

    /// The CFG and dominator tree of `f`.
    pub fn dom_tree(&self, f: &Function) -> (&Cfg, &DomTree) {
        let cfg = self.cfg(f);
        (
            cfg,
            fetch(&self.dom_tree, Kind::DomTree, || DomTree::new(cfg)),
        )
    }

    /// The CFG, dominator tree and loop forest of `f`.
    pub fn loop_forest(&self, f: &Function) -> (&Cfg, &DomTree, &LoopForest) {
        let (cfg, dt) = self.dom_tree(f);
        let lf = fetch(&self.loop_forest, Kind::LoopForest, || {
            LoopForest::new(cfg, dt)
        });
        (cfg, dt, lf)
    }

    /// The def-use chains of `f`.
    pub fn def_use(&self, f: &Function) -> &DefUse {
        fetch(&self.def_use, Kind::DefUse, || DefUse::new(f))
    }
}

/// Analyses a [`Body`] hands out: borrowed from its cache entry while the
/// body is as the entry describes it, built afresh otherwise.
pub trait Fetch<'c>: Sized {
    /// Borrows from `entry`, which describes `f`, building on a miss.
    fn cached(entry: &'c FunctionAnalyses, f: &Function) -> Self;
    /// Builds from `f`.
    fn build(f: &Function) -> Self;
}

/// A function's CFG and dominator tree, as a [`Body`] hands them out.
pub type CfgDom<'c> = (Cow<'c, Cfg>, Cow<'c, DomTree>);

/// A function's CFG, dominator tree and loop forest, as a [`Body`] hands
/// them out.
pub type CfgLoops<'c> = (Cow<'c, Cfg>, Cow<'c, DomTree>, Cow<'c, LoopForest>);

impl<'c> Fetch<'c> for Cow<'c, Cfg> {
    fn cached(entry: &'c FunctionAnalyses, f: &Function) -> Self {
        Cow::Borrowed(entry.cfg(f))
    }

    fn build(f: &Function) -> Self {
        Cow::Owned(built(Kind::Cfg, || Cfg::new(f)))
    }
}

impl<'c> Fetch<'c> for CfgDom<'c> {
    fn cached(entry: &'c FunctionAnalyses, f: &Function) -> Self {
        let (cfg, dt) = entry.dom_tree(f);
        (Cow::Borrowed(cfg), Cow::Borrowed(dt))
    }

    fn build(f: &Function) -> Self {
        let cfg = built(Kind::Cfg, || Cfg::new(f));
        let dt = built(Kind::DomTree, || DomTree::new(&cfg));
        (Cow::Owned(cfg), Cow::Owned(dt))
    }
}

impl<'c> Fetch<'c> for CfgLoops<'c> {
    fn cached(entry: &'c FunctionAnalyses, f: &Function) -> Self {
        let (cfg, dt, lf) = entry.loop_forest(f);
        (Cow::Borrowed(cfg), Cow::Borrowed(dt), Cow::Borrowed(lf))
    }

    fn build(f: &Function) -> Self {
        let cfg = built(Kind::Cfg, || Cfg::new(f));
        let dt = built(Kind::DomTree, || DomTree::new(&cfg));
        let lf = built(Kind::LoopForest, || LoopForest::new(&cfg, &dt));
        (Cow::Owned(cfg), Cow::Owned(dt), Cow::Owned(lf))
    }
}

impl<'c> Fetch<'c> for Cow<'c, DefUse> {
    fn cached(entry: &'c FunctionAnalyses, f: &Function) -> Self {
        Cow::Borrowed(entry.def_use(f))
    }

    fn build(f: &Function) -> Self {
        Cow::Owned(built(Kind::DefUse, || DefUse::new(f)))
    }
}

/// A function lent to a phase, with the cached analyses of the body as
/// the phase found it.
///
/// It dereferences to the [`Function`]. The first mutable access, through
/// [`DerefMut`], gives the cache entry up: from then on [`Body::analyse`]
/// builds every analysis afresh from the body as it is, and stores none.
/// Reading the body never gives it up. An analysis taken before a write
/// still describes the body as it was when taken, as one the phase built
/// itself would.
#[derive(Debug)]
pub struct Body<'a> {
    f: &'a mut Function,
    /// Describes `f` while it is `Some`, with the lender's record of a
    /// write to `f`, set when the entry is given up.
    cached: Option<(&'a FunctionAnalyses, &'a Cell<bool>)>,
}

impl<'a> Body<'a> {
    /// Analyses `T` of the body as it is now: borrowed from the cache
    /// entry until the first write, built afresh after it.
    pub fn analyse<T: Fetch<'a>>(&self) -> T {
        match self.cached {
            Some((entry, _)) => T::cached(entry, self.f),
            None => T::build(self.f),
        }
    }
}

/// A body with nothing cached, for tests.
impl<'a> From<&'a mut Function> for Body<'a> {
    fn from(f: &'a mut Function) -> Body<'a> {
        Body { f, cached: None }
    }
}

impl Deref for Body<'_> {
    type Target = Function;

    fn deref(&self) -> &Function {
        self.f
    }
}

/// Gives the cache entry up.
impl DerefMut for Body<'_> {
    fn deref_mut(&mut self) -> &mut Function {
        if let Some((_, written)) = self.cached.take() {
            written.set(true);
        }
        self.f
    }
}

/// A module lent to a phase with the module as it was before the phase:
/// lends each function as a [`Body`] with its entry until the phase writes
/// it, and the call graph until the phase writes any function. A write
/// through [`DerefMut`] gives the whole cache up for the rest of the phase.
#[derive(Debug)]
pub struct ModuleBody<'a> {
    m: &'a mut Module,
    before: &'a Module,
    /// Describes `before`, and so every function not yet written, while it
    /// is `Some`.
    cache: Option<&'a AnalysisCache>,
    /// Per function, whether the phase wrote it through a [`Body`].
    written: Vec<Cell<bool>>,
}

impl<'a> ModuleBody<'a> {
    /// The module as it was before the phase, for interprocedural queries
    /// such as a callee's `readnone`.
    pub fn before(&self) -> &'a Module {
        self.before
    }

    /// Lends function `fid` with its cache entry, unless the phase wrote it.
    pub fn body(&mut self, fid: FuncId) -> Body<'_> {
        let f = &mut self.m.functions[fid.index()];
        lend_body(f, fid.index(), self.cache, &self.written)
    }

    /// Lends every function, as [`ModuleBody::body`] does.
    pub fn bodies(&mut self) -> impl Iterator<Item = Body<'_>> {
        let (cache, written) = (self.cache, &self.written);
        let functions = self.m.functions.iter_mut().enumerate();
        functions.map(move |(i, f)| lend_body(f, i, cache, written))
    }

    /// The call graph of the module as it is now: borrowed from the cache
    /// until the phase's first write, built afresh after it.
    pub fn call_graph(&self) -> Cow<'a, CallGraph> {
        match self.cache.filter(|_| !self.written.iter().any(Cell::get)) {
            Some(c) => Cow::Borrowed(c.call_graph(self.m)),
            None => Cow::Owned(built(Kind::CallGraph, || CallGraph::new(self.m))),
        }
    }
}

/// Lends `f`, function `i` of a [`ModuleBody`], with its entry in `cache`
/// unless `written` records a write to it.
fn lend_body<'b>(
    f: &'b mut Function,
    i: usize,
    cache: Option<&'b AnalysisCache>,
    written: &'b [Cell<bool>],
) -> Body<'b> {
    let entry = cache.map(|c| (&c.functions[i], &written[i]));
    Body {
        f,
        cached: entry.filter(|(_, written)| !written.get()),
    }
}

impl Deref for ModuleBody<'_> {
    type Target = Module;

    fn deref(&self) -> &Module {
        self.m
    }
}

/// Gives the cache up.
impl DerefMut for ModuleBody<'_> {
    fn deref_mut(&mut self) -> &mut Module {
        self.cache = None;
        self.m
    }
}

/// Cached analyses of one module: an entry per function, indexed like
/// [`Module::functions`], and the call graph.
///
/// Every method that takes the module must be passed the module the cache
/// describes. An empty cache describes every module.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    functions: Vec<FunctionAnalyses>,
    call_graph: OnceCell<CallGraph>,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The entry of function `fid`.
    pub fn function(&mut self, fid: FuncId) -> &FunctionAnalyses {
        if self.functions.len() <= fid.index() {
            self.functions
                .resize_with(fid.index() + 1, Default::default);
        }
        &self.functions[fid.index()]
    }

    /// The call graph of `m`.
    pub fn call_graph(&self, m: &Module) -> &CallGraph {
        fetch(&self.call_graph, Kind::CallGraph, || CallGraph::new(m))
    }

    /// Lends `m`, which equals `before`, to a phase. The cache must
    /// describe `before`, and still does after the phase, whatever it
    /// wrote.
    pub fn lend<'a>(&'a mut self, m: &'a mut Module, before: &'a Module) -> ModuleBody<'a> {
        if self.functions.len() < m.functions.len() {
            self.functions
                .resize_with(m.functions.len(), Default::default);
        }
        ModuleBody {
            written: vec![Cell::new(false); m.functions.len()],
            m,
            before,
            cache: Some(self),
        }
    }

    /// Makes the cache, which describes `before`, describe `m`: drops the
    /// entry of each function whose body (blocks, instructions or
    /// declaration flag) differs, and the call graph if any does. When the
    /// two modules differ in function count or in a function's name, it
    /// drops everything and returns `None`; otherwise it returns the
    /// functions whose bodies differ.
    pub fn retain_unchanged(&mut self, m: &Module, before: &Module) -> Option<Vec<FuncId>> {
        let same_functions = m.functions.len() == before.functions.len()
            && m.functions
                .iter()
                .zip(&before.functions)
                .all(|(f, old)| f.name == old.name);
        if !same_functions {
            *self = AnalysisCache::default();
            return None;
        }
        let changed: Vec<FuncId> = m
            .function_ids()
            .filter(|&fid| body_changed(m.function(fid), before.function(fid)))
            .collect();
        for &fid in &changed {
            if let Some(entry) = self.functions.get_mut(fid.index()) {
                *entry = FunctionAnalyses::default();
            }
        }
        if !changed.is_empty() {
            self.call_graph = OnceCell::new();
        }
        Some(changed)
    }
}

/// Whether `f`'s body differs from `old`'s in anything an analysis reads.
fn body_changed(f: &Function, old: &Function) -> bool {
    f.is_declaration != old.is_declaration || f.blocks != old.blocks || f.insts != old.insts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    fn module() -> Module {
        functions(&["f"])
    }

    /// One summing loop per name.
    fn functions(names: &[&str]) -> Module {
        let mut mb = ModuleBuilder::new("t");
        for &name in names {
            mb.begin_function(name, vec![Type::I64], Type::I64);
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let c = b.load(acc, Type::I64);
                let n = b.add(c, i);
                b.store(acc, n);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
            mb.finish_function();
        }
        mb.build()
    }

    #[test]
    fn a_body_gives_its_entry_up_on_the_first_write() {
        let before = module();
        let mut m = before.clone();
        let mut cache = AnalysisCache::new();
        let mut lent = cache.lend(&mut m, &before);
        let mut body = lent.bodies().next().unwrap();
        let cfg = body.analyse::<Cow<Cfg>>();
        assert!(matches!(cfg, Cow::Borrowed(_)));
        assert!(matches!(body.analyse::<CfgLoops>().2, Cow::Borrowed(_)));
        let exit = body.add_block();
        // Taken before the write, `cfg` still describes the body as it was.
        assert_eq!(cfg.succs.len() + 1, body.blocks.len());
        let after = body.analyse::<Cow<Cfg>>();
        assert!(matches!(after, Cow::Owned(_)), "built after the write");
        assert_eq!(after.succs.len(), body.blocks.len());
        assert!(!after.reachable[exit.index()]);
        assert!(matches!(body.analyse::<Cow<DefUse>>(), Cow::Owned(_)));
        // Nothing built after the write reached the entry.
        assert!(cache.functions[0].def_use.get().is_none());
        assert_eq!(
            cache.function(FuncId(0)).cfg(&before.functions[0]),
            &Cfg::new(&before.functions[0])
        );
    }

    #[test]
    fn a_module_body_gives_its_call_graph_up_on_the_first_write() {
        let before = module();
        let mut m = before.clone();
        let mut cache = AnalysisCache::new();
        let mut whole = cache.lend(&mut m, &before);
        assert!(matches!(whole.call_graph(), Cow::Borrowed(_)));
        whole.functions[0].attrs.readnone = true;
        assert!(matches!(whole.call_graph(), Cow::Owned(_)));
        let cfg = whole.body(FuncId(0)).analyse::<Cow<Cfg>>();
        assert!(matches!(cfg, Cow::Owned(_)));
    }

    #[test]
    fn a_module_body_lends_each_function_until_the_phase_writes_it() {
        let before = functions(&["f", "g"]);
        let mut m = before.clone();
        let mut cache = AnalysisCache::new();
        let mut lent = cache.lend(&mut m, &before);
        assert!(matches!(lent.call_graph(), Cow::Borrowed(_)));
        let served = |body: Body| matches!(body.analyse::<Cow<Cfg>>(), Cow::Borrowed(_));
        assert!(served(lent.body(FuncId(0))));
        lent.body(FuncId(0)).add_block();
        // The untouched function is still served from its entry; the
        // written one is not, by either lending method, for the rest of
        // the phase.
        assert!(served(lent.body(FuncId(1))));
        assert!(!served(lent.body(FuncId(0))));
        assert_eq!(lent.bodies().map(served).collect::<Vec<_>>(), [false, true]);
        assert!(
            matches!(lent.call_graph(), Cow::Owned(_)),
            "built after a write"
        );
        assert_eq!(lent.before(), &before);
        assert_ne!(*lent, before);
        // The cache still describes `before`.
        assert!(cache.call_graph.get().is_some());
        assert_eq!(
            cache.function(FuncId(0)).cfg(&before.functions[0]),
            &Cfg::new(&before.functions[0])
        );
    }

    #[test]
    fn retain_unchanged_drops_exactly_the_rewritten_bodies() {
        let before = module();
        let mut cache = AnalysisCache::new();
        cache.function(FuncId(0)).loop_forest(&before.functions[0]);
        cache.call_graph(&before);

        // Attributes are no part of a body.
        let mut m = before.clone();
        m.functions[0].attrs.readnone = true;
        assert_eq!(cache.retain_unchanged(&m, &before), Some(vec![]));
        assert!(cache.functions[0].loop_forest.get().is_some());
        assert!(cache.call_graph.get().is_some());

        m.functions[0].add_block();
        assert_eq!(cache.retain_unchanged(&m, &before), Some(vec![FuncId(0)]));
        assert!(cache.functions[0].cfg.get().is_none());
        assert!(cache.call_graph.get().is_none());

        cache.function(FuncId(0)).cfg(&m.functions[0]);
        let mut renamed = m.clone();
        renamed.functions[0].name = "g".into();
        assert_eq!(cache.retain_unchanged(&renamed, &m), None);
        assert!(cache.functions.is_empty());
    }
}
