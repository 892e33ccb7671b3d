//! Analyses shared by the optimization phases: CFG, dominators, natural
//! loops, call graph and def-use information.
//!
//! Each analysis is plain data computed from a [`Function`](crate::Function)
//! or [`Module`](crate::Module) and describes exactly the body it was built
//! from. An [`AnalysisCache`] keeps them per function across phase runs, as
//! LLVM's analysis managers keep what a pass preserves: a sandbox session
//! holds one for its module and drops a function's entry only when that
//! function's body changes. Phases borrow the module from the cache as a
//! [`ModuleBody`] and each function as a [`Body`], which serves the
//! analyses of the body as the phase found it until the phase first writes
//! it and builds afresh after that; see the [`cache`] module for the rules.
//!
//! Nearly every phase run builds [`DefUse`], including the many runs that
//! change nothing, so it is kept cheap: its use lists are dense arrays
//! indexed by instruction arena id (see its module for the layout), and
//! building it takes two scans and three allocations.
//!
//! Analyses whose results phases iterate decide that order themselves: a
//! [`Loop`]'s blocks and each dominance frontier
//! ([`DomTree::dominance_frontiers`]) come sorted ascending, so phases
//! walk them as they are and produce the same output on every run,
//! without copying or sorting them.

pub mod cache;
mod callgraph;
mod cfg;
mod defuse;
mod dom;
mod loops;

pub use cache::{AnalysisCache, Body, CfgDom, CfgLoops, Fetch, FunctionAnalyses, ModuleBody};
pub use callgraph::CallGraph;
pub use cfg::{Cfg, RPO};
pub use defuse::{DefUse, UseSite};
pub use dom::DomTree;
pub use loops::{Loop, LoopForest, TripCount};
