//! Analyses shared by the optimization phases: CFG, dominators, natural
//! loops, call graph and def-use information.
//!
//! Analyses are computed on demand from a [`Function`](crate::Function) or
//! [`Module`](crate::Module) snapshot; they are plain data and become stale
//! as soon as the IR is mutated, so phases recompute them after structural
//! changes (mirroring LLVM's analysis-invalidation discipline, without the
//! caching machinery).
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

mod callgraph;
mod cfg;
mod defuse;
mod dom;
mod loops;

pub use callgraph::CallGraph;
pub use cfg::{Cfg, RPO};
pub use defuse::{DefUse, UseSite};
pub use dom::DomTree;
pub use loops::{Loop, LoopForest, TripCount};
