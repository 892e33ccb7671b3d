//! A typed SSA intermediate representation for the MLComp reproduction.
//!
//! This crate provides the compiler substrate on which the whole MLComp
//! methodology operates. It mirrors the subset of LLVM IR that the 48
//! optimization phases of the paper's Table VI need in order to interact the
//! way they do in LLVM: a control-flow graph of basic blocks over SSA values,
//! `alloca`/`load`/`store` memory (so `mem2reg`/`sroa` are meaningful), phi
//! nodes, direct and indirect calls, pointer arithmetic and branch-weight
//! metadata.
//!
//! The crate is organized as:
//!
//! * [`types`], [`value`], [`inst`], [`block`], [`function`], [`module`] —
//!   the IR data structures themselves;
//! * [`builder`] — an ergonomic way to construct functions, including a
//!   structured counted-loop helper used by the benchmark suites;
//! * [`verifier`] — structural and type well-formedness checks;
//! * [`analysis`] — CFG, dominator tree, natural loops, call graph and
//!   def-use analyses shared by the optimization phases;
//! * [`interp`] — a profiling interpreter that executes a module and returns
//!   per-operation dynamic counts, the raw material for the platform cost
//!   models;
//! * [`hash`] — a fast hasher for maps keyed by ids, shared with the phases.
//!
//! # Example
//!
//! ```
//! use mlcomp_ir::{ModuleBuilder, Type, BinOp};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let f = mb.begin_function("add1", vec![Type::I64], Type::I64);
//! {
//!     let mut b = mb.body();
//!     let x = b.param(0);
//!     let one = b.const_i64(1);
//!     let sum = b.bin(BinOp::Add, x, one);
//!     b.ret(Some(sum));
//! }
//! mb.finish_function();
//! let module = mb.build();
//! assert!(mlcomp_ir::verify(&module).is_ok());
//! let _ = f;
//! ```

pub mod analysis;
pub mod block;
pub mod builder;
pub mod display;
pub mod function;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod module;
pub mod types;
pub mod value;
pub mod verifier;

pub use block::{BasicBlock, BlockId, Terminator};
pub use builder::{FunctionBuilder, ModuleBuilder};
pub use function::{FnAttrs, FuncId, Function};
pub use inst::{BinOp, Callee, CastOp, CmpPred, Inst, InstId, InstKind, UnOp};
pub use interp::{DynCounts, ExecError, InterpConfig, Interpreter, Outcome, RtVal};
pub use module::{Global, GlobalId, Module};
pub use types::Type;
pub use value::Value;
pub use verifier::{verify, verify_changed, VerifyError};
