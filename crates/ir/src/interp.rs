//! A profiling interpreter: executes a module and returns per-operation
//! dynamic counts.
//!
//! This is the stand-in for running compiled binaries on real hardware (or
//! the paper's HIPERSIM simulator): the interpreter observes the *dynamic*
//! behaviour of the optimized IR — how many multiplies, loads, branches,
//! vector lanes actually execute — and the platform crate turns those counts
//! into execution time and energy through its cost models.
//!
//! The interpreter does not define what an operator computes. It tallies
//! each operation into its cost class and calls the operator's `eval`
//! ([`BinOp::eval`], [`UnOp::eval`], [`CmpPred::eval`](crate::CmpPred::eval),
//! [`CastOp::eval`](crate::CastOp::eval)), the same definitions constant
//! folding uses, so a folded program returns what the original returns.

use crate::block::{BlockId, Terminator};
use crate::function::{FuncId, Function};
use crate::inst::{BinOp, Callee, InstKind, UnOp};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A runtime value: integer/pointer or float. Pointers are cell indices
/// into the interpreter's flat memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer, boolean or pointer payload.
    I(i64),
    /// Floating-point payload (F32 values are round-tripped through `f32`).
    F(f64),
}

impl RtVal {
    /// Integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float (a type-confusion bug in the caller).
    pub fn as_i(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            RtVal::F(v) => panic!("expected int, found float {v}"),
        }
    }

    /// Float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_f(self) -> f64 {
        match self {
            RtVal::F(v) => v,
            RtVal::I(v) => panic!("expected float, found int {v}"),
        }
    }

    /// Raw 64-bit memory representation.
    pub fn to_bits(self) -> i64 {
        match self {
            RtVal::I(v) => v,
            RtVal::F(v) => v.to_bits() as i64,
        }
    }

    /// Reinterprets a 64-bit memory cell as a value of type `ty`.
    pub fn from_bits(bits: i64, ty: Type) -> RtVal {
        if ty.is_float() {
            RtVal::F(f64::from_bits(bits as u64))
        } else {
            RtVal::I(bits)
        }
    }
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecError {
    /// The step budget was exhausted (runaway or mis-sized workload).
    OutOfFuel,
    /// Call depth exceeded the configured limit.
    StackOverflow,
    /// An alloca exceeded the memory limit.
    OutOfMemory,
    /// Integer division or remainder by zero.
    DivByZero,
    /// A load/store/memset/memcpy touched memory outside any allocation.
    MemoryOutOfBounds {
        /// The offending cell address.
        addr: i64,
    },
    /// A call referenced a function that does not exist or has no body.
    BadCall {
        /// Name or id of the target.
        target: String,
    },
    /// An `unreachable` terminator was executed.
    UnreachableExecuted,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "execution fuel exhausted"),
            ExecError::StackOverflow => write!(f, "call stack depth limit exceeded"),
            ExecError::OutOfMemory => write!(f, "memory limit exceeded"),
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::MemoryOutOfBounds { addr } => {
                write!(f, "memory access out of bounds at cell {addr}")
            }
            ExecError::BadCall { target } => write!(f, "call to unavailable function `{target}`"),
            ExecError::UnreachableExecuted => write!(f, "unreachable code executed"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Dynamic operation counts gathered during one execution.
///
/// These are architecture-*independent* counts; the platform cost models
/// weight them into cycles, seconds and joules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynCounts {
    /// Simple integer ALU ops (add/sub/logic/shift/cmp/select/gep/cast…).
    pub int_alu: u64,
    /// Integer multiplies.
    pub int_mul: u64,
    /// Integer divides/remainders.
    pub int_div: u64,
    /// Float adds/subtracts/compares.
    pub fp_add: u64,
    /// Float multiplies.
    pub fp_mul: u64,
    /// Float divides/remainders.
    pub fp_div: u64,
    /// Long-latency float ops (sqrt, exp, log, sin, cos).
    pub fp_special: u64,
    /// Memory loads (each vector load counts once).
    pub load: u64,
    /// Memory stores.
    pub store: u64,
    /// Loads/stores not marked aligned.
    pub unaligned_mem: u64,
    /// Vectorized instructions executed.
    pub vector_ops: u64,
    /// Total lanes covered by vectorized instructions.
    pub vector_lanes: u64,
    /// Conditional branches executed.
    pub branch: u64,
    /// Conditional branches taken.
    pub taken: u64,
    /// Unconditional jumps and switches.
    pub jump: u64,
    /// Branches with a correct static hint (`lower-expect`).
    pub hinted_correct: u64,
    /// Branches with an incorrect static hint.
    pub hinted_wrong: u64,
    /// Calls executed.
    pub call: u64,
    /// Returns executed.
    pub ret: u64,
    /// Phi moves resolved.
    pub phi: u64,
    /// Stack allocations executed.
    pub alloca: u64,
    /// Cells written by memset intrinsics.
    pub memset_cells: u64,
    /// Cells copied by memcpy intrinsics.
    pub memcpy_cells: u64,
    /// Memset/memcpy intrinsic invocations.
    pub mem_intrinsic: u64,
}

impl DynCounts {
    /// Total architecturally executed instructions (the paper's
    /// "# executed instructions" metric). Phi moves are excluded: they are
    /// resolved by register allocation, not executed.
    pub fn total_instructions(&self) -> u64 {
        self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_add
            + self.fp_mul
            + self.fp_div
            + self.fp_special
            + self.load
            + self.store
            + self.branch
            + self.jump
            + self.call
            + self.ret
            + self.alloca
            + self.mem_intrinsic
    }

    /// The cost class a binary operation is tallied under.
    #[inline(always)]
    fn bin_class(&mut self, op: BinOp) -> &mut u64 {
        use BinOp::*;
        match op {
            Add | Sub | And | Or | Xor | Shl | AShr | LShr => &mut self.int_alu,
            Mul => &mut self.int_mul,
            SDiv | UDiv | SRem | URem => &mut self.int_div,
            FAdd | FSub => &mut self.fp_add,
            FMul => &mut self.fp_mul,
            FDiv | FRem => &mut self.fp_div,
        }
    }

    /// The cost class a unary operation is tallied under.
    #[inline(always)]
    fn un_class(&mut self, op: UnOp) -> &mut u64 {
        match op {
            UnOp::Neg | UnOp::Not => &mut self.int_alu,
            UnOp::FNeg | UnOp::FAbs => &mut self.fp_add,
            UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos => &mut self.fp_special,
        }
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// Maximum executed IR operations before [`ExecError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: u32,
    /// Maximum memory size in cells.
    pub max_cells: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            fuel: 1 << 31,
            max_depth: 1 << 12,
            max_cells: 1 << 24,
        }
    }
}

/// The result of a successful execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The entry function's return value.
    pub ret: Option<RtVal>,
    /// Dynamic operation counts.
    pub counts: DynCounts,
}

/// Executes functions of one module.
///
/// # Example
///
/// ```
/// use mlcomp_ir::{Interpreter, ModuleBuilder, RtVal, Type};
///
/// let mut mb = ModuleBuilder::new("m");
/// let f = mb.begin_function("sum", vec![Type::I64], Type::I64);
/// {
///     let mut b = mb.body();
///     let acc = b.local(b.const_i64(0));
///     b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
///         let c = b.load(acc, Type::I64);
///         let n = b.add(c, i);
///         b.store(acc, n);
///     });
///     let r = b.load(acc, Type::I64);
///     b.ret(Some(r));
/// }
/// mb.finish_function();
/// let m = mb.build();
/// let out = Interpreter::new(&m).run(f, &[RtVal::I(10)]).unwrap();
/// assert_eq!(out.ret, Some(RtVal::I(45)));
/// assert!(out.counts.load >= 10);
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    config: InterpConfig,
    memory: Vec<i64>,
    global_base: Vec<i64>,
    stack_top: usize,
    counts: DynCounts,
    fuel_left: u64,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with default limits. Globals are laid out and
    /// initialized at the bottom of memory (address 0 is reserved as null).
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter::with_config(module, InterpConfig::default())
    }

    /// Creates an interpreter with explicit limits.
    pub fn with_config(module: &'m Module, config: InterpConfig) -> Interpreter<'m> {
        let mut memory = vec![0i64; 1]; // cell 0 = null, never valid
        let mut global_base = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            global_base.push(memory.len() as i64);
            let base = memory.len();
            memory.resize(base + g.cells as usize, 0);
            for (i, v) in g.init.iter().enumerate() {
                memory[base + i] = *v;
            }
        }
        let stack_top = memory.len();
        Interpreter {
            module,
            config,
            memory,
            global_base,
            stack_top,
            counts: DynCounts::default(),
            fuel_left: config.fuel,
        }
    }

    /// Runs `entry` with `args`, returning the outcome with accumulated
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] when execution traps (division by zero,
    /// out-of-bounds access), exceeds a limit, or calls an unavailable
    /// function.
    pub fn run(mut self, entry: FuncId, args: &[RtVal]) -> Result<Outcome, ExecError> {
        let ret = self.call(entry, args.to_vec(), 0)?;
        Ok(Outcome {
            ret,
            counts: self.counts,
        })
    }

    fn fuel(&mut self, n: u64) -> Result<(), ExecError> {
        if self.fuel_left < n {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel_left -= n;
        Ok(())
    }

    fn mem_read(&mut self, addr: i64) -> Result<i64, ExecError> {
        if addr <= 0 || addr as usize >= self.memory.len() {
            return Err(ExecError::MemoryOutOfBounds { addr });
        }
        Ok(self.memory[addr as usize])
    }

    fn mem_write(&mut self, addr: i64, v: i64) -> Result<(), ExecError> {
        if addr <= 0 || addr as usize >= self.memory.len() {
            return Err(ExecError::MemoryOutOfBounds { addr });
        }
        self.memory[addr as usize] = v;
        Ok(())
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: Vec<RtVal>,
        depth: u32,
    ) -> Result<Option<RtVal>, ExecError> {
        if depth > self.config.max_depth {
            return Err(ExecError::StackOverflow);
        }
        let f = self
            .module
            .functions
            .get(fid.index())
            .ok_or_else(|| ExecError::BadCall {
                target: format!("fn{}", fid.0),
            })?;
        if f.is_declaration || f.blocks.is_empty() {
            return Err(ExecError::BadCall {
                target: f.name.clone(),
            });
        }
        let frame_base = self.stack_top;
        let result = self.exec_body(f, args, depth);
        self.stack_top = frame_base; // pop frame allocas
        result
    }

    fn exec_body(
        &mut self,
        f: &Function,
        args: Vec<RtVal>,
        depth: u32,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut regs: Vec<Option<RtVal>> = vec![None; f.insts.len()];
        let mut block = BlockId::ENTRY;
        let mut prev: Option<BlockId> = None;

        'blocks: loop {
            let blk = f.block(block);

            // Resolve phis atomically with respect to the incoming edge.
            if let Some(p) = prev {
                let mut phi_vals: Vec<(crate::inst::InstId, RtVal)> = Vec::new();
                for &id in &blk.insts {
                    match &f.inst(id).kind {
                        InstKind::Phi { incomings } => {
                            let (_, v) = incomings
                                .iter()
                                .find(|(b, _)| *b == p)
                                .copied()
                                .ok_or(ExecError::UnreachableExecuted)?;
                            let rv = self.eval(f, &regs, &args, v)?;
                            phi_vals.push((id, rv));
                        }
                        _ => break,
                    }
                }
                self.counts.phi += phi_vals.len() as u64;
                self.fuel(phi_vals.len() as u64)?;
                for (id, v) in phi_vals {
                    regs[id.index()] = Some(v);
                }
            }

            for &id in &blk.insts {
                let inst = f.inst(id);
                if inst.kind.is_phi() {
                    continue;
                }
                self.fuel(1)?;
                let result = self.exec_inst(f, &mut regs, &args, inst, depth)?;
                regs[id.index()] = result;
            }

            self.fuel(1)?;
            match &blk.term {
                Terminator::Br(t) => {
                    self.counts.jump += 1;
                    prev = Some(block);
                    block = *t;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                    weight,
                } => {
                    let c = self.eval(f, &regs, &args, *cond)?.as_i() != 0;
                    self.counts.branch += 1;
                    if c {
                        self.counts.taken += 1;
                    }
                    if let Some(w) = weight {
                        if c == (*w >= 50) {
                            self.counts.hinted_correct += 1;
                        } else {
                            self.counts.hinted_wrong += 1;
                        }
                    }
                    prev = Some(block);
                    block = if c { *then_bb } else { *else_bb };
                }
                Terminator::Switch {
                    val,
                    cases,
                    default,
                } => {
                    let v = self.eval(f, &regs, &args, *val)?.as_i();
                    self.counts.jump += 1;
                    // A switch costs comparisons proportional to its size
                    // (jump table lookup modeled as 2 extra ALU ops).
                    self.counts.int_alu += 2;
                    let target = cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                    prev = Some(block);
                    block = target;
                }
                Terminator::Ret(v) => {
                    self.counts.ret += 1;
                    let rv = match v {
                        Some(v) => Some(self.eval(f, &regs, &args, *v)?),
                        None => None,
                    };
                    return Ok(rv);
                }
                Terminator::Unreachable => return Err(ExecError::UnreachableExecuted),
            }
            continue 'blocks;
        }
    }

    fn eval(
        &self,
        _f: &Function,
        regs: &[Option<RtVal>],
        args: &[RtVal],
        v: Value,
    ) -> Result<RtVal, ExecError> {
        Ok(match v {
            Value::Inst(id) => regs[id.index()].ok_or(ExecError::UnreachableExecuted)?,
            Value::Param(i) => args.get(i as usize).copied().unwrap_or(RtVal::I(0)),
            Value::ConstInt(c, _) => RtVal::I(c),
            Value::ConstFloat(bits, _) => RtVal::F(f64::from_bits(bits)),
            Value::Global(g) => RtVal::I(self.global_base[g.index()]),
            Value::FuncAddr(fa) => RtVal::I(!(fa.0 as i64)), // tagged fn pointer
            Value::Undef(t) => {
                if t.is_float() {
                    RtVal::F(0.0)
                } else {
                    RtVal::I(0)
                }
            }
        })
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        f: &Function,
        regs: &mut [Option<RtVal>],
        args: &[RtVal],
        inst: &crate::inst::Inst,
        depth: u32,
    ) -> Result<Option<RtVal>, ExecError> {
        let kind = &inst.kind;
        let out = match kind {
            InstKind::Bin {
                op,
                lhs,
                rhs,
                width,
            } => {
                let a = self.eval(f, regs, args, *lhs)?;
                let b = self.eval(f, regs, args, *rhs)?;
                if *width > 1 {
                    self.counts.vector_ops += 1;
                    self.counts.vector_lanes += *width as u64;
                }
                *self.counts.bin_class(*op) += 1;
                Some(op.eval(a, b, inst.ty).ok_or(ExecError::DivByZero)?)
            }
            InstKind::Un { op, val } => {
                let v = self.eval(f, regs, args, *val)?;
                *self.counts.un_class(*op) += 1;
                Some(op.eval(v, inst.ty))
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let a = self.eval(f, regs, args, *lhs)?;
                let b = self.eval(f, regs, args, *rhs)?;
                if let RtVal::F(_) = a {
                    self.counts.fp_add += 1;
                } else {
                    self.counts.int_alu += 1;
                }
                Some(RtVal::I(pred.eval(a, b) as i64))
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                self.counts.int_alu += 1;
                let c = self.eval(f, regs, args, *cond)?.as_i() != 0;
                let v = if c {
                    self.eval(f, regs, args, *then_val)?
                } else {
                    self.eval(f, regs, args, *else_val)?
                };
                Some(v)
            }
            InstKind::Cast { op, val } => {
                self.counts.int_alu += 1;
                let v = self.eval(f, regs, args, *val)?;
                Some(op.eval(v, f.value_type(*val), inst.ty))
            }
            InstKind::Alloca { cells } => {
                self.counts.alloca += 1;
                let base = self.stack_top;
                let new_top = base + *cells as usize;
                if new_top > self.config.max_cells {
                    return Err(ExecError::OutOfMemory);
                }
                if new_top > self.memory.len() {
                    self.memory.resize(new_top, 0);
                }
                // Fresh allocas are not zeroed by the language, but zeroing
                // keeps repeated profiling runs deterministic.
                for c in &mut self.memory[base..new_top] {
                    *c = 0;
                }
                self.stack_top = new_top;
                Some(RtVal::I(base as i64))
            }
            InstKind::Load {
                ptr,
                aligned,
                width,
            } => {
                let a = self.eval(f, regs, args, *ptr)?.as_i();
                self.counts.load += 1;
                if !aligned {
                    self.counts.unaligned_mem += 1;
                }
                if *width > 1 {
                    self.counts.vector_ops += 1;
                    self.counts.vector_lanes += *width as u64;
                }
                let bits = self.mem_read(a)?;
                Some(RtVal::from_bits(bits, inst.ty))
            }
            InstKind::Store {
                ptr,
                value,
                aligned,
                width,
            } => {
                let a = self.eval(f, regs, args, *ptr)?.as_i();
                let v = self.eval(f, regs, args, *value)?;
                self.counts.store += 1;
                if !aligned {
                    self.counts.unaligned_mem += 1;
                }
                if *width > 1 {
                    self.counts.vector_ops += 1;
                    self.counts.vector_lanes += *width as u64;
                }
                self.mem_write(a, v.to_bits())?;
                None
            }
            InstKind::Gep { base, offset } => {
                self.counts.int_alu += 1;
                let b = self.eval(f, regs, args, *base)?.as_i();
                let o = self.eval(f, regs, args, *offset)?.as_i();
                Some(RtVal::I(b.wrapping_add(o)))
            }
            InstKind::Call {
                callee,
                args: cargs,
            } => {
                self.counts.call += 1;
                let mut vals = Vec::with_capacity(cargs.len());
                for a in cargs {
                    vals.push(self.eval(f, regs, args, *a)?);
                }
                let target = match callee {
                    Callee::Direct(c) => *c,
                    Callee::Indirect(v) => {
                        self.counts.int_alu += 1; // pointer resolution
                        let tagged = self.eval(f, regs, args, *v)?.as_i();
                        let raw = !tagged;
                        if raw < 0 || raw as usize >= self.module.functions.len() {
                            return Err(ExecError::BadCall {
                                target: format!("indirect({tagged})"),
                            });
                        }
                        FuncId(raw as u32)
                    }
                };
                self.call(target, vals, depth + 1)?
            }
            InstKind::Memset { ptr, value, count } => {
                self.counts.mem_intrinsic += 1;
                let p = self.eval(f, regs, args, *ptr)?.as_i();
                let v = self.eval(f, regs, args, *value)?.to_bits();
                let n = self.eval(f, regs, args, *count)?.as_i().max(0);
                self.counts.memset_cells += n as u64;
                self.fuel(n as u64 / 8 + 1)?;
                for i in 0..n {
                    self.mem_write(p + i, v)?;
                }
                None
            }
            InstKind::Memcpy { dst, src, count } => {
                self.counts.mem_intrinsic += 1;
                let d = self.eval(f, regs, args, *dst)?.as_i();
                let s = self.eval(f, regs, args, *src)?.as_i();
                let n = self.eval(f, regs, args, *count)?.as_i().max(0);
                self.counts.memcpy_cells += n as u64;
                self.fuel(n as u64 / 8 + 1)?;
                for i in 0..n {
                    let v = self.mem_read(s + i)?;
                    self.mem_write(d + i, v)?;
                }
                None
            }
            InstKind::Expect { val, .. } => {
                self.counts.int_alu += 1;
                Some(self.eval(f, regs, args, *val)?)
            }
            InstKind::Phi { .. } => unreachable!("phis handled at block entry"),
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::CmpPred;

    fn run_fn(mb: ModuleBuilder, name: &str, args: &[RtVal]) -> Outcome {
        let m = mb.build();
        crate::verify(&m).expect("valid IR");
        let f = m.find_function(name).unwrap();
        Interpreter::new(&m).run(f, args).expect("executes")
    }

    #[test]
    fn arithmetic() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let s = b.add(b.param(0), b.param(1));
            let m = b.mul(s, b.const_i64(10));
            let d = b.sdiv(m, b.const_i64(3));
            b.ret(Some(d));
        }
        mb.finish_function();
        let out = run_fn(mb, "f", &[RtVal::I(2), RtVal::I(4)]);
        assert_eq!(out.ret, Some(RtVal::I(20)));
        assert_eq!(out.counts.int_mul, 1);
        assert_eq!(out.counts.int_div, 1);
    }

    #[test]
    fn float_math() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::F64], Type::F64);
        {
            let mut b = mb.body();
            let sq = b.fmul(b.param(0), b.param(0));
            let r = b.sqrt(sq);
            b.ret(Some(r));
        }
        mb.finish_function();
        let out = run_fn(mb, "f", &[RtVal::F(-3.0)]);
        assert_eq!(out.ret, Some(RtVal::F(3.0)));
        assert_eq!(out.counts.fp_special, 1);
    }

    #[test]
    fn loop_sum_and_counts() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("sum", vec![Type::I64], Type::I64);
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
        let out = run_fn(mb, "sum", &[RtVal::I(100)]);
        assert_eq!(out.ret, Some(RtVal::I(4950)));
        assert!(out.counts.branch >= 100);
        assert!(out.counts.load >= 100);
        assert!(out.counts.total_instructions() > 400);
    }

    #[test]
    fn memory_and_globals() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.add_const_global("tab", vec![10, 20, 30]);
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let base = b.global_addr(g);
            let p = b.gep(base, b.param(0));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let out = run_fn(mb, "f", &[RtVal::I(2)]);
        assert_eq!(out.ret, Some(RtVal::I(30)));
    }

    #[test]
    fn calls_and_recursion() {
        let mut mb = ModuleBuilder::new("t");
        let fib = mb.declare("fib", vec![Type::I64], Type::I64);
        mb.begin_existing(fib);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Lt, b.param(0), b.const_i64(2));
            let v = b.if_else(
                c,
                Type::I64,
                |b| b.param(0),
                |b| {
                    let n1 = b.sub(b.param(0), b.const_i64(1));
                    let n2 = b.sub(b.param(0), b.const_i64(2));
                    let a = b.call(fib, vec![n1], Type::I64);
                    let c2 = b.call(fib, vec![n2], Type::I64);
                    b.add(a, c2)
                },
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let out = run_fn(mb, "fib", &[RtVal::I(12)]);
        assert_eq!(out.ret, Some(RtVal::I(144)));
        assert!(out.counts.call > 100);
        assert_eq!(out.counts.ret, out.counts.call + 1);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let d = b.sdiv(b.const_i64(1), b.param(0));
            b.ret(Some(d));
        }
        mb.finish_function();
        let m = mb.build();
        let f = m.find_function("f").unwrap();
        let e = Interpreter::new(&m).run(f, &[RtVal::I(0)]).unwrap_err();
        assert_eq!(e, ExecError::DivByZero);
    }

    #[test]
    fn oob_traps() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let p = b.alloca(1);
            let bad = b.gep(p, b.const_i64(1 << 40));
            let v = b.load(bad, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        let f = m.find_function("f").unwrap();
        let e = Interpreter::new(&m).run(f, &[]).unwrap_err();
        assert!(matches!(e, ExecError::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn fuel_exhaustion() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("inf", vec![], Type::Void);
        {
            let mut b = mb.body();
            let l = b.new_block();
            b.br(l);
            b.switch_to(l);
            b.br(l);
        }
        mb.finish_function();
        let m = mb.build();
        let f = m.find_function("inf").unwrap();
        let cfg = InterpConfig {
            fuel: 1000,
            ..InterpConfig::default()
        };
        let e = Interpreter::with_config(&m, cfg).run(f, &[]).unwrap_err();
        assert_eq!(e, ExecError::OutOfFuel);
    }

    #[test]
    fn memset_memcpy() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![], Type::I64);
        {
            let mut b = mb.body();
            let src = b.alloca(4);
            let dst = b.alloca(4);
            b.memset(src, Value::i64(7), Value::i64(4));
            b.memcpy(dst, src, Value::i64(4));
            let p3 = b.gep(dst, b.const_i64(3));
            let v = b.load(p3, Type::I64);
            b.ret(Some(v));
        }
        mb.finish_function();
        let out = run_fn(mb, "f", &[]);
        assert_eq!(out.ret, Some(RtVal::I(7)));
        assert_eq!(out.counts.memset_cells, 4);
        assert_eq!(out.counts.memcpy_cells, 4);
    }

    #[test]
    fn i32_wrapping() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I32], Type::I32);
        {
            let mut b = mb.body();
            let r = b.add(b.param(0), b.const_i32(1));
            b.ret(Some(r));
        }
        mb.finish_function();
        let out = run_fn(mb, "f", &[RtVal::I(i32::MAX as i64)]);
        assert_eq!(out.ret, Some(RtVal::I(i32::MIN as i64)));
    }

    #[test]
    fn hinted_branch_counting() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let t = b.new_block();
            let e = b.new_block();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.cond_br(c, t, e);
            let fun = b.func();
            if let Terminator::CondBr { weight, .. } = &mut fun.block_mut(BlockId::ENTRY).term {
                *weight = Some(90);
            }
            b.switch_to(t);
            b.ret(Some(b.const_i64(1)));
            b.switch_to(e);
            b.ret(Some(b.const_i64(0)));
        }
        mb.finish_function();
        let m = mb.build();
        let f = m.find_function("f").unwrap();
        let out = Interpreter::new(&m).run(f, &[RtVal::I(5)]).unwrap();
        assert_eq!(out.counts.hinted_correct, 1);
        let out = Interpreter::new(&m).run(f, &[RtVal::I(-5)]).unwrap();
        assert_eq!(out.counts.hinted_wrong, 1);
    }
}
