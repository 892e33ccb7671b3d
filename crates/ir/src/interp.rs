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
//!
//! Each function is lowered once per [`Interpreter`], on its first call,
//! into slot-addressed code. An operand is an index into the function's
//! frame, which holds the parameters the code reads, one pool of its
//! constants and the results of its placed instructions; frames live on
//! one register stack that calls reuse. Each CFG edge carries its target's
//! phis as a parallel move. Counts that do not depend on runtime values are
//! tallied once per block when it is lowered and charged per edge taken
//! when the run ends; fuel is charged per operation, so every trap,
//! [`ExecError::OutOfFuel`] included, fires where a step-by-step reading of
//! the IR puts it.

use crate::block::{BlockId, Terminator};
use crate::function::{FuncId, Function};
use crate::hash::FastMap;
use crate::inst::{BinOp, Callee, CastOp, CmpPred, InstId, InstKind, UnOp};
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

    /// Number of count fields.
    const FIELDS: usize = 24;

    /// Every count, in declaration order, for access by field index.
    fn fields_mut(&mut self) -> [&mut u64; DynCounts::FIELDS] {
        let DynCounts {
            int_alu,
            int_mul,
            int_div,
            fp_add,
            fp_mul,
            fp_div,
            fp_special,
            load,
            store,
            unaligned_mem,
            vector_ops,
            vector_lanes,
            branch,
            taken,
            jump,
            hinted_correct,
            hinted_wrong,
            call,
            ret,
            phi,
            alloca,
            memset_cells,
            memcpy_cells,
            mem_intrinsic,
        } = self;
        [
            int_alu,
            int_mul,
            int_div,
            fp_add,
            fp_mul,
            fp_div,
            fp_special,
            load,
            store,
            unaligned_mem,
            vector_ops,
            vector_lanes,
            branch,
            taken,
            jump,
            hinted_correct,
            hinted_wrong,
            call,
            ret,
            phi,
            alloca,
            memset_cells,
            memcpy_cells,
            mem_intrinsic,
        ]
    }

    /// Tallies an op covering `width` vector lanes (1 = scalar).
    fn vector(&mut self, width: u8) {
        if width > 1 {
            self.vector_ops += 1;
            self.vector_lanes += u64::from(width);
        }
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
    max_depth: u32,
    global_base: Vec<i64>,
    /// Each function's lowered code, by [`FuncId`], once it has been called.
    lowered: Vec<Option<Box<Lowered>>>,
    /// The register stack: every live frame's slots.
    regs: Vec<Option<RtVal>>,
    machine: Machine,
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
        let mut lowered = Vec::new();
        lowered.resize_with(module.functions.len(), || None);
        Interpreter {
            module,
            max_depth: config.max_depth,
            global_base,
            lowered,
            regs: Vec::new(),
            machine: Machine {
                memory,
                stack_top,
                max_cells: config.max_cells,
                functions: module.functions.len(),
                args: Vec::new(),
                scratch: Vec::new(),
                hits: Vec::new(),
                counts: DynCounts::default(),
                fuel: config.fuel,
            },
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
        self.machine.args.extend_from_slice(args);
        let ret = self.execute(entry)?;
        let mut counts = self.machine.counts;
        let mut phi = 0;
        let mut fields = counts.fields_mut();
        for f in self.lowered.iter().flatten() {
            f.charge(&self.machine.hits, &mut fields, &mut phi);
        }
        counts.phi += phi;
        Ok(Outcome { ret, counts })
    }

    /// Runs `entry` on the arguments in `machine.args`, calls and returns
    /// switching frames on one explicit stack.
    fn execute(&mut self, entry: FuncId) -> Result<Option<RtVal>, ExecError> {
        let mut callers: Vec<Frame> = Vec::new();
        let mut frame = self.enter(entry, 0)?;
        loop {
            let f = self.lowered[frame.func.index()]
                .as_deref()
                .expect("an entered function is lowered");
            let regs = &mut self.regs[frame.base..];
            match self.machine.run_frame(f, regs, &mut frame)? {
                Exit::Call(callee) => {
                    callers.push(frame);
                    frame = self.enter(callee, callers.len() as u32)?;
                }
                Exit::Ret(ret) => {
                    // Pop the frame's registers and allocas.
                    self.regs.truncate(frame.base);
                    self.machine.stack_top = frame.stack_top;
                    let Some(caller) = callers.pop() else {
                        return Ok(ret);
                    };
                    frame = caller;
                    self.regs[frame.base + frame.dst as usize] = ret;
                }
            }
        }
    }

    /// Pushes a frame for `fid` at call depth `depth`, its parameters taken
    /// from `machine.args`, lowering the function on its first call.
    fn enter(&mut self, fid: FuncId, depth: u32) -> Result<Frame, ExecError> {
        if depth > self.max_depth {
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
        let m = &mut self.machine;
        let lowered = self.lowered[fid.index()].get_or_insert_with(|| {
            let hits = m.hits.len();
            let l = Lowering::run(f, &self.global_base, hits);
            m.hits.resize(hits + l.edges.len(), 0);
            Box::new(l)
        });
        let base = self.regs.len();
        self.regs.extend_from_slice(&lowered.frame);
        for &(i, slot) in &lowered.params {
            // A missing argument reads as integer zero.
            self.regs[base + slot as usize] =
                Some(m.args.get(i as usize).copied().unwrap_or(RtVal::I(0)));
        }
        m.args.clear();
        m.hits[lowered.hits] += 1;
        Ok(Frame {
            func: fid,
            pc: 0,
            base,
            stack_top: m.stack_top,
            dst: 0,
        })
    }
}

/// Index of a frame slot: a parameter the code reads, a pooled constant or
/// an instruction result.
type Slot = u32;

/// Marks an unassigned slot or lowered block, and an edge target outside
/// the block arena.
const NONE: u32 = u32::MAX;

/// One lowered instruction or terminator, its operands resolved to slots.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The integer ops on `I64` and `Ptr` the profiled programs run most,
    /// each with its own variant so that `eval` is inlined for one
    /// operator and one type. DESIGN.md ("The lowered interpreter") has
    /// the measured op shares and the ablation that kept these, `Jump`,
    /// `Move` and `CmpBr`.
    Add {
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Sub {
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Mul {
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    And {
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    /// Any other integer op on `I64` and `Ptr`: `eval` inlined for the
    /// type.
    Wide {
        op: BinOp,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Bin {
        op: BinOp,
        ty: Type,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Un {
        op: UnOp,
        ty: Type,
        dst: Slot,
        val: Slot,
    },
    Cmp {
        pred: CmpPred,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
    },
    Select {
        dst: Slot,
        cond: Slot,
        then_val: Slot,
        else_val: Slot,
    },
    Cast {
        op: CastOp,
        from: Type,
        to: Type,
        dst: Slot,
        val: Slot,
    },
    Alloca {
        dst: Slot,
        cells: u32,
    },
    Load {
        ty: Type,
        dst: Slot,
        ptr: Slot,
    },
    Store {
        ptr: Slot,
        value: Slot,
    },
    Gep {
        dst: Slot,
        base: Slot,
        offset: Slot,
    },
    /// An `expect`: the result is its operand.
    Copy {
        dst: Slot,
        val: Slot,
    },
    /// A direct call; its arguments are `operands[args..args + nargs]`.
    Call {
        dst: Slot,
        callee: FuncId,
        args: u32,
        nargs: u32,
    },
    /// A call through the function pointer in `ptr`.
    CallIndirect {
        dst: Slot,
        ptr: Slot,
        args: u32,
        nargs: u32,
    },
    Memset {
        ptr: Slot,
        value: Slot,
        count: Slot,
    },
    Memcpy {
        dst: Slot,
        src: Slot,
        count: Slot,
    },
    /// A `br` whose edge moves several phis, or lacks an incoming for one.
    Br {
        edge: u32,
    },
    /// A `br` whose edge moves no phis: count the edge, go to `pc`.
    Jump {
        edge: u32,
        pc: u32,
    },
    /// A `br` whose edge moves one phi, `src` into `dst`.
    Move {
        dst: Slot,
        src: Slot,
        edge: u32,
        pc: u32,
    },
    /// A compare into `dst` and the `condbr` on it, whose edges are
    /// `branches[branch]`.
    CmpBr {
        pred: CmpPred,
        hint: Option<bool>,
        dst: Slot,
        lhs: Slot,
        rhs: Slot,
        branch: u32,
    },
    /// `hint` is the direction a branch weight predicts, if any.
    CondBr {
        cond: Slot,
        then_edge: u32,
        else_edge: u32,
        hint: Option<bool>,
    },
    /// Its `(value, edge)` cases are `cases[cases..cases + ncases]`.
    Switch {
        val: Slot,
        cases: u32,
        ncases: u32,
        default: u32,
    },
    Ret {
        val: Slot,
    },
    RetVoid,
    Unreachable,
}

/// How an edge resolves its target's phis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Moves {
    /// No move reads a slot an earlier move of the edge writes, so the
    /// moves run one after another.
    Sequential,
    /// Some move reads a phi the edge assigns: read every source first.
    Parallel,
    /// A phi has no incoming for this edge; taking it traps.
    MissingIncoming,
}

/// A CFG edge (or, as `edges[0]`, the entry of a call).
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// First op of the target block ([`NONE`] for a target outside the
    /// block arena, whose fetch panics as indexing the arena did).
    pc: u32,
    /// The target's lowered index, indexing `block_deltas`.
    block: u32,
    /// Phi moves `(dst, src)`: `moves[moves..moves + nmoves]`.
    moves: u32,
    nmoves: u32,
    kind: Moves,
}

/// A function lowered to slot-addressed code.
#[derive(Debug)]
struct Lowered {
    /// A fresh frame: each constant in its slot, `None` elsewhere.
    frame: Vec<Option<RtVal>>,
    /// `(parameter index, slot)` of each parameter the code reads.
    params: Vec<(u32, Slot)>,
    /// Ops of the reachable blocks, the entry block first.
    code: Vec<Op>,
    /// `edges[0]` enters the entry block at a call.
    edges: Vec<Edge>,
    moves: Vec<(Slot, Slot)>,
    /// Call arguments.
    operands: Vec<Slot>,
    /// Switch cases as `(value, edge)`.
    cases: Vec<(i64, u32)>,
    /// `(then, else)` edges of each `CmpBr`.
    branches: Vec<(u32, u32)>,
    /// The counts of each lowered block that do not depend on runtime
    /// values, terminator included, as `(field index, count)` pairs: block
    /// `b`'s are `deltas[block_deltas[b]..block_deltas[b + 1]]`. Unrolled
    /// code has many blocks that run once, and one whole [`DynCounts`] per
    /// block read 15% slower on `x264` after `loop-unroll`.
    deltas: Vec<(u8, u32)>,
    block_deltas: Vec<u32>,
    /// Where `edges[0]`'s counter starts in [`Machine::hits`].
    hits: usize,
}

impl Lowered {
    /// Adds to `counts` (a [`DynCounts::fields_mut`]) the static counts of
    /// every block entered, times the entries through each edge, and to
    /// `phi` the edges' phi moves.
    fn charge(&self, hits: &[u64], counts: &mut [&mut u64; DynCounts::FIELDS], phi: &mut u64) {
        for (edge, &n) in self.edges.iter().zip(&hits[self.hits..]) {
            if n > 0 {
                let b = edge.block as usize;
                let deltas = self.block_deltas[b] as usize..self.block_deltas[b + 1] as usize;
                for &(field, k) in &self.deltas[deltas] {
                    *counts[usize::from(field)] += n * u64::from(k);
                }
                *phi += n * u64::from(edge.nmoves);
            }
        }
    }
}

/// The state of lowering one function.
struct Lowering<'a> {
    f: &'a Function,
    global_base: &'a [i64],
    out: Lowered,
    /// Slot of each arena instruction, [`NONE`] until first seen.
    inst_slots: Vec<Slot>,
    /// Constant slots by `(bits, is_float)`.
    pool: FastMap<(u64, bool), Slot>,
    /// A slot no op writes, for operands that can never be read.
    undefined: Slot,
    /// Lowered index of each arena block, [`NONE`] until reached.
    block_index: Vec<u32>,
    /// Arena ids of the reached blocks, by lowered index: the order they
    /// were reached in, which is also the order of their code.
    order: Vec<BlockId>,
}

impl<'a> Lowering<'a> {
    /// Lowers the blocks of `f` reachable from its entry. `hits` is where
    /// its edge counters will start.
    fn run(f: &'a Function, global_base: &'a [i64], hits: usize) -> Lowered {
        let mut lw = Lowering {
            f,
            global_base,
            out: Lowered {
                frame: Vec::new(),
                params: Vec::new(),
                code: Vec::new(),
                edges: Vec::new(),
                moves: Vec::new(),
                operands: Vec::new(),
                cases: Vec::new(),
                branches: Vec::new(),
                deltas: Vec::new(),
                block_deltas: vec![0],
                hits,
            },
            inst_slots: vec![NONE; f.insts.len()],
            pool: FastMap::default(),
            undefined: NONE,
            block_index: vec![NONE; f.blocks.len()],
            order: Vec::new(),
        };
        let entry = lw.block(BlockId::ENTRY);
        lw.out.edges.push(Edge {
            pc: 0,
            block: entry,
            moves: 0,
            nmoves: 0,
            kind: Moves::Sequential,
        });
        let mut block_pc = Vec::new();
        let mut next = 0;
        while let Some(&b) = lw.order.get(next) {
            block_pc.push(lw.out.code.len() as u32);
            lw.lower_block(b);
            next += 1;
        }
        for e in &mut lw.out.edges {
            if e.block != NONE {
                e.pc = block_pc[e.block as usize];
            }
        }
        for op in &mut lw.out.code {
            if let Op::Jump { edge, pc } | Op::Move { edge, pc, .. } = op {
                *pc = lw.out.edges[*edge as usize].pc;
            }
        }
        lw.out
    }

    /// The lowered index of block `b`, queueing it on first sight.
    fn block(&mut self, b: BlockId) -> u32 {
        let i = &mut self.block_index[b.index()];
        if *i == NONE {
            *i = self.order.len() as u32;
            self.order.push(b);
        }
        *i
    }

    fn new_slot(&mut self, init: Option<RtVal>) -> Slot {
        self.out.frame.push(init);
        (self.out.frame.len() - 1) as Slot
    }

    fn inst_slot(&mut self, id: InstId) -> Slot {
        match self.inst_slots.get(id.index()) {
            Some(&s) if s != NONE => s,
            Some(_) => {
                let s = self.new_slot(None);
                self.inst_slots[id.index()] = s;
                s
            }
            None => self.undefined(),
        }
    }

    fn undefined(&mut self) -> Slot {
        if self.undefined == NONE {
            self.undefined = self.new_slot(None);
        }
        self.undefined
    }

    fn constant(&mut self, v: RtVal) -> Slot {
        let key = (v.to_bits() as u64, matches!(v, RtVal::F(_)));
        if let Some(&s) = self.pool.get(&key) {
            return s;
        }
        let s = self.new_slot(Some(v));
        self.pool.insert(key, s);
        s
    }

    /// The slot `v` reads. An instruction result is read from its own
    /// slot, which holds `None` (and traps) until the instruction has run
    /// in this frame; so does a value outside the arenas.
    fn operand(&mut self, v: Value) -> Slot {
        match v {
            Value::Inst(id) => self.inst_slot(id),
            Value::Param(i) => match self.out.params.iter().find(|&&(p, _)| p == i) {
                Some(&(_, s)) => s,
                None => {
                    let s = self.new_slot(None);
                    self.out.params.push((i, s));
                    s
                }
            },
            Value::ConstInt(c, _) => self.constant(RtVal::I(c)),
            Value::ConstFloat(bits, _) => self.constant(RtVal::F(f64::from_bits(bits))),
            Value::Global(g) => match self.global_base.get(g.index()) {
                Some(&base) => self.constant(RtVal::I(base)),
                None => self.undefined(),
            },
            Value::FuncAddr(fa) => self.constant(RtVal::I(!(fa.0 as i64))), // tagged fn pointer
            Value::Undef(t) => self.constant(if t.is_float() {
                RtVal::F(0.0)
            } else {
                RtVal::I(0)
            }),
        }
    }

    /// Lowers the edge `pred → target` with the moves of `target`'s phis.
    fn edge(&mut self, pred: BlockId, target: BlockId) -> u32 {
        let f = self.f;
        let moves = self.out.moves.len();
        let mut kind = Moves::Sequential;
        let block = match f.blocks.get(target.index()) {
            None => NONE,
            Some(blk) => {
                for &id in &blk.insts {
                    let InstKind::Phi { incomings } = &f.inst(id).kind else {
                        break;
                    };
                    // The first incoming from `pred` counts.
                    let Some(&(_, v)) = incomings.iter().find(|(b, _)| *b == pred) else {
                        kind = Moves::MissingIncoming;
                        break;
                    };
                    let src = self.operand(v);
                    let dst = self.inst_slot(id);
                    // Past a few dozen phis, assume a conflict rather than
                    // search for one, keeping lowering linear.
                    let earlier = &self.out.moves[moves..];
                    if earlier.len() >= 32 || earlier.iter().any(|&(d, _)| d == src) {
                        kind = Moves::Parallel;
                    }
                    self.out.moves.push((dst, src));
                }
                self.block(target)
            }
        };
        self.out.edges.push(Edge {
            pc: NONE,
            block,
            moves: moves as u32,
            nmoves: (self.out.moves.len() - moves) as u32,
            kind,
        });
        (self.out.edges.len() - 1) as u32
    }

    /// Lowers block `b`'s instructions after its phis, and its terminator.
    fn lower_block(&mut self, b: BlockId) {
        let f = self.f;
        let blk = f.block(b);
        let first = self.out.code.len();
        let mut counts = DynCounts::default();
        for &id in &blk.insts {
            let inst = f.inst(id);
            let op = match &inst.kind {
                // Phis run as the moves of the edges into the block; one
                // after a non-phi never runs.
                InstKind::Phi { .. } => continue,
                InstKind::Bin {
                    op,
                    lhs,
                    rhs,
                    width,
                } => {
                    counts.vector(*width);
                    *counts.bin_class(*op) += 1;
                    let (lhs, rhs) = (self.operand(*lhs), self.operand(*rhs));
                    let dst = self.inst_slot(id);
                    match (op, inst.ty) {
                        (BinOp::Add, Type::I64 | Type::Ptr) => Op::Add { dst, lhs, rhs },
                        (BinOp::Sub, Type::I64 | Type::Ptr) => Op::Sub { dst, lhs, rhs },
                        (BinOp::Mul, Type::I64 | Type::Ptr) => Op::Mul { dst, lhs, rhs },
                        (BinOp::And, Type::I64 | Type::Ptr) => Op::And { dst, lhs, rhs },
                        (op, Type::I64 | Type::Ptr) if !op.is_float() => Op::Wide {
                            op: *op,
                            dst,
                            lhs,
                            rhs,
                        },
                        _ => Op::Bin {
                            op: *op,
                            ty: inst.ty,
                            dst,
                            lhs,
                            rhs,
                        },
                    }
                }
                InstKind::Un { op, val } => {
                    *counts.un_class(*op) += 1;
                    Op::Un {
                        op: *op,
                        ty: inst.ty,
                        val: self.operand(*val),
                        dst: self.inst_slot(id),
                    }
                }
                // Its class follows the left operand's runtime kind.
                InstKind::Cmp { pred, lhs, rhs } => Op::Cmp {
                    pred: *pred,
                    lhs: self.operand(*lhs),
                    rhs: self.operand(*rhs),
                    dst: self.inst_slot(id),
                },
                InstKind::Select {
                    cond,
                    then_val,
                    else_val,
                } => {
                    counts.int_alu += 1;
                    Op::Select {
                        cond: self.operand(*cond),
                        then_val: self.operand(*then_val),
                        else_val: self.operand(*else_val),
                        dst: self.inst_slot(id),
                    }
                }
                InstKind::Cast { op, val } => {
                    counts.int_alu += 1;
                    // A parameter beyond the signature reads as a missing
                    // argument, an integer.
                    let from = match *val {
                        Value::Param(i) if i as usize >= f.params.len() => Type::I64,
                        v => f.value_type(v),
                    };
                    Op::Cast {
                        op: *op,
                        from,
                        to: inst.ty,
                        val: self.operand(*val),
                        dst: self.inst_slot(id),
                    }
                }
                InstKind::Alloca { cells } => {
                    counts.alloca += 1;
                    Op::Alloca {
                        cells: *cells,
                        dst: self.inst_slot(id),
                    }
                }
                InstKind::Load {
                    ptr,
                    aligned,
                    width,
                } => {
                    counts.load += 1;
                    counts.unaligned_mem += u64::from(!aligned);
                    counts.vector(*width);
                    Op::Load {
                        ty: inst.ty,
                        ptr: self.operand(*ptr),
                        dst: self.inst_slot(id),
                    }
                }
                InstKind::Store {
                    ptr,
                    value,
                    aligned,
                    width,
                } => {
                    counts.store += 1;
                    counts.unaligned_mem += u64::from(!aligned);
                    counts.vector(*width);
                    Op::Store {
                        ptr: self.operand(*ptr),
                        value: self.operand(*value),
                    }
                }
                InstKind::Gep { base, offset } => {
                    counts.int_alu += 1;
                    Op::Gep {
                        base: self.operand(*base),
                        offset: self.operand(*offset),
                        dst: self.inst_slot(id),
                    }
                }
                InstKind::Call { callee, args } => {
                    counts.call += 1;
                    let start = self.out.operands.len() as u32;
                    for &a in args {
                        let s = self.operand(a);
                        self.out.operands.push(s);
                    }
                    let (args, nargs, dst) = (start, args.len() as u32, self.inst_slot(id));
                    match *callee {
                        Callee::Direct(callee) => Op::Call {
                            dst,
                            callee,
                            args,
                            nargs,
                        },
                        Callee::Indirect(ptr) => {
                            counts.int_alu += 1; // pointer resolution
                            Op::CallIndirect {
                                dst,
                                ptr: self.operand(ptr),
                                args,
                                nargs,
                            }
                        }
                    }
                }
                InstKind::Memset { ptr, value, count } => {
                    counts.mem_intrinsic += 1;
                    Op::Memset {
                        ptr: self.operand(*ptr),
                        value: self.operand(*value),
                        count: self.operand(*count),
                    }
                }
                InstKind::Memcpy { dst, src, count } => {
                    counts.mem_intrinsic += 1;
                    Op::Memcpy {
                        dst: self.operand(*dst),
                        src: self.operand(*src),
                        count: self.operand(*count),
                    }
                }
                InstKind::Expect { val, .. } => {
                    counts.int_alu += 1;
                    Op::Copy {
                        val: self.operand(*val),
                        dst: self.inst_slot(id),
                    }
                }
            };
            self.out.code.push(op);
        }
        let op = match &blk.term {
            Terminator::Br(t) => {
                counts.jump += 1;
                let edge = self.edge(b, *t);
                let e = &self.out.edges[edge as usize];
                // Their `pc` is set once every block is placed.
                match (e.kind, e.nmoves) {
                    _ if e.block == NONE => Op::Br { edge },
                    (Moves::Sequential, 0) => Op::Jump { edge, pc: NONE },
                    (Moves::Sequential, 1) => {
                        let (dst, src) = self.out.moves[e.moves as usize];
                        Op::Move {
                            dst,
                            src,
                            edge,
                            pc: NONE,
                        }
                    }
                    _ => Op::Br { edge },
                }
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                weight,
            } => {
                counts.branch += 1;
                let cond = self.operand(*cond);
                let (then_edge, else_edge) = (self.edge(b, *then_bb), self.edge(b, *else_bb));
                let hint = weight.map(|w| w >= 50);
                match self.out.code.last() {
                    // A compare right before the branch on it runs as one op.
                    Some(&Op::Cmp {
                        pred,
                        dst,
                        lhs,
                        rhs,
                    }) if dst == cond && self.out.code.len() > first => {
                        self.out.code.pop();
                        self.out.branches.push((then_edge, else_edge));
                        Op::CmpBr {
                            pred,
                            hint,
                            dst,
                            lhs,
                            rhs,
                            branch: (self.out.branches.len() - 1) as u32,
                        }
                    }
                    _ => Op::CondBr {
                        cond,
                        then_edge,
                        else_edge,
                        hint,
                    },
                }
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                // A switch costs comparisons proportional to its size
                // (jump table lookup modeled as 2 extra ALU ops).
                counts.jump += 1;
                counts.int_alu += 2;
                let val = self.operand(*val);
                let start = self.out.cases.len() as u32;
                for &(c, t) in cases {
                    let e = self.edge(b, t);
                    self.out.cases.push((c, e));
                }
                Op::Switch {
                    val,
                    cases: start,
                    ncases: cases.len() as u32,
                    default: self.edge(b, *default),
                }
            }
            Terminator::Ret(v) => {
                counts.ret += 1;
                match v {
                    Some(v) => Op::Ret {
                        val: self.operand(*v),
                    },
                    None => Op::RetVoid,
                }
            }
            Terminator::Unreachable => Op::Unreachable,
        };
        self.out.code.push(op);
        for (field, n) in counts.fields_mut().into_iter().enumerate() {
            if *n != 0 {
                // A block's own count of one kind fits in 32 bits.
                self.out.deltas.push((field as u8, *n as u32));
            }
        }
        self.out.block_deltas.push(self.out.deltas.len() as u32);
    }
}

/// A function activation: its slots are `Interpreter::regs[base..]`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    /// The next op to run.
    pc: u32,
    base: usize,
    /// The stack top at entry, restored at return to pop the allocas.
    stack_top: usize,
    /// The slot that receives the result of the call in flight.
    dst: Slot,
}

/// Why [`Machine::run_frame`] left its frame.
enum Exit {
    /// Call this function on the arguments in `Machine::args`.
    Call(FuncId),
    Ret(Option<RtVal>),
}

/// The mutable state of a run.
#[derive(Debug)]
struct Machine {
    memory: Vec<i64>,
    stack_top: usize,
    max_cells: usize,
    /// Number of functions in the module, the bound of a function pointer.
    functions: usize,
    /// The arguments of the call being entered.
    args: Vec<RtVal>,
    /// Sources of a parallel phi move.
    scratch: Vec<RtVal>,
    /// Times each lowered edge was taken, by `Lowered::hits + edge`.
    hits: Vec<u64>,
    /// The counts that depend on runtime values.
    counts: DynCounts,
    fuel: u64,
}

/// The value in slot `s`; a slot not yet written traps.
#[inline(always)]
fn read(regs: &[Option<RtVal>], s: Slot) -> Result<RtVal, ExecError> {
    regs[s as usize].ok_or(ExecError::UnreachableExecuted)
}

/// Runs `op` on `I64` operands: [`BinOp::eval`] inlined for one
/// operator, and the fit to `I64` (which leaves an integer as it is, as
/// it does for `Ptr`) folded away.
#[inline(always)]
fn wide(
    op: BinOp,
    regs: &mut [Option<RtVal>],
    dst: Slot,
    lhs: Slot,
    rhs: Slot,
) -> Result<(), ExecError> {
    let r = match (regs[lhs as usize], regs[rhs as usize]) {
        (Some(RtVal::I(a)), Some(RtVal::I(b))) => op.eval(RtVal::I(a), RtVal::I(b), Type::I64),
        (a, b) => op.eval(
            a.ok_or(ExecError::UnreachableExecuted)?,
            b.ok_or(ExecError::UnreachableExecuted)?,
            Type::I64,
        ),
    };
    regs[dst as usize] = Some(r.ok_or(ExecError::DivByZero)?);
    Ok(())
}

/// The integer in slot `s`: [`read`] then [`RtVal::as_i`], with one test
/// on the fast path.
#[inline(always)]
fn read_i(regs: &[Option<RtVal>], s: Slot) -> Result<i64, ExecError> {
    match regs[s as usize] {
        Some(RtVal::I(v)) => Ok(v),
        v => Ok(v.ok_or(ExecError::UnreachableExecuted)?.as_i()),
    }
}

#[inline(always)]
fn mem_read(memory: &[i64], addr: i64) -> Result<i64, ExecError> {
    if addr <= 0 || addr as usize >= memory.len() {
        return Err(ExecError::MemoryOutOfBounds { addr });
    }
    Ok(memory[addr as usize])
}

#[inline(always)]
fn mem_write(memory: &mut [i64], addr: i64, v: i64) -> Result<(), ExecError> {
    if addr <= 0 || addr as usize >= memory.len() {
        return Err(ExecError::MemoryOutOfBounds { addr });
    }
    memory[addr as usize] = v;
    Ok(())
}

/// Charges `n` fuel.
#[inline(always)]
fn burn(fuel: &mut u64, n: u64) -> Result<(), ExecError> {
    if *fuel < n {
        return Err(ExecError::OutOfFuel);
    }
    *fuel -= n;
    Ok(())
}

/// Resolves the phis of `edge` atomically with respect to the edge.
#[cold]
#[inline(never)]
fn move_phis(
    f: &Lowered,
    edge: &Edge,
    regs: &mut [Option<RtVal>],
    scratch: &mut Vec<RtVal>,
) -> Result<(), ExecError> {
    let moves = &f.moves[edge.moves as usize..(edge.moves + edge.nmoves) as usize];
    match edge.kind {
        Moves::Sequential => {
            for &(dst, src) in moves {
                regs[dst as usize] = Some(read(regs, src)?);
            }
        }
        Moves::Parallel => {
            scratch.clear();
            for &(_, src) in moves {
                scratch.push(read(regs, src)?);
            }
            for (&(dst, _), &v) in moves.iter().zip(scratch.iter()) {
                regs[dst as usize] = Some(v);
            }
        }
        Moves::MissingIncoming => return Err(ExecError::UnreachableExecuted),
    }
    Ok(())
}

impl Machine {
    /// Takes edge `e` of `f`: runs its phi moves, charges one fuel per phi
    /// and counts the edge. Returns the target's first op.
    #[inline(always)]
    fn take(
        &mut self,
        f: &Lowered,
        e: u32,
        regs: &mut [Option<RtVal>],
        fuel: &mut u64,
    ) -> Result<usize, ExecError> {
        let edge = f.edges[e as usize];
        if edge.nmoves > 0 || edge.kind != Moves::Sequential {
            move_phis(f, &edge, regs, &mut self.scratch)?;
            burn(fuel, u64::from(edge.nmoves))?;
        }
        self.hits[f.hits + e as usize] += 1;
        Ok(edge.pc as usize)
    }

    /// Counts a conditional branch's direction against its hint.
    #[inline(always)]
    fn branch(&mut self, taken: bool, hint: Option<bool>) {
        self.counts.taken += u64::from(taken);
        match hint {
            Some(h) if h == taken => self.counts.hinted_correct += 1,
            Some(_) => self.counts.hinted_wrong += 1,
            None => {}
        }
    }

    /// Evaluates a compare, counted by its left operand's runtime kind.
    #[inline(always)]
    fn compare(&mut self, pred: CmpPred, a: RtVal, b: RtVal) -> bool {
        if let RtVal::F(_) = a {
            self.counts.fp_add += 1;
        } else {
            self.counts.int_alu += 1;
        }
        pred.eval(a, b)
    }

    /// Pushes an alloca of `cells` cells, returning its base.
    #[inline(never)]
    fn alloca(&mut self, cells: u32) -> Result<i64, ExecError> {
        let base = self.stack_top;
        let new_top = base + cells as usize;
        if new_top > self.max_cells {
            return Err(ExecError::OutOfMemory);
        }
        if new_top > self.memory.len() {
            self.memory.resize(new_top, 0);
        }
        // Fresh allocas are not zeroed by the language, but zeroing keeps
        // repeated profiling runs deterministic.
        self.memory[base..new_top].fill(0);
        self.stack_top = new_top;
        Ok(base as i64)
    }

    #[inline(never)]
    fn memset(
        &mut self,
        regs: &[Option<RtVal>],
        ptr: Slot,
        value: Slot,
        count: Slot,
        fuel: &mut u64,
    ) -> Result<(), ExecError> {
        let p = read_i(regs, ptr)?;
        let v = read(regs, value)?.to_bits();
        let n = read_i(regs, count)?.max(0);
        self.counts.memset_cells += n as u64;
        burn(fuel, n as u64 / 8 + 1)?;
        for i in 0..n {
            mem_write(&mut self.memory, p + i, v)?;
        }
        Ok(())
    }

    #[inline(never)]
    fn memcpy(
        &mut self,
        regs: &[Option<RtVal>],
        dst: Slot,
        src: Slot,
        count: Slot,
        fuel: &mut u64,
    ) -> Result<(), ExecError> {
        let d = read_i(regs, dst)?;
        let s = read_i(regs, src)?;
        let n = read_i(regs, count)?.max(0);
        self.counts.memcpy_cells += n as u64;
        burn(fuel, n as u64 / 8 + 1)?;
        for i in 0..n {
            let v = mem_read(&self.memory, s + i)?;
            mem_write(&mut self.memory, d + i, v)?;
        }
        Ok(())
    }

    /// Runs `f` in `frame`, whose slots are `regs`, until it calls or
    /// returns.
    #[allow(clippy::too_many_lines)]
    fn run_frame(
        &mut self,
        f: &Lowered,
        regs: &mut [Option<RtVal>],
        frame: &mut Frame,
    ) -> Result<Exit, ExecError> {
        let mut fuel = self.fuel;
        let mut pc = frame.pc as usize;
        loop {
            burn(&mut fuel, 1)?;
            let op = f.code[pc];
            pc += 1;
            match op {
                Op::Add { dst, lhs, rhs } => wide(BinOp::Add, regs, dst, lhs, rhs)?,
                Op::Sub { dst, lhs, rhs } => wide(BinOp::Sub, regs, dst, lhs, rhs)?,
                Op::Mul { dst, lhs, rhs } => wide(BinOp::Mul, regs, dst, lhs, rhs)?,
                Op::And { dst, lhs, rhs } => wide(BinOp::And, regs, dst, lhs, rhs)?,
                Op::Wide { op, dst, lhs, rhs } => wide(op, regs, dst, lhs, rhs)?,
                Op::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let (a, b) = (read(regs, lhs)?, read(regs, rhs)?);
                    regs[dst as usize] = Some(op.eval(a, b, ty).ok_or(ExecError::DivByZero)?);
                }
                Op::Un { op, ty, dst, val } => {
                    regs[dst as usize] = Some(op.eval(read(regs, val)?, ty));
                }
                Op::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let c = self.compare(pred, read(regs, lhs)?, read(regs, rhs)?);
                    regs[dst as usize] = Some(RtVal::I(c as i64));
                }
                Op::Select {
                    dst,
                    cond,
                    then_val,
                    else_val,
                } => {
                    let c = read_i(regs, cond)? != 0;
                    regs[dst as usize] = Some(read(regs, if c { then_val } else { else_val })?);
                }
                Op::Cast {
                    op,
                    from,
                    to,
                    dst,
                    val,
                } => {
                    regs[dst as usize] = Some(op.eval(read(regs, val)?, from, to));
                }
                Op::Alloca { dst, cells } => {
                    regs[dst as usize] = Some(RtVal::I(self.alloca(cells)?));
                }
                Op::Load { ty, dst, ptr } => {
                    let a = read_i(regs, ptr)?;
                    regs[dst as usize] = Some(RtVal::from_bits(mem_read(&self.memory, a)?, ty));
                }
                Op::Store { ptr, value } => {
                    let a = read_i(regs, ptr)?;
                    let v = read(regs, value)?;
                    mem_write(&mut self.memory, a, v.to_bits())?;
                }
                Op::Gep { dst, base, offset } => {
                    let b = read_i(regs, base)?;
                    let o = read_i(regs, offset)?;
                    regs[dst as usize] = Some(RtVal::I(b.wrapping_add(o)));
                }
                Op::Copy { dst, val } => {
                    regs[dst as usize] = Some(read(regs, val)?);
                }
                Op::Call {
                    dst,
                    callee,
                    args: start,
                    nargs,
                } => {
                    for &a in &f.operands[start as usize..(start + nargs) as usize] {
                        self.args.push(read(regs, a)?);
                    }
                    frame.pc = pc as u32;
                    frame.dst = dst;
                    self.fuel = fuel;
                    return Ok(Exit::Call(callee));
                }
                Op::CallIndirect {
                    dst,
                    ptr,
                    args: start,
                    nargs,
                } => {
                    for &a in &f.operands[start as usize..(start + nargs) as usize] {
                        self.args.push(read(regs, a)?);
                    }
                    let tagged = read_i(regs, ptr)?;
                    let raw = !tagged;
                    if raw < 0 || raw as usize >= self.functions {
                        return Err(ExecError::BadCall {
                            target: format!("indirect({tagged})"),
                        });
                    }
                    frame.pc = pc as u32;
                    frame.dst = dst;
                    self.fuel = fuel;
                    return Ok(Exit::Call(FuncId(raw as u32)));
                }
                Op::Memset { ptr, value, count } => {
                    self.memset(regs, ptr, value, count, &mut fuel)?
                }
                Op::Memcpy { dst, src, count } => self.memcpy(regs, dst, src, count, &mut fuel)?,
                Op::Jump { edge, pc: target } => {
                    self.hits[f.hits + edge as usize] += 1;
                    pc = target as usize;
                }
                Op::Move {
                    dst,
                    src,
                    edge,
                    pc: target,
                } => {
                    regs[dst as usize] = Some(read(regs, src)?);
                    burn(&mut fuel, 1)?;
                    self.hits[f.hits + edge as usize] += 1;
                    pc = target as usize;
                }
                Op::CmpBr {
                    pred,
                    hint,
                    dst,
                    lhs,
                    rhs,
                    branch,
                } => {
                    let c = self.compare(pred, read(regs, lhs)?, read(regs, rhs)?);
                    regs[dst as usize] = Some(RtVal::I(c as i64));
                    // The branch's own fuel.
                    burn(&mut fuel, 1)?;
                    self.branch(c, hint);
                    let (then_edge, else_edge) = f.branches[branch as usize];
                    let edge = if c { then_edge } else { else_edge };
                    pc = self.take(f, edge, regs, &mut fuel)?;
                }
                Op::Br { edge } => {
                    pc = self.take(f, edge, regs, &mut fuel)?;
                }
                Op::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                    hint,
                } => {
                    let c = read_i(regs, cond)? != 0;
                    self.branch(c, hint);
                    let edge = if c { then_edge } else { else_edge };
                    pc = self.take(f, edge, regs, &mut fuel)?;
                }
                Op::Switch {
                    val,
                    cases,
                    ncases,
                    default,
                } => {
                    let v = read_i(regs, val)?;
                    let edge = f.cases[cases as usize..(cases + ncases) as usize]
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map_or(default, |&(_, e)| e);
                    pc = self.take(f, edge, regs, &mut fuel)?;
                }
                Op::Ret { val } => {
                    let v = read(regs, val)?;
                    self.fuel = fuel;
                    return Ok(Exit::Ret(Some(v)));
                }
                Op::RetVoid => {
                    self.fuel = fuel;
                    return Ok(Exit::Ret(None));
                }
                Op::Unreachable => return Err(ExecError::UnreachableExecuted),
            }
        }
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
