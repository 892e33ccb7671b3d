//! The profiling interpreter as it was before functions were lowered to
//! slot-addressed code: it walks the IR, evaluates each operand `Value` and
//! charges fuel and counts per instruction. Kept as the differential oracle
//! of `mlcomp_ir::Interpreter`, which must return the same
//! `Result<Outcome, ExecError>` (return value and every count, or the same
//! trap) on every program.

use mlcomp_ir::{
    BinOp, BlockId, Callee, DynCounts, ExecError, FuncId, Function, Inst, InstId, InstKind,
    InterpConfig, Module, Outcome, RtVal, Terminator, UnOp, Value,
};

/// The cost class a binary operation is tallied under.
fn bin_class(c: &mut DynCounts, op: BinOp) -> &mut u64 {
    use BinOp::*;
    match op {
        Add | Sub | And | Or | Xor | Shl | AShr | LShr => &mut c.int_alu,
        Mul => &mut c.int_mul,
        SDiv | UDiv | SRem | URem => &mut c.int_div,
        FAdd | FSub => &mut c.fp_add,
        FMul => &mut c.fp_mul,
        FDiv | FRem => &mut c.fp_div,
    }
}

/// The cost class a unary operation is tallied under.
fn un_class(c: &mut DynCounts, op: UnOp) -> &mut u64 {
    match op {
        UnOp::Neg | UnOp::Not => &mut c.int_alu,
        UnOp::FNeg | UnOp::FAbs => &mut c.fp_add,
        UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos => &mut c.fp_special,
    }
}

pub(crate) struct Interpreter<'m> {
    module: &'m Module,
    config: InterpConfig,
    memory: Vec<i64>,
    global_base: Vec<i64>,
    stack_top: usize,
    counts: DynCounts,
    fuel_left: u64,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with explicit limits.
    pub(crate) fn with_config(module: &'m Module, config: InterpConfig) -> Interpreter<'m> {
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
    pub(crate) fn run(mut self, entry: FuncId, args: &[RtVal]) -> Result<Outcome, ExecError> {
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
                let mut phi_vals: Vec<(InstId, RtVal)> = Vec::new();
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
        inst: &Inst,
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
                *bin_class(&mut self.counts, *op) += 1;
                Some(op.eval(a, b, inst.ty).ok_or(ExecError::DivByZero)?)
            }
            InstKind::Un { op, val } => {
                let v = self.eval(f, regs, args, *val)?;
                *un_class(&mut self.counts, *op) += 1;
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
    use super::Interpreter as Oracle;
    use crate::suite_states::{for_each_suite_state, mutants};
    use mlcomp_ir::{
        BinOp, BlockId, CastOp, CmpPred, DynCounts, ExecError, FuncId, InstKind, InterpConfig,
        Interpreter, Module, ModuleBuilder, Outcome, RtVal, Terminator, Type, UnOp, Value,
    };
    use proptest::prelude::*;

    /// The largest state checked: debug builds stop at 1,600 instructions,
    /// as the other suite-state oracles do.
    const MAX_INSTS: usize = if cfg!(debug_assertions) {
        1_600
    } else {
        usize::MAX
    };

    /// The fuel extraction gives a run under a starvation fault.
    const STARVATION_FUEL: u64 = 64;

    /// A run's result in comparable form: a float return by its bits, so
    /// that a NaN equals itself.
    type Key = Result<(Option<(bool, i64)>, DynCounts), ExecError>;

    fn key(r: &Result<Outcome, ExecError>) -> Key {
        r.clone().map(|o| {
            (
                o.ret.map(|v| (matches!(v, RtVal::F(_)), v.to_bits())),
                o.counts,
            )
        })
    }

    fn with_fuel(fuel: u64) -> InterpConfig {
        InterpConfig {
            fuel,
            ..InterpConfig::default()
        }
    }

    /// Runs `entry` under both interpreters, requires the same result and
    /// returns it.
    fn both(
        m: &Module,
        entry: FuncId,
        args: &[RtVal],
        config: InterpConfig,
        label: &str,
    ) -> Result<Outcome, ExecError> {
        let new = Interpreter::with_config(m, config).run(entry, args);
        let old = Oracle::with_config(m, config).run(entry, args);
        assert_eq!(key(&new), key(&old), "{label} (fuel {})", config.fuel);
        new
    }

    /// The least fuel on which `entry` runs to completion, by bisection
    /// with the lowered interpreter.
    fn fuel_need(m: &Module, entry: FuncId, args: &[RtVal]) -> u64 {
        let run = |fuel| Interpreter::with_config(m, with_fuel(fuel)).run(entry, args);
        let c = run(InterpConfig::default().fuel).expect("runs").counts;
        // A unit of fuel is an instruction, a terminator, a phi, or one
        // more per memory intrinsic and per eight of its cells.
        let mut hi =
            c.total_instructions() + c.phi + c.mem_intrinsic + c.memset_cells + c.memcpy_cells + 1;
        let mut lo = 0; // fails: the first instruction needs fuel
        assert!(run(hi).is_ok());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if run(mid).is_ok() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The suite program `label` names (`"<program> after [...]"`).
    fn program_of(label: &str) -> mlcomp_suites::BenchProgram {
        let name = label.split(" after ").next().expect("labelled");
        mlcomp_suites::program(name).expect("a suite program")
    }

    #[test]
    fn interpreter_matches_the_oracle_on_the_suite_states_and_their_mutants() {
        let (mut states, mut mutant_runs, mut traps) = (0, 0, 0);
        for_each_suite_state(MAX_INSTS, |state, label| {
            let program = program_of(label);
            let entry = state.find_function(program.entry).expect("entry kept");
            let args = program.default_args();
            let _ = both(state, entry, &args, InterpConfig::default(), label);
            // Mutants may loop where the state does not: run them on a
            // budget, out of fuel being one more outcome to agree on.
            if states % 4 == 0 && state.total_insts() <= 200 {
                for (i, mutant) in mutants(state).iter().enumerate() {
                    let r = both(
                        mutant,
                        entry,
                        &args,
                        with_fuel(200_000),
                        &format!("{label}: mutant {i}"),
                    );
                    mutant_runs += 1;
                    traps += usize::from(r.is_err());
                }
            }
            states += 1;
        });
        assert!(states >= 300, "only {states} states checked");
        assert!(
            traps >= 20,
            "only {traps} of {mutant_runs} mutant runs trapped"
        );
    }

    #[test]
    fn interpreter_matches_the_oracle_at_the_edge_of_its_fuel() {
        for program in mlcomp_suites::parsec_suite()
            .into_iter()
            .chain(mlcomp_suites::beebs_suite())
        {
            let m = &program.module;
            let entry = m.find_function(program.entry).expect("entry");
            let args = program.default_args();
            let need = fuel_need(m, entry, &args);
            for fuel in [need, need - 1, need / 2, need / 3, STARVATION_FUEL] {
                let r = both(m, entry, &args, with_fuel(fuel), program.name);
                assert_eq!(r.is_ok(), fuel >= need, "{}", program.name);
            }
        }
    }

    /// A module of one function `f` built by `body`.
    fn module(
        params: Vec<Type>,
        ret: Type,
        body: impl FnOnce(&mut mlcomp_ir::FunctionBuilder<'_>),
    ) -> (Module, FuncId) {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.begin_function("f", params, ret);
        body(&mut mb.body());
        mb.finish_function();
        (mb.build(), f)
    }

    fn run_both(
        m: &Module,
        f: FuncId,
        args: &[RtVal],
        config: InterpConfig,
    ) -> Result<Outcome, ExecError> {
        both(m, f, args, config, "edge case")
    }

    #[test]
    fn call_depth_beyond_the_limit_overflows_the_stack() {
        // f(n) = n == 0 ? 0 : f(n - 1) + 1, so f(10) reaches depth 10.
        let mut mb = ModuleBuilder::new("t");
        let f = mb.declare("f", vec![Type::I64], Type::I64);
        mb.begin_existing(f);
        {
            let mut b = mb.body();
            let done = b.cmp(CmpPred::Eq, b.param(0), b.const_i64(0));
            let v = b.if_else(
                done,
                Type::I64,
                |b| b.const_i64(0),
                |b| {
                    let n1 = b.sub(b.param(0), b.const_i64(1));
                    let r = b.call(f, vec![n1], Type::I64);
                    b.add(r, b.const_i64(1))
                },
            );
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        let depth = |max_depth| InterpConfig {
            max_depth,
            ..InterpConfig::default()
        };
        let ok = run_both(&m, f, &[RtVal::I(10)], depth(10)).unwrap();
        assert_eq!(ok.ret, Some(RtVal::I(10)));
        assert_eq!(
            run_both(&m, f, &[RtVal::I(10)], depth(9)),
            Err(ExecError::StackOverflow)
        );
    }

    #[test]
    fn an_alloca_beyond_the_memory_limit_is_out_of_memory() {
        let (m, f) = module(vec![], Type::I64, |b| {
            let p = b.alloca(40);
            b.store(p, b.const_i64(7));
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        });
        // Cell 0 is null; the alloca takes cells 1..=40.
        let cells = |max_cells| InterpConfig {
            max_cells,
            ..InterpConfig::default()
        };
        assert_eq!(
            run_both(&m, f, &[], cells(41)).unwrap().ret,
            Some(RtVal::I(7))
        );
        assert_eq!(run_both(&m, f, &[], cells(40)), Err(ExecError::OutOfMemory));
    }

    #[test]
    fn an_indirect_call_out_of_range_is_a_bad_call() {
        for (ptr, target) in [
            (Value::FuncAddr(FuncId(99)), "indirect(-100)"),
            (Value::i64(5), "indirect(5)"),
        ] {
            let (m, f) = module(vec![], Type::I64, |b| {
                let r = b.call_indirect(ptr, vec![], Type::I64);
                b.ret(Some(r));
            });
            assert_eq!(
                run_both(&m, f, &[], InterpConfig::default()),
                Err(ExecError::BadCall {
                    target: target.into()
                })
            );
        }
    }

    #[test]
    fn a_phi_without_an_incoming_for_the_taken_edge_traps() {
        let (m, f) = module(vec![Type::I64], Type::I64, |b| {
            let (side, join) = (b.new_block(), b.new_block());
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.cond_br(c, side, join);
            b.switch_to(side);
            b.br(join);
            b.switch_to(join);
            // No incoming from the entry block.
            let v = b.phi(Type::I64, vec![(side, b.const_i64(1))]);
            b.ret(Some(v));
        });
        let ok = run_both(&m, f, &[RtVal::I(1)], InterpConfig::default()).unwrap();
        assert_eq!((ok.ret, ok.counts.phi), (Some(RtVal::I(1)), 1));
        assert_eq!(
            run_both(&m, f, &[RtVal::I(-1)], InterpConfig::default()),
            Err(ExecError::UnreachableExecuted)
        );
    }

    #[test]
    fn the_phis_of_an_edge_read_the_values_before_it() {
        // Each trip through the loop swaps `a` and `b` through their phis.
        let (m, f) = module(vec![Type::I64], Type::I64, |b| {
            let (header, latch, exit) = (b.new_block(), b.new_block(), b.new_block());
            b.br(header);
            b.switch_to(header);
            let i = b.phi(Type::I64, vec![]);
            let x = b.phi(Type::I64, vec![]);
            let y = b.phi(Type::I64, vec![]);
            let more = b.cmp(CmpPred::Lt, i, b.param(0));
            b.cond_br(more, latch, exit);
            b.switch_to(latch);
            let next = b.add(i, b.const_i64(1));
            b.br(header);
            b.switch_to(exit);
            let tens = b.mul(x, b.const_i64(10));
            let r = b.add(tens, y);
            b.ret(Some(r));
            for (phi, from_entry, from_latch) in [(i, 0, next), (x, 1, y), (y, 2, x)] {
                let Value::Inst(id) = phi else { unreachable!() };
                let InstKind::Phi { incomings } = &mut b.func().inst_mut(id).kind else {
                    unreachable!()
                };
                *incomings = vec![
                    (BlockId::ENTRY, Value::i64(from_entry)),
                    (latch, from_latch),
                ];
            }
        });
        for (n, ret) in [(0, 12), (1, 21), (3, 21), (4, 12)] {
            let out = run_both(&m, f, &[RtVal::I(n)], InterpConfig::default()).unwrap();
            assert_eq!(out.ret, Some(RtVal::I(ret)), "{n} trips");
            assert_eq!(out.counts.phi, 3 * (n as u64 + 1));
        }
    }

    #[test]
    fn an_executed_unreachable_traps() {
        let (m, f) = module(vec![Type::I64], Type::I64, |b| {
            let (live, dead) = (b.new_block(), b.new_block());
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.cond_br(c, live, dead);
            b.switch_to(live);
            b.ret(Some(b.const_i64(1)));
            // `dead` keeps a new block's `unreachable` terminator.
        });
        assert!(run_both(&m, f, &[RtVal::I(1)], InterpConfig::default()).is_ok());
        assert_eq!(
            run_both(&m, f, &[RtVal::I(-1)], InterpConfig::default()),
            Err(ExecError::UnreachableExecuted)
        );
    }

    #[test]
    fn a_switch_counts_a_jump_and_two_alu_ops() {
        let (m, f) = module(vec![Type::I64], Type::I64, |b| {
            let blocks: Vec<BlockId> = (0..3).map(|_| b.new_block()).collect();
            b.switch(b.param(0), vec![(1, blocks[0]), (2, blocks[1])], blocks[2]);
            for (i, &bb) in blocks.iter().enumerate() {
                b.switch_to(bb);
                b.ret(Some(b.const_i64(10 * i as i64)));
            }
        });
        for (arg, ret) in [(1, 0), (2, 10), (7, 20)] {
            let out = run_both(&m, f, &[RtVal::I(arg)], InterpConfig::default()).unwrap();
            assert_eq!(out.ret, Some(RtVal::I(ret)));
            let expected = DynCounts {
                jump: 1,
                int_alu: 2,
                ret: 1,
                ..DynCounts::default()
            };
            assert_eq!(out.counts, expected);
        }
    }

    #[test]
    fn a_compare_is_counted_by_its_left_operands_runtime_kind() {
        let (m, f) = module(vec![Type::F64], Type::I64, |b| {
            let c = b.cmp(CmpPred::Lt, b.param(0), b.param(0));
            let r = b.cast(CastOp::Zext, c, Type::I64);
            b.ret(Some(r));
        });
        let float = run_both(&m, f, &[RtVal::F(0.5)], InterpConfig::default()).unwrap();
        assert_eq!((float.counts.fp_add, float.counts.int_alu), (1, 1));
        // A missing argument reads as integer zero, so the compare of the
        // float parameter with itself counts as an integer op.
        let missing = run_both(&m, f, &[], InterpConfig::default()).unwrap();
        assert_eq!((missing.counts.fp_add, missing.counts.int_alu), (0, 2));
        assert_eq!(missing.ret, Some(RtVal::I(0)));
    }

    #[test]
    fn a_missing_argument_reads_as_integer_zero() {
        let (m, f) = module(vec![Type::F64, Type::I64], Type::F64, |b| {
            b.ret(Some(b.param(0)));
        });
        let out = run_both(&m, f, &[], InterpConfig::default()).unwrap();
        assert_eq!(out.ret, Some(RtVal::I(0)));
    }

    #[test]
    fn memory_intrinsics_charge_a_fuel_unit_per_eight_cells_and_one() {
        let need = |n: i64, copy: bool| {
            let (m, f) = module(vec![], Type::I64, |b| {
                let (src, dst) = (b.alloca(64), b.alloca(64));
                b.memset(src, Value::i64(3), Value::i64(n));
                if copy {
                    b.memcpy(dst, src, Value::i64(n));
                }
                b.ret(Some(b.const_i64(0)));
            });
            let need = fuel_need(&m, f, &[]);
            assert!(run_both(&m, f, &[], with_fuel(need)).is_ok());
            assert_eq!(
                run_both(&m, f, &[], with_fuel(need - 1)),
                Err(ExecError::OutOfFuel)
            );
            need
        };
        for n in [0, 1, 7, 8, 9, 16, 63, 64] {
            let extra = n as u64 / 8;
            assert_eq!(need(n, false), need(0, false) + extra, "memset of {n}");
            assert_eq!(need(n, true), need(0, true) + 2 * extra, "memcpy of {n}");
        }
    }

    fn int_ops() -> impl Strategy<Value = BinOp> {
        prop::sample::select(vec![
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::UDiv,
            BinOp::SRem,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::AShr,
            BinOp::LShr,
        ])
    }

    /// Runs `f() = op(lhs, rhs)` of type `ty` under both interpreters.
    fn bin_case(op: BinOp, lhs: Value, rhs: Value, ty: Type) {
        let (m, f) = module(vec![], ty, |b| {
            let v = b.bin(op, lhs, rhs);
            b.ret(Some(v));
        });
        run_both(&m, f, &[], InterpConfig::default()).ok();
    }

    // The cases of `tests/fold_matches_interp.rs`, run as programs.
    proptest! {
        #[test]
        fn int_ops_match_the_oracle(op in int_ops(), a in any::<i64>(), b in any::<i64>(), use_i32 in any::<bool>()) {
            let ty = if use_i32 { Type::I32 } else { Type::I64 };
            let (a, b) = if use_i32 { (a as i32 as i64, b as i32 as i64) } else { (a, b) };
            bin_case(op, Value::ConstInt(a, ty), Value::ConstInt(b, ty), ty);
            // The same op on parameters, the operands the fast paths read.
            let (m, f) = module(vec![ty, ty], ty, |bd| {
                let v = bd.bin(op, bd.param(0), bd.param(1));
                bd.ret(Some(v));
            });
            run_both(&m, f, &[RtVal::I(a), RtVal::I(b)], InterpConfig::default()).ok();
        }

        #[test]
        fn float_ops_match_the_oracle(
            op in prop::sample::select(vec![BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv]),
            a in -1e12f64..1e12,
            b in prop::num::f64::NORMAL,
        ) {
            bin_case(op, Value::f64(a), Value::f64(b), Type::F64);
        }

        #[test]
        fn unary_ops_match_the_oracle(v in prop::num::f64::NORMAL) {
            for op in [UnOp::FNeg, UnOp::FAbs, UnOp::Sqrt, UnOp::Exp, UnOp::Log] {
                let (m, f) = module(vec![], Type::F64, |b| {
                    let r = b.un(op, Value::f64(v));
                    b.ret(Some(r));
                });
                run_both(&m, f, &[], InterpConfig::default()).ok();
            }
        }

        #[test]
        fn compares_match_the_oracle(a in any::<i64>(), b in any::<i64>()) {
            for pred in [CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Le, CmpPred::Gt, CmpPred::Ge] {
                let (m, f) = module(vec![], Type::I1, |bd| {
                    let c = bd.cmp(pred, Value::i64(a), Value::i64(b));
                    bd.ret(Some(c));
                });
                run_both(&m, f, &[], InterpConfig::default()).ok();
            }
        }

        #[test]
        fn casts_match_the_oracle(v in any::<i64>()) {
            for (op, ty) in [(CastOp::Trunc, Type::I32), (CastOp::SiToFp, Type::F64)] {
                let (m, f) = module(vec![], ty, |b| {
                    let r = b.cast(op, Value::i64(v), ty);
                    b.ret(Some(r));
                });
                run_both(&m, f, &[], InterpConfig::default()).ok();
            }
        }
    }

    #[test]
    fn a_branch_weight_counts_its_hint() {
        let (mut m, f) = module(vec![Type::I64], Type::I64, |b| {
            let (t, e) = (b.new_block(), b.new_block());
            let c = b.cmp(CmpPred::Gt, b.param(0), b.const_i64(0));
            b.cond_br(c, t, e);
            b.switch_to(t);
            b.ret(Some(b.const_i64(1)));
            b.switch_to(e);
            b.ret(Some(b.const_i64(0)));
        });
        if let Terminator::CondBr { weight, .. } = &mut m.functions[0].blocks[0].term {
            *weight = Some(90);
        }
        let right = run_both(&m, f, &[RtVal::I(5)], InterpConfig::default()).unwrap();
        assert_eq!((right.counts.hinted_correct, right.counts.taken), (1, 1));
        let wrong = run_both(&m, f, &[RtVal::I(-5)], InterpConfig::default()).unwrap();
        assert_eq!((wrong.counts.hinted_wrong, wrong.counts.taken), (1, 0));
    }
}
