//! Ergonomic construction of modules and functions.
//!
//! [`ModuleBuilder`] owns the module under construction; [`FunctionBuilder`]
//! is a cursor into the current function that appends instructions to the
//! current block. Structured helpers ([`FunctionBuilder::for_loop`],
//! [`FunctionBuilder::while_loop`], [`FunctionBuilder::if_else`]) build the
//! canonical unoptimized CFG shapes — non-rotated loops, alloca-based local
//! variables — that the optimization phases then improve, exactly like
//! `clang -O0` output feeds `opt`.

use crate::block::{BlockId, Terminator};
use crate::function::{FuncId, Function};
use crate::inst::{BinOp, Callee, CastOp, CmpPred, InstKind, UnOp};
use crate::module::{Global, GlobalId, Module};
use crate::types::Type;
use crate::value::Value;

/// Builds a [`Module`] function by function.
///
/// # Example
///
/// ```
/// use mlcomp_ir::{ModuleBuilder, Type, BinOp};
/// let mut mb = ModuleBuilder::new("m");
/// mb.begin_function("double", vec![Type::I64], Type::I64);
/// {
///     let mut b = mb.body();
///     let two = b.const_i64(2);
///     let x = b.param(0);
///     let r = b.bin(BinOp::Mul, x, two);
///     b.ret(Some(r));
/// }
/// mb.finish_function();
/// let m = mb.build();
/// assert_eq!(m.functions.len(), 1);
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
    current: Option<FuncId>,
    cursor: BlockId,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
            current: None,
            cursor: BlockId::ENTRY,
        }
    }

    /// Declares a function signature without starting its body, so that
    /// mutually recursive functions can reference each other. Fill the body
    /// later with [`ModuleBuilder::begin_existing`].
    pub fn declare(&mut self, name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> FuncId {
        self.module
            .add_function(Function::new(name, params, ret_ty))
    }

    /// Starts a new function and makes it current.
    ///
    /// # Panics
    ///
    /// Panics if another function is still being built.
    pub fn begin_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Type>,
        ret_ty: Type,
    ) -> FuncId {
        assert!(self.current.is_none(), "finish the previous function first");
        let id = self
            .module
            .add_function(Function::new(name, params, ret_ty));
        self.current = Some(id);
        self.cursor = BlockId::ENTRY;
        id
    }

    /// Makes a previously [declared](ModuleBuilder::declare) function
    /// current so its body can be filled.
    ///
    /// # Panics
    ///
    /// Panics if another function is still being built.
    pub fn begin_existing(&mut self, id: FuncId) {
        assert!(self.current.is_none(), "finish the previous function first");
        self.current = Some(id);
        self.cursor = BlockId::ENTRY;
    }

    /// Returns a cursor for appending instructions to the current function.
    ///
    /// # Panics
    ///
    /// Panics if no function is being built.
    pub fn body(&mut self) -> FunctionBuilder<'_> {
        let id = self.current.expect("no function is being built");
        FunctionBuilder {
            func: &mut self.module.functions[id.index()],
            cursor: &mut self.cursor,
        }
    }

    /// Ends the current function.
    pub fn finish_function(&mut self) {
        self.current = None;
    }

    /// Sets attributes on a function.
    pub fn set_attrs(&mut self, id: FuncId, f: impl FnOnce(&mut crate::FnAttrs)) {
        f(&mut self.module.functions[id.index()].attrs);
    }

    /// Marks a function internal (not visible outside the module).
    pub fn set_internal(&mut self, id: FuncId) {
        self.module.functions[id.index()].internal = true;
    }

    /// Adds a zero-initialized mutable global of `cells` cells.
    pub fn add_global(&mut self, name: impl Into<String>, cells: u32) -> GlobalId {
        self.module.add_global(Global::new(name, cells))
    }

    /// Adds a constant global initialized with raw cell values.
    pub fn add_const_global(&mut self, name: impl Into<String>, init: Vec<i64>) -> GlobalId {
        self.module.add_global(Global::constant(name, init))
    }

    /// Adds a constant global of `f64` data (stored as bits).
    pub fn add_f64_table(&mut self, name: impl Into<String>, data: &[f64]) -> GlobalId {
        let init = data.iter().map(|x| x.to_bits() as i64).collect();
        self.add_const_global(name, init)
    }

    /// Finishes building and returns the module.
    ///
    /// # Panics
    ///
    /// Panics if a function is still being built.
    pub fn build(self) -> Module {
        assert!(self.current.is_none(), "unfinished function");
        self.module
    }

    /// Read access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// Cursor appending instructions to the current block of a function.
///
/// Obtained from [`ModuleBuilder::body`]. All `emit`-style methods append to
/// the current block; control-flow helpers create blocks and reposition the
/// cursor.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    func: &'a mut Function,
    cursor: &'a mut BlockId,
}

impl<'a> FunctionBuilder<'a> {
    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> BlockId {
        *self.cursor
    }

    /// Creates a new empty block (does not move the cursor).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Moves the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        *self.cursor = block;
    }

    /// Function parameter `i` as a value.
    pub fn param(&self, i: u32) -> Value {
        Value::Param(i)
    }

    /// `i64` constant.
    pub fn const_i64(&self, v: i64) -> Value {
        Value::i64(v)
    }

    /// `i32` constant.
    pub fn const_i32(&self, v: i32) -> Value {
        Value::i32(v)
    }

    /// `f64` constant.
    pub fn const_f64(&self, v: f64) -> Value {
        Value::f64(v)
    }

    /// Boolean constant.
    pub fn const_bool(&self, v: bool) -> Value {
        Value::bool(v)
    }

    fn emit(&mut self, kind: InstKind, ty: Type) -> Value {
        self.func.append_inst(*self.cursor, kind, ty)
    }

    /// Emits a binary operation; the result type follows the left operand.
    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        let ty = self.func.value_type(lhs);
        self.emit(
            InstKind::Bin {
                op,
                lhs,
                rhs,
                width: 1,
            },
            ty,
        )
    }

    /// Integer add.
    pub fn add(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Add, a, b)
    }

    /// Integer subtract.
    pub fn sub(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Sub, a, b)
    }

    /// Integer multiply.
    pub fn mul(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Mul, a, b)
    }

    /// Signed divide.
    pub fn sdiv(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::SDiv, a, b)
    }

    /// Signed remainder.
    pub fn srem(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::SRem, a, b)
    }

    /// Float add.
    pub fn fadd(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::FAdd, a, b)
    }

    /// Float subtract.
    pub fn fsub(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::FSub, a, b)
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::FMul, a, b)
    }

    /// Float divide.
    pub fn fdiv(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::FDiv, a, b)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Xor, a, b)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::And, a, b)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Or, a, b)
    }

    /// Shift left.
    pub fn shl(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::Shl, a, b)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: Value, b: Value) -> Value {
        self.bin(BinOp::LShr, a, b)
    }

    /// Emits a unary operation.
    pub fn un(&mut self, op: UnOp, val: Value) -> Value {
        let ty = self.func.value_type(val);
        self.emit(InstKind::Un { op, val }, ty)
    }

    /// Float square root.
    pub fn sqrt(&mut self, v: Value) -> Value {
        self.un(UnOp::Sqrt, v)
    }

    /// Float exponential.
    pub fn exp(&mut self, v: Value) -> Value {
        self.un(UnOp::Exp, v)
    }

    /// Float logarithm.
    pub fn log(&mut self, v: Value) -> Value {
        self.un(UnOp::Log, v)
    }

    /// Emits a comparison producing `I1`.
    pub fn cmp(&mut self, pred: CmpPred, lhs: Value, rhs: Value) -> Value {
        self.emit(InstKind::Cmp { pred, lhs, rhs }, Type::I1)
    }

    /// Emits a select (conditional move).
    pub fn select(&mut self, cond: Value, then_val: Value, else_val: Value) -> Value {
        let ty = self.func.value_type(then_val);
        self.emit(
            InstKind::Select {
                cond,
                then_val,
                else_val,
            },
            ty,
        )
    }

    /// Emits a cast to `to`.
    pub fn cast(&mut self, op: CastOp, val: Value, to: Type) -> Value {
        self.emit(InstKind::Cast { op, val }, to)
    }

    /// Emits a stack allocation of `cells` cells, returning the pointer.
    pub fn alloca(&mut self, cells: u32) -> Value {
        self.emit(InstKind::Alloca { cells }, Type::Ptr)
    }

    /// Emits a load of type `ty`.
    pub fn load(&mut self, ptr: Value, ty: Type) -> Value {
        self.emit(
            InstKind::Load {
                ptr,
                aligned: false,
                width: 1,
            },
            ty,
        )
    }

    /// Emits a store.
    pub fn store(&mut self, ptr: Value, value: Value) {
        self.emit(
            InstKind::Store {
                ptr,
                value,
                aligned: false,
                width: 1,
            },
            Type::Void,
        );
    }

    /// Emits pointer arithmetic `base + offset` (cells).
    pub fn gep(&mut self, base: Value, offset: Value) -> Value {
        self.emit(InstKind::Gep { base, offset }, Type::Ptr)
    }

    /// The address of global `g`.
    pub fn global_addr(&self, g: GlobalId) -> Value {
        Value::Global(g)
    }

    /// Emits a direct call.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>, ret_ty: Type) -> Value {
        self.emit(
            InstKind::Call {
                callee: Callee::Direct(callee),
                args,
            },
            ret_ty,
        )
    }

    /// Emits an indirect call through a function pointer.
    pub fn call_indirect(&mut self, fptr: Value, args: Vec<Value>, ret_ty: Type) -> Value {
        self.emit(
            InstKind::Call {
                callee: Callee::Indirect(fptr),
                args,
            },
            ret_ty,
        )
    }

    /// Emits a memset intrinsic filling `count` cells at `ptr` with `value`.
    pub fn memset(&mut self, ptr: Value, value: Value, count: Value) {
        self.emit(InstKind::Memset { ptr, value, count }, Type::Void);
    }

    /// Emits a memcpy intrinsic copying `count` cells from `src` to `dst`.
    pub fn memcpy(&mut self, dst: Value, src: Value, count: Value) {
        self.emit(InstKind::Memcpy { dst, src, count }, Type::Void);
    }

    /// Emits an `expect` hint: result equals `val`, expected to be
    /// `expected`.
    pub fn expect(&mut self, val: Value, expected: i64) -> Value {
        let ty = self.func.value_type(val);
        self.emit(InstKind::Expect { val, expected }, ty)
    }

    /// Emits a phi node at the *front* of the current block.
    pub fn phi(&mut self, ty: Type, incomings: Vec<(BlockId, Value)>) -> Value {
        let id = self
            .func
            .add_inst(crate::inst::Inst::new(InstKind::Phi { incomings }, ty));
        let blk = self.func.block_mut(*self.cursor);
        blk.insts.insert(0, id);
        Value::Inst(id)
    }

    /// Terminates the current block with an unconditional branch and moves
    /// the cursor to `target`? No — the cursor stays; use
    /// [`FunctionBuilder::switch_to`] to continue elsewhere.
    pub fn br(&mut self, target: BlockId) {
        self.func.block_mut(*self.cursor).term = Terminator::Br(target);
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.func.block_mut(*self.cursor).term = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            weight: None,
        };
    }

    /// Terminates the current block with a switch.
    pub fn switch(&mut self, val: Value, cases: Vec<(i64, BlockId)>, default: BlockId) {
        self.func.block_mut(*self.cursor).term = Terminator::Switch {
            val,
            cases,
            default,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, val: Option<Value>) {
        self.func.block_mut(*self.cursor).term = Terminator::Ret(val);
    }

    /// Allocates a one-cell local variable and stores `init` into it.
    /// Returns the pointer — use [`FunctionBuilder::load`]/
    /// [`FunctionBuilder::store`] to access it. `mem2reg` promotes these.
    pub fn local(&mut self, init: Value) -> Value {
        let p = self.alloca(1);
        self.store(p, init);
        p
    }

    /// Builds a canonical counted loop `for (i = from; i < to; i += step)`.
    ///
    /// The generated CFG is the unoptimized (non-rotated) shape: a header
    /// with the phi and exit test, the user body, and a latch with the
    /// increment. The cursor is left in the exit block. The closure receives
    /// the induction variable.
    pub fn for_loop(
        &mut self,
        from: Value,
        to: Value,
        step: i64,
        body: impl FnOnce(&mut Self, Value),
    ) {
        let header = self.new_block();
        let body_bb = self.new_block();
        let latch = self.new_block();
        let exit = self.new_block();
        let pre = self.current_block();
        self.br(header);

        self.switch_to(header);
        let iv = self.phi(Type::I64, vec![(pre, from)]);
        let c = self.cmp(CmpPred::Lt, iv, to);
        self.cond_br(c, body_bb, exit);

        self.switch_to(body_bb);
        body(self, iv);
        // Whatever block the body ended in falls through to the latch.
        let body_end = self.current_block();
        self.br(latch);
        let _ = body_end;

        self.switch_to(latch);
        let next = self.add(iv, self.const_i64(step));
        self.br(header);
        // Patch the phi with the latch incoming.
        if let Value::Inst(phi_id) = iv {
            if let InstKind::Phi { incomings } = &mut self.func.inst_mut(phi_id).kind {
                incomings.push((latch, next));
            }
        }

        self.switch_to(exit);
    }

    /// Builds a while-loop: `cond` is evaluated in a fresh header each
    /// iteration; the loop runs while it is true. The cursor is left in the
    /// exit block.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> Value,
        body: impl FnOnce(&mut Self),
    ) {
        let header = self.new_block();
        let body_bb = self.new_block();
        let exit = self.new_block();
        self.br(header);

        self.switch_to(header);
        let c = cond(self);
        self.cond_br(c, body_bb, exit);

        self.switch_to(body_bb);
        body(self);
        self.br(header);

        self.switch_to(exit);
    }

    /// Builds an if/else diamond. Each closure produces the value of its
    /// arm; the merged value (via phi) is returned. The cursor is left in
    /// the join block.
    pub fn if_else(
        &mut self,
        cond: Value,
        ty: Type,
        then_arm: impl FnOnce(&mut Self) -> Value,
        else_arm: impl FnOnce(&mut Self) -> Value,
    ) -> Value {
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let join = self.new_block();
        self.cond_br(cond, then_bb, else_bb);

        self.switch_to(then_bb);
        let tv = then_arm(self);
        let then_end = self.current_block();
        self.br(join);

        self.switch_to(else_bb);
        let ev = else_arm(self);
        let else_end = self.current_block();
        self.br(join);

        self.switch_to(join);
        self.phi(ty, vec![(then_end, tv), (else_end, ev)])
    }

    /// Builds an if without an else. The cursor is left in the continuation
    /// block.
    pub fn if_then(&mut self, cond: Value, then_arm: impl FnOnce(&mut Self)) {
        let then_bb = self.new_block();
        let cont = self.new_block();
        self.cond_br(cond, then_bb, cont);
        self.switch_to(then_bb);
        then_arm(self);
        self.br(cont);
        self.switch_to(cont);
    }

    /// Direct access to the function being built (for advanced callers).
    pub fn func(&mut self) -> &mut Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::verify;

    #[test]
    fn straight_line() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("f", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let s = b.add(b.param(0), b.param(1));
            let m = b.mul(s, b.const_i64(3));
            b.ret(Some(m));
        }
        mb.finish_function();
        let m = mb.build();
        assert!(verify(&m).is_ok());
        assert_eq!(m.functions[0].live_inst_count(), 2);
    }

    #[test]
    fn for_loop_shape() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("sum", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                let cur = b.load(acc, Type::I64);
                let nxt = b.add(cur, i);
                b.store(acc, nxt);
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        let m = mb.build();
        verify(&m).expect("loop builds valid IR");
        // entry + header + body + latch + exit
        assert_eq!(m.functions[0].live_block_count(), 5);
    }

    #[test]
    fn if_else_phi() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("max", vec![Type::I64, Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let c = b.cmp(CmpPred::Gt, b.param(0), b.param(1));
            let v = b.if_else(c, Type::I64, |b| b.param(0), |b| b.param(1));
            b.ret(Some(v));
        }
        mb.finish_function();
        let m = mb.build();
        verify(&m).expect("diamond builds valid IR");
    }

    #[test]
    fn nested_loops() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("mm", vec![Type::I64], Type::I64);
        {
            let mut b = mb.body();
            let acc = b.local(b.const_i64(0));
            b.for_loop(b.const_i64(0), b.param(0), 1, |b, i| {
                b.for_loop(b.const_i64(0), b.param(0), 1, |b, j| {
                    let p = b.mul(i, j);
                    let cur = b.load(acc, Type::I64);
                    let nxt = b.add(cur, p);
                    b.store(acc, nxt);
                });
            });
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        mb.finish_function();
        verify(&mb.build()).expect("nested loops are valid");
    }

    #[test]
    #[should_panic(expected = "finish the previous function")]
    fn double_begin_panics() {
        let mut mb = ModuleBuilder::new("t");
        mb.begin_function("a", vec![], Type::Void);
        mb.begin_function("b", vec![], Type::Void);
    }
}
