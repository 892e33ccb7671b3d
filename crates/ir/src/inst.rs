//! Instructions and their operand kinds.

use crate::block::BlockId;
use crate::interp::RtVal;
use crate::types::Type;
use crate::value::Value;
use crate::FuncId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an instruction inside a [`Function`](crate::Function)'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(pub u32);

impl InstId {
    /// Array index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary arithmetic / bitwise operations.
///
/// Integer and float variants are separate (as in LLVM) so that phases like
/// `float2int` and `reassociate` can reason about exact semantics: integer
/// ops are associative, float ops are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division.
    SDiv,
    /// Unsigned integer division.
    UDiv,
    /// Signed remainder.
    SRem,
    /// Unsigned remainder.
    URem,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Float remainder.
    FRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic (sign-preserving) shift right.
    AShr,
    /// Logical shift right.
    LShr,
}

impl BinOp {
    /// Returns `true` for the float variants.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
        )
    }

    /// Returns `true` if the operation is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
        )
    }

    /// Returns `true` if the operation is associative (exact semantics; the
    /// float variants are not).
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Returns `true` for division/remainder ops which trap on a zero
    /// divisor and therefore cannot be hoisted speculatively.
    pub fn may_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }

    /// Computes the operation on operands of type `ty`, the result type.
    /// Integer results wrap to `ty`'s width and `F32` results round to
    /// `f32` (see [`CastOp::eval`]). Returns `None` for an integer division
    /// or remainder by zero: the operation traps.
    #[inline(always)]
    pub fn eval(self, a: RtVal, b: RtVal, ty: Type) -> Option<RtVal> {
        use BinOp::*;
        if self.is_float() {
            let (x, y) = (a.as_f(), b.as_f());
            let r = match self {
                FAdd => x + y,
                FSub => x - y,
                FMul => x * y,
                FDiv => x / y,
                FRem => x % y,
                _ => unreachable!("{self} is not a float op"),
            };
            return Some(fit(RtVal::F(r), ty));
        }
        let (x, y) = (a.as_i(), b.as_i());
        let r = match self {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            SDiv | UDiv | SRem | URem if y == 0 => return None,
            SDiv => x.wrapping_div(y),
            UDiv => ((x as u64) / (y as u64)) as i64,
            SRem => x.wrapping_rem(y),
            URem => ((x as u64) % (y as u64)) as i64,
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32 & 63),
            AShr => x.wrapping_shr(y as u32 & 63),
            LShr => ((x as u64).wrapping_shr(y as u32 & 63)) as i64,
            FAdd | FSub | FMul | FDiv | FRem => unreachable!("{self} is a float op"),
        };
        Some(fit(RtVal::I(r), ty))
    }

    /// Short mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FRem => "frem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary operations, including the math intrinsics that LLVM models as
/// `llvm.*` calls. Keeping them as first-class unary ops lets the cost
/// models charge them as "expensive FP" without a function-call fiction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Float negation.
    FNeg,
    /// Bitwise not.
    Not,
    /// Float square root.
    Sqrt,
    /// Float absolute value.
    FAbs,
    /// Float natural exponential.
    Exp,
    /// Float natural logarithm.
    Log,
    /// Float sine.
    Sin,
    /// Float cosine.
    Cos,
}

impl UnOp {
    /// Returns `true` for ops the x86/RISC-V models charge as long-latency
    /// floating-point (sqrt and the transcendentals).
    pub fn is_expensive_float(self) -> bool {
        matches!(
            self,
            UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos
        )
    }

    /// Computes the operation on an operand of type `ty`, the result type.
    #[inline(always)]
    pub fn eval(self, v: RtVal, ty: Type) -> RtVal {
        let r = match self {
            UnOp::Neg => RtVal::I(v.as_i().wrapping_neg()),
            UnOp::Not => RtVal::I(!v.as_i()),
            UnOp::FNeg => RtVal::F(-v.as_f()),
            UnOp::FAbs => RtVal::F(v.as_f().abs()),
            UnOp::Sqrt => RtVal::F(v.as_f().sqrt()),
            UnOp::Exp => RtVal::F(v.as_f().exp()),
            UnOp::Log => RtVal::F(v.as_f().ln()),
            UnOp::Sin => RtVal::F(v.as_f().sin()),
            UnOp::Cos => RtVal::F(v.as_f().cos()),
        };
        fit(r, ty)
    }

    /// Short mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::FNeg => "fneg",
            UnOp::Not => "not",
            UnOp::Sqrt => "sqrt",
            UnOp::FAbs => "fabs",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicates; the operand type selects integer or float
/// semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed/ordered less-than.
    Lt,
    /// Signed/ordered less-or-equal.
    Le,
    /// Signed/ordered greater-than.
    Gt,
    /// Signed/ordered greater-or-equal.
    Ge,
}

impl CmpPred {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Eq,
            CmpPred::Ne => CmpPred::Ne,
            CmpPred::Lt => CmpPred::Gt,
            CmpPred::Le => CmpPred::Ge,
            CmpPred::Gt => CmpPred::Lt,
            CmpPred::Ge => CmpPred::Le,
        }
    }

    /// The logical negation (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> CmpPred {
        match self {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Lt => CmpPred::Ge,
            CmpPred::Le => CmpPred::Gt,
            CmpPred::Gt => CmpPred::Le,
            CmpPred::Ge => CmpPred::Lt,
        }
    }

    /// Evaluates the predicate on two runtime values: ordered float
    /// comparison when both are floats, signed integer comparison otherwise.
    #[inline(always)]
    pub fn eval(self, a: RtVal, b: RtVal) -> bool {
        match (a, b) {
            (RtVal::F(x), RtVal::F(y)) => self.eval_float(x, y),
            _ => self.eval_int(a.as_i(), b.as_i()),
        }
    }

    /// Evaluates the predicate on two `i64` values.
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }

    /// Evaluates the predicate on two `f64` values (ordered comparison).
    pub fn eval_float(self, a: f64, b: f64) -> bool {
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }

    /// Short mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        }
    }
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conversion operations between types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastOp {
    /// Integer truncation (i64 → i32, any int → i1 by low bit).
    Trunc,
    /// Zero extension.
    Zext,
    /// Sign extension.
    Sext,
    /// Float to signed integer.
    FpToSi,
    /// Signed integer to float.
    SiToFp,
    /// Float narrowing (f64 → f32).
    FpTrunc,
    /// Float widening (f32 → f64).
    FpExt,
    /// Reinterpret bits (int ↔ ptr included).
    Bitcast,
}

impl CastOp {
    /// Short mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
            CastOp::FpTrunc => "fptrunc",
            CastOp::FpExt => "fpext",
            CastOp::Bitcast => "bitcast",
        }
    }

    /// Converts `v` from type `from` to type `to`, with LLVM's semantics
    /// where the IR can express them: `zext` zero-extends from `from`'s
    /// width, and `sitofp` to `F32` rounds once, straight to `f32`.
    ///
    /// Every evaluator's result is fitted to its type the same way: `I1`
    /// keeps the low bit, `I32` is held sign-extended in the `i64` payload,
    /// and `F32` is held as an `f32`-representable `f64`.
    #[inline(always)]
    pub fn eval(self, v: RtVal, from: Type, to: Type) -> RtVal {
        let r = match self {
            CastOp::Trunc | CastOp::Sext | CastOp::FpExt => v,
            CastOp::Zext => RtVal::I(match from {
                Type::I1 => v.as_i() & 1,
                Type::I32 => v.as_i() as u32 as i64,
                _ => v.as_i(),
            }),
            CastOp::FpToSi => RtVal::I(v.as_f() as i64),
            CastOp::SiToFp if to == Type::F32 => RtVal::F(v.as_i() as f32 as f64),
            CastOp::SiToFp => RtVal::F(v.as_i() as f64),
            CastOp::FpTrunc => RtVal::F(v.as_f() as f32 as f64),
            CastOp::Bitcast => RtVal::from_bits(v.to_bits(), to),
        };
        fit(r, to)
    }
}

/// Fits a raw result to its type `ty`, as described on [`CastOp::eval`].
#[inline(always)]
fn fit(r: RtVal, ty: Type) -> RtVal {
    match (r, ty) {
        (RtVal::I(x), Type::I1) => RtVal::I(x & 1),
        (RtVal::I(x), Type::I32) => RtVal::I(x as i32 as i64),
        (RtVal::F(x), Type::F32) => RtVal::F(x as f32 as f64),
        _ => r,
    }
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The target of a call instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Callee {
    /// A statically known function.
    Direct(FuncId),
    /// A function pointer computed at run time; `called-value-propagation`
    /// and `ipsccp` try to turn these into [`Callee::Direct`].
    Indirect(Value),
}

/// The operation performed by an instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstKind {
    /// Two-operand arithmetic; `width` > 1 marks a vectorized op covering
    /// `width` lanes (produced by `loop-vectorize`/`slp-vectorizer`).
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
        /// Vector lanes covered by the op (1 = scalar).
        width: u8,
    },
    /// One-operand arithmetic.
    Un {
        /// Operation.
        op: UnOp,
        /// Operand.
        val: Value,
    },
    /// Comparison producing an `I1`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Conditional move.
    Select {
        /// Condition (`I1`).
        cond: Value,
        /// Value when the condition is true.
        then_val: Value,
        /// Value when the condition is false.
        else_val: Value,
    },
    /// Type conversion; the instruction's `ty` is the destination type.
    Cast {
        /// Conversion kind.
        op: CastOp,
        /// Operand.
        val: Value,
    },
    /// SSA phi node.
    Phi {
        /// One incoming value per CFG predecessor.
        incomings: Vec<(BlockId, Value)>,
    },
    /// Stack allocation of `cells` 8-byte cells; result is a `Ptr`.
    Alloca {
        /// Number of cells allocated.
        cells: u32,
    },
    /// Memory load through a pointer.
    Load {
        /// Address.
        ptr: Value,
        /// Whether the access is known aligned (cost models charge
        /// unaligned accesses extra; see `alignment-from-assumptions`).
        aligned: bool,
        /// Vector lanes (1 = scalar).
        width: u8,
    },
    /// Memory store through a pointer.
    Store {
        /// Address.
        ptr: Value,
        /// Stored value.
        value: Value,
        /// Whether the access is known aligned.
        aligned: bool,
        /// Vector lanes (1 = scalar).
        width: u8,
    },
    /// Pointer arithmetic: `base + offset` in cells.
    Gep {
        /// Base pointer.
        base: Value,
        /// Cell offset.
        offset: Value,
    },
    /// Function call.
    Call {
        /// Call target.
        callee: Callee,
        /// Argument values.
        args: Vec<Value>,
    },
    /// Fill `count` cells starting at `ptr` with `value` (recognized by
    /// `loop-idiom`, executed natively by the interpreter).
    Memset {
        /// Destination.
        ptr: Value,
        /// Fill value (bit pattern of one cell).
        value: Value,
        /// Number of cells.
        count: Value,
    },
    /// Copy `count` cells from `src` to `dst`.
    Memcpy {
        /// Destination.
        dst: Value,
        /// Source.
        src: Value,
        /// Number of cells.
        count: Value,
    },
    /// `llvm.expect`-style hint: the result equals `val`, and `val` is
    /// expected to equal `expected`; `lower-expect` folds this into branch
    /// weights.
    Expect {
        /// The dynamic value.
        val: Value,
        /// The statically expected value.
        expected: i64,
    },
}

impl InstKind {
    /// Visits every operand value.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Un { val, .. } => f(*val),
            InstKind::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                f(*cond);
                f(*then_val);
                f(*else_val);
            }
            InstKind::Cast { val, .. } => f(*val),
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(*v);
                }
            }
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr, .. } => f(*ptr),
            InstKind::Store { ptr, value, .. } => {
                f(*ptr);
                f(*value);
            }
            InstKind::Gep { base, offset } => {
                f(*base);
                f(*offset);
            }
            InstKind::Call { callee, args } => {
                if let Callee::Indirect(v) = callee {
                    f(*v);
                }
                for a in args {
                    f(*a);
                }
            }
            InstKind::Memset { ptr, value, count } => {
                f(*ptr);
                f(*value);
                f(*count);
            }
            InstKind::Memcpy { dst, src, count } => {
                f(*dst);
                f(*src);
                f(*count);
            }
            InstKind::Expect { val, .. } => f(*val),
        }
    }

    /// Rewrites every operand value in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            InstKind::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::Un { val, .. } => *val = f(*val),
            InstKind::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            InstKind::Select {
                cond,
                then_val,
                else_val,
            } => {
                *cond = f(*cond);
                *then_val = f(*then_val);
                *else_val = f(*else_val);
            }
            InstKind::Cast { val, .. } => *val = f(*val),
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr, .. } => *ptr = f(*ptr),
            InstKind::Store { ptr, value, .. } => {
                *ptr = f(*ptr);
                *value = f(*value);
            }
            InstKind::Gep { base, offset } => {
                *base = f(*base);
                *offset = f(*offset);
            }
            InstKind::Call { callee, args } => {
                if let Callee::Indirect(v) = callee {
                    *v = f(*v);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            InstKind::Memset { ptr, value, count } => {
                *ptr = f(*ptr);
                *value = f(*value);
                *count = f(*count);
            }
            InstKind::Memcpy { dst, src, count } => {
                *dst = f(*dst);
                *src = f(*src);
                *count = f(*count);
            }
            InstKind::Expect { val, .. } => *val = f(*val),
        }
    }

    /// The pointer the instruction reads memory through: a load's address
    /// or a memcpy's source. Calls are not covered; whether one touches
    /// memory depends on its callee.
    pub fn read_ptr(&self) -> Option<Value> {
        match self {
            InstKind::Load { ptr, .. } | InstKind::Memcpy { src: ptr, .. } => Some(*ptr),
            _ => None,
        }
    }

    /// The pointer the instruction writes memory through: a store's or a
    /// memset's address, or a memcpy's destination. Calls are not covered,
    /// as for [`InstKind::read_ptr`].
    pub fn write_ptr(&self) -> Option<Value> {
        match self {
            InstKind::Store { ptr, .. }
            | InstKind::Memset { ptr, .. }
            | InstKind::Memcpy { dst: ptr, .. } => Some(*ptr),
            _ => None,
        }
    }

    /// Returns `true` if the instruction writes memory or performs control
    /// effects that make it unremovable even when its result is unused.
    ///
    /// Calls are conservatively side-effecting here. A direct call to a
    /// `readnone` function touches no memory; the pass crate's
    /// `call_may_touch_memory` answers that, because it needs the module.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. }
                | InstKind::Call { .. }
                | InstKind::Memset { .. }
                | InstKind::Memcpy { .. }
        )
    }

    /// Returns `true` if re-executing the instruction with the same operands
    /// yields the same result and no side effects (candidates for CSE and
    /// hoisting). Loads are excluded; the memory-aware phases handle them.
    pub fn is_pure(&self) -> bool {
        match self {
            InstKind::Bin { op, .. } => !op.may_trap(),
            InstKind::Un { .. }
            | InstKind::Cmp { .. }
            | InstKind::Select { .. }
            | InstKind::Cast { .. }
            | InstKind::Gep { .. }
            | InstKind::Expect { .. } => true,
            _ => false,
        }
    }

    /// Returns `true` for phi nodes.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstKind::Phi { .. })
    }
}

/// An instruction: an operation plus its result type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// What the instruction does.
    pub kind: InstKind,
    /// The type of the produced value (`Void` for stores etc.).
    pub ty: Type,
}

impl Inst {
    /// Creates a new instruction.
    pub fn new(kind: InstKind, ty: Type) -> Inst {
        Inst { kind, ty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_properties() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Add.is_associative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::FAdd.is_commutative());
        assert!(!BinOp::FAdd.is_associative());
        assert!(BinOp::SDiv.may_trap());
        assert!(!BinOp::Mul.may_trap());
        assert!(BinOp::FMul.is_float());
        assert!(!BinOp::Mul.is_float());
    }

    #[test]
    fn pred_algebra() {
        assert_eq!(CmpPred::Lt.swapped(), CmpPred::Gt);
        assert_eq!(CmpPred::Lt.negated(), CmpPred::Ge);
        assert_eq!(CmpPred::Eq.swapped(), CmpPred::Eq);
        assert!(CmpPred::Lt.eval_int(1, 2));
        assert!(!CmpPred::Lt.eval_int(2, 2));
        assert!(CmpPred::Le.eval_float(2.0, 2.0));
    }

    #[test]
    fn operand_visiting() {
        let k = InstKind::Bin {
            op: BinOp::Add,
            lhs: Value::i64(1),
            rhs: Value::i64(2),
            width: 1,
        };
        let mut seen = Vec::new();
        k.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::i64(1), Value::i64(2)]);
    }

    #[test]
    fn read_and_write_pointers() {
        let (p, q, n) = (Value::Param(0), Value::Param(1), Value::i64(4));
        let cases = [
            (
                InstKind::Load {
                    ptr: p,
                    aligned: true,
                    width: 1,
                },
                Some(p),
                None,
            ),
            (
                InstKind::Store {
                    ptr: p,
                    value: q,
                    aligned: true,
                    width: 1,
                },
                None,
                Some(p),
            ),
            (
                InstKind::Memset {
                    ptr: p,
                    value: q,
                    count: n,
                },
                None,
                Some(p),
            ),
            (
                InstKind::Memcpy {
                    dst: p,
                    src: q,
                    count: n,
                },
                Some(q),
                Some(p),
            ),
            (InstKind::Gep { base: p, offset: n }, None, None),
        ];
        for (kind, read, write) in cases {
            assert_eq!(kind.read_ptr(), read, "{kind:?}");
            assert_eq!(kind.write_ptr(), write, "{kind:?}");
        }
    }

    #[test]
    fn operand_mapping() {
        let mut k = InstKind::Select {
            cond: Value::bool(true),
            then_val: Value::i64(1),
            else_val: Value::i64(2),
        };
        k.map_operands(|v| if v == Value::i64(1) { Value::i64(9) } else { v });
        match k {
            InstKind::Select { then_val, .. } => assert_eq!(then_val, Value::i64(9)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn purity_and_effects() {
        assert!(InstKind::Cmp {
            pred: CmpPred::Eq,
            lhs: Value::i64(0),
            rhs: Value::i64(0)
        }
        .is_pure());
        assert!(!InstKind::Load {
            ptr: Value::Undef(Type::Ptr),
            aligned: true,
            width: 1
        }
        .is_pure());
        assert!(InstKind::Store {
            ptr: Value::Undef(Type::Ptr),
            value: Value::i64(0),
            aligned: true,
            width: 1
        }
        .has_side_effects());
        assert!(InstKind::Bin {
            op: BinOp::SDiv,
            lhs: Value::i64(1),
            rhs: Value::i64(0),
            width: 1
        }
        .may_trap_inst());
    }

    impl InstKind {
        fn may_trap_inst(&self) -> bool {
            matches!(self, InstKind::Bin { op, .. } if op.may_trap())
        }
    }
}
