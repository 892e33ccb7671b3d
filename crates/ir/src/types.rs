//! Value types of the IR.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of an IR value.
///
/// The IR is word-oriented: memory is addressed in 8-byte cells, so pointer
/// arithmetic counts cells rather than bytes. `I32`/`F32` exist so that
/// narrowing/widening casts (and the phases that exploit them, like `bdce`
/// and `float2int`) are meaningful; the interpreter wraps `I32` arithmetic to
/// 32 bits and rounds `F32` arithmetic through `f32`.
///
/// # Example
///
/// ```
/// use mlcomp_ir::Type;
/// assert!(Type::F64.is_float());
/// assert!(Type::I32.is_int());
/// assert_eq!(Type::I1.bit_width(), Some(1));
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Type {
    /// No value (function returns, store results).
    #[default]
    Void,
    /// Boolean, the result of comparisons.
    I1,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Pointer into the cell-addressed memory space.
    Ptr,
}

impl Type {
    /// Returns `true` for the integer types `I1`, `I32` and `I64`.
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64)
    }

    /// Returns `true` for `F32` and `F64`.
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Returns `true` for `Ptr`.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Bit width of integer types; `None` for non-integers.
    pub fn bit_width(self) -> Option<u32> {
        match self {
            Type::I1 => Some(1),
            Type::I32 => Some(32),
            Type::I64 => Some(64),
            _ => None,
        }
    }

    /// Returns `true` if a value of this type carries data (i.e. not `Void`).
    pub fn has_value(self) -> bool {
        self != Type::Void
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::Void => "void",
            Type::I1 => "i1",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Type::I1.is_int());
        assert!(Type::I32.is_int());
        assert!(Type::I64.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::F32.is_float());
        assert!(Type::F64.is_float());
        assert!(Type::Ptr.is_ptr());
        assert!(!Type::Void.has_value());
        assert!(Type::I64.has_value());
    }

    #[test]
    fn bit_widths() {
        assert_eq!(Type::I1.bit_width(), Some(1));
        assert_eq!(Type::I32.bit_width(), Some(32));
        assert_eq!(Type::I64.bit_width(), Some(64));
        assert_eq!(Type::F64.bit_width(), None);
        assert_eq!(Type::Ptr.bit_width(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Type::I64.to_string(), "i64");
        assert_eq!(Type::Void.to_string(), "void");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
