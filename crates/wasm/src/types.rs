//! Wasm type grammar: value, function, limit, memory, table and global
//! types.

use core::fmt;

/// A Wasm value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// Function reference (table element type).
    FuncRef,
}

impl ValType {
    /// Binary encoding byte.
    pub fn byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7f,
            ValType::I64 => 0x7e,
            ValType::F32 => 0x7d,
            ValType::F64 => 0x7c,
            ValType::FuncRef => 0x70,
        }
    }

    /// Decodes from the binary encoding byte.
    pub fn from_byte(b: u8) -> Option<ValType> {
        match b {
            0x7f => Some(ValType::I32),
            0x7e => Some(ValType::I64),
            0x7d => Some(ValType::F32),
            0x7c => Some(ValType::F64),
            0x70 => Some(ValType::FuncRef),
            _ => None,
        }
    }
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
            ValType::FuncRef => "funcref",
        };
        f.write_str(s)
    }
}

/// A function signature.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FuncType {
    /// Parameter types, in order.
    pub params: Vec<ValType>,
    /// Result types, in order.
    pub results: Vec<ValType>,
}

impl FuncType {
    /// Builds a signature from slices.
    pub fn new(params: impl Into<Vec<ValType>>, results: impl Into<Vec<ValType>>) -> Self {
        FuncType {
            params: params.into(),
            results: results.into(),
        }
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Min/max size limits for memories and tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Initial size (pages or elements).
    pub min: u32,
    /// Optional maximum size.
    pub max: Option<u32>,
}

impl Limits {
    /// Checks internal consistency (`min <= max`).
    pub fn valid(&self) -> bool {
        self.max.is_none_or(|m| self.min <= m)
    }
}

/// A memory type (limits in 64 KiB pages, optionally shared).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoryType {
    /// Page limits.
    pub limits: Limits,
    /// Whether this memory may be shared between threads
    /// (instance-per-thread sharing; paper §3.1).
    pub shared: bool,
}

/// A table type (funcref only, per core MVP).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableType {
    /// Element count limits.
    pub limits: Limits,
}

/// A global variable type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GlobalType {
    /// Value type of the global.
    pub ty: ValType,
    /// Whether the global is mutable.
    pub mutable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_byte_round_trip() {
        for t in [
            ValType::I32,
            ValType::I64,
            ValType::F32,
            ValType::F64,
            ValType::FuncRef,
        ] {
            assert_eq!(ValType::from_byte(t.byte()), Some(t));
        }
        assert_eq!(ValType::from_byte(0x00), None);
    }

    #[test]
    fn limits_validity() {
        assert!(Limits { min: 1, max: None }.valid());
        assert!(Limits {
            min: 1,
            max: Some(1)
        }
        .valid());
        assert!(!Limits {
            min: 2,
            max: Some(1)
        }
        .valid());
    }

    #[test]
    fn functype_display() {
        let ft = FuncType::new([ValType::I32, ValType::I64], [ValType::I32]);
        assert_eq!(ft.to_string(), "(i32, i64) -> (i32)");
    }
}
