//! The stack ISA: a 32-bit, two-stack machine.
//!
//! Most instructions take their operands implicitly from the top of
//! the **expression stack**; the **return stack** holds return
//! addresses and loop counters (the classic organization the paper
//! describes, "the top few entries of each stack … cached in registers
//! and backed by a region of main memory").

use std::fmt;

/// One instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    // ---- literals & arithmetic (expression stack) ----
    /// Push an immediate: `( -- n )`.
    Lit(u32),
    /// `( a b -- a+b )` wrapping.
    Add,
    /// `( a b -- a-b )` wrapping.
    Sub,
    /// `( a b -- a*b )` wrapping.
    Mul,
    /// `( a b -- a&b )`.
    And,
    /// `( a b -- a|b )`.
    Or,
    /// `( a b -- a^b )`.
    Xor,
    /// `( a -- !a )` bitwise complement.
    Not,
    /// `( a n -- a<<n )`.
    Shl,
    /// `( a n -- a>>n )` logical.
    Shr,
    // ---- comparisons (1 = true, 0 = false) ----
    /// `( a b -- a==b )`.
    Eq,
    /// `( a b -- a<b )` unsigned.
    Lt,
    /// `( a b -- a>b )` unsigned.
    Gt,
    // ---- stack manipulation ----
    /// `( a -- a a )`.
    Dup,
    /// `( a -- )`.
    Drop,
    /// `( a b -- b a )`.
    Swap,
    /// `( a b -- a b a )`.
    Over,
    /// `( a b c -- b c a )`.
    Rot,
    /// `( a b -- b )`.
    Nip,
    // ---- return-stack traffic ----
    /// Move to return stack: `( a -- ) (R: -- a)`.
    ToR,
    /// Move from return stack: `( -- a ) (R: a -- )`.
    FromR,
    /// Copy top of return stack: `( -- a ) (R: a -- a)`.
    RFetch,
    // ---- memory ----
    /// `( addr -- [addr] )` 32-bit load from a byte address.
    Load,
    /// `( v addr -- )` 32-bit store to a byte address.
    Store,
    // ---- control flow (instruction-index targets) ----
    /// Unconditional jump.
    Jmp(u32),
    /// `( c -- )` jump when `c == 0`.
    Jz(u32),
    /// Push return address to the return stack and jump.
    Call(u32),
    /// Pop the return stack into the PC.
    Ret,
    /// Stop execution.
    Halt,
    /// Do nothing.
    Nop,
}

impl Op {
    /// Expression-stack pops.
    pub const fn pops(&self) -> u32 {
        match self {
            Op::Lit(_)
            | Op::FromR
            | Op::RFetch
            | Op::Jmp(_)
            | Op::Call(_)
            | Op::Ret
            | Op::Halt
            | Op::Nop => 0,
            Op::Not | Op::Dup | Op::Drop | Op::ToR | Op::Load | Op::Jz(_) => 1,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::Eq
            | Op::Lt
            | Op::Gt
            | Op::Swap
            | Op::Over
            | Op::Nip
            | Op::Store => 2,
            Op::Rot => 3,
        }
    }

    /// Expression-stack pushes.
    pub const fn pushes(&self) -> u32 {
        match self {
            Op::Drop
            | Op::ToR
            | Op::Store
            | Op::Jmp(_)
            | Op::Jz(_)
            | Op::Call(_)
            | Op::Ret
            | Op::Halt
            | Op::Nop => 0,
            Op::Lit(_)
            | Op::Not
            | Op::FromR
            | Op::RFetch
            | Op::Load
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::Eq
            | Op::Lt
            | Op::Gt
            | Op::Nip => 1,
            Op::Dup | Op::Swap => 2,
            Op::Over => 3,
            Op::Rot => 3,
        }
    }

    /// Mnemonic (without operand).
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            Op::Lit(_) => "lit",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Not => "not",
            Op::Shl => "shl",
            Op::Shr => "shr",
            Op::Eq => "eq",
            Op::Lt => "lt",
            Op::Gt => "gt",
            Op::Dup => "dup",
            Op::Drop => "drop",
            Op::Swap => "swap",
            Op::Over => "over",
            Op::Rot => "rot",
            Op::Nip => "nip",
            Op::ToR => "tor",
            Op::FromR => "fromr",
            Op::RFetch => "rfetch",
            Op::Load => "load",
            Op::Store => "store",
            Op::Jmp(_) => "jmp",
            Op::Jz(_) => "jz",
            Op::Call(_) => "call",
            Op::Ret => "ret",
            Op::Halt => "halt",
            Op::Nop => "nop",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Lit(n) => write!(f, "lit {n}"),
            Op::Jmp(t) => write!(f, "jmp {t}"),
            Op::Jz(t) => write!(f, "jz {t}"),
            Op::Call(t) => write!(f, "call {t}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_effect_metadata_is_sane() {
        // Net effect bounds: no op pops more than 3 or pushes more than 3.
        for op in [
            Op::Lit(1),
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Not,
            Op::Shl,
            Op::Shr,
            Op::Eq,
            Op::Lt,
            Op::Gt,
            Op::Dup,
            Op::Drop,
            Op::Swap,
            Op::Over,
            Op::Rot,
            Op::Nip,
            Op::ToR,
            Op::FromR,
            Op::RFetch,
            Op::Load,
            Op::Store,
            Op::Jmp(0),
            Op::Jz(0),
            Op::Call(0),
            Op::Ret,
            Op::Halt,
            Op::Nop,
        ] {
            assert!(op.pops() <= 3, "{op}");
            assert!(op.pushes() <= 3, "{op}");
        }
    }

    #[test]
    fn display_round() {
        assert_eq!(Op::Lit(42).to_string(), "lit 42");
        assert_eq!(Op::Jz(7).to_string(), "jz 7");
        assert_eq!(Op::Add.to_string(), "add");
    }
}
