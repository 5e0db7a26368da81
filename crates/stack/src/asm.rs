//! Text assembler for the stack ISA.
//!
//! Syntax: one instruction per line; `label:` defines a jump target;
//! `;` or `#` start comments. Operands are decimal immediates (`lit`)
//! or label names (`jmp`, `jz`, `call`).
//!
//! ```
//! use em2_stack::{assemble, StackMachine, SparseMemory};
//!
//! let prog = assemble(r"
//!     lit 21
//!     call double
//!     halt
//! double:
//!     dup
//!     add
//!     ret
//! ").unwrap();
//! let mut m = StackMachine::new(prog);
//! let mut mem = SparseMemory::new();
//! m.run(&mut mem, 100).unwrap();
//! assert_eq!(m.expr, vec![42]);
//! ```

use crate::isa::Op;
use std::collections::HashMap;

/// Assembly errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// Unknown mnemonic at 1-based line.
    UnknownMnemonic(usize, String),
    /// Missing or malformed operand.
    BadOperand(usize, String),
    /// Jump/call to an undefined label.
    UndefinedLabel(String),
    /// The same label defined twice.
    DuplicateLabel(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnknownMnemonic(l, m) => write!(f, "line {l}: unknown mnemonic {m:?}"),
            AsmError::BadOperand(l, m) => write!(f, "line {l}: bad operand {m:?}"),
            AsmError::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
        }
    }
}

impl std::error::Error for AsmError {}

enum PendingOp {
    Done(Op),
    Jmp(String),
    Jz(String),
    Call(String),
}

/// Assemble source text into a program.
pub fn assemble(src: &str) -> Result<Vec<Op>, AsmError> {
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut pending: Vec<(usize, PendingOp)> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        // Leading labels (possibly several on one line).
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if labels
                .insert(label.to_string(), pending.len() as u32)
                .is_some()
            {
                return Err(AsmError::DuplicateLabel(label.to_string()));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let mut parts = rest.split_whitespace();
        let mnemonic = parts.next().unwrap().to_lowercase();
        let operand = parts.next();
        let n = lineno + 1;
        if let Some(extra) = parts.next() {
            return Err(AsmError::BadOperand(n, format!("trailing token {extra:?}")));
        }
        let op = match mnemonic.as_str() {
            "lit" => {
                let text = operand.ok_or_else(|| AsmError::BadOperand(n, rest.into()))?;
                let v = if let Some(hex) = text.strip_prefix("0x") {
                    u32::from_str_radix(hex, 16)
                } else {
                    text.parse()
                }
                .map_err(|_| AsmError::BadOperand(n, text.into()))?;
                PendingOp::Done(Op::Lit(v))
            }
            "jmp" => PendingOp::Jmp(
                operand
                    .ok_or_else(|| AsmError::BadOperand(n, rest.into()))?
                    .to_string(),
            ),
            "jz" => PendingOp::Jz(
                operand
                    .ok_or_else(|| AsmError::BadOperand(n, rest.into()))?
                    .to_string(),
            ),
            "call" => PendingOp::Call(
                operand
                    .ok_or_else(|| AsmError::BadOperand(n, rest.into()))?
                    .to_string(),
            ),
            "add" => PendingOp::Done(Op::Add),
            "sub" => PendingOp::Done(Op::Sub),
            "mul" => PendingOp::Done(Op::Mul),
            "and" => PendingOp::Done(Op::And),
            "or" => PendingOp::Done(Op::Or),
            "xor" => PendingOp::Done(Op::Xor),
            "not" => PendingOp::Done(Op::Not),
            "shl" => PendingOp::Done(Op::Shl),
            "shr" => PendingOp::Done(Op::Shr),
            "eq" => PendingOp::Done(Op::Eq),
            "lt" => PendingOp::Done(Op::Lt),
            "gt" => PendingOp::Done(Op::Gt),
            "dup" => PendingOp::Done(Op::Dup),
            "drop" => PendingOp::Done(Op::Drop),
            "swap" => PendingOp::Done(Op::Swap),
            "over" => PendingOp::Done(Op::Over),
            "rot" => PendingOp::Done(Op::Rot),
            "nip" => PendingOp::Done(Op::Nip),
            "tor" => PendingOp::Done(Op::ToR),
            "fromr" => PendingOp::Done(Op::FromR),
            "rfetch" => PendingOp::Done(Op::RFetch),
            "load" => PendingOp::Done(Op::Load),
            "store" => PendingOp::Done(Op::Store),
            "ret" => PendingOp::Done(Op::Ret),
            "halt" => PendingOp::Done(Op::Halt),
            "nop" => PendingOp::Done(Op::Nop),
            other => return Err(AsmError::UnknownMnemonic(n, other.into())),
        };
        pending.push((n, op));
    }

    pending
        .into_iter()
        .map(|(_, p)| match p {
            PendingOp::Done(op) => Ok(op),
            PendingOp::Jmp(l) => labels
                .get(&l)
                .map(|&t| Op::Jmp(t))
                .ok_or(AsmError::UndefinedLabel(l)),
            PendingOp::Jz(l) => labels
                .get(&l)
                .map(|&t| Op::Jz(t))
                .ok_or(AsmError::UndefinedLabel(l)),
            PendingOp::Call(l) => labels
                .get(&l)
                .map(|&t| Op::Call(t))
                .ok_or(AsmError::UndefinedLabel(l)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{SparseMemory, StackMachine};

    #[test]
    fn assembles_simple_program() {
        let p = assemble("lit 2\nlit 3\nadd\nhalt").unwrap();
        assert_eq!(p, vec![Op::Lit(2), Op::Lit(3), Op::Add, Op::Halt]);
    }

    #[test]
    fn hex_literals() {
        let p = assemble("lit 0x10\nhalt").unwrap();
        assert_eq!(p[0], Op::Lit(16));
    }

    #[test]
    fn labels_resolve_forward_and_back() {
        let p = assemble(
            r"
            start:
                lit 1
                jz start   ; backward
                jmp end    ; forward
            end:
                halt
            ",
        )
        .unwrap();
        assert_eq!(p, vec![Op::Lit(1), Op::Jz(0), Op::Jmp(3), Op::Halt]);
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble("# header\n  ; note\nlit 1 ; trailing\nhalt").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(matches!(
            assemble("frobnicate"),
            Err(AsmError::UnknownMnemonic(1, _))
        ));
        assert!(matches!(assemble("lit"), Err(AsmError::BadOperand(1, _))));
        assert!(matches!(
            assemble("lit zzz"),
            Err(AsmError::BadOperand(1, _))
        ));
        assert!(matches!(
            assemble("jmp nowhere"),
            Err(AsmError::UndefinedLabel(_))
        ));
        assert!(matches!(
            assemble("a:\nnop\na:\nnop"),
            Err(AsmError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn doc_example_runs() {
        let prog = assemble(
            r"
                lit 21
                call double
                halt
            double:
                dup
                add
                ret
            ",
        )
        .unwrap();
        let mut m = StackMachine::new(prog);
        let mut mem = SparseMemory::new();
        m.run(&mut mem, 100).unwrap();
        assert_eq!(m.expr, vec![42]);
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("top: lit 1\njmp top").unwrap();
        assert_eq!(p, vec![Op::Lit(1), Op::Jmp(0)]);
    }
}
