//! # em2-stack
//!
//! The stack-machine EM² architecture (paper §4).
//!
//! *"Stack architectures, which do not have a random-access register
//! file, offer a natural solution … because instructions can only
//! access the top of the stack, only the top few entries must be sent
//! over to a remote core when a memory access causes a migration."*
//!
//! This crate runs stack programs and extracts what E6 prices:
//!
//! * [`isa`] — a two-stack (expression + return) 32-bit stack ISA in
//!   the Forth/B5000 lineage the paper cites (Koopman \[16\]);
//! * [`asm`] — a text assembler with labels;
//! * [`machine`] — the reference interpreter with unbounded stacks;
//! * [`program`] — kernel builders (dot product, 1-D stencil, memcpy,
//!   recursive tree sum) used by the E6 experiments;
//! * [`visits`] — runs a program against a data placement and extracts
//!   the [`em2_optimal::StackVisit`] sequence (per-visit stack demand
//!   and growth) consumed by the §4 depth-decision DP.
//!
//! The hardware stack cache — resident top entries, spill and refill
//! at the native core, the automatic bounce home on under/overflow —
//! is priced by [`em2_optimal::stack_depth`], not executed here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod isa;
pub mod machine;
pub mod program;
pub mod visits;

pub use asm::{assemble, AsmError};
pub use isa::Op;
pub use machine::{Effect, MachineError, SparseMemory, StackMachine};
pub use visits::{extract_visits, VisitTrace};
