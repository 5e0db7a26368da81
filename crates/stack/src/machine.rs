//! The reference stack-machine interpreter (unbounded stacks).
//!
//! This is the *semantic* machine and the execution engine for visit
//! extraction. One [`StackMachine::step`] executes one instruction and
//! reports its memory effect, which the EM² layer turns into
//! placement/migration decisions.

use crate::isa::Op;
use em2_model::Addr;
use std::collections::HashMap;

/// Sparse 32-bit word memory, byte-addressed (word aligned).
#[derive(Clone, Debug, Default)]
pub struct SparseMemory {
    words: HashMap<u32, u32>,
}

impl SparseMemory {
    /// An empty memory (all zeroes).
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Pre-load a slice of words starting at `base`.
    pub fn load_words(&mut self, base: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.words.insert(base + 4 * i as u32, w);
        }
    }

    /// Load the 32-bit word at `addr` (must be 4-byte aligned).
    pub fn load(&self, addr: u32) -> u32 {
        debug_assert_eq!(addr % 4, 0, "unaligned load at {addr:#x}");
        *self.words.get(&addr).unwrap_or(&0)
    }

    /// Store a 32-bit word to `addr` (must be 4-byte aligned).
    pub fn store(&mut self, addr: u32, value: u32) {
        debug_assert_eq!(addr % 4, 0, "unaligned store at {addr:#x}");
        self.words.insert(addr, value);
    }
}

/// What one instruction did, as seen by the EM² layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Non-memory instruction.
    Compute,
    /// Loaded from this byte address.
    Read(Addr),
    /// Stored to this byte address.
    Write(Addr),
    /// Program finished.
    Halted,
}

/// Interpreter errors (program bugs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// Expression-stack underflow at the given PC.
    ExprUnderflow(usize),
    /// Return-stack underflow at the given PC.
    RetUnderflow(usize),
    /// PC ran off the end of the program.
    PcOutOfRange(usize),
    /// Exceeded the configured step budget (runaway loop guard).
    StepBudgetExceeded,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::ExprUnderflow(pc) => write!(f, "expression stack underflow at pc {pc}"),
            MachineError::RetUnderflow(pc) => write!(f, "return stack underflow at pc {pc}"),
            MachineError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range"),
            MachineError::StepBudgetExceeded => write!(f, "step budget exceeded"),
        }
    }
}

impl std::error::Error for MachineError {}

/// The reference interpreter.
#[derive(Clone, Debug)]
pub struct StackMachine {
    program: Vec<Op>,
    /// Expression stack (top = last element).
    pub expr: Vec<u32>,
    /// Return stack (top = last element).
    pub rstack: Vec<u32>,
    /// Program counter (instruction index).
    pub pc: usize,
    halted: bool,
    steps: u64,
}

impl StackMachine {
    /// A machine about to execute `program` from instruction 0.
    pub fn new(program: Vec<Op>) -> Self {
        StackMachine {
            program,
            expr: Vec::new(),
            rstack: Vec::new(),
            pc: 0,
            halted: false,
            steps: 0,
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &[Op] {
        &self.program
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Combined depth of both stacks — the quantity the §4 migration
    /// carries a top-slice of.
    pub fn depth(&self) -> usize {
        self.expr.len() + self.rstack.len()
    }

    fn pop(&mut self) -> Result<u32, MachineError> {
        self.expr.pop().ok_or(MachineError::ExprUnderflow(self.pc))
    }

    /// Execute one instruction.
    pub fn step(&mut self, mem: &mut SparseMemory) -> Result<Effect, MachineError> {
        if self.halted {
            return Ok(Effect::Halted);
        }
        let Some(&op) = self.program.get(self.pc) else {
            return Err(MachineError::PcOutOfRange(self.pc));
        };
        self.steps += 1;
        let mut next_pc = self.pc + 1;
        let mut effect = Effect::Compute;
        match op {
            Op::Lit(n) => self.expr.push(n),
            Op::Add => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a.wrapping_add(b));
            }
            Op::Sub => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a.wrapping_sub(b));
            }
            Op::Mul => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a.wrapping_mul(b));
            }
            Op::And => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a & b);
            }
            Op::Or => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a | b);
            }
            Op::Xor => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a ^ b);
            }
            Op::Not => {
                let a = self.pop()?;
                self.expr.push(!a);
            }
            Op::Shl => {
                let n = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a.wrapping_shl(n));
            }
            Op::Shr => {
                let n = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a.wrapping_shr(n));
            }
            Op::Eq => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(u32::from(a == b));
            }
            Op::Lt => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(u32::from(a < b));
            }
            Op::Gt => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(u32::from(a > b));
            }
            Op::Dup => {
                let a = self.pop()?;
                self.expr.push(a);
                self.expr.push(a);
            }
            Op::Drop => {
                self.pop()?;
            }
            Op::Swap => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(b);
                self.expr.push(a);
            }
            Op::Over => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(a);
                self.expr.push(b);
                self.expr.push(a);
            }
            Op::Rot => {
                let c = self.pop()?;
                let b = self.pop()?;
                let a = self.pop()?;
                self.expr.push(b);
                self.expr.push(c);
                self.expr.push(a);
            }
            Op::Nip => {
                let b = self.pop()?;
                self.pop()?;
                self.expr.push(b);
            }
            Op::ToR => {
                let a = self.pop()?;
                self.rstack.push(a);
            }
            Op::FromR => {
                let a = self
                    .rstack
                    .pop()
                    .ok_or(MachineError::RetUnderflow(self.pc))?;
                self.expr.push(a);
            }
            Op::RFetch => {
                let a = *self
                    .rstack
                    .last()
                    .ok_or(MachineError::RetUnderflow(self.pc))?;
                self.expr.push(a);
            }
            Op::Load => {
                let addr = self.pop()?;
                let v = mem.load(addr);
                self.expr.push(v);
                effect = Effect::Read(Addr(addr as u64));
            }
            Op::Store => {
                let addr = self.pop()?;
                let v = self.pop()?;
                mem.store(addr, v);
                effect = Effect::Write(Addr(addr as u64));
            }
            Op::Jmp(t) => next_pc = t as usize,
            Op::Jz(t) => {
                let c = self.pop()?;
                if c == 0 {
                    next_pc = t as usize;
                }
            }
            Op::Call(t) => {
                self.rstack.push(next_pc as u32);
                next_pc = t as usize;
            }
            Op::Ret => {
                next_pc = self
                    .rstack
                    .pop()
                    .ok_or(MachineError::RetUnderflow(self.pc))? as usize;
            }
            Op::Halt => {
                self.halted = true;
                return Ok(Effect::Halted);
            }
            Op::Nop => {}
        }
        self.pc = next_pc;
        Ok(effect)
    }

    /// Run until `Halt` or the step budget is exhausted.
    pub fn run(&mut self, mem: &mut SparseMemory, max_steps: u64) -> Result<(), MachineError> {
        let budget = self.steps + max_steps;
        while !self.halted {
            if self.steps >= budget {
                return Err(MachineError::StepBudgetExceeded);
            }
            self.step(mem)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_expr(ops: Vec<Op>) -> Vec<u32> {
        let mut m = StackMachine::new(ops);
        let mut mem = SparseMemory::new();
        m.run(&mut mem, 10_000).unwrap();
        m.expr.clone()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run_expr(vec![Op::Lit(2), Op::Lit(3), Op::Add, Op::Halt]),
            vec![5]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(7), Op::Lit(3), Op::Sub, Op::Halt]),
            vec![4]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(6), Op::Lit(7), Op::Mul, Op::Halt]),
            vec![42]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(3), Op::Shl, Op::Halt]),
            vec![8]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(0), Op::Lit(1), Op::Sub, Op::Halt]),
            vec![u32::MAX],
            "wrapping subtraction"
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            run_expr(vec![Op::Lit(2), Op::Lit(2), Op::Eq, Op::Halt]),
            vec![1]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Lt, Op::Halt]),
            vec![1]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Gt, Op::Halt]),
            vec![0]
        );
    }

    #[test]
    fn stack_shuffles() {
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Swap, Op::Halt]),
            vec![2, 1]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Over, Op::Halt]),
            vec![1, 2, 1]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Lit(3), Op::Rot, Op::Halt]),
            vec![2, 3, 1]
        );
        assert_eq!(
            run_expr(vec![Op::Lit(1), Op::Lit(2), Op::Nip, Op::Halt]),
            vec![2]
        );
        assert_eq!(run_expr(vec![Op::Lit(9), Op::Dup, Op::Halt]), vec![9, 9]);
    }

    #[test]
    fn return_stack_ops() {
        assert_eq!(
            run_expr(vec![
                Op::Lit(5),
                Op::ToR,
                Op::RFetch,
                Op::FromR,
                Op::Add,
                Op::Halt
            ]),
            vec![10]
        );
    }

    #[test]
    fn memory_round_trip() {
        let mut m = StackMachine::new(vec![
            Op::Lit(99),
            Op::Lit(0x100),
            Op::Store,
            Op::Lit(0x100),
            Op::Load,
            Op::Halt,
        ]);
        let mut mem = SparseMemory::new();
        let e1 = m.step(&mut mem).unwrap();
        let e2 = m.step(&mut mem).unwrap();
        let e3 = m.step(&mut mem).unwrap();
        assert_eq!(e1, Effect::Compute);
        assert_eq!(e2, Effect::Compute);
        assert_eq!(e3, Effect::Write(Addr(0x100)));
        let e4 = m.step(&mut mem).unwrap();
        let e5 = m.step(&mut mem).unwrap();
        assert_eq!(e4, Effect::Compute);
        assert_eq!(e5, Effect::Read(Addr(0x100)));
        assert_eq!(m.expr, vec![99]);
        assert_eq!(mem.load(0x100), 99);
    }

    #[test]
    fn control_flow_loop() {
        // Sum 1..=5 with a countdown loop:
        //   acc = 0; n = 5; while n != 0 { acc += n; n -= 1 }
        // expr stack: [acc, n]
        let prog = vec![
            Op::Lit(0), // 0: acc
            Op::Lit(5), // 1: n
            Op::Dup,    // 2: loop: n n
            Op::Jz(9),  // 3: exit when n == 0
            Op::Dup,    // 4: acc n n
            Op::Rot,    // 5: n n acc -> wait: (a b c -- b c a): [acc,n,n]->[n,n,acc]
            Op::Add,    // 6: n (n+acc)
            Op::Swap,   // 7: (acc') n
            Op::Lit(1),
            // ^ pc 8
            Op::Sub, // 9... careful with indices
            Op::Jmp(2),
            Op::Halt,
        ];
        // Fix targets: exit lands on Halt at index 11; but Jz(9) pops
        // and jumps to Lit(1)? Rebuild with explicit indices:
        let prog = {
            let mut p = prog;
            p[3] = Op::Jz(11); // exit to Halt
            p
        };
        let mut m = StackMachine::new(prog);
        let mut mem = SparseMemory::new();
        m.run(&mut mem, 1000).unwrap();
        assert_eq!(m.expr, vec![15, 0]); // acc = 15, n = 0
    }

    #[test]
    fn call_and_ret() {
        // main: call double(21); halt.  double: dup add ret
        let prog = vec![
            Op::Lit(21),
            Op::Call(3),
            Op::Halt,
            Op::Dup, // double:
            Op::Add,
            Op::Ret,
        ];
        assert_eq!(run_expr(prog), vec![42]);
    }

    #[test]
    fn underflow_detected() {
        let mut m = StackMachine::new(vec![Op::Add, Op::Halt]);
        let mut mem = SparseMemory::new();
        assert!(matches!(
            m.step(&mut mem),
            Err(MachineError::ExprUnderflow(0))
        ));
        let mut m2 = StackMachine::new(vec![Op::Ret]);
        assert!(matches!(
            m2.step(&mut mem),
            Err(MachineError::RetUnderflow(0))
        ));
    }

    #[test]
    fn step_budget_guards_runaway() {
        let mut m = StackMachine::new(vec![Op::Jmp(0)]);
        let mut mem = SparseMemory::new();
        assert_eq!(m.run(&mut mem, 100), Err(MachineError::StepBudgetExceeded));
    }

    #[test]
    fn stack_effect_metadata_matches_interpreter() {
        // For every non-control op, the expression-stack delta must
        // equal pushes - pops. Setup provides exactly enough operands
        // (addresses use 4 so loads/stores stay aligned).
        let cases: Vec<(Vec<Op>, Op)> = vec![
            (vec![Op::Lit(1), Op::Lit(2)], Op::Add),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Sub),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Mul),
            (vec![Op::Lit(1), Op::Lit(2)], Op::And),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Or),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Xor),
            (vec![Op::Lit(1)], Op::Not),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Shl),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Shr),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Eq),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Lt),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Gt),
            (vec![Op::Lit(1)], Op::Dup),
            (vec![Op::Lit(1)], Op::Drop),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Swap),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Over),
            (vec![Op::Lit(1), Op::Lit(2), Op::Lit(3)], Op::Rot),
            (vec![Op::Lit(1), Op::Lit(2)], Op::Nip),
            (vec![Op::Lit(1)], Op::ToR),
            (vec![], Op::Lit(5)),
            (vec![Op::Lit(4)], Op::Load),
            (vec![Op::Lit(9), Op::Lit(4)], Op::Store),
            (vec![], Op::Nop),
        ];
        for (setup, op) in cases {
            let mut prog = setup.clone();
            prog.push(op);
            prog.push(Op::Halt);
            let mut m = StackMachine::new(prog);
            let mut mem = SparseMemory::new();
            for _ in 0..setup.len() {
                m.step(&mut mem).unwrap();
            }
            let before = m.expr.len() as i64;
            m.step(&mut mem).unwrap();
            let after = m.expr.len() as i64;
            assert_eq!(
                after - before,
                op.pushes() as i64 - op.pops() as i64,
                "metadata mismatch for {op}"
            );
        }
    }

    #[test]
    fn halted_machine_stays_halted() {
        let mut m = StackMachine::new(vec![Op::Halt]);
        let mut mem = SparseMemory::new();
        assert_eq!(m.step(&mut mem).unwrap(), Effect::Halted);
        assert_eq!(m.step(&mut mem).unwrap(), Effect::Halted);
    }
}
