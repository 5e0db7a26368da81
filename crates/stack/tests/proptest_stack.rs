//! Property-based tests: the assembler against every op, and ISA
//! metadata conformance.

use em2_model::DetRng;
use em2_stack::{assemble, Op, SparseMemory, StackMachine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assembler_parses_every_op(seed in any::<u64>(), len in 1usize..60) {
        // A random (not necessarily runnable) program over all 30 ops,
        // written out one labelled line per op with jumps and calls
        // naming labels; assembling the text must give it back.
        let mut rng = DetRng::new(seed);
        let prog: Vec<Op> = (0..len)
            .map(|_| {
                let t = rng.below(len as u64) as u32;
                let ops = [
                    Op::Lit(rng.next_u64() as u32),
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
                    Op::Jmp(t),
                    Op::Jz(t),
                    Op::Call(t),
                    Op::Ret,
                    Op::Halt,
                    Op::Nop,
                ];
                *rng.choose(&ops)
            })
            .collect();
        let text: String = prog
            .iter()
            .enumerate()
            .map(|(i, op)| match op {
                Op::Jmp(t) | Op::Jz(t) | Op::Call(t) => {
                    format!("L{i}: {} L{t}\n", op.mnemonic())
                }
                _ => format!("L{i}: {op}\n"),
            })
            .collect();
        prop_assert_eq!(assemble(&text).unwrap(), prog);
    }

    #[test]
    fn interpreter_respects_stack_effect_metadata(
        seed in any::<u64>(),
        steps in 1usize..200,
    ) {
        // Run a random arithmetic program (no control flow, memory at
        // fixed aligned addresses) and check each step's depth delta
        // against the ISA metadata.
        let mut rng = DetRng::new(seed);
        let mut prog: Vec<Op> = Vec::new();
        // Seed enough literals that pops can't underflow if we track depth.
        let mut depth = 0i64;
        for _ in 0..steps {
            let candidates: Vec<Op> = vec![
                Op::Lit(rng.next_u64() as u32 & 0xFFFF),
                Op::Add,
                Op::Sub,
                Op::Mul,
                Op::Dup,
                Op::Drop,
                Op::Swap,
                Op::Over,
                Op::Nip,
                Op::Lit(64), // aligned address feeder
            ];
            let viable: Vec<Op> = candidates
                .into_iter()
                .filter(|op| depth >= op.pops() as i64)
                .collect();
            let op = *rng.choose(&viable);
            depth += op.pushes() as i64 - op.pops() as i64;
            prog.push(op);
        }
        prog.push(Op::Halt);
        let mut m = StackMachine::new(prog.clone());
        let mut mem = SparseMemory::new();
        for op in &prog {
            if matches!(op, Op::Halt) {
                break;
            }
            let before = m.expr.len() as i64;
            m.step(&mut mem).unwrap();
            let after = m.expr.len() as i64;
            prop_assert_eq!(
                after - before,
                op.pushes() as i64 - op.pops() as i64,
                "{} violated its metadata", op
            );
        }
    }
}
