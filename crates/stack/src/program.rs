//! Kernel builders: the stack programs the §4 experiments run.
//!
//! Each builder takes the addresses its data lives at and returns the
//! assembled program. The kernels span the structural range that
//! matters for stack-EM²: streaming loops with shallow stacks
//! (`dot_product`, `memcpy`, `stencil1d`), and recursive kernels whose
//! return stack grows deep right where the memory accesses happen
//! (`tree_sum`) — the adversarial case for small migrated depths.

use crate::asm::assemble;
use crate::isa::Op;

/// `result = Σ a[i] * b[i]` over `n` 32-bit words.
/// `a` at `a_base`, `b` at `b_base`, result stored to `result_addr`.
pub fn dot_product(a_base: u32, b_base: u32, n: u32, result_addr: u32) -> Vec<Op> {
    let source = format!(
        r"
            lit 0           ; sum
            lit 0           ; i
        loop:
            dup
            lit {n}
            lt
            jz done         ; while i < n
            dup             ; sum i i
            lit 4
            mul
            lit {a_base}
            add
            load            ; sum i a[i]
            over            ; sum i a[i] i
            lit 4
            mul
            lit {b_base}
            add
            load            ; sum i a[i] b[i]
            mul             ; sum i prod
            rot             ; i prod sum
            add             ; i sum'
            swap            ; sum' i
            lit 1
            add
            jmp loop
        done:
            drop            ; sum
            lit {result_addr}
            store
            halt
        "
    );
    assemble(&source).expect("dot_product assembles")
}

/// Copy `n` words from `src` to `dst`.
pub fn memcpy(src: u32, dst: u32, n: u32) -> Vec<Op> {
    let source = format!(
        r"
            lit 0           ; i
        loop:
            dup
            lit {n}
            lt
            jz done
            dup
            lit 4
            mul
            lit {src}
            add
            load            ; i v
            over
            lit 4
            mul
            lit {dst}
            add             ; i v addr
            store           ; i
            lit 1
            add
            jmp loop
        done:
            drop
            halt
        "
    );
    assemble(&source).expect("memcpy assembles")
}

/// 3-point stencil: `dst[i] = src[i-1] + src[i] + src[i+1]` for
/// `i ∈ 1..n-1`.
pub fn stencil1d(src: u32, dst: u32, n: u32) -> Vec<Op> {
    let last = n - 1;
    let source = format!(
        r"
            lit 1           ; i
        loop:
            dup
            lit {last}
            lt
            jz done
            dup
            lit 1
            sub
            lit 4
            mul
            lit {src}
            add
            load            ; i s[i-1]
            over
            lit 4
            mul
            lit {src}
            add
            load            ; i s- s0
            add             ; i partial
            over
            lit 1
            add
            lit 4
            mul
            lit {src}
            add
            load            ; i partial s+
            add             ; i v
            over
            lit 4
            mul
            lit {dst}
            add             ; i v addr
            store           ; i
            lit 1
            add
            jmp loop
        done:
            drop
            halt
        "
    );
    assemble(&source).expect("stencil1d assembles")
}

/// Recursive binary-tree sum of `n` words at `base` (n must be a power
/// of two); result stored to `result_addr`. The return stack is
/// ~3·log₂(n) deep at the leaves, where the loads happen.
pub fn tree_sum(base: u32, n: u32, result_addr: u32) -> Vec<Op> {
    assert!(n.is_power_of_two(), "tree_sum needs a power-of-two length");
    let source = format!(
        r"
            lit 0
            lit {n}
            call tree
            lit {result_addr}
            store
            halt
        tree:               ; ( lo hi -- sum )
            over
            over
            swap
            sub             ; lo hi (hi-lo)
            lit 1
            eq
            jz split
            drop            ; lo       (leaf: drop hi)
            lit 4
            mul
            lit {base}
            add
            load            ; a[lo]
            ret
        split:
            over
            over
            add
            lit 1
            shr             ; lo hi mid
            dup
            tor             ; lo hi mid   (R: mid)
            swap
            tor             ; lo mid      (R: mid hi)
            call tree       ; s1          (R: mid hi)
            fromr           ; s1 hi       (R: mid)
            fromr           ; s1 hi mid   (R: )
            swap            ; s1 mid hi
            call tree       ; s1 s2
            add
            ret
        "
    );
    assemble(&source).expect("tree_sum assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Effect, SparseMemory, StackMachine};

    fn run(program: Vec<Op>, mem: &mut SparseMemory, budget: u64) {
        StackMachine::new(program).run(mem, budget).unwrap();
    }

    #[test]
    fn dot_product_computes() {
        let mut mem = SparseMemory::new();
        let a: Vec<u32> = (1..=8).collect();
        let b: Vec<u32> = (1..=8).map(|x| x * 10).collect();
        mem.load_words(0x1000, &a);
        mem.load_words(0x2000, &b);
        let k = dot_product(0x1000, 0x2000, 8, 0x3000);
        run(k, &mut mem, 100_000);
        let expect: u32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(mem.load(0x3000), expect);
    }

    #[test]
    fn memcpy_copies() {
        let mut mem = SparseMemory::new();
        let data: Vec<u32> = (0..16).map(|x| x * 7 + 1).collect();
        mem.load_words(0x1000, &data);
        let k = memcpy(0x1000, 0x4000, 16);
        run(k, &mut mem, 100_000);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(mem.load(0x4000 + 4 * i as u32), v);
        }
    }

    #[test]
    fn stencil_computes() {
        let mut mem = SparseMemory::new();
        let src: Vec<u32> = (0..10).map(|x| x * x).collect();
        mem.load_words(0x1000, &src);
        let k = stencil1d(0x1000, 0x5000, 10);
        run(k, &mut mem, 100_000);
        for i in 1..9usize {
            let expect = src[i - 1] + src[i] + src[i + 1];
            assert_eq!(mem.load(0x5000 + 4 * i as u32), expect, "i={i}");
        }
    }

    #[test]
    fn tree_sum_computes() {
        let mut mem = SparseMemory::new();
        let data: Vec<u32> = (1..=16).collect();
        mem.load_words(0x1000, &data);
        let k = tree_sum(0x1000, 16, 0x6000);
        run(k, &mut mem, 100_000);
        assert_eq!(mem.load(0x6000), data.iter().sum::<u32>());
    }

    #[test]
    fn tree_sum_goes_deep() {
        let mut mem = SparseMemory::new();
        mem.load_words(0x1000, &vec![1u32; 64]);
        let k = tree_sum(0x1000, 64, 0x6000);
        let mut m = StackMachine::new(k);
        let mut max_depth = 0;
        while m.step(&mut mem).unwrap() != Effect::Halted {
            max_depth = max_depth.max(m.depth());
        }
        assert!(
            max_depth > 12,
            "recursion must deepen the stacks: {max_depth}"
        );
        assert_eq!(mem.load(0x6000), 64);
    }
}
