//! The §4 stack-machine EM²: assemble and run a stack program, extract
//! its migration visits, and compare migrated-context policies — the
//! full register file vs fixed stack depths vs the optimal-depth DP.
//!
//! ```text
//! cargo run --release --example stack_machine
//! ```

use em2::model::{CoreId, CostModel};
use em2::optimal::stack_depth::{self, DepthChoice};
use em2::placement::Striped;
use em2::stack::{assemble, extract_visits, program, SparseMemory, StackMachine};

fn main() {
    // 1. The ISA is a classic two-stack machine; here is a program
    //    assembled from text.
    let doubler = assemble(
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
    let mut m = StackMachine::new(doubler);
    let mut mem = SparseMemory::new();
    m.run(&mut mem, 1_000).unwrap();
    println!("double(21) on the stack machine = {:?}\n", m.expr);

    // 2. A real kernel: dot product over two 1024-word arrays striped
    //    across 16 cores — every few iterations the loop crosses homes.
    let n = 1024u32;
    let kernel = program::dot_product(0x0000, 0x4_0100, n, 0x8_0000);
    let mut mem = SparseMemory::new();
    mem.load_words(0x0000, &(1..=n).collect::<Vec<_>>());
    mem.load_words(0x4_0100, &vec![3u32; n as usize]);
    let placement = Striped::new(16, 256);
    let visits = extract_visits(
        StackMachine::new(kernel),
        &mut mem,
        &placement,
        CoreId(0),
        100_000_000,
    )
    .unwrap();
    println!(
        "dot_product: {} instructions, {} accesses, {} visits ({} remote), peak stack depth {}",
        visits.total_steps,
        visits.total_accesses,
        visits.visits.len(),
        visits.remote_visits(),
        visits.peak_depth
    );

    // 3. Price the §4 policies.
    let cost = CostModel::builder().cores(16).build();
    let params = DepthChoice::default();
    let (reg_cost, reg_bits) =
        stack_depth::evaluate_register_machine(visits.start, &visits.visits, &cost);
    println!("\npolicy                 network-cost  bits-shipped");
    println!("register-EM2 (1120b)   {reg_cost:>12}  {reg_bits:>12}");
    for d in [2u32, 4, 8, 16] {
        let (c, bits) =
            stack_depth::evaluate_fixed_depth(visits.start, &visits.visits, d, &params, &cost);
        println!("stack depth={d:<2}         {c:>12}  {bits:>12}");
    }
    let opt = stack_depth::stack_optimal(visits.start, &visits.visits, &params, &cost);
    println!(
        "optimal depth (DP)     {:>12}  {:>12}",
        opt.cost, opt.bits_shipped
    );
    println!(
        "\nThe optimal-depth DP is the paper's §4 analogue of the §3\n\
         migrate-vs-RA program: same states, wider choice set."
    );
}
