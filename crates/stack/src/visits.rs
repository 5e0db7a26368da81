//! Visit extraction: from program execution to the §4 DP's input.
//!
//! Runs a program on the reference interpreter while watching both the
//! memory effects (whose homes — under the given placement — delimit
//! *visits*) and the combined stack depth (whose excursions within a
//! visit are the depth *demand* and *growth* the migrated top of stack
//! must cover remotely). The result feeds
//! [`em2_optimal::stack_depth::stack_optimal`] and the fixed-depth
//! evaluators.

use crate::machine::{Effect, MachineError, SparseMemory, StackMachine};
use em2_model::CoreId;
use em2_optimal::StackVisit;
use em2_placement::Placement;

/// The extracted visit sequence of one program run.
#[derive(Clone, Debug)]
pub struct VisitTrace {
    /// Core the thread starts on (its native core).
    pub start: CoreId,
    /// Maximal same-home access runs with their stack excursions.
    pub visits: Vec<StackVisit>,
    /// Total memory accesses.
    pub total_accesses: u64,
    /// Total instructions executed.
    pub total_steps: u64,
    /// Peak combined stack depth across the run.
    pub peak_depth: u64,
}

impl VisitTrace {
    /// Visits homed away from the start core (the ones that cost).
    pub fn remote_visits(&self) -> usize {
        self.visits.iter().filter(|v| v.home != self.start).count()
    }
}

struct OpenVisit {
    home: CoreId,
    reads: u32,
    writes: u32,
    entry_depth: u64,
    min_depth: u64,
    max_depth: u64,
}

impl OpenVisit {
    fn close(self) -> StackVisit {
        StackVisit {
            home: self.home,
            reads: self.reads,
            writes: self.writes,
            demand: self.entry_depth.saturating_sub(self.min_depth) as u32,
            produce: self.max_depth.saturating_sub(self.entry_depth) as u32,
        }
    }
}

/// Execute `machine` to completion (bounded by `max_steps`) and
/// extract its visit trace under `placement`, starting at `native`.
pub fn extract_visits(
    mut machine: StackMachine,
    mem: &mut SparseMemory,
    placement: &dyn Placement,
    native: CoreId,
    max_steps: u64,
) -> Result<VisitTrace, MachineError> {
    let mut visits: Vec<StackVisit> = Vec::new();
    let mut open: Option<OpenVisit> = None;
    let mut total_accesses = 0u64;
    let mut peak_depth = 0u64;

    loop {
        if machine.steps() >= max_steps {
            return Err(MachineError::StepBudgetExceeded);
        }
        let depth_before = machine.depth() as u64;
        let pops = machine
            .program()
            .get(machine.pc)
            .map_or(0, |op| op.pops() as u64);
        let effect = machine.step(mem)?;
        let depth_after = machine.depth() as u64;
        peak_depth = peak_depth.max(depth_after);
        // The op reads its operands before writing results: the
        // transient trough is depth_before - pops.
        let trough = depth_before.saturating_sub(pops);

        match effect {
            Effect::Halted => break,
            Effect::Read(addr) | Effect::Write(addr) => {
                total_accesses += 1;
                let home = placement.home_of(addr);
                let is_write = matches!(effect, Effect::Write(_));
                match open.as_mut() {
                    Some(v) if v.home == home => {
                        v.min_depth = v.min_depth.min(trough);
                        v.max_depth = v.max_depth.max(depth_after);
                        if is_write {
                            v.writes += 1;
                        } else {
                            v.reads += 1;
                        }
                    }
                    _ => {
                        if let Some(v) = open.take() {
                            visits.push(v.close());
                        }
                        // The migration happens just before this
                        // access: entry depth is the pre-op depth.
                        open = Some(OpenVisit {
                            home,
                            reads: u32::from(!is_write),
                            writes: u32::from(is_write),
                            entry_depth: depth_before,
                            min_depth: trough,
                            max_depth: depth_before.max(depth_after),
                        });
                    }
                }
            }
            Effect::Compute => {
                if let Some(v) = open.as_mut() {
                    v.min_depth = v.min_depth.min(trough);
                    v.max_depth = v.max_depth.max(depth_after);
                }
            }
        }
    }
    if let Some(v) = open.take() {
        visits.push(v.close());
    }

    Ok(VisitTrace {
        start: native,
        visits,
        total_accesses,
        total_steps: machine.steps(),
        peak_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program;
    use em2_placement::{BlockOwner, Striped};

    #[test]
    fn private_program_has_single_home_visits() {
        // All data in one block homed at core 0.
        let mut mem = SparseMemory::new();
        mem.load_words(0x1000, &[1, 2, 3, 4]);
        let k = program::dot_product(0x1000, 0x1010, 4, 0x1020);
        let placement = BlockOwner::new(4, 0, 1 << 20, 64);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            100_000,
        )
        .unwrap();
        assert_eq!(vt.visits.len(), 1, "one home ⇒ one visit: {:?}", vt.visits);
        assert_eq!(vt.visits[0].home, CoreId(0));
        assert_eq!(vt.remote_visits(), 0);
        assert_eq!(
            vt.visits[0].accesses() as u64,
            vt.total_accesses,
            "every access in the single visit"
        );
    }

    #[test]
    fn split_arrays_alternate_homes() {
        // a[] homed at core 0, b[] at core 1 (64 KiB blocks).
        let mut mem = SparseMemory::new();
        let n = 8u32;
        mem.load_words(0x0000, &(1..=n).collect::<Vec<_>>());
        mem.load_words(0x1_0000, &(1..=n).map(|x| 2 * x).collect::<Vec<_>>());
        let k = program::dot_product(0x0000, 0x1_0000, n, 0x0100);
        let placement = BlockOwner::new(2, 0, 2 << 16, 64);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            1_000_000,
        )
        .unwrap();
        // Per iteration: a-load at home 0 (with the result store at the
        // end), b-load at home 1 → homes alternate.
        assert!(vt.visits.len() >= 2 * n as usize, "{:?}", vt.visits.len());
        for w in vt.visits.windows(2) {
            assert_ne!(w[0].home, w[1].home, "visits must alternate");
        }
        let total: u64 = vt.visits.iter().map(|v| v.accesses() as u64).sum();
        assert_eq!(total, vt.total_accesses);
        assert_eq!(vt.total_accesses, 2 * n as u64 + 1); // loads + result store
    }

    #[test]
    fn demands_are_coverable_by_small_depths_in_streaming_kernels() {
        let mut mem = SparseMemory::new();
        mem.load_words(0x1000, &[5u32; 32]);
        let k = program::memcpy(0x1000, 0x8000, 32);
        let placement = Striped::new(4, 64);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            1_000_000,
        )
        .unwrap();
        assert!(
            vt.visits.iter().all(|v| v.demand <= 4),
            "streaming loop is shallow"
        );
        assert!(vt.peak_depth <= 8);
    }

    #[test]
    fn tree_sum_demands_grow_with_recursion() {
        let mut mem = SparseMemory::new();
        mem.load_words(0x1000, &vec![1u32; 64]);
        let k = program::tree_sum(0x1000, 64, 0x9000);
        // Data striped: leaves hit many homes while the stack is deep.
        let placement = Striped::new(4, 64);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            1_000_000,
        )
        .unwrap();
        assert!(vt.peak_depth > 12);
        // Demand stays tiny even though absolute depth is large: only
        // the top of the stack is consumed at a leaf. That asymmetry
        // is exactly why §4's partial-depth migration wins.
        assert!(vt.visits.iter().all(|v| v.demand < vt.peak_depth as u32));
        assert!(vt.remote_visits() > 0);
    }

    #[test]
    fn visit_counts_match_analysis_semantics() {
        // Same definition as run-length analysis: one visit per
        // maximal same-home run.
        let mut mem = SparseMemory::new();
        mem.load_words(0x0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let k = program::memcpy(0x0, 0x1_0000, 8);
        let placement = BlockOwner::new(2, 0, 2 << 16, 64);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            100_000,
        )
        .unwrap();
        // load src (home 0), store dst (home 1), alternating per word.
        assert_eq!(vt.visits.len(), 16);
        assert!(vt.visits.iter().all(|v| v.accesses() == 1));
    }

    #[test]
    fn budget_guard_fires() {
        let k = program::tree_sum(0x1000, 64, 0x9000);
        let mut mem = SparseMemory::new();
        let placement = Striped::new(2, 64);
        let r = extract_visits(StackMachine::new(k), &mut mem, &placement, CoreId(0), 10);
        assert_eq!(r.unwrap_err(), MachineError::StepBudgetExceeded);
    }
}
