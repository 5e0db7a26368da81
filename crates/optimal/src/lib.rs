//! # em2-optimal
//!
//! The paper's §3 analytical model: a dynamic program computing the
//! **optimal** migrate-vs-remote-access decision sequence for a thread
//! memory trace, and the §4 variant that instead optimizes the
//! per-migration **stack depth** of the stack-machine EM².
//!
//! Paper §3: *"we … outline a simplified analytical model that
//! establishes an upper bound on performance of decision schemes and
//! thus allows us to quickly evaluate how close to optimal a given
//! hardware-implementable scheme is."* The model
//!
//! * considers one thread at a time (no guest-context evictions),
//! * ignores local memory access delays (network delays only),
//! * assumes the full memory trace and the address→core placement are
//!   known.
//!
//! Under those assumptions the optimum is computable by the dynamic
//! program of [`migrate_ra`] — the paper quotes `O(N·P²)`; our
//! transcription runs in `O(N·P)` because migration is only ever into
//! the accessed line's home core, so only one DP column needs the
//! min-over-predecessors (both variants are provided and benchmarked in
//! E5). Evaluating a *given* decision sequence costs `O(N)`
//! ([`migrate_ra::evaluate`]).
//!
//! [`stack_depth`] extends the same formulation to the stack-machine
//! architecture: the per-migration choice is no longer binary but "how
//! much of the stack to carry", with underflow/overflow bounces back
//! to the native core priced in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod migrate_ra;
pub mod stack_depth;

pub use migrate_ra::{
    brute_force, evaluate, optimal, optimal_general, workload_optimal, Choice, CostTrace, Optimal,
};
pub use stack_depth::{DepthChoice, StackOptimal, StackVisit, VisitDecision};
