//! # em2-core
//!
//! The Execution Migration Machine (EM²) and its EM²-RA hybrid — the
//! primary contribution of Lis et al., *Brief Announcement: Distributed
//! Shared Memory based on Computation Migration* (SPAA 2011).
//!
//! EM² keeps memory coherent by construction: every address is
//! cacheable at exactly one core (its *home*, decided by a
//! [`em2_placement::Placement`] policy), and a thread that needs an
//! address homed elsewhere **migrates** to that core — its
//! architectural context (PC + register file, 1–2 Kbit) travels over
//! the on-chip network. Since every thread always accesses a given
//! address from the same core, "threads never disagree about the
//! contents of memory locations so sequential consistency is trivially
//! ensured" (§2).
//!
//! The EM²-RA hybrid (§3) adds a **remote-cache-access** path: instead
//! of migrating, a thread may send a round-trip request for a single
//! word. Which path to take is a per-access decision — the
//! [`decision`] module provides the hardware-implementable schemes the
//! paper calls for, and `em2-optimal` provides the DP that bounds them.
//!
//! Modules:
//!
//! * [`context`] — native/guest execution contexts per core and the
//!   deadlock-free eviction machinery (cf. Cho et al. \[10\]);
//! * [`decision`] — migrate-vs-remote-access decision schemes;
//! * [`machine`] — machine configuration (contexts, costs, caches);
//! * [`sim`] — the deterministic multicore simulator (Graphite-style
//!   message-level timing), running on the shared `em2-engine`
//!   discrete-event kernel with optional contention timing;
//! * [`stats`] — the simulation report: Figure-1/3 flow counts, the
//!   Figure-2 run-length histogram, traffic and latency breakdowns;
//! * [`monitor`] — online invariant checking (context capacity,
//!   access-at-home, program order, barrier ordering).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod decision;
pub mod machine;
pub mod monitor;
pub mod sim;
pub mod stats;

pub use context::{Admission, ContextPool, GuestState};
pub use decision::{
    AlwaysMigrate, AlwaysRemote, CostBreakEven, Decision, DecisionCtx, DecisionScheme,
    DistanceThreshold, HistoryPredictor, MarkovPredictor, OracleSchedule, SchemeStateError,
};
pub use em2_engine::{Contention, QueuedParams, RunMonitor};
pub use machine::MachineConfig;
pub use sim::RUN_BINS;
pub use stats::{FlowCounts, SimReport};
