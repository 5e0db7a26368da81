//! # em2-rt
//!
//! An **executable** computation-migration DSM runtime — the paper's
//! EM²/EM²-RA machine run on real OS threads instead of a simulated
//! clock. Where `em2-core` *models* the machine, this crate *is* one:
//!
//! * each "core" is a **shard**: a poll-able state machine owning a
//!   partition of a word-granular sharded heap (address → home via an
//!   [`em2_placement::Placement`] policy) and a mailbox serviced in
//!   arrival order. A **multiplexed executor** runs
//!   `S ≫ W` shards on `W` worker threads (default: the host's
//!   parallelism) — the paper's 64–1024-core geometries instantiate
//!   on any host, and a shard blocked on a remote reply or barrier
//!   parks its continuation, never a thread;
//! * user code runs as **migratable task continuations**
//!   ([`Task`]): sequential programs yielding memory operations, whose
//!   live state serializes to a small context ([`Task::context_bytes`])
//!   — a trace-replay continuation is 24 bytes;
//! * a non-local access consults a reused `em2-core`
//!   [`em2_core::decision::DecisionScheme`] — one instance per thread,
//!   carried in the migrating envelope, so a decision takes **no
//!   lock** (the run monitor and barriers are likewise shard-local or
//!   atomic; DESIGN.md §8 has the lock table) — and either **migrates**
//!   (the context ships to the home shard's mailbox, admitted into a
//!   bounded guest pool with eviction-back-to-native for deadlock
//!   avoidance — [`em2_core::context::ContextPool`], executed for
//!   real) or performs a word-granular **remote access**
//!   (request/reply messages, serviced at the home in arrival order);
//! * the same counters come out: Figure-1/3 flow edges and the
//!   Figure-2 run-length histogram via the engine's
//!   [`em2_engine::RunMonitor`].
//!
//! **One mode.** A runtime is always one **node** of a cluster
//! ([`Runtime::start_node`]): messages addressed to a shard it does not
//! own, barrier arrivals, retirements and the closed admission leave
//! through a [`NodeLink`]; inbound frames inject through
//! [`Runtime::remote_inbox`], and migrated-in continuations are
//! rebuilt by a [`TaskRegistry`]. When a barrier opens and when the run
//! is over is decided by whoever holds the cluster's [`RunLedger`].
//! [`Runtime::start`] is the one-node cluster: it owns every shard and
//! its link is the ledger itself. The `em2-net` crate supplies
//! transports (loopback/UDS/TCP), membership and the N-node holder of
//! the ledger; the message protocol is public as [`wire`], a versioned
//! binary codec, and DESIGN.md §9 documents it and the
//! distribution-invariance argument.
//!
//! **Cross-validation** (experiment E11, `crates/rt/tests`): with an
//! eviction-free guest pool the runtime's migration / remote-access
//! counts and run-length histogram are *bit-identical* to the
//! simulator's on the same workload, placement, and scheme — the
//! decision sequence is a pure function of per-thread program order,
//! which real concurrency only permutes across threads. Wall-clock
//! timing is the one axis that does **not** carry over; the runtime
//! reports measured ops/sec instead of simulated cycles. DESIGN.md §7
//! documents the model and the invariant argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod exec;
mod shard;

pub mod directory;
pub mod ledger;
pub mod mpsc;
pub mod runtime;
pub mod task;
pub mod wire;

pub use directory::ShardDirectory;
pub use ledger::RunLedger;
pub use runtime::{
    run_tasks, run_workload, InboxBacklog, NodeLink, NodeRole, RemoteInbox, RtConfig, RtReport,
    Runtime, SchedStats, TaskSpec,
};
pub use task::{Op, Task, TaskRegistry, TraceTask};
