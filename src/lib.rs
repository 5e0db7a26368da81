//! # em2 — Distributed Shared Memory based on Computation Migration
//!
//! Facade crate for the full EM² reproduction workspace (Lis et al.,
//! SPAA 2011). Re-exports every sub-crate under a stable path:
//!
//! * [`model`] — shared types: ids, mesh geometry, cost model, stats;
//! * [`noc`] — cycle-level 2-D mesh network-on-chip;
//! * [`cache`] — set-associative caches, L1/L2 hierarchy, DRAM;
//! * [`trace`] — memory traces + SPLASH-2-like workload generators;
//! * [`engine`] — the shared discrete-event kernel both simulators run
//!   on (deterministic event queue, barriers, contention timing);
//! * [`placement`] — data placement policies (first-touch, striped, …);
//! * [`core`] — the EM² / EM²-RA machine and simulator;
//! * [`rt`] — the executable runtime: OS-thread shards, migratable
//!   task continuations, word-granular remote access — cross-validated
//!   against the simulator (E11);
//! * [`net`] — the cross-process transport layer: the runtime as a
//!   multi-process distributed DSM over loopback/UDS/TCP,
//!   cross-validated against the single-process runtime (E12);
//! * [`obs`] — the observability plane: lock-free metrics, task
//!   lifecycle tracing, the crash flight recorder (strictly
//!   timing-plane; never part of any agreement check);
//! * [`stack`] — the stack-machine EM² variant;
//! * [`optimal`] — the paper's dynamic-programming analytical model;
//! * [`coherence`] — the directory-MSI baseline.
//!
//! See `examples/quickstart.rs` for a complete first run.

#![forbid(unsafe_code)]

pub use em2_cache as cache;
pub use em2_coherence as coherence;
pub use em2_core as core;
pub use em2_engine as engine;
pub use em2_model as model;
pub use em2_net as net;
pub use em2_noc as noc;
pub use em2_obs as obs;
pub use em2_optimal as optimal;
pub use em2_placement as placement;
pub use em2_rt as rt;
pub use em2_stack as stack;
pub use em2_trace as trace;
