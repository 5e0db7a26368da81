//! # em2-net
//!
//! The cross-process transport layer that turns the executable
//! `em2-rt` runtime into a **real distributed DSM**: computation
//! migration, word-granular remote access, barriers, and quiesce all
//! working across OS processes (and hosts), exactly as the paper's
//! machine works across cores.
//!
//! `em2-rt`'s message seam was already a protocol — Arrive / Request /
//! Response / BarrierRelease, with [`em2_rt::Task::context_bytes`] as
//! the migration payload. This crate puts that protocol on the wire:
//!
//! * [`transport`] — length-prefixed byte frames over one stream
//!   code and three ways to connect it: in-process **loopback** socket
//!   pairs, **Unix-domain sockets**, and **TCP**;
//! * [`proto`] — the node-to-node control protocol (handshake with
//!   version + topology check, barrier arrivals/releases, completion
//!   accounting, quiesce), built on the same typed-error codec as
//!   `em2_rt::wire`;
//! * [`cluster`] — static cluster specs: node → contiguous shard
//!   range, parseable from a CLI string
//!   (`uds:/tmp/em2.sock,nodes=2,shards=16`);
//! * [`node`] — the [`NodeRuntime`]: one process's shard fleet wired
//!   to its peers, with node 0 coordinating barriers, live shard
//!   handoffs and the cluster-wide quiesce decision. Its threads are
//!   drivers of sans-IO rules: each edge's in `edge.rs`, the protocol's
//!   in `control.rs` (`Control::on(Event) -> Actions`, one lock);
//! * [`run`] — [`ClusterRun`], the one entry point that replays a
//!   traced workload across a cluster (optionally with live handoffs
//!   and a fault plan);
//! * [`report`] — summable per-node counter summaries, so separate
//!   processes can prove the agreement property (counters sum
//!   **bit-equal** to the single-process run) through plain files;
//! * [`error`] — the typed [`ClusterError`] taxonomy: every way a
//!   cluster run can fail, as a value — `finish()` returns `Err`, it
//!   never panics or hangs on a sick cluster (DESIGN.md §10);
//! * [`chaos`] — deterministic fault injection: a
//!   [`ChaosTransport`] wraps any transport and applies a seeded,
//!   scriptable [`FaultPlan`] (drop / delay / duplicate / truncate /
//!   corrupt the Nth frame on an edge, sever a connection, refuse an
//!   accept, crash a node), so `crates/net/tests/chaos.rs` can
//!   property-test recovery: under *any* plan the cluster either
//!   completes bit-equal or every node returns a typed error within
//!   its deadline.
//!
//! A migrated continuation really crosses an address space: the
//! envelope ships the serialized task context plus the decision
//! scheme's learned state, and the destination rebuilds the task
//! through its [`em2_rt::TaskRegistry`] and resumes it — the paper's
//! "move the computation to the data", with the process boundary where
//! the paper has a core boundary. DESIGN.md §9 documents the wire
//! format, the node lifecycle, and why the loopback transport
//! preserves E11 exactness.
//!
//! ```no_run
//! use em2_net::{ClusterRun, ClusterSpec, TransportKind};
//! use em2_placement::FirstTouch;
//! use em2_rt::RtConfig;
//! use std::sync::Arc;
//!
//! // Launched twice, with node = 0 and node = 1:
//! let spec = ClusterSpec::even(TransportKind::Uds, "/tmp/em2.sock", 2, 16);
//! let node = 0; // from the command line
//! let w = Arc::new(em2_trace::gen::micro::uniform(16, 16, 500, 256, 0.3, 7));
//! let placement: Arc<dyn em2_placement::Placement> = Arc::new(FirstTouch::build(&w, 16, 64));
//! let cfg = RtConfig::eviction_free(16, 16);
//! let report = ClusterRun::new(&spec, &cfg, &w, &placement, || {
//!     Box::new(em2_core::AlwaysMigrate)
//! })
//! .run_node(node)
//! .unwrap();
//! println!("{} over {}", report.rt, report.transport);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod cluster;
mod control;
mod edge;
pub mod error;
pub mod node;
pub mod proto;
pub mod report;
pub mod run;
pub mod transport;

pub use chaos::{ChaosTransport, FaultAction, FaultPlan};
pub use cluster::{ClusterSpec, ClusterTimeouts, NodeSpec, TransportKind};
pub use error::ClusterError;
pub use node::{NetReport, NodeRuntime, WireSnapshot};
pub use report::CounterSummary;
pub use run::ClusterRun;
pub use transport::{Acceptor, Duplex, FrameBatch, FrameRx, FrameTx, TcpTransport, Transport};
#[cfg(unix)]
pub use transport::{LoopbackTransport, UdsTransport};
