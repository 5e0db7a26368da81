//! # em2-engine
//!
//! The shared discrete-event kernel of the EM² reproduction. Both
//! machine models — the EM²/EM²-RA migration machine (`em2-core`) and
//! the directory-MSI baseline (`em2-coherence`) — used to hand-roll the
//! same machinery: a `BinaryHeap` event queue with deterministic
//! `(time, seq)` tie-breaking, per-thread scheduling state, exact
//! barrier synchronization, and run-length monitoring. This crate owns
//! all of it once, behind a [`MachineModel`] trait that a machine
//! implements to supply its per-access transition logic:
//!
//! * [`event`] — the deterministic event queue ([`Event`],
//!   [`EventQueue`]): `(time, seq)` ordering, epoch-based cancellation;
//! * [`sched`] — engine-owned per-thread scheduling state
//!   ([`ThreadPhase`]: idle / busy / waiting / in-flight / barrier /
//!   done, plus trace cursor and epoch);
//! * [`barrier`] — exact barrier synchronization shared by every
//!   machine ([`Barriers`]);
//! * [`runlen`] — the Figure-2 run-length monitor ([`RunMonitor`]);
//! * [`contention`] — the opt-in contention timing layer
//!   ([`Contention::Off`] reproduces the closed-form latencies
//!   bit-exactly; [`Contention::Queued`] adds FIFO service queueing at
//!   home cores and per-link bandwidth occupancy derived from the same
//!   [`em2_model::CostModel`] parameters);
//! * [`engine`] — the [`Engine`] tying them together: event dispatch
//!   loop, barrier release protocol, tallies ([`EngineTally`]).
//!
//! Determinism is the design invariant: event ties break by insertion
//! sequence, contention state mutates in event order, and every machine
//! built on the engine is bit-reproducible — the property the E1–E10
//! experiment tables and the parallel sweep engine rest on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod contention;
pub mod engine;
pub mod event;
pub mod runlen;
pub mod sched;

pub use barrier::{barrier_quotas, Barriers, Quotas};
pub use contention::{Contention, ContentionState, QueuedParams};
pub use engine::{Engine, EngineTally, MachineModel};
pub use event::{Event, EventQueue};
pub use runlen::RunMonitor;
pub use sched::{ThreadPhase, ThreadSched};
