//! # em2-noc
//!
//! A cycle-level 2-D mesh network-on-chip for the EM² reproduction.
//!
//! The paper's architectures place hard requirements on the
//! interconnect: migrations, evictions (Cho et al. \[10\]), and
//! remote-access requests/responses must travel on **separate virtual
//! subnetworks** — six virtual channels in total (§3) — so that the
//! protocol-level dependency cycles (migration → eviction,
//! request → response) can never deadlock in the network.
//!
//! This crate implements:
//!
//! * [`vc::VirtualChannel`] — the six traffic classes;
//! * [`packet`] — packets and wormhole flits;
//! * [`router`] — an input-buffered wormhole router with per-VC FIFOs,
//!   credit-based flow control, X-Y dimension-ordered routing, and
//!   round-robin output arbitration;
//! * [`network::CycleNoc`] — the full mesh: inject packets, step
//!   cycles, collect deliveries and statistics.
//!
//! The closed-form latency model the rest of the workspace uses by
//! default lives in [`em2_model::CostModel`]; experiment E9 validates
//! that closed form against this cycle-level model and demonstrates
//! deadlock freedom under adversarial traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod network;
pub mod packet;
pub mod router;
pub mod vc;

pub use network::{CycleNoc, Delivery, NocConfig, NocStats};
pub use packet::{Flit, FlitKind, PacketId, PacketInfo};
pub use vc::VirtualChannel;
