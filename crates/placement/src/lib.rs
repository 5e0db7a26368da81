//! # em2-placement
//!
//! Data placement policies for EM².
//!
//! Under EM² every address is cacheable at exactly **one** core — its
//! *home* (paper §2). The assignment of addresses to homes is the data
//! placement, and the paper stresses that a good placement ("one which
//! keeps a thread's private data assigned to that thread's native core,
//! and allocates shared data among the sharers") is critical because it
//! determines the migration rate. Figure 2 is measured under
//! first-touch placement. Policies provided:
//!
//! * [`policy::FirstTouch`] — the unit is assigned to the native core
//!   of the thread that touches it first (built from a workload by a
//!   deterministic phase-ordered scan); the paper's configuration;
//! * [`policy::Striped`] — cache lines round-robin across cores;
//! * [`policy::PageRoundRobin`] — pages round-robin across cores;
//! * [`policy::BlockOwner`] — contiguous address blocks per core;
//! * [`policy::ProfileMajority`] — each unit homed at the core whose
//!   threads access it most (an oracle-ish upper bound on placement
//!   quality, cf. the CC-NUMA literature the paper cites \[11, 12\]).
//!
//! The two built from a workload look a home up with no hash: a dense
//! `u16` home per unit of each touched page, loaded by index.
//! The [`analysis`] module computes the trace-level quantities the
//! paper reports: the non-native access *run-length histogram* of
//! Figure 2 and the pure-EM² migration count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod policy;

pub use analysis::{run_length_analysis, RunLengthAnalysis};
pub use policy::{BlockOwner, FirstTouch, PageRoundRobin, Placement, ProfileMajority, Striped};
