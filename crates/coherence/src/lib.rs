//! # em2-coherence
//!
//! Directory-based MSI cache coherence — the baseline EM² is measured
//! against.
//!
//! The paper's §1–§2 argument for EM² is that directory coherence
//! (a) replicates data into many per-core caches, wasting on-chip
//! capacity, (b) needs directories sized like "a significant portion
//! of the combined size of the per-core caches" \[6\], (c) moves whole
//! cache lines where EM² moves words or contexts, and (d) is
//! "notoriously difficult to implement and verify" \[7\]. To measure
//! (a)–(c) rather than assert them, this crate implements the full
//! protocol over the *same* cache substrate ([`em2_cache`]), the same
//! cost model, and the same workloads:
//!
//! * [`directory::Directory`] — per-line distributed directory state
//!   (Invalid / Shared(sharers) / Modified(owner)), homed by the same
//!   placement function EM² uses;
//! * [`sim`] — an event-driven trace replay with threads pinned to
//!   their native cores: misses consult the home directory, writes
//!   invalidate sharers, dirty remote copies are forwarded and
//!   downgraded, L2 victims notify the directory;
//! * [`stats`] — traffic in flit-hops (control vs whole-line data
//!   messages), invalidations, replication factor, directory storage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod directory;
pub mod sim;
pub mod stats;

pub use directory::{DirState, Directory, SharerSet};
pub use sim::{run_msi, run_msi_flat, MsiConfig};
pub use stats::CohReport;
