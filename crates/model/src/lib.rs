//! # em2-model
//!
//! Shared model types for the EM² reproduction (Lis et al., *Brief
//! Announcement: Distributed Shared Memory based on Computation
//! Migration*, SPAA 2011).
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`ids`] — strongly-typed identifiers for cores, threads, addresses
//!   and cache lines;
//! * [`mesh`] — 2-D mesh geometry (the on-chip network topology the
//!   paper assumes);
//! * [`cost`] — the closed-form network cost model underlying both the
//!   simulator's default timing and the paper's §3 dynamic program;
//! * [`rng`] — a deterministic, seedable PRNG so that every experiment
//!   in the workspace is bit-reproducible;
//! * [`hash`] — [`WordMap`], the word-keyed table behind every
//!   per-access, per-decision and per-arrival lookup;
//! * [`histogram`] — integer histograms (run-length distributions,
//!   Figure 2 of the paper);
//! * [`stats`] — streaming scalar statistics (mean/variance/min/max)
//!   and the [`Fold`] rule summable fields merge by;
//! * [`bytes`] — the binary-codec kernel (LE writers, bounds-checked
//!   cursor, typed errors) every hand-rolled wire format builds on;
//! * [`mod@env`] — the typed registry of `EM2_*` environment knobs (the
//!   only place the workspace reads them; warns once on typos).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytes;
pub mod cost;
pub mod env;
pub mod hash;
pub mod histogram;
pub mod ids;
pub mod mesh;
pub mod rng;
pub mod stats;

pub use cost::{ContextSpec, CostModel, CostModelBuilder, CostParams, PairCost};
pub use hash::{WordHasher, WordMap};
pub use histogram::Histogram;
pub use ids::{AccessKind, Addr, CoreId, LineAddr, ThreadId};
pub use mesh::Mesh;
pub use rng::DetRng;
pub use stats::{Fold, Summary};

/// Ceiling division of two unsigned integers.
///
/// Used throughout the workspace for flit counts:
/// `ceil_div(payload_bits, link_width)` is the number of cycles needed
/// to serialize a payload onto a link.
#[inline]
pub const fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(0, 8), 0);
        assert_eq!(ceil_div(1, 8), 1);
        assert_eq!(ceil_div(8, 8), 1);
        assert_eq!(ceil_div(9, 8), 2);
        assert_eq!(ceil_div(u64::MAX, 1), u64::MAX);
    }
}
