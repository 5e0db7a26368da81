//! # em2-cache
//!
//! Cache substrate for the EM² reproduction: parameterizable
//! set-associative caches and the per-core
//! L1+L2 data-cache hierarchy the paper's Figure 2 configuration uses
//! (16 KB L1 + 64 KB L2 per core).
//!
//! Under EM² these caches hold only lines *homed* at their core — there
//! is no replication, which is the capacity advantage over directory
//! coherence the paper argues for in §2. The same [`SetAssocCache`] is
//! reused by the directory-MSI baseline in `em2-coherence`, where
//! replicas do exist; the shared substrate is what makes the E7
//! capacity comparison apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod hierarchy;
pub mod set_assoc;
pub mod stats;

pub use config::CacheConfig;
pub use hierarchy::{AccessOutcome, CacheHierarchy, HierarchyConfig, ServicedBy};
pub use set_assoc::{AccessResult, SetAssocCache};
pub use stats::CacheStats;
