//! # em2-trace
//!
//! Memory-trace infrastructure for the EM² reproduction.
//!
//! The paper evaluates EM² by running SPLASH-2 programs under the
//! Graphite simulator and analyzing the resulting per-thread memory
//! access streams (Figure 2). We cannot ship SPLASH-2 binaries, so this
//! crate provides **synthetic trace generators that reproduce the
//! sharing structure** of the relevant kernels (see DESIGN.md §3 for
//! the substitution argument):
//!
//! * [`gen::ocean`] — red-black Gauss-Seidel stencil over a
//!   block-partitioned 2-D grid (the SPLASH-2 OCEAN stand-in behind
//!   Figure 2);
//! * [`gen::fft`] — butterfly + transpose phases (all-to-all);
//! * [`gen::lu`] — blocked LU with diagonal-block broadcast;
//! * [`gen::radix`] — histogram + scatter permutation;
//! * [`gen::micro`] — microbenchmarks: private-only, uniform-random,
//!   ping-pong, producer-consumer, hotspot;
//! * [`gen::synth`] — parametric run-length mixtures for the §3
//!   dynamic-program experiments.
//!
//! A [`Workload`] is a set of per-thread traces plus barrier positions
//! (SPLASH-2 kernels are barrier-synchronized phase programs, and
//! first-touch placement depends on phase order). Traces are
//! deterministic: the same config and seed always produce the same
//! workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod flat;
pub mod gen;
pub mod record;
pub mod trace;

pub use addr::AddressSpace;
pub use flat::{FlatThread, FlatWorkload, LineInterner};
pub use record::MemRecord;
pub use trace::{ThreadTrace, Workload, WorkloadStats};
