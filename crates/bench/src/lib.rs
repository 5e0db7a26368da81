//! # em2-bench
//!
//! Experiment harness regenerating every figure and model claim of the
//! paper (see DESIGN.md §5 for the experiment index):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Figure 1 (EM² access flow) | [`experiments::e1_flow_em2`] |
//! | E2 | Figure 2 (OCEAN run lengths) | [`experiments::e2_ocean_runlengths`] |
//! | E3 | Figure 3 (EM²-RA access flow) | [`experiments::e3_flow_em2ra`] |
//! | E4 | §3 optimal-vs-schemes | [`experiments::e4_optimal_vs_schemes`] |
//! | E5 | §3 complexity claims | [`experiments::e5_dp_scaling`] |
//! | E6 | §4 stack depths | [`experiments::e6_stack_depth`] |
//! | E7 | §2 EM² vs directory CC | [`experiments::e7_cc_vs_em2`] |
//! | E8 | §5 context-size sensitivity | [`experiments::e8_context_size`] |
//! | E9 | §2/§3 deadlock freedom & NoC validation | [`experiments::e9_noc_validation`] |
//! | E10 | contention on/off across machines (beyond the paper) | [`experiments::e10_contention`] |
//! | E11 | runtime ↔ simulator cross-validation | [`experiments::e11_runtime_agreement`] |
//! | E12 | distributed (cross-node) runtime agreement + wire telemetry | [`experiments::e12_transport`] |
//! | E13 | elastic membership: live shard handoff agreement | [`experiments::e13_elastic_membership`] |
//! | E14 | placement scorecard: attributed cost vs DP bound | [`experiments::e14_placement_scorecard`] |
//!
//! The `experiments` binary prints these as aligned text tables,
//! followed by their determinism fingerprint ([`perf::tables_digest`]).
//! Performance is not measured here: `benchmark/` (see its README) is
//! the repo's one measurement harness.
//!
//! The suite runs on the [`par`] sweep engine: independent
//! (config, workload, scheme) cells fan out across OS threads with a
//! deterministic ordered reduce, so the output is byte-identical to a
//! serial run (`tests/parallel_determinism.rs` pins this; `--serial`
//! forces one worker).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod par;
pub mod perf;
pub mod scorecard;
pub mod serving;
pub mod table;
pub mod workloads;

pub use table::Table;
