//! Cross-crate determinism: identical configurations must produce
//! bit-identical results across every machine model — a prerequisite
//! for all the experiment tables.

use em2::coherence::{run_msi, MsiConfig};
use em2::core::machine::MachineConfig;
use em2::core::sim::{run_em2, run_em2ra};
use em2::core::HistoryPredictor;
use em2::placement::FirstTouch;
use em2::trace::gen::{micro, ocean::OceanConfig, synth::SynthConfig};

#[test]
fn em2_runs_are_reproducible() {
    let w = OceanConfig::small().generate();
    let p = FirstTouch::build(&w, 4, 64);
    let a = run_em2(MachineConfig::with_cores(4), &w, &p);
    let b = run_em2(MachineConfig::with_cores(4), &w, &p);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.flow, b.flow);
    assert_eq!(a.run_lengths, b.run_lengths);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.context_bits_sent, b.context_bits_sent);
    assert_eq!(a.network_cycles, b.network_cycles);
}

#[test]
fn eviction_churn_is_reproducible() {
    let w = micro::hotspot(8, 8, 400, 0.9, 1);
    let p = FirstTouch::build(&w, 8, 64);
    let mk = || MachineConfig {
        guest_contexts: 1,
        ..MachineConfig::with_cores(8)
    };
    let a = run_em2(mk(), &w, &p);
    let b = run_em2(mk(), &w, &p);
    assert_eq!(a.flow, b.flow);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn learning_scheme_is_reproducible() {
    let w = SynthConfig::small().generate();
    let p = FirstTouch::build(&w, 4, 64);
    let run = || {
        run_em2ra(
            MachineConfig::with_cores(4),
            &w,
            &p,
            Box::new(HistoryPredictor::new(1.0, 0.5)),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.flow, b.flow);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn msi_runs_are_reproducible() {
    let w = micro::uniform(4, 4, 500, 128, 0.4, 7);
    let p = FirstTouch::build(&w, 4, 64);
    let a = run_msi(MsiConfig::with_cores(4), &w, &p);
    let b = run_msi(MsiConfig::with_cores(4), &w, &p);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total_flit_hops(), b.total_flit_hops());
    assert_eq!(a.invalidations, b.invalidations);
}

#[test]
fn queued_contention_is_deterministic_and_never_speeds_up_fixed_workloads() {
    // Queued contention only ever adds delay at the operation level;
    // on these fixed (fully deterministic) workloads that shows up as
    // a makespan no smaller than the closed-form run, and two queued
    // runs are bit-identical.
    use em2::engine::{Contention, QueuedParams};
    let w = OceanConfig::small().generate();
    let p = FirstTouch::build(&w, 4, 64);
    let mk = |contention| MachineConfig {
        contention,
        ..MachineConfig::with_cores(4)
    };
    let off = run_em2(mk(Contention::Off), &w, &p);
    let queued = Contention::Queued(QueuedParams::from_cost(&mk(Contention::Off).cost));
    let a = run_em2(mk(queued), &w, &p);
    let b = run_em2(mk(queued), &w, &p);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.flow, b.flow);
    assert_eq!(a.queue_link_wait_cycles, b.queue_link_wait_cycles);
    assert_eq!(a.queue_home_wait_cycles, b.queue_home_wait_cycles);
    assert!(a.cycles >= off.cycles, "{} < {}", a.cycles, off.cycles);
    assert!(a.violations.is_empty(), "{:?}", a.violations);

    let msi_off = run_msi(MsiConfig::with_cores(4), &w, &p);
    let msi_q = run_msi(
        MsiConfig {
            contention: queued,
            ..MsiConfig::with_cores(4)
        },
        &w,
        &p,
    );
    assert!(msi_q.cycles >= msi_off.cycles);
    assert!(msi_q.violations.is_empty(), "{:?}", msi_q.violations);
}

#[test]
fn generators_are_reproducible_across_calls() {
    assert_eq!(
        OceanConfig::small().generate(),
        OceanConfig::small().generate()
    );
    assert_eq!(
        SynthConfig::small().generate(),
        SynthConfig::small().generate()
    );
}
