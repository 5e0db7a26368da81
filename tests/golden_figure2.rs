//! Golden regression pins for the reproduction's headline numbers.
//!
//! Everything in this repository is deterministic, so the exact values
//! of the quick-scale Figure-2 histogram are stable; if a change to a
//! generator, placement policy, or the analyzer shifts them, this test
//! fails loudly and EXPERIMENTS.md must be regenerated deliberately.

use em2::placement::{run_length_analysis, FirstTouch};
use em2::trace::gen::ocean::OceanConfig;

fn quick() -> OceanConfig {
    OceanConfig {
        interior: 128,
        threads: 16,
        cores: 16,
        iterations: 2,
        levels: 3,
        ..OceanConfig::default()
    }
}

#[test]
fn figure2_quick_scale_goldens() {
    let w = quick().generate();
    let p = FirstTouch::build(&w, 16, 64);
    let a = run_length_analysis(&w, &p, 60);

    // Pinned from the recorded run (EXPERIMENTS.md / experiments --quick).
    assert_eq!(a.total_accesses, 293_227);
    assert_eq!(a.non_native_accesses, 14_076);
    assert_eq!(a.histogram.count(1), 7_026);
    assert_eq!(a.histogram.count(8), 490);
    assert_eq!(a.histogram.count(16), 60);
    assert_eq!(a.histogram.count(32), 60);
    let f = a.single_access_fraction();
    assert!((f - 0.499).abs() < 0.001, "single fraction drifted: {f}");
}

#[test]
fn figure2_quick_scale_workload_shape() {
    let w = quick().generate();
    let s = w.stats(64);
    assert_eq!(w.num_threads(), 16);
    assert_eq!(s.accesses, 293_227);
    assert!(s.reads > 2 * s.writes);
}

#[test]
fn dp_optimum_golden() {
    // The §3 DP on the quick ocean workload under first-touch: pinned
    // optimum (any cost-model or DP change must be deliberate).
    let w = quick().generate();
    let p = FirstTouch::build(&w, 16, 64);
    let cost = em2::model::CostModel::builder().cores(16).build();
    let (opt, per) = em2::optimal::workload_optimal(&w, &p, &cost);
    assert_eq!(opt, 81_351);
    assert_eq!(per.len(), 16);
}
