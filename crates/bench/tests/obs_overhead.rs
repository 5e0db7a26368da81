//! The obs plane's ≤ 5 % overhead budget (DESIGN.md §12), as a gate.
//!
//! Ignored by default — a throughput ratio is only meaningful in an
//! optimized build on a quiet host. CI runs it in the experiments job:
//!
//! ```text
//! cargo test --release -p em2-bench obs_overhead_within_budget -- --ignored --exact --nocapture
//! ```
//!
//! `benchmark/`'s `obs.overhead_frac` layer reports the same ratio from
//! one off/on pair per run; it read −1.5 % to +27 % in four back-to-back
//! runs on one host, so it informs and this estimator gates.

use em2_bench::workloads::{self, Scale};
use em2_obs::ObsConfig;
use em2_placement::Placement;
use em2_rt::{run_workload, RtConfig, RtReport};
use std::sync::Arc;

/// One replay of the calibration workload under pure EM², with the
/// plane forced programmatically: ambient `EM2_OBS` cannot skew either
/// side.
fn replay(w: &Arc<em2_trace::Workload>, p: &Arc<dyn Placement>, obs: ObsConfig) -> RtReport {
    let cfg = RtConfig {
        obs: Some(obs),
        ..RtConfig::eviction_free(Scale::Quick.cores(), w.num_threads())
    };
    run_workload(cfg, w, Arc::clone(p), || Box::new(em2_core::AlwaysMigrate))
}

/// Interleaved best-of-9 per mode: host noise (scheduler preemption,
/// frequency shifts) only ever *lowers* a run's throughput, so the
/// fastest of the alternated off/on runs is the closest observable to
/// each mode's true cost, and a busy window has to outlast all nine
/// pairs (~1 s) to bias the comparison. Returns (off, on) ops/s, and
/// appends each pair's own overhead, `1 − on/off` in percent, to `pairs`.
fn best_of_nine(
    w: &Arc<em2_trace::Workload>,
    p: &Arc<dyn Placement>,
    pairs: &mut Vec<f64>,
) -> (f64, f64) {
    let (mut off, mut on) = (0.0f64, 0.0f64);
    for _ in 0..9 {
        let (a, b) = (
            replay(w, p, ObsConfig::off()),
            replay(w, p, ObsConfig::on()),
        );
        // Work conservation: the plane observes, it never perturbs.
        assert_eq!(a.total_ops(), b.total_ops());
        pairs.push((1.0 - b.ops_per_sec() / a.ops_per_sec()) * 100.0);
        off = off.max(a.ops_per_sec());
        on = on.max(b.ops_per_sec());
    }
    (off, on)
}

#[test]
#[ignore = "throughput gate: run --release on a quiet host (CI experiments job)"]
fn obs_overhead_within_budget() {
    let overhead_pct = |(off, on): (f64, f64)| (1.0 - on / off) * 100.0;
    // The quick OCEAN shape at 4× the iterations, so a timed run is
    // ~60 ms — long enough that page faults, frequency ramps and
    // allocator layout stop dominating a ±5 % comparison.
    let w = workloads::ocean_obs_calibration();
    let p: Arc<dyn Placement> = Arc::new(workloads::first_touch(&w, Scale::Quick));
    let w = Arc::new(w);
    // Interference that survives the interleaving can only inflate the
    // ratio, never deflate it below the plane's true cost, so the min
    // over up to five repetitions is the robust estimate; a repetition
    // already comfortably under the bar ends the loop early.
    let mut pairs = Vec::new();
    let mut best = best_of_nine(&w, &p, &mut pairs);
    for _ in 0..4 {
        if overhead_pct(best) <= 3.5 {
            break;
        }
        let again = best_of_nine(&w, &p, &mut pairs);
        if overhead_pct(again) < overhead_pct(best) {
            best = again;
        }
    }
    let (off, on) = best;
    assert!(off > 0.0 && on > 0.0);
    // The spread of single pairs, printed beside the gated estimate:
    // how far one off/on comparison wanders on this host.
    pairs.sort_by(f64::total_cmp);
    let quartile = |q: usize| pairs[(pairs.len() - 1) * q / 4];
    println!(
        "obs overhead: off {off:.0} ops/s, on {on:.0} ops/s ({:+.2}%); \
         {} pairs' own: median {:+.2}%, IQR {:.2} pp",
        overhead_pct(best),
        pairs.len(),
        quartile(2),
        quartile(3) - quartile(1)
    );
    assert!(
        overhead_pct(best) <= 5.0,
        "obs plane costs {:.2}% (> 5%): off {off:.0} ops/s, on {on:.0} ops/s",
        overhead_pct(best)
    );
}
