//! Property-based trace tests: generator structural invariants under
//! random configs.

use em2_model::{Addr, CoreId, ThreadId};
use em2_trace::gen::ocean::OceanConfig;
use em2_trace::gen::synth::SynthConfig;
use em2_trace::{ThreadTrace, Workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ocean_invariants_over_configs(
        tside in 1usize..4,
        mult in 1usize..4,
        iterations in 1usize..3,
        levels in 1usize..4,
    ) {
        let threads = tside * tside;
        let interior = tside * mult * 8; // divisible by tside, ≥ 8
        let cfg = OceanConfig {
            interior,
            threads,
            cores: threads,
            iterations,
            levels,
            ..OceanConfig::small()
        };
        let w = cfg.generate();
        prop_assert_eq!(w.num_threads(), threads);
        // Barrier alignment across threads.
        let counts: Vec<usize> = w.threads.iter().map(|t| t.barriers.len()).collect();
        prop_assert!(counts.windows(2).all(|c| c[0] == c[1]), "{:?}", counts);
        // Deterministic regeneration.
        prop_assert_eq!(w, cfg.generate());
    }

    #[test]
    fn synth_respects_requested_structure(
        threads in 2usize..6,
        accesses in 100usize..1000,
        single in 0.0f64..1.0,
    ) {
        let cfg = SynthConfig {
            threads,
            cores: threads,
            accesses_per_thread: accesses,
            single_fraction: single,
            ..SynthConfig::default()
        };
        let w = cfg.generate();
        prop_assert_eq!(w.num_threads(), threads);
        for t in &w.threads {
            // init phase (4096 writes) + requested accesses (runs may
            // overshoot by at most one run length).
            prop_assert!(t.len() >= 4096 + accesses);
            prop_assert!(t.len() < 4096 + accesses + cfg.max_run as usize);
        }
    }

    #[test]
    fn workload_stats_are_consistent(
        spec in prop::collection::vec((any::<u16>(), any::<bool>()), 0..200)
    ) {
        let mut t0 = ThreadTrace::new(ThreadId(0), CoreId(0));
        for &(addr, write) in &spec {
            if write {
                t0.write(0, Addr(addr as u64 * 4));
            } else {
                t0.read(0, Addr(addr as u64 * 4));
            }
        }
        let w = Workload::new("stats", vec![t0]);
        let s = w.stats(64);
        prop_assert_eq!(s.accesses as usize, spec.len());
        prop_assert_eq!(s.reads + s.writes, s.accesses);
        prop_assert_eq!(s.shared_lines, 0, "single thread cannot share");
        prop_assert_eq!(s.footprint_bytes, s.lines_touched * 64);
        if !spec.is_empty() {
            prop_assert!(s.min_addr <= s.max_addr);
        }
    }
}
