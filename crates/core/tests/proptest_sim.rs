//! Property-based simulator tests: arbitrary small workloads must run
//! to completion with zero invariant violations and exact access
//! conservation, under every machine variant.

use em2_core::decision::{AlwaysMigrate, AlwaysRemote, DistanceThreshold};
use em2_core::machine::MachineConfig;
use em2_core::sim::run_em2ra;
use em2_model::{Addr, CoreId, ThreadId};
use em2_placement::Striped;
use em2_trace::{ThreadTrace, Workload};
use proptest::prelude::*;

/// Build a random but well-formed workload: every thread gets the same
/// number of barriers, placed at random positions.
fn workload_strategy(threads: usize) -> impl Strategy<Value = Workload> {
    let per_thread = prop::collection::vec((any::<u16>(), any::<bool>(), 0u32..4), 1..60);
    (prop::collection::vec(per_thread, threads), 0usize..3).prop_map(move |(specs, barriers)| {
        let traces = specs
            .into_iter()
            .enumerate()
            .map(|(i, recs)| {
                let mut t = ThreadTrace::new(ThreadId(i as u32), CoreId((i % 4) as u16));
                let n = recs.len();
                for (j, (addr, write, gap)) in recs.into_iter().enumerate() {
                    // Barriers at evenly split positions so all threads
                    // share the same barrier count.
                    for b in 0..barriers {
                        if j == (b + 1) * n / (barriers + 1) {
                            t.barrier();
                        }
                    }
                    let a = Addr((addr as u64) * 8);
                    if write {
                        t.write(gap, a);
                    } else {
                        t.read(gap, a);
                    }
                }
                t
            })
            .collect();
        Workload::new("prop", traces)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn em2_conserves_accesses_and_invariants(w in workload_strategy(4)) {
        let p = Striped::new(4, 64);
        let r = run_em2ra(
            MachineConfig::with_cores(4),
            &w,
            &p,
            Box::new(AlwaysMigrate),
        );
        prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
        prop_assert_eq!(r.flow.total_accesses() as usize, w.total_accesses());
        prop_assert_eq!(r.flow.remote_reads + r.flow.remote_writes, 0);
    }

    #[test]
    fn em2ra_conserves_accesses_and_invariants(w in workload_strategy(4)) {
        let p = Striped::new(4, 64);
        for scheme in [true, false] {
            let s: Box<dyn em2_core::DecisionScheme> = if scheme {
                Box::new(AlwaysRemote)
            } else {
                Box::new(DistanceThreshold { max_hops: 1 })
            };
            let r = run_em2ra(MachineConfig::with_cores(4), &w, &p, s);
            prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
            prop_assert_eq!(r.flow.total_accesses() as usize, w.total_accesses());
        }
    }

    #[test]
    fn scarce_contexts_still_terminate_cleanly(w in workload_strategy(4)) {
        // One guest context per core: maximal eviction churn. The run
        // must still finish with every access accounted.
        let p = Striped::new(4, 64);
        let cfg = MachineConfig {
            guest_contexts: 1,
            ..MachineConfig::with_cores(4)
        };
        let r = run_em2ra(cfg, &w, &p, Box::new(AlwaysMigrate));
        prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
        prop_assert_eq!(r.flow.total_accesses() as usize, w.total_accesses());
        prop_assert!(r.peak_guests <= 1);
    }

    #[test]
    fn run_histogram_mass_equals_non_native_accesses(w in workload_strategy(4)) {
        let p = Striped::new(4, 64);
        let cfg = MachineConfig {
            guest_contexts: 8,
            ..MachineConfig::with_cores(4)
        };
        let r = run_em2ra(cfg, &w, &p, Box::new(AlwaysMigrate));
        let analysis = em2_placement::run_length_analysis(&w, &p, 60);
        prop_assert_eq!(r.run_lengths, analysis.histogram);
    }

    #[test]
    fn makespan_dominates_every_latency_sum_component(w in workload_strategy(2)) {
        let p = Striped::new(4, 64);
        let r = run_em2ra(
            MachineConfig::with_cores(4),
            &w,
            &p,
            Box::new(AlwaysMigrate),
        );
        // Per-thread serial execution: the makespan is at least the
        // mean access latency (any single access fits in the run).
        if r.flow.total_accesses() > 0 {
            prop_assert!(r.cycles as f64 >= r.amat());
        }
    }
}
