//! Property-based MSI protocol tests: arbitrary access interleavings
//! must preserve the directory invariants (single writer, directory ↔
//! cache agreement) and conserve accesses.

use em2_coherence::{run_msi, MsiConfig};
use em2_model::{Addr, CoreId, ThreadId};
use em2_placement::Striped;
use em2_trace::{ThreadTrace, Workload};
use proptest::prelude::*;

fn workload(spec: Vec<Vec<(u16, bool)>>) -> Workload {
    let traces = spec
        .into_iter()
        .enumerate()
        .map(|(i, recs)| {
            let mut t = ThreadTrace::new(ThreadId(i as u32), CoreId(i as u16));
            for (addr, write) in recs {
                // Small address space: heavy sharing and conflict
                // evictions on the tiny default caches.
                let a = Addr((addr % 512) as u64 * 8);
                if write {
                    t.write(1, a);
                } else {
                    t.read(1, a);
                }
            }
            t
        })
        .collect();
    Workload::new("prop-msi", traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn protocol_invariants_hold_under_arbitrary_sharing(
        spec in prop::collection::vec(
            prop::collection::vec((any::<u16>(), any::<bool>()), 0..150),
            1..5,
        )
    ) {
        let w = workload(spec);
        let total = w.total_accesses();
        let p = Striped::new(4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
        prop_assert_eq!(r.total_accesses() as usize, total);
    }

    #[test]
    fn write_heavy_sharing_generates_invalidations(
        addrs in prop::collection::vec(0u16..4, 20..100)
    ) {
        // All four threads write the same tiny set of lines: the
        // protocol must arbitrate with invalidations or forwards.
        let spec: Vec<Vec<(u16, bool)>> = (0..4)
            .map(|_| addrs.iter().map(|&a| (a, true)).collect())
            .collect();
        let w = workload(spec);
        let p = Striped::new(4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
        prop_assert!(
            r.invalidations + r.forwards > 0,
            "contended writes must invalidate: {r}"
        );
    }

    #[test]
    fn read_only_workloads_never_invalidate(
        addrs in prop::collection::vec(any::<u16>(), 1..200)
    ) {
        let spec: Vec<Vec<(u16, bool)>> = (0..4)
            .map(|_| addrs.iter().map(|&a| (a, false)).collect())
            .collect();
        let w = workload(spec);
        let p = Striped::new(4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        prop_assert!(r.violations.is_empty(), "{:?}", r.violations);
        prop_assert_eq!(r.invalidations, 0, "reads never invalidate");
        prop_assert_eq!(r.upgrades, 0);
        prop_assert_eq!(r.write_misses + r.write_hits, 0);
    }

    #[test]
    fn latency_bounded_by_protocol_worst_case(
        spec in prop::collection::vec(
            prop::collection::vec((any::<u16>(), any::<bool>()), 1..80),
            1..5,
        )
    ) {
        let w = workload(spec);
        let p = Striped::new(4, 64);
        let cfg = MsiConfig::with_cores(4);
        // Worst case: miss + dir + forward + invalidate everyone +
        // dram + data; all legs bounded by diameter-length messages.
        let cm = cfg.cost.clone();
        let diameter_leg = cm.mesh.diameter() * cm.hop_latency + 64; // generous serialization
        let worst = cm.l1_hit_latency
            + 2 * cm.l2_hit_latency
            + cm.dram_latency
            + 8 * diameter_leg;
        let r = run_msi(cfg, &w, &p);
        if let Some(max) = r.access_latency.max() {
            prop_assert!(
                max <= worst as f64,
                "access latency {} exceeds protocol worst case {}",
                max, worst
            );
        }
    }

    #[test]
    fn unbounded_queued_contention_collapses_to_off(
        spec in prop::collection::vec(
            prop::collection::vec((any::<u16>(), any::<bool>()), 1..60),
            1..5,
        )
    ) {
        use em2_engine::{Contention, QueuedParams};
        let w = workload(spec);
        let p = Striped::new(4, 64);
        let off = run_msi(MsiConfig::with_cores(4), &w, &p);
        let unb = run_msi(
            MsiConfig {
                contention: Contention::Queued(QueuedParams::UNBOUNDED),
                ..MsiConfig::with_cores(4)
            },
            &w,
            &p,
        );
        prop_assert_eq!(off.cycles, unb.cycles);
        prop_assert_eq!(off.total_flit_hops(), unb.total_flit_hops());
        prop_assert_eq!(off.invalidations, unb.invalidations);
        prop_assert_eq!(off.writebacks, unb.writebacks);
        prop_assert_eq!(&off.access_latency, &unb.access_latency);
        prop_assert_eq!(unb.queue_link_wait_cycles, 0);
        prop_assert_eq!(unb.queue_home_wait_cycles, 0);
    }
}
