//! Property-based placement tests: totality, stability, first-touch
//! correctness, and the dense unit → home tables against the hash-map
//! builds they replaced.

use em2_model::{Addr, CoreId, ThreadId, WordMap};
use em2_placement::{
    run_length_analysis, BlockOwner, FirstTouch, PageRoundRobin, Placement, ProfileMajority,
    Striped,
};
use em2_trace::{ThreadTrace, Workload};
use proptest::prelude::*;

fn workload_from(addrs: Vec<(u8, u32)>) -> Workload {
    let mut traces: Vec<ThreadTrace> = (0..4)
        .map(|i| ThreadTrace::new(ThreadId(i), CoreId(i as u16)))
        .collect();
    for (t, a) in addrs {
        traces[(t % 4) as usize].read(0, Addr(a as u64 * 4));
    }
    Workload::new("prop", traces)
}

/// The oracle: `FirstTouch::build` as a hash map, replay for replay.
fn first_touch_map(workload: &Workload, unit_shift: u32) -> WordMap<u64, CoreId> {
    let mut table = WordMap::default();
    for phase in 0..workload.phases() {
        let slices: Vec<_> = workload
            .threads
            .iter()
            .map(|t| t.phase_records(phase))
            .collect();
        for i in 0..slices.iter().map(|s| s.len()).max().unwrap_or(0) {
            for (t, s) in workload.threads.iter().zip(&slices) {
                if let Some(r) = s.get(i) {
                    table.entry(r.addr.0 >> unit_shift).or_insert(t.native);
                }
            }
        }
    }
    table
}

/// The oracle: `ProfileMajority::build` as nested hash maps, ties to
/// the lower core.
fn profile_majority_map(workload: &Workload, unit_shift: u32) -> WordMap<u64, CoreId> {
    let mut counts: WordMap<u64, WordMap<CoreId, u64>> = WordMap::default();
    for t in &workload.threads {
        for r in &t.records {
            *counts
                .entry(r.addr.0 >> unit_shift)
                .or_default()
                .entry(t.native)
                .or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(unit, per_core)| {
            let best = per_core
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(c, _)| c)
                .expect("a counted unit has a core");
            (unit, best)
        })
        .collect()
}

/// `(thread, first element, elements, barrier after)`.
type Run = (u8, u16, u8, bool);

/// Four threads on cores 0–3 replaying [`Run`]s of accesses in regions
/// `(base, stride choice, runs)` scattered over the whole address
/// space. Each region has its own stride, so at 64 B and at 4 KiB
/// granularity runs share units, fill pages end to end and leave gaps
/// of every width between regions.
fn scattered(regions: Vec<(u64, u8, Vec<Run>)>) -> Workload {
    let mut traces: Vec<ThreadTrace> = (0..4)
        .map(|i| ThreadTrace::new(ThreadId(i), CoreId(i as u16)))
        .collect();
    for (base, stride, runs) in regions {
        let stride = [8u64, 32, 64, 1024, 4096][stride as usize % 5];
        let base = base.min(u64::MAX - (1 << 24));
        for (t, first, n, barrier) in runs {
            let trace = &mut traces[t as usize % 4];
            for k in 0..u64::from(n) {
                trace.read(0, Addr(base + (u64::from(first) + k) * stride));
            }
            if barrier {
                trace.barrier();
            }
        }
    }
    Workload::new("scattered", traces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unit_tables_answer_what_the_hash_maps_answered(
        regions in prop::collection::vec(
            (
                any::<u64>(),
                any::<u8>(),
                prop::collection::vec((any::<u8>(), 0u16..600, 1u8..160, any::<bool>()), 1..8),
            ),
            1..5,
        ),
        probes in prop::collection::vec(any::<u64>(), 64usize),
    ) {
        const CORES: usize = 4;
        let w = scattered(regions);
        let fallback = Striped::new(CORES, 64);
        for granularity in [64u64, 4096] {
            let shift = granularity.trailing_zeros();
            let ft = FirstTouch::build(&w, CORES, granularity);
            let pm = ProfileMajority::build(&w, CORES, granularity);
            let (ft_map, pm_map) = (first_touch_map(&w, shift), profile_majority_map(&w, shift));
            let oracle = |map: &WordMap<u64, CoreId>, a: u64| {
                map.get(&(a >> shift))
                    .copied()
                    .unwrap_or_else(|| fallback.home_of(Addr(a)))
            };
            // Every touched address, the units on either side of it, the
            // units just outside its aligned block of 64 units (where the
            // table's segments start and end), and addresses nobody
            // touched.
            let block = granularity << 6;
            let touched = w.threads.iter().flat_map(|t| t.records.iter().map(|r| r.addr.0));
            let near = touched.flat_map(|a| {
                [
                    Some(a),
                    a.checked_sub(granularity),
                    a.checked_add(granularity),
                    (a & !(block - 1)).checked_sub(granularity),
                    (a | (block - 1)).checked_add(1),
                ]
            });
            for a in near.flatten().chain(probes.iter().copied()) {
                prop_assert_eq!(
                    ft.home_of(Addr(a)),
                    oracle(&ft_map, a),
                    "first-touch {:#x} at {}",
                    a,
                    granularity
                );
                prop_assert_eq!(
                    pm.home_of(Addr(a)),
                    oracle(&pm_map, a),
                    "majority {:#x} at {}",
                    a,
                    granularity
                );
            }
            let mut counts = vec![0usize; CORES];
            ft_map.values().for_each(|c| counts[c.index()] += 1);
            prop_assert_eq!(ft.distribution(), counts, "distribution at {}", granularity);
        }
    }

    #[test]
    fn all_policies_are_total_and_stable(addr in any::<u64>()) {
        let w = workload_from(vec![(0, 1), (1, 2)]);
        let policies: Vec<Box<dyn Placement>> = vec![
            Box::new(Striped::new(4, 64)),
            Box::new(PageRoundRobin::new(4, 4096)),
            Box::new(BlockOwner::new(4, 0x1000, 1 << 20, 64)),
            Box::new(FirstTouch::build(&w, 4, 64)),
            Box::new(ProfileMajority::build(&w, 4, 64)),
        ];
        for p in &policies {
            let h1 = p.home_of(Addr(addr));
            let h2 = p.home_of(Addr(addr));
            prop_assert_eq!(h1, h2, "{} is unstable", p.name());
            prop_assert!(h1.index() < 4, "{} out of range", p.name());
        }
    }

    #[test]
    fn first_touch_homes_are_toucher_natives(
        addrs in prop::collection::vec((0u8..4, 0u32..2048), 1..200)
    ) {
        let w = workload_from(addrs);
        let p = FirstTouch::build(&w, 4, 64);
        // Every touched address is homed at the native core of SOME
        // thread that touches its placement unit.
        for t in &w.threads {
            for r in &t.records {
                let home = p.home_of(r.addr);
                let unit = r.addr.0 / 64;
                let touchers: Vec<CoreId> = w
                    .threads
                    .iter()
                    .filter(|tt| tt.records.iter().any(|rr| rr.addr.0 / 64 == unit))
                    .map(|tt| tt.native)
                    .collect();
                prop_assert!(
                    touchers.contains(&home),
                    "{:?} homed at {:?} but touchers are {:?}",
                    r.addr, home, touchers
                );
            }
        }
    }

    #[test]
    fn profile_majority_never_increases_non_native_accesses(
        addrs in prop::collection::vec((0u8..4, 0u32..512), 10..300)
    ) {
        // Majority placement minimizes per-unit non-native accesses by
        // construction, so its total can't exceed first-touch's.
        let w = workload_from(addrs);
        let ft = FirstTouch::build(&w, 4, 64);
        let pm = ProfileMajority::build(&w, 4, 64);
        let a_ft = run_length_analysis(&w, &ft, 60);
        let a_pm = run_length_analysis(&w, &pm, 60);
        prop_assert!(a_pm.non_native_accesses <= a_ft.non_native_accesses);
    }

    #[test]
    fn run_length_analysis_conserves_mass(
        addrs in prop::collection::vec((0u8..4, 0u32..512), 0..300)
    ) {
        let w = workload_from(addrs);
        let p = Striped::new(4, 64);
        let a = run_length_analysis(&w, &p, 60);
        prop_assert_eq!(a.total_accesses as usize, w.total_accesses());
        prop_assert_eq!(a.native_accesses + a.non_native_accesses, a.total_accesses);
        prop_assert_eq!(a.histogram.weighted_total(), a.non_native_accesses as u128);
        // Migrations can never exceed total accesses, and every
        // non-native run needs at least one migration to start it.
        prop_assert!(a.migrations_pure_em2 <= a.total_accesses);
        prop_assert!(a.migrations_pure_em2 >= a.non_native_runs);
    }
}
