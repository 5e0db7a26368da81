//! Property-based tests for the shared model types.

use em2_model::{ceil_div, AccessKind, CoreId, CostModel, Histogram, Mesh, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ceil_div_is_exact(a in 0u64..1_000_000, b in 1u64..10_000) {
        let q = ceil_div(a, b);
        prop_assert!(q * b >= a);
        prop_assert!(q == 0 || (q - 1) * b < a);
    }

    #[test]
    fn mesh_hops_is_a_metric(w in 1u16..10, h in 1u16..10, seed in any::<u64>()) {
        let mesh = Mesh::new(w, h);
        let n = mesh.cores() as u64;
        let pick = |s: u64| CoreId::from((s % n) as usize);
        let (a, b, c) = (pick(seed), pick(seed / 7 + 1), pick(seed / 13 + 2));
        // identity, symmetry, triangle inequality
        prop_assert_eq!(mesh.hops(a, a), 0);
        prop_assert_eq!(mesh.hops(a, b), mesh.hops(b, a));
        prop_assert!(mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c));
        prop_assert!(mesh.hops(a, b) <= mesh.diameter());
    }

    #[test]
    fn xy_routes_are_minimal_and_valid(w in 2u16..8, h in 2u16..8, s in any::<u64>(), d in any::<u64>()) {
        let mesh = Mesh::new(w, h);
        let n = mesh.cores() as u64;
        let src = CoreId::from((s % n) as usize);
        let dst = CoreId::from((d % n) as usize);
        let route = mesh.xy_route(src, dst);
        prop_assert_eq!(route.len() as u64, mesh.hops(src, dst));
        let mut prev = src;
        for &step in &route {
            prop_assert_eq!(mesh.hops(prev, step), 1);
            prev = step;
        }
        if src != dst {
            prop_assert_eq!(*route.last().unwrap(), dst);
        }
    }

    #[test]
    fn histogram_conserves_mass(values in prop::collection::vec(0u64..200, 0..300)) {
        let mut h = Histogram::new(60);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total_count(), values.len() as u64);
        prop_assert_eq!(h.total_value(), values.iter().map(|&v| v as u128).sum::<u128>());
        // Bin counts + overflow == total.
        let binned: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(binned + h.overflow(), h.total_count());
        // Weighted fractions are monotone in the threshold.
        let f1 = h.weighted_fraction_le(1);
        let f10 = h.weighted_fraction_le(10);
        let f60 = h.weighted_fraction_le(60);
        prop_assert!(f1 <= f10 + 1e-12);
        prop_assert!(f10 <= f60 + 1e-12);
    }

    #[test]
    fn histogram_merge_is_addition(
        xs in prop::collection::vec(0u64..100, 0..100),
        ys in prop::collection::vec(0u64..100, 0..100),
    ) {
        let mut a = Histogram::new(40);
        let mut b = Histogram::new(40);
        let mut whole = Histogram::new(40);
        for &v in &xs { a.record(v); whole.record(v); }
        for &v in &ys { b.record(v); whole.record(v); }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn summary_merge_equals_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = Summary::new();
        for &x in &xs { whole.record(x); }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..split] { left.record(x); }
        for &x in &xs[split..] { right.record(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        if !xs.is_empty() {
            prop_assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
            prop_assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1.0);
            prop_assert_eq!(left.min(), whole.min());
            prop_assert_eq!(left.max(), whole.max());
        }
    }

    #[test]
    fn cost_model_monotone_in_distance_and_size(
        x1 in 0u16..8, y1 in 0u16..8, bits in 64u64..4096,
    ) {
        let cm = CostModel::default();
        let origin = cm.mesh.at(0, 0);
        let a = cm.mesh.at(x1, y1);
        // Strictly further cores cost at least as much.
        if x1 + 1 < 8 {
            let b = cm.mesh.at(x1 + 1, y1);
            prop_assert!(
                cm.migration_latency_bits(origin, a, bits)
                    <= cm.migration_latency_bits(origin, b, bits)
            );
            prop_assert!(
                cm.remote_access_latency(origin, a, AccessKind::Read)
                    <= cm.remote_access_latency(origin, b, AccessKind::Read)
            );
        }
        // Bigger contexts never migrate faster.
        prop_assert!(
            cm.migration_latency_bits(origin, a, bits)
                <= cm.migration_latency_bits(origin, a, bits * 2)
        );
    }

    /// Every entry of the model's pair table equals the closed form it
    /// replaced, written out here rather than asked of the model.
    #[test]
    fn pair_table_equals_the_closed_form(
        shape in 0usize..4,
        side in 2u16..7,
        hop_latency in 0u64..8,
        link_width_bits in 1u64..300,
        context_bits in 1u64..4096,
    ) {
        let mesh = [Mesh::new(side, side), Mesh::new(3, 5), Mesh::square_for(10), Mesh::new(1, 1)][shape];
        let cm = CostModel::builder()
            .mesh(mesh)
            .hop_latency(hop_latency)
            .link_width_bits(link_width_bits)
            .context_bits(context_bits)
            .build();
        let flits = |bits: u64| ceil_div(bits + cm.header_bits, link_width_bits).max(1);
        let leg = |hops: u64, bits: u64| hops * hop_latency + flits(bits) - 1;
        for src in mesh.iter() {
            for dst in mesh.iter() {
                let hops = mesh.hops(src, dst);
                prop_assert_eq!(cm.hops(src, dst), hops);
                let (migration, read, write) = if src == dst {
                    (0, 0, 0)
                } else {
                    (
                        leg(hops, context_bits) + cm.migration_fixed,
                        leg(hops, cm.ra_req_bits) + leg(hops, cm.ra_resp_read_bits) + cm.ra_fixed,
                        leg(hops, cm.ra_req_bits + cm.ra_write_data_bits)
                            + leg(hops, cm.ra_resp_ack_bits)
                            + cm.ra_fixed,
                    )
                };
                prop_assert_eq!(cm.migration_latency(src, dst), migration);
                prop_assert_eq!(cm.remote_access_latency(src, dst, AccessKind::Read), read);
                prop_assert_eq!(cm.remote_access_latency(src, dst, AccessKind::Write), write);
            }
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), n in 1usize..100) {
        let mut a = em2_model::DetRng::new(seed);
        let mut b = em2_model::DetRng::new(seed);
        for _ in 0..n {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let bound = 1 + (seed % 1000);
        for _ in 0..n {
            prop_assert!(a.below(bound) < bound);
        }
    }
}
