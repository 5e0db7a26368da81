//! The online placement scorecard: the **observed** cost of the
//! placement the runtime actually executed — read back from the
//! telemetry plane's cost-attribution matrix — against the paper's DP
//! bound on the same access stream (`em2_optimal::migrate_ra`).
//!
//! The workload is a deterministic replay mirror of the open-loop KV
//! serving requests ([`crate::serving::KvRequest`]): each round of a
//! thread reads a shared hot key, writes a key of its own, and reads
//! it back, with homes striped across shards exactly like the serving
//! placement. Mirroring the serving shape in trace form buys two
//! things: the DP can bound the stream (it needs the whole access
//! sequence up front), and every number in the scorecard is a
//! per-thread program-order function — so the observed cost is
//! bit-identical however many workers, nodes, or handoffs executed
//! it, and E14 can assert the 2-node cluster sum equals the
//! single-process reading exactly.

use crate::experiments::scheme_network_cost_flat;
use crate::par;
use crate::workloads::Scale;
use em2_core::decision::{
    AlwaysMigrate, AlwaysRemote, DecisionScheme, DistanceThreshold, HistoryPredictor,
};
use em2_model::{Addr, CoreId, DetRng, ThreadId};
use em2_optimal::migrate_ra;
use em2_placement::{Placement, Striped};
use em2_trace::{FlatWorkload, ThreadTrace, Workload};
use std::sync::Arc;

/// Hot keys shared by every request round (mirrors the serving
/// benchmark's hot set).
const HOT_KEYS: u64 = 16;

/// A factory building one decision-scheme instance (the runtime builds
/// one per task).
pub type SchemeFactory = fn() -> Box<dyn DecisionScheme>;

/// The scorecard's scheme panel, shared by the single-process measure
/// and E14's cluster sums (same names and order in both).
pub fn scheme_panel() -> [(&'static str, SchemeFactory); 4] {
    [
        ("always-migrate", || Box::new(AlwaysMigrate)),
        ("always-RA", || Box::new(AlwaysRemote)),
        ("dist<=2", || Box::new(DistanceThreshold { max_hops: 2 })),
        ("history", || Box::new(HistoryPredictor::new(1.0, 0.5))),
    ]
}

/// The deterministic KV-shaped replay workload: `threads` threads,
/// each running `rounds` request rounds of
/// `read hot → write own → read own`, natives striped over `shards`.
/// Hot keys are drawn from one seeded stream, so the workload is a
/// pure function of its arguments.
pub fn kv_workload(threads: usize, rounds: usize, shards: usize) -> Workload {
    let mut rng = DetRng::new(0x4b57_0e14);
    let mut tts = Vec::with_capacity(threads);
    for i in 0..threads {
        let mut t = ThreadTrace::new(ThreadId(i as u32), CoreId::from(i % shards));
        for r in 0..rounds {
            let hot = rng.below(HOT_KEYS);
            let own = HOT_KEYS + (i * rounds + r) as u64;
            t.read(4, Addr(hot * 8));
            t.write(4, Addr(own * 8));
            t.read(4, Addr(own * 8));
        }
        tts.push(t);
    }
    Workload::new("kv-replay", tts)
}

/// One scheme's scorecard entry.
#[derive(Clone, Copy, Debug)]
pub struct SchemeScore {
    /// Scheme name (from [`scheme_panel`]).
    pub scheme: &'static str,
    /// Attributed cost read from the telemetry plane after an obs-on
    /// runtime execution (the sum of the attribution matrix's cost
    /// column) — asserted equal to the paper's `O(N)` replay of the
    /// same stream ([`scheme_network_cost_flat`]), pinning the
    /// attribution plumbing to the analytical model.
    pub observed: u64,
}

/// The placement scorecard: per-scheme observed cost plus the DP bound
/// every scheme is measured against.
pub struct PlacementScorecard {
    /// The stream that was measured ([`kv_workload`]). E14 replays
    /// this workload, placement and config on a cluster to compare
    /// sums.
    pub workload: Arc<Workload>,
    /// Its placement: homes striped like the serving benchmark's.
    pub placement: Arc<dyn Placement>,
    /// The obs-on, eviction-free runtime configuration it ran on.
    pub cfg: em2_rt::RtConfig,
    /// The DP lower bound on the same access stream.
    pub bound: u64,
    /// Per-scheme entries, in [`scheme_panel`] order.
    pub scores: Vec<SchemeScore>,
}

impl PlacementScorecard {
    /// Measure the scorecard single-process: run each panel scheme on
    /// the eviction-free runtime with the telemetry plane on, read the
    /// attributed cost back from the final snapshot, and solve the DP
    /// bound on the same flat stream.
    pub fn measure(scale: Scale) -> Self {
        // One request stream per shard.
        let (shards, threads) = (scale.cores(), scale.cores());
        let rounds = match scale {
            Scale::Quick => 32,
            Scale::Full => 64,
        };
        let w = Arc::new(kv_workload(threads, rounds, shards));
        let placement: Arc<dyn Placement> = Arc::new(Striped::new(shards, 64));
        let mut cfg = em2_rt::RtConfig::eviction_free(shards, threads);
        cfg.obs = Some(em2_obs::ObsConfig::on());
        let flat = FlatWorkload::build(&w, 64, |a| placement.home_of(a));
        // Bounded nested fan-out, like E4: the caller may already span
        // the pool.
        let inner = par::threads().min(4);
        let (bound, _) = migrate_ra::workload_optimal_flat(&flat, &cfg.cost, inner);
        let scores = scheme_panel()
            .into_iter()
            .map(|(name, factory)| {
                let report = em2_rt::run_workload(cfg.clone(), &w, Arc::clone(&placement), factory);
                let observed = report
                    .obs
                    .as_ref()
                    .expect("obs was configured on")
                    .attrib_cost();
                let replay = scheme_network_cost_flat(&flat, &cfg.cost, &mut *factory());
                assert!(
                    observed >= bound,
                    "{name}: attributed cost {observed} beat the DP bound {bound}"
                );
                assert_eq!(
                    observed, replay,
                    "{name}: the attribution matrix ({observed}) diverged from the \
                     O(N) replay ({replay}) on the same stream"
                );
                SchemeScore {
                    scheme: name,
                    observed,
                }
            })
            .collect();
        PlacementScorecard {
            workload: w,
            placement,
            cfg,
            bound,
            scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_workload_is_deterministic_and_kv_shaped() {
        let a = kv_workload(4, 8, 4);
        let b = kv_workload(4, 8, 4);
        assert_eq!(a.num_threads(), 4);
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.records, tb.records, "same args must replay bit-equal");
            // 3 accesses per round: hot read, own write, own readback.
            assert_eq!(ta.records.len(), 24);
        }
    }

    #[test]
    fn observed_cost_matches_replay_and_respects_the_bound() {
        // The measure itself asserts observed == replay and
        // observed >= bound per scheme; this pins the structure.
        let sc = PlacementScorecard::measure(Scale::Quick);
        assert_eq!(sc.scores.len(), 4);
        assert!(
            sc.bound > 0,
            "the KV stream crosses shards; bound can't be 0"
        );
        assert!(
            sc.scores.iter().any(|s| s.observed > 0),
            "at least one scheme pays nonzero network cost"
        );
    }
}
