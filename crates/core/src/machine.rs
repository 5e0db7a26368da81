//! Machine configuration for the EM² simulator.

use em2_cache::HierarchyConfig;
use em2_engine::Contention;
use em2_model::CostModel;

/// Full configuration of an EM² (or EM²-RA) machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Network + memory cost model (also fixes the mesh/core count).
    pub cost: CostModel,
    /// Per-core L1/L2 geometry (the paper's 16 KB + 64 KB default).
    pub caches: HierarchyConfig,
    /// Guest execution contexts per core (besides reserved natives);
    /// a full pool evicts its least-recently-active evictable guest.
    pub guest_contexts: usize,
    /// Contention timing layer ([`Contention::Off`] = the closed-form
    /// model, bit-exact with the paper's §3 timing;
    /// [`Contention::Queued`] adds home-core service queues and link
    /// bandwidth occupancy — see `em2-engine`).
    pub contention: Contention,
}

impl Default for MachineConfig {
    /// The paper's Figure-2 machine: 64 cores, 16 KB L1 + 64 KB L2,
    /// 2 guest contexts, LRU victimization.
    fn default() -> Self {
        MachineConfig::with_cores(64)
    }
}

impl MachineConfig {
    /// A config for `cores` cores with everything else defaulted.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            cost: CostModel::builder().cores(cores).build(),
            caches: HierarchyConfig::default(),
            guest_contexts: 2,
            contention: Contention::Off,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cost.cores()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MachineConfig::default();
        assert_eq!(c.cores(), 64);
        assert_eq!(c.caches.l1.size_bytes, 16 * 1024);
        assert_eq!(c.caches.l2.size_bytes, 64 * 1024);
        assert!(c.guest_contexts >= 1);
    }

    #[test]
    fn with_cores_resizes_mesh() {
        assert_eq!(MachineConfig::with_cores(16).cores(), 16);
        assert_eq!(MachineConfig::with_cores(256).cores(), 256);
    }
}
