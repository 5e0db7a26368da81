//! The per-core two-level data-cache hierarchy.
//!
//! Models the paper's Figure-2 configuration (16 KB L1 + 64 KB L2 data
//! caches per core) as a write-back, write-allocate, *mostly-inclusive*
//! hierarchy: fills go into both levels, L2 evictions invalidate the
//! L1 copy (enforcing inclusion), and dirty evictions write back
//! downward (L1→L2, L2→memory).

use crate::config::CacheConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;
use em2_model::{Addr, CostModel, LineAddr};

/// Which level serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicedBy {
    /// Hit in the L1.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both levels; serviced from memory (DRAM).
    Memory,
}

/// Outcome of one hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Which level serviced the access.
    pub serviced_by: ServicedBy,
    /// Whether a dirty L2 line went back to memory as a side effect.
    pub wrote_back_to_memory: bool,
    /// A line that left the chip entirely (evicted from L2, and from
    /// L1 by inclusion), with its dirty status. Coherence directories
    /// must observe these.
    pub l2_victim: Option<(LineAddr, bool)>,
}

impl AccessOutcome {
    /// Latency of this access under the shared cost model.
    pub fn latency(&self, cm: &CostModel) -> u64 {
        match self.serviced_by {
            ServicedBy::L1 => cm.l1_hit_latency,
            ServicedBy::L2 => cm.l1_hit_latency + cm.l2_hit_latency,
            ServicedBy::Memory => cm.l1_hit_latency + cm.l2_hit_latency + cm.dram_latency,
        }
    }
}

/// Geometry of the two levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
}

impl Default for HierarchyConfig {
    /// The paper's configuration: 16 KB L1 + 64 KB L2, 64-byte lines.
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_16k(),
            l2: CacheConfig::l2_64k(),
        }
    }
}

/// A per-core L1+L2 data-cache pair.
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    line_bytes: u64,
    stats: CacheStats,
}

impl CacheHierarchy {
    /// Build with LRU replacement at both levels.
    pub fn new(config: HierarchyConfig) -> Self {
        assert_eq!(
            config.l1.line_bytes, config.l2.line_bytes,
            "hierarchy levels must share a line size"
        );
        CacheHierarchy {
            line_bytes: config.l1.line_bytes,
            l1: SetAssocCache::new_lru(config.l1),
            l2: SetAssocCache::new_lru(config.l2),
            stats: CacheStats::default(),
        }
    }

    /// Access `addr`; returns which level serviced it.
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessOutcome {
        let line = addr.line(self.line_bytes);
        let mut wrote_back_to_memory = false;
        let mut l2_victim = None;

        // L1 lookup.
        let r1 = self.l1.access(line, write);
        if let Some((victim, dirty)) = r1.evicted {
            if dirty {
                // Write back into L2 (it should normally be present —
                // inclusion — but allocate if it was evicted earlier).
                let r2 = self.l2.access(victim, true);
                if let Some((v2, d2)) = r2.evicted {
                    self.l1.invalidate(v2); // maintain inclusion
                    l2_victim = Some((v2, d2));
                    if d2 {
                        self.stats.l2_writebacks += 1;
                        wrote_back_to_memory = true;
                    }
                }
                self.stats.l1_writebacks += 1;
            }
        }
        if r1.hit {
            self.stats.l1_hits += 1;
            return AccessOutcome {
                serviced_by: ServicedBy::L1,
                wrote_back_to_memory,
                l2_victim,
            };
        }
        self.stats.l1_misses += 1;

        // L2 lookup (the L1 fill already happened above).
        let r2 = self.l2.access(line, write);
        if let Some((victim, dirty)) = r2.evicted {
            // Inclusion: anything leaving L2 must leave L1 too. A dirty
            // L1 copy folds into the L2 line being written back.
            let l1_dirty = self.l1.invalidate(victim).unwrap_or(false);
            l2_victim = Some((victim, dirty || l1_dirty));
            if dirty || l1_dirty {
                self.stats.l2_writebacks += 1;
                wrote_back_to_memory = true;
            }
        }
        if r2.hit {
            self.stats.l2_hits += 1;
            AccessOutcome {
                serviced_by: ServicedBy::L2,
                wrote_back_to_memory,
                l2_victim,
            }
        } else {
            self.stats.l2_misses += 1;
            AccessOutcome {
                serviced_by: ServicedBy::Memory,
                wrote_back_to_memory,
                l2_victim,
            }
        }
    }

    /// Invalidate a line from both levels (used by the coherence
    /// baseline); returns true if any copy was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let line = addr.line(self.line_bytes);
        let d1 = self.l1.invalidate(line).unwrap_or(false);
        let d2 = self.l2.invalidate(line).unwrap_or(false);
        d1 || d2
    }

    /// Clear a line's dirty bits in both levels (coherence downgrade
    /// after a writeback). Returns true if any copy was present.
    pub fn clean(&mut self, addr: Addr) -> bool {
        let line = addr.line(self.line_bytes);
        let c1 = self.l1.clean(line);
        let c2 = self.l2.clean(line);
        c1 || c2
    }

    /// Presence check (either level).
    pub fn contains(&self, addr: Addr) -> bool {
        let line = addr.line(self.line_bytes);
        self.l1.probe(line) || self.l2.probe(line)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Direct access to the L1 (tests, occupancy studies).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Direct access to the L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        // L1: 2 sets × 2 ways; L2: 4 sets × 2 ways (64-byte lines).
        CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(256, 2, 64),
            l2: CacheConfig::new(512, 2, 64),
        })
    }

    fn a(line: u64) -> Addr {
        Addr(line * 64)
    }

    #[test]
    fn first_access_goes_to_memory_then_hits_l1() {
        let mut h = small();
        assert_eq!(h.access(a(0), false).serviced_by, ServicedBy::Memory);
        assert_eq!(h.access(a(0), false).serviced_by, ServicedBy::L1);
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = small();
        // Fill L1 set 0 (lines 0, 2) then displace with line 4:
        h.access(a(0), false);
        h.access(a(2), false);
        h.access(a(4), false); // L1 evicts 0 (clean), L2 holds 0
        assert_eq!(h.access(a(0), false).serviced_by, ServicedBy::L2);
    }

    #[test]
    fn latency_ordering() {
        let cm = CostModel::default();
        let l1 = AccessOutcome {
            serviced_by: ServicedBy::L1,
            wrote_back_to_memory: false,
            l2_victim: None,
        };
        let l2 = AccessOutcome {
            serviced_by: ServicedBy::L2,
            wrote_back_to_memory: false,
            l2_victim: None,
        };
        let mem = AccessOutcome {
            serviced_by: ServicedBy::Memory,
            wrote_back_to_memory: false,
            l2_victim: None,
        };
        assert!(l1.latency(&cm) < l2.latency(&cm));
        assert!(l2.latency(&cm) < mem.latency(&cm));
    }

    #[test]
    fn dirty_l1_eviction_writes_back_to_l2() {
        let mut h = small();
        h.access(a(0), true); // dirty in L1
        h.access(a(2), false);
        h.access(a(4), false); // evicts line 0 from L1 (dirty → L2)
        assert!(h.stats().l1_writebacks >= 1);
        // Line 0 still on chip:
        assert_eq!(h.access(a(0), false).serviced_by, ServicedBy::L2);
    }

    #[test]
    fn l2_eviction_enforces_inclusion() {
        let mut h = small();
        // L2 set 0 holds lines ≡ 0 (mod 4): fill with 0, 4, then 8
        // evicts one of them; its L1 copy must vanish too.
        h.access(a(0), false);
        h.access(a(4), false);
        h.access(a(8), false);
        // Exactly two of {0,4,8} remain on chip.
        let on_chip = [0u64, 4, 8].iter().filter(|&&l| h.contains(a(l))).count();
        assert_eq!(on_chip, 2);
        // And whichever left L2 must not hit in L1 either:
        for l in [0u64, 4, 8] {
            if !h.l2().probe(Addr(l * 64).line(64)) {
                assert!(!h.l1().probe(Addr(l * 64).line(64)), "inclusion violated");
            }
        }
    }

    #[test]
    fn dirty_l2_eviction_reports_memory_writeback() {
        let mut h = small();
        h.access(a(0), true);
        h.access(a(4), true);
        let out = h.access(a(8), true); // L2 set 0 overflows
        assert!(out.wrote_back_to_memory || h.stats().l2_writebacks > 0);
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut h = small();
        h.access(a(0), true);
        assert!(h.contains(a(0)));
        assert!(h.invalidate(a(0)), "was dirty");
        assert!(!h.contains(a(0)));
        assert!(!h.invalidate(a(0)), "already gone");
    }

    #[test]
    fn resident_lines_bounded_by_l2() {
        let mut h = small();
        for i in 0..64 {
            h.access(a(i), false);
        }
        assert!(h.l2().occupancy() <= 8);
    }

    #[test]
    #[should_panic(expected = "share a line size")]
    fn mismatched_line_sizes_rejected() {
        CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(256, 2, 64),
            l2: CacheConfig::new(512, 2, 128),
        });
    }

    #[test]
    fn paper_default_capacities() {
        let h = CacheHierarchy::new(HierarchyConfig::default());
        assert_eq!(h.l1().config().size_bytes, 16 * 1024);
        assert_eq!(h.l2().config().size_bytes, 64 * 1024);
        assert_eq!(h.line_bytes(), 64);
    }
}
