//! Property-based tests: the set-associative cache against a reference
//! model and against the cache it replaced, and hierarchy inclusion
//! invariants.

use em2_cache::{
    AccessOutcome, CacheConfig, CacheHierarchy, HierarchyConfig, ServicedBy, SetAssocCache,
};
use em2_model::{Addr, LineAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// The cache as it was before it became one flat array, kept as the
/// oracle: a `Vec` of ways per set, and recency stamps that belong to
/// way *positions* — `invalidate`'s `swap_remove` moves the set's last
/// line into the hole and leaves every stamp where it was. Every
/// golden table was produced by this behaviour, so the flat cache must
/// reproduce it operation by operation.
struct OldCache {
    cfg: CacheConfig,
    sets: Vec<Vec<(LineAddr, bool)>>,
    stamps: Vec<u64>,
    clock: u64,
}

impl OldCache {
    fn new(cfg: CacheConfig) -> Self {
        OldCache {
            cfg,
            sets: vec![Vec::new(); cfg.sets() as usize],
            stamps: vec![0; cfg.lines() as usize],
            clock: 0,
        }
    }

    fn locate(&self, line: LineAddr) -> (usize, Option<usize>) {
        let set = self.cfg.set_of(line.0) as usize;
        (set, self.sets[set].iter().position(|&(l, _)| l == line))
    }

    fn access(&mut self, line: LineAddr, write: bool) -> (bool, Option<(LineAddr, bool)>) {
        let ways = self.cfg.ways as usize;
        let (set, found) = self.locate(line);
        let stamps = &mut self.stamps[set * ways..(set + 1) * ways];
        self.clock += 1;
        if let Some(pos) = found {
            self.sets[set][pos].1 |= write;
            stamps[pos] = self.clock;
            return (true, None);
        }
        if self.sets[set].len() < ways {
            stamps[self.sets[set].len()] = self.clock;
            self.sets[set].push((line, write));
            return (false, None);
        }
        let victim = (0..ways).min_by_key(|&w| stamps[w]).expect("ways >= 1");
        stamps[victim] = self.clock;
        let old = std::mem::replace(&mut self.sets[set][victim], (line, write));
        (false, Some(old))
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, found) = self.locate(line);
        Some(self.sets[set].swap_remove(found?).1)
    }

    fn clean(&mut self, line: LineAddr) -> bool {
        let (set, found) = self.locate(line);
        found.map(|pos| self.sets[set][pos].1 = false).is_some()
    }

    fn probe(&self, line: LineAddr) -> bool {
        self.locate(line).1.is_some()
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// [`CacheHierarchy`]'s access, invalidate and clean, transcribed over
/// two [`OldCache`]s (statistics left out).
struct OldHierarchy {
    l1: OldCache,
    l2: OldCache,
}

impl OldHierarchy {
    fn access(&mut self, addr: Addr, write: bool) -> AccessOutcome {
        let line = addr.line(64);
        let mut out = AccessOutcome {
            serviced_by: ServicedBy::L1,
            wrote_back_to_memory: false,
            l2_victim: None,
        };
        let (hit1, evicted1) = self.l1.access(line, write);
        if let Some((victim, true)) = evicted1 {
            if let (_, Some((v2, d2))) = self.l2.access(victim, true) {
                self.l1.invalidate(v2);
                out.l2_victim = Some((v2, d2));
                out.wrote_back_to_memory = d2;
            }
        }
        if hit1 {
            return out;
        }
        let (hit2, evicted2) = self.l2.access(line, write);
        if let Some((victim, dirty)) = evicted2 {
            let dirty = self.l1.invalidate(victim).unwrap_or(false) || dirty;
            out.l2_victim = Some((victim, dirty));
            out.wrote_back_to_memory |= dirty;
        }
        out.serviced_by = if hit2 {
            ServicedBy::L2
        } else {
            ServicedBy::Memory
        };
        out
    }

    fn invalidate(&mut self, addr: Addr) -> bool {
        let d1 = self.l1.invalidate(addr.line(64)).unwrap_or(false);
        let d2 = self.l2.invalidate(addr.line(64)).unwrap_or(false);
        d1 || d2
    }

    fn clean(&mut self, addr: Addr) -> bool {
        let c1 = self.l1.clean(addr.line(64));
        let c2 = self.l2.clean(addr.line(64));
        c1 || c2
    }
}

/// A random script of `(op, line, write)` steps: `op` 0–4 is an
/// access, 5–6 an invalidate, 7 a clean — mostly accesses, with enough
/// of the others that sets shrink and refill.
fn script(lines: u64) -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    prop::collection::vec((0u8..8, 0..lines, any::<bool>()), 1..600)
}

/// Reference model: a map from line → dirty with exact-LRU order kept
/// in a vector per set.
struct RefCache {
    sets: HashMap<u64, Vec<(u64, bool)>>, // set -> [(line, dirty)] LRU-first
    cfg: CacheConfig,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: HashMap::new(),
            cfg,
        }
    }

    fn access(&mut self, line: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        let set = self.sets.entry(self.cfg.set_of(line)).or_default();
        if let Some(pos) = set.iter().position(|&(l, _)| l == line) {
            let (l, d) = set.remove(pos);
            set.push((l, d || write));
            return (true, None);
        }
        let evicted = if set.len() == self.cfg.ways as usize {
            Some(set.remove(0))
        } else {
            None
        };
        set.push((line, write));
        (false, evicted)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_cache_matches_the_cache_it_replaced(script in script(24)) {
        let cfg = CacheConfig::new(512, 4, 64); // 2 sets × 4 ways
        let mut dut = SetAssocCache::new_lru(cfg);
        let mut old = OldCache::new(cfg);
        for (step, (op, line, write)) in script.into_iter().enumerate() {
            let line = LineAddr(line);
            match op {
                0..=4 => {
                    let r = dut.access(line, write);
                    prop_assert_eq!((r.hit, r.evicted), old.access(line, write), "step {}", step);
                }
                5 | 6 => prop_assert_eq!(dut.invalidate(line), old.invalidate(line), "step {}", step),
                _ => prop_assert_eq!(dut.clean(line), old.clean(line), "step {}", step),
            }
            prop_assert_eq!(dut.occupancy(), old.occupancy(), "step {}", step);
            for l in (0..24).map(LineAddr) {
                prop_assert_eq!(dut.probe(l), old.probe(l), "step {}: probe {:?}", step, l);
            }
        }
    }

    #[test]
    fn hierarchy_matches_the_caches_it_replaced(script in script(48)) {
        // Two sets at each level; four ways in L1 so that a line moved
        // by an inclusion invalidate can sit between two others.
        let cfg = HierarchyConfig {
            l1: CacheConfig::new(512, 4, 64),
            l2: CacheConfig::new(1024, 8, 64),
        };
        let mut dut = CacheHierarchy::new(cfg);
        let mut old = OldHierarchy { l1: OldCache::new(cfg.l1), l2: OldCache::new(cfg.l2) };
        for (step, (op, line, write)) in script.into_iter().enumerate() {
            let addr = Addr(line * 64);
            match op {
                0..=4 => prop_assert_eq!(dut.access(addr, write), old.access(addr, write), "step {}", step),
                5 | 6 => prop_assert_eq!(dut.invalidate(addr), old.invalidate(addr), "step {}", step),
                _ => prop_assert_eq!(dut.clean(addr), old.clean(addr), "step {}", step),
            }
        }
    }

    #[test]
    fn lru_cache_matches_reference(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..400)
    ) {
        let cfg = CacheConfig::new(1024, 4, 64); // 4 sets × 4 ways
        let mut dut = SetAssocCache::new_lru(cfg);
        let mut reference = RefCache::new(cfg);
        for (line, write) in ops {
            let r = dut.access(LineAddr(line), write);
            let (hit, evicted) = reference.access(line, write);
            prop_assert_eq!(r.hit, hit, "hit mismatch on line {}", line);
            prop_assert_eq!(
                r.evicted.map(|(l, d)| (l.0, d)),
                evicted,
                "eviction mismatch on line {}", line
            );
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity(
        ops in prop::collection::vec((0u64..1024, any::<bool>()), 1..500)
    ) {
        let cfg = CacheConfig::new(512, 2, 64); // 4 sets × 2 ways = 8 lines
        let mut c = SetAssocCache::new_lru(cfg);
        for (line, write) in ops {
            c.access(LineAddr(line), write);
            prop_assert!(c.occupancy() <= 8);
        }
    }

    #[test]
    fn just_accessed_line_is_always_present(
        ops in prop::collection::vec(0u64..256, 1..300)
    ) {
        let mut c = SetAssocCache::new_lru(CacheConfig::new(1024, 4, 64));
        for line in ops {
            c.access(LineAddr(line), false);
            prop_assert!(c.probe(LineAddr(line)));
        }
    }

    #[test]
    fn hierarchy_maintains_inclusion(
        ops in prop::collection::vec((0u64..128, any::<bool>()), 1..400)
    ) {
        let mut h = CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(256, 2, 64),
            l2: CacheConfig::new(512, 2, 64),
        });
        for (line, write) in ops {
            h.access(Addr(line * 64), write);
            // Inclusion: every L1 line is also in L2.
            for (l1_line, _) in h.l1().iter() {
                prop_assert!(
                    h.l2().probe(l1_line),
                    "line {:?} in L1 but not L2", l1_line
                );
            }
        }
    }

    #[test]
    fn dirty_data_is_never_silently_lost(
        lines in prop::collection::vec(0u64..64, 1..200)
    ) {
        // Write each line once, then sweep a large clean footprint
        // through; every dirty line must either still be on chip or
        // have been written back (counted).
        let mut h = CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(256, 2, 64),
            l2: CacheConfig::new(512, 2, 64),
        });
        let mut dirty_written = 0u64;
        for &l in &lines {
            h.access(Addr(l * 64), true);
            dirty_written += 1;
        }
        for l in 1000..1200u64 {
            h.access(Addr(l * 64), false);
        }
        let still_dirty_on_chip = h.l2().iter().filter(|&(_, d)| d).count() as u64
            + h.l1().iter().filter(|&(_, d)| d).count() as u64;
        let written_back = h.stats().l2_writebacks;
        prop_assert!(
            written_back + still_dirty_on_chip >= 1.min(dirty_written),
            "dirty lines vanished: wrote {}, wb {}, on-chip {}",
            dirty_written, written_back, still_dirty_on_chip
        );
    }
}
