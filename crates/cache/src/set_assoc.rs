//! The set-associative cache core.
//!
//! One flat `sets × ways` array: set `s` owns slots
//! `s·ways .. (s+1)·ways`, of which the first `len[s]` are occupied. A
//! lookup masks the line into its set (the mask is fixed at
//! construction), scans that prefix and stamps the way it touched; no
//! step allocates, divides or dispatches dynamically — both simulated
//! machines run this two levels deep on every access.
//!
//! **Replacement is LRU by way *position*, which is not quite LRU.**
//! Recency stamps belong to slots, not to lines, and
//! [`SetAssocCache::invalidate`] fills the hole with the set's last
//! line *without* moving that line's stamp: the moved line inherits
//! the recency of the line that was invalidated. (The stamp left
//! behind at the old last position is harmless — the slot is
//! unoccupied, and the fill that reoccupies it overwrites the stamp.)
//! A cache that is never invalidated is exact LRU; one that is — MSI
//! invalidations and forwards, L2→L1 inclusion — can evict a line more
//! recent than the true LRU one. Every golden table with an MSI column
//! contains this behaviour, so it is pinned here by
//! `moved_line_inherits_the_dead_lines_recency` and by the oracle in
//! `tests/proptest_cache.rs`; see DESIGN.md §4.

use crate::config::CacheConfig;
use em2_model::LineAddr;

/// One occupied slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    dirty: bool,
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already present.
    pub hit: bool,
    /// A line evicted to make room, with its dirty bit
    /// (`Some` only on misses into a full set).
    pub evicted: Option<(LineAddr, bool)>,
}

/// A set-associative cache with positional-LRU replacement (see the
/// module docs for how that differs from exact LRU).
///
/// Tracks tags and dirty bits only (this is an architecture simulator:
/// data values live in the memory model, not here).
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets − 1`; the set count is a power of two.
    set_mask: u64,
    ways: usize,
    /// `sets × ways` slots; only each set's occupied prefix is
    /// meaningful.
    slots: Vec<Way>,
    /// Last-touched time per slot — per way *position*, not per line.
    stamps: Vec<u64>,
    /// Occupied slots per set.
    len: Vec<u32>,
    /// One tick per hit or fill.
    clock: u64,
    insertions: u64,
}

impl SetAssocCache {
    /// An empty cache with positional-LRU replacement.
    pub fn new_lru(config: CacheConfig) -> Self {
        let sets = config.sets() as usize;
        let ways = config.ways as usize;
        let empty = Way {
            line: LineAddr(0),
            dirty: false,
        };
        SetAssocCache {
            config,
            set_mask: config.sets() - 1,
            ways,
            slots: vec![empty; sets * ways],
            stamps: vec![0; sets * ways],
            len: vec![0; sets],
            clock: 0,
            insertions: 0,
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// `line`'s set, the index of its first slot, and its occupancy.
    #[inline]
    fn set_of(&self, line: LineAddr) -> (usize, usize, usize) {
        let set = (line.0 & self.set_mask) as usize;
        (set, set * self.ways, self.len[set] as usize)
    }

    /// Slot index of `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (_, base, len) = self.set_of(line);
        self.slots[base..base + len]
            .iter()
            .position(|w| w.line == line)
            .map(|pos| base + pos)
    }

    /// Access `line`; `write` marks it dirty. Fills on miss (allocate
    /// on write, like a write-back write-allocate cache).
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        let (set, base, len) = self.set_of(line);
        self.clock += 1;

        let occupied = &mut self.slots[base..base + len];
        if let Some(pos) = occupied.iter().position(|w| w.line == line) {
            occupied[pos].dirty |= write;
            self.stamps[base + pos] = self.clock;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        // Miss: fill the next free slot, or the first slot with the
        // oldest stamp if the set is full.
        let (slot, evicted) = if len == self.ways {
            let victim = (base..base + len)
                .min_by_key(|&slot| self.stamps[slot])
                .expect("at least one way");
            let old = self.slots[victim];
            (victim, Some((old.line, old.dirty)))
        } else {
            self.len[set] += 1;
            (base + len, None)
        };
        self.slots[slot] = Way { line, dirty: write };
        self.stamps[slot] = self.clock;
        self.insertions += 1;
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Non-modifying presence check.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Remove `line` if present, returning its dirty bit. The set's
    /// last line moves into the hole; stamps stay with their slots
    /// (see the module docs).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, base, len) = self.set_of(line);
        let occupied = &mut self.slots[base..base + len];
        let pos = occupied.iter().position(|w| w.line == line)?;
        let dirty = occupied[pos].dirty;
        occupied[pos] = occupied[len - 1];
        self.len[set] -= 1;
        Some(dirty)
    }

    /// Clear a line's dirty bit (e.g. after a writeback triggered by a
    /// coherence downgrade). Returns whether the line was present.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some(slot) => {
                self.slots[slot].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Total line insertions (fills) so far.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Iterate over resident lines `(line, dirty)`.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        self.slots
            .chunks(self.ways)
            .zip(&self.len)
            .flat_map(|(set, &n)| set[..n as usize].iter().map(|w| (w.line, w.dirty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways, 64-byte lines.
        SetAssocCache::new_lru(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let l = LineAddr(4);
        assert!(!c.access(l, false).hit);
        assert!(c.access(l, false).hit);
        assert!(c.probe(l));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(LineAddr(0), true);
        c.access(LineAddr(2), false);
        let r = c.access(LineAddr(4), false); // evicts LRU = line 0 (dirty)
        assert_eq!(r.evicted, Some((LineAddr(0), true)));
    }

    #[test]
    fn read_then_write_marks_dirty() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(0), true);
        c.access(LineAddr(2), false);
        let r = c.access(LineAddr(4), false);
        assert_eq!(r.evicted, Some((LineAddr(0), true)));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny();
        c.access(LineAddr(0), false);
        c.access(LineAddr(2), false);
        c.access(LineAddr(0), false); // 0 most recent
        let r = c.access(LineAddr(4), false);
        assert_eq!(r.evicted, Some((LineAddr(2), false)));
        assert!(c.probe(LineAddr(0)));
        assert!(!c.probe(LineAddr(2)));
    }

    #[test]
    fn sets_do_not_interfere() {
        let mut c = tiny();
        // Odd lines map to set 1.
        c.access(LineAddr(0), false);
        c.access(LineAddr(1), false);
        c.access(LineAddr(3), false);
        c.access(LineAddr(5), false); // evicts within set 1 only
        assert!(c.probe(LineAddr(0)), "set 0 must be untouched");
    }

    #[test]
    fn invalidate_returns_dirty_bit() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        c.access(LineAddr(1), false);
        assert_eq!(c.invalidate(LineAddr(0)), Some(true));
        assert_eq!(c.invalidate(LineAddr(1)), Some(false));
        assert_eq!(c.invalidate(LineAddr(9)), None);
        assert_eq!(c.occupancy(), 0);
    }

    /// The known deviation from exact LRU, pinned (module docs): three
    /// ways is the smallest set where it shows, because the moved line
    /// needs a neighbour whose age lies between its own and the one it
    /// inherits.
    #[test]
    fn moved_line_inherits_the_dead_lines_recency() {
        let mut c = SetAssocCache::new_lru(CacheConfig::new(192, 3, 64)); // 1 set × 3 ways
        let [dead, middle, moved, fill] = [0, 1, 2, 3].map(LineAddr);
        c.access(dead, false); // slot 0, oldest
        c.access(middle, false); // slot 1
        c.access(moved, false); // slot 2, most recent
        assert_eq!(c.invalidate(dead), Some(false)); // `moved` → slot 0, keeps slot 0's stamp
        assert!(!c.access(fill, false).hit); // refills slot 2
        let r = c.access(LineAddr(4), false);
        assert_eq!(
            r.evicted,
            Some((moved, false)),
            "exact LRU would evict `middle`; positional stamps evict the moved line"
        );
        assert!(c.probe(middle) && c.probe(fill));
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        assert!(c.clean(LineAddr(0)));
        c.access(LineAddr(2), false);
        let r = c.access(LineAddr(4), false);
        assert_eq!(
            r.evicted,
            Some((LineAddr(0), false)),
            "cleaned line evicts clean"
        );
        assert!(!c.clean(LineAddr(99)));
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(LineAddr(i), i % 3 == 0);
            assert!(c.occupancy() <= 4);
        }
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.insertions(), 100);
    }

    #[test]
    fn iter_lists_contents() {
        let mut c = tiny();
        c.access(LineAddr(0), true);
        c.access(LineAddr(1), false);
        let mut v: Vec<_> = c.iter().collect();
        v.sort();
        assert_eq!(v, vec![(LineAddr(0), true), (LineAddr(1), false)]);
    }
}
