//! The distributed directory: per-line MSI bookkeeping.
//!
//! Lines are identified by **dense interned indices** (see
//! [`em2_trace::LineInterner`]): the directory is a flat `Vec` indexed
//! by line id, not a hash map keyed by address. The replay loop in
//! [`crate::sim`] touches it once or twice per access, so eliminating
//! hashing here is one of the main wins of the flattened hot path
//! (DESIGN.md §6). Entry and copy counts are maintained incrementally,
//! making the replication metric O(1) to sample. A [`SharerSet`] for a
//! machine of up to 64 cores is one inline word, so the replay's
//! per-miss copy of a line's [`DirState`] owns no heap.

use em2_model::CoreId;

/// A set of sharer cores, stored as a bitmask (any core count).
///
/// Cores 0–63 live in an inline word; `spill` holds cores 64 and up,
/// 64 per word, and stays empty — no heap, a free `clone` — on any
/// machine of at most 64 cores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharerSet {
    low: u64,
    spill: Vec<u64>,
}

impl SharerSet {
    /// An empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// A set containing one core.
    pub fn single(core: CoreId) -> Self {
        let mut s = SharerSet::new();
        s.insert(core);
        s
    }

    /// The word holding `core`'s bit, grown into existence, and the bit.
    #[inline]
    fn word_mut(&mut self, core: CoreId) -> (&mut u64, u64) {
        let word = match core.index() / 64 {
            0 => &mut self.low,
            w => {
                if w > self.spill.len() {
                    self.spill.resize(w, 0);
                }
                &mut self.spill[w - 1]
            }
        };
        (word, 1 << (core.index() % 64))
    }

    /// Add a core.
    pub fn insert(&mut self, core: CoreId) {
        let (word, bit) = self.word_mut(core);
        *word |= bit;
    }

    /// Remove a core; returns whether it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let present = self.contains(core);
        if present {
            let (word, bit) = self.word_mut(core);
            *word &= !bit;
        }
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        let word = self.words().nth(core.index() / 64).unwrap_or(0);
        word & (1 << (core.index() % 64)) != 0
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.spill.iter().copied())
    }

    /// Number of sharers.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no sharers.
    pub fn is_empty(&self) -> bool {
        self.words().all(|w| w == 0)
    }

    /// Iterate over member cores, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    CoreId::from(w * 64 + b)
                })
            })
        })
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = SharerSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory state of one line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirState {
    /// Cached read-only by the given cores.
    Shared(SharerSet),
    /// Cached exclusively (possibly dirty) by one core.
    Modified(CoreId),
}

impl DirState {
    fn copies(&self) -> usize {
        match self {
            DirState::Shared(set) => set.len(),
            DirState::Modified(_) => 1,
        }
    }
}

/// The full (distributed) directory: one slot per interned line, dense.
/// Which core *hosts* an entry is decided by the placement function,
/// outside this structure.
#[derive(Debug, Default)]
pub struct Directory {
    entries: Vec<Option<DirState>>,
    live: usize,
    copies: usize,
}

impl Directory {
    /// An empty directory that grows on demand.
    pub fn new() -> Self {
        Directory::default()
    }

    /// An empty directory pre-sized for `lines` interned lines.
    pub fn with_lines(lines: usize) -> Self {
        Directory {
            entries: Vec::with_capacity(lines),
            live: 0,
            copies: 0,
        }
    }

    /// Current state of a line (`None` = uncached / Invalid).
    #[inline]
    pub fn get(&self, line: u32) -> Option<&DirState> {
        self.entries.get(line as usize).and_then(Option::as_ref)
    }

    fn slot(&mut self, line: u32) -> &mut Option<DirState> {
        let i = line as usize;
        if i >= self.entries.len() {
            self.entries.resize_with(i + 1, || None);
        }
        &mut self.entries[i]
    }

    /// Set a line's state.
    pub fn set(&mut self, line: u32, state: DirState) {
        let new_copies = state.copies();
        let slot = self.slot(line);
        match slot.replace(state) {
            Some(old) => self.copies -= old.copies(),
            None => self.live += 1,
        }
        self.copies += new_copies;
    }

    /// Drop a line's entry (back to Invalid).
    pub fn clear(&mut self, line: u32) {
        if let Some(old) = self.slot(line).take() {
            self.live -= 1;
            self.copies -= old.copies();
        }
    }

    /// Remove `core` from a line's sharer set / ownership (silent or
    /// explicit eviction). Cleans up empty entries.
    pub fn drop_copy(&mut self, line: u32, core: CoreId) {
        let (dropped_copies, emptied) = {
            let slot = self.slot(line);
            match slot {
                Some(DirState::Shared(s)) => {
                    let removed = s.remove(core);
                    let empty = s.is_empty();
                    if empty {
                        *slot = None;
                    }
                    (usize::from(removed), empty)
                }
                Some(DirState::Modified(owner)) if *owner == core => {
                    *slot = None;
                    (1, true)
                }
                _ => (0, false),
            }
        };
        self.copies -= dropped_copies;
        if emptied {
            self.live -= 1;
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn entries(&self) -> usize {
        self.live
    }

    /// Total cached copies across the machine (Σ sharers; M = 1).
    #[inline]
    pub fn total_copies(&self) -> usize {
        self.copies
    }

    /// Directory storage in bits for a full-map directory over `cores`
    /// cores: each entry holds a presence bit per core + 2 state bits
    /// (the sizing argument of \[6\] the paper cites).
    pub fn storage_bits(&self, cores: usize) -> u64 {
        self.live as u64 * (cores as u64 + 2)
    }

    /// Protocol invariant: a Modified line has exactly one copy; a
    /// Shared line has ≥ 1 sharer; the incremental counters agree with
    /// a full scan. Returns violations (must be empty).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut live = 0usize;
        let mut copies = 0usize;
        for (line, st) in self.entries.iter().enumerate() {
            let Some(st) = st else { continue };
            live += 1;
            copies += st.copies();
            if let DirState::Shared(s) = st {
                if s.is_empty() {
                    v.push(format!("line #{line} is Shared with no sharers"));
                }
            }
        }
        if live != self.live {
            v.push(format!("live counter {} but scan found {live}", self.live));
        }
        if copies != self.copies {
            v.push(format!(
                "copies counter {} but scan found {copies}",
                self.copies
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_ops() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        s.insert(CoreId(3));
        s.insert(CoreId(70)); // beyond one word
        s.insert(CoreId(3)); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(CoreId(3)));
        assert!(s.contains(CoreId(70)));
        assert!(!s.contains(CoreId(4)));
        assert!(s.remove(CoreId(3)));
        assert!(!s.remove(CoreId(3)));
        assert_eq!(s.len(), 1);
        let members: Vec<CoreId> = s.iter().collect();
        assert_eq!(members, vec![CoreId(70)]);
    }

    #[test]
    fn sharer_set_spills_only_past_core_63() {
        let mut s: SharerSet = [CoreId(63), CoreId(0), CoreId(17)].into_iter().collect();
        assert!(s.spill.is_empty(), "a 64-core machine's set owns no heap");
        assert!(!s.contains(CoreId(64)) && !s.remove(CoreId(200)));
        assert!(s.spill.is_empty(), "asking does not grow the set");
        s.insert(CoreId(64));
        s.insert(CoreId(191));
        assert_eq!(s.len(), 5);
        let members: Vec<CoreId> = s.iter().collect();
        let want = [0, 17, 63, 64, 191].map(CoreId);
        assert_eq!(members, want, "iteration is in increasing core order");
        for c in want {
            assert!(s.remove(c));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn from_iter_collects() {
        let s: SharerSet = [CoreId(1), CoreId(2), CoreId(1)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn directory_transitions() {
        let mut d = Directory::new();
        let l = 5u32;
        assert!(d.get(l).is_none());
        d.set(l, DirState::Shared(SharerSet::single(CoreId(1))));
        assert_eq!(d.entries(), 1);
        d.set(l, DirState::Modified(CoreId(2)));
        assert_eq!(d.total_copies(), 1);
        d.clear(l);
        assert!(d.get(l).is_none());
        assert_eq!(d.entries(), 0);
        assert_eq!(d.total_copies(), 0);
        assert!(d.check_invariants().is_empty());
    }

    #[test]
    fn drop_copy_cleans_up() {
        let mut d = Directory::with_lines(16);
        let l = 9u32;
        let mut s = SharerSet::single(CoreId(1));
        s.insert(CoreId(2));
        d.set(l, DirState::Shared(s));
        d.drop_copy(l, CoreId(1));
        assert_eq!(d.total_copies(), 1);
        d.drop_copy(l, CoreId(2));
        assert!(d.get(l).is_none(), "empty entry must be removed");
        // Dropping the owner of an M line invalidates it.
        d.set(l, DirState::Modified(CoreId(3)));
        d.drop_copy(l, CoreId(4)); // not the owner: no-op
        assert!(d.get(l).is_some());
        d.drop_copy(l, CoreId(3));
        assert!(d.get(l).is_none());
        assert!(d.check_invariants().is_empty());
    }

    #[test]
    fn counters_track_replacements() {
        let mut d = Directory::new();
        let mut s = SharerSet::single(CoreId(0));
        s.insert(CoreId(1));
        s.insert(CoreId(2));
        d.set(0, DirState::Shared(s));
        assert_eq!(d.total_copies(), 3);
        d.set(0, DirState::Modified(CoreId(0))); // replace: 3 copies → 1
        assert_eq!(d.total_copies(), 1);
        assert_eq!(d.entries(), 1);
        assert!(d.check_invariants().is_empty());
    }

    #[test]
    fn storage_bits_scale_with_cores() {
        let mut d = Directory::new();
        for i in 0..10u32 {
            d.set(i, DirState::Modified(CoreId(0)));
        }
        assert_eq!(d.storage_bits(64), 10 * 66);
        assert_eq!(d.storage_bits(1024), 10 * 1026);
    }

    #[test]
    fn invariants_catch_empty_shared() {
        let mut d = Directory::new();
        d.set(1, DirState::Shared(SharerSet::new()));
        assert_eq!(d.check_invariants().len(), 1);
    }
}
