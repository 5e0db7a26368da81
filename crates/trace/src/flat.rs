//! Struct-of-arrays trace layout with line-index interning.
//!
//! The event-driven simulators spend their inner loops walking
//! per-thread access streams and resolving each address's *home* core
//! and *cache line*. In the [`crate::Workload`] layout those are
//! recomputed per access — each resolution a dynamic call into the
//! placement and, for first-touch or profile-majority, a table load.
//! A [`FlatWorkload`] performs that work **once, at build time**:
//!
//! * records are stored as parallel arrays (`gap` / `kind` / `addr` /
//!   `line` / `home`), so replay loops iterate contiguous slices;
//! * every distinct cache line is interned to a dense `u32` index by a
//!   [`LineInterner`], letting coherence state live in `Vec`-indexed
//!   tables instead of `HashMap<LineAddr, _>`;
//! * homes are resolved through the placement exactly once per record,
//!   so running many schemes/configs over the same workload (the E1–E9
//!   sweeps) resolves homes once instead of once per run.
//!
//! Replays over a `FlatWorkload` are bit-identical to replays over the
//! `Workload` it was built from: the arrays are a transposition, not a
//! re-interpretation. See DESIGN.md §6 for the performance argument.

use crate::trace::Workload;
use em2_model::{AccessKind, Addr, CoreId, LineAddr, ThreadId, WordMap};
use std::collections::hash_map::Entry;

/// Dense interning of cache-line addresses.
///
/// Assigns each distinct [`LineAddr`] a `u32` index in first-seen
/// order (deterministic for a given workload). The hash map is only
/// consulted at build time and for rare reverse lookups (e.g. cache
/// victims); hot loops carry the dense index.
#[derive(Clone, Debug, Default)]
pub struct LineInterner {
    map: WordMap<u64, u32>,
    lines: Vec<LineAddr>,
}

impl LineInterner {
    /// An empty interner.
    pub fn new() -> Self {
        LineInterner::default()
    }

    /// Index of `line`, allocating the next dense id if unseen.
    pub fn intern(&mut self, line: LineAddr) -> u32 {
        match self.map.entry(line.0) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let i = u32::try_from(self.lines.len()).expect("more than u32::MAX distinct lines");
                e.insert(i);
                self.lines.push(line);
                i
            }
        }
    }

    /// Index of `line` if it has been interned.
    pub fn lookup(&self, line: LineAddr) -> Option<u32> {
        self.map.get(&line.0).copied()
    }

    /// The line with dense index `idx`.
    #[inline]
    pub fn line(&self, idx: u32) -> LineAddr {
        self.lines[idx as usize]
    }

    /// Number of distinct lines interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// One thread's trace, transposed into parallel arrays.
///
/// All record arrays have the same length; index `i` is the thread's
/// `i`-th access in program order.
#[derive(Clone, Debug)]
pub struct FlatThread {
    /// The thread this trace belongs to.
    pub thread: ThreadId,
    /// The thread's native core.
    pub native: CoreId,
    /// Record indices of barrier arrivals (same as [`crate::ThreadTrace::barriers`]).
    pub barriers: Vec<usize>,
    /// Non-memory instructions before each access.
    pub gap: Vec<u32>,
    /// Read/write marker per access.
    pub kind: Vec<AccessKind>,
    /// Byte address per access.
    pub addr: Vec<Addr>,
    /// Interned line index per access.
    pub line: Vec<u32>,
    /// Home core per access, resolved once through the placement.
    pub home: Vec<CoreId>,
}

impl FlatThread {
    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.addr.len()
    }

    /// True if the thread performs no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addr.is_empty()
    }
}

/// A whole workload in struct-of-arrays layout with interned lines and
/// pre-resolved homes. Build once per (workload, placement) pair and
/// replay as many times as needed.
#[derive(Clone, Debug)]
pub struct FlatWorkload {
    /// Workload name (copied from the source [`Workload`]).
    pub name: String,
    /// Line size used for interning, in bytes.
    pub line_bytes: u64,
    /// Per-thread flat traces, indexed by thread id.
    pub threads: Vec<FlatThread>,
    /// Whether the per-access `line` arrays, the interner, and
    /// `line_home` were populated ([`FlatWorkload::build`]) or skipped
    /// ([`FlatWorkload::build_homes_only`]).
    pub line_indexed: bool,
    /// The line interner (dense index ↔ [`LineAddr`]); empty when
    /// `line_indexed` is false.
    pub interner: LineInterner,
    /// Home core per interned line (home of the first access touching
    /// the line). With any line-or-coarser placement granularity this
    /// equals every access's home for that line.
    pub line_home: Vec<CoreId>,
    /// Highest home-core index any access resolves to.
    pub max_home_index: usize,
}

impl FlatWorkload {
    /// Transpose `workload`, interning lines of `line_bytes` and
    /// resolving every record's home through `home_of`.
    pub fn build(workload: &Workload, line_bytes: u64, home_of: impl Fn(Addr) -> CoreId) -> Self {
        Self::build_inner(workload, line_bytes, home_of, true)
    }

    /// [`FlatWorkload::build`] without the line index — for consumers
    /// that only need pre-resolved homes (the EM²/EM²-RA simulators):
    /// skips the one interner hash per record that only dense-line
    /// consumers (the MSI baseline) pay for.
    pub fn build_homes_only(
        workload: &Workload,
        line_bytes: u64,
        home_of: impl Fn(Addr) -> CoreId,
    ) -> Self {
        Self::build_inner(workload, line_bytes, home_of, false)
    }

    fn build_inner(
        workload: &Workload,
        line_bytes: u64,
        home_of: impl Fn(Addr) -> CoreId,
        line_indexed: bool,
    ) -> Self {
        assert!(line_bytes.is_power_of_two());
        let mut interner = LineInterner::new();
        let mut line_home: Vec<CoreId> = Vec::new();
        let mut max_home_index = 0usize;
        let threads = workload
            .threads
            .iter()
            .map(|t| {
                let n = t.records.len();
                let mut ft = FlatThread {
                    thread: t.thread,
                    native: t.native,
                    barriers: t.barriers.clone(),
                    gap: Vec::with_capacity(n),
                    kind: Vec::with_capacity(n),
                    addr: Vec::with_capacity(n),
                    line: Vec::with_capacity(n),
                    home: Vec::with_capacity(n),
                };
                for r in &t.records {
                    let home = home_of(r.addr);
                    if line_indexed {
                        let idx = interner.intern(r.addr.line(line_bytes));
                        if idx as usize == line_home.len() {
                            line_home.push(home);
                        }
                        ft.line.push(idx);
                    }
                    max_home_index = max_home_index.max(home.index());
                    ft.gap.push(r.gap);
                    ft.kind.push(r.kind);
                    ft.addr.push(r.addr);
                    ft.home.push(home);
                }
                ft
            })
            .collect();
        FlatWorkload {
            name: workload.name.clone(),
            line_bytes,
            threads,
            line_indexed,
            interner,
            line_home,
            max_home_index,
        }
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of distinct lines touched.
    #[inline]
    pub fn num_lines(&self) -> usize {
        self.interner.len()
    }

    /// Total accesses across all threads.
    pub fn total_accesses(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::micro;

    fn striped_home(cores: u64) -> impl Fn(Addr) -> CoreId {
        move |a: Addr| CoreId::from(((a.0 / 64) % cores) as usize)
    }

    #[test]
    fn interner_is_dense_and_stable() {
        let mut i = LineInterner::new();
        assert!(i.is_empty());
        let a = i.intern(LineAddr(100));
        let b = i.intern(LineAddr(7));
        assert_eq!(i.intern(LineAddr(100)), a, "re-interning is idempotent");
        assert_eq!((a, b), (0, 1), "ids are first-seen order");
        assert_eq!(i.len(), 2);
        assert_eq!(i.line(b), LineAddr(7));
        assert_eq!(i.lookup(LineAddr(7)), Some(1));
        assert_eq!(i.lookup(LineAddr(8)), None);
    }

    #[test]
    fn flat_transposition_preserves_every_field() {
        let w = micro::uniform(4, 4, 200, 128, 0.3, 9);
        let f = FlatWorkload::build(&w, 64, striped_home(4));
        assert_eq!(f.num_threads(), w.num_threads());
        assert_eq!(f.total_accesses(), w.total_accesses());
        for (t, ft) in w.threads.iter().zip(&f.threads) {
            assert_eq!(ft.thread, t.thread);
            assert_eq!(ft.native, t.native);
            assert_eq!(ft.barriers, t.barriers);
            assert_eq!(ft.len(), t.records.len());
            for (i, r) in t.records.iter().enumerate() {
                assert_eq!(ft.gap[i], r.gap);
                assert_eq!(ft.kind[i], r.kind);
                assert_eq!(ft.addr[i], r.addr);
                assert_eq!(f.interner.line(ft.line[i]), r.addr.line(64));
                assert_eq!(ft.home[i], striped_home(4)(r.addr));
            }
        }
    }

    #[test]
    fn line_home_matches_per_access_homes_for_line_granular_placement() {
        let w = micro::uniform(4, 4, 300, 256, 0.5, 3);
        let f = FlatWorkload::build(&w, 64, striped_home(4));
        assert_eq!(f.line_home.len(), f.num_lines());
        for ft in &f.threads {
            for i in 0..ft.len() {
                assert_eq!(f.line_home[ft.line[i] as usize], ft.home[i]);
            }
        }
        assert!(f.max_home_index < 4);
    }

    #[test]
    fn homes_only_build_skips_the_line_index() {
        let w = micro::uniform(4, 4, 200, 128, 0.3, 9);
        let full = FlatWorkload::build(&w, 64, striped_home(4));
        let slim = FlatWorkload::build_homes_only(&w, 64, striped_home(4));
        assert!(full.line_indexed && !slim.line_indexed);
        assert_eq!(slim.num_lines(), 0);
        assert!(slim.line_home.is_empty());
        assert_eq!(slim.max_home_index, full.max_home_index);
        for (f, s) in full.threads.iter().zip(&slim.threads) {
            assert!(s.line.is_empty());
            assert_eq!(f.home, s.home, "homes are identical either way");
            assert_eq!(f.addr, s.addr);
            assert_eq!(f.gap, s.gap);
        }
    }

    #[test]
    fn same_workload_builds_identical_flats() {
        let w = micro::pingpong(2, 4, 20);
        let a = FlatWorkload::build(&w, 64, striped_home(4));
        let b = FlatWorkload::build(&w, 64, striped_home(4));
        assert_eq!(a.num_lines(), b.num_lines());
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x.line, y.line, "interning order is deterministic");
            assert_eq!(x.home, y.home);
        }
    }
}
