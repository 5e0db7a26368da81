//! The cost-attribution matrix: per (scheme-thread, home-shard)
//! counters of what the decision plane actually did and what it cost.
//!
//! The paper's trade-off — migrate the computation vs. access the word
//! remotely — is *decided* per access but was never *accounted* per
//! access: nothing could say which (thread, home) pairs pay migration
//! cost, which homes are hot, or what the current placement costs.
//! An [`AttribTable`] per shard answers that on the timing plane: a
//! fixed-size open-addressed table of [`AttribCell`]s keyed by the
//! packed (thread, home) pair, updated with the registry's single-writer
//! relaxed-counter idiom on the shard hot path (no locked RMW, no
//! allocation, no lock) and folded bin-wise into [`crate::Snapshot`]s
//! at quiesce, where cluster-wide sums merge like every other obs
//! metric.
//!
//! **Totals are exact even when the table fills.** A resolution that
//! finds neither its key nor a free slot within the probe window lands
//! on the reserved *overflow cell* instead of being dropped, so the
//! column sums (total migrations, total attributed cost, …) are always
//! the true totals — only the per-key breakdown degrades, and
//! [`AttribTable::overflow_routed`] says by how much. That is what
//! lets a 2-node cluster's summed attribution match a single-process
//! run bit-for-bit regardless of how keys hash on each node.

use crate::snapshot::AttribEntry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters per attribution cell: one per [`Col`].
pub const ATTRIB_COUNTERS: usize = 5;

/// A column of the matrix. Its discriminant is its index in
/// [`AttribCell::counts`] and in snapshot rows
/// ([`crate::AttribEntry::get`]), [`Col::KEYS`] its JSON key: the one
/// column list every reader indexes by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Col {
    /// Migrate verdicts.
    Migrations,
    /// Remote-read verdicts.
    RemoteReads,
    /// Remote-write verdicts.
    RemoteWrites,
    /// Context bytes the migrations shipped.
    ContextBytes,
    /// Attributed network cost.
    Cost,
}

impl Col {
    /// Each column's JSON key in a snapshot row, in index order.
    pub const KEYS: [&'static str; ATTRIB_COUNTERS] = [
        "migrations",
        "remote_reads",
        "remote_writes",
        "context_bytes",
        "cost",
    ];
}

/// Longest linear-probe run before a new key routes to the overflow
/// cell. Bounds the worst-case resolution to a handful of relaxed
/// loads even when the table is saturated.
const MAX_PROBE: usize = 16;

/// One (thread, home) cell of the matrix. Fields are relaxed atomics,
/// bumped through [`crate::SingleWriterCounter`] by the cell's one
/// writer, the shard core.
///
/// The cell is exactly one cache line, and the fields are *declared*
/// in hot-path order, not snapshot order: a Migrate verdict touches
/// `migrations`/`context_bytes`/`cost` (first 24 bytes), a Remote
/// verdict touches `cost`/`remote_reads`/`remote_writes` (bytes
/// 16–40), so either verdict dirties a single line. [`counts`] reads
/// out by [`Col`].
///
/// [`counts`]: AttribCell::counts
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct AttribCell {
    /// Migrate verdicts this thread executed toward this home.
    pub migrations: AtomicU64,
    /// Serialized context bytes shipped by the migrations.
    pub context_bytes: AtomicU64,
    /// Attributed network cost (the cost model's latency for each
    /// migrate/remote verdict, summed — the observed side of the
    /// placement scorecard).
    pub cost: AtomicU64,
    /// Remote-read verdicts toward this home.
    pub remote_reads: AtomicU64,
    /// Remote-write verdicts toward this home.
    pub remote_writes: AtomicU64,
}

impl AttribCell {
    /// Relaxed read of every counter, indexed by [`Col`].
    pub fn counts(&self) -> [u64; ATTRIB_COUNTERS] {
        let mut out = [0; ATTRIB_COUNTERS];
        for (col, a) in [
            (Col::Migrations, &self.migrations),
            (Col::RemoteReads, &self.remote_reads),
            (Col::RemoteWrites, &self.remote_writes),
            (Col::ContextBytes, &self.context_bytes),
            (Col::Cost, &self.cost),
        ] {
            out[col as usize] = a.load(Ordering::Relaxed);
        }
        out
    }

    /// True when every counter is still zero.
    pub fn is_zero(&self) -> bool {
        self.counts().iter().all(|&c| c == 0)
    }
}

/// The thread/home key of the overflow cell in snapshots:
/// `(u32::MAX, u32::MAX)` can never be a real (thread, home) pair
/// because the runtime's shard and thread ids are dense from zero.
pub const OVERFLOW_KEY: (u32, u32) = (u32::MAX, u32::MAX);

#[inline]
fn pack(thread: u32, home: u32) -> u64 {
    ((thread as u64) << 32) | home as u64
}

/// The fixed-capacity (thread, home) → [`AttribCell`] matrix.
///
/// Lookup is hash + bounded linear probe over relaxed key loads; a new
/// key claims its slot with a single CAS (once per key, off the steady
/// state). The table never allocates after construction and never
/// locks.
///
/// Keys and cells live in **separate arrays**: the key array is 8
/// bytes per slot (a 512-slot default is 4 KiB — L1-resident on
/// anything), so the probe walk never drags 64-byte cells through the
/// cache, and a hit touches exactly one line of the cell array. This
/// matters: the matrix is updated once or twice per migrate/remote
/// verdict, and the interleaved AoS layout measurably showed up in
/// the obs-overhead calibration.
#[derive(Debug)]
pub struct AttribTable {
    /// Packed key + 1 per slot (`0` = never claimed).
    keys: Box<[AtomicU64]>,
    cells: Box<[AttribCell]>,
    overflow: AttribCell,
    overflow_routed: AtomicU64,
}

impl AttribTable {
    /// A table with at least `slots` cells (rounded up to a power of
    /// two, minimum 8).
    pub fn new(slots: usize) -> Self {
        let cap = slots.max(8).next_power_of_two();
        AttribTable {
            keys: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            cells: (0..cap).map(|_| AttribCell::default()).collect(),
            overflow: AttribCell::default(),
            overflow_routed: AtomicU64::new(0),
        }
    }

    /// Resolve the cell for `(thread, home)`, claiming a slot on first
    /// sight. When no slot is free within the probe window the
    /// reserved overflow cell is returned (and counted), so every
    /// event lands somewhere and totals stay exact.
    ///
    /// Inlined down to hash + one key load in the steady state (a
    /// known key at its hash slot — the overwhelmingly common case
    /// once the key set has settled); claims, collisions, and the
    /// overflow key take the out-of-line `cell_slow` path. The
    /// resolve runs once or twice per migrate/remote verdict, so a
    /// non-inlined call with the probe/CAS loop in it is measurable
    /// in the obs-overhead calibration.
    #[inline]
    pub fn cell(&self, thread: u32, home: u32) -> &AttribCell {
        let packed = pack(thread, home);
        let stored = packed.wrapping_add(1);
        let i = (packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.keys.len() - 1);
        if stored != 0 && self.keys[i].load(Ordering::Relaxed) == stored {
            return &self.cells[i];
        }
        self.cell_slow(stored, i)
    }

    /// The claim/collision path of [`cell`](AttribTable::cell): probe
    /// from `start` (the key's hash slot, already checked by the fast
    /// path when `stored != 0`).
    #[cold]
    fn cell_slow(&self, stored: u64, start: usize) -> &AttribCell {
        if stored == 0 {
            // (MAX, MAX) is the overflow key itself.
            return &self.overflow;
        }
        let mask = self.keys.len() - 1;
        let mut i = start;
        for _ in 0..MAX_PROBE.min(self.keys.len()) {
            let k = self.keys[i].load(Ordering::Relaxed);
            if k == stored {
                return &self.cells[i];
            }
            if k == 0 {
                match self.keys[i].compare_exchange(0, stored, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => return &self.cells[i],
                    Err(actual) if actual == stored => return &self.cells[i],
                    Err(_) => {} // lost the claim race; keep probing
                }
            }
            i = (i + 1) & mask;
        }
        self.overflow_routed.fetch_add(1, Ordering::Relaxed);
        &self.overflow
    }

    /// Cell resolutions that landed on the overflow cell because the
    /// probe window was exhausted (per-key attribution degraded;
    /// totals unaffected).
    pub fn overflow_routed(&self) -> u64 {
        self.overflow_routed.load(Ordering::Relaxed)
    }

    /// Relaxed scan of every claimed cell, overflow last (under its
    /// [`OVERFLOW_KEY`]), zero cells skipped. Unsorted; the snapshot
    /// layer orders by key when folding.
    pub fn entries(&self) -> Vec<AttribEntry> {
        let mut out = Vec::new();
        let entry = |(thread, home), cell: &AttribCell| AttribEntry {
            thread,
            home,
            counts: cell.counts(),
        };
        for (key, cell) in self.keys.iter().zip(self.cells.iter()) {
            let k = key.load(Ordering::Relaxed);
            if k == 0 || cell.is_zero() {
                continue;
            }
            let packed = k.wrapping_sub(1);
            out.push(entry(((packed >> 32) as u32, packed as u32), cell));
        }
        if !self.overflow.is_zero() {
            out.push(entry(OVERFLOW_KEY, &self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SingleWriterCounter as _;

    #[test]
    fn cells_are_stable_per_key() {
        let t = AttribTable::new(64);
        t.cell(3, 7).migrations.bump(2);
        t.cell(3, 7).cost.bump(40);
        t.cell(4, 7).migrations.bump(1);
        assert_eq!(t.cell(3, 7).migrations.load(Ordering::Relaxed), 2);
        assert_eq!(t.cell(3, 7).cost.load(Ordering::Relaxed), 40);
        assert_eq!(t.cell(4, 7).migrations.load(Ordering::Relaxed), 1);
        assert_eq!(t.overflow_routed(), 0);
        let entries = t.entries();
        assert_eq!(entries.len(), 2);
        let e = entries.iter().find(|e| (e.thread, e.home) == (3, 7));
        assert_eq!(e.expect("row (3, 7)").counts, [2, 0, 0, 0, 40]);
    }

    #[test]
    fn saturated_table_keeps_totals_exact_via_overflow() {
        let t = AttribTable::new(8); // cap 8, probe window 8
        for thread in 0..64u32 {
            t.cell(thread, 0).cost.bump(1);
        }
        let total: u64 = t.entries().iter().map(|e| e.get(Col::Cost)).sum();
        assert_eq!(total, 64, "no event lost to saturation");
        assert!(t.overflow_routed() > 0, "some keys had to spill");
        assert!(t
            .entries()
            .iter()
            .any(|e| (e.thread, e.home) == OVERFLOW_KEY));
    }

    #[test]
    fn overflow_key_itself_routes_to_overflow() {
        let t = AttribTable::new(8);
        t.cell(u32::MAX, u32::MAX).remote_reads.bump(3);
        assert_eq!(t.overflow.remote_reads.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_claims_settle_on_one_slot() {
        let t = std::sync::Arc::new(AttribTable::new(64));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        t.cell(9, 2).cost.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(t.cell(9, 2).cost.load(Ordering::Relaxed), 4_000);
        assert_eq!(t.entries().len(), 1);
    }
}
