//! Placement policies: address → home core.

use em2_model::{Addr, CoreId};
use em2_trace::Workload;

/// A data placement: the total function from addresses to home cores.
///
/// Implementations must be pure (same input, same answer) — the EM²
/// machine, the DP model, and the coherence baseline all consult the
/// placement independently and must agree.
pub trait Placement: Send + Sync {
    /// The home core of an address.
    fn home_of(&self, addr: Addr) -> CoreId;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Number of cores addresses are distributed over.
    fn cores(&self) -> usize;
}

/// A shared placement is a placement: the executable runtime (`em2-rt`)
/// hands one `Arc<dyn Placement>` to every shard thread, and the same
/// handle still plugs into the simulator APIs that take `&dyn
/// Placement` — guaranteeing both resolve homes through the *same*
/// table.
impl<P: Placement + ?Sized> Placement for std::sync::Arc<P> {
    fn home_of(&self, addr: Addr) -> CoreId {
        (**self).home_of(addr)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn cores(&self) -> usize {
        (**self).cores()
    }
}

/// A policy that is its one field's lookup under its own name.
macro_rules! named {
    ($policy:ident, $name:literal) => {
        impl Placement for $policy {
            fn home_of(&self, addr: Addr) -> CoreId {
                self.0.home_of(addr)
            }
            fn name(&self) -> &'static str {
                $name
            }
            fn cores(&self) -> usize {
                self.0.cores()
            }
        }
    };
}

/// Cache lines striped round-robin over cores — the placement-agnostic
/// default of shared-cache NUCA designs.
#[derive(Clone, Debug)]
pub struct Striped {
    cores: usize,
    /// log2 of the line size: the constructor asserts a power of two,
    /// so address → line is a shift, not a divide.
    line_shift: u32,
}

impl Striped {
    /// Stripe `line_bytes`-sized lines over `cores` cores.
    pub fn new(cores: usize, line_bytes: u64) -> Self {
        assert!(cores > 0 && line_bytes.is_power_of_two());
        Striped {
            cores,
            line_shift: line_bytes.trailing_zeros(),
        }
    }
}

impl Placement for Striped {
    fn home_of(&self, addr: Addr) -> CoreId {
        CoreId::from(((addr.0 >> self.line_shift) % self.cores as u64) as usize)
    }

    fn name(&self) -> &'static str {
        "striped"
    }

    fn cores(&self) -> usize {
        self.cores
    }
}

/// Pages assigned round-robin over cores — coarser than [`Striped`],
/// so a thread streaming a buffer sees runs of `page/line` accesses
/// per home.
#[derive(Clone, Debug)]
pub struct PageRoundRobin(Striped);

impl PageRoundRobin {
    /// Round-robin `page_bytes`-sized pages over `cores` cores.
    pub fn new(cores: usize, page_bytes: u64) -> Self {
        PageRoundRobin(Striped::new(cores, page_bytes))
    }
}

named!(PageRoundRobin, "page-rr");

/// The address space `[base, base + span)` is carved into `cores`
/// equal contiguous blocks, one per core; addresses outside the span
/// fall back to striping.
#[derive(Clone, Debug)]
pub struct BlockOwner {
    base: u64,
    block_bytes: u64,
    fallback: Striped,
}

impl BlockOwner {
    /// Carve `[base, base+span)` into one block per core.
    pub fn new(cores: usize, base: u64, span: u64, line_bytes: u64) -> Self {
        assert!(cores > 0 && span > 0);
        BlockOwner {
            base,
            block_bytes: span.div_ceil(cores as u64),
            fallback: Striped::new(cores, line_bytes),
        }
    }
}

impl Placement for BlockOwner {
    fn home_of(&self, addr: Addr) -> CoreId {
        if addr.0 < self.base {
            return self.fallback.home_of(addr);
        }
        let block = (addr.0 - self.base) / self.block_bytes;
        if block >= self.fallback.cores() as u64 {
            self.fallback.home_of(addr)
        } else {
            CoreId::from(block as usize)
        }
    }

    fn name(&self) -> &'static str {
        "block-owner"
    }

    fn cores(&self) -> usize {
        self.fallback.cores()
    }
}

/// A slot no thread touched; its unit falls back to striping.
const UNTOUCHED: u16 = u16::MAX;

/// Units `first..first + len`, homed at `homes[at..at + len]`.
#[derive(Clone, Debug)]
struct Segment {
    first: u64,
    len: u64,
    at: usize,
}

/// The unit → home table of a workload-built placement: a `u16` home
/// per unit of each touched 64-unit page, in address order, split into
/// segments at untouched pages; memory is O(64 × touched pages + segments).
#[derive(Clone, Debug)]
struct UnitHomes {
    /// log2 of the (power-of-two) placement granularity.
    unit_shift: u32,
    /// Ascending and disjoint.
    segments: Vec<Segment>,
    homes: Vec<u16>,
    fallback: Striped,
}

impl UnitHomes {
    /// A table over the pages `workload` touches, every slot still
    /// [`UNTOUCHED`] for the build to claim.
    fn untouched(workload: &Workload, cores: usize, granularity: u64) -> Self {
        assert!(granularity.is_power_of_two() && cores < usize::from(UNTOUCHED));
        let unit_shift = granularity.trailing_zeros();
        // Most accesses land on a recently seen page: with one page kept
        // per slot, the sort sees a page a few times, not once an access.
        let mut recent = [u64::MAX; 256];
        let mut pages: Vec<u64> = workload
            .threads
            .iter()
            .flat_map(|t| &t.records)
            .map(|r| r.addr.0 >> unit_shift >> 6)
            .filter(|&page| std::mem::replace(&mut recent[page as usize % 256], page) != page)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut segments: Vec<Segment> = Vec::new();
        for (i, &page) in pages.iter().enumerate() {
            match segments.last_mut() {
                Some(s) if s.first + s.len == page << 6 => s.len += 64,
                _ => segments.push(Segment {
                    first: page << 6,
                    len: 64,
                    at: i << 6,
                }),
            }
        }
        UnitHomes {
            unit_shift,
            segments,
            homes: vec![UNTOUCHED; pages.len() << 6],
            fallback: Striped::new(cores, 64),
        }
    }

    /// Where in `homes` unit `unit` lies, if a segment holds it: a
    /// search of the segment starts, a subtract and a compare. A lone
    /// segment (every generated trace's) is not searched: that search
    /// costs `rt-local` a tenth of its throughput.
    fn slot(&self, unit: u64) -> Option<usize> {
        let s = match &self.segments[..] {
            [only] => only,
            all => all[..all.partition_point(|s| s.first <= unit)].last()?,
        };
        (unit.wrapping_sub(s.first) < s.len).then(|| s.at + (unit - s.first) as usize)
    }

    fn home_of(&self, addr: Addr) -> CoreId {
        match self.slot(addr.0 >> self.unit_shift).map(|i| self.homes[i]) {
            Some(home) if home != UNTOUCHED => CoreId(home),
            _ => self.fallback.home_of(addr),
        }
    }

    fn cores(&self) -> usize {
        self.fallback.cores()
    }
}

/// First-touch placement (the paper's Figure-2 configuration): each
/// `granularity`-sized unit is homed at the native core of the thread
/// that accesses it first.
///
/// "First" is defined by a deterministic replay of the workload:
/// phases execute in order (threads synchronize at barriers), and
/// within a phase, records are interleaved round-robin one access at a
/// time across threads. Units never touched fall back to striping.
#[derive(Clone, Debug)]
pub struct FirstTouch(UnitHomes);

impl FirstTouch {
    /// Build from a workload at the given placement granularity
    /// (64 = per-line, 4096 = per-page OS-style first touch).
    pub fn build(workload: &Workload, cores: usize, granularity: u64) -> Self {
        let mut table = UnitHomes::untouched(workload, cores, granularity);
        for phase in 0..workload.phases() {
            let slices = Vec::from_iter(workload.threads.iter().map(|t| t.phase_records(phase)));
            for i in 0..slices.iter().map(|s| s.len()).max().unwrap_or(0) {
                for (t, s) in workload.threads.iter().zip(&slices) {
                    let Some(r) = s.get(i) else { continue };
                    let at = table.slot(r.addr.0 >> table.unit_shift);
                    let home = &mut table.homes[at.expect("a touched unit has a slot")];
                    if *home == UNTOUCHED {
                        *home = t.native.0;
                    }
                }
            }
        }
        FirstTouch(table)
    }

    /// Per-core counts of assigned units (placement balance metric).
    pub fn distribution(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cores()];
        let homes = self.0.homes.iter().filter(|&&h| h != UNTOUCHED);
        homes.for_each(|&h| counts[usize::from(h)] += 1);
        counts
    }
}

named!(FirstTouch, "first-touch");

/// Profile-based majority placement: each unit is homed at the native
/// core whose threads account for the most accesses to it (ties broken
/// toward the lower core id). An idealized profile-guided placement in
/// the spirit of the CC-NUMA work the paper cites \[11\] and the
/// EM²-specific optimization study \[12\].
#[derive(Clone, Debug)]
pub struct ProfileMajority(UnitHomes);

impl ProfileMajority {
    /// Build from a full workload profile.
    pub fn build(workload: &Workload, cores: usize, granularity: u64) -> Self {
        let mut table = UnitHomes::untouched(workload, cores, granularity);
        let shift = table.unit_shift;
        // Sorted, a unit's accesses are one run, made of one run per core.
        let mut touches: Vec<(u64, CoreId)> = workload
            .threads
            .iter()
            .flat_map(|t| t.records.iter().map(move |r| (r.addr.0 >> shift, t.native)))
            .collect();
        touches.sort_unstable();
        for unit in touches.chunk_by(|a, b| a.0 == b.0) {
            let best = unit
                .chunk_by(|a, b| a.1 == b.1)
                .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].1.cmp(&a[0].1)))
                .expect("a unit's run is not empty");
            let at = table.slot(unit[0].0).expect("a touched unit has a slot");
            table.homes[at] = best[0].1 .0;
        }
        ProfileMajority(table)
    }
}

named!(ProfileMajority, "profile-majority");

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::ThreadId;
    use em2_trace::gen::micro;
    use em2_trace::ThreadTrace;

    #[test]
    fn striped_covers_all_cores() {
        let p = Striped::new(4, 64);
        let mut seen = [false; 4];
        for i in 0..16u64 {
            seen[p.home_of(Addr(i * 64)).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Same line, same home.
        assert_eq!(p.home_of(Addr(0)), p.home_of(Addr(63)));
        assert_ne!(p.home_of(Addr(0)), p.home_of(Addr(64)));
    }

    #[test]
    fn page_rr_keeps_pages_together() {
        let p = PageRoundRobin::new(8, 4096);
        assert_eq!(p.home_of(Addr(0)), p.home_of(Addr(4095)));
        assert_ne!(p.home_of(Addr(0)), p.home_of(Addr(4096)));
    }

    #[test]
    fn block_owner_partitions_span() {
        let p = BlockOwner::new(4, 0x1000, 0x4000, 64);
        assert_eq!(p.home_of(Addr(0x1000)), CoreId(0));
        assert_eq!(p.home_of(Addr(0x1000 + 0x1000)), CoreId(1));
        assert_eq!(p.home_of(Addr(0x1000 + 0x3FFF)), CoreId(3));
        // Outside the span: falls back, still a valid core.
        assert!(p.home_of(Addr(0x10_0000)).index() < 4);
    }

    #[test]
    fn first_touch_private_data_is_local() {
        let w = micro::private(4, 4, 50);
        let p = FirstTouch::build(&w, 4, 64);
        // Every access in every thread's trace must be homed at its
        // native core (private arrays, first-touched by the owner).
        for t in &w.threads {
            for r in &t.records {
                assert_eq!(p.home_of(r.addr), t.native, "addr {:?}", r.addr);
            }
        }
    }

    #[test]
    fn first_touch_respects_phase_order() {
        // Thread 1 touches addr X in phase 0; thread 0 touches it in
        // phase 1. Even though thread 0 comes first in round-robin
        // order, phase order wins.
        let mut t0 = ThreadTrace::new(ThreadId(0), CoreId(0));
        let mut t1 = ThreadTrace::new(ThreadId(1), CoreId(1));
        t0.barrier(); // t0 idle in phase 0
        t1.write(0, Addr(0x100));
        t1.barrier();
        t0.read(0, Addr(0x100));
        let w = Workload::new("order", vec![t0, t1]);
        let p = FirstTouch::build(&w, 2, 64);
        assert_eq!(p.home_of(Addr(0x100)), CoreId(1));
    }

    #[test]
    fn first_touch_untouched_falls_back() {
        let w = micro::private(2, 2, 10);
        let p = FirstTouch::build(&w, 2, 64);
        // A far-away address nobody touched still gets a valid home.
        assert!(p.home_of(Addr(0xDEAD_0000)).index() < 2);
    }

    /// The table's memory follows the touched pages, not the span
    /// between them: units 1 and 2^57 are two pages in two segments.
    #[test]
    fn far_apart_units_cost_two_pages() {
        let mut t0 = ThreadTrace::new(ThreadId(0), CoreId(0));
        let mut t1 = ThreadTrace::new(ThreadId(1), CoreId(1));
        t0.write(0, Addr(64));
        t1.write(0, Addr(1 << 63));
        let w = Workload::new("far", vec![t0, t1]);
        for table in [
            FirstTouch::build(&w, 2, 64).0,
            ProfileMajority::build(&w, 2, 64).0,
        ] {
            assert_eq!((table.segments.len(), table.homes.len()), (2, 128));
            assert_eq!(table.home_of(Addr(64)), CoreId(0));
            assert_eq!(table.home_of(Addr(1 << 63)), CoreId(1));
        }
    }

    #[test]
    fn first_touch_page_granularity_groups_lines() {
        let mut t0 = ThreadTrace::new(ThreadId(0), CoreId(0));
        let t1 = ThreadTrace::new(ThreadId(1), CoreId(1));
        t0.write(0, Addr(0x2000));
        let w = Workload::new("g", vec![t0, t1]);
        let p = FirstTouch::build(&w, 2, 4096);
        // The whole page got claimed by thread 0.
        assert_eq!(p.home_of(Addr(0x2000)), CoreId(0));
        assert_eq!(p.home_of(Addr(0x2FFF)), CoreId(0));
    }

    #[test]
    fn first_touch_distribution_sums_to_units() {
        let w = micro::uniform(4, 4, 100, 32, 0.3, 7);
        let p = FirstTouch::build(&w, 4, 64);
        let units: std::collections::BTreeSet<u64> = w
            .threads
            .iter()
            .flat_map(|t| t.records.iter().map(|r| r.addr.0 >> 6))
            .collect();
        assert!(!units.is_empty());
        assert_eq!(p.distribution().iter().sum::<usize>(), units.len());
    }

    #[test]
    fn profile_majority_prefers_heavy_user() {
        let mut t0 = ThreadTrace::new(ThreadId(0), CoreId(0));
        let mut t1 = ThreadTrace::new(ThreadId(1), CoreId(1));
        // t0 touches addr once (first), t1 touches it 10 times.
        t0.write(0, Addr(0x500));
        for _ in 0..10 {
            t1.read(0, Addr(0x500));
        }
        let w = Workload::new("maj", vec![t0, t1]);
        let ft = FirstTouch::build(&w, 2, 64);
        let pm = ProfileMajority::build(&w, 2, 64);
        assert_eq!(
            ft.home_of(Addr(0x500)),
            CoreId(0),
            "first touch wins for FT"
        );
        assert_eq!(pm.home_of(Addr(0x500)), CoreId(1), "majority wins for PM");
    }

    /// The shift form answers what the division form answered: a seeded
    /// sweep over touched units, their neighbours, and the top of the
    /// address space, against homes recomputed with `/`.
    #[test]
    fn shifted_units_equal_divided_units() {
        use em2_model::DetRng;
        use std::collections::BTreeMap;

        const CORES: usize = 5;
        let w = micro::uniform(CORES, CORES, 300, 512, 0.3, 21);
        let mut rng = DetRng::new(0x5EED);
        let mut sweep: Vec<u64> = w
            .threads
            .iter()
            .flat_map(|t| t.records.iter().map(|r| r.addr.0))
            .collect();
        for _ in 0..2_000 {
            let a = rng.next_u64();
            sweep.extend([a, a | (1 << 63), a >> 20, a >> 40]);
        }
        sweep.extend([0, u64::MAX, 1 << 63, (1 << 63) - 1]);

        let striped_by_division =
            |a: u64, unit: u64| CoreId::from(((a / unit) % CORES as u64) as usize);
        for granule in [8u64, 64, 4096] {
            // First touch by division: same replay order as `build`
            // (one phase boundary in `uniform`, round-robin within).
            let mut first: BTreeMap<u64, CoreId> = BTreeMap::new();
            for phase in 0..w.phases() {
                let slices: Vec<_> = w.threads.iter().map(|t| t.phase_records(phase)).collect();
                for i in 0..slices.iter().map(|s| s.len()).max().unwrap_or(0) {
                    for (t, s) in w.threads.iter().zip(&slices) {
                        if let Some(r) = s.get(i) {
                            first.entry(r.addr.0 / granule).or_insert(t.native);
                        }
                    }
                }
            }
            let ft = FirstTouch::build(&w, CORES, granule);
            let striped = Striped::new(CORES, granule);
            let paged = PageRoundRobin::new(CORES, granule);
            assert_eq!(ft.distribution().iter().sum::<usize>(), first.len());
            for &a in &sweep {
                let by_division = striped_by_division(a, granule);
                assert_eq!(striped.home_of(Addr(a)), by_division, "{a:#x}/{granule}");
                assert_eq!(paged.home_of(Addr(a)), by_division, "{a:#x}/{granule}");
                let expect = first
                    .get(&(a / granule))
                    .copied()
                    .unwrap_or_else(|| striped_by_division(a, 64));
                assert_eq!(ft.home_of(Addr(a)), expect, "{a:#x}/{granule}");
            }
        }
    }

    #[test]
    fn policies_report_names_and_cores() {
        let w = micro::private(2, 2, 5);
        let policies: Vec<Box<dyn Placement>> = vec![
            Box::new(Striped::new(2, 64)),
            Box::new(PageRoundRobin::new(2, 4096)),
            Box::new(BlockOwner::new(2, 0, 1 << 20, 64)),
            Box::new(FirstTouch::build(&w, 2, 64)),
            Box::new(ProfileMajority::build(&w, 2, 64)),
        ];
        for p in &policies {
            assert!(!p.name().is_empty());
            assert_eq!(p.cores(), 2);
            assert!(p.home_of(Addr(0x1234)).index() < 2);
        }
    }
}
